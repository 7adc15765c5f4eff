"""The package's lazy public names, and what a fresh CLI process starts."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ticketsim


def _python(code: str, **env_overrides) -> str:
    """Run ``code`` in a fresh interpreter that finds this ticketsim; return its stdout.

    ``OPENBLAS_NUM_THREADS`` is left out of the child's environment unless
    it is given here.
    """
    src = str(Path(ticketsim.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env.update(env_overrides)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          check=True)
    return done.stdout.strip()


def _cli_then_loaded(argvs: list) -> str:
    """Code that runs the CLI in-process on each argv of ``argvs``, output
    discarded, then prints the exit codes and whether numpy is loaded."""
    return ("import contextlib, io, sys\nfrom ticketsim.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    codes = [main(argv) for argv in {argvs!r}]\n"
            "print(codes, 'numpy' in sys.modules)\n")


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
def test_cli_import_starts_no_blas_thread():
    # The sampler loads numpy after ``import ticketsim.cli`` has set the
    # thread count, so OpenBLAS starts no thread of its own.
    code = (_cli_then_loaded([["simulate", "--trials", "1000"]])
            + "import os; print(len(os.listdir('/proc/self/task')))")
    assert _python(code).splitlines() == ["[0] True", "1"]


def test_closed_form_commands_load_no_numpy(tmp_path):
    configs = {
        "sweep": {"sweep": {"parameter": "n", "values": [8, 16, 32]}},
        "verify": {"n": 64, "trials": 1000},
        "pool": {"pool": {"k": 4}, "trials": 1000},
        "multiblock": {"multiblock": {"beta": 0.5}, "holder_share": 0.25},
    }
    for name, cfg in configs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(cfg))
    parsed = [str(tmp_path / f"{name}.json") for name in ("verify", "pool", "multiblock")]
    closed_form = [["analytic"], ["pricing"], ["sweep", "--config", str(tmp_path / "sweep.json")]]
    code = (f"from ticketsim.config import load_config\nfor path in {parsed!r}: load_config(path)\n"
            + _cli_then_loaded(closed_form)
            + _cli_then_loaded([["simulate", "--trials", "1000"]]))    # a sampler loads it
    assert _python(code).splitlines() == ["[0, 0, 0] False", "[0] True"]


def test_cli_import_keeps_a_blas_thread_count_the_user_set():
    code = "import os, ticketsim.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert _python(code, OPENBLAS_NUM_THREADS="2") == "2"


def test_package_import_loads_nothing_and_sets_no_blas_threads():
    code = ("import os, sys, ticketsim; "
            "print(os.environ.get('OPENBLAS_NUM_THREADS'), 'numpy' in sys.modules, "
            "sorted(m for m in sys.modules if m.startswith('ticketsim.')))")
    assert _python(code) == "None False []"


def test_market_loads_neither_the_samplers_nor_the_quantity_layer():
    code = ("import sys, ticketsim.market; "
            "print([m in sys.modules for m in ('ticketsim.engine', 'ticketsim.quantities')])")
    assert _python(code) == "[False, False]"


def test_public_names_resolve_lazily():
    for name in ticketsim.__all__:
        assert getattr(ticketsim, name) is not None
    assert ticketsim.estimate is ticketsim.quantities.estimate
    assert ticketsim.engine.__name__ == "ticketsim.engine"
    assert set(ticketsim.__all__) <= set(dir(ticketsim))
    with pytest.raises(AttributeError):
        ticketsim.nope
