"""The package's lazy public names, and what a fresh CLI process starts."""

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


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
def test_cli_import_starts_no_blas_thread():
    code = "import os, ticketsim.cli; print(len(os.listdir('/proc/self/task')))"
    assert _python(code) == "1"


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
