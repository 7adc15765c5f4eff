"""The package's lazy public names, and what a fresh CLI process starts and
how it exits."""

import contextlib
import gc
import io
import json
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import ticketsim
from ticketsim.cli import main


def _child_env(**env_overrides) -> dict:
    """The environment of a fresh interpreter that finds this ticketsim.

    ``OPENBLAS_NUM_THREADS`` is left out unless it is given here.
    """
    src = str(Path(ticketsim.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env.update(env_overrides)
    return env


def _python(code: str, **env_overrides) -> str:
    """Run ``code`` in a fresh interpreter that finds this ticketsim; return its stdout."""
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_child_env(**env_overrides), check=True)
    return done.stdout.strip()


def _cli_process(args: list, cwd) -> subprocess.CompletedProcess:
    """Run ``python -m ticketsim.cli`` on ``args`` in ``cwd``, output captured."""
    return subprocess.run([sys.executable, "-m", "ticketsim.cli", *args], cwd=cwd,
                          capture_output=True, text=True, env=_child_env())


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
    # Nor do they run the samplers' module: ``ticketsim.engine`` is in
    # ``sys.modules`` (a profiler looks it up there), but its namespace,
    # read without a lookup that would run it, holds only what the import
    # system set. The first lookup of a name runs it. The commands that run
    # no oracle load neither ``fractions`` nor ``decimal``.
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
            + "engine = sys.modules['ticketsim.engine']\n"
            "print(sorted(k for k in object.__getattribute__(engine, '__dict__') if k[:2] != '__'))\n"
            "print(callable(getattr(engine, 'sample_win_slots')), 'numpy' in sys.modules)\n"
            + _cli_then_loaded([["simulate", "--trials", "1000"]]))    # a sampler loads it
    assert _python(code).splitlines() == ["[0, 0, 0] False", "[]", "True False", "[0] True"]
    samplers = [[verb, "--config", str(tmp_path / f"{verb}.json")] for verb in ("pool", "multiblock")]
    code = (_cli_then_loaded(samplers)
            + "print([m for m in ('fractions', 'decimal') if m in sys.modules])\n")
    assert _python(code).splitlines() == ["[0, 0] True", "[]"]


def test_first_lookups_of_the_samplers_from_several_threads_all_succeed():
    # Four threads released together look up a sampler in a module whose
    # code has not run: one runs it, and the others wait for it instead of
    # finding a half-filled namespace. Each attempt is a fresh process, with
    # a short switch interval so that the threads interleave often.
    code = ("import sys, threading, ticketsim.cli\n"
            "sys.setswitchinterval(1e-6)\n"
            "engine, barrier, errors = sys.modules['ticketsim.engine'], threading.Barrier(4), []\n"
            "def look_up():\n"
            "    barrier.wait(60)\n"
            "    try:\n"
            "        engine.sample_holder_flows\n"
            "    except Exception as exc:\n"
            "        errors.append(repr(exc))\n"
            "threads = [threading.Thread(target=look_up, daemon=True) for _ in range(4)]\n"
            "for thread in threads: thread.start()\n"
            "for thread in threads: thread.join(60)\n"
            "print(errors, [thread.is_alive() for thread in threads])\n")
    assert [_python(code) for _ in range(5)] == ["[] [False, False, False, False]"] * 5


def test_cli_loads_no_dataclasses():
    # The records are NamedTuples and the value types build on core.Frozen,
    # so a CLI process neither imports ``dataclasses`` (nor the ``inspect``
    # it pulls in) nor builds classes by ``exec``. The command line is parsed
    # without ``argparse`` (nor the ``gettext`` it pulls in), and ``csv``
    # loads only where a CSV file is read or written. An in-process profiler
    # reads the layers below from ``sys.modules`` after ``import ticketsim.cli``.
    unloaded = "[m for m in ('dataclasses', 'argparse', 'gettext', 'csv') if m in sys.modules]"
    code = ("import sys, ticketsim.cli\n"
            f"print({unloaded}, sorted(m for m in sys.modules if m.startswith('ticketsim.')))\n"
            + _cli_then_loaded([["analytic"]])
            + f"print({unloaded})\n")
    layers = ["analytics", "cli", "config", "core", "engine", "errors", "harness", "market",
              "quantities", "report"]
    assert _python(code).splitlines() == [
        f"[] {[f'ticketsim.{layer}' for layer in layers]}", "[0] False", "[]"]


def _value_types():
    from ticketsim.core import ConstantReward, EconomyParams, LognormalReward, ParetoReward
    from ticketsim.market import FairValue, FixedDiscount, FixedMargin, MultiBlockSpec

    reward = ConstantReward(1.0)
    # Per type: valid arguments, other valid arguments, and bad arguments with
    # the exception each raises.
    return {
        ConstantReward: ((1.0,), (2.0,), [
            ((-1.0,), ValueError, "constant reward must be finite and >= 0, got -1.0"),
            ((math.inf,), ValueError, "constant reward must be finite and >= 0, got inf"),
            ((math.nan,), ValueError, "constant reward must be finite and >= 0, got nan"),
        ]),
        LognormalReward: ((0.0, 1.0), (0.0, 0.5), [
            ((0.0, 0.0), ValueError, "sigma_log must be finite and > 0, got 0.0"),
            ((0.0, math.inf), ValueError, "sigma_log must be finite and > 0, got inf"),
            ((math.nan, 1.0), ValueError, "mu_log must be finite, got nan"),
        ]),
        ParetoReward: ((3.0, 1.0), (3.0, 2.0), [
            ((2.0, 1.0), ValueError, "pareto shape must be > 2 for finite variance, got 2.0"),
            ((math.inf, 1.0), ValueError, "pareto shape must be > 2 for finite variance, got inf"),
            ((3.0, 0.0), ValueError, "pareto scale must be finite and > 0, got 0.0"),
            ((3.0, math.nan), ValueError, "pareto scale must be finite and > 0, got nan"),
        ]),
        EconomyParams: ((8, 0.01, reward), (8, 0.02, reward), [
            ((0, 0.01, reward), ValueError, "ticket count n must be an integer >= 1, got 0"),
            ((2.5, 0.01, reward), ValueError, "ticket count n must be an integer >= 1, got 2.5"),
            ((8, -0.1, reward), ValueError, "discount rate d must be finite and >= 0, got -0.1"),
            ((8, math.inf, reward), ValueError, "discount rate d must be finite and >= 0, got inf"),
            ((8, 0.01, 1.0), TypeError, "reward must be a RewardModel, got float"),
        ]),
        FairValue: ((), None, []),
        FixedMargin: ((0.1,), (0.2,), [
            ((-0.1,), ValueError, "margin must be finite and >= 0, got -0.1"),
            ((math.inf,), ValueError, "margin must be finite and >= 0, got inf"),
        ]),
        FixedDiscount: ((0.1,), (0.2,), [
            ((1.5,), ValueError, "discount must be in [0, 1], got 1.5"),
            ((-0.1,), ValueError, "discount must be in [0, 1], got -0.1"),
        ]),
        MultiBlockSpec: ((0.5,), (0.25,), [
            ((-0.1,), ValueError, "beta must be finite and >= 0, got -0.1"),
            ((math.nan,), ValueError, "beta must be finite and >= 0, got nan"),
        ]),
    }


def test_value_types_validate_and_are_immutable_hashable_values():
    for cls, (args, other, bad) in _value_types().items():
        for bad_args, error, message in bad:
            with pytest.raises(error) as caught:
                cls(*bad_args)
            assert str(caught.value) == message, cls.__name__
        value = cls(*args)
        for name in (*value._fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(value, name, 1.0)
        for name in value._fields:
            with pytest.raises(AttributeError):
                delattr(value, name)
        same = cls(**dict(zip(value._fields, args)))
        assert same == value and hash(same) == hash(value) and same is not value
        assert repr(value) == f"{cls.__name__}({', '.join(f'{n}={a!r}' for n, a in zip(value._fields, args))})"
        if other is not None:
            assert cls(*other) != value
        copied = pickle.loads(pickle.dumps(value))
        assert type(copied) is cls and copied == value and hash(copied) == hash(value)
    # Equal only within a type, unlike a tuple.
    margin, discount = ticketsim.FixedMargin(0.1), ticketsim.FixedDiscount(0.1)
    assert margin != discount and ticketsim.MultiBlockSpec(0.1) != (0.1,)
    assert len({margin, ticketsim.FixedMargin(0.1), discount}) == 2


def test_cli_process_entry_freezes_the_heap_at_exit():
    # atexit runs its handlers last-in-first-out, so a probe registered
    # before run() runs after the freeze that run() registers.
    code = ("import atexit, contextlib, gc, io, sys, ticketsim.cli\n"
            "atexit.register(lambda: print('frozen at exit:', gc.get_freeze_count() > 0))\n"
            "print('frozen before:', gc.get_freeze_count() > 0)\n"
            "sys.argv = ['ticketsim', 'analytic']\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    ticketsim.cli.run()\n")
    assert _python(code).splitlines() == ["frozen before: False", "frozen at exit: True"]


def test_cli_main_in_process_leaves_the_collector_as_it_was():
    before = (gc.isenabled(), gc.get_freeze_count())
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [main(["analytic"]), main(["verify", "--trials", "1000"])]
    assert codes == [0, 0]
    assert (gc.isenabled(), gc.get_freeze_count()) == before


def test_cli_process_exit_codes(tmp_path):
    (tmp_path / "bad.json").write_text(json.dumps({"d": -1}))
    ok = _cli_process(["analytic"], tmp_path)
    bad = _cli_process(["analytic", "--config", "bad.json"], tmp_path)
    assert (ok.returncode, bad.returncode) == (0, 2)
    assert bad.stderr.startswith("config error: ")


def test_cli_process_writes_the_report_that_main_writes(tmp_path, monkeypatch):
    # Freezing the heap at exit loses no buffered output, on stdout or in
    # the report.
    args = ["verify", "--trials", "2000", "--seed", "3", "--out", "report.jsonl",
            "--format", "jsonl"]
    done = _cli_process(args, tmp_path)
    assert done.returncode == 0 and done.stdout.splitlines()[-1].startswith("verify: PASS")
    written = (tmp_path / "report.jsonl").read_bytes()
    (tmp_path / "report.jsonl").unlink()
    monkeypatch.chdir(tmp_path)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(args) == 0
    assert (tmp_path / "report.jsonl").read_bytes() == written


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
