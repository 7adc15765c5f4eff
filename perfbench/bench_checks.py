"""The benchmark's own checks. Not part of the program's test suite (the
file name keeps it out of default collection); run them with

    python3 -m pytest perfbench/bench_checks.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
import tracemalloc
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from closed_loop import child_env  # noqa: E402
from layers import PER_LAYER_UNITS  # noqa: E402
from run import E2E_UNITS  # noqa: E402
from spans import Target, Tracer, instrument  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_benchmark_json_matches_the_metrics_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS


def _fake_layers():
    """Two modules: ``inner`` defined in one and imported by name into the other."""
    defining = types.ModuleType("ticketsim.benchfake_a")
    importing = types.ModuleType("ticketsim.benchfake_b")

    def inner(size):
        block = bytearray(size)
        time.sleep(0.02)
        return len(block)

    def outer(size):
        held = bytearray(size)
        time.sleep(0.01)
        return importing.inner(2 * size) + len(held)

    defining.inner = inner
    defining.outer = outer
    importing.inner = inner
    return defining, importing


def test_spans_wrap_by_name_imports_and_attribute_self_time_and_peaks():
    defining, importing = _fake_layers()
    sys.modules[defining.__name__] = defining
    sys.modules[importing.__name__] = importing
    size = 8 * 1024 * 1024
    tracer = Tracer(memory=True)
    targets = [Target(defining.__name__, "outer"), Target(defining.__name__, "inner"),
               Target(defining.__name__, "absent")]
    try:
        tracemalloc.start()
        with instrument(tracer, targets) as missing:
            defining.outer(size)
        tracemalloc.stop()
    finally:
        del sys.modules[defining.__name__], sys.modules[importing.__name__]

    assert missing == ["benchfake_a.absent"]
    assert importing.inner is defining.inner          # originals restored
    outer, inner = tracer.spans
    assert (outer.name, inner.name, inner.parent) == ("benchfake_a.outer", "benchfake_a.inner", 0)
    own = tracer.self_seconds()
    assert abs(own[0] - (outer.duration - inner.duration)) < 1e-12
    assert own[0] >= 0.01 and own[1] >= 0.02          # each layer keeps its own sleep
    mb = 1024 * 1024
    assert 2 * size <= inner.peak_bytes < 2 * size + mb
    assert 3 * size <= outer.peak_bytes < 3 * size + mb


def test_verify_large_n_report_is_identical_at_one_and_two_workers():
    """verify_large_n's report does not depend on the worker count, so its
    workers=1 runs measure the computation a process pool would do."""
    command = WORKLOADS["verify_large_n"].commands[0]
    workdir = HERE / "_run" / "bench_checks"
    workdir.mkdir(parents=True, exist_ok=True)
    reports = []
    for workers in (1, 2):
        report = workdir / f"workers{workers}.jsonl"
        report.unlink(missing_ok=True)
        config = workdir / f"workers{workers}.json"
        config.write_text(json.dumps(
            {**command.generated_config(3, report), "workers": workers}))
        # Exit 1 (a failed gate) still writes the report, which must not differ.
        done = subprocess.run([sys.executable, "-m", "ticketsim.cli", command.verb, "--config",
                               str(config)], env=child_env(ROOT), capture_output=True,
                              timeout=300)
        assert done.returncode in (0, 1), done.stderr
        reports.append(report.read_bytes())
    assert reports[0] == reports[1]
