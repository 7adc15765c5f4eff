"""The traced run: per-layer numbers for each module of ``src/ticketsim``.

It runs the workload in-process through ``cli.main`` with the same
generated configs as the closed loop, in three kinds of pass:

* one memory pass under ``tracemalloc`` at workers=1 (``tracemalloc`` sees
  only this process). ``tracemalloc`` slows the oracle's Python loop 14-21x,
  so timing passes never run under it. Work counts come from this pass,
  where a counting wrapper sits on the oracle's ``term`` callable.
* untraced and traced timing passes, alternated (at least one of each)
  until the run's time, counted from its start, is spent. Self times are medians over the traced passes, and the traced
  passes' median wall over the untraced passes' gives the trace overhead.
* a kernel scale grid: each public sampler and the oracle called directly
  at the sizes of the ROADMAP's scale grid, timed once and, for the numpy
  kernels, once more under ``tracemalloc`` for peak memory. It also runs
  ``verify_large_n``'s verify with lognormal rewards and reports its gate
  margin without gating on it.

The whole run must end before ``deadline``. In-process passes cannot be
cut short, so the run checks the deadline between stages: a stage it has
to skip leaves its metrics at 0 and records a failed check.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

from closed_loop import CheckTally, Deadline, measure_setup, write_configs
from spans import MB, Span, Target, Tracer, instrument
from workloads import LOGNORMAL, WORKLOADS, Workload, check_outputs

POOL_STARTUP_REPEATS = 5
# The grid took 14-18 s on a 2-vCPU x86-64 machine; it starts only with this
# much time left before the deadline, and timing passes stop early to leave it.
GRID_RESERVE_S = 30.0

SAMPLERS = ("sample_win_slots", "sample_ticket_payoffs", "sample_holder_flows",
            "sample_pool_payoffs")

# Grid sizes: one trajectory block of each sampler family.
GRID_TRACKED_TRIALS = 4096
GRID_PATH_TRIALS = 512
GRID_WIN_N = (32, 1024, 16384)
GRID_HOLDER = ((0.01, 0.0), (0.01, 0.5), (0.001, 0.0), (0.001, 0.5))   # (d, beta) at n=32, k=4
GRID_POOL_N = (32, 1024)                                              # k=16, d=0.01
GRID_POOL_SKIPPED_N = 16384
GRID_POOL_K = 16
GRID_ORACLE_N = (1024, 16384, 65536)
# verify_large_n's verify with lognormal rewards, whose variance gate fails
# correct results on some seeds; traced only, its margin is not gated.
GRID_VERIFY_LOGNORMAL = "grid.verify_lognormal.n16384"

# Every metric the traced run reports, with its unit. Layers that do not run
# on a workload report 0.
PER_LAYER_UNITS: dict[str, str] = {
    "cli.import_s": "s",
    "cli.main.self_ms": "ms",
    "config.parse_config.self_ms": "ms",
    "harness.run_verify.self_ms": "ms",
    "harness.run_analytic.self_ms": "ms",
    "harness.run_pool.self_ms": "ms",
    "harness.run_multiblock.self_ms": "ms",
    "harness.rows": "count",
    "harness.rows_failed": "count",
    "harness.max_abs_z": "z",
    "market.multiblock_value_experiment.self_ms": "ms",
    "market.pooled_variance_experiment.self_ms": "ms",
    "engine.sample_win_slots.self_ms": "ms",
    "engine.sample_win_slots.peak_mb": "MB",
    "engine.sample_ticket_payoffs.self_ms": "ms",
    "engine.sample_ticket_payoffs.peak_mb": "MB",
    "engine.sample_holder_flows.self_ms": "ms",
    "engine.sample_holder_flows.peak_mb": "MB",
    "engine.sample_holder_flows.cells": "computed_cells",
    "engine.sample_pool_payoffs.self_ms": "ms",
    "engine.sample_pool_payoffs.peak_mb": "MB",
    "engine.sample_pool_payoffs.cells": "computed_cells",
    "engine.trajectories": "count",
    "engine.truncated": "count",
    "engine.truncated_frac": "fraction",
    "engine.pool_startup_ms": "ms",
    "analytics.truncated_series_sum.self_ms": "ms",
    "analytics.truncated_series_sum.calls": "count",
    "analytics.truncated_series_sum.terms": "count",
    "analytics.truncated_series_sum.peak_mb": "MB",
    "report.emit_report.self_ms": "ms",
    "report.bytes": "bytes",
    "trace.unattributed_ms": "ms",
    "trace.overhead_frac": "fraction",
    "trace.untraced_pass_ms": "ms",
}
for _n in GRID_WIN_N:
    PER_LAYER_UNITS[f"grid.win_slots.n{_n}.self_ms"] = "ms"
    PER_LAYER_UNITS[f"grid.win_slots.n{_n}.peak_mb"] = "MB"
for _d, _beta in GRID_HOLDER:
    PER_LAYER_UNITS[f"grid.holder_flows.d{_d:g}.beta{_beta:g}.self_ms"] = "ms"
    PER_LAYER_UNITS[f"grid.holder_flows.d{_d:g}.beta{_beta:g}.peak_mb"] = "MB"
for _n in GRID_POOL_N:
    PER_LAYER_UNITS[f"grid.pool.n{_n}.self_ms"] = "ms"
    PER_LAYER_UNITS[f"grid.pool.n{_n}.peak_mb"] = "MB"
PER_LAYER_UNITS[f"grid.pool.n{GRID_POOL_SKIPPED_N}.skipped_cells"] = "computed_cells"
for _n in GRID_ORACLE_N:
    PER_LAYER_UNITS[f"grid.oracle.n{_n}.self_ms"] = "ms"
    PER_LAYER_UNITS[f"grid.oracle.n{_n}.terms"] = "count"
PER_LAYER_UNITS[f"{GRID_VERIFY_LOGNORMAL}.max_abs_z"] = "z"
PER_LAYER_UNITS[f"{GRID_VERIFY_LOGNORMAL}.rows_failed"] = "count"


# ---------------------------------------------------------------------------
# Work counters, computed from call arguments and return values
# ---------------------------------------------------------------------------


def _engine():
    return sys.modules["ticketsim.engine"]


def _verify_counts(args: dict, outcome) -> dict:
    # Only verify gates its rows on z, so only its z shows a gate margin.
    zs = [abs(r.z_score) for r in outcome.rows if r.trials > 0 and math.isfinite(r.z_score)]
    return {"rows": len(outcome.rows), "rows_failed": len(outcome.failures),
            "max_abs_z": max(zs, default=0.0)}


def _row_counts(args: dict, rows) -> dict:
    return {"rows": len(rows)}


def _tracked_counts(args: dict, result) -> dict:
    return {"trajectories": args["trials"], "truncated": int(result[1])}


def _holder_counts(args: dict, result) -> dict:
    horizon = args["horizon"] or _engine().discount_horizon(args["params"].d)
    return {"trajectories": args["trials"], "cells": args["trials"] * horizon}


def _pool_counts(args: dict, result) -> dict:
    engine = _engine()
    horizon = args["horizon"] or engine.win_horizon(
        args["params"].n, engine.TAIL_TOLERANCE / args["pool_tickets"])
    return {"trajectories": args["trials"], "truncated": int(result[2]),
            "cells": args["trials"] * horizon}


def _report_counts(args: dict, result) -> dict:
    return {"bytes": os.path.getsize(args["path"])}


def _count_terms(arguments: dict, span: Span) -> dict:
    term = arguments["term"]
    span.counts["terms"] = 0

    def counted(t):
        span.counts["terms"] += 1
        return term(t)

    return {**arguments, "term": counted}


TARGETS = [
    Target("ticketsim.cli", "main"),
    Target("ticketsim.config", "parse_config"),
    Target("ticketsim.harness", "run_verify", _verify_counts),
    Target("ticketsim.harness", "run_analytic", _row_counts),
    Target("ticketsim.harness", "run_pool", _row_counts),
    Target("ticketsim.harness", "run_multiblock", _row_counts),
    Target("ticketsim.market", "multiblock_value_experiment"),
    Target("ticketsim.market", "pooled_variance_experiment"),
    Target("ticketsim.engine", "sample_win_slots", _tracked_counts),
    Target("ticketsim.engine", "sample_ticket_payoffs", _tracked_counts),
    Target("ticketsim.engine", "sample_holder_flows", _holder_counts),
    Target("ticketsim.engine", "sample_pool_payoffs", _pool_counts),
    Target("ticketsim.analytics", "truncated_series_sum", arg_hook=_count_terms),
    Target("ticketsim.report", "emit_report", _report_counts),
]


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


def _run_pass(argvs: list[list[str]], reports: list[Path],
              tracer: Tracer | None) -> tuple[float, list[tuple[int, str]]]:
    """Run each command through cli.main in this process; return wall and outputs."""
    cli = sys.modules["ticketsim.cli"]
    for report in reports:
        report.unlink(missing_ok=True)   # a report must come from this pass
    outputs = []
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(instrument(tracer, TARGETS))
        start = time.perf_counter()
        for argv in argvs:
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(buffer):
                try:
                    code = cli.main(argv)    # looked up per call: the wrapper while traced
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 2
            outputs.append((code, buffer.getvalue()))
        wall = time.perf_counter() - start
    return wall, outputs


def _layer_totals(tracer: Tracer) -> dict[str, dict]:
    """Per span name: summed self time, call count, max peak and summed counts."""
    totals: dict[str, dict] = {}
    for span, own in zip(tracer.spans, tracer.self_seconds()):
        entry = totals.setdefault(span.name, {"self_ms": 0.0, "calls": 0})
        entry["self_ms"] += own * 1000.0
        entry["calls"] += 1
        if span.peak_bytes is not None:
            entry["peak_mb"] = max(entry.get("peak_mb", 0.0), span.peak_bytes / MB)
        for key, value in span.counts.items():
            entry[key] = max(entry.get(key, 0), value) if key == "max_abs_z" else entry.get(key, 0) + value
    return totals


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _pool_startup_ms(seed: int) -> float:
    """Process-pool start-up: a public sampler on two trivial blocks at
    workers=2 minus workers=1 (n=1, so each block is one draw per trajectory)."""
    engine = _engine()
    core = sys.modules["ticketsim.core"]
    params = core.EconomyParams(n=1, d=0.01, reward=core.ConstantReward(1.0))
    trials = 2 * engine._BLOCK
    times: dict[int, list[float]] = {1: [], 2: []}
    for _ in range(POOL_STARTUP_REPEATS):
        for workers in (1, 2):
            start = time.perf_counter()
            engine.sample_win_slots(params, trials, seed, workers=workers)
            times[workers].append(time.perf_counter() - start)
    return (statistics.median(times[2]) - statistics.median(times[1])) * 1000.0


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return (time.perf_counter() - start) * 1000.0


def _peak_mb(fn) -> float:
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return (tracemalloc.get_traced_memory()[1] - base) / MB
    finally:
        tracemalloc.stop()


def _run_grid(seed: int) -> dict[str, float]:
    engine = _engine()
    core = sys.modules["ticketsim.core"]
    analytics = sys.modules["ticketsim.analytics"]
    reward = core.calibrate_lognormal(1.0, 1.0)
    out: dict[str, float] = {}

    def kernel(prefix: str, fn) -> None:
        out[f"{prefix}.self_ms"] = _timed(fn)
        out[f"{prefix}.peak_mb"] = _peak_mb(fn)

    for n in GRID_WIN_N:
        params = core.EconomyParams(n=n, d=0.01, reward=reward)
        kernel(f"grid.win_slots.n{n}",
               lambda: engine.sample_win_slots(params, GRID_TRACKED_TRIALS, seed))
    for d, beta in GRID_HOLDER:
        params = core.EconomyParams(n=32, d=d, reward=reward)
        kernel(f"grid.holder_flows.d{d:g}.beta{beta:g}",
               lambda: engine.sample_holder_flows(params, 4, GRID_PATH_TRIALS, seed, beta=beta))
    for n in GRID_POOL_N:
        params = core.EconomyParams(n=n, d=0.01, reward=reward)
        kernel(f"grid.pool.n{n}",
               lambda: engine.sample_pool_payoffs(params, GRID_POOL_K, GRID_PATH_TRIALS, seed))
    # One block at n=16384 is ~197M cells, ~1 GB of int32 and bool: not run.
    out[f"grid.pool.n{GRID_POOL_SKIPPED_N}.skipped_cells"] = GRID_PATH_TRIALS * engine.win_horizon(
        GRID_POOL_SKIPPED_N, engine.TAIL_TOLERANCE / GRID_POOL_K)

    for n in GRID_ORACLE_N:
        # The slots-to-win series, the oracle's longest: about 31n terms. The
        # oracle calls term(1), term(2), ... in order, so the last t is the count.
        q = 1.0 - 1.0 / n
        last = [0]

        def term(t, q=q, n=n):
            last[0] = t
            return t * q ** (t - 1) * (1.0 / n)

        out[f"grid.oracle.n{n}.self_ms"] = _timed(
            lambda: analytics.truncated_series_sum(term, epsilon=1e-12, ratio=q))
        out[f"grid.oracle.n{n}.terms"] = last[0]

    config = sys.modules["ticketsim.config"]
    harness = sys.modules["ticketsim.harness"]
    raw = {**WORKLOADS["verify_large_n"].commands[0].config, "reward": LOGNORMAL, "workers": 2,
           "seed": seed}
    counts = _verify_counts({}, harness.run_verify(config.parse_config(raw)))
    out[f"{GRID_VERIFY_LOGNORMAL}.max_abs_z"] = counts["max_abs_z"]
    out[f"{GRID_VERIFY_LOGNORMAL}.rows_failed"] = counts["rows_failed"]
    return out


# ---------------------------------------------------------------------------
# The traced run
# ---------------------------------------------------------------------------


def run_traced(workload: Workload, seed: int, seconds: float, root: Path, workdir: Path,
               deadline: Deadline) -> tuple[dict[str, float], CheckTally, dict]:
    """Return (per-layer metrics, output checks, trace document)."""
    run_start = time.perf_counter()
    tally = CheckTally()

    def in_time(stage: str, reserve: float) -> bool:
        ok = deadline.left() >= reserve
        tally.add("deadline", [(f"{stage}_started_{reserve:g}s_before_deadline", ok)])
        return ok

    paths = write_configs(workload, seed, workdir)
    _, import_times = measure_setup(root, [c for c, _ in paths], workdir, deadline, tally)

    import ticketsim.cli  # noqa: F401  (loads every module the targets live in)

    argvs = [[c.verb, "--config", str(cfg)] for c, (cfg, _) in zip(workload.commands, paths)]
    reports = [report for _, report in paths]
    references: list[bytes | None] = [None] * len(paths)

    def check(label: str, outputs: list[tuple[int, str]]) -> None:
        for i, (command, (_, report), (code, stdout)) in enumerate(
                zip(workload.commands, paths, outputs)):
            checks, data = check_outputs(command, code, stdout, report, references[i])
            tally.add(f"{label} {command.verb}", checks)
            if references[i] is None:
                references[i] = data

    # The memory pass goes first: it also serves as the warm-up that lets lazy
    # set-up and the allocator's first large blocks happen outside the timing.
    memory_tracer = Tracer(memory=True)
    tracemalloc.start()
    try:
        memory_wall, outputs = _run_pass([a + ["--workers", "1"] for a in argvs], reports,
                                         memory_tracer)
    finally:
        tracemalloc.stop()
    # Its reports become the references: every later pass must match the
    # workers=1 report byte for byte.
    check("memory pass (workers=1)", outputs)

    untraced_walls: list[float] = []
    traced_walls: list[float] = []
    tracers: list[Tracer] = []
    # At least one pair of passes, then more until the run's time is spent
    # or only the grid's reserve is left.
    if in_time("timing_passes", GRID_RESERVE_S):
        while True:
            # Alternate which kind of pass goes first in each pair.
            for traced in (False, True) if len(tracers) % 2 == 0 else (True, False):
                tracer = Tracer() if traced else None
                wall, outputs = _run_pass(argvs, reports, tracer)
                if tracer is None:
                    untraced_walls.append(wall)
                    check(f"untraced pass {len(untraced_walls)}", outputs)
                else:
                    traced_walls.append(wall)
                    tracers.append(tracer)
                    check(f"traced pass {len(traced_walls)}", outputs)
            pair_wall = untraced_walls[-1] + traced_walls[-1]
            if (time.perf_counter() - run_start >= seconds
                    or deadline.left() < GRID_RESERVE_S + pair_wall):
                break

    startup_ms = _pool_startup_ms(seed) if workload.measures_pool_startup else 0.0
    grid_start = time.perf_counter()
    grid = _run_grid(seed) if in_time("grid", GRID_RESERVE_S) else {}
    grid_wall = time.perf_counter() - grid_start

    per_pass = [_layer_totals(t) for t in tracers]
    memory = _layer_totals(memory_tracer)
    layer_names = sorted({name for totals in per_pass for name in totals})

    def self_ms(name: str) -> float:
        return _median(totals.get(name, {}).get("self_ms", 0.0) for totals in per_pass)

    def counted(name: str, key: str) -> float:
        return memory.get(name, {}).get(key, 0)

    metrics = {name: 0.0 for name in PER_LAYER_UNITS}
    for name in layer_names:
        key = f"{name}.self_ms"
        if key in metrics:
            metrics[key] = self_ms(name)
    for layer in [f"engine.{s}" for s in SAMPLERS] + ["analytics.truncated_series_sum"]:
        metrics[f"{layer}.peak_mb"] = counted(layer, "peak_mb")
    for layer in ("engine.sample_holder_flows", "engine.sample_pool_payoffs"):
        metrics[f"{layer}.cells"] = counted(layer, "cells")
    trajectories = sum(counted(f"engine.{s}", "trajectories") for s in SAMPLERS)
    truncated = sum(counted(f"engine.{s}", "truncated") for s in SAMPLERS)
    metrics["engine.trajectories"] = trajectories
    metrics["engine.truncated"] = truncated
    metrics["engine.truncated_frac"] = truncated / trajectories if trajectories else 0.0
    metrics["engine.pool_startup_ms"] = startup_ms
    metrics["analytics.truncated_series_sum.calls"] = counted("analytics.truncated_series_sum", "calls")
    metrics["analytics.truncated_series_sum.terms"] = counted("analytics.truncated_series_sum", "terms")
    harness = [v for k, v in memory.items() if k.startswith("harness.")]
    metrics["harness.rows"] = sum(v.get("rows", 0) for v in harness)
    metrics["harness.rows_failed"] = sum(v.get("rows_failed", 0) for v in harness)
    metrics["harness.max_abs_z"] = max((v.get("max_abs_z", 0.0) for v in harness), default=0.0)
    metrics["report.bytes"] = counted("report.emit_report", "bytes")
    metrics["cli.import_s"] = _median(import_times)

    # Wall time of a traced pass that no layer below the entry point covers.
    metrics["trace.unattributed_ms"] = _median(
        wall * 1000.0 - sum(v["self_ms"] for k, v in totals.items() if k != "cli.main")
        for wall, totals in zip(traced_walls, per_pass)
    )
    metrics["trace.untraced_pass_ms"] = _median(untraced_walls) * 1000.0
    if untraced_walls:
        metrics["trace.overhead_frac"] = _median(traced_walls) / _median(untraced_walls) - 1.0
    metrics.update(grid)

    covered = sum(self_ms(name) for name in layer_names)
    shares = {name: self_ms(name) / covered for name in layer_names} if covered else {}
    document = {
        "workload": workload.name,
        "seed": seed,
        "untraced_walls_s": untraced_walls,
        "traced_walls_s": traced_walls,
        "memory_pass_wall_s": memory_wall,
        "grid_wall_s": grid_wall,
        "self_time_shares": dict(sorted(shares.items(), key=lambda kv: -kv[1])),
        "counter_errors": [e for t in tracers + [memory_tracer] for e in t.counter_errors],
        "passes": [{"kind": "traced", "spans": t.to_records()} for t in tracers]
        + [{"kind": "memory", "workers": 1, "spans": memory_tracer.to_records()}],
    }
    return metrics, tally, document
