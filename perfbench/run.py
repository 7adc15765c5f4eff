"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a ticketsim checkout. ``--trace 0`` measures the
workload end to end in a closed loop of fresh CLI processes; ``--trace 1``
runs it in-process with spans around each module's public functions. Both
check the program's outputs. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

from closed_loop import Deadline, run_closed_loop
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
RUN_DIR = Path(__file__).resolve().parent / "_run"
DEADLINE_S = 170.0   # a run must end within 180 s

E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def _result_line(tally, metrics: dict[str, float], units: dict[str, str]) -> str:
    return json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    })


def _print_failures(tally) -> None:
    for failure in tally.failures:
        print(f"  FAILED CHECK  {failure}")


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "ticketsim" / "cli.py").is_file():
        print(f"no ticketsim source under {ROOT / 'src'}; run from a ticketsim checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    deadline = Deadline(DEADLINE_S)
    workload = WORKLOADS[args.workload]
    workdir = RUN_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    workdir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()

    if args.trace:
        from layers import PER_LAYER_UNITS, run_traced

        metrics, tally, document = run_traced(workload, args.seed, args.seconds, ROOT, workdir,
                                              deadline)
        trace_path = workdir / "trace.json"
        trace_path.write_text(json.dumps({**document, "metrics": metrics}, indent=1))
        print(f"workload {workload.name}  seed {args.seed}  traced in-process  "
              f"({len(document['traced_walls_s'])} traced passes, spans in {trace_path})")
        print("  self-time shares of a traced pass:")
        for name, share in document["self_time_shares"].items():
            print(f"    {name:<44} {share:8.2%}")
        for name, unit in PER_LAYER_UNITS.items():
            print(f"  {name:<46} {metrics[name]:>16.6g} {unit}")
        for error in document["counter_errors"]:
            print(f"  counter error: {error}")
        _print_failures(tally)
        print(f"  checks: {tally.failed} failed of {tally.attempted}; "
              f"run took {time.perf_counter() - started:.1f} s")
        print(_result_line(tally, metrics, PER_LAYER_UNITS))
        return 0

    samples, tally, iterations = run_closed_loop(workload, args.seed, args.seconds, ROOT, workdir,
                                                 deadline)
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    print(f"workload {workload.name}  seed {args.seed}  closed loop, 1 caller, "
          f"{len(workload.commands)} command(s) per iteration, {iterations} iteration(s)")
    for name, unit in E2E_UNITS.items():
        values = samples[name]
        print(f"  {name:<12} {metrics[name]:>12.6g} {unit:<3} median of {len(values)}  "
              f"[min {min(values):.6g}, max {max(values):.6g}]")
    failed_frac = tally.failed / tally.attempted
    print(f"  {'failed_frac':<12} {failed_frac:>12.6g} {'1':<3} {tally.failed} of "
          f"{tally.attempted} output checks failed")
    _print_failures(tally)
    print(f"  run took {time.perf_counter() - started:.1f} s")
    print(_result_line(tally, metrics, E2E_UNITS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
