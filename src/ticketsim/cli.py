"""Command line entry point.

Subcommands: analytic, verify, simulate, sweep, pricing, pool, multiblock.
Flag precedence is flags > config file > defaults. ``config.resolve`` rejects
a key that the command does not read and gives the config that the report
echoes. Exit codes: 0 on success, 1 when the verify suite finds a failing
row, 2 on configuration errors.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Optional

# ticketsim calls no BLAS routine, but OpenBLAS starts its thread pool (whose
# workers busy-wait) as soon as numpy loads, which the imports below do. A
# value the user has set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .config import ExperimentConfig, read_raw_config, resolve
from .errors import TicketSimError
from .harness import (
    VerifyOutcome,
    run_analytic,
    run_multiblock,
    run_pool,
    run_pricing,
    run_simulate,
    run_sweep,
    run_verify,
)
from .report import ReportRow, emit_report

# Each command's help and runner. A runner returns its rows, a sweep's
# (rows, verdicts), or verify's outcome, whose failures set the exit code.
# Runners are looked up when called, so a wrapper set over a module's
# attribute (a profiler's) sees each call.
_COMMANDS = {
    "analytic": ("evaluate every closed form against its series oracle", lambda cfg: run_analytic(cfg)),
    "verify": ("full closed-form / oracle / Monte Carlo verification suite", lambda cfg: run_verify(cfg)),
    "simulate": ("Monte Carlo estimate of one quantity", lambda cfg: run_simulate(cfg)),
    "sweep": ("closed forms (optionally plus MC) over a parameter grid", lambda cfg: run_sweep(cfg)),
    "pricing": ("protocol capture under a pricing policy", lambda cfg: run_pricing(cfg)),
    "pool": ("pooled vs solo payoff variance experiment", lambda cfg: run_pool(cfg)),
    "multiblock": ("consecutive-win bonus premium experiment", lambda cfg: run_multiblock(cfg)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ticketsim",
        description="Simulator and valuation toolkit for the ticket-lottery block economy.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", help="JSON configuration file")
        cmd.add_argument("--seed", type=int, help="master RNG seed")
        cmd.add_argument("--trials", type=int, help="Monte Carlo trajectories")
        cmd.add_argument("--workers", type=int, help="parallel workers (results are worker-invariant)")
        cmd.add_argument("--out", help="report file path")
        cmd.add_argument("--format", choices=("csv", "jsonl"), help="report format")
        cmd.add_argument(
            "--timings",
            action="store_true",
            help="record wall-clock runtime_ms in rows (costs byte-reproducibility)",
        )
    return parser


def _merge_config(args: argparse.Namespace) -> tuple[ExperimentConfig, dict]:
    """The validated config of file and flags, and the report's echo of it;
    a key the command does not read is a ConfigError."""
    raw = read_raw_config(args.config) if args.config else {}
    for key in ("seed", "trials", "workers"):
        value = getattr(args, key)
        if value is not None:
            raw[key] = value
    if args.timings:
        raw["timings"] = True
    if args.out is not None or args.format is not None:
        out = dict(raw.get("output") or {})
        if args.out is not None:
            out["path"] = args.out
        if args.format is not None:
            out["format"] = args.format
        raw["output"] = out
    return resolve(raw, args.command)


def _print_rows(rows: list[ReportRow], failures: Optional[list[str]] = None) -> None:
    header = f"{'row':<28} {'closed_form':>16} {'mc_mean':>16} {'mc_stderr':>12} {'z':>8} {'rel_err':>10}"
    print(header)
    print("-" * len(header))
    for row in rows:
        status = ""
        if failures is not None:
            status = "  FAIL" if str(row.swept_value) in failures else "  ok"
        print(
            f"{str(row.swept_value):<28} {row.closed_form:>16.10g} {row.mc_mean:>16.10g} "
            f"{row.mc_stderr:>12.4g} {row.z_score:>8.2f} {row.rel_err:>10.3g}{status}"
        )


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    verdicts: dict[str, bool] = {}
    failures: Optional[list[str]] = None
    try:
        cfg, echo = _merge_config(args)
        started = time.perf_counter()
        rows = _COMMANDS[args.command][1](cfg)
        if isinstance(rows, VerifyOutcome):
            rows, failures = rows.rows, rows.failures
        elif isinstance(rows, tuple):
            rows, verdicts = rows
    except TicketSimError as exc:
        print(f"config error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    elapsed = time.perf_counter() - started
    print(f"ticketsim {args.command}  n={cfg.n} d={cfg.d} reward={cfg.reward.kind} "
          f"seed={cfg.seed} trials={cfg.trials} workers={cfg.workers}")
    _print_rows(rows, failures)
    for name in sorted(verdicts):
        print(f"verdict {name}: {'pass' if verdicts[name] else 'FAIL'}")
    print(f"elapsed: {elapsed:.2f}s")

    if cfg.output_path is not None:
        emit_report(rows, cfg.output_format, cfg.output_path, config=echo, verdicts=verdicts or None)
        print(f"report written to {cfg.output_path}")

    if failures:
        print(f"verify: FAIL ({len(rows) - len(failures)}/{len(rows)} rows passed)")
        return 1
    if failures is not None:
        print(f"verify: PASS ({len(rows)}/{len(rows)} rows)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
