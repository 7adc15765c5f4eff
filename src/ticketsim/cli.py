"""Command line entry point.

Subcommands: analytic, verify, simulate, sweep, pricing, pool, multiblock.
Flag precedence is flags > config file > defaults. A config key that the
command does not read is a configuration error. Exit codes: 0 on success,
1 when the verify suite finds a failing row, 2 on configuration errors.
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

from .config import ExperimentConfig, parse_config, read_raw_config
from .errors import ConfigError, TicketSimError
from .harness import (
    run_analytic,
    run_multiblock,
    run_pool,
    run_pricing,
    run_simulate,
    run_sweep,
    run_verify,
)
from .report import ReportRow, emit_report

_COMMANDS = {
    "analytic": "evaluate every closed form against its series oracle",
    "verify": "full closed-form / oracle / Monte Carlo verification suite",
    "simulate": "Monte Carlo estimate of one quantity",
    "sweep": "closed forms (optionally plus MC) over a parameter grid",
    "pricing": "protocol capture under a pricing policy",
    "pool": "pooled vs solo payoff variance experiment",
    "multiblock": "consecutive-win bonus premium experiment",
}

# Which commands read each of these keys; any other command given one exits
# 2 naming it. Every command reads n, d and reward, and accepts the run-wide
# keys (seed, trials, workers, horizon, timings, output).
_READ_BY = {
    "policy": lambda command, cfg: command == "pricing",
    "pool": lambda command, cfg: command == "pool",
    "sweep": lambda command, cfg: command == "sweep",
    "quantity": lambda command, cfg: command == "simulate",
    "multiblock": lambda command, cfg: command == "multiblock" or (
        command == "simulate" and cfg.quantity == "holder_value"),
    "holder_share": lambda command, cfg: command not in ("pricing", "pool"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ticketsim",
        description="Simulator and valuation toolkit for the ticket-lottery block economy.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in _COMMANDS.items():
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


def _merge_config(args: argparse.Namespace) -> ExperimentConfig:
    """The validated config of file and flags; a key the command does not
    read is a ConfigError."""
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
    cfg = parse_config(raw)
    for key, reads in _READ_BY.items():
        if raw.get(key) is not None and not reads(args.command, cfg):
            by = f"simulate of {cfg.quantity}" if args.command == "simulate" else args.command
            raise ConfigError(key, f"not read by {by}")
    return cfg


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
    try:
        cfg = _merge_config(args)
    except TicketSimError as exc:
        print(f"config error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    verdicts: dict[str, bool] = {}
    failures: Optional[list[str]] = None
    try:
        if args.command == "analytic":
            rows = run_analytic(cfg)
        elif args.command == "verify":
            outcome = run_verify(cfg)
            rows, failures = outcome.rows, outcome.failures
        elif args.command == "simulate":
            rows = run_simulate(cfg)
        elif args.command == "sweep":
            rows, verdicts = run_sweep(cfg)
        elif args.command == "pricing":
            rows = run_pricing(cfg)
        elif args.command == "pool":
            rows = run_pool(cfg)
        else:
            rows = run_multiblock(cfg)
    except TicketSimError as exc:
        print(f"config error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    elapsed = time.perf_counter() - started
    print(f"ticketsim {args.command}  n={cfg.n} d={cfg.d} reward={cfg.reward_spec['kind']} "
          f"seed={cfg.seed} trials={cfg.trials} workers={cfg.workers}")
    _print_rows(rows, failures)
    for name in sorted(verdicts):
        print(f"verdict {name}: {'pass' if verdicts[name] else 'FAIL'}")
    print(f"elapsed: {elapsed:.2f}s")

    if cfg.output_path is not None:
        emit_report(rows, cfg.output_format, cfg.output_path,
                    config=cfg.resolved_dict(), verdicts=verdicts or None)
        print(f"report written to {cfg.output_path}")

    if failures:
        print(f"verify: FAIL ({len(rows) - len(failures)}/{len(rows)} rows passed)")
        return 1
    if failures is not None:
        print(f"verify: PASS ({len(rows)}/{len(rows)} rows)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
