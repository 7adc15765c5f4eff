"""Command line entry point.

    ticketsim <command> [--config F] [--seed N] [--trials N] [--workers N]
                        [--out P] [--format F] [--timings]

Subcommands: analytic, verify, simulate, sweep, pricing, pool, multiblock.
A flag is given as ``--name value`` or ``--name=value``; a repeated flag
takes its last value. Flag precedence is flags > config file > defaults.
``config.resolve`` rejects a key that the command does not read and gives
the config that the report echoes. Exit codes: 0 on success, 1 when the
verify suite finds a failing row, 2 on usage or configuration errors.
"""

from __future__ import annotations

import atexit
import gc
import os
import sys
import time
from typing import NoReturn, Optional

# ticketsim calls no BLAS routine, but OpenBLAS starts its thread pool (whose
# workers busy-wait) as soon as numpy loads, which a command's first sampler
# does (the closed-form commands never load it). Set before anything that can
# load numpy; a value the user has set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .config import ExperimentConfig, read_raw_config, resolve
from .errors import ConfigError, TicketSimError
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

# Each option's value type and help. An int option's value must parse as an
# integer; a str option's is passed on as given, for the config check to
# judge; a bool option takes no value.
_OPTIONS = {
    "config": (str, "JSON configuration file"),
    "seed": (int, "master RNG seed"),
    "trials": (int, "Monte Carlo trajectories"),
    "workers": (int, "parallel workers (results are worker-invariant)"),
    "out": (str, "report file path"),
    "format": (str, "report format: csv (the default) or jsonl"),
    "timings": (bool, "record wall-clock runtime_ms in rows (costs byte-reproducibility)"),
}
_HELP_FLAGS = ("-h", "--help")


def _help(command: Optional[str]) -> str:
    """The top-level help, or ``command``'s."""
    if command is None:
        lines = ["usage: ticketsim <command> [options]", "",
                 "Simulator and valuation toolkit for the ticket-lottery block economy.", "", "commands:"]
        lines += [f"  {name:<12}{help_text}" for name, (help_text, _) in _COMMANDS.items()]
        lines += ["", "Run 'ticketsim <command> --help' for the command's options."]
        return "\n".join(lines)
    flags = {"-h, --help": "show this help and exit"}
    for name, (kind, help_text) in _OPTIONS.items():
        flags[f"--{name}" if kind is bool else f"--{name} {name.upper()}"] = help_text
    lines = [f"usage: ticketsim {command} [options]", "", _COMMANDS[command][0], "", "options:"]
    lines += [f"  {flag:<20}{help_text}" for flag, help_text in flags.items()]
    return "\n".join(lines)


def _usage_error(command: Optional[str], message: str) -> NoReturn:
    print(f"usage: ticketsim {command or '<command>'} [options]\nticketsim: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _parse_args(argv: list[str]) -> tuple[str, dict]:
    """The command and the options that ``argv`` gives, by name.

    ``-h``/``--help`` prints help and exits 0; a usage error exits 2.
    """
    if not argv or argv[0] in _HELP_FLAGS:
        if argv:
            print(_help(None))
            raise SystemExit(0)
        _usage_error(None, f"a command is required: one of {', '.join(_COMMANDS)}")
    command, tokens = argv[0], iter(argv[1:])
    if command not in _COMMANDS:
        _usage_error(None, f"unknown command {command!r}: choose one of {', '.join(_COMMANDS)}")
    options = {}
    for token in tokens:
        if token in _HELP_FLAGS:
            print(_help(command))
            raise SystemExit(0)
        flag, has_value, value = token.partition("=")
        name = flag[2:] if flag.startswith("--") else None
        if name not in _OPTIONS:
            _usage_error(command, f"unrecognized argument {token!r}")
        kind = _OPTIONS[name][0]
        if kind is bool:
            if has_value:
                _usage_error(command, f"{flag} takes no value")
            options[name] = True
            continue
        if not has_value:
            value = next(tokens, None)
            if value is None or value.startswith("--") or value == "-h":
                _usage_error(command, f"{flag} expects a value")
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                _usage_error(command, f"{flag}: not an integer: {value!r}")
        options[name] = value
    return command, options


def _merge_config(command: str, options: dict) -> tuple[ExperimentConfig, dict]:
    """The validated config of file and flags, and the report's echo of it;
    a key the command does not read is a ConfigError."""
    raw = read_raw_config(options["config"]) if "config" in options else {}
    for key in ("seed", "trials", "workers", "timings"):
        if key in options:
            raw[key] = options[key]
    flagged = {key: options[name] for name, key in (("out", "path"), ("format", "format")) if name in options}
    output = {} if raw.get("output") is None else raw["output"]
    if flagged and isinstance(output, dict):     # resolve rejects any other output
        raw["output"] = {**output, **flagged}
    return resolve(raw, command)


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


def _config_error(exc: TicketSimError) -> int:
    print(f"config error: {type(exc).__name__}: {exc}", file=sys.stderr)
    return 2


def main(argv: Optional[list[str]] = None) -> int:
    command, options = _parse_args(sys.argv[1:] if argv is None else argv)
    verdicts: dict[str, bool] = {}
    failures: Optional[list[str]] = None
    try:
        cfg, echo = _merge_config(command, options)
        started = time.perf_counter()
        rows = _COMMANDS[command][1](cfg)
        if isinstance(rows, VerifyOutcome):     # first: a VerifyOutcome is a tuple too
            rows, failures = rows.rows, rows.failures
        elif isinstance(rows, tuple):
            rows, verdicts = rows
    except TicketSimError as exc:
        return _config_error(exc)

    elapsed = time.perf_counter() - started
    print(f"ticketsim {command}  n={cfg.n} d={cfg.d} reward={cfg.reward.kind} "
          f"seed={cfg.seed} trials={cfg.trials} workers={cfg.workers}")
    _print_rows(rows, failures)
    for name in sorted(verdicts):
        print(f"verdict {name}: {'pass' if verdicts[name] else 'FAIL'}")
    print(f"elapsed: {elapsed:.2f}s")

    if cfg.output_path is not None:
        try:
            emit_report(rows, cfg.output_format, cfg.output_path, config=echo, verdicts=verdicts or None)
        except OSError as exc:      # the rows are on stdout already
            return _config_error(ConfigError("output.path", f"cannot write report: {exc}"))
        print(f"report written to {cfg.output_path}")

    if failures:
        print(f"verify: FAIL ({len(rows) - len(failures)}/{len(rows)} rows passed)")
        return 1
    if failures is not None:
        print(f"verify: PASS ({len(rows)}/{len(rows)} rows)")
    return 0


def run() -> None:
    """Process entry of ``python -m ticketsim.cli`` and the ``ticketsim`` script.

    Runs ``main`` and exits with its code. The interpreter runs ``atexit``
    handlers before its exit-time collections, which skip frozen objects, so
    freezing the heap last spares a full collection over every object numpy
    and ticketsim made. Stdio is still flushed and every other handler still
    runs. ``main`` called in-process leaves the collector as it is.
    """
    atexit.register(gc.freeze)
    sys.exit(main())


if __name__ == "__main__":
    run()
