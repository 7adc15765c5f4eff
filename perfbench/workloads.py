"""The benchmark's workloads: the ticketsim commands each one runs, the
config each command receives (generated from the workload seed), and the
checks that decide whether a command's outputs are correct.

Why these four (shares measured on a 2-vCPU x86-64 machine when the
benchmark was added):

* ``verify_default`` is ``verify`` at the defaults, the command users run
  first. The holder-flow kernel (beta=0, 2 083-slot horizon) is ~97% of it.
* ``verify_large_n`` is ``verify`` at n=16384. The win-slot kernels
  dominate it. It runs at workers=1: on a 2-vCPU host the wall time of a
  2-worker pool measures the scheduler more than the program. Its traced
  run measures the process pool's start-up instead.
* ``market_small_d`` runs ``multiblock`` at d=1e-3 with lognormal rewards
  (streak scan on, a 20 733-slot horizon, memory growing with 1/d) and then
  ``pool``, the only workload that runs the pool kernel.
* ``analytic_huge_n`` runs no sampler: the series oracle is ~99.9% of it.
  It is the no-change control for every sampler optimisation.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:   # the program's source is put on sys.path only at run time
    from ticketsim.report import ReportRow

Z_GATE = 4.0            # the program's own Monte Carlo gate, in stderrs
ORACLE_REL_TOL = 1e-9   # the program's closed-form vs oracle tolerance

LOGNORMAL = {"kind": "lognormal", "mean": 1.0, "sigma_log": 1.0}
# The program's variance gates assume a light-tailed payoff. With lognormal
# rewards at these sizes they fail on correct results for some seeds (see
# NOTES.md), so the verify and pool workloads use a constant reward.
CONSTANT = {"kind": "constant", "mean": 1.0}


Check = tuple[str, bool]


@dataclass(frozen=True)
class Command:
    """One ticketsim invocation of a workload."""

    verb: str
    config: dict          # everything but the seed and the report destination
    report_format: str
    expected_rows: int
    content_checks: Callable[[list[ReportRow]], list[Check]]

    def generated_config(self, seed: int, report_path: Path) -> dict:
        return {
            **self.config,
            "seed": seed,
            "output": {"path": str(report_path), "format": self.report_format},
        }


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: tuple[Command, ...]
    measures_pool_startup: bool = False   # the traced run times the process pool's start-up


def _no_content_checks(rows: list[ReportRow]) -> list[Check]:
    return []


def _analytic_checks(rows: list[ReportRow]) -> list[Check]:
    return [("rel_err_within_1e-9", all(r.rel_err <= ORACLE_REL_TOL for r in rows))]


def _pool_checks(rows: list[ReportRow]) -> list[Check]:
    named = {str(r.swept_value): r for r in rows}
    solo = named.get("solo_variance")
    pooled = named.get("pooled_per_ticket_variance")
    gap = named.get("variance_gap")
    if solo is None or pooled is None or gap is None:
        return [("pool_rows_present", False)]
    return [
        ("pooled_below_solo", pooled.mc_mean < solo.mc_mean),
        ("gap_below_zero_by_4se", gap.mc_mean + Z_GATE * gap.mc_stderr < 0.0),
        ("solo_within_4se_of_closed_form",
         abs(solo.mc_mean - solo.closed_form) <= Z_GATE * solo.mc_stderr),
    ]


def _multiblock_checks(rows: list[ReportRow]) -> list[Check]:
    if len(rows) != 1:
        return [("multiblock_row_present", False)]
    row = rows[0]
    premium = row.mc_mean - row.closed_form
    return [("premium_above_zero_by_4se", premium - Z_GATE * row.mc_stderr > 0.0)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify_default",
            "verify at the defaults, the command users run first; holder flows dominate",
            (Command("verify", {}, "csv", 9, _no_content_checks),),
        ),
        Workload(
            "verify_large_n",
            "verify at n=16384, workers=1 (a 2-worker pool's wall time is scheduler noise on 2 vCPUs), constant reward (lognormal trips its variance gate); win-slot kernels dominate",
            (
                Command(
                    "verify",
                    {"n": 16384, "d": 0.01, "reward": CONSTANT, "trials": 20_000},
                    "jsonl", 9, _no_content_checks,
                ),
            ),
            measures_pool_startup=True,
        ),
        Workload(
            "market_small_d",
            "multiblock at d=1e-3 then pool at k=16 (constant reward: lognormal trips its variance gates); holder flows with streaks and the pool kernel",
            (
                Command(
                    "multiblock",
                    {"n": 32, "d": 0.001, "reward": LOGNORMAL, "multiblock": {"beta": 0.5},
                     "holder_share": 0.125, "trials": 2048},
                    "jsonl", 1, _multiblock_checks,
                ),
                Command(
                    "pool",
                    {"n": 1024, "d": 0.01, "reward": CONSTANT, "pool": {"k": 16}, "trials": 8192},
                    "jsonl", 3, _pool_checks,
                ),
            ),
        ),
        Workload(
            "analytic_huge_n",
            "analytic at n=65536, d=1e-4; no sampler runs, the series oracle is the work",
            (
                Command(
                    "analytic",
                    {"n": 65536, "d": 0.0001, "reward": LOGNORMAL},
                    "jsonl", 7, _analytic_checks,
                ),
            ),
        ),
    )
}


def read_report(path: Path, fmt: str) -> list[ReportRow]:
    """Read a report the program wrote; JSONL goes through its own loader."""
    from ticketsim.report import ReportRow, load_report

    if fmt == "jsonl":
        return load_report(path)[0]
    with open(path, newline="") as fh:
        records = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    return [
        ReportRow(rec["swept_value"], float(rec["closed_form"]), float(rec["mc_mean"]),
                  float(rec["mc_stderr"]), float(rec["z_score"]), float(rec["rel_err"]),
                  int(rec["trials"]), float(rec["runtime_ms"]))
        for rec in records
    ]


def _verify_stdout_checks(stdout: str, expected_rows: int) -> list[Check]:
    marks = [line.rsplit(None, 1)[-1] for line in stdout.splitlines()
             if line.endswith("  ok") or line.endswith("  FAIL")]
    return [("every_row_ok", len(marks) == expected_rows and all(m == "ok" for m in marks))]


def check_outputs(
    command: Command,
    exit_code: int,
    stdout: str,
    report_path: Path,
    reference_report: bytes | None,
) -> tuple[list[Check], bytes | None]:
    """All checks of one command run, and the report bytes it wrote.

    A command that exits non-zero fails every check it would have had.
    ``reference_report``, when given, is an earlier iteration's report for
    the same config, which this one must reproduce byte for byte.
    """
    names = ["exit_0", "report_rows"]
    if reference_report is not None:
        names.append("report_reproduced")
    if exit_code != 0:
        planned = names + ["content"]
        return [(name, False) for name in planned], None

    checks: list[Check] = [("exit_0", True)]
    try:
        data = report_path.read_bytes()
        rows = read_report(report_path, command.report_format)
    except (OSError, ValueError, KeyError) as exc:
        return checks + [(f"report_readable: {exc}", False)], None
    checks.append(("report_rows", len(rows) == command.expected_rows))
    if reference_report is not None:
        checks.append(("report_reproduced", data == reference_report))
    if command.verb == "verify":
        checks += _verify_stdout_checks(stdout, command.expected_rows)
    checks += command.content_checks(rows)
    return checks, data
