"""Experiment orchestration: every command is a selection of table entries
(``quantities``) plus one of two row modes, and one row builder serves all.
A row sets an entry's closed form (``closed_form``) against a second figure:

* ``check``: ``rel_err`` is the oracle's gap to the closed form, and
  ``mc_mean``/``mc_stderr`` hold the Monte Carlo estimate where the command
  samples and the entry has an estimator, else the oracle. The row passes if
  the gap is within ORACLE_TOLERANCE, the closed form has the paper's sign,
  and a sampled estimate is within 4 * stderr of the closed form.
* ``estimate``: ``rel_err`` is the estimate's gap to the closed form; no verdict.

| command | mode | entries |
| --- | --- | --- |
| ``verify`` | check, sampling | the ``QUANTITIES`` entries with an oracle |
| ``analytic`` | check | the ``QUANTITIES`` entries with an oracle and an estimator |
| ``pricing`` | check | ``PRICING``, under the configured policy |
| ``simulate`` | estimate | the configured quantity |
| ``multiblock`` | estimate | ``holder_value`` |
| ``pool`` | estimate | ``POOL`` |
| ``sweep`` | per value | ``SweepSpec.entry`` in ``SweepSpec.mode``, on each value's config |

``config`` sets a sweep's row: a ``beta`` value reads ``holder_value`` and a
``k`` value ``pooled_per_ticket_variance``, as estimates; any other value
checks its quantity, sampling where ``mc`` is set. Tables are read at call
time, so an entry added to a selection needs no change here.
"""

from __future__ import annotations

import time
from typing import NamedTuple

from .config import ExperimentConfig
from .core import ParetoReward
from .errors import ConfigError
from .quantities import POOL, PRICING, QUANTITIES, Entry, Quantity, Run, entries, entry_named
from .report import ReportRow, make_row, relative_gap

ORACLE_TOLERANCE = 1e-9    # closed form vs oracle acceptance
Z_LIMIT = 4.0


class VerifyOutcome(NamedTuple):
    """A command's rows and the labels of the rows that fail."""

    rows: list[ReportRow]
    failures: list[str]


def _mc_gate(mc_mean: float, closed: float, stderr: float) -> bool:
    # The last term is a rounding floor: a deterministic ensemble (n = 1, stderr 0) equals
    # its closed form in exact arithmetic and may miss it by ulps. It is relative, so it is
    # the same share of the row whatever the reward's unit.
    return abs(mc_mean - closed) <= Z_LIMIT * stderr + 1e-12 * abs(closed)


def _run(cfg: ExperimentConfig, *, default_share: bool = True) -> Run:
    beta = cfg.multiblock.beta if cfg.multiblock is not None else 0.0
    return Run(cfg.params, cfg.holder_share, trials=cfg.trials, seed=cfg.seed, workers=cfg.workers,
               beta=beta, pool_size=cfg.pool_size, policy=cfg.policy, default_share=default_share)


def _row(label, entry: Entry, run: Run, mode: str, sample: bool) -> tuple[ReportRow, bool]:
    """``entry``'s row in ``mode`` (see above), and whether it passes."""
    closed = entry.closed(run)
    oracle = entry.oracle(run) if mode == "check" else None
    est = entry.estimate(run) if mode == "estimate" or (sample and entry.ensemble) else None
    mean, stderr, trials = (est.mean, est.stderr, est.trials) if est else (oracle, 0.0, 0)
    rel = relative_gap(mean if mode == "estimate" else oracle, closed)
    ok = mode == "estimate" or rel <= ORACLE_TOLERANCE and entry.sign_holds(closed, run.mu) and (
        est is None or _mc_gate(est.mean, closed, est.stderr))
    return make_row(label, closed, mean, stderr, trials, rel), ok


def _rows(cfg: ExperimentConfig, selection, mode: str, *, sample: bool = False,
          default_share: bool = True) -> VerifyOutcome:
    """The rows of ``selection``'s (label, entry) pairs in ``mode``, on one run of ``cfg``.
    Under ``--timings`` a row's ``runtime_ms`` runs from the end of the row before, and the
    first row's from the run's start: it carries the work that the rows share."""
    start = time.perf_counter()
    run = _run(cfg, default_share=default_share)
    outcome = VerifyOutcome([], [])
    for label, entry in selection:
        row, ok = _row(label, entry, run, mode, sample)
        if cfg.timings:
            row = row._replace(runtime_ms=(time.perf_counter() - start) * 1000.0)
        outcome.rows.append(row)
        if not ok:
            outcome.failures.append(label)
        start = time.perf_counter()
    return outcome


def run_verify(cfg: ExperimentConfig) -> VerifyOutcome:
    """Pareto rewards need shape > 4: the ``ticket_value_variance`` gate takes
    the stderr of a sample variance, which needs a finite fourth moment."""
    if isinstance(cfg.reward, ParetoReward) and cfg.reward.shape <= 4.0:
        raise ConfigError("reward.shape",
                          f"verify needs shape > 4 (a finite fourth moment), got {cfg.reward.shape}")
    return _rows(cfg, [(q.value, e) for q, e in entries(oracle=True)], "check", sample=True)


def run_analytic(cfg: ExperimentConfig) -> list[ReportRow]:
    return _rows(cfg, [(q.value, e) for q, e in entries(oracle=True, estimator=True)], "check").rows


def run_simulate(cfg: ExperimentConfig) -> list[ReportRow]:
    return _rows(cfg, [(cfg.quantity, entry_named(cfg.quantity))], "estimate", default_share=False).rows


def run_pricing(cfg: ExperimentConfig) -> list[ReportRow]:
    return _rows(cfg, list(PRICING.items()), "check").rows


def run_pool(cfg: ExperimentConfig) -> list[ReportRow]:
    return _rows(cfg, list(POOL.items()), "estimate").rows


def run_multiblock(cfg: ExperimentConfig) -> list[ReportRow]:
    if cfg.multiblock is None:
        raise ConfigError("multiblock", "multiblock command needs a multiblock section")
    return _rows(cfg, [(cfg.multiblock.beta, QUANTITIES[Quantity.HOLDER_VALUE])], "estimate").rows


def run_sweep(cfg: ExperimentConfig) -> tuple[list[ReportRow], dict[str, bool]]:
    """One row per value; a value's ConfigError names ``sweep.values[i]``. An n sweep's closed
    forms also give verdicts: the ticket value must fall and the control value must rise."""
    if cfg.sweep is None:
        raise ConfigError("sweep", "sweep command needs a sweep section")
    sweep = cfg.sweep
    rows: list[ReportRow] = []
    for i, (value, value_cfg) in enumerate(zip(sweep.values, sweep.configs)):
        try:
            rows += _rows(value_cfg, [(value, entry_named(sweep.entry))], sweep.mode, sample=sweep.mc).rows
        except ConfigError as exc:
            raise ConfigError(f"sweep.values[{i}]", exc.message) from exc
    verdicts: dict[str, bool] = {}
    if sweep.parameter == "n" and len(sweep.values) > 1:
        runs = [_run(value_cfg) for value_cfg in sweep.configs]
        tickets, controls = ([QUANTITIES[quantity].closed(run) for run in runs]
                             for quantity in (Quantity.TICKET_VALUE, Quantity.CONTROL_VALUE))
        verdicts["ticket_value_strictly_decreasing_in_n"] = all(b < a for a, b in zip(tickets, tickets[1:]))
        verdicts["control_value_strictly_increasing_in_n"] = all(b > a for a, b in zip(controls, controls[1:]))
    return rows, verdicts
