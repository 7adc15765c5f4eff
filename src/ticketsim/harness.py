"""Experiment orchestration: the closed-form verification suite, parameter
sweeps, and the pricing / pooling / multi-block experiment runners.

Every runner returns ReportRows: ``closed_form`` is the analytic value, and
``mc_mean``/``mc_stderr`` carry the Monte Carlo estimate when trials > 0 and
the independent numerical oracle otherwise. ``rel_err`` is the oracle's gap
to the closed form in ``analytic``, ``verify``, ``pricing`` and sweeps, the
Monte Carlo gap |mc - closed|/closed in ``simulate``, ``multiblock`` and
``beta`` sweeps, and the sampled variance's gap to the solo variance's
closed form in ``pool`` and ``k`` sweeps (|gap| on ``variance_gap``).

A sweep runs each value's own config: a ``beta`` value gives
``run_multiblock``'s row, a ``k`` value ``run_pool``'s pooled row, and any
other value its quantity's oracle row.

Every sampled figure comes from the quantity layer: a table entry's
estimate, or ``quantities.pool_variances`` for ``pool`` and ``k`` sweeps.

Monte Carlo gates are bias-aware: a row passes when
|mc_mean - closed_form| <= 4 * stderr + bias_bound, where the bias bound
covers horizon truncation (for exact estimates with stderr 0 this reduces
to requiring the gap to sit inside the truncation bias).
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass

from .config import ExperimentConfig, SweepSpec
from .core import ParetoReward
from .errors import ConfigError, NegativePriceError
from .market import protocol_capture
from .quantities import QUANTITIES, Entry, Quantity, Run, entries, pool_variances, stream_series
from .report import ReportRow, make_row, relative_gap

ORACLE_TOLERANCE = 1e-9    # closed form vs oracle acceptance
Z_LIMIT = 4.0


def _run(cfg: ExperimentConfig, *, default_share: bool = True) -> Run:
    return Run(
        cfg.params, cfg.holder_share, trials=cfg.trials, seed=cfg.seed, workers=cfg.workers,
        horizon=cfg.horizon, beta=cfg.multiblock.beta if cfg.multiblock is not None else 0.0,
        default_share=default_share,
    )


def _oracle_row(label, entry: Entry, run: Run) -> ReportRow:
    closed, oracle = entry.closed(run), entry.oracle(run)
    return make_row(label, closed, oracle, 0.0, 0, relative_gap(oracle, closed))


def _timed(cfg: ExperimentConfig, start: float, row: ReportRow) -> ReportRow:
    """``row`` with its wall time since ``start`` as ``runtime_ms`` under ``--timings``."""
    ms = (time.perf_counter() - start) * 1000.0
    return dataclasses.replace(row, runtime_ms=ms) if cfg.timings else row


def _timed_rows(cfg: ExperimentConfig, start: float, rows) -> list[ReportRow]:
    """The rows of the iterable ``rows``, each built as it is drawn, timed by
    ``_timed``: the first row's clock starts at ``start``, so it carries the
    work that the rows share, and each later row's when the one before ends."""
    out = []
    for row in rows:
        out.append(_timed(cfg, start, row))
        start = time.perf_counter()
    return out


def _mc_row(label, entry: Entry, run: Run) -> ReportRow:
    est = entry.estimate(run)
    closed = entry.closed(run)
    return make_row(label, closed, est.mean, est.stderr, est.trials, relative_gap(est.mean, closed))


@dataclass
class VerifyOutcome:
    rows: list[ReportRow]
    failures: list[str]

    @property
    def passed(self) -> bool:
        return not self.failures


def _mc_gate(mc_mean: float, closed: float, stderr: float, bias: float) -> bool:
    # The final term is a floating-point floor: for deterministic ensembles
    # (stderr 0) the realized truncation gap equals the bias bound in exact
    # arithmetic and may exceed it by rounding ulps.
    return abs(mc_mean - closed) <= Z_LIMIT * stderr + bias + 1e-12 * (abs(closed) + 1.0)


def run_verify(cfg: ExperimentConfig) -> VerifyOutcome:
    """Check every closed form against its oracle and, where the quantity
    has an estimator, a Monte Carlo estimate.

    Closed forms take the holder share as configured (a configured share
    that rounds to zero tickets is a config error) or the default share.
    Pareto rewards need shape > 4: the ``ticket_value_variance`` gate takes
    the stderr of a sample variance, which needs a finite fourth moment.
    """
    if isinstance(cfg.reward, ParetoReward) and cfg.reward.shape <= 4.0:
        raise ConfigError(
            "reward.shape", f"verify needs shape > 4 (a finite fourth moment), got {cfg.reward.shape}"
        )
    run = _run(cfg)
    rows: list[ReportRow] = []
    failures: list[str] = []
    for quantity, entry in entries(oracle=True):
        start = time.perf_counter()
        name = quantity.value
        closed = entry.closed(run)
        oracle = entry.oracle(run)
        rel = relative_gap(oracle, closed)
        ok = rel <= ORACLE_TOLERANCE and entry.sign_holds(closed, run.mu)
        mc_mean, mc_stderr, trials = oracle, 0.0, 0
        if entry.ensemble is not None:
            est = entry.estimate(run)
            mc_mean, mc_stderr, trials = est.mean, est.stderr, est.trials
            ok = ok and _mc_gate(est.mean, closed, est.stderr, est.bias_bound)
        rows.append(_timed(cfg, start, make_row(name, closed, mc_mean, mc_stderr, trials, rel)))
        if not ok:
            failures.append(name)
    return VerifyOutcome(rows=rows, failures=failures)


# ---------------------------------------------------------------------------
# Analytic evaluation and single-quantity simulation
# ---------------------------------------------------------------------------


def run_analytic(cfg: ExperimentConfig) -> list[ReportRow]:
    """Evaluate every closed form that has an oracle and an estimator
    against its oracle (no MC)."""
    run = _run(cfg)
    return _timed_rows(cfg, time.perf_counter(), (_oracle_row(q.value, entry, run)
                                                  for q, entry in entries(oracle=True, estimator=True)))


def run_simulate(cfg: ExperimentConfig) -> list[ReportRow]:
    """One Monte Carlo estimate of the configured quantity vs its closed form."""
    start = time.perf_counter()
    run = _run(cfg, default_share=False)
    return [_timed(cfg, start, _mc_row(cfg.quantity, QUANTITIES[Quantity(cfg.quantity)], run))]


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

_SWEEP_DEFAULT_QUANTITY = {
    "n": Quantity.TICKET_VALUE,
    "d": Quantity.NPV_REWARDS,
    "mu": Quantity.TICKET_VALUE,
    "sigma_log": Quantity.TICKET_VALUE_VARIANCE,
    "p": Quantity.CONTROL_VALUE,
}


def _sweep_row(sweep: SweepSpec, value, cfg: ExperimentConfig) -> ReportRow:
    """The row of one swept value, run from the value's own config ``cfg``."""
    if sweep.parameter == "beta":
        return run_multiblock(cfg)[0]
    if sweep.parameter == "k":
        pooled = {row.swept_value: row for row in run_pool(cfg)}["pooled_per_ticket_variance"]
        return dataclasses.replace(pooled, swept_value=value)
    entry = QUANTITIES[Quantity(sweep.quantity or _SWEEP_DEFAULT_QUANTITY[sweep.parameter])]
    run = _run(cfg)
    row = _oracle_row(value, entry, run)
    if sweep.mc:
        est = entry.estimate(run)
        row = make_row(value, row.closed_form, est.mean, est.stderr, est.trials, row.rel_err)
    return row


def run_sweep(cfg: ExperimentConfig) -> tuple[list[ReportRow], dict[str, bool]]:
    """One row per swept value, ordered as configured, each run from the
    value's own config; a ConfigError of a value's run names ``sweep.values[i]``.
    When n is swept, the closed forms also give monotonicity verdicts: the
    single-ticket value must fall and the control value must rise.
    """
    if cfg.sweep is None:
        raise ConfigError("sweep", "sweep command needs a sweep section")
    sweep = cfg.sweep

    rows: list[ReportRow] = []
    for i, (value, value_cfg) in enumerate(zip(sweep.values, sweep.configs)):
        start = time.perf_counter()
        try:
            rows.append(_timed(cfg, start, _sweep_row(sweep, value, value_cfg)))
        except ConfigError as exc:
            raise ConfigError(f"sweep.values[{i}]", exc.message) from exc

    verdicts: dict[str, bool] = {}
    if sweep.parameter == "n" and len(sweep.values) > 1:
        runs = [_run(value_cfg) for value_cfg in sweep.configs]
        tickets = [QUANTITIES[Quantity.TICKET_VALUE].closed(run) for run in runs]
        controls = [QUANTITIES[Quantity.CONTROL_VALUE].closed(run) for run in runs]
        verdicts["ticket_value_strictly_decreasing_in_n"] = all(
            b < a for a, b in zip(tickets, tickets[1:]))
        verdicts["control_value_strictly_increasing_in_n"] = all(
            b > a for a, b in zip(controls, controls[1:]))
    return rows, verdicts


# ---------------------------------------------------------------------------
# Pricing, pooling, multi-block experiment runners
# ---------------------------------------------------------------------------


def run_pricing(cfg: ExperimentConfig) -> list[ReportRow]:
    """Protocol capture under the configured policy, cross-checked by series."""
    start = time.perf_counter()
    params = cfg.params
    try:
        capture = protocol_capture(cfg.policy, params)
    except NegativePriceError as exc:
        raise ConfigError("policy.margin", str(exc)) from exc
    run = Run(params)
    stream_oracle = stream_series(run, capture.price)
    npv_oracle = QUANTITIES[Quantity.NPV_REWARDS].oracle(run)
    oracle = {
        "price": capture.price,
        "initial_sale": params.n * capture.price,
        "per_slot_stream_npv": stream_oracle,
        "total": params.n * capture.price + stream_oracle,
        "leakage": npv_oracle - (params.n * capture.price + stream_oracle),
    }
    closed = {name: getattr(capture, name) for name in oracle}
    return _timed_rows(cfg, start, (
        make_row(name, closed[name], oracle[name], 0.0, 0, relative_gap(oracle[name], closed[name]))
        for name in oracle))


def run_pool(cfg: ExperimentConfig) -> list[ReportRow]:
    """Pooled vs solo payoff variance for the configured pool size."""
    if cfg.pool_size is None:
        raise ConfigError("pool", "pool command needs a pool section")
    start = time.perf_counter()
    run = _run(cfg)
    solo = QUANTITIES[Quantity.TICKET_VALUE_VARIANCE].closed(run)
    closed = {"solo_variance": solo, "pooled_per_ticket_variance": solo, "variance_gap": 0.0}
    return _timed_rows(cfg, start, (
        make_row(name, closed[name], value, stderr, cfg.trials, relative_gap(value, closed[name]))
        for name, (value, stderr) in pool_variances(run, cfg.pool_size).items()))


def run_multiblock(cfg: ExperimentConfig) -> list[ReportRow]:
    """The ``holder_value`` estimate under the configured streak bonus
    against its additive closed form (k/n) * mu/d."""
    if cfg.multiblock is None:
        raise ConfigError("multiblock", "multiblock command needs a multiblock section")
    start = time.perf_counter()
    run = _run(cfg)
    return [_timed(cfg, start, _mc_row(cfg.multiblock.beta, QUANTITIES[Quantity.HOLDER_VALUE], run))]
