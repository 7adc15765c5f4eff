"""Experiment orchestration: the closed-form verification suite, parameter
sweeps, and the pricing / pooling / multi-block experiment runners.

Every runner returns ReportRows: ``closed_form`` is the analytic value, and
``mc_mean``/``mc_stderr`` carry the Monte Carlo estimate when trials > 0 and
the independent numerical oracle otherwise. ``rel_err`` is the oracle's gap
to the closed form in ``analytic``, ``verify``, ``pricing`` and sweeps, the
Monte Carlo gap |mc - closed|/closed in ``simulate``, ``multiblock`` and
``beta`` sweeps, and the sampled variance's gap to the solo variance's
closed form in ``pool`` and ``k`` sweeps (|gap| on ``variance_gap``).

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
from typing import Optional

from .analytics import truncated_series_sum
from .config import ExperimentConfig
from .core import ConstantReward, EconomyParams, LognormalReward, ParetoReward, calibrate_lognormal
from .errors import ConfigError
from .market import FairValue, protocol_capture
from .quantities import ORACLE_EPSILON, QUANTITIES, Entry, Quantity, Run, entries, pool_variances
from .report import ReportRow, make_row, relative_gap

ORACLE_TOLERANCE = 1e-9    # closed form vs oracle acceptance
Z_LIMIT = 4.0


def _run(cfg: ExperimentConfig, params: EconomyParams, share: Optional[float], *,
         default_share: bool = True) -> Run:
    return Run(
        params, share, trials=cfg.trials, seed=cfg.seed, workers=cfg.workers,
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
    run = _run(cfg, cfg.params, cfg.holder_share)
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
    run = Run(cfg.params, cfg.holder_share, default_share=True)
    # Arguments evaluate in order, so each row's clock starts before its work.
    return [_timed(cfg, time.perf_counter(), _oracle_row(q.value, entry, run))
            for q, entry in entries(oracle=True, estimator=True)]


def run_simulate(cfg: ExperimentConfig) -> list[ReportRow]:
    """One Monte Carlo estimate of the configured quantity vs its closed form."""
    run = _run(cfg, cfg.params, cfg.holder_share, default_share=False)
    return [_mc_row(cfg.quantity, QUANTITIES[Quantity(cfg.quantity)], run)]


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

_SWEEP_DEFAULT_QUANTITY = {
    "n": Quantity.TICKET_VALUE,
    "d": Quantity.NPV_REWARDS,
    "mu": Quantity.TICKET_VALUE,
    "sigma_log": Quantity.TICKET_VALUE_VARIANCE,
    "p": Quantity.CONTROL_VALUE,
    "beta": Quantity.HOLDER_VALUE,
}


def _reward_with_mean(cfg: ExperimentConfig, mean: float):
    reward = cfg.reward
    if isinstance(reward, ConstantReward):
        return ConstantReward(mean)
    if isinstance(reward, LognormalReward):
        return calibrate_lognormal(mean, reward.sigma_log)
    raise ConfigError("sweep.parameter", f"cannot sweep mu over a {reward.kind} reward model")


def _reward_with_sigma(cfg: ExperimentConfig, sigma_log: float):
    reward = cfg.reward
    if isinstance(reward, LognormalReward):
        return calibrate_lognormal(reward.mean(), sigma_log)
    raise ConfigError("sweep.parameter", f"cannot sweep sigma_log over a {reward.kind} reward model")


def run_sweep(cfg: ExperimentConfig) -> tuple[list[ReportRow], dict[str, bool]]:
    """One row per swept value, ordered as configured.

    Closed forms take the holder share p as given, or the default share. A
    ``beta`` sweep estimates ``holder_value`` at each streak bonus. When n
    is swept, the closed forms also produce monotonicity verdicts: the
    single-ticket value must fall and the control value must rise.
    """
    if cfg.sweep is None:
        raise ConfigError("sweep", "sweep command needs a sweep section")
    sweep = cfg.sweep
    quantity = Quantity(sweep.quantity) if sweep.quantity else _SWEEP_DEFAULT_QUANTITY.get(sweep.parameter)

    rows: list[ReportRow] = []
    ticket_values: list[float] = []
    control_values: list[float] = []

    for value in sweep.values:
        start = time.perf_counter()
        n, d, reward, share = cfg.n, cfg.d, cfg.reward, cfg.holder_share
        if sweep.parameter == "n":
            n = int(value)
        elif sweep.parameter == "d":
            d = float(value)
        elif sweep.parameter == "mu":
            reward = _reward_with_mean(cfg, float(value))
        elif sweep.parameter == "sigma_log":
            reward = _reward_with_sigma(cfg, float(value))
        elif sweep.parameter == "p":
            share = float(value)
        params = EconomyParams(n=n, d=d, reward=reward)

        run = _run(cfg, params, share)
        if sweep.parameter == "beta":
            run.beta = float(value)
            row = _mc_row(value, QUANTITIES[quantity], run)
        elif sweep.parameter == "k":
            variances = pool_variances(run, int(value))
            closed = QUANTITIES[Quantity.TICKET_VALUE_VARIANCE].closed(run)
            pooled, stderr = variances["pooled_per_ticket_variance"]
            solo = variances["solo_variance"][0]
            row = make_row(value, closed, pooled, stderr, cfg.trials, relative_gap(solo, closed))
        else:
            entry = QUANTITIES[quantity]
            row = _oracle_row(value, entry, run)
            if sweep.mc:
                est = entry.estimate(run)
                row = make_row(value, row.closed_form, est.mean, est.stderr, est.trials, row.rel_err)
            if sweep.parameter == "n":
                ticket_values.append(QUANTITIES[Quantity.TICKET_VALUE].closed(run))
                control_values.append(QUANTITIES[Quantity.CONTROL_VALUE].closed(run))

        rows.append(_timed(cfg, start, row))

    verdicts: dict[str, bool] = {}
    if sweep.parameter == "n" and len(sweep.values) > 1:
        verdicts["ticket_value_strictly_decreasing_in_n"] = all(
            b < a for a, b in zip(ticket_values, ticket_values[1:])
        )
        verdicts["control_value_strictly_increasing_in_n"] = all(
            b > a for a, b in zip(control_values, control_values[1:])
        )
    return rows, verdicts


# ---------------------------------------------------------------------------
# Pricing, pooling, multi-block experiment runners
# ---------------------------------------------------------------------------


def run_pricing(cfg: ExperimentConfig) -> list[ReportRow]:
    """Protocol capture under the configured policy, cross-checked by series."""
    params = cfg.params
    policy = cfg.policy if cfg.policy is not None else FairValue()
    capture = protocol_capture(policy, params)
    d = cfg.d

    stream_oracle = truncated_series_sum(
        lambda t: capture.price / (1.0 + d) ** t, d, ORACLE_EPSILON, vectorized=True
    )
    npv_oracle = QUANTITIES[Quantity.NPV_REWARDS].oracle(Run(params))
    oracle = {
        "price": capture.price,
        "initial_sale": params.n * capture.price,
        "per_slot_stream_npv": stream_oracle,
        "total": params.n * capture.price + stream_oracle,
        "leakage": npv_oracle - (params.n * capture.price + stream_oracle),
    }
    rows = []
    for name in ("price", "initial_sale", "per_slot_stream_npv", "total", "leakage"):
        closed = getattr(capture, name)
        rows.append(make_row(name, closed, oracle[name], 0.0, 0, relative_gap(oracle[name], closed)))
    return rows


def run_pool(cfg: ExperimentConfig) -> list[ReportRow]:
    """Pooled vs solo payoff variance for the configured pool size."""
    if cfg.pool_size is None:
        raise ConfigError("pool", "pool command needs a pool section")
    run = _run(cfg, cfg.params, None)
    solo = QUANTITIES[Quantity.TICKET_VALUE_VARIANCE].closed(run)
    closed = {"solo_variance": solo, "pooled_per_ticket_variance": solo, "variance_gap": 0.0}
    return [make_row(name, closed[name], value, stderr, cfg.trials, relative_gap(value, closed[name]))
            for name, (value, stderr) in pool_variances(run, cfg.pool_size).items()]


def run_multiblock(cfg: ExperimentConfig) -> list[ReportRow]:
    """The ``holder_value`` estimate under the configured streak bonus
    against its additive closed form (k/n) * mu/d."""
    if cfg.multiblock is None:
        raise ConfigError("multiblock", "multiblock command needs a multiblock section")
    run = _run(cfg, cfg.params, cfg.holder_share)
    return [_mc_row(cfg.multiblock.beta, QUANTITIES[Quantity.HOLDER_VALUE], run)]
