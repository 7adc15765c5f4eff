"""Experiment orchestration: the closed-form verification suite, parameter
sweeps, and the pricing / pooling / multi-block experiment runners.

Every runner returns ReportRows with the same column semantics:
``closed_form`` is the analytic value, ``mc_mean``/``mc_stderr`` carry the
Monte Carlo estimate when trials > 0 and the independent numerical oracle
otherwise, and ``rel_err`` is the closed-form-vs-oracle relative gap.

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

from . import analytics
from .analytics import truncated_series_sum
from .config import ExperimentConfig
from .core import ConstantReward, EconomyParams, LognormalReward, ParetoReward, calibrate_lognormal
from .errors import ConfigError
from .market import (
    FairValue,
    MultiBlockSpec,
    multiblock_value_experiment,
    pooled_variance_experiment,
    protocol_capture,
)
from .quantities import DEFAULT_HOLDER_SHARE, ORACLE_EPSILON, QUANTITIES, Entry, Quantity, Run, entries
from .report import ReportRow, make_row, relative_gap

ORACLE_TOLERANCE = 1e-9    # closed form vs oracle acceptance
Z_LIMIT = 4.0


def _share(cfg: ExperimentConfig) -> float:
    return cfg.holder_share if cfg.holder_share is not None else DEFAULT_HOLDER_SHARE


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
        runtime = (time.perf_counter() - start) * 1000.0 if cfg.timings else 0.0
        rows.append(make_row(name, closed, mc_mean, mc_stderr, trials, rel, runtime_ms=runtime))
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
    return [_oracle_row(q.value, entry, run) for q, entry in entries(oracle=True, estimator=True)]


def run_simulate(cfg: ExperimentConfig) -> list[ReportRow]:
    """One Monte Carlo estimate of the configured quantity vs its closed form."""
    run = _run(cfg, cfg.params, cfg.holder_share, default_share=False)
    entry = QUANTITIES[Quantity(cfg.quantity)]
    est = entry.estimate(run)
    closed = entry.closed(run)
    return [
        make_row(
            cfg.quantity, closed, est.mean, est.stderr, est.trials,
            relative_gap(est.mean, closed),
        )
    ]


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

    Closed forms take the holder share p as given. When n is swept, the
    closed forms also produce monotonicity verdicts: the single-ticket value
    must fall and the control value must rise.
    """
    if cfg.sweep is None:
        raise ConfigError("sweep", "sweep command needs a sweep section")
    sweep = cfg.sweep
    quantity = Quantity(sweep.quantity) if sweep.quantity else _SWEEP_DEFAULT_QUANTITY.get(sweep.parameter)
    p = _share(cfg)

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

        if sweep.parameter == "beta":
            result = multiblock_value_experiment(
                params, MultiBlockSpec(beta=float(value)), p, cfg.trials, cfg.seed,
                workers=cfg.workers, horizon=cfg.horizon,
            )
            row = make_row(
                value, result.additive_baseline, result.simulated_holder_npv,
                result.npv_stderr, cfg.trials,
                relative_gap(result.simulated_holder_npv, result.additive_baseline),
            )
        elif sweep.parameter == "k":
            result = pooled_variance_experiment(
                params, int(value), cfg.trials, cfg.seed,
                workers=cfg.workers, horizon=cfg.horizon,
            )
            closed = analytics.ticket_value_variance(params.mu, params.var_r, d, n)
            row = make_row(
                value, closed, result.pooled_per_ticket_variance,
                result.pooled_variance_stderr, cfg.trials,
                relative_gap(result.solo_variance, closed),
            )
        else:
            run = _run(cfg, params, share)
            entry = QUANTITIES[quantity]
            row = _oracle_row(value, entry, run)
            if sweep.mc:
                est = entry.estimate(run)
                row = make_row(value, row.closed_form, est.mean, est.stderr, est.trials, row.rel_err)
            if sweep.parameter == "n":
                ticket_values.append(QUANTITIES[Quantity.TICKET_VALUE].closed(run))
                control_values.append(QUANTITIES[Quantity.CONTROL_VALUE].closed(run))

        if cfg.timings:
            row = dataclasses.replace(row, runtime_ms=(time.perf_counter() - start) * 1000.0)
        rows.append(row)

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
    params = cfg.params
    result = pooled_variance_experiment(
        params, cfg.pool_size, cfg.trials, cfg.seed,
        workers=cfg.workers, horizon=cfg.horizon,
    )
    solo_closed = analytics.ticket_value_variance(params.mu, params.var_r, cfg.d, cfg.n)
    return [
        make_row(
            "solo_variance", solo_closed, result.solo_variance,
            result.solo_variance_stderr, cfg.trials,
            relative_gap(result.solo_variance, solo_closed),
        ),
        make_row(
            "pooled_per_ticket_variance", solo_closed, result.pooled_per_ticket_variance,
            result.pooled_variance_stderr, cfg.trials,
            relative_gap(result.pooled_per_ticket_variance, solo_closed),
        ),
        make_row(
            "variance_gap", 0.0, result.variance_gap, result.gap_stderr, cfg.trials,
            abs(result.variance_gap),
        ),
    ]


def run_multiblock(cfg: ExperimentConfig) -> list[ReportRow]:
    """Holder value under the streak bonus vs the additive baseline."""
    if cfg.multiblock is None:
        raise ConfigError("multiblock", "multiblock command needs a multiblock section")
    p = _share(cfg)
    result = multiblock_value_experiment(
        cfg.params, cfg.multiblock, p, cfg.trials, cfg.seed,
        workers=cfg.workers, horizon=cfg.horizon,
    )
    return [
        make_row(
            result.beta, result.additive_baseline, result.simulated_holder_npv,
            result.npv_stderr, cfg.trials,
            relative_gap(result.simulated_holder_npv, result.additive_baseline),
        )
    ]
