"""Parametric market-side models: primary-sale pricing and protocol capture,
equal-share pooling, and the consecutive-win (multi-block) bonus.

Pooling is a payout overlay only; it never changes draw mechanics. The
multi-block bonus is a modeling choice kept deliberately simple: realized
reward = r * (1 + beta * (streak - 1)), linear in the current holder's
consecutive-win streak, with beta = 0 reducing exactly to the base model.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import partial
from typing import ClassVar, Optional

from .analytics import expected_ticket_value, npv_rewards
from .core import EconomyParams
from .engine import sample_pool_payoffs
from .errors import NegativePriceError
from .quantities import paired_stderr, pool_sums, ticket_mean


# ---------------------------------------------------------------------------
# Pricing policies and protocol capture
# ---------------------------------------------------------------------------


class PricingPolicy(ABC):
    """Rule mapping a ticket's expected value to its primary-sale price."""

    kind: ClassVar[str]

    @abstractmethod
    def price(self, expected_value: float) -> float: ...


@dataclass(frozen=True)
class FairValue(PricingPolicy):
    """Sell at exactly the expected ticket value."""

    kind: ClassVar[str] = "fair_value"

    def price(self, expected_value: float) -> float:
        return expected_value


@dataclass(frozen=True)
class FixedMargin(PricingPolicy):
    """Sell below expected value by an absolute margin (buyer's required profit)."""

    margin: float
    kind: ClassVar[str] = "fixed_margin"

    def __post_init__(self):
        if not (self.margin >= 0.0 and math.isfinite(self.margin)):
            raise ValueError(f"margin must be finite and >= 0, got {self.margin}")

    def price(self, expected_value: float) -> float:
        if self.margin > expected_value:
            raise NegativePriceError(
                f"margin {self.margin} exceeds expected ticket value {expected_value}"
            )
        return expected_value - self.margin


@dataclass(frozen=True)
class FixedDiscount(PricingPolicy):
    """Sell at a proportional discount to expected value."""

    discount: float
    kind: ClassVar[str] = "fixed_discount"

    def __post_init__(self):
        if not (0.0 <= self.discount <= 1.0):
            raise ValueError(f"discount must be in [0, 1], got {self.discount}")

    def price(self, expected_value: float) -> float:
        return expected_value * (1.0 - self.discount)


@dataclass(frozen=True)
class CaptureReport:
    """Protocol revenue split for one pricing policy."""

    price: float
    initial_sale: float
    per_slot_stream_npv: float
    total: float
    leakage: float


def protocol_capture(policy: PricingPolicy, params: EconomyParams) -> CaptureReport:
    """Revenue the protocol collects selling every ticket at the policy price.

    The initial sale moves n tickets; afterwards one replacement sells per
    slot, a perpetuity worth price/d today. Leakage is the part of the full
    reward stream NPV ceded to buyers and the secondary market.
    """
    ev = expected_ticket_value(params.mu, params.d, params.n)
    price = policy.price(ev)
    initial_sale = params.n * price
    per_slot_stream_npv = price / params.d
    total = initial_sale + per_slot_stream_npv
    leakage = npv_rewards(params.mu, params.d) - total
    return CaptureReport(
        price=price,
        initial_sale=initial_sale,
        per_slot_stream_npv=per_slot_stream_npv,
        total=total,
        leakage=leakage,
    )


# ---------------------------------------------------------------------------
# Pooling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PoolVarianceResult:
    """Solo vs pooled per-ticket payoff variance from one common ensemble."""

    solo_variance: float
    solo_variance_stderr: float
    pooled_per_ticket_variance: float
    pooled_variance_stderr: float
    ratio: float
    variance_gap: float        # pooled_per_ticket_variance - solo_variance
    gap_stderr: float
    trials: int
    pool_tickets: int
    truncated: int


def pooled_variance_experiment(
    params: EconomyParams,
    k: int,
    trials: int,
    seed: int,
    *,
    workers: int = 1,
    horizon: Optional[int] = None,
    stream: int = 0,
) -> PoolVarianceResult:
    """Simulate a k-of-n equal-share pool and compare per-ticket payoff
    variance against a solo ticket from the same trajectories.

    Both variances come from the same trajectories, so the gap's standard
    error is that of the mean paired difference of squared deviations. Each
    block is reduced to its sums where it is drawn (``quantities.pool_sums``).
    """
    if k > params.n:
        raise ValueError(f"pool size {k} exceeds ticket count n={params.n}")
    if trials < 2:
        raise ValueError(f"a sample variance needs at least 2 trials, got {trials}")
    member_mean, solo, truncated, paired = sample_pool_payoffs(
        params, k, trials, seed, horizon=horizon, workers=workers, stream=stream,
        reduce=partial(pool_sums, shift=ticket_mean(params)),
    )
    solo_var, solo_stderr = solo.variance_stderr()
    pooled_var, pooled_stderr = member_mean.variance_stderr()
    gap_stderr = paired_stderr(paired)

    return PoolVarianceResult(
        solo_variance=solo_var,
        solo_variance_stderr=solo_stderr,
        pooled_per_ticket_variance=pooled_var,
        pooled_variance_stderr=pooled_stderr,
        ratio=pooled_var / solo_var if solo_var > 0.0 else float("nan"),
        variance_gap=pooled_var - solo_var,
        gap_stderr=gap_stderr,
        trials=trials,
        pool_tickets=k,
        truncated=truncated,
    )


# ---------------------------------------------------------------------------
# Multi-block bonus
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MultiBlockSpec:
    """Consecutive-win superadditivity: reward scaled by 1 + beta*(streak-1)."""

    beta: float

    def __post_init__(self):
        if not (self.beta >= 0.0 and math.isfinite(self.beta)):
            raise ValueError(f"beta must be finite and >= 0, got {self.beta}")

    def apply(self, reward: float, streak: int) -> float:
        return reward * (1.0 + self.beta * (streak - 1))
