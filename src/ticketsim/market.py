"""Parametric market-side models: primary-sale pricing and protocol capture,
and the consecutive-win (multi-block) bonus.

The multi-block bonus is a modeling choice kept deliberately simple: realized
reward = r * (1 + beta * (streak - 1)), linear in the current holder's
consecutive-win streak, with beta = 0 reducing exactly to the base model.
Nothing here samples: the pool's variances and every Monte Carlo estimate
are in ``quantities``.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import ClassVar, NamedTuple

from .analytics import expected_ticket_value, npv_rewards
from .core import EconomyParams, Frozen
from .errors import NegativePriceError


# ---------------------------------------------------------------------------
# Pricing policies and protocol capture
# ---------------------------------------------------------------------------


class PricingPolicy(ABC):
    """Rule mapping a ticket's expected value to its primary-sale price."""

    kind: ClassVar[str]

    @abstractmethod
    def price(self, expected_value: float) -> float: ...


class FairValue(Frozen, PricingPolicy):
    """Sell at exactly the expected ticket value."""

    kind = "fair_value"

    def price(self, expected_value: float) -> float:
        return expected_value


class FixedMargin(Frozen, PricingPolicy):
    """Sell below expected value by an absolute margin (buyer's required profit)."""

    _fields = ("margin",)
    kind = "fixed_margin"

    def __init__(self, margin: float):
        if not (margin >= 0.0 and math.isfinite(margin)):
            raise ValueError(f"margin must be finite and >= 0, got {margin}")
        self._freeze(margin)

    def price(self, expected_value: float) -> float:
        if self.margin > expected_value:
            raise NegativePriceError(
                f"margin {self.margin} exceeds expected ticket value {expected_value}"
            )
        return expected_value - self.margin


class FixedDiscount(Frozen, PricingPolicy):
    """Sell at a proportional discount to expected value."""

    _fields = ("discount",)
    kind = "fixed_discount"

    def __init__(self, discount: float):
        if not (0.0 <= discount <= 1.0):
            raise ValueError(f"discount must be in [0, 1], got {discount}")
        self._freeze(discount)

    def price(self, expected_value: float) -> float:
        return expected_value * (1.0 - self.discount)


class CaptureReport(NamedTuple):
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
# Multi-block bonus
# ---------------------------------------------------------------------------


class MultiBlockSpec(Frozen):
    """Consecutive-win superadditivity: reward scaled by 1 + beta*(streak-1)."""

    _fields = ("beta",)

    def __init__(self, beta: float):
        if not (beta >= 0.0 and math.isfinite(beta)):
            raise ValueError(f"beta must be finite and >= 0, got {beta}")
        self._freeze(beta)
