"""Closed-form valuations for the ticket economy, plus the truncated-series
oracle used to validate them independently.

Every function is pure and cheap. ``n`` enters the protocol as an integer
but is treated as a continuous positive real here so the derivative
operations are well defined; integer inputs give the protocol values.

Forms are kept in their numerically stable shape, e.g. mu / (n*d + 1),
so nothing overflows or cancels for n up to 2**20 and beyond.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from .errors import DiscountRateError, DivergenceError


def _check_rate(d: float) -> None:
    if not (d > 0.0 and math.isfinite(d)):
        raise DiscountRateError(f"infinite-horizon valuation needs d > 0, got {d}")


def _check_mu(mu: float) -> None:
    if not (mu >= 0.0 and math.isfinite(mu)):
        raise ValueError(f"mean reward must be finite and >= 0, got {mu}")


def _check_n(n: float) -> None:
    if not (n >= 1.0 and math.isfinite(n)):
        raise ValueError(f"ticket count must be >= 1, got {n}")


def npv_rewards(mu: float, d: float) -> float:
    """Net present value of the whole future reward stream: mu / d."""
    _check_mu(mu)
    _check_rate(d)
    return mu / d


def expected_ticket_value(mu: float, d: float, n: float) -> float:
    """Expected discounted payoff of one outstanding ticket: mu / (n*d + 1)."""
    _check_mu(mu)
    _check_rate(d)
    _check_n(n)
    return mu / (n * d + 1.0)


def issued_market_cap(mu: float, d: float, n: float) -> float:
    """Combined value of the n outstanding tickets: n * mu / (n*d + 1).

    Strictly increasing in n with supremum npv_rewards(mu, d).
    """
    _check_mu(mu)
    _check_rate(d)
    _check_n(n)
    return n * mu / (n * d + 1.0)


def total_ticket_value(mu: float, d: float, n: float) -> float:
    """Value of all tickets ever to exist: the n outstanding ones plus the
    discounted stream of future mints. Equals npv_rewards(mu, d) for every n.
    """
    return issued_market_cap(mu, d, n) + expected_ticket_value(mu, d, n) / d


def expected_slots_to_win(n: float) -> float:
    """Mean waiting time of a ticket: n slots (geometric with p = 1/n)."""
    _check_n(n)
    return float(n)


def slots_to_win_variance(n: float) -> float:
    """Variance of the waiting time: n * (n - 1), i.e. (1-p)/p^2 at p = 1/n."""
    _check_n(n)
    return float(n) * (float(n) - 1.0)


def ticket_value_derivative_n(mu: float, d: float, n: float) -> float:
    """d/dn of expected_ticket_value: -mu*d / (n*d + 1)^2, negative for mu > 0."""
    _check_mu(mu)
    _check_rate(d)
    _check_n(n)
    return -mu * d / (n * d + 1.0) ** 2


def control_value(p: float, mu: float, d: float, n: float) -> float:
    """Value of holding a fraction p of the outstanding tickets: p*n*mu/(n*d+1)."""
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"holder fraction p must be in [0, 1], got {p}")
    _check_mu(mu)
    _check_rate(d)
    _check_n(n)
    return p * n * mu / (n * d + 1.0)


def control_value_derivative_n(p: float, mu: float, d: float, n: float) -> float:
    """d/dn of control_value: p*mu / (n*d + 1)^2, positive for p, mu > 0."""
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"holder fraction p must be in [0, 1], got {p}")
    _check_mu(mu)
    _check_rate(d)
    _check_n(n)
    return p * mu / (n * d + 1.0) ** 2


def ticket_value_second_moment(mu: float, var_r: float, d: float, n: float) -> float:
    """E[V^2] for one ticket: (var_r + mu^2) / (n*d^2 + 2*n*d + 1)."""
    _check_mu(mu)
    if not (var_r >= 0.0 and math.isfinite(var_r)):
        raise ValueError(f"reward variance must be finite and >= 0, got {var_r}")
    _check_rate(d)
    _check_n(n)
    return (var_r + mu * mu) / (n * d * d + 2.0 * n * d + 1.0)


def ticket_value_variance(mu: float, var_r: float, d: float, n: float) -> float:
    """Variance of one ticket's discounted payoff.

    (var_r + mu^2)/(n*d^2 + 2*n*d + 1) - mu^2/(n^2*d^2 + 2*n*d + 1);
    non-negative, and zero only for var_r = 0 with n = 1 (or mu = var_r = 0).
    """
    m2 = ticket_value_second_moment(mu, var_r, d, n)
    return m2 - mu * mu / (n * n * d * d + 2.0 * n * d + 1.0)


# ---------------------------------------------------------------------------
# Series oracle
# ---------------------------------------------------------------------------

_MAX_TERMS = 50_000_000


def truncated_series_sum(
    term: Callable[[int], float],
    d: Optional[float] = None,
    epsilon: float = 1e-12,
    *,
    ratio: Optional[float] = None,
) -> float:
    """Numerically sum term(1) + term(2) + ... for a geometrically dominated
    series, stopping once the geometric tail bound drops below
    epsilon * |partial sum|.

    The dominating ratio is 1/(1+d) by default; pass ``ratio`` explicitly
    for series not tied to a discount rate. Terms whose magnitude is still
    growing (e.g. t * x^t early on) are summed through the rise; the stop
    rule only engages while terms decay, using the larger of the supplied
    ratio and the last observed term ratio so the bound stays valid.

    Raises DivergenceError when the envelope is not contracting or the sum
    fails to converge within the term budget.
    """
    if ratio is None:
        if d is None or not (d > 0.0 and math.isfinite(d)):
            raise DivergenceError(f"series does not contract: need d > 0, got d={d}")
        ratio = 1.0 / (1.0 + d)
    if not (0.0 <= ratio < 1.0):
        raise DivergenceError(f"series does not contract: envelope ratio {ratio} >= 1")
    if not (epsilon > 0.0):
        raise ValueError(f"epsilon must be > 0, got {epsilon}")

    # Envelope slack: |term(t)| may exceed the anchored geometric envelope by
    # a polynomial factor (e.g. t * x^t) but not by more than this.
    slack = 1e9
    terms: list[float] = []
    total = 0.0
    prev = 0.0
    zero_run = 0
    envelope = None
    for t in range(1, _MAX_TERMS + 1):
        x = float(term(t))
        terms.append(x)
        total += x
        if x == 0.0:
            # A geometric envelope anchored at a zero term pins the tail at
            # zero, but tolerate isolated zeros (e.g. a vanishing first term).
            zero_run += 1
            if zero_run >= 8:
                return math.fsum(terms)
        else:
            zero_run = 0
            if envelope is None:
                envelope = abs(x) * slack
            elif abs(x) > envelope:
                raise DivergenceError(
                    f"series does not contract: term {t} exceeds the geometric envelope"
                )
            if prev != 0.0:
                observed = abs(x) / abs(prev)
                if observed < 1.0:
                    r = max(ratio, observed)
                    tail = abs(x) * r / (1.0 - r)
                    if tail <= epsilon * abs(total):
                        return math.fsum(terms)
        prev = x
        if envelope is not None:
            envelope *= ratio
    raise DivergenceError(f"series did not converge within {_MAX_TERMS} terms")
