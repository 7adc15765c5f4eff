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

import numpy as np

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
_BLOCK = 4096          # most terms evaluated and checked at once
# Envelope slack: |term(t)| may exceed the anchored geometric envelope by a
# polynomial factor (e.g. t * x^t) but not by more than this.
_SLACK = 1e9


def truncated_series_sum(
    term: Callable,
    d: Optional[float] = None,
    epsilon: float = 1e-12,
    *,
    ratio: Optional[float] = None,
    vectorized: bool = False,
) -> float:
    """Numerically sum term(1) + term(2) + ... for a geometrically dominated
    series, stopping once the geometric tail bound drops below
    epsilon * |partial sum|.

    The dominating ratio is 1/(1+d) by default; pass ``ratio`` explicitly
    for series not tied to a discount rate. Terms whose magnitude is still
    growing (e.g. t * x^t early on) are summed through the rise; the stop
    rule only engages while terms decay, using the larger of the supplied
    ratio and the last observed term ratio so the bound stays valid. Eight
    zero terms in a row also stop the sum.

    Terms are evaluated and checked in blocks of consecutive t, which start
    at one term and double up to ``_BLOCK``, so memory stays bounded however
    long the series is, and a sum that stops at t evaluates no term at 2*t
    or beyond. With ``vectorized=False`` ``term`` is called with the Python
    ints 1, 2, 3, ... in order, up to the end of the block that stops the
    sum; with ``vectorized=True`` it maps an int64 array of t to an array of
    terms (or to a constant, which is broadcast). Either way the stop rule
    sees the terms in order and stops where a term-by-term loop would, and
    the result is what one math.fsum over the terms up to the stop gives.

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
    return _series_sum(term, ratio, epsilon, vectorized)[0]


def _first(mask: np.ndarray) -> int:
    """Index of the first True in ``mask``, or its length when there is none."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else mask.size


def _add_exact(hi: float, lo: float, block: np.ndarray) -> tuple[float, float]:
    """Add ``block`` to the sum hi + lo, where lo is what rounding hi left
    out, so hi stays what one fsum over every term gives (lo itself is
    rounded, an error near 1e-32 of the sum)."""
    items = block.tolist()
    items += (hi, lo)
    hi = math.fsum(items)
    items.append(-hi)
    return hi, math.fsum(items)


def _series_sum(term: Callable, ratio: float, epsilon: float,
                vectorized: bool) -> tuple[float, int]:
    """The truncated sum and the last t it includes."""
    hi = lo = 0.0
    # The stop rule's state after the previous block: the running total in
    # term order, the last term, the zeros it ended on, and the envelope
    # (None until the first nonzero term anchors it).
    total, prev, zero_run, envelope = 0.0, 0.0, 0, None
    start, size = 1, 1
    while start <= _MAX_TERMS:
        size = min(size, _MAX_TERMS + 1 - start)
        if vectorized:
            ts = np.arange(start, start + size, dtype=np.int64)
            x = np.broadcast_to(np.asarray(term(ts), dtype=np.float64), ts.shape)
        else:
            x = np.fromiter(map(term, range(start, start + size)), np.float64, size)
        ax = np.abs(x)
        nonzero = x != 0.0

        # A geometric envelope anchored at a zero term pins the tail at zero,
        # but tolerate isolated zeros (e.g. a vanishing first term).
        at = np.arange(size)
        runs = at - np.maximum.accumulate(np.where(nonzero, at, -1 - zero_run))
        stop = _first(runs >= 8)

        # cumsum adds in order, so these are the totals a per-term loop keeps.
        totals = np.cumsum(np.concatenate(([total], x)))[1:]
        prevs = np.concatenate(([abs(prev)], ax[:-1]))
        decaying = np.flatnonzero(nonzero & (prevs != 0.0))
        observed = ax[decaying] / prevs[decaying]
        decaying, observed = decaying[observed < 1.0], observed[observed < 1.0]
        r = np.maximum(observed, ratio)
        tail = ax[decaying] * r / (1.0 - r)
        settled = decaying[tail <= epsilon * np.abs(totals[decaying])]
        if settled.size:
            stop = min(stop, int(settled[0]))

        # The envelope shrinks by ``ratio`` per term from the first nonzero
        # term; multiply.accumulate repeats the loop's products exactly.
        anchor = check = 0
        if envelope is None:
            anchor = _first(nonzero)
            check = anchor + 1
            if anchor < size:
                envelope = float(ax[anchor]) * _SLACK
        if envelope is not None:
            bound = np.full(size - anchor, ratio)
            bound[0] = envelope
            np.multiply.accumulate(bound, out=bound)
            breach = check + _first(ax[check:] > bound[check - anchor:])
            if breach < size and breach <= stop:
                raise DivergenceError(
                    f"series does not contract: term {start + breach} exceeds the geometric envelope"
                )
            envelope = float(bound[-1]) * ratio

        hi, lo = _add_exact(hi, lo, x[: stop + 1])
        if stop < size:
            return hi, start + stop
        total, prev, zero_run = float(totals[-1]), float(x[-1]), int(runs[-1])
        start += size
        size = min(2 * size, _BLOCK)
    raise DivergenceError(f"series did not converge within {_MAX_TERMS} terms")
