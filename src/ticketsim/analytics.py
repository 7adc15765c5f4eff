"""Closed-form valuations for the ticket economy, plus the series sums that
the independent oracles are built from.

Every function is pure and cheap. ``n`` enters the protocol as an integer
but is treated as a continuous positive real here so the derivative
operations are well defined; integer inputs give the protocol values.

Forms are kept in their numerically stable shape, e.g. mu / (n*d + 1),
so nothing overflows or cancels for n up to 2**20 and beyond.

Two series sums: ``doubling_series_sum`` sums a geometric-family series
with an exact rational coefficient and ratio in O(log terms), in 40-digit
decimals (the quantity table's oracles use it), and ``truncated_series_sum``
sums any scalar term one t at a time under the same stop rule.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Optional

from .errors import DiscountRateError, DivergenceError

if TYPE_CHECKING:
    from decimal import Decimal
    from fractions import Fraction


def _check_rate(d: float) -> None:
    if not (d > 0.0 and math.isfinite(d)):
        raise DiscountRateError(f"infinite-horizon valuation needs d > 0, got {d}")


def _check_mu(mu: float) -> None:
    if not (mu >= 0.0 and math.isfinite(mu)):
        raise ValueError(f"mean reward must be finite and >= 0, got {mu}")


def _check_var(var_r: float) -> None:
    if not (var_r >= 0.0 and math.isfinite(var_r)):
        raise ValueError(f"reward variance must be finite and >= 0, got {var_r}")


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
    lead = n * d + 1.0
    return -(mu / lead) * (d / lead)


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
    return p * mu / (n * d + 1.0) / (n * d + 1.0)


def ticket_value_variance(mu: float, var_r: float, d: float, n: float) -> float:
    """Variance of one ticket's discounted payoff:
    [var_r*(nd+1)^2 + mu^2*n(n-1)*d^2] / [(n*d*(d+2) + 1)*(nd+1)^2].

    Evaluated as (var_r + mu^2 * nd/(nd+1) * (n-1)d/(nd+1)) / (n*d*(d+2) + 1):
    nothing is subtracted, so nothing cancels, and the factors beside var_r
    and mu^2 are at most 1, so nothing overflows. Non-negative, and zero only
    for var_r = 0 with n = 1 (or mu = var_r = 0). It is taken in the unit 2^e
    just above mu: scaling by a power of two is exact, so the result keeps the
    unscaled steps' bits wherever those stay normal, and at a tiny unit the
    last scaling is its only rounding into the subnormal range.
    """
    _check_mu(mu)
    _check_var(var_r)
    _check_rate(d)
    _check_n(n)
    e = math.frexp(mu)[1]
    m, v = math.ldexp(mu, -e), math.ldexp(var_r, -2 * e)
    lead = n * d + 1.0
    scaled = (v + m * m * (n * d / lead) * ((n - 1.0) * d / lead)) / (n * d * (d + 2.0) + 1.0)
    return math.ldexp(scaled, 2 * e)


# ---------------------------------------------------------------------------
# Series sums
# ---------------------------------------------------------------------------

SERIES_KINDS = ("geometric", "linear")
_MAX_DOUBLINGS = 1000     # a series longer than 2**1000 terms does not converge here
_MAX_TERMS = 50_000_000   # least term budget of the term loop; a ratio near 1 gets more
# Envelope slack: |term(t)| may exceed the anchored geometric envelope by a
# polynomial factor (e.g. t * x^t) but not by more than this.
_SLACK = 1e9
# The doubling sum's significant digits, so its O(log H) roundings stay far
# below an epsilon of 1e-32.
_DIGITS = 40


def doubling_series_sum(a: Fraction, r: Fraction, kind: str = "geometric",
                        epsilon: float = 1e-12) -> Fraction:
    """The sum over t = 1..H of a*r^(t-1) (``kind`` "geometric") or of
    a*t*r^(t-1) ("linear") for 0 <= r < 1, where H is the stop of
    ``truncated_series_sum``'s rule with envelope ratio r. ``a`` and ``r``
    are taken exactly (a Fraction, int or float); the unit sum is formed in
    40-digit decimals and the result is a times it, an exact Fraction.

    It doubles on the bits of H, in O(log H) operations: with S_m the sum
    of r^(t-1) and T_m that of t*r^(t-1) over t <= m, S_2m = S_m + r^m*S_m
    and T_2m = T_m + r^m*(T_m + m*S_m), and H is found by binary lifting
    over r^(2^j), S_(2^j) and T_(2^j).
    """
    if kind not in SERIES_KINDS:
        raise ValueError(f"series kind must be one of {SERIES_KINDS}, got {kind!r}")
    if not (epsilon > 0.0):
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    from fractions import Fraction
    return Fraction(a) * Fraction(_doubling_sum(r, kind == "linear", epsilon)[0])


def _doubling_sum(r: Fraction, linear: bool, epsilon: float) -> tuple[Decimal, int]:
    """The sum of r^(t-1), or of t*r^(t-1) when ``linear``, over t = 1..H, and H."""
    if not (0 <= r < 1):    # NaN fails it too
        raise DivergenceError(f"series does not contract: ratio {r} is not in [0, 1)")
    from decimal import Context, Decimal, localcontext   # only the oracles need exact arithmetic
    from fractions import Fraction
    r, eps = Fraction(r), Decimal(epsilon)
    with localcontext(Context(prec=_DIGITS)):
        gap, ratio = (Decimal(f.numerator) / f.denominator for f in (1 - r, r))

        def settled(t: int, power: Decimal, total: Decimal) -> bool:
            """Whether the rule stops at t, given r^t and the unit sum to t: the
            term decays, and |term(t)|*r'/(1 - r') <= epsilon*|sum|, where the
            ratio r' to term(t-1) is r, or r*t/(t-1) when linear."""
            if linear:
                excess = t * gap - 1    # (t - 1)*(1 - r')
                return t > 1 and excess > 0 and t * (t * power) <= eps * total * excess
            return t > 1 and power <= eps * total * gap

        levels = []     # (r^m, S_m, T_m) at m = 1, 2, 4, ... below the first settled m
        power, s, lin, m = ratio, Decimal(1), Decimal(1), 1
        while not settled(m, power, lin if linear else s):
            if len(levels) == _MAX_DOUBLINGS:
                raise DivergenceError(f"series did not converge within 2**{_MAX_DOUBLINGS} terms")
            levels.append((power, s, lin))
            if linear:
                lin += power * (lin + m * s)
            s, power, m = s + power * s, power * power, 2 * m

        # The last t that does not settle, bit by bit, with r^t and the unit sum to t.
        t, power, total = 0, Decimal(1), Decimal(0)
        for j in reversed(range(len(levels))):
            power_j, s_j, lin_j = levels[j]
            if linear:    # T_(t+m) = T_t + r^t*(T_m + t*S_m)
                step = total + power * (lin_j + t * s_j)
            else:         # S_(t+m) = S_t + r^t*S_m
                step = total + power * s_j
            step_power = power * power_j
            if not settled(t + (1 << j), step_power, step):
                t, power, total = t + (1 << j), step_power, step
        return total + (power * (t + 1) if linear else power), t + 1    # plus the unit term t + 1


def truncated_series_sum(term: Callable[[int], float], d: Optional[float] = None,
                         epsilon: float = 1e-12, *, ratio: Optional[float] = None) -> float:
    """Sum term(1) + term(2) + ..., called with the ints 1, 2, 3, ... in
    order, for a geometrically dominated series with envelope ratio
    ``ratio`` (by default 1/(1+d)), up to the first decaying term with
    |term|*r'/(1 - r') <= epsilon*|partial sum|, r' the larger of ``ratio``
    and the last observed term ratio; eight zero terms in a row also stop
    it. Terms go into Shewchuk's exact partials (the algorithm of
    math.fsum), so the result is the correctly rounded sum to the stop, in
    O(1) memory.

    Raises DivergenceError when a term up to the stop is NaN or infinite,
    when a term exceeds the envelope, or past the term budget:
    ``_MAX_TERMS``, or where more, the t at which the envelope falls to
    epsilon of the first nonzero term.
    """
    if ratio is None:
        if d is None or not (d > 0.0 and math.isfinite(d)):
            raise DivergenceError(f"series does not contract: need d > 0, got d={d}")
        ratio = 1.0 / (1.0 + d)
    if not (0.0 <= ratio < 1.0):
        raise DivergenceError(f"series does not contract: envelope ratio {ratio} >= 1")
    if not (epsilon > 0.0):
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    return _series_sum(term, ratio, epsilon)[0]


def _series_sum(term: Callable[[int], float], ratio: float, epsilon: float) -> tuple[float, int]:
    """The truncated sum and the last t it includes."""
    budget = _MAX_TERMS
    if ratio > 0.0:
        budget = max(budget, math.ceil(math.log(epsilon / _SLACK) / math.log(ratio)))
    # The exact partials, the running total in term order, the last term's
    # magnitude, the zeros it ended on, and the envelope, which the first
    # nonzero term anchors.
    partials: list[float] = []
    total, prev, zero_run, envelope = 0.0, 0.0, 0, None
    for t in range(1, budget + 1):
        x = float(term(t))
        if not math.isfinite(x):
            raise DivergenceError(f"series term {t} is {x}, not a finite number")
        total += x
        ax, i = abs(x), 0
        for p in partials:
            if abs(x) < abs(p):
                x, p = p, x
            high = x + p
            low = p - (high - x)
            if low:
                partials[i] = low
                i += 1
            x = high
        partials[i:] = [x]
        if ax == 0.0:    # isolated zeros pass, but a run of them ends the sum
            zero_run += 1
            if zero_run >= 8:
                return math.fsum(partials), t
        else:
            zero_run = 0
            if envelope is None:
                envelope = ax * _SLACK
            elif ax > envelope:
                raise DivergenceError(f"series does not contract: term {t} exceeds the geometric envelope")
            observed = ax / prev if prev else 1.0    # a zero previous term: no ratio
            if observed < 1.0:
                r = observed if observed > ratio else ratio
                if ax * r / (1.0 - r) <= epsilon * abs(total):
                    return math.fsum(partials), t
        prev = ax
        if envelope is not None:
            envelope *= ratio
    raise DivergenceError(f"series did not converge within {budget} terms")
