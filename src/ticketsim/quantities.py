"""The quantity table: every model quantity ticketsim prices, defined once.

Each entry holds a quantity's closed form, its independent oracle (a
series summed by ``analytics.doubling_series_sum``, or a complex-step
derivative) and its Monte Carlo estimator: the
ensemble it draws, on which RNG stream, the statistic it takes of it and a
bound on the bias that horizon truncation leaves. ``QUANTITIES`` holds the
model quantities, ``POOL`` the rows of a payoff pool and ``PRICING`` those of
protocol capture under a pricing policy; which command reads which entries
is stated once, in ``harness``.

Entries reach the samplers and the series oracle through their modules at
call time, so that anything wrapping a module attribute (a profiler, a
tracer) sees every call.

Every ensemble is reduced block by block, where the block is drawn, to its
count and power sums about its closed-form mean (``PowerSums``), and the
statistics read these sums, so an estimate holds one block, never a
trial-length array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum
from functools import cached_property, partial
from typing import Callable, Optional

import numpy as np

from . import analytics, engine
from .analytics import DD
from .core import EconomyParams
from .errors import ConfigError, NegativePriceError
from .market import CaptureReport, FairValue, PricingPolicy, protocol_capture

# The tail each oracle series leaves out, relative to its sum: below the
# double-double resolution (2**-106, about 1.2e-32), so a truncated sum is
# as exact as its rounding, and E[V^2] - E[V]^2 keeps the variance's digits
# even where the variance is 2e-18 of E[V^2] (n = 2, d = 1e-9).
ORACLE_EPSILON = 1e-32
DEFAULT_HOLDER_SHARE = 0.125   # holder share of a run that configures none
_COMPLEX_STEP = 1e-20      # complex-step derivative step, relative to n
_ONE = (1.0, 0.0)


class Quantity(str, Enum):
    NPV_REWARDS = "npv_rewards"
    TICKET_VALUE = "ticket_value"
    TOTAL_TICKET_VALUE = "total_ticket_value"
    ISSUED_MARKET_CAP = "issued_market_cap"
    TIME_TO_WIN = "time_to_win"
    TICKET_VALUE_DERIVATIVE = "ticket_value_derivative"
    CONTROL_VALUE = "control_value"
    CONTROL_VALUE_DERIVATIVE = "control_value_derivative"
    TICKET_VALUE_VARIANCE = "ticket_value_variance"
    HOLDER_VALUE = "holder_value"


@dataclass(frozen=True)
class Estimate:
    """Aggregated Monte Carlo estimate.

    ``bias_bound`` bounds the systematic error introduced by horizon
    truncation; it is reported so callers can fold it into comparisons.
    """

    mean: float
    stderr: float
    ci95: tuple[float, float]
    trials: int
    truncated: int = 0
    bias_bound: float = 0.0


def holder_tickets(share: float, n: int) -> int:
    """Tickets of ``n`` that a holder of ``share`` keeps: the nearest whole
    number. A share that keeps none, or more than n, is a ConfigError."""
    k = int(share * n + 0.5)
    if k < 1:
        raise ConfigError("holder_share", f"{share} rounds to zero of {n} tickets")
    if k > n:
        raise ConfigError("holder_share", f"{share} keeps {k} tickets, not between 1 and n={n}")
    return k


class Run:
    """One run's inputs, with the oracle series and the ensembles that several
    entries share, each computed at most once.

    ``share`` is the configured holder share, or None. ``run.share``, the
    share the closed forms take, is then ``DEFAULT_HOLDER_SHARE`` where
    ``default_share`` is set and otherwise raises ConfigError. ``beta`` is
    the streak bonus of the holder-value ensemble, ``pool_size`` the tickets
    of the pool ensemble and ``policy`` the pricing policy of ``capture``.
    """

    def __init__(self, params: EconomyParams, share: Optional[float] = None, *,
                 trials: int = 0, seed: int = 0, workers: int = 1,
                 horizon: Optional[int] = None, beta: float = 0.0, default_share: bool = False,
                 pool_size: Optional[int] = None, policy: PricingPolicy = FairValue()):
        self.params, self.configured_share = params, share
        self._share = DEFAULT_HOLDER_SHARE if share is None and default_share else share
        self.mu, self.var_r, self.d, self.n = params.mu, params.var_r, params.d, params.n
        self.trials, self.seed, self.workers = trials, seed, workers
        self.horizon, self.beta, self.pool_size, self.policy = horizon, beta, pool_size, policy

    @property
    def share(self) -> float:
        if self._share is None:
            raise ConfigError("holder_share", "required by this quantity")
        return self._share

    @cached_property
    def holder_tickets(self) -> int:
        """Tickets of the holder ensembles: the configured share's, else the
        default share's, or one where that rounds to none (n < 4)."""
        if self.configured_share is None:
            return max(1, int(DEFAULT_HOLDER_SHARE * self.n + 0.5))
        return holder_tickets(self.configured_share, self.n)

    @property
    def held_share(self) -> float:
        """k/n of the holder's k tickets, which, unlike the tickets, needs a share."""
        _ = self.share    # a ConfigError where the run has no share
        return self.holder_tickets / self.n

    @cached_property
    def win_horizon(self) -> int:
        return self.horizon if self.horizon is not None else engine.win_horizon(self.n)

    @cached_property
    def win_tail(self) -> float:
        """Chance that a tracked ticket has not won within the horizon."""
        return (1.0 - 1.0 / self.n) ** self.win_horizon

    @cached_property
    def discount_horizon(self) -> int:
        return self.horizon if self.horizon is not None else engine.discount_horizon(self.d)

    @cached_property
    def discount(self) -> DD:
        """x = 1/(1+d) as a double-double, from 1 + d carried exactly."""
        return analytics.dd_div(_ONE, analytics.dd_add(_ONE, (self.d, 0.0)))

    @cached_property
    def win_chance(self) -> DD:
        """1/n, a ticket's chance to win a slot, as a double-double."""
        return analytics.dd_div(_ONE, (float(self.n), 0.0))

    @cached_property
    def miss_chance(self) -> DD:
        """q = 1 - 1/n as a double-double."""
        return analytics.dd_add(_ONE, (-self.win_chance[0], -self.win_chance[1]))

    @cached_property
    def reward_series(self) -> float:
        """Series for the NPV of the reward stream."""
        return stream_series(self, self.mu)

    @cached_property
    def ticket_sum(self) -> DD:
        """Proof-structure series for the single-ticket value, as a
        double-double: the sum of q^(t-1) * (1/n) * mu * x^t."""
        mul, x = analytics.dd_mul, self.discount
        return analytics.doubling_series_sum(mul(mul((self.mu, 0.0), x), self.win_chance),
                                             mul(self.miss_chance, x), "geometric", ORACLE_EPSILON)

    @cached_property
    def ticket_sums(self) -> tuple[PowerSums, int]:
        """Power sums to order 4 of one tracked ticket's discounted payoff, on
        stream 0, about its closed form."""
        return engine.sample_ticket_payoffs(
            self.params, self.trials, self.seed, horizon=self.win_horizon, workers=self.workers,
            stream=0, reduce=partial(block_sums, shifts=(ticket_mean(self.params),), order=4),
        )

    @cached_property
    def holder_sums(self) -> tuple[PowerSums, PowerSums]:
        """Power sums to order 2 of the (gross, net) flows of ``holder_tickets``
        tickets, replaced at the fair price, on stream 3 (stream 2 stays
        unused, so no stream's bytes move), about their closed forms."""
        k = self.holder_tickets
        shifts = (holder_mean(self, k), analytics.control_value(k / self.n, self.mu, self.d, self.n))
        return engine.sample_holder_flows(
            self.params, k, self.trials, self.seed, replacement_price=fair_price(self),
            horizon=self.discount_horizon, workers=self.workers, stream=3,
            reduce=partial(block_sums, shifts=shifts, order=2))

    @cached_property
    def pool(self) -> tuple:
        """The ``pool_sums`` of one ensemble of a ``pool_size``-ticket
        equal-share pool, on stream 0: (member, solo, truncated, paired).

        The sampler takes the configured horizon, not ``win_horizon``: its
        own default tightens the tail tolerance to 1e-9 / k, one tail per
        member. Solo and pooled payoffs come from the same trajectories.
        """
        if self.pool_size is None:
            raise ConfigError("pool", "pool command needs a pool section")
        return engine.sample_pool_payoffs(
            self.params, self.pool_size, self.trials, self.seed, horizon=self.horizon,
            workers=self.workers, stream=0, reduce=partial(pool_sums, shift=ticket_mean(self.params)))

    @cached_property
    def capture(self) -> CaptureReport:
        """Protocol capture under ``policy``; a price below zero is a ConfigError."""
        try:
            return protocol_capture(self.policy, self.params)
        except NegativePriceError as exc:
            raise ConfigError("policy.margin", str(exc)) from exc

    @cached_property
    def capture_series(self) -> CaptureReport:
        """``capture`` rebuilt from the series of its price stream and of the
        reward stream: the oracle of each of its fields."""
        price = self.capture.price
        stream = stream_series(self, price)
        total = self.n * price + stream
        return CaptureReport(price, self.n * price, stream, total, self.reward_series - total)


def stream_series(run: Run, amount: float) -> float:
    """Series for the NPV of ``amount`` paid every slot: the sum of amount * x^t."""
    x = run.discount
    return analytics.doubling_series_sum(analytics.dd_mul((amount, 0.0), x), x, "geometric",
                                         ORACLE_EPSILON)[0]


def _variance_series(run: Run) -> float:
    """E[V^2] - E[V]^2 in double-double, rounded once. E[V^2] is the sum of
    q^(t-1) * (1/n) * (var_r + mu^2) * x^(2t)."""
    mul, x2 = analytics.dd_mul, analytics.dd_mul(run.discount, run.discount)
    moment = analytics.dd_add((run.var_r, 0.0), mul((run.mu, 0.0), (run.mu, 0.0)))
    second = analytics.doubling_series_sum(mul(moment, mul(x2, run.win_chance)),
                                           mul(run.miss_chance, x2), "geometric", ORACLE_EPSILON)
    square = mul(run.ticket_sum, run.ticket_sum)
    return analytics.dd_add(second, (-square[0], -square[1]))[0]


def _slots_to_win_series(run: Run) -> float:
    """The sum of t * q^(t-1) * (1/n)."""
    return analytics.doubling_series_sum(run.win_chance, run.miss_chance, "linear",
                                         ORACLE_EPSILON)[0]


def _complex_step(f: Callable[[complex], complex], n: int) -> float:
    """f'(n) as Im f(n + ih)/h (Squire & Trapp, *SIAM Review* 40(1), 1998):
    no difference is taken, so nothing cancels, and h can be tiny."""
    h = _COMPLEX_STEP * n
    return f(complex(n, h)).imag / h


def ticket_mean(params: EconomyParams) -> float:
    """E[V] = mu / (n d + 1), a ticket's closed-form value written out, since a
    finite-horizon run may take d = 0: the shift of the ticket-payoff sums."""
    return params.mu / (params.n * params.d + 1.0)


def holder_mean(run: Run, k: int, beta: float = 0.0) -> float:
    """Expected gross flow of k retained tickets under streak bonus beta:
    (p mu / d) (1 + beta p / (1 + d - p)) with p = k/n, the shift of the
    holder ensembles' sums.

    The holder wins each slot with chance p, so a win at slot t ends a
    streak of at least j wins with chance p^(j - 1), j <= t, and its
    expected bonus is 1 + beta (p - p^t) / (1 - p); discounting that over
    t gives the form (also at p = 1, where the streak is t).
    """
    p = k / run.n
    return p * run.mu / run.d * (1.0 + beta * p / (1.0 + run.d - p))


def fair_price(run: Run) -> float:
    return analytics.expected_ticket_value(run.mu, run.d, run.n)


def _geometric_tail(x: float, horizon: int) -> float:
    """sum_{t > horizon} x^t for 0 <= x < 1."""
    return x ** (horizon + 1) / (1.0 - x)


def _arithmetic_geometric_tail(x: float, horizon: int) -> float:
    """sum_{t > horizon} t * x^t for 0 <= x < 1."""
    return x ** (horizon + 1) * ((horizon + 1) - horizon * x) / (1.0 - x) ** 2


def holder_bias(run: Run, share: float, beta: float = 0.0, price: float = 0.0) -> float:
    """Bound on the truncated expected holder flow beyond the horizon.

    Uses streak <= t, so the per-slot bonus factor is at most 1 + beta*(t-1).
    """
    x, horizon = 1.0 / (1.0 + run.d), run.discount_horizon
    geo = _geometric_tail(x, horizon)
    reward_tail = run.mu * ((1.0 - beta) * geo + beta * _arithmetic_geometric_tail(x, horizon))
    return share * (abs(reward_tail) + price * geo)


def _zero_degenerate(stderr: float, scale: float) -> float:
    # A deterministic ensemble accumulates rounding noise of a few ulps;
    # report that as the exact zero it is rather than a misleading 1e-16.
    return 0.0 if stderr < 1e-13 * (abs(scale) + 1.0) else stderr


@dataclass(frozen=True)
class PowerSums:
    """An ensemble's power sums about a shift c: ``sums[j]`` is the sum of
    (v - c)^j over its values, ``sums[0]`` their count.

    Sums of disjoint blocks add, so an ensemble reduces block by block in
    O(block) memory. Central moments follow from the sums by the binomial
    expansion, which cancels little when c is near the ensemble's mean
    (Chan, Golub & LeVeque, *Am. Stat.* 37(3), 1983).
    """

    shift: float
    sums: np.ndarray

    def __add__(self, other: PowerSums) -> PowerSums:
        return PowerSums(self.shift, self.sums + other.sums)

    def mean_stderr(self) -> tuple[float, float]:
        """Sample mean and its standard error."""
        n, s1, s2 = map(float, self.sums[:3])
        a = s1 / n
        mean = self.shift + a
        if n < 2:
            return mean, 0.0
        var = max((s2 - s1 * a) / (n - 1.0), 0.0)
        return mean, _zero_degenerate(math.sqrt(var / n), mean)

    def variance_stderr(self) -> tuple[float, float]:
        """Sample variance and the asymptotic stderr of that variance estimate."""
        n, s1, s2, s3, s4 = map(float, self.sums[:5])
        a = s1 / n
        var = max((s2 - s1 * a) / (n - 1.0), 0.0)
        m4 = (s4 - a * (4.0 * s3 - a * (6.0 * s2 - 3.0 * a * s1))) / n    # mean of (v - mean)^4
        stderr = math.sqrt(max(m4 - var * var, 0.0) / n)
        return var, _zero_degenerate(stderr, var)


def power_sums(values: np.ndarray, shift: float, order: int) -> PowerSums:
    """The count of ``values`` and their power sums about ``shift`` to ``order``."""
    dev = np.subtract(values, shift, dtype=np.float64)
    sums = np.empty(order + 1)
    sums[0] = dev.size
    power = dev
    for j in range(1, order + 1):
        sums[j] = power.sum()
        if j < order:
            power = power * dev if j == 1 else np.multiply(power, dev, out=power)
    return PowerSums(shift, sums)


def block_sums(parts: tuple, shifts: tuple[float, ...], order: int) -> tuple:
    """A sampler block's ``parts`` with its i-th array replaced by its power
    sums about ``shifts[i]`` to ``order``, counts kept: the reducer an
    ensemble binds with ``functools.partial`` and passes to its sampler."""
    shifts = iter(shifts)
    return tuple(power_sums(p, next(shifts), order) if isinstance(p, np.ndarray) else p
                 for p in parts)


def pool_sums(parts: tuple, shift: float) -> tuple:
    """A pool block's (per-ticket mean m, solo payoff s, truncated) reduced
    to the power sums of m and s to order 4 about ``shift``, the truncated
    count, and the paired table T[i, j] = sum of e^i f^j (i, j <= 2) of
    e = m - s and f = (m - shift) + (s - shift). The difference of the two
    squared deviations from the sample means, (m - m_bar)^2 - (s - s_bar)^2,
    is the centred product (e - e_bar)(f - f_bar), and is exactly zero
    where m = s (a pool of one)."""
    member, solo, truncated = parts
    e = member - solo
    f = np.subtract(member, shift) + np.subtract(solo, shift)
    ones = np.ones_like(e)
    e_powers, f_powers = np.stack([ones, e, e * e]), np.stack([ones, f, f * f])
    paired = (e_powers[:, None, :] * f_powers[None, :, :]).sum(axis=2)
    return power_sums(member, shift, 4), power_sums(solo, shift, 4), truncated, paired


def paired_stderr(paired: np.ndarray) -> float:
    """Stderr of the mean of (e - e_bar)(f - f_bar) from ``pool_sums``' paired table."""
    n = float(paired[0, 0])
    e_bar, f_bar = float(paired[1, 0]) / n, float(paired[0, 1]) / n
    total = float(paired[1, 1]) - e_bar * float(paired[0, 1])
    # (e - e_bar)^2 (f - f_bar)^2 expanded over the table's powers of e and f.
    weights = np.outer([e_bar * e_bar, -2.0 * e_bar, 1.0], [f_bar * f_bar, -2.0 * f_bar, 1.0])
    squares = float((weights * paired).sum())
    var = max((squares - total * total / n) / (n - 1.0), 0.0)
    return _zero_degenerate(math.sqrt(var / n), total / n)


def _mean_stderr(values: np.ndarray) -> tuple[float, float]:
    """Mean and stderr of an array, through its power sums about its mean."""
    return power_sums(values, float(np.mean(values)), 2).mean_stderr()


def _variance_stderr(values: np.ndarray) -> tuple[float, float]:
    """Sample variance of an array and its stderr, through its power sums."""
    return power_sums(values, float(np.mean(values)), 4).variance_stderr()


def _scaled_mean(scale: float, sums: PowerSums) -> tuple[float, float]:
    mean, stderr = sums.mean_stderr()
    return scale * mean, scale * stderr


def _total_value(run: Run, sums: PowerSums) -> tuple[float, float]:
    mean, stderr = sums.mean_stderr()
    return run.n * mean + mean / run.d, (run.n + 1.0 / run.d) * stderr


@dataclass(frozen=True)
class Entry:
    """One quantity. An entry with an ``ensemble`` has a Monte Carlo
    estimator: ``statistic`` of the ensemble's power sums, within ``bias`` of
    the truth up to sampling error (no bound is stated where ``bias`` is
    None). ``sign`` is the sign the paper gives the closed form when mu > 0
    (0 when it states none)."""

    closed: Callable[[Run], float]
    oracle: Optional[Callable[[Run], float]] = None
    ensemble: Optional[Callable[[Run], tuple[PowerSums, int]]] = None
    statistic: Callable[[Run, PowerSums], tuple[float, float]] = lambda run, sums: sums.mean_stderr()
    bias: Optional[Callable[[Run], float]] = None
    sign: int = 0

    def estimate(self, run: Run) -> Estimate:
        bias = self.bias(run) if self.bias else 0.0    # first: it fails fast on a missing share
        sums, truncated = self.ensemble(run)
        mean, stderr = self.statistic(run, sums)
        ci95 = (mean - 1.96 * stderr, mean + 1.96 * stderr)
        return Estimate(mean, stderr, ci95, run.trials, truncated, bias)

    def sign_holds(self, closed: float, mu: float) -> bool:
        if not self.sign:
            return True
        return closed * self.sign > 0.0 if mu > 0.0 else closed == 0.0


QUANTITIES: dict[Quantity, Entry] = {
    # The expected gross flow is linear in the tickets held, so n/k times
    # the gross flow of the shared ensemble's k tickets estimates mu/d.
    Quantity.NPV_REWARDS: Entry(
        closed=lambda run: analytics.npv_rewards(run.mu, run.d),
        oracle=lambda run: run.reward_series,
        ensemble=lambda run: (run.holder_sums[0], 0),
        statistic=lambda run, gross: _scaled_mean(run.n / run.holder_tickets, gross),
        bias=lambda run: holder_bias(run, 1.0),
    ),
    Quantity.TICKET_VALUE: Entry(
        closed=lambda run: analytics.expected_ticket_value(run.mu, run.d, run.n),
        oracle=lambda run: run.ticket_sum[0],
        ensemble=lambda run: run.ticket_sums,
        bias=lambda run: run.mu * run.win_tail,
    ),
    Quantity.TOTAL_TICKET_VALUE: Entry(
        closed=lambda run: analytics.total_ticket_value(run.mu, run.d, run.n),
        oracle=lambda run: run.reward_series,
        ensemble=lambda run: run.ticket_sums,
        statistic=_total_value,
        bias=lambda run: (run.n + 1.0 / run.d) * run.mu * run.win_tail,
    ),
    Quantity.ISSUED_MARKET_CAP: Entry(
        closed=lambda run: analytics.issued_market_cap(run.mu, run.d, run.n),
        oracle=lambda run: run.n * run.ticket_sum[0],
        ensemble=lambda run: run.ticket_sums,
        statistic=lambda run, sums: _scaled_mean(run.n, sums),
        bias=lambda run: run.n * run.mu * run.win_tail,
    ),
    Quantity.TIME_TO_WIN: Entry(
        closed=lambda run: analytics.expected_slots_to_win(run.n),
        oracle=_slots_to_win_series,
        ensemble=lambda run: engine.sample_win_slots(
            run.params, run.trials, run.seed, horizon=run.win_horizon, workers=run.workers,
            stream=1, reduce=partial(block_sums, shifts=(float(run.n),), order=2),
        ),
        bias=lambda run: run.n * run.win_tail,
    ),
    Quantity.TICKET_VALUE_DERIVATIVE: Entry(
        closed=lambda run: analytics.ticket_value_derivative_n(run.mu, run.d, run.n),
        oracle=lambda run: _complex_step(lambda z: run.mu / (z * run.d + 1.0), run.n),
        sign=-1,
    ),
    # The holder ensemble's k tickets have a net flow linear in k, so
    # share*n/k times it estimates the value of share.
    Quantity.CONTROL_VALUE: Entry(
        closed=lambda run: analytics.control_value(run.share, run.mu, run.d, run.n),
        oracle=lambda run: run.share * run.n * run.ticket_sum[0],
        ensemble=lambda run: (run.holder_sums[1], 0),
        statistic=lambda run, net: _scaled_mean(run.share * run.n / run.holder_tickets, net),
        bias=lambda run: holder_bias(run, run.share, price=fair_price(run)),
    ),
    Quantity.CONTROL_VALUE_DERIVATIVE: Entry(
        closed=lambda run: analytics.control_value_derivative_n(run.share, run.mu, run.d, run.n),
        oracle=lambda run: _complex_step(lambda z: run.share * run.mu / (run.d + 1.0 / z), run.n),
        sign=1,
    ),
    Quantity.TICKET_VALUE_VARIANCE: Entry(
        closed=lambda run: analytics.ticket_value_variance(run.mu, run.var_r, run.d, run.n),
        oracle=_variance_series,
        ensemble=lambda run: run.ticket_sums,
        statistic=lambda run, sums: sums.variance_stderr(),
        bias=lambda run: (run.var_r + 3.0 * run.mu * run.mu) * run.win_tail,
    ),
    # Gross holder flow collects the holder's share of every slot's reward;
    # under a streak bonus the closed form is only the additive reference.
    Quantity.HOLDER_VALUE: Entry(
        closed=lambda run: run.held_share * analytics.npv_rewards(run.mu, run.d),
        ensemble=lambda run: (engine.sample_holder_flows(
            run.params, run.holder_tickets, run.trials, run.seed, beta=run.beta,
            horizon=run.discount_horizon, workers=run.workers, stream=4,
            reduce=partial(block_sums, shifts=(holder_mean(run, run.holder_tickets, run.beta),) * 2,
                           order=2),
        )[0], 0),
        bias=lambda run: holder_bias(run, run.held_share, beta=run.beta),
    ),
}


def _pool_entry(closed: Callable[[Run], float], statistic) -> Entry:
    return Entry(closed=closed, ensemble=lambda run: (run.pool, run.pool[2]), statistic=statistic)


def _solo_variance(run: Run) -> float:
    return QUANTITIES[Quantity.TICKET_VALUE_VARIANCE].closed(run)


def _variance_gap(run: Run, pool: tuple) -> tuple[float, float]:
    """Pooled minus solo variance; both come from the same trajectories, so
    its stderr is that of the mean paired difference of squared deviations."""
    member, solo, _, paired = pool
    return member.variance_stderr()[0] - solo.variance_stderr()[0], paired_stderr(paired)


# A pool's rows, from one ensemble (``Run.pool``). The pooled variance has no
# closed form yet: it is compared with the solo variance's, and the gap with 0.
POOL: dict[str, Entry] = {
    "solo_variance": _pool_entry(_solo_variance, lambda run, pool: pool[1].variance_stderr()),
    "pooled_per_ticket_variance": _pool_entry(_solo_variance, lambda run, pool: pool[0].variance_stderr()),
    "variance_gap": _pool_entry(lambda run: 0.0, _variance_gap),
}


def _capture_entry(field: str) -> Entry:
    return Entry(closed=lambda run: getattr(run.capture, field),
                 oracle=lambda run: getattr(run.capture_series, field))


# Protocol capture under the run's policy: each closed form is a field of
# ``Run.capture``, and its oracle the same field of ``Run.capture_series``.
PRICING: dict[str, Entry] = {field.name: _capture_entry(field.name) for field in fields(CaptureReport)}


def entries(*, oracle: bool = False, estimator: bool = False) -> list[tuple[Quantity, Entry]]:
    """The table's entries, in table order, that have each field asked for."""
    return [
        (quantity, entry)
        for quantity, entry in QUANTITIES.items()
        if (not oracle or entry.oracle) and (not estimator or entry.ensemble)
    ]


def entry_named(name: str) -> Entry:
    """The entry called ``name``: a pool row's or a quantity's."""
    return POOL[name] if name in POOL else QUANTITIES[Quantity(name)]


def estimate(
    params: EconomyParams,
    quantity: Quantity,
    trials: int,
    seed: int,
    *,
    workers: int = 1,
    horizon: Optional[int] = None,
    holder_share: Optional[float] = None,
    multiblock=None,
) -> Estimate:
    """Monte Carlo estimate of one model quantity over independent trajectories.

    Bit-identical for a fixed (seed, trials) regardless of ``workers``.
    """
    quantity = Quantity(quantity)
    entry = QUANTITIES[quantity]
    if entry.ensemble is None:
        raise ValueError(f"{quantity.value} has no Monte Carlo estimator")
    if trials < 100:
        raise ValueError(f"need at least 100 trials for a meaningful stderr, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    beta = float(multiblock.beta) if multiblock is not None else 0.0
    run = Run(params, holder_share, trials=trials, seed=seed, workers=workers,
              horizon=horizon, beta=beta)
    return entry.estimate(run)
