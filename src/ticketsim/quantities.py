"""The quantity table: every model quantity ticketsim prices, defined once.

Each entry holds a quantity's closed form, its independent oracle (a
series summed by ``analytics.doubling_series_sum``, or a complex-step
derivative) and its Monte Carlo estimator: the ensemble it reads, the
column of that ensemble's sums, and the statistic it takes of them.
Every ensemble draws the untruncated law. ``QUANTITIES`` holds the
model quantities, ``POOL`` the rows of a payoff pool and ``PRICING`` those of
protocol capture under a pricing policy; which command reads which entries
is stated once, in ``harness``.

The ensembles, declared once in ``ENSEMBLES``; a run draws each at most
once (``Run.sums``), and streams 1, 2 and 4 stay unused:

| name | ``engine`` sampler | stream | columns of its reduced sums |
| --- | --- | --- | --- |
| ``tracked`` | ``sample_ticket_payoffs`` | 0 | payoff, count truncated, win slot |
| ``holder`` | ``sample_holder_flows`` | 3 | gross flow, net flow, each controlled by its stop |
| ``pool`` | ``sample_pool_payoffs`` | 0 | member payoff, solo payoff, count truncated, paired table |

Runs reach the samplers and the series oracle through their modules at
call time, so that anything wrapping a module attribute (a profiler, a
tracer) sees every call.

Every ensemble is reduced block by block, where the block is drawn, to its
count and power sums about its closed-form mean (``PowerSums``), and the
statistics read these sums, so an estimate holds one block, never a
trial-length array.

No ensemble draws a reward, so a variance row adds the part that the
reward's variance contributes, which is exact, to the sample variance of
payoffs given their slots (``_payoff_variance``).
"""

from __future__ import annotations

import _thread
import math
import sys
import types
from enum import Enum
from functools import cached_property, partial
from importlib.util import find_spec, module_from_spec
from operator import truediv
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional

from . import analytics
from .analytics import _exact
from .core import EconomyParams
from .errors import ConfigError, DiscountRateError, NegativePriceError
from .market import CaptureReport, FairValue, PricingPolicy, protocol_capture

if TYPE_CHECKING:
    import numpy as np


_DEFERRED_LOCK = _thread.allocate_lock()


class _Deferred(types.ModuleType):
    """A module whose code has not run: the first attribute lookup that its
    namespace cannot answer runs it, once, and the module becomes a plain one.
    The lock makes every other thread's first lookup wait for that run."""

    def __getattr__(self, name: str):
        with _DEFERRED_LOCK:
            if type(self) is _Deferred:
                self.__spec__.loader.exec_module(self)
                self.__class__ = types.ModuleType
        return getattr(self, name)


def _deferred_import(name: str) -> types.ModuleType:
    """Module ``name``, registered in ``sys.modules`` and on its package as
    an import would, but with its code deferred (``_Deferred``) unless it
    has already run."""
    if name not in sys.modules:
        spec = find_spec(name)
        module = module_from_spec(spec)
        module.__class__ = _Deferred
        sys.modules[name] = module
        package, _, child = name.rpartition(".")
        setattr(sys.modules[package], child, module)
    return sys.modules[name]


# The samplers: a command that draws runs ``engine``'s code at its first
# draw, and one that draws nothing never compiles it. It is registered here
# all the same, so that a profiler finds it in ``sys.modules`` after
# ``import ticketsim.cli``.
engine = _deferred_import(f"{__package__}.engine")

# The tail each oracle series leaves out, relative to its sum: 1e-32, far
# above the doubling sum's 2^-192 roundings, so E[V^2] - E[V]^2, one integer
# cross-product over a common denominator, keeps the variance's digits even
# where the variance is 2e-18 of E[V^2] (n = 2, d = 1e-9).
ORACLE_EPSILON = 1e-32
DEFAULT_HOLDER_SHARE = 0.125   # holder share of a run that configures none
_COMPLEX_STEP = 1e-20      # complex-step derivative step, relative to n


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


class Estimate(NamedTuple):
    """Aggregated Monte Carlo estimate."""

    mean: float
    stderr: float
    ci95: tuple[float, float]
    trials: int


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
    """One run's inputs, with the oracle series and the ensembles
    (``ENSEMBLES``) that several entries share, each computed at most once.

    ``share`` is the configured holder share, or None. ``run.share``, the
    share the closed forms take, is then ``DEFAULT_HOLDER_SHARE`` where
    ``default_share`` is set and otherwise raises ConfigError. ``beta`` is
    the streak bonus of the holder ensemble, ``pool_size`` the tickets
    of the pool ensemble and ``policy`` the pricing policy of ``capture``.
    """

    def __init__(self, params: EconomyParams, share: Optional[float] = None, *,
                 trials: int = 0, seed: int = 0, workers: int = 1, beta: float = 0.0,
                 default_share: bool = False, pool_size: Optional[int] = None,
                 policy: PricingPolicy = FairValue()):
        self.params, self.configured_share = params, share
        self._share = DEFAULT_HOLDER_SHARE if share is None and default_share else share
        self.mu, self.var_r, self.d, self.n = params.mu, params.var_r, params.d, params.n
        self.trials, self.seed, self.workers = trials, seed, workers
        self.beta, self.pool_size, self.policy = beta, pool_size, policy
        self._sums: dict[str, tuple] = {}

    @property
    def share(self) -> float:
        if self._share is None:
            raise ConfigError("holder_share", "required by this quantity")
        return self._share

    @cached_property
    def holder_tickets(self) -> int:
        """Tickets of the holder ensemble: the configured share's, else the
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
    def discount(self) -> tuple[int, int]:
        """x = 1/(1+d), exactly, as (numerator, denominator)."""
        dn, dd = self.d.as_integer_ratio()
        return dd, dd + dn

    @cached_property
    def miss_chance(self) -> tuple[int, int]:
        """q = 1 - 1/n, a ticket's chance to miss a slot, as (numerator, denominator)."""
        return self.n - 1, self.n

    @cached_property
    def reward_series(self) -> float:
        """Series for the NPV of the reward stream."""
        return stream_series(self, self.mu)

    @cached_property
    def ticket_sum(self) -> tuple[int, int]:
        """The proof's series for the ticket value, exact: the sum of q^(t-1) * (1/n) * mu * x^t."""
        x = self.discount
        return analytics.doubling_series_sum(_exact(self.mu, x, (1, self.n)), _exact(self.miss_chance, x),
                                             "geometric", ORACLE_EPSILON)

    def sums(self, name: str, column: Optional[int] = None):
        """Ensemble ``name``'s reduced sums (at ``column``, if given), drawn at most once."""
        if name not in self._sums:
            sampler, stream, arguments = ENSEMBLES[name]
            self._sums[name] = getattr(engine, sampler)(self.params, trials=self.trials, seed=self.seed,
                                                        workers=self.workers, stream=stream, **arguments(self))
        return self._sums[name] if column is None else self._sums[name][column]

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
    return truediv(*analytics.doubling_series_sum(_exact(amount, x), x, "geometric", ORACLE_EPSILON))


def _variance_series(run: Run) -> float:
    """E[V^2] - E[V]^2 as one integer numerator over a common denominator,
    rounded once. E[V^2] is the sum of q^(t-1) * (1/n) * (var_r + mu^2) * x^(2t)."""
    (vn, vd), (mn, md) = run.var_r.as_integer_ratio(), run.mu.as_integer_ratio()
    x2 = _exact(run.discount, run.discount)
    sn, sd = analytics.doubling_series_sum(_exact((vn * md * md + mn * mn * vd, vd * md * md), x2, (1, run.n)),
                                           _exact(run.miss_chance, x2), "geometric", ORACLE_EPSILON)
    tn, td = run.ticket_sum
    return (sn * td * td - tn * tn * sd) / (sd * td * td)


def _slots_to_win_series(run: Run) -> float:
    """The sum of t * q^(t-1) * (1/n)."""
    return truediv(*analytics.doubling_series_sum((1, run.n), run.miss_chance, "linear", ORACLE_EPSILON))


def _complex_step(f: Callable[[complex], complex], n: int) -> float:
    """f'(n) as Im f(n + ih)/h (Squire & Trapp, *SIAM Review* 40(1), 1998):
    no difference is taken, so nothing cancels, and h can be tiny."""
    h = _COMPLEX_STEP * n
    return f(complex(n, h)).imag / h


def holder_mean(run: Run, k: int, beta: float) -> float:
    """Expected gross flow of k retained tickets under streak bonus beta:
    (p mu / d) (1 + beta p / (1 + d - p)) with p = k/n, the shift of the
    holder ensemble's gross sums.

    The holder wins each slot with chance p, so a win at slot t ends a
    streak of at least j wins with chance p^(j - 1), j <= t, and its
    expected bonus is 1 + beta (p - p^t) / (1 - p); discounting that over
    t gives the form (also at p = 1, where the streak is t).
    """
    p = k / run.n
    return p * run.mu / run.d * (1.0 + beta * p / (1.0 + run.d - p))


def fair_price(run: Run) -> float:
    """E[V] = mu / (n d + 1), a ticket's closed-form value: the holder's
    replacement price and the shift of the ticket-payoff sums."""
    return analytics.expected_ticket_value(run.mu, run.d, run.n)


def _zero_degenerate(stderr: float, scale: float) -> float:
    # A deterministic ensemble accumulates rounding noise of a few ulps;
    # report that as the exact zero it is rather than a misleading 1e-16. The
    # floor is relative: in absolute terms it zeroes every stderr of a run in
    # a small reward unit.
    return 0.0 if stderr < 1e-13 * abs(scale) else stderr


def _unit(shift: float) -> float:
    """The power of two just above |shift| (1 where it is 0). Deviations
    divided by it keep every bit, and their 4th powers stay in range
    whatever the reward's unit."""
    return 2.0 ** math.frexp(shift)[1] if shift else 1.0


class PowerSums(NamedTuple):
    """An ensemble's power sums about a shift c in a unit u: ``sums[j]`` is
    the sum of ((v - c)/u)^j over its values, ``sums[0]`` their count.

    Sums of disjoint blocks add, so an ensemble reduces block by block in
    O(block) memory. Central moments follow from the sums by the binomial
    expansion, which cancels little when c is near the ensemble's mean
    (Chan, Golub & LeVeque, *Am. Stat.* 37(3), 1983). The statistics are
    scaled back by powers of u, which, a power of two, changes no bit.
    """

    shift: float
    sums: np.ndarray
    unit: float

    def __add__(self, other: PowerSums) -> PowerSums:
        return PowerSums(self.shift, self.sums + other.sums, self.unit)

    def mean_stderr(self) -> tuple[float, float]:
        """Sample mean and its standard error."""
        n, s1, s2 = map(float, self.sums[:3])
        a = s1 / n
        mean = self.shift + self.unit * a
        if n < 2:
            return mean, 0.0
        var = max((s2 - s1 * a) / (n - 1.0), 0.0)
        return mean, _zero_degenerate(self.unit * math.sqrt(var / n), mean)

    def variance_stderr(self) -> tuple[float, float]:
        """Sample variance and the asymptotic stderr of that variance estimate."""
        n, s1, s2, s3, s4 = map(float, self.sums[:5])
        a = s1 / n
        var = max((s2 - s1 * a) / (n - 1.0), 0.0)
        m4 = (s4 - a * (4.0 * s3 - a * (6.0 * s2 - 3.0 * a * s1))) / n    # mean of (v - mean)^4
        stderr = math.sqrt(max(m4 - var * var, 0.0) / n)
        square = self.unit * self.unit
        return square * var, _zero_degenerate(square * stderr, square * var)


def power_sums(values: np.ndarray, shift: float, order: int) -> PowerSums:
    """The count of ``values`` and their power sums about ``shift`` to
    ``order``, in the unit ``_unit(shift)``."""
    import numpy as np
    unit = _unit(shift)
    dev = np.subtract(values, shift, dtype=np.float64)
    dev /= unit
    sums = np.empty(order + 1)
    sums[0] = dev.size
    power = dev
    for j in range(1, order + 1):
        sums[j] = power.sum()
        if j < order:
            power = power * dev if j == 1 else np.multiply(power, dev, out=power)
    return PowerSums(shift, sums, unit)


def block_sums(parts: tuple, shifts: tuple[float, ...], orders: tuple[int, ...]) -> tuple:
    """A sampler block's ``parts`` with its i-th array replaced by its power
    sums about ``shifts[i]`` to ``orders[i]``, counts kept: the reducer an
    ensemble binds with ``functools.partial`` and passes to its sampler."""
    import numpy as np
    moments = iter(zip(shifts, orders))
    return tuple(power_sums(p, *next(moments)) if isinstance(p, np.ndarray) else p for p in parts)


def holder_block_sums(parts: tuple, shifts: tuple[float, float], slopes: tuple[float, float],
                      stop_mean: float) -> tuple[PowerSums, PowerSums]:
    """A holder block's (gross, net, stop) reduced to the power sums to
    order 2 of each flow v minus ``slope * (stop - stop_mean)``, about its
    shift: a control variate (Glasserman, *Monte Carlo Methods in Financial
    Engineering*, 2003, sec. 4.1), unbiased where ``stop_mean`` is exact."""
    *flows, stops = parts
    excess = stops - stop_mean
    return tuple(power_sums(flow - slope * excess, shift, 2)
                 for flow, shift, slope in zip(flows, shifts, slopes))


def pool_sums(parts: tuple, shift: float) -> tuple:
    """A pool block's (per-ticket mean m, solo payoff s, truncated) reduced
    to the power sums of m and s to order 4 about ``shift``, the truncated
    count, and the paired table T[i, j] = sum of e^i f^j (i, j <= 2) of
    e = (m - s)/u and f = ((m - shift) + (s - shift))/u, u = ``_unit(shift)``.
    The difference of the two squared deviations from the sample means,
    (m - m_bar)^2 - (s - s_bar)^2, is u^2 times the centred product
    (e - e_bar)(f - f_bar), and is exactly zero where m = s (a pool of one)."""
    import numpy as np
    member, solo, truncated = parts
    unit = _unit(shift)
    e = (member - solo) / unit
    f = (np.subtract(member, shift) + np.subtract(solo, shift)) / unit
    ones = np.ones_like(e)
    e_powers, f_powers = np.stack([ones, e, e * e]), np.stack([ones, f, f * f])
    paired = (e_powers[:, None, :] * f_powers[None, :, :]).sum(axis=2)
    return power_sums(member, shift, 4), power_sums(solo, shift, 4), truncated, paired


def _tracked_arguments(run: Run) -> dict:
    return {"reduce": partial(block_sums, shifts=(fair_price(run), float(run.n)), orders=(4, 2))}


def _holder_arguments(run: Run) -> dict:
    # Each flow v of closed form s enters as v - s d (N - 1/d), N its stop.
    k = run.holder_tickets
    shifts = (holder_mean(run, k, run.beta), analytics.control_value(k / run.n, run.mu, run.d, run.n))
    reduce = partial(holder_block_sums, shifts=shifts, slopes=tuple(s * run.d for s in shifts),
                     stop_mean=1.0 / run.d)
    return {"holder_tickets": k, "beta": run.beta, "replacement_price": fair_price(run), "reduce": reduce}


def _pool_arguments(run: Run) -> dict:
    if run.pool_size is None:
        raise ConfigError("pool", "pool command needs a pool section")
    return {"pool_tickets": run.pool_size, "reduce": partial(pool_sums, shift=fair_price(run))}


# name: (``engine`` sampler, stream, its keywords on a run, the reducer bound to the run's shifts)
ENSEMBLES: dict[str, tuple[str, int, Callable[[Run], dict]]] = {
    "tracked": ("sample_ticket_payoffs", 0, _tracked_arguments),
    "holder": ("sample_holder_flows", 3, _holder_arguments),
    "pool": ("sample_pool_payoffs", 0, _pool_arguments),
}


def paired_stderr(paired: np.ndarray, unit: float) -> float:
    """Stderr of the mean of u^2 (e - e_bar)(f - f_bar) from ``pool_sums``'
    paired table in the unit u."""
    import numpy as np
    n = float(paired[0, 0])
    e_bar, f_bar = float(paired[1, 0]) / n, float(paired[0, 1]) / n
    total = float(paired[1, 1]) - e_bar * float(paired[0, 1])
    # (e - e_bar)^2 (f - f_bar)^2 expanded over the table's powers of e and f.
    weights = np.outer([e_bar * e_bar, -2.0 * e_bar, 1.0], [f_bar * f_bar, -2.0 * f_bar, 1.0])
    squares = float((weights * paired).sum())
    var = max((squares - total * total / n) / (n - 1.0), 0.0)
    square = unit * unit
    return _zero_degenerate(square * math.sqrt(var / n), square * total / n)


def _payoff_variance(run: Run, sums: PowerSums, weight: float = 1.0) -> tuple[float, float]:
    """The sample variance of payoffs given their win slots T, from their
    ``sums``, and its stderr, with ``weight`` (1/k for the mean of k pool
    members) times the part the reward's variance adds to each payoff's:
    var_r E[x^(2T)] = var_r / (n d (d + 2) + 1), 0 at a constant reward."""
    value, stderr = sums.variance_stderr()
    return value + weight * run.var_r / (run.n * run.d * (run.d + 2.0) + 1.0), stderr


def _scaled_mean(scale: float, sums: PowerSums) -> tuple[float, float]:
    mean, stderr = sums.mean_stderr()
    return scale * mean, scale * stderr


def _total_value(run: Run, sums: PowerSums) -> tuple[float, float]:
    mean, stderr = sums.mean_stderr()
    return run.n * mean + mean / run.d, (run.n + 1.0 / run.d) * stderr


class Entry(NamedTuple):
    """One quantity. An entry that names an ``ensemble`` has a Monte Carlo
    estimator: ``statistic`` of the ensemble's reduced sums at ``column``,
    or of all of them where ``column`` is None. ``sign`` is the sign the
    paper gives the closed form when mu > 0 (0 when it states none)."""

    closed: Callable[[Run], float]
    oracle: Optional[Callable[[Run], float]] = None
    ensemble: Optional[str] = None
    column: Optional[int] = None
    statistic: Callable[[Run, PowerSums], tuple[float, float]] = lambda run, sums: sums.mean_stderr()
    sign: int = 0

    def estimate(self, run: Run) -> Estimate:
        self.closed(run)    # first: a quantity of a share fails fast where the run has none
        mean, stderr = self.statistic(run, run.sums(self.ensemble, self.column))
        ci95 = (mean - 1.96 * stderr, mean + 1.96 * stderr)
        return Estimate(mean, stderr, ci95, run.trials)

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
        ensemble="holder", column=0,
        statistic=lambda run, gross: _scaled_mean(run.n / run.holder_tickets, gross),
    ),
    Quantity.TICKET_VALUE: Entry(
        closed=lambda run: analytics.expected_ticket_value(run.mu, run.d, run.n),
        oracle=lambda run: truediv(*run.ticket_sum),
        ensemble="tracked", column=0,
    ),
    Quantity.TOTAL_TICKET_VALUE: Entry(
        closed=lambda run: analytics.total_ticket_value(run.mu, run.d, run.n),
        oracle=lambda run: run.reward_series,
        ensemble="tracked", column=0,
        statistic=_total_value,
    ),
    Quantity.ISSUED_MARKET_CAP: Entry(
        closed=lambda run: analytics.issued_market_cap(run.mu, run.d, run.n),
        oracle=lambda run: run.n * truediv(*run.ticket_sum),
        ensemble="tracked", column=0,
        statistic=lambda run, sums: _scaled_mean(run.n, sums),
    ),
    Quantity.TIME_TO_WIN: Entry(
        closed=lambda run: analytics.expected_slots_to_win(run.n),
        oracle=_slots_to_win_series,
        ensemble="tracked", column=2,
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
        oracle=lambda run: run.share * run.n * truediv(*run.ticket_sum),
        ensemble="holder", column=1,
        statistic=lambda run, net: _scaled_mean(run.share * run.n / run.holder_tickets, net),
    ),
    Quantity.CONTROL_VALUE_DERIVATIVE: Entry(
        closed=lambda run: analytics.control_value_derivative_n(run.share, run.mu, run.d, run.n),
        oracle=lambda run: _complex_step(lambda z: run.share * run.mu / (run.d + 1.0 / z), run.n),
        sign=1,
    ),
    Quantity.TICKET_VALUE_VARIANCE: Entry(
        closed=lambda run: analytics.ticket_value_variance(run.mu, run.var_r, run.d, run.n),
        oracle=_variance_series,
        ensemble="tracked", column=0,
        statistic=_payoff_variance,
    ),
    # Gross holder flow collects the holder's share of every slot's reward;
    # under a streak bonus the closed form is only the additive reference.
    Quantity.HOLDER_VALUE: Entry(
        closed=lambda run: run.held_share * analytics.npv_rewards(run.mu, run.d),
        ensemble="holder", column=0,
    ),
}


def _solo_variance(run: Run) -> float:
    return QUANTITIES[Quantity.TICKET_VALUE_VARIANCE].closed(run)


def _variance_gap(run: Run, pool: tuple) -> tuple[float, float]:
    """Pooled minus solo variance; both come from the same trajectories, so
    its stderr is that of the mean paired difference of squared deviations."""
    member, solo, _, paired = pool
    pooled = _payoff_variance(run, member, 1 / run.pool_size)[0]
    return pooled - _payoff_variance(run, solo)[0], paired_stderr(paired, member.unit)


# A pool's rows, from one ensemble (``pool``). The pooled variance has no
# closed form yet: it is compared with the solo variance's, and the gap with 0.
POOL: dict[str, Entry] = {
    "solo_variance": Entry(_solo_variance, ensemble="pool", column=1, statistic=_payoff_variance),
    "pooled_per_ticket_variance": Entry(
        _solo_variance, ensemble="pool", column=0,
        statistic=lambda run, member: _payoff_variance(run, member, 1 / run.pool_size)),
    "variance_gap": Entry(lambda run: 0.0, ensemble="pool", statistic=_variance_gap),
}


def _capture_entry(field: str) -> Entry:
    return Entry(closed=lambda run: getattr(run.capture, field),
                 oracle=lambda run: getattr(run.capture_series, field))


# Protocol capture under the run's policy: each closed form is a field of
# ``Run.capture``, and its oracle the same field of ``Run.capture_series``.
PRICING: dict[str, Entry] = {field: _capture_entry(field) for field in CaptureReport._fields}


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
    holder_share: Optional[float] = None,
    multiblock=None,
) -> Estimate:
    """Monte Carlo estimate of one model quantity over independent trajectories.

    Bit-identical for a fixed (seed, trials) regardless of ``workers``.
    ``multiblock`` sets the streak bonus of the run's one holder ensemble, so
    only ``holder_value``, which reads that bonus, takes it.
    """
    quantity = Quantity(quantity)
    entry = QUANTITIES[quantity]
    if entry.ensemble is None:
        raise ValueError(f"{quantity.value} has no Monte Carlo estimator")
    if multiblock is not None and quantity is not Quantity.HOLDER_VALUE:
        raise ValueError(f"a streak bonus applies to holder_value only, not {quantity.value}")
    if trials < 100:
        raise ValueError(f"need at least 100 trials for a meaningful stderr, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if params.d <= 0.0:
        raise DiscountRateError(f"an infinite-horizon estimate needs d > 0, got d={params.d}")
    beta = float(multiblock.beta) if multiblock is not None else 0.0
    run = Run(params, holder_share, trials=trials, seed=seed, workers=workers, beta=beta)
    return entry.estimate(run)
