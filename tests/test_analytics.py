"""Closed forms against their independent series / complex-step oracles."""

import math
import time
import tracemalloc
from decimal import Context, Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ticketsim import analytics
from ticketsim.analytics import (
    control_value,
    control_value_derivative_n,
    expected_slots_to_win,
    expected_ticket_value,
    issued_market_cap,
    npv_rewards,
    slots_to_win_variance,
    ticket_value_derivative_n,
    ticket_value_variance,
    total_ticket_value,
    truncated_series_sum,
)
from ticketsim.config import parse_config
from ticketsim.core import ConstantReward, EconomyParams, calibrate_lognormal
from ticketsim.errors import ConfigError, DiscountRateError, DivergenceError
from ticketsim.harness import run_analytic, run_verify
from ticketsim.quantities import ORACLE_EPSILON, QUANTITIES, Quantity, Run, entries
from reference import decimal_doubling_sum, ticket_value_second_moment

EPS = 1e-12
REL = 1e-9


def reward_stream_series(mu, d):
    return truncated_series_sum(lambda t: mu / (1.0 + d) ** t, d, EPS)


def ticket_value_series(mu, d, n):
    q = 1.0 - 1.0 / n
    return truncated_series_sum(lambda t: q ** (t - 1) / n * mu / (1.0 + d) ** t, d, EPS)


def second_moment_series(mu, var_r, d, n):
    q = 1.0 - 1.0 / n
    return truncated_series_sum(
        lambda t: q ** (t - 1) / n * (var_r + mu * mu) / (1.0 + d) ** (2 * t),
        epsilon=EPS,
        ratio=q / (1.0 + d) ** 2,
    )


def rel_gap(a, b):
    return abs(a - b) / abs(b) if b != 0 else abs(a - b)


# ---------------------------------------------------------------------------
# Reward-stream NPV
# ---------------------------------------------------------------------------


def test_npv_rewards_examples():
    assert npv_rewards(2.0, 0.05) == 40.0
    assert npv_rewards(0.0, 0.1) == 0.0
    assert rel_gap(npv_rewards(2.0, 0.05), reward_stream_series(2.0, 0.05)) < REL


def test_npv_rewards_divergent_rate():
    with pytest.raises(DiscountRateError):
        npv_rewards(1.0, 0.0)
    with pytest.raises(DiscountRateError):
        npv_rewards(1.0, -0.05)


# ---------------------------------------------------------------------------
# Single-ticket value
# ---------------------------------------------------------------------------


def test_expected_ticket_value_examples():
    assert expected_ticket_value(1.0, 0.01, 100) == 0.5
    # Sole ticket wins the first draw with certainty: value mu/(1+d).
    assert math.isclose(expected_ticket_value(1.0, 0.05, 1), 1.0 / 1.05, rel_tol=1e-15)
    assert expected_ticket_value(0.0, 0.02, 50) == 0.0
    with pytest.raises(DiscountRateError):
        expected_ticket_value(1.0, 0.0, 10)


def test_expected_ticket_value_matches_proof_series():
    for mu, d, n in [(1.0, 0.01, 1), (1.0, 0.01, 32), (1.0, 0.01, 100), (2.5, 0.07, 13)]:
        assert rel_gap(expected_ticket_value(mu, d, n), ticket_value_series(mu, d, n)) < REL


def test_ticket_value_proof_series_geometric_identity():
    # sum_{t>=1} ((n-1)/(n(1+d)))^{t-1} = n(1+d)/(nd+1)
    n, d = 100, 0.01
    r = (n - 1) / (n * (1.0 + d))
    total = truncated_series_sum(lambda t: r ** (t - 1), d, EPS)
    assert abs(total - 50.5) < 1e-9 * 50.5


# ---------------------------------------------------------------------------
# Market cap and the all-tickets identity
# ---------------------------------------------------------------------------


def test_issued_market_cap_examples():
    assert rel_gap(issued_market_cap(1.0, 0.01, 10_000), 10_000.0 / 101.0) < 1e-12
    assert issued_market_cap(0.0, 0.5, 3) == 0.0
    assert rel_gap(issued_market_cap(1.0, 0.01, 64), 64 * ticket_value_series(1.0, 0.01, 64)) < REL


def test_issued_market_cap_limit_ratio():
    # market cap / stream NPV = nd/(nd+1) exactly, approaching 1 from below
    mu, d = 1.0, 0.01
    previous = 0.0
    for n in [10**2, 10**3, 10**4, 10**5, 10**6, 10**7]:
        ratio = issued_market_cap(mu, d, n) / npv_rewards(mu, d)
        target = n * d / (n * d + 1.0)
        assert rel_gap(ratio, target) < 1e-12
        assert previous < ratio < 1.0
        previous = ratio


def test_total_ticket_value_equals_stream_npv():
    assert total_ticket_value(1.0, 0.02, 7) == pytest.approx(50.0, rel=1e-12)
    ev = expected_ticket_value(1.0, 0.02, 7)
    assert math.isclose(total_ticket_value(1.0, 0.02, 7), 7 * ev + ev / 0.02, rel_tol=1e-15)
    assert total_ticket_value(1.0, 0.05, 1) == pytest.approx(20.0, rel=1e-12)
    assert total_ticket_value(1.0, 0.05, 10**6) == pytest.approx(20.0, rel=1e-12)
    assert total_ticket_value(0.0, 0.01, 10) == 0.0

    rng = np.random.default_rng(42)
    for _ in range(300):
        mu = float(rng.uniform(0.01, 10.0))
        d = float(10.0 ** rng.uniform(-4, -0.3))
        n = int(rng.integers(1, 1_000_000))
        assert rel_gap(total_ticket_value(mu, d, n), npv_rewards(mu, d)) < 1e-9


# ---------------------------------------------------------------------------
# Waiting time
# ---------------------------------------------------------------------------


def test_expected_slots_to_win():
    assert expected_slots_to_win(10) == 10.0
    assert expected_slots_to_win(1) == 1.0
    assert slots_to_win_variance(10) == 90.0
    assert slots_to_win_variance(1) == 0.0


def test_slots_to_win_series_oracle():
    for n in (1, 2, 10, 64):
        q = 1.0 - 1.0 / n
        series = truncated_series_sum(lambda t: t * q ** (t - 1) / n, epsilon=EPS, ratio=q)
        assert rel_gap(series, expected_slots_to_win(n)) < REL


# ---------------------------------------------------------------------------
# Derivatives in n
# ---------------------------------------------------------------------------


def central_diff(f, x, h):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def test_ticket_value_derivative_examples():
    assert ticket_value_derivative_n(1.0, 0.01, 100) == -0.0025
    assert ticket_value_derivative_n(0.0, 0.1, 5) == 0.0
    fd = central_diff(lambda x: 1.0 / (x * 0.01 + 1.0), 100.0, 1e-4)
    assert abs(ticket_value_derivative_n(1.0, 0.01, 100) - fd) < 1e-8


def test_control_value_derivative_examples():
    assert control_value_derivative_n(0.5, 1.0, 0.01, 100) == 0.125
    assert control_value_derivative_n(0.0, 1.0, 0.01, 100) == 0.0
    fd = central_diff(lambda x: 0.5 * x / (x * 0.01 + 1.0), 100.0, 1e-4)
    assert abs(control_value_derivative_n(0.5, 1.0, 0.01, 100) - fd) < 1e-8


def test_derivative_signs_randomized():
    rng = np.random.default_rng(99)
    for _ in range(10_000):
        mu = float(rng.uniform(0.01, 10.0))
        d = float(10.0 ** rng.uniform(-4, -0.3))
        n = float(10.0 ** rng.uniform(0.0, 6.0))
        p = float(rng.uniform(1e-6, 1.0))
        assert ticket_value_derivative_n(mu, d, n) < 0.0
        assert control_value_derivative_n(p, mu, d, n) > 0.0


def test_control_value_examples():
    assert control_value(0.25, 1.0, 0.005, 200) == 25.0
    assert control_value(0.0, 1.0, 0.01, 10) == 0.0
    assert control_value(1.0, 3.0, 0.02, 17) == issued_market_cap(3.0, 0.02, 17)
    with pytest.raises(ValueError):
        control_value(1.5, 1.0, 0.01, 10)
    with pytest.raises(ValueError):
        control_value(-0.1, 1.0, 0.01, 10)


def test_monotonicity_over_power_of_two_grid():
    mu, d, p = 1.0, 0.01, 0.3
    ns = [2**k for k in range(21)]
    values = [expected_ticket_value(mu, d, n) for n in ns]
    controls = [control_value(p, mu, d, n) for n in ns]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert all(b > a for a, b in zip(controls, controls[1:]))


# ---------------------------------------------------------------------------
# Second moment and variance
# ---------------------------------------------------------------------------


def test_second_moment_examples():
    assert math.isclose(ticket_value_second_moment(1.0, 1.0, 0.1, 10), 2.0 / 3.1, rel_tol=1e-15)
    assert ticket_value_second_moment(0.0, 0.0, 0.05, 4) == 0.0
    # Deterministic win at t=1: second moment is (mu/(1+d))^2.
    assert math.isclose(ticket_value_second_moment(1.0, 0.0, 0.05, 1), 1.0 / 1.05**2, rel_tol=1e-15)
    assert rel_gap(ticket_value_second_moment(1.0, 1.0, 0.1, 10), second_moment_series(1.0, 1.0, 0.1, 10)) < REL


def test_ticket_value_variance_examples():
    assert ticket_value_variance(1.0, 0.0, 0.01, 1) == 0.0
    expected = 2.0 / 3.1 - 0.25
    assert math.isclose(ticket_value_variance(1.0, 1.0, 0.1, 10), expected, rel_tol=1e-12)
    timing_only = 1.0 / 3.1 - 0.25
    value = ticket_value_variance(1.0, 0.0, 0.1, 10)
    assert math.isclose(value, timing_only, rel_tol=1e-12)
    assert value > 0.0


def test_ticket_value_variance_series_oracle():
    for mu, var_r, d, n in [(1.0, 1.0, 0.1, 10), (2.0, 0.5, 0.03, 7), (1.0, 0.0, 0.1, 10)]:
        oracle = second_moment_series(mu, var_r, d, n) - ticket_value_series(mu, d, n) ** 2
        assert rel_gap(ticket_value_variance(mu, var_r, d, n), oracle) < REL


def test_ticket_value_variance_nonnegative_randomized():
    rng = np.random.default_rng(5)
    for _ in range(5_000):
        mu = float(rng.uniform(0.01, 5.0))
        var_r = float(rng.uniform(0.0, 5.0))
        d = float(10.0 ** rng.uniform(-4, -0.3))
        n = int(rng.integers(1, 100_000))
        var = ticket_value_variance(mu, var_r, d, n)
        assert var >= 0.0
        if var_r > 0.0 or n > 1:
            assert var > 0.0
    # Zero exactly when var_r = 0 and n = 1.
    assert ticket_value_variance(3.0, 0.0, 0.2, 1) == 0.0


# ---------------------------------------------------------------------------
# Series oracle behavior
# ---------------------------------------------------------------------------


def test_truncated_series_geometric():
    total = truncated_series_sum(lambda t: 1.0 / 1.05**t, 0.05, EPS)
    assert abs(total - 20.0) < 1e-9 * 20.0


def test_truncated_series_zero_terms():
    assert truncated_series_sum(lambda t: 0.0, 0.05, EPS) == 0.0


def test_truncated_series_divergence():
    with pytest.raises(DivergenceError):
        truncated_series_sum(lambda t: 1.0, None, EPS)
    with pytest.raises(DivergenceError):
        truncated_series_sum(lambda t: 1.0, 0.0, EPS)
    with pytest.raises(DivergenceError):
        truncated_series_sum(lambda t: 1.0, epsilon=EPS, ratio=1.0)
    with pytest.raises(DivergenceError):
        # Claimed envelope contracts but terms do not.
        truncated_series_sum(lambda t: 1.0, 0.05, EPS)
    with pytest.raises(DivergenceError):
        truncated_series_sum(lambda t: 1.05**t, 0.05, EPS)


def test_truncated_series_rising_then_decaying_terms():
    # t * x^{t-1} rises before it decays; the stop rule must wait out the rise.
    n = 50
    q = 1.0 - 1.0 / n
    total = truncated_series_sum(lambda t: t * q ** (t - 1) / n, epsilon=EPS, ratio=q)
    assert rel_gap(total, float(n)) < REL


def test_truncated_series_leading_zero_term():
    # First term vanishes; the sum must not short-circuit to zero.
    d = 0.05
    x = 1.0 / (1.0 + d)
    total = truncated_series_sum(lambda t: (t - 1) * x**t, d, EPS)
    # sum (t-1) x^t = x^2/(1-x)^2 = 1/d^2
    assert rel_gap(total, 1.0 / d**2) < REL


def test_non_finite_term_raises_naming_its_t():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DivergenceError, match="term 5 "):
            truncated_series_sum(lambda t, bad=bad: bad if t == 5 else 0.5**t, epsilon=EPS, ratio=0.5)
    # A non-finite term past the stop is never evaluated, so never summed.
    total, stop = analytics._series_sum(lambda t: math.nan if t == 28 else 0.5**t, 0.5, 1e-6)
    assert 16 <= stop < 28 and total == math.fsum(0.5**t for t in range(1, stop + 1))


def loop_series_sum(term, ratio, epsilon=EPS):
    """The term-by-term stop rule, kept as the reference for the term loop
    and the doubling sum: the sum and the last t it includes."""
    terms, total, prev, zero_run, envelope = [], 0.0, 0.0, 0, None
    for t in range(1, 10_000_000):
        x = float(term(t))
        terms.append(x)
        total += x
        if x == 0.0:
            zero_run += 1
            if zero_run >= 8:
                return math.fsum(terms), t
        else:
            zero_run = 0
            if envelope is None:
                envelope = abs(x) * 1e9
            elif abs(x) > envelope:
                raise DivergenceError(f"term {t}")
            if prev != 0.0 and abs(x) / abs(prev) < 1.0:
                r = max(ratio, abs(x) / abs(prev))
                if abs(x) * r / (1.0 - r) <= epsilon * abs(total):
                    return math.fsum(terms), t
        prev = x
        if envelope is not None:
            envelope *= ratio
    raise DivergenceError("term budget")


def series_term(a, r, kind):
    """The scalar term of the doubling sum's (a, r, kind), in floats."""
    a, r = float(a), float(r)
    if kind == "linear":
        return lambda t: a * t * r ** (t - 1)
    return lambda t: a * r ** (t - 1)


def exact(v):
    """A number or a doubling sum's (numerator, denominator), as a Fraction."""
    return Fraction(*analytics._exact(v))


def check_doubling_sum(a, r, kind, epsilon, cap=50_000):
    """The doubling sum of (a, r, kind), held exactly, against the term loops
    over their floats; False where the series is longer than ``cap`` terms,
    and not checked."""
    unit, stop = analytics._doubling_sum(Fraction(r), kind == "linear", epsilon)
    total = Fraction(a) * Fraction(unit, 1 << analytics._BITS)
    if stop > cap:
        return False
    term = series_term(a, r, kind)
    _, loop_stop = loop_series_sum(term, float(r), epsilon)
    # At r = 0 (n = 1) every term after the first is zero, and the loop stops
    # on the eighth of them.
    assert abs(stop - loop_stop) <= 1 or (r == 0 and loop_stop == 9), (stop, loop_stop)
    assert analytics._series_sum(term, float(r), epsilon)[1] == loop_stop
    # The terms up to the doubling sum's own stop, each rounded once.
    assert rel_gap(float(total), math.fsum(map(term, range(1, stop + 1)))) <= 1e-13
    return True


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    a=st.floats(1e-3, 1e3) | st.floats(-1e3, -1e-3),
    r=st.floats(1e-3, 0.9995),
    kind=st.sampled_from(analytics.SERIES_KINDS),
    epsilon=st.sampled_from([1e-6, EPS, 1e-15]),
)
def test_doubling_sum_matches_the_term_loop(a, r, kind, epsilon):
    check_doubling_sum(a, r, kind, epsilon)


def test_doubling_sum_edges():
    assert exact(analytics.doubling_series_sum(Fraction(2), Fraction(0))) == 2
    assert exact(analytics.doubling_series_sum(Fraction(0), Fraction(1, 2))) == 0
    # A ratio of 1/(1 + 1e-20), 1 - 1e-20, is below 1 only when held exactly.
    x = 1 / (1 + Fraction(1e-20))
    assert float(x) == 1.0
    assert rel_gap(float(exact(analytics.doubling_series_sum(x, x, epsilon=1e-32))), 1e20) < 1e-15
    for r in [1.0, 1.5, math.nan, -0.5]:
        with pytest.raises(DivergenceError):
            analytics.doubling_series_sum(Fraction(1), r)
    with pytest.raises(ValueError, match="kind"):
        analytics.doubling_series_sum(Fraction(1), Fraction(1, 2), "quadratic")


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    a=st.floats(1e-300, 1e250) | st.floats(-1e3, -1e-3),
    r=(st.floats(0.0, 0.9995)
       # The oracles' ratios q*x and q*x^2, held exactly, from n and d.
       | st.builds(lambda n, d, power: Fraction(n - 1, n) / (1 + Fraction(d)) ** power,
                   st.integers(1, 2**20), st.floats(1e-10, 1e2), st.sampled_from([1, 2]))
       | st.just(1 / (1 + Fraction(1e-20)))),
    kind=st.sampled_from(analytics.SERIES_KINDS),
    epsilon=st.sampled_from([1e-6, EPS, 1e-15, ORACLE_EPSILON]),
)
def test_doubling_sum_rounds_as_the_decimal_reference(a, r, kind, epsilon):
    # The fixed-point sum against the exact-rational, 40-digit-decimal sum it
    # replaced: the same float, and a stop within one term. Near r = 1 the
    # reference's own stop drifts: its 40-digit ratio is off by up to 1e-40,
    # which moves r^t by up to t*1e-40 relative, and so the stop by up to
    # t*1e-40/(1 - r) terms (24 at r = 1/(1 + 1e-20)), while the 192-bit
    # ratio is off by 2^-192.
    linear = kind == "linear"
    total = exact(analytics.doubling_series_sum(a, r, kind, epsilon))
    stop = analytics._doubling_sum(r, linear, epsilon)[1]
    unit, reference_stop = decimal_doubling_sum(Fraction(r), linear, epsilon)
    drift = reference_stop / (1 - Fraction(r)) / 10**40
    assert abs(stop - reference_stop) <= 1 + drift, (stop, reference_stop)
    assert float(total) == float(Fraction(a) * Fraction(unit))


def test_doubling_sum_stops_where_the_exact_rule_does():
    # At r = 1/(1 + 1e-20), held exactly, the geometric rule stops at the
    # least t > 1 with r^t <= epsilon*(1 - r^t): t = ceil(log(epsilon/(1 +
    # epsilon))/log(r)), here taken in 80-digit decimals. The fixed-point
    # sum stops there; the 40-digit reference stops 24 terms late.
    r = 1 / (1 + Fraction(1e-20))
    with localcontext(Context(prec=80)):
        eps = Decimal(ORACLE_EPSILON)
        exact_stop = math.ceil((eps / (1 + eps)).ln() / (Decimal(r.numerator) / r.denominator).ln())
    assert analytics._doubling_sum(r, False, ORACLE_EPSILON)[1] == exact_stop
    assert decimal_doubling_sum(r, False, ORACLE_EPSILON)[1] == exact_stop + 24


def table_series(monkeypatch, n, d):
    """The series the table's oracles sum at (n, d), as (a, r, kind, epsilon),
    in table order, each once: the reward stream, the ticket value, the slots
    to win and E[V^2]."""
    seen = []
    doubling_series_sum = analytics.doubling_series_sum

    def record(a, r, kind="geometric", epsilon=EPS):
        seen.append((exact(a), exact(r), kind, epsilon))
        return doubling_series_sum(a, r, kind, epsilon)

    monkeypatch.setattr(analytics, "doubling_series_sum", record)
    run = Run(EconomyParams(n=n, d=d, reward=calibrate_lognormal(1.0, 1.0)), 0.25)
    for _, entry in entries(oracle=True):
        entry.oracle(run)
    return seen


@pytest.mark.parametrize("n", [1, 2, 32, 1024, 65536])
@pytest.mark.parametrize("d", [1e-1, 1e-2, 1e-4])
def test_table_series_array_and_scalar_terms_agree(monkeypatch, n, d):
    # Each oracle's (a, r, kind) agrees with the scalar term that defines
    # it, and the doubling sum over it with the term loop where the series is
    # short. The oracles take (a, r) from the term, never from a closed form.
    reward = calibrate_lognormal(1.0, 1.0)
    mu, second = reward.mean(), reward.variance() + reward.mean() ** 2
    q = 1.0 - 1.0 / n
    terms = [
        ("geometric", lambda t: mu / (1.0 + d) ** t),
        ("geometric", lambda t: q ** (t - 1) / n * mu / (1.0 + d) ** t),
        ("linear", lambda t: t * q ** (t - 1) / n),
        ("geometric", lambda t: q ** (t - 1) / n * second / (1.0 + d) ** (2 * t)),
    ]
    series = table_series(monkeypatch, n, d)
    assert [kind for _, _, kind, _ in series] == [kind for kind, _ in terms]
    assert all(epsilon == ORACLE_EPSILON for *_, epsilon in series)
    for (a, r, kind, _), (_, term) in zip(series, terms):
        for t in (1, 2, 3):
            assert rel_gap(series_term(a, r, kind)(t), term(t)) <= 1e-14
        check_doubling_sum(a, r, kind, EPS)


def test_time_to_win_series_past_the_cross_check_cap():
    # n = 16384 sums ~510k terms, ten times the cap of the checks above.
    n = 16384
    q = 1.0 - 1.0 / n
    term = lambda t: t * q ** (t - 1) * (1.0 / n)
    total, stop = analytics._series_sum(term, q, EPS)
    assert stop > 30 * n
    assert (total, stop) == loop_series_sum(term, q, EPS)
    # Here one term is below 1e-16 of the sum, so a stop one term apart
    # moves the sum by less than the tolerance.
    unit, doubling_stop = analytics._doubling_sum(Fraction(n - 1, n), True, EPS)
    assert abs(doubling_stop - stop) <= 1
    assert rel_gap(unit / (n << analytics._BITS), total) <= 1e-13


def test_scalar_terms_are_called_with_ints_in_order():
    # Callers may record the t they see (perfbench's oracle grid reads the
    # last one as the term count), so terms get 1, 2, 3, ... as ints, and
    # none past the stop.
    for ratio in (0.5, 0.999):
        calls = []

        def term(t):
            if type(t) is not int:
                raise TypeError(f"term called with {type(t).__name__}")
            calls.append(t)
            return ratio**t

        _, stop = analytics._series_sum(term, ratio, EPS)
        assert calls == list(range(1, stop + 1))


def test_term_budget_grows_with_the_envelope_ratio(monkeypatch):
    # The slots-to-win series stops near 31n terms. A fixed budget below
    # that fails at large n; the budget sized from the ratio does not.
    monkeypatch.setattr(analytics, "_MAX_TERMS", 1000)
    n = 1000
    q = 1.0 - 1.0 / n
    total, stop = analytics._series_sum(lambda t: t * q ** (t - 1) / n, q, EPS)
    assert stop > 30 * n
    assert rel_gap(total, float(n)) < REL
    # A ratio far from 1 keeps the fixed budget. Pairs of terms that cancel
    # stay inside the envelope but never let the sum stop, so they exhaust it.
    with pytest.raises(DivergenceError, match="within 1000 terms"):
        truncated_series_sum(lambda t: (-1.0) ** t * 0.5 ** ((t + 1) // 2),
                             epsilon=EPS, ratio=math.sqrt(0.5))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    decay=st.floats(0.3, 0.995),
    shape=st.sampled_from(["decaying", "oscillating", "zero-laden", "diverging"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_term_loop_matches_the_reference_loop(decay, shape, seed):
    # Terms come from one precomputed array, so both loops see the same doubles.
    rng = np.random.default_rng(seed)
    t = np.arange(1, 40_001)
    terms = rng.uniform(0.5, 1.5) * decay**t * rng.uniform(0.9, 1.1, t.size)
    ratio = decay
    if shape == "oscillating":
        terms *= np.cos(rng.uniform(0.1, 3.0) * t)
    elif shape == "zero-laden":
        terms[rng.random(t.size) < 0.3] = 0.0
        terms[rng.integers(0, 200) : rng.integers(200, 220)] = 0.0
    elif shape == "diverging":
        ratio = decay**3    # the terms outgrow the claimed envelope
    term = lambda s: terms[s - 1]
    try:
        expected = loop_series_sum(term, ratio)
    except DivergenceError as exc:
        with pytest.raises(DivergenceError, match=f"term {str(exc).split()[-1]} "):
            analytics._series_sum(term, ratio, EPS)
        return
    assert analytics._series_sum(term, ratio, EPS) == expected


def test_series_oracle_memory_independent_of_length():
    # The doubling sums keep O(log terms) fixed-point ints, so the oracles'
    # peak memory does not grow with the number of terms (about 74n for the
    # slots series).
    def peak_mb(n):
        run = Run(EconomyParams(n=n, d=1e-4, reward=calibrate_lognormal(1.0, 1.0)), 0.25)
        tracemalloc.start()
        try:
            for _, entry in entries(oracle=True):
                entry.oracle(run)
            return tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()

    small, large = peak_mb(1024), peak_mb(65536)
    assert large < 4.0
    assert large <= 1.5 * small


# ---------------------------------------------------------------------------
# Quantity table
# ---------------------------------------------------------------------------


def test_derivative_oracles_match_their_closed_forms_over_the_grid():
    # The complex step takes no difference, so it does not cancel: a central
    # difference with step 3e-5*n was beyond 1e-9 on 51 of these 160 cells,
    # by up to 7.5e-2 (control, n = 65536, d = 1e6).
    for n in (2, 32, 1024, 16384, 65536):
        for d in (10.0**k for k in range(-9, 7)):
            run = Run(EconomyParams(n=n, d=d, reward=ConstantReward(1.0)), 0.25)
            for quantity in (Quantity.TICKET_VALUE_DERIVATIVE, Quantity.CONTROL_VALUE_DERIVATIVE):
                entry = QUANTITIES[quantity]
                assert rel_gap(entry.oracle(run), entry.closed(run)) <= 1e-12, (quantity, n, d)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(2, 64) | st.integers(2, 2**20), log_d=st.floats(-9.0, 3.0),
       lognormal=st.booleans())
def test_analytic_rows_are_within_1e_12_of_their_closed_forms(n, log_d, lognormal):
    reward = ({"kind": "lognormal", "mean": 1.0, "sigma_log": 1.0} if lognormal
              else {"kind": "constant", "mean": 1.0})
    rows = run_analytic(parse_config({"n": n, "d": 10.0**log_d, "reward": reward}))
    assert all(row.rel_err <= 1e-12 for row in rows), [(row.swept_value, row.rel_err) for row in rows]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(n=st.integers(1, 64) | st.integers(1, 2**20), log_d=st.floats(-10.0, 100.0),
       mu=st.floats(1e-3, 1e3), lognormal=st.booleans())
def test_every_oracle_holds_over_the_accepted_discount_rates(n, log_d, mu, lognormal):
    # verify's oracle gate: within 1e-9 of the closed form, with its sign.
    reward = calibrate_lognormal(mu, 1.0) if lognormal else ConstantReward(mu)
    run = Run(EconomyParams(n=n, d=10.0**log_d, reward=reward), 0.25)
    for quantity, entry in entries(oracle=True):
        closed = entry.closed(run)
        assert rel_gap(entry.oracle(run), closed) <= REL and entry.sign_holds(closed, mu), quantity


def test_analytic_reaches_the_papers_scale():
    # n = 2^20 tickets at a per-slot rate of 1e-8: the series run to ~10^10
    # terms, which the doubling sums cover in ~35 doublings each.
    cfg = parse_config({"n": 2**20, "d": 1e-8,
                        "reward": {"kind": "lognormal", "mean": 1.0, "sigma_log": 1.0}})
    start = time.perf_counter()
    rows = run_analytic(cfg)
    assert time.perf_counter() - start < 0.5
    assert len(rows) == 7 and all(row.rel_err <= 1e-12 for row in rows)


def _simulate_accepts(quantity):
    try:
        parse_config({"quantity": quantity.value})
    except ConfigError:
        return False
    return True


def test_quantity_table_closed_forms_match_oracles():
    for n in (1, 32, 1024):
        for d in (0.01, 0.1):
            for reward in (ConstantReward(1.5), calibrate_lognormal(1.0, 1.0)):
                run = Run(EconomyParams(n=n, d=d, reward=reward), 0.25)
                for quantity, entry in entries(oracle=True):
                    gap = rel_gap(entry.oracle(run), entry.closed(run))
                    assert gap <= REL, (quantity, n, d, reward)
    verify_rows = {row.swept_value for row in run_verify(parse_config({"n": 8, "trials": 100})).rows}
    simulated = {q.value for q in Quantity if _simulate_accepts(q)}
    assert {q.value for q in QUANTITIES} == verify_rows | simulated
