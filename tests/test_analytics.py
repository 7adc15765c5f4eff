"""Closed forms against their independent series / finite-difference oracles."""

import math
import tracemalloc

import numpy as np
import pytest

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
    ticket_value_second_moment,
    ticket_value_variance,
    total_ticket_value,
    truncated_series_sum,
)
from ticketsim.config import parse_config
from ticketsim.core import ConstantReward, EconomyParams, calibrate_lognormal
from ticketsim.errors import ConfigError, DiscountRateError, DivergenceError
from ticketsim.harness import run_analytic, run_verify
from ticketsim.quantities import QUANTITIES, Quantity, Run, entries

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


# Every series test runs under both term conventions: scalar terms called
# with Python ints, and array terms called with int64 arrays of t.
CONVENTIONS = (False, True)


def test_truncated_series_geometric():
    for vectorized in CONVENTIONS:
        total = truncated_series_sum(lambda t: 1.0 / 1.05**t, 0.05, EPS, vectorized=vectorized)
        assert abs(total - 20.0) < 1e-9 * 20.0


def test_truncated_series_zero_terms():
    for vectorized in CONVENTIONS:
        assert truncated_series_sum(lambda t: 0.0, 0.05, EPS, vectorized=vectorized) == 0.0


def test_truncated_series_divergence():
    for vectorized in CONVENTIONS:
        with pytest.raises(DivergenceError):
            truncated_series_sum(lambda t: 1.0, None, EPS, vectorized=vectorized)
        with pytest.raises(DivergenceError):
            truncated_series_sum(lambda t: 1.0, 0.0, EPS, vectorized=vectorized)
        with pytest.raises(DivergenceError):
            truncated_series_sum(lambda t: 1.0, epsilon=EPS, ratio=1.0, vectorized=vectorized)
        with pytest.raises(DivergenceError):
            # Claimed envelope contracts but terms do not.
            truncated_series_sum(lambda t: 1.0, 0.05, EPS, vectorized=vectorized)
        with pytest.raises(DivergenceError):
            truncated_series_sum(lambda t: 1.05**t, 0.05, EPS, vectorized=vectorized)


def test_truncated_series_rising_then_decaying_terms():
    # t * x^{t-1} rises before it decays; the stop rule must wait out the rise.
    n = 50
    q = 1.0 - 1.0 / n
    for vectorized in CONVENTIONS:
        total = truncated_series_sum(
            lambda t: t * q ** (t - 1) / n, epsilon=EPS, ratio=q, vectorized=vectorized
        )
        assert rel_gap(total, float(n)) < REL


def test_truncated_series_leading_zero_term():
    # First term vanishes; the sum must not short-circuit to zero.
    d = 0.05
    x = 1.0 / (1.0 + d)
    for vectorized in CONVENTIONS:
        total = truncated_series_sum(lambda t: (t - 1) * x**t, d, EPS, vectorized=vectorized)
        # sum (t-1) x^t = x^2/(1-x)^2 = 1/d^2
        assert rel_gap(total, 1.0 / d**2) < REL


def loop_series_sum(term, ratio, epsilon=EPS):
    """The term-by-term stop rule, kept as the reference for the block one:
    the sum and the last t it includes."""
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


def table_series(monkeypatch, n, d):
    """The series the table's oracles sum at (n, d), as (term, ratio,
    vectorized, epsilon); every sum returns 1.0."""
    seen = []

    def record(term, d=None, epsilon=EPS, *, ratio=None, vectorized=False):
        seen.append((term, 1.0 / (1.0 + d) if ratio is None else ratio, vectorized, epsilon))
        return 1.0

    monkeypatch.setattr(analytics, "truncated_series_sum", record)
    run = Run(EconomyParams(n=n, d=d, reward=calibrate_lognormal(1.0, 1.0)), 0.25)
    for _, entry in entries(oracle=True):
        entry.oracle(run)
    return seen


@pytest.mark.parametrize("n", [1, 2, 32, 1024, 65536])
@pytest.mark.parametrize("d", [1e-1, 1e-2, 1e-4])
def test_table_series_array_and_scalar_terms_agree(monkeypatch, n, d):
    series = table_series(monkeypatch, n, d)
    # Four series at the oracle epsilon. Sums of 1.0 make E[V^2] - E[V]^2
    # cancel completely, so the variance oracle sums its two series again
    # at its tightest epsilon.
    assert [epsilon for *_, epsilon in series] == [EPS] * 4 + [EPS * 1e-6] * 2
    for term, ratio, vectorized, epsilon in series:
        assert vectorized
        array, array_stop = analytics._series_sum(term, ratio, epsilon, True)
        scalar, scalar_stop = analytics._series_sum(term, ratio, epsilon, False)
        assert array_stop == scalar_stop
        assert rel_gap(array, scalar) <= 1e-14
        if scalar_stop < 50_000:
            assert (scalar, scalar_stop) == loop_series_sum(term, ratio, epsilon)


def test_scalar_terms_are_called_with_ints_in_order():
    # Callers may record the t they see (perfbench's oracle grid reads the
    # last one as the term count), so scalar terms get 1, 2, 3, ... as ints
    # and no t past the end of the block that stops the sum.
    for ratio in (0.5, 0.999):
        calls = []

        def term(t):
            if type(t) is not int:
                raise TypeError(f"term called with {type(t).__name__}")
            calls.append(t)
            return ratio**t

        _, stop = analytics._series_sum(term, ratio, EPS, False)
        assert calls == list(range(1, len(calls) + 1))
        assert stop <= len(calls) < min(2 * stop, stop + analytics._BLOCK)


def test_term_budget_grows_with_the_envelope_ratio(monkeypatch):
    # The slots-to-win series stops near 31n terms. A fixed budget below
    # that fails at large n; the budget sized from the ratio does not.
    monkeypatch.setattr(analytics, "_MAX_TERMS", 1000)
    n = 1000
    q = 1.0 - 1.0 / n
    for vectorized in CONVENTIONS:
        total, stop = analytics._series_sum(lambda t: t * q ** (t - 1) / n, q, EPS, vectorized)
        assert stop > 30 * n
        assert rel_gap(total, float(n)) < REL
    assert all(row.rel_err <= REL for row in run_analytic(parse_config({"n": n})))
    # A ratio far from 1 keeps the fixed budget. Pairs of terms that cancel
    # stay inside the envelope but never let the sum stop, so they exhaust it.
    with pytest.raises(DivergenceError, match="within 1000 terms"):
        truncated_series_sum(lambda t: (-1.0) ** t * 0.5 ** ((t + 1) // 2),
                             epsilon=EPS, ratio=math.sqrt(0.5))


def test_series_oracle_memory_independent_of_length():
    # Terms are evaluated a block at a time, so the oracles' peak memory does
    # not grow with the number of terms (about 31n for the slots series).
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
