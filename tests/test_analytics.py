"""Closed forms against their independent series / finite-difference oracles."""

import math

import numpy as np
import pytest

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
from ticketsim.harness import run_verify
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
