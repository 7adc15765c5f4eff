"""Pricing capture, pooled payouts, and the consecutive-win bonus model."""

import math

import numpy as np
import pytest

from ticketsim.analytics import expected_ticket_value, npv_rewards
from ticketsim.core import ConstantReward, EconomyParams, LognormalReward
from ticketsim import engine
from ticketsim.engine import sample_holder_flows
from ticketsim.errors import ConfigError, NegativePriceError
from ticketsim.market import FairValue, FixedDiscount, FixedMargin, protocol_capture
from ticketsim.harness import _mc_gate
from ticketsim.quantities import POOL, QUANTITIES, Quantity, Run, estimate
from reference import MARKET_HOLDER, MultiBlockSpec, ReplacementRule, run_trajectory


def params_const(n, d=0.01, mu=1.0):
    return EconomyParams(n=n, d=d, reward=ConstantReward(mu))


# ---------------------------------------------------------------------------
# Pricing policies and capture
# ---------------------------------------------------------------------------


def test_policy_prices():
    assert FairValue().price(0.8) == 0.8
    assert FixedMargin(0.1).price(0.5) == 0.4
    assert FixedDiscount(0.25).price(0.8) == pytest.approx(0.6)
    assert FixedDiscount(1.0).price(0.8) == 0.0


def test_policy_validation():
    with pytest.raises(ValueError):
        FixedMargin(-0.1)
    with pytest.raises(ValueError):
        FixedDiscount(1.5)
    with pytest.raises(NegativePriceError):
        FixedMargin(0.6).price(0.5)


def test_fair_value_captures_full_stream_npv():
    rng = np.random.default_rng(77)
    for _ in range(200):
        mu = float(rng.uniform(0.1, 10.0))
        d = float(10.0 ** rng.uniform(-3, -0.3))
        n = int(rng.integers(1, 100_000))
        capture = protocol_capture(FairValue(), params_const(n, d, mu))
        npv = npv_rewards(mu, d)
        assert abs(capture.total - npv) < 1e-9 * npv
        assert abs(capture.leakage) < 1e-9 * npv


def test_fixed_margin_capture_example():
    capture = protocol_capture(FixedMargin(0.1), params_const(100, 0.01, 1.0))
    assert capture.price == pytest.approx(0.4, rel=1e-12)
    assert capture.initial_sale == pytest.approx(40.0, rel=1e-9)
    assert capture.per_slot_stream_npv == pytest.approx(40.0, rel=1e-9)
    assert capture.total == pytest.approx(80.0, rel=1e-9)
    assert capture.leakage == pytest.approx(20.0, rel=1e-9)


def test_fixed_margin_leakage_decomposition():
    # leakage = n*margin + margin/d, exactly, for any admissible margin
    rng = np.random.default_rng(101)
    for _ in range(200):
        mu = float(rng.uniform(0.5, 5.0))
        d = float(10.0 ** rng.uniform(-3, -0.5))
        n = int(rng.integers(1, 10_000))
        margin = float(rng.uniform(0.0, 0.9)) * expected_ticket_value(mu, d, n)
        capture = protocol_capture(FixedMargin(margin), params_const(n, d, mu))
        expected = n * margin + margin / d
        assert abs(capture.leakage - expected) < 1e-9 * max(1.0, expected)


def test_free_tickets_leak_everything():
    capture = protocol_capture(FixedDiscount(1.0), params_const(50, 0.02, 1.0))
    assert capture.total == 0.0
    assert capture.leakage == npv_rewards(1.0, 0.02)


def test_margin_exceeding_value_rejected():
    with pytest.raises(NegativePriceError):
        protocol_capture(FixedMargin(10.0), params_const(100, 0.01, 1.0))


# ---------------------------------------------------------------------------
# Pooled variances
# ---------------------------------------------------------------------------


def _pool(params, k, trials, seed):
    """(value, stderr) of each ``POOL`` row, read from one k-ticket pool ensemble."""
    run = Run(params, trials=trials, seed=seed, pool_size=k)
    estimates = {name: entry.estimate(run) for name, entry in POOL.items()}
    return {name: (est.mean, est.stderr) for name, est in estimates.items()}


def test_pooled_variance_degenerate_pool():
    # A pool of one: the mean and the solo payoff coincide, and so do their sums.
    result = _pool(params_const(8, d=0.05), 1, 5_000, seed=3)
    assert result["pooled_per_ticket_variance"] == result["solo_variance"]
    assert result["variance_gap"] == (0.0, 0.0)


def test_pooled_variance_rejects_oversized_pool():
    with pytest.raises(ValueError, match="pool size"):
        _pool(params_const(8), 9, 5_000, seed=3)


def test_pooled_variance_reduction():
    params = EconomyParams(n=16, d=0.05, reward=LognormalReward(1.0, 1.0))
    result = _pool(params, 8, 20_000, seed=12)
    gap, gap_stderr = result["variance_gap"]
    assert result["pooled_per_ticket_variance"][0] < result["solo_variance"][0]
    assert gap < -3.0 * gap_stderr


def test_full_pool_still_below_solo():
    # k = n: only reward draws and timing spread remain per ticket;
    # averaging n one-shot claims stays strictly below one claim's variance.
    params = EconomyParams(n=16, d=0.05, reward=LognormalReward(1.0, 1.0))
    gap, gap_stderr = _pool(params, 16, 20_000, seed=13)["variance_gap"]
    assert gap < -3.0 * gap_stderr


def test_pooled_solo_variance_matches_formula():
    from ticketsim.analytics import ticket_value_variance

    params = EconomyParams(n=16, d=0.05, reward=LognormalReward(1.0, 1.0))
    solo, solo_stderr = _pool(params, 4, 50_000, seed=18)["solo_variance"]
    closed = ticket_value_variance(1.0, math.e - 1.0, 0.05, 16)
    assert abs(solo - closed) < 4.0 * solo_stderr


# ---------------------------------------------------------------------------
# Multi-block bonus
# ---------------------------------------------------------------------------


def test_multiblock_spec_apply():
    spec = MultiBlockSpec(beta=0.5)
    assert spec.apply(2.0, 1) == 2.0
    assert spec.apply(2.0, 3) == 4.0
    assert MultiBlockSpec(beta=0.0).apply(2.0, 7) == 2.0
    with pytest.raises(ValueError):
        MultiBlockSpec(beta=-0.1)


def test_multiblock_zero_bonus_bit_identical_trajectories():
    # Identical seeds: a zero-bonus spec must reproduce the base model bit
    # for bit, including holder totals and streak-driven reward scaling.
    params = params_const(6, d=0.05)
    holders = ["whale"] * 2 + [MARKET_HOLDER] * 4
    base = run_trajectory(
        params, horizon=200, rng=np.random.default_rng(404), holders=holders,
        multiblock=None, replacement=ReplacementRule.RETAIN, stop_at_tracked_win=False,
    )
    bonus0 = run_trajectory(
        params, horizon=200, rng=np.random.default_rng(404), holders=holders,
        multiblock=MultiBlockSpec(beta=0.0), replacement=ReplacementRule.RETAIN,
        stop_at_tracked_win=False,
    )
    assert base == bonus0


def _holder_value(params, share, trials, seed, beta=None, **kwargs):
    """The holder_value estimate and its closed form, (k/n) * mu/d."""
    multiblock = MultiBlockSpec(beta=beta) if beta is not None else None
    est = estimate(params, Quantity.HOLDER_VALUE, trials, seed, holder_share=share,
                   multiblock=multiblock, **kwargs)
    k = int(share * params.n + 0.5)
    return est, k / params.n * npv_rewards(params.mu, params.d)


def test_multiblock_premium_zero_without_bonus():
    est, closed = _holder_value(params_const(20, d=0.05), 0.2, 20_000, seed=9)
    assert closed == 0.2 * npv_rewards(1.0, 0.05)
    assert abs(est.mean - closed) <= 3.0 * est.stderr


def test_multiblock_premium_positive_with_bonus():
    est, closed = _holder_value(params_const(20, d=0.05), 0.2, 20_000, seed=9, beta=0.5)
    assert est.mean - closed > 3.0 * est.stderr


def test_multiblock_premium_monotone_in_beta_common_seeds():
    premiums = []
    for beta in (0.0, 0.25, 0.5, 1.0):
        est, closed = _holder_value(params_const(20, d=0.05), 0.2, 10_000, seed=77, beta=beta)
        premiums.append(est.mean - closed)
    assert all(b >= a for a, b in zip(premiums, premiums[1:]))


def test_multiblock_rejects_vanishing_holder():
    with pytest.raises(ValueError, match="rounds to zero"):
        _holder_value(params_const(50), 0.001, 1_000, seed=1)
    with pytest.raises(ValueError, match="between 1 and n"):
        _holder_value(params_const(50), 1.5, 1_000, seed=1)


def test_library_share_above_one_fails_with_its_key(monkeypatch):
    # The run rejects a share that keeps more than n tickets before any draw.
    def sampler_called(*args, **kwargs):
        raise AssertionError("sample_holder_flows ran")

    monkeypatch.setattr(engine, "sample_holder_flows", sampler_called)
    with pytest.raises(ConfigError, match="between 1 and n") as err:
        estimate(params_const(50), Quantity.HOLDER_VALUE, 1000, 1, holder_share=1.5)
    assert err.value.path == "holder_share"


def test_multiblock_full_ownership_constant_rewards_closed_form():
    # At p = 1 with constant rewards every slot extends the streak, so a flow
    # stopped at N is the sum of mu*(1+beta*(t-1)) over t up to it, with mean
    # the sum of mu*(1+beta*(t-1)) * x^t over all t: (k/n)*mu/d + beta*mu/d^2.
    mu, d, n, beta = 1.0, 0.05, 4, 0.5
    params = params_const(n, d=d, mu=mu)
    est, closed = _holder_value(params, 1.0, 500, seed=2, beta=beta)
    limit = closed + beta * mu / d**2
    assert 0.0 < est.stderr and _mc_gate(est.mean, limit, est.stderr)


def test_multiblock_share_rounding_reported():
    params = params_const(32, d=0.05)
    run = Run(params, 0.1, trials=1_000, seed=4)
    assert run.holder_tickets == 3
    assert QUANTITIES[Quantity.HOLDER_VALUE].closed(run) == 3 / 32 * npv_rewards(1.0, 0.05)
    # The ensemble holds the 3 tickets.
    est, _ = _holder_value(params, 0.1, 1_000, seed=4)
    gross, _, stops = sample_holder_flows(params, 3, 1_000, 4, stream=3)
    controlled = gross - 3 / 32 * (stops - 1 / 0.05)     # the flow's mean per slot times N - E[N]
    assert est.mean == pytest.approx(float(np.mean(controlled)), rel=1e-12, abs=0)
