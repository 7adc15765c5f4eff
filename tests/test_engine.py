"""Lottery state machine law, trajectory records, samplers, and estimator."""

import math

import numpy as np
import pytest
import scipy.stats

from ticketsim.analytics import expected_slots_to_win, expected_ticket_value, slots_to_win_variance
from ticketsim.core import ConstantReward, EconomyParams, calibrate_lognormal
from ticketsim.engine import (
    MARKET_HOLDER,
    ReplacementRule,
    discount_horizon,
    init_state,
    run_trajectory,
    sample_holder_flows,
    sample_pool_payoffs,
    sample_ticket_payoffs,
    sample_win_slots,
    step,
    substream,
    win_horizon,
)
from ticketsim.quantities import Quantity, entries, estimate


def params_const(n, d=0.01, mu=1.0):
    return EconomyParams(n=n, d=d, reward=ConstantReward(mu))


class ForcedRng:
    """Stand-in generator that returns scripted draw indices."""

    def __init__(self, picks):
        self.picks = list(picks)

    def integers(self, low, high=None):
        return self.picks.pop(0)


# ---------------------------------------------------------------------------
# init_state / step
# ---------------------------------------------------------------------------


def test_init_state_mints_n_tickets():
    state = init_state(params_const(3), holders=["A", "A", "A"])
    assert [t.id for t in state.pool] == [0, 1, 2]
    assert state.next_id == 3
    assert state.slot == 0
    assert state.streak == 0


def test_init_state_single_ticket():
    state = init_state(params_const(1))
    assert [t.id for t in state.pool] == [0]
    assert state.pool[0].holder == MARKET_HOLDER


def test_init_state_rejects_wrong_assignment_size():
    with pytest.raises(ValueError):
        init_state(params_const(3), holders=["A", "B"])


def test_zero_ticket_economy_rejected():
    with pytest.raises(ValueError):
        EconomyParams(n=0, d=0.01, reward=ConstantReward(1.0))


def test_step_forced_draw_burns_and_mints():
    params = params_const(3, mu=2.5)
    state = init_state(params)
    winner, reward, state = step(state, params, ForcedRng([2]))
    assert winner.id == 2
    assert reward == 2.5
    assert sorted(t.id for t in state.pool) == [0, 1, 3]
    assert len(state.pool) == 3
    assert state.pool[2].id == 3           # replacement takes the burned slot
    assert state.pool[2].minted_at == 1
    assert state.slot == 1


def test_step_single_ticket_always_wins_and_replacement_is_next_eligible():
    params = params_const(1)
    state = init_state(params)
    winner1, _, state = step(state, params, ForcedRng([0]))
    winner2, _, state = step(state, params, ForcedRng([0]))
    assert winner1.id == 0
    assert winner2.id == 1                 # the freshly minted ticket wins the next slot
    assert state.next_id == 3


def test_step_streak_bookkeeping_with_retention():
    params = params_const(2)
    state = init_state(params, holders=["A", "B"])
    streaks = []
    for pick in (0, 0, 1, 1, 1):
        _, _, state = step(state, params, ForcedRng([pick]), replacement=ReplacementRule.RETAIN)
        streaks.append((state.last_winner_holder, state.streak))
    assert streaks == [("A", 1), ("A", 2), ("B", 1), ("B", 2), ("B", 3)]


def test_step_market_replacement_label():
    params = params_const(2)
    state = init_state(params, holders=["A", "B"])
    _, _, state = step(state, params, ForcedRng([0]))
    assert state.pool[0].holder == MARKET_HOLDER


def test_pool_size_conserved_and_ids_never_reused():
    params = params_const(7)
    state = init_state(params)
    rng = np.random.default_rng(123)
    seen = {t.id for t in state.pool}
    burned = set()
    for _ in range(5000):
        winner, _, state = step(state, params, rng)
        assert len(state.pool) == 7
        assert winner.id not in burned
        burned.add(winner.id)
        new_ids = {t.id for t in state.pool}
        assert not (new_ids & burned)
        assert len(new_ids) == 7
        seen |= new_ids
    assert state.next_id == 7 + 5000


def test_uniform_draw_law_chi_square():
    # Win counts per pool position over 1e6 steps: uniform at significance 0.001,
    # and each position's frequency within 3 binomial sigmas of 1/n.
    params = params_const(10)
    state = init_state(params)
    rng = np.random.default_rng(20240527)
    ids = [t.id for t in state.pool]
    counts = np.zeros(10, dtype=np.int64)
    steps = 1_000_000
    for _ in range(steps):
        winner, _, state = step(state, params, rng)
        position = ids.index(winner.id)
        counts[position] += 1
        ids[position] = state.next_id - 1
    chi2 = ((counts - steps / 10.0) ** 2 / (steps / 10.0)).sum()
    assert chi2 < scipy.stats.chi2.ppf(0.999, df=9)
    sigma = math.sqrt(0.1 * 0.9 / steps)
    assert np.all(np.abs(counts / steps - 0.1) < 3.0 * sigma)


# ---------------------------------------------------------------------------
# run_trajectory
# ---------------------------------------------------------------------------


def test_run_trajectory_single_ticket_deterministic():
    params = params_const(1, d=0.05)
    record = run_trajectory(params, rng=np.random.default_rng(0))
    assert record.tracked_ticket_win_slot == 1
    assert math.isclose(record.discounted_payoff, 1.0 / 1.05, rel_tol=1e-15)
    assert not record.truncated
    assert record.holder_totals == {MARKET_HOLDER: record.discounted_payoff}


def test_run_trajectory_truncation_counts():
    params = params_const(5)
    rng = np.random.default_rng(7)
    outcomes = [run_trajectory(params, horizon=2, rng=rng) for _ in range(300)]
    truncated = [r for r in outcomes if r.truncated]
    assert truncated, "with horizon 2 and n=5 some trajectories must truncate"
    for record in truncated:
        assert record.tracked_ticket_win_slot is None
        assert record.discounted_payoff == 0.0
        assert record.slots_simulated == 2


def test_run_trajectory_full_horizon_holder_totals():
    # With constant rewards the sum of holder totals telescopes to the
    # deterministic discounted reward stream.
    params = params_const(4, d=0.05, mu=2.0)
    horizon = 60
    record = run_trajectory(
        params, horizon=horizon, rng=np.random.default_rng(3), stop_at_tracked_win=False
    )
    assert record.slots_simulated == horizon
    expected = sum(2.0 / 1.05**t for t in range(1, horizon + 1))
    assert math.isclose(sum(record.holder_totals.values()), expected, rel_tol=1e-12)


def test_run_trajectory_mean_waiting_time():
    params = params_const(6)
    rng = np.random.default_rng(11)
    slots = [run_trajectory(params, rng=rng).tracked_ticket_win_slot for _ in range(10_000)]
    stderr = math.sqrt(slots_to_win_variance(6) / len(slots))
    assert abs(np.mean(slots) - 6.0) < 4.0 * stderr


def test_run_trajectory_rejects_unknown_tracked_id():
    with pytest.raises(ValueError):
        run_trajectory(params_const(3), tracked=5, rng=np.random.default_rng(0))


# ---------------------------------------------------------------------------
# Horizon rules
# ---------------------------------------------------------------------------


def test_win_horizon_tail_bound():
    assert win_horizon(1) == 1
    for n in (2, 10, 64, 1000):
        h = win_horizon(n)
        assert (1.0 - 1.0 / n) ** h < 1e-9 <= (1.0 - 1.0 / n) ** (h - 1)


def test_discount_horizon_tail_bound():
    for d in (0.01, 0.1, 0.5):
        h = discount_horizon(d)
        assert (1.0 + d) ** (-h) < 1e-9 <= (1.0 + d) ** (-(h - 1))
    from ticketsim.errors import DiscountRateError

    with pytest.raises(DiscountRateError):
        discount_horizon(0.0)


# ---------------------------------------------------------------------------
# Vectorized samplers
# ---------------------------------------------------------------------------


def test_sampler_truncations_absent_at_default_horizon():
    slots, truncated = sample_win_slots(params_const(10), 100_000, seed=5)
    assert truncated == 0
    assert slots.min() >= 1


def test_win_slot_survival_is_geometric():
    n = 16
    slots, _ = sample_win_slots(params_const(n), 100_000, seed=21)
    z = 3.2905  # two-sided 99.9% normal band
    for t in (1, n // 2, n, 2 * n):
        p = (1.0 - 1.0 / n) ** t
        observed = float(np.mean(slots > t))
        assert abs(observed - p) < z * math.sqrt(p * (1.0 - p) / slots.size)


def test_sampler_matches_object_engine_statistically():
    params = params_const(6, d=0.05)
    rng = np.random.default_rng(17)
    object_payoffs = np.array(
        [run_trajectory(params, rng=rng).discounted_payoff for _ in range(20_000)]
    )
    fast_payoffs, _ = sample_ticket_payoffs(params, 20_000, seed=17)
    closed = expected_ticket_value(1.0, 0.05, 6)
    se = math.sqrt(object_payoffs.var(ddof=1) / object_payoffs.size)
    se_fast = math.sqrt(fast_payoffs.var(ddof=1) / fast_payoffs.size)
    assert abs(object_payoffs.mean() - closed) < 5.0 * se
    assert abs(fast_payoffs.mean() - closed) < 5.0 * se_fast
    assert abs(object_payoffs.mean() - fast_payoffs.mean()) < 5.0 * math.hypot(se, se_fast)


def test_holder_flows_full_ownership_deterministic():
    params = params_const(8, d=0.1, mu=3.0)
    horizon = discount_horizon(0.1)
    gross, net = sample_holder_flows(
        params, 8, 500, seed=9, replacement_price=0.5, horizon=horizon
    )
    stream = sum(3.0 / 1.1**t for t in range(1, horizon + 1))
    purchases = sum(0.5 / 1.1**t for t in range(1, horizon + 1))
    assert np.all(gross == gross[0])
    assert math.isclose(gross[0], stream, rel_tol=1e-12)
    assert math.isclose(float(net[0]), stream - purchases, rel_tol=1e-12)


def test_holder_flows_share_scaling():
    params = params_const(10, d=0.1)
    gross, net = sample_holder_flows(params, 3, 50_000, seed=33)
    expected = 0.3 * sum(1.0 / 1.1**t for t in range(1, discount_horizon(0.1) + 1))
    se = math.sqrt(gross.var(ddof=1) / gross.size)
    assert abs(gross.mean() - expected) < 4.0 * se
    assert np.array_equal(gross, net)  # zero replacement price


def test_holder_flows_validation():
    with pytest.raises(ValueError):
        sample_holder_flows(params_const(4), 0, 1000, seed=0)
    with pytest.raises(ValueError):
        sample_holder_flows(params_const(4), 5, 1000, seed=0)
    with pytest.raises(ValueError):
        sample_holder_flows(params_const(4), 2, 1000, seed=0, beta=-0.5)


def test_pool_payoffs_single_member_is_solo():
    member_mean, solo, _ = sample_pool_payoffs(params_const(12), 1, 5_000, seed=4)
    assert np.array_equal(member_mean, solo)


def test_substream_determinism_and_separation():
    a = substream(42, 0, 3).integers(0, 1_000_000, size=8)
    b = substream(42, 0, 3).integers(0, 1_000_000, size=8)
    c = substream(42, 1, 3).integers(0, 1_000_000, size=8)
    d = substream(43, 0, 3).integers(0, 1_000_000, size=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


# ---------------------------------------------------------------------------
# estimate()
# ---------------------------------------------------------------------------


def test_estimate_requires_minimum_trials():
    with pytest.raises(ValueError):
        estimate(params_const(4), Quantity.TICKET_VALUE, 99, seed=1)


def test_estimate_constant_single_ticket_exact():
    params = params_const(1, d=0.05, mu=2.0)
    est = estimate(params, Quantity.TICKET_VALUE, 10_000, seed=0)
    assert math.isclose(est.mean, 2.0 / 1.05, rel_tol=1e-12)
    assert est.stderr <= 1e-12
    assert est.truncated == 0


def test_estimate_ticket_value_matches_closed_form():
    params = EconomyParams(n=32, d=0.01, reward=calibrate_lognormal(1.0, 1.0))
    est = estimate(params, Quantity.TICKET_VALUE, 200_000, seed=8)
    closed = expected_ticket_value(1.0, 0.01, 32)
    assert abs(est.mean - closed) <= 4.0 * est.stderr + est.bias_bound
    lo, hi = est.ci95
    assert lo < est.mean < hi


def test_estimate_variance_matches_appendix_formula():
    from ticketsim.analytics import ticket_value_variance

    params = EconomyParams(n=10, d=0.1, reward=calibrate_lognormal(1.0, math.sqrt(math.log(2.0))))
    assert math.isclose(params.var_r, 1.0, rel_tol=1e-12)
    est = estimate(params, Quantity.TICKET_VALUE_VARIANCE, 200_000, seed=14)
    closed = ticket_value_variance(1.0, 1.0, 0.1, 10)
    assert abs(est.mean - closed) <= 4.0 * est.stderr + est.bias_bound


def test_estimate_time_to_win():
    est = estimate(params_const(10), Quantity.TIME_TO_WIN, 100_000, seed=2)
    assert abs(est.mean - expected_slots_to_win(10)) <= 4.0 * est.stderr + est.bias_bound


def test_estimate_with_empirical_rewards():
    from ticketsim.core import EmpiricalReward

    reward = EmpiricalReward([2.0, 2.0, 8.0])
    params = EconomyParams(n=8, d=0.05, reward=reward)
    est = estimate(params, Quantity.TICKET_VALUE, 100_000, seed=40)
    closed = expected_ticket_value(reward.mean(), 0.05, 8)
    assert abs(est.mean - closed) <= 4.0 * est.stderr + est.bias_bound


def test_estimate_holder_value():
    params = params_const(10, d=0.1)
    est = estimate(params, Quantity.HOLDER_VALUE, 50_000, seed=6, holder_share=0.5)
    expected = 0.5 * 1.0 / 0.1
    assert abs(est.mean - expected) <= 4.0 * est.stderr + est.bias_bound
    with pytest.raises(ValueError):
        estimate(params, Quantity.HOLDER_VALUE, 1000, seed=6)
    with pytest.raises(ValueError):
        estimate(params, Quantity.HOLDER_VALUE, 1000, seed=6, holder_share=0.01)


@pytest.mark.parametrize("quantity", [q for q, _ in entries(estimator=True)])
def test_estimate_worker_count_invariance(quantity):
    params = params_const(5, d=0.1)
    serial = estimate(params, quantity, 10_000, seed=31, workers=1, holder_share=0.4)
    pooled = estimate(params, quantity, 10_000, seed=31, workers=3, holder_share=0.4)
    assert serial == pooled  # bit-identical, not approximately equal


def test_estimate_seed_sensitivity():
    params = params_const(5, d=0.1)
    a = estimate(params, Quantity.TICKET_VALUE, 10_000, seed=1)
    b = estimate(params, Quantity.TICKET_VALUE, 10_000, seed=2)
    assert a.mean != b.mean
    with pytest.raises(ValueError):
        estimate(params, Quantity.TICKET_VALUE, 10_000, seed=-1)
