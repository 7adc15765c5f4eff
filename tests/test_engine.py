"""Lottery state machine law, trajectory records, samplers, and estimator."""

import math
import os
import time
import tracemalloc
import warnings
from functools import partial

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from ticketsim import engine
from ticketsim.analytics import (
    expected_slots_to_win,
    expected_ticket_value,
    slots_to_win_variance,
    ticket_value_variance,
)
from ticketsim.core import ConstantReward, EconomyParams, RewardModel, calibrate_lognormal
from ticketsim.engine import (
    _BLOCK,
    _CELLS,
    _GROUP,
    _PATH_BLOCK,
    _PATTERN_MIN_SHARE,
    _WIN_CAP,
    MARKET_HOLDER,
    ReplacementRule,
    _guide_table,
    _guided_lookup,
    _holder_flow_block,
    _holder_gaps,
    _pattern_flow_block,
    _pattern_tables,
    _sample,
    _scale_streaks,
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
from ticketsim.market import MultiBlockSpec
from ticketsim.quantities import Quantity, _variance_stderr, block_sums, entries, estimate


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


def test_win_slot_survival_capped_at_short_horizon():
    # A horizon far below the natural one: every slot past it is reported
    # as the horizon itself and counted as truncated, at the geometric rate.
    n, horizon, trials = 16384, 16384, 100_000
    slots, truncated = sample_win_slots(params_const(n), trials, seed=23, horizon=horizon)
    assert slots.min() >= 1 and slots.max() == horizon
    tail = (1.0 - 1.0 / n) ** horizon
    z = 3.2905
    assert abs(truncated / trials - tail) < z * math.sqrt(tail * (1.0 - tail) / trials)
    # Only a trajectory winning at exactly the horizon reports it untruncated.
    assert truncated <= int(np.sum(slots == horizon))
    assert int(np.sum(slots == horizon)) - truncated < 20
    for t in (1, n // 4, n // 2, horizon - 1):
        p = (1.0 - 1.0 / n) ** t
        observed = float(np.mean(slots > t))
        assert abs(observed - p) < z * math.sqrt(p * (1.0 - p) / trials)


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


def test_holder_flows_match_object_engine_with_streak_bonus():
    n, k, beta, d, horizon = 6, 2, 0.5, 0.05, 100
    params = params_const(n, d=d)
    holders = ["whale"] * k + [MARKET_HOLDER] * (n - k)
    rng = np.random.default_rng(61)
    object_totals = np.array([
        run_trajectory(
            params, horizon=horizon, rng=rng, holders=holders, replacement=ReplacementRule.RETAIN,
            multiblock=MultiBlockSpec(beta), stop_at_tracked_win=False,
        ).holder_totals.get("whale", 0.0)
        for _ in range(2_000)
    ])
    gross, _ = sample_holder_flows(params, k, 20_000, seed=61, beta=beta, horizon=horizon)
    se = math.sqrt(object_totals.var(ddof=1) / object_totals.size)
    se_fast = math.sqrt(gross.var(ddof=1) / gross.size)
    assert abs(object_totals.mean() - gross.mean()) < 5.0 * math.hypot(se, se_fast)


def test_holder_flow_streak_premium_matches_exact_expectation():
    # A holder win at slot t has streak >= j with probability p^(j-1), so
    # E[streak | win at t] = (1 - p^t)/(1 - p). Streaks run across many
    # passes at this share and horizon, so the carry between passes is
    # exercised; common draws for beta and beta=0 isolate the bonus.
    n, k, beta, d = 3, 2, 0.5, 0.01
    params = params_const(n, d=d)
    p = k / n
    t = np.arange(1, discount_horizon(d) + 1, dtype=np.float64)
    exact = float(np.sum(p * beta * ((1.0 - p**t) / (1.0 - p) - 1.0) / (1.0 + d) ** t))
    bonus, _ = sample_holder_flows(params, k, 20_000, seed=5, beta=beta)
    base, _ = sample_holder_flows(params, k, 20_000, seed=5)
    premium = bonus - base
    se = math.sqrt(premium.var(ddof=1) / premium.size)
    assert abs(premium.mean() - exact) < 4.0 * se


@pytest.mark.parametrize("p", [1 / 8, 1 / 2, 7 / 8, 1 / 4096])
def test_holder_gaps_follow_the_geometric_law(p):
    # P(G > m) = (1 - p)^m at the m where it is about 0.9, 0.5, 0.1, 0.01 and
    # 0.001, and at m = 1; the inversion raises no floating-point warning.
    draws = 1_000_000
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        gaps = _holder_gaps(p, np.empty(draws), np.random.default_rng(2024))
    assert np.all(gaps >= 1.0) and np.array_equal(gaps, np.floor(gaps))
    for m in sorted({1, *(math.ceil(math.log(q) / math.log1p(-p)) for q in (0.9, 0.5, 0.1, 0.01, 0.001))}):
        exact = (1.0 - p) ** m
        observed = np.count_nonzero(gaps > m) / draws
        assert abs(observed - exact) < 4.0 * math.sqrt(exact * (1.0 - exact) / draws), m


@pytest.mark.parametrize("n, k, d", [(32, 4, 0.01), (8, 7, 0.05), (3, 1, 0.1), (64, 2, 0.01), (64, 63, 0.01)])
def test_holder_flow_mean_and_variance_match_closed_forms(n, k, d):
    # At beta = 0 with constant reward c the holder wins each slot t <= H
    # independently with probability p, so gross = c * sum_t I_t x^t has mean
    # c p sum x^t and variance c^2 p (1 - p) sum x^(2t). The share 2/64 is
    # below the win-pattern kernel's crossover, so the thinned kernel draws it.
    c, p = 2.5, k / n
    x = (1.0 + d) ** -np.arange(1, discount_horizon(d) + 1, dtype=np.float64)
    gross, _ = sample_holder_flows(params_const(n, d=d, mu=c), k, 20_000, seed=n + k)
    se = math.sqrt(gross.var(ddof=1) / gross.size)
    assert abs(gross.mean() - c * p * x.sum()) < 4.0 * se
    var, var_se = _variance_stderr(gross)
    assert abs(var - c * c * p * (1.0 - p) * np.sum(x * x)) < 4.0 * var_se


@pytest.mark.parametrize("reward, n, k, beta, kernel", [
    (ConstantReward(2.0), 32, 4, 0.0, "pattern"),
    (ConstantReward(2.0), 64, 4, 0.0, "pattern"),       # the crossover share itself
    (ConstantReward(2.0), 64, 63, 0.0, "pattern"),
    (ConstantReward(2.0), 64, 3, 0.0, "thinned"),       # below the crossover
    (ConstantReward(2.0), 32, 32, 0.0, "thinned"),      # k = n: every slot a win
    (ConstantReward(2.0), 32, 4, 0.5, "thinned"),       # a streak bonus
    (calibrate_lognormal(1.0, 1.0), 32, 4, 0.0, "thinned"),
])
def test_holder_flows_dispatch_to_the_pattern_kernel_only_where_it_applies(
        reward, n, k, beta, kernel, monkeypatch):
    called = []
    for name in ("_pattern_flow_block", "_holder_flow_block"):
        inner = getattr(engine, name)
        monkeypatch.setattr(engine, name,
                            lambda *a, _inner=inner, _name=name: called.append(_name) or _inner(*a))
    assert 64 * _PATTERN_MIN_SHARE == 4     # the cases at n = 64 straddle the crossover
    sample_holder_flows(EconomyParams(n, 0.05, reward), k, 100, seed=0, beta=beta)
    assert called == ["_pattern_flow_block" if kernel == "pattern" else "_holder_flow_block"]


def test_pattern_and_thinned_kernels_agree_at_the_crossover_share():
    # The same config through both kernels, on two streams: the means of
    # independent ensembles of the same law differ by less than 4 stderrs.
    n, k, d, c, trials = 64, 4, 0.01, 2.5, 20_000
    assert k / n == _PATTERN_MIN_SHARE
    horizon = discount_horizon(d)
    pattern, _ = _sample(_pattern_flow_block, (k / n, c, d, 0.0, horizon), trials, _PATH_BLOCK, 7, 0, 1)
    thinned, _ = _sample(_holder_flow_block, (params_const(n, d=d, mu=c), k, 0.0, 0.0, horizon),
                         trials, _PATH_BLOCK, 7, 1, 1)
    se = math.hypot(pattern.std(ddof=1), thinned.std(ddof=1)) / math.sqrt(trials)
    assert abs(pattern.mean() - thinned.mean()) < 4.0 * se


# At p = 0.49 the CDF edges fall in the lowest cells, just off those of p = 1/2.
@pytest.mark.parametrize("p", [1 / 2, 0.49, 1 / 8, 7 / 8, _PATTERN_MIN_SHARE, 1 - 2**-10])
def test_guided_lookup_equals_a_search_of_the_pattern_cdf(p):
    patterns, cdf, sums, _, guide = _pattern_tables(p, -math.log1p(0.01), 3)
    # The 256 patterns, by falling probability, and a CDF that reaches 1.
    prob = [p ** j.bit_count() * (1.0 - p) ** (_GROUP - j.bit_count()) for j in patterns]
    assert sorted(patterns) == list(range(1 << _GROUP))
    assert all(a >= b for a, b in zip(prob, prob[1:]))
    assert abs(math.fsum(prob) - 1.0) <= 1e-15
    assert abs(cdf[-2] + prob[-1] - 1.0) <= 1e-15 and cdf[-1] == np.inf
    if p == 1 / 2:      # every CDF edge is a multiple of 1/256, so no cell is split
        assert not np.isnan(guide).any()
    # Uniforms on every cell edge, 1 ulp either side of it, and at random.
    edges = np.arange(_CELLS) / _CELLS
    u = np.concatenate([edges, np.nextafter(edges, 1.0), np.nextafter(edges[1:], 0.0),
                        np.random.default_rng(11).random(100_000)])
    want = np.searchsorted(cdf, u, side="right")
    ranks = np.arange(1 << _GROUP, dtype=np.float64)
    got = _guided_lookup(u.copy(), np.empty(u.size, np.intp), np.empty(u.size), _guide_table(cdf, ranks),
                         cdf, ranks)
    assert np.array_equal(got, want)
    # The kernel's own guide holds the sums of the same patterns.
    cells = np.searchsorted(cdf, edges, side="right")
    assert np.array_equal(np.isnan(guide), np.isnan(_guide_table(cdf, ranks)))
    pure = ~np.isnan(guide)
    assert np.array_equal(guide[pure], sums[cells[pure]])


class _Recorded(RewardModel):
    """A reward model that keeps a copy of every array it draws."""

    kind = "recorded"

    def __init__(self, inner):
        self.inner, self.draws = inner, []

    def mean(self):
        return self.inner.mean()

    def variance(self):
        return self.inner.variance()

    def sample(self, rng, size=None):
        drawn = self.inner.sample(rng, size)
        self.draws.append(np.copy(drawn))
        return drawn


class _RecordingRng:
    """A generator that keeps a copy of the uniforms of every ``random`` call."""

    def __init__(self, rng):
        self.rng, self.uniforms = rng, []

    def random(self, *, out):
        self.rng.random(out=out)
        self.uniforms.append(out.copy())
        return out

    def __getattr__(self, name):
        return getattr(self.rng, name)


@pytest.mark.parametrize("beta", [0.0, 0.5])
@pytest.mark.parametrize("k", [1, 4, 7])
def test_holder_flow_block_matches_a_per_win_loop_on_recorded_draws(k, beta):
    # The kernel's in-place passes against a plain loop over the same uniforms
    # and rewards: each row's gaps, slots, streak (carried across passes),
    # horizon cut and discounted gross and purchases. At k = 4 every row
    # takes three whole passes before the rows left are indexed.
    n, d, price, count = 8, 0.05, 0.3, 40
    horizon = discount_horizon(d)
    reward = _Recorded(calibrate_lognormal(1.0, 1.0))
    rng = _RecordingRng(np.random.default_rng(k))
    gross, net = _holder_flow_block(rng, count, EconomyParams(n, d, reward), k, beta, price, horizon)

    p = k / n
    want_gross, want_paid = [0.0] * count, [0.0] * count
    last, streak = [0] * count, [0] * count
    assert len(rng.uniforms) == len(reward.draws) >= 2    # streaks carry across passes
    for uniforms, rewards in zip(rng.uniforms, reward.draws):
        active = [i for i in range(count) if last[i] < horizon]
        assert uniforms.shape == rewards.shape and uniforms.shape[0] == len(active)
        for row, i in enumerate(active):
            for u, r in zip(uniforms[row], rewards[row]):
                gap = 1 + math.floor(math.log1p(-u) / math.log1p(-p))
                streak[i] = streak[i] + 1 if gap == 1 else 1
                last[i] += gap
                if last[i] <= horizon:
                    weight = (1.0 + d) ** -last[i]
                    want_gross[i] += r * (1.0 + beta * (streak[i] - 1)) * weight
                    want_paid[i] += weight
    assert min(last) >= horizon
    want_gross, want_paid = np.array(want_gross), np.array(want_paid)
    assert np.allclose(gross, want_gross, rtol=1e-12, atol=0.0)
    assert np.allclose(net, want_gross - price * want_paid, rtol=0.0,
                       atol=1e-12 * float(np.max(want_gross + price * want_paid)))


class _PlantingRng(_RecordingRng):
    """A recording generator that overwrites half of each draw, and its last
    column, with the ``planted`` uniforms before the kernel sees them."""

    def __init__(self, rng, planted):
        super().__init__(rng)
        self.planted = planted

    def random(self, *, out):
        self.rng.random(out=out)
        flat = out.reshape(-1)
        flat[::2] = np.resize(self.planted, flat[::2].size)
        out[:, -1] = np.resize(self.planted[::-1], out.shape[0])
        self.uniforms.append(out.copy())
        return out


@pytest.mark.parametrize("horizon", [5, 243, 389])
@pytest.mark.parametrize("k", [1, 4, 7])
def test_pattern_flow_block_matches_a_per_slot_loop_on_recorded_draws(k, horizon):
    # The kernel's guided lookup, discounting and horizon cut against a plain
    # loop over the same uniforms: invert each by a search of the CDF, expand
    # its pattern's bits into wins and sum x^t over the wins with t <= H. No
    # horizon is a multiple of _GROUP; 389 slots take two whole passes and a
    # pass of the cut last group alone. Half the uniforms sit on a CDF edge or
    # 1 ulp from one, which splits its guide cell at shares 1/8 and 7/8.
    n, d, c, price, count = 8, 0.05, 2.5, 0.3, 40
    p = k / n
    patterns, cdf, _, _, _ = _pattern_tables(p, -math.log1p(d), horizon % _GROUP)
    edges = cdf[:-1][cdf[:-1] < 1.0]
    planted = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)])
    rng = _PlantingRng(np.random.default_rng(k), planted[np.random.default_rng(0).permutation(planted.size)])
    gross, net = _pattern_flow_block(rng, count, p, c, d, price, horizon)

    paid, lo = [0.0] * count, 0
    for uniforms in rng.uniforms:
        assert uniforms.shape[0] == count
        for i in range(count):
            for j, u in enumerate(uniforms[i]):
                pattern = patterns[int(np.searchsorted(cdf, u, side="right"))]
                for bit in range(_GROUP):
                    t = _GROUP * (lo + j) + bit + 1
                    if pattern >> bit & 1 and t <= horizon:
                        paid[i] += (1.0 + d) ** -t
        lo += uniforms.shape[1]
    assert lo == -(-horizon // _GROUP)
    paid = np.array(paid)
    assert np.allclose(gross, c * paid, rtol=1e-12, atol=0.0)
    assert np.allclose(net, (c - price) * paid, rtol=1e-12, atol=0.0)


def test_holder_flows_validation():
    with pytest.raises(ValueError):
        sample_holder_flows(params_const(4), 0, 1000, seed=0)
    with pytest.raises(ValueError):
        sample_holder_flows(params_const(4), 5, 1000, seed=0)
    with pytest.raises(ValueError):
        sample_holder_flows(params_const(4), 2, 1000, seed=0, beta=-0.5)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    p=st.sampled_from([1 / 8, 1 / 2, 0.9, 1.0]),
    rows=st.integers(1, 80),
    width=st.integers(1, 64),
    seed=st.integers(0, 2**32 - 1),
    beta=st.sampled_from([0.25, 0.5, 3.0]),
)
def test_streak_scaling_matches_a_per_win_loop(p, rows, width, seed, beta):
    rng = np.random.default_rng(seed)
    gaps = rng.geometric(p, (rows, width)).astype(np.float64)
    gaps[rng.random(rows) < 0.25] = 1.0          # rows made entirely of one-slot gaps
    carry = rng.integers(0, 6, rows).astype(np.float64)
    rewards = rng.lognormal(size=(rows, width))
    expected, tails = rewards.copy(), np.empty(rows)
    for i in range(rows):
        streak = carry[i]
        for j in range(width):
            streak = streak + 1.0 if gaps[i, j] == 1 else 1.0
            expected[i, j] *= 1.0 + beta * (streak - 1.0)
        tails[i] = streak
    got = _scale_streaks(rewards, gaps, carry, beta)
    assert rewards.tobytes() == expected.tobytes()
    assert got.tobytes() == tails.tobytes()


@pytest.mark.parametrize("trials", [0, -1])
@pytest.mark.parametrize("sampler", [
    lambda params, trials: sample_ticket_payoffs(params, trials, seed=0),
    lambda params, trials: sample_win_slots(params, trials, seed=0),
    lambda params, trials: sample_holder_flows(params, 2, trials, seed=0),
    lambda params, trials: sample_pool_payoffs(params, 2, trials, seed=0),
], ids=["ticket_payoffs", "win_slots", "holder_flows", "pool_payoffs"])
def test_samplers_reject_fewer_than_one_trial(sampler, trials):
    with pytest.raises(ValueError, match="trials"):
        sampler(params_const(4), trials)


def test_pool_payoffs_single_member_is_solo():
    member_mean, solo, _ = sample_pool_payoffs(params_const(12), 1, 5_000, seed=4)
    assert np.array_equal(member_mean, solo)


def test_pool_payoffs_solo_matches_closed_forms():
    n, k, d = 12, 4, 0.05
    params = EconomyParams(n=n, d=d, reward=calibrate_lognormal(1.0, 0.5))
    member_mean, solo, truncated = sample_pool_payoffs(params, k, 100_000, seed=12)
    assert truncated == 0
    se = math.sqrt(solo.var(ddof=1) / solo.size)
    assert abs(solo.mean() - expected_ticket_value(1.0, d, n)) < 4.0 * se
    var, var_se = _variance_stderr(solo)
    assert abs(var - ticket_value_variance(1.0, params.var_r, d, n)) < 4.0 * var_se
    assert member_mean.var(ddof=1) < solo.var(ddof=1)


def test_holder_flow_and_pool_memory_independent_of_d():
    # Holder flows draw at most a fixed number of wins (thinned kernel, k = 1)
    # or slots (win-pattern kernel, k = 4) per pass and pools one slot per
    # member, so peak memory does not grow with the horizon. A thinned block
    # holds one pass buffer of _WIN_CAP wins per row for its gaps, slots and
    # weights, and one pass's rewards beside it.
    def peak_mb(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()

    buffer_mb = _PATH_BLOCK * _WIN_CAP * 8 / 1e6      # 256 KiB
    for k in (1, 4):
        holder = {d: peak_mb(lambda: sample_holder_flows(params_const(32, d=d), k, _PATH_BLOCK, seed=3))
                  for d in (1e-2, 1e-4)}
        assert holder[1e-4] < 3.0 * buffer_mb, k
        assert holder[1e-4] <= 1.5 * holder[1e-2], k
    pool = {h: peak_mb(lambda: sample_pool_payoffs(params_const(32), 4, 512, seed=3, horizon=h))
            for h in (1_000, 1_000_000)}
    assert pool[1_000_000] <= 1.5 * pool[1_000]


def test_block_merge_holds_one_copy_of_the_output():
    # Blocks are written into output arrays allocated once, so the peak is the
    # output and about one block's working memory, not every block's parts
    # held beside their concatenation (about twice the output).
    params = params_const(32)
    sample_ticket_payoffs(params, _BLOCK, seed=1)    # first-call allocations

    def peak(trials):
        tracemalloc.start()
        try:
            payoffs, _ = sample_ticket_payoffs(params, trials, seed=1)
            return tracemalloc.get_traced_memory()[1], payoffs.nbytes
        finally:
            tracemalloc.stop()

    block, _ = peak(_BLOCK)
    total, output = peak(100_000)
    assert total < 1.25 * output + block


def test_pool_holds_a_bounded_window_of_blocks():
    # A pool run keeps at most a window of chunks of blocks submitted and not
    # yet merged, so the parent's memory does not grow with the block count.
    # Submitting every block's task at once holds ~0.4 kB a block, about
    # 150 kB more at 1024 blocks than at 64. CPython keeps freed tuples on
    # free lists that tracemalloc still counts, so warm runs under tracing
    # fill them first.
    #
    # A pool forks its workers from this traced process. On CPython 3.11 a
    # joined thread of the previous pool can still be freeing its thread
    # state, which takes tracemalloc's lock without the GIL; a worker forked
    # at that moment inherits the lock held and hangs before it runs (about
    # one pool run in 150 on a 2-vCPU x86-64 machine). So each run first
    # waits, with a deadline, until the OS has reaped every thread the test
    # did not start with.
    params = params_const(32)
    reduce = partial(block_sums, shifts=(32.0,), order=2)
    threads = _os_threads()

    def run(blocks):
        _wait_for_threads(threads)
        sample_win_slots(params, blocks * _BLOCK, 1, horizon=40, workers=2, reduce=reduce)

    def peak(blocks):
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        run(blocks)
        return tracemalloc.get_traced_memory()[1] - base

    tracemalloc.start()
    try:
        run(1024)
        run(1024)
        small, large = peak(64), peak(1024)
    finally:
        tracemalloc.stop()
    assert large - small < 40_000, (small, large)


def _os_threads() -> set:
    """This process's OS thread ids (empty where /proc is missing)."""
    try:
        return set(os.listdir("/proc/self/task"))
    except FileNotFoundError:
        return set()


def _wait_for_threads(threads: set, timeout: float = 10.0) -> None:
    """Wait until this process runs no OS thread outside ``threads``."""
    deadline = time.monotonic() + timeout
    while _os_threads() - threads and time.monotonic() < deadline:
        time.sleep(0.001)


_DRIVER_CASES = {
    # sampler, its arguments between params and trials, options, block size
    "ticket_payoffs": (sample_ticket_payoffs, (), {"horizon": 40}, _BLOCK),
    "win_slots": (sample_win_slots, (), {"horizon": 40}, _BLOCK),
    "holder_flows": (sample_holder_flows, (4,), {"beta": 0.5, "replacement_price": 0.3}, _PATH_BLOCK),
    "pool": (sample_pool_payoffs, (4,), {"horizon": 40}, _PATH_BLOCK),
}


@pytest.mark.parametrize("name", list(_DRIVER_CASES))
def test_sampler_output_bit_identical_across_workers(name):
    sampler, head, options, block = _DRIVER_CASES[name]
    params = EconomyParams(n=32, d=0.05, reward=calibrate_lognormal(1.0, 1.0))
    trials = 3 * block + 37     # several full blocks and a partial last one
    serial = sampler(params, *head, trials, 5, workers=1, **options)
    parallel = sampler(params, *head, trials, 5, workers=2, **options)
    assert len(serial) == len(parallel)
    for a, b in zip(serial, parallel):
        if isinstance(a, np.ndarray):
            assert a.shape == (trials,) and a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()
        else:   # truncated count: a horizon of 40 slots at n=32 truncates some
            assert a == b > 0


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
