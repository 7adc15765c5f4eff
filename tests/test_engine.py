"""Lottery state machine law, trajectory records, samplers, and estimator."""

import itertools
import math
import os
import tracemalloc
import warnings
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
import scipy.stats

from ticketsim import engine
from ticketsim.analytics import (
    expected_slots_to_win,
    expected_ticket_value,
    slots_to_win_variance,
    ticket_value_variance,
)
from ticketsim.core import ConstantReward, EconomyParams, LognormalReward, ParetoReward
from ticketsim.errors import DiscountRateError
from ticketsim.engine import (
    _BLOCK,
    _PATH_BLOCK,
    _holder_count_block,
    _holder_stops,
    discount_horizon,
    sample_holder_flows,
    sample_pool_payoffs,
    sample_ticket_payoffs,
    sample_win_slots,
    substream,
    win_horizon,
)
from ticketsim.market import MultiBlockSpec
from ticketsim.quantities import (
    PowerSums, Quantity, block_sums, entries, estimate, holder_block_sums, pool_sums, power_sums,
)
from reference import (
    MARKET_HOLDER, ReplacementRule, init_state, run_trajectory, step, ticket_value_second_moment,
)


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


def test_a_certain_hit_waits_one_slot():
    # p = 1 (a pool of all n tickets, or n = 1) has an infinite rate, where
    # math.log1p(-1.0) would raise: each of its waits is 1 slot.
    slots = engine._geometric([1.0, 0.5], (1000, 2), engine.substream(0, 0, 0))
    assert (slots[:, 0] == 1.0).all() and (slots[:, 1] >= 1.0).all() and (slots[:, 1] > 1.0).any()
    assert (engine._geometric([1.0], 8, engine.substream(0, 0, 1)) == 1.0).all()


def test_tracked_ticket_is_not_cut_without_a_horizon(monkeypatch):
    # A win ten times past the 1e-9 tail horizon still pays r x^T: nothing is cut.
    n, d, r = 2, 1e-3, 2.0
    slot = 10.0 * win_horizon(n)
    monkeypatch.setattr(engine, "_geometric", lambda p, size, rng: np.full(size, slot))
    payoffs, truncated = sample_ticket_payoffs(params_const(n, d=d, mu=r), 1000, seed=1)
    assert truncated == 0
    assert payoffs == pytest.approx(np.full(1000, r * (1.0 + d) ** -slot), rel=1e-12, abs=0)
    assert payoffs.min() > 0.0


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
    # At k = n every slot is a holder win, so each trajectory collects c and
    # buys a replacement at every slot up to its stop S = min(N, H), exactly;
    # under a streak bonus the win at slot t has streak t, so the bonus adds
    # c beta S (S - 1) / 2.
    params = params_const(8, d=0.1, mu=3.0)
    horizon = 25
    gross, net, stops = sample_holder_flows(
        params, 8, 500, seed=9, replacement_price=0.5, horizon=horizon
    )
    assert np.array_equal(stops, np.floor(stops)) and stops.min() >= 0.0
    assert 0 < np.count_nonzero(stops == horizon) < stops.size     # the cut and the random stop both act
    assert np.array_equal(gross, 3.0 * stops)
    assert np.array_equal(net, 3.0 * stops - 0.5 * stops)
    beta = 0.5
    bonus, net, same_stops = sample_holder_flows(
        params, 8, 500, seed=9, beta=beta, replacement_price=0.5, horizon=horizon
    )
    assert np.array_equal(same_stops, stops)
    assert np.array_equal(bonus, 3.0 * (stops + beta * stops * (stops - 1.0) / 2.0))
    assert np.array_equal(net, bonus - 0.5 * stops)


def test_holder_flows_share_scaling():
    params = params_const(10, d=0.1)
    gross, net, _ = sample_holder_flows(params, 3, 50_000, seed=33)
    expected = 0.3 / 0.1        # 0.3 * sum of x^t over every t
    se = math.sqrt(gross.var(ddof=1) / gross.size)
    assert abs(gross.mean() - expected) < 4.0 * se
    assert np.array_equal(gross, net)  # zero replacement price


def test_holder_flows_match_object_engine_with_streak_bonus():
    # The sampler's rows are the flows' expectations given each row's stop
    # and win count; their mean is the reference state machine's raw flows',
    # at a random reward too.
    n, k, beta, d, horizon = 6, 2, 0.5, 0.05, 100
    holders = ["whale"] * k + [MARKET_HOLDER] * (n - k)
    for reward in (ConstantReward(1.0), LognormalReward(1.0, 1.0)):
        params = EconomyParams(n, d, reward)
        rng = np.random.default_rng(61)
        object_totals = np.array([
            run_trajectory(
                params, horizon=horizon, rng=rng, holders=holders, replacement=ReplacementRule.RETAIN,
                multiblock=MultiBlockSpec(beta), stop_at_tracked_win=False,
            ).holder_totals.get("whale", 0.0)
            for _ in range(2_000)
        ])
        gross, _, _ = sample_holder_flows(params, k, 20_000, seed=61, beta=beta, horizon=horizon)
        se = math.sqrt(object_totals.var(ddof=1) / object_totals.size)
        se_fast = math.sqrt(gross.var(ddof=1) / gross.size)
        assert abs(object_totals.mean() - gross.mean()) < 5.0 * math.hypot(se, se_fast), reward


def test_holder_counts_match_object_engine():
    # At a constant reward and beta = 0 a row's flow is its own expectation,
    # c times a Binomial(stop, k/n) count, on blocks of _BLOCK rows.
    n, k, d, horizon, c = 6, 2, 0.05, 100, 2.5
    params = params_const(n, d=d, mu=c)
    holders = ["whale"] * k + [MARKET_HOLDER] * (n - k)
    rng = np.random.default_rng(62)
    object_totals = np.array([
        run_trajectory(
            params, horizon=horizon, rng=rng, holders=holders, replacement=ReplacementRule.RETAIN,
            stop_at_tracked_win=False,
        ).holder_totals.get("whale", 0.0)
        for _ in range(2_000)
    ])
    gross, _, _ = sample_holder_flows(params, k, 20_000, seed=62, horizon=horizon)
    first, _, _ = _holder_count_block(substream(62, 0, 0), _BLOCK, params, k, 0.0, 0.0, horizon)
    assert gross[:_BLOCK].tobytes() == first.tobytes()
    se = math.sqrt(object_totals.var(ddof=1) / object_totals.size)
    se_fast = math.sqrt(gross.var(ddof=1) / gross.size)
    assert abs(object_totals.mean() - gross.mean()) < 5.0 * math.hypot(se, se_fast)


def test_holder_flow_streak_premium_matches_exact_expectation():
    # A holder win at slot t has streak >= j with probability p^(j-1), so
    # E[streak | win at t] = (1 - p^t)/(1 - p). Common draws for beta and
    # beta = 0 (the same stops and win counts on the same seed) isolate the
    # bonus. The sum stops at the tail bound, 1e-9 of it.
    n, k, beta, d = 3, 2, 0.5, 0.01
    params = params_const(n, d=d)
    p = k / n
    t = np.arange(1, discount_horizon(d) + 1, dtype=np.float64)
    exact = float(np.sum(p * beta * ((1.0 - p**t) / (1.0 - p) - 1.0) / (1.0 + d) ** t))
    bonus, _, _ = sample_holder_flows(params, k, 20_000, seed=5, beta=beta)
    base, _, _ = sample_holder_flows(params, k, 20_000, seed=5)
    premium = bonus - base
    se = math.sqrt(premium.var(ddof=1) / premium.size)
    assert abs(premium.mean() - exact) < 4.0 * se


@pytest.mark.parametrize("d", [1e-2, 1e-4])
def test_holder_stops_follow_the_discount_law(d):
    # P(N >= t) = x^t at the t where it is about 0.9, 0.5, 0.1 and 0.01, and
    # at t = 1; N is a whole number >= 0, and the draw raises no
    # floating-point warning.
    draws = 1_000_000
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        stops = _holder_stops(np.random.default_rng(2024), draws, d, math.inf)
    assert np.all(stops >= 0.0) and np.array_equal(stops, np.floor(stops))
    for t in sorted({1, *(math.ceil(math.log(q) / -math.log1p(d)) for q in (0.9, 0.5, 0.1, 0.01))}):
        exact = (1.0 + d) ** -t
        observed = np.count_nonzero(stops >= t) / draws
        assert abs(observed - exact) < 4.0 * math.sqrt(exact * (1.0 - exact) / draws), t


@pytest.mark.parametrize("n, k, d", [(32, 4, 0.01), (8, 7, 0.05), (3, 1, 0.1), (64, 2, 0.01), (64, 63, 0.01)])
def test_holder_flow_mean_and_variance_match_closed_forms(n, k, d):
    # At beta = 0 with constant reward c the holder wins each slot up to its
    # stop N independently with probability p, so gross = c K with K ~
    # Binomial(N, p): mean c p / d, and variance c^2 (E[N] p (1 - p) + p^2
    # Var N) = c^2 [p (1 - p) / d + p^2 (1 + d) / d^2].
    c, p = 2.5, k / n
    gross, _, _ = sample_holder_flows(params_const(n, d=d, mu=c), k, 20_000, seed=n + k)
    se = math.sqrt(gross.var(ddof=1) / gross.size)
    assert abs(gross.mean() - c * p / d) < 4.0 * se
    var, var_se = power_sums(gross, float(gross.mean()), 4).variance_stderr()
    assert abs(var - c * c * (p * (1.0 - p) / d + p * p * (1.0 + d) / d**2)) < 4.0 * var_se


class _SlotsOnlyRng:
    """A generator that serves only the lottery's draws, the exponentials of
    the Geometric waits, the rank integers and the binomial win counts, and
    records each; any other draw, such as a reward's, is an AttributeError."""

    def __init__(self, rng):
        self.rng, self.calls = rng, []

    def standard_exponential(self, size):
        drawn = self.rng.standard_exponential(size)
        self.calls.append(("exponential", drawn.copy()))
        return drawn

    def integers(self, low, high, size):
        drawn = self.rng.integers(low, high, size=size)
        self.calls.append(("rank", drawn.copy()))
        return drawn

    def binomial(self, trials, p):
        drawn = self.rng.binomial(trials, p)
        self.calls.append(("binomial", drawn.copy()))
        return drawn


_ROWS = 64
_KERNELS = {
    # kernel on (rng, params), and the draws (variate, shape) it takes
    "tracked": (lambda rng, params: engine._tracked_block(rng, _ROWS, params, math.inf),
                [("exponential", (_ROWS, 1))]),
    "pool": (lambda rng, params: engine._pool_payoff_block(rng, _ROWS, params, 4, math.inf),
             [("exponential", (_ROWS, 4)), ("rank", (_ROWS,))]),
    "holder": (lambda rng, params: _holder_count_block(rng, _ROWS, params, 4, 0.5, 0.3, math.inf),
               [("exponential", (_ROWS,)), ("binomial", (_ROWS,))]),
}


@pytest.mark.parametrize("kernel", list(_KERNELS))
def test_kernels_draw_the_lottery_and_never_a_reward(kernel):
    # Each row is its payoff's expectation given the slots drawn, so a
    # constant, a lognormal and a Pareto reward of one mean take the same
    # draws and give the same bits at the same (n, seed).
    run, draws = _KERNELS[kernel]
    results = []
    for law in (ConstantReward(2.0), LognormalReward(2.0, 1.0), ParetoReward(4.0, 1.5)):
        assert law.mean() == 2.0
        rng = _SlotsOnlyRng(substream(3, 0, 0))
        parts = run(rng, EconomyParams(n=16, d=0.05, reward=law))
        assert [(name, drawn.shape) for name, drawn in rng.calls] == draws
        results.append(([drawn.tobytes() for _, drawn in rng.calls],
                        [p.tobytes() if isinstance(p, np.ndarray) else p for p in parts]))
    assert results[0] == results[1] == results[2]


class _RecordingRng:
    """A generator that keeps a copy of the uniforms of every ``random`` call,
    of the variates of every ``standard_exponential`` call, and of the
    (trials, probability, variates) of every ``binomial`` call."""

    def __init__(self, rng):
        self.rng, self.uniforms, self.exponentials, self.binomials = rng, [], [], []

    def random(self, *, out):
        self.rng.random(out=out)
        self.uniforms.append(out.copy())
        return out

    def standard_exponential(self, size):
        drawn = self.rng.standard_exponential(size)
        self.exponentials.append(drawn.copy())
        return drawn

    def binomial(self, trials, p):
        drawn = self.rng.binomial(trials, p)
        self.binomials.append((np.copy(trials), p, drawn.copy()))
        return drawn

    def __getattr__(self, name):
        return getattr(self.rng, name)


def _recorded_stops(exponentials, d, horizon) -> list:
    """Each row's stop min(N, horizon) from its recorded exponential."""
    rate = -math.log1p(-d / (1.0 + d))         # log1p(d), as the kernel rounds it
    stops = [max(math.ceil(e / rate), 1) - 1 for e in exponentials]
    return [min(stop, horizon) for stop in stops]


def test_streak_sum_given_stop_and_wins_matches_every_win_pattern():
    # Given S slots and K wins, each K-subset of the slots is equally likely;
    # the bonus's sum of (streak - 1) over the wins, averaged over the
    # subsets in exact rationals, is K (K - 1) / (S - K + 2).
    for slots in range(11):
        for wins in range(slots + 1):
            total = patterns = 0
            for chosen in itertools.combinations(range(slots), wins):
                streak, previous = 0, None
                for slot in chosen:
                    streak = streak + 1 if previous == slot - 1 else 1
                    total += streak - 1
                    previous = slot
                patterns += 1
            assert Fraction(total, patterns) == Fraction(wins * (wins - 1), slots - wins + 2), (slots, wins)


@pytest.mark.parametrize("d", [1e-2, 1e-8])
@pytest.mark.parametrize("k", [1, 3, 8])
def test_holder_count_block_draws_one_stop_and_one_count_per_row(k, d):
    # Each row draws one exponential for its stop and one binomial for its
    # wins up to that stop, however small d is, and no reward: its flows are
    # their expectations given (stop, wins), and at k = n every slot is a win.
    n, price, count = 8, 0.3, 40

    def flows(params, beta, horizon):
        rng = _RecordingRng(np.random.default_rng(k))
        gross, net, stops = _holder_count_block(rng, count, params, k, beta, price, horizon)
        [(trials, p, wins)] = rng.binomials
        assert p == k / n and np.all(wins <= trials) and not rng.uniforms
        mu, wins = params.mu, wins.astype(np.float64)
        if beta == 0.0:
            want_gross, want_net = mu * wins, (mu - price) * wins
        else:
            want_gross = mu * (wins + beta * wins * (wins - 1.0) / (stops - wins + 2.0))
            want_net = want_gross - price * wins
        assert gross.tobytes() == want_gross.tobytes()
        assert net.tobytes() == want_net.tobytes()
        if k == n:
            assert np.array_equal(wins, trials)
        return rng, trials, stops

    for law, beta in itertools.product((ConstantReward(2.5), LognormalReward(1.0, 1.0)), (0.0, 0.5)):
        for horizon in (math.inf, 30):
            rng, trials, stops = flows(EconomyParams(n, d, law), beta, horizon)
            [exponentials] = rng.exponentials
            assert exponentials.shape == (count,)
            assert stops.tolist() == _recorded_stops(exponentials, d, horizon) == trials.tolist()
        # Undiscounted, every row stops at the explicit horizon and draws only its count.
        rng, trials, stops = flows(EconomyParams(n, 0.0, law), beta, 30)
        assert not rng.exponentials and np.all(stops == 30.0) and np.all(trials == 30)


def test_holder_flows_validation():
    with pytest.raises(ValueError):
        sample_holder_flows(params_const(4), 0, 1000, seed=0)
    with pytest.raises(ValueError):
        sample_holder_flows(params_const(4), 5, 1000, seed=0)
    with pytest.raises(ValueError):
        sample_holder_flows(params_const(4), 2, 1000, seed=0, beta=-0.5)
    # Undiscounted, a flow stops only at an explicit horizon, for every row.
    from ticketsim.errors import DiscountRateError

    with pytest.raises(DiscountRateError):
        sample_holder_flows(params_const(4, d=0.0), 2, 1000, seed=0)
    _, _, stops = sample_holder_flows(params_const(4, d=0.0), 2, 1000, seed=0, horizon=7)
    assert np.all(stops == 7.0)


@pytest.mark.parametrize("keyword, value, message", [
    ("beta", math.nan, "beta must be finite and >= 0, got nan"),
    ("beta", math.inf, "beta must be finite and >= 0, got inf"),
    ("beta", -0.5, "beta must be finite and >= 0, got -0.5"),
    ("replacement_price", math.nan, "replacement_price must be finite, got nan"),
    ("replacement_price", math.inf, "replacement_price must be finite, got inf"),
    ("replacement_price", -math.inf, "replacement_price must be finite, got -inf"),
])
def test_holder_flows_reject_a_non_finite_bonus_or_price(keyword, value, message):
    # A NaN passes a bare ``beta < 0`` check and would come back as NaN flows.
    with pytest.raises(ValueError) as caught:
        sample_holder_flows(params_const(4), 2, 1000, seed=0, **{keyword: value})
    assert str(caught.value) == message


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


@pytest.mark.parametrize("reward", [ConstantReward(2.0), LognormalReward(1.0, 1.0)],
                         ids=["constant", "lognormal"])
def test_ticket_payoffs_are_the_payoffs_of_a_pool_of_one(reward):
    # One block of each sampler (the pool's blocks are smaller) draws from the
    # same substream; at horizon n about a third of the trajectories truncate.
    params = EconomyParams(n=16, d=0.01, reward=reward)
    payoffs, truncated = sample_ticket_payoffs(params, _PATH_BLOCK, 9, horizon=16)
    member, solo, pool_truncated = sample_pool_payoffs(params, 1, _PATH_BLOCK, 9, horizon=16)
    assert np.array_equal(payoffs, member) and np.array_equal(payoffs, solo)
    assert truncated == pool_truncated and 100 < truncated < 250


def test_pool_payoffs_solo_matches_closed_forms():
    n, k, d = 12, 4, 0.05
    params = EconomyParams(n=n, d=d, reward=LognormalReward(1.0, 0.5))
    member_mean, solo, truncated = sample_pool_payoffs(params, k, 100_000, seed=12)
    assert truncated == 0
    se = math.sqrt(solo.var(ddof=1) / solo.size)
    assert abs(solo.mean() - expected_ticket_value(1.0, d, n)) < 4.0 * se
    # solo is mu x^T given its member's win slot T: the reward adds var_r E[x^(2T)].
    var, var_se = power_sums(solo, float(solo.mean()), 4).variance_stderr()
    var += ticket_value_second_moment(0.0, params.var_r, d, n)
    assert abs(var - ticket_value_variance(1.0, params.var_r, d, n)) < 4.0 * var_se
    assert member_mean.var(ddof=1) < solo.var(ddof=1)


def test_holder_flow_and_pool_memory_independent_of_d():
    # A holder flow draws two variates per row, whatever d, the reward and
    # the streak bonus are, and a pool one slot per member, so peak memory
    # does not grow as the mean stop 1/d does.
    def peak_mb(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()

    sample_holder_flows(params_const(32), 1, _BLOCK, seed=3)     # first-call allocations
    rows_mb = _BLOCK * 8 / 1e6      # one float64 per row of a block
    for k in (1, 4):
        for reward, beta in ((ConstantReward(1.0), 0.0), (LognormalReward(1.0, 1.0), 0.5)):
            holder = {d: peak_mb(lambda: sample_holder_flows(EconomyParams(32, d, reward), k, _BLOCK,
                                                             seed=3, beta=beta))
                      for d in (1e-2, 1e-8)}
            assert holder[1e-8] <= 1.5 * holder[1e-2], (k, beta)
            assert holder[1e-8] < 12 * rows_mb, (k, beta)
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
    # A pool run keeps at most a window of blocks submitted and not yet
    # merged, so its memory does not grow with the block count. Submitting
    # every block's task at once holds ~0.4 kB a block, about 150 kB more at
    # 1024 blocks than at 64. CPython keeps freed tuples on free lists that
    # tracemalloc still counts, so warm runs under tracing fill them first.
    params = params_const(32)
    reduce = partial(block_sums, shifts=(32.0,), orders=(2,))

    def run(blocks):
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


@pytest.mark.parametrize("cpus, threads", [(3, 3), (None, 1)])
def test_pool_threads_are_capped_at_the_cpu_count(monkeypatch, cpus, threads):
    # However many workers are asked for, the pool starts at most one thread
    # per CPU and holds a window of four blocks per thread. The recording
    # executor notes the size asked for and runs on two threads, and a
    # process pool is refused outright, so the million-worker request starts
    # no more than two threads and no process.
    import concurrent.futures

    sizes, windows = [], []

    def refuse(*args, **kwargs):
        raise AssertionError("a process pool was started")

    class Recording(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers=2)

    windowed = engine._windowed

    def recording_windowed(ex, tasks, window):
        windows.append(window)
        return windowed(ex, tasks, window)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    monkeypatch.setattr(engine, "_windowed", recording_windowed)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    params = params_const(32)
    trials = 3 * _BLOCK + 37
    serial = sample_win_slots(params, trials, 5, horizon=40, workers=1)
    pooled = sample_win_slots(params, trials, 5, horizon=40, workers=10**6)
    assert sizes == [threads] and windows == [4 * threads]
    assert serial[0].tobytes() == pooled[0].tobytes() and serial[1] == pooled[1] > 0


_LOGNORMAL = LognormalReward(1.0, 1.0)
_DRIVER_CASES = {
    # sampler, its arguments between params and trials, options, block size, reward
    "ticket_payoffs": (sample_ticket_payoffs, (), {"horizon": 40}, _BLOCK, _LOGNORMAL),
    "win_slots": (sample_win_slots, (), {"horizon": 40}, _BLOCK, _LOGNORMAL),
    "holder_flows": (sample_holder_flows, (4,), {"beta": 0.5, "replacement_price": 0.3}, _BLOCK,
                     _LOGNORMAL),
    "holder_counts": (sample_holder_flows, (4,), {"replacement_price": 0.3}, _BLOCK, ConstantReward(2.0)),
    "pool": (sample_pool_payoffs, (4,), {"horizon": 40}, _PATH_BLOCK, _LOGNORMAL),
}


@pytest.mark.parametrize("name", list(_DRIVER_CASES))
def test_sampler_output_bit_identical_across_workers(name):
    sampler, head, options, block, reward = _DRIVER_CASES[name]
    params = EconomyParams(n=32, d=0.05, reward=reward)
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


@pytest.mark.parametrize("sampler, head", [
    (sample_ticket_payoffs, ()), (sample_win_slots, ()), (sample_holder_flows, (4,)), (sample_pool_payoffs, (4,)),
], ids=["ticket_payoffs", "win_slots", "holder_flows", "pool"])
def test_samplers_reject_a_nan_or_negative_horizon_and_fewer_than_one_worker(sampler, head):
    # Unchecked, a negative horizon makes every win slot the horizon, a NaN
    # one counts every win as truncated (or fails inside numpy), a fractional
    # one reports its cut trajectories at a slot a real win can have (and
    # cuts a holder's stop to a fraction of a slot), and a worker count below
    # one runs serially. math.inf is no horizon, as None is.
    params = params_const(32)
    for horizon in (-5, -0.5, math.nan):
        with pytest.raises(ValueError, match=rf"horizon must be >= 0, got {horizon}$"):
            sampler(params, *head, 100, 1, horizon=horizon)
    for horizon in (2.5, 0.5, 40.000001):
        with pytest.raises(ValueError, match=rf"horizon must be a whole number of slots, got {horizon}$"):
            sampler(params, *head, 100, 1, horizon=horizon)
    for workers in (0, -3):
        with pytest.raises(ValueError, match=rf"workers must be >= 1, got {workers}$"):
            sampler(params, *head, 100, 1, workers=workers)
    assert len(sampler(params, *head, 100, 1, horizon=0, workers=1)) >= 2
    for whole in (2.0, np.int64(2)):
        assert all(np.array_equal(a, b) for a, b in zip(sampler(params, *head, 100, 1, horizon=whole),
                                                        sampler(params, *head, 100, 1, horizon=2)))
    unbounded, none = sampler(params, *head, 100, 1, horizon=math.inf), sampler(params, *head, 100, 1)
    assert all(np.array_equal(a, b) for a, b in zip(unbounded, none))


def test_an_infinite_horizon_does_not_stop_an_undiscounted_holder_flow():
    with pytest.raises(DiscountRateError, match="pass a horizon explicitly"):
        sample_holder_flows(params_const(4, d=0.0), 2, 100, seed=0, horizon=math.inf)


_HORIZON_CASES = {
    # sampler, its arguments between params and trials, block size, reducer, index of the truncated count
    "ticket_payoffs": (sample_ticket_payoffs, (), _BLOCK, partial(block_sums, shifts=(0.6, 32.0), orders=(4, 2)), 1),
    "win_slots": (sample_win_slots, (), _BLOCK, partial(block_sums, shifts=(32.0,), orders=(2,)), 1),
    "pool": (sample_pool_payoffs, (16,), _PATH_BLOCK, partial(pool_sums, shift=0.6), 2),
    "holder_flows": (sample_holder_flows, (4,), _BLOCK,
                     partial(holder_block_sums, shifts=(0.4, 0.3), slopes=(0.004, 0.003), stop_mean=100.0),
                     None),
}


def _bytes(part):
    """A sampler's or reducer's output part as comparable bytes (a count as itself)."""
    if isinstance(part, np.ndarray):
        return part.dtype.str, part.tobytes()
    if isinstance(part, PowerSums):
        return part.shift, part.unit, part.sums.tobytes()
    return part


@pytest.mark.parametrize("reduced", [False, True], ids=["arrays", "reduced"])
@pytest.mark.parametrize("name", list(_HORIZON_CASES))
def test_a_horizon_past_every_draw_gives_the_bytes_of_none(name, reduced):
    # No horizon skips the mask, the cut and the count; a finite horizon
    # above every slot drawn runs them and must change no bit, and each
    # truncated count is the int 0.
    sampler, head, block, reducer, count_at = _HORIZON_CASES[name]
    params = EconomyParams(n=32, d=0.01, reward=LognormalReward(1.0, 1.0))
    trials = 2 * block + 37
    options = {"reduce": reducer} if reduced else {}
    none, far = (sampler(params, *head, trials, 8, horizon=horizon, **options) for horizon in (None, 10**12))
    assert list(map(_bytes, far)) == list(map(_bytes, none))
    if count_at is not None:
        assert type(none[count_at]) is int and none[count_at] == 0 == far[count_at]


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


def test_estimate_ticket_value_matches_closed_form():
    params = EconomyParams(n=32, d=0.01, reward=LognormalReward(1.0, 1.0))
    est = estimate(params, Quantity.TICKET_VALUE, 200_000, seed=8)
    closed = expected_ticket_value(1.0, 0.01, 32)
    assert abs(est.mean - closed) <= 4.0 * est.stderr
    lo, hi = est.ci95
    assert lo < est.mean < hi


def test_estimate_variance_matches_appendix_formula():
    from ticketsim.analytics import ticket_value_variance

    params = EconomyParams(n=10, d=0.1, reward=LognormalReward(1.0, math.sqrt(math.log(2.0))))
    assert math.isclose(params.var_r, 1.0, rel_tol=1e-12)
    est = estimate(params, Quantity.TICKET_VALUE_VARIANCE, 200_000, seed=14)
    closed = ticket_value_variance(1.0, 1.0, 0.1, 10)
    assert abs(est.mean - closed) <= 4.0 * est.stderr


def test_estimate_time_to_win():
    est = estimate(params_const(10), Quantity.TIME_TO_WIN, 100_000, seed=2)
    assert abs(est.mean - expected_slots_to_win(10)) <= 4.0 * est.stderr


def test_estimate_with_empirical_rewards():
    from ticketsim.core import EmpiricalReward

    reward = EmpiricalReward([2.0, 2.0, 8.0])
    params = EconomyParams(n=8, d=0.05, reward=reward)
    est = estimate(params, Quantity.TICKET_VALUE, 100_000, seed=40)
    closed = expected_ticket_value(reward.mean(), 0.05, 8)
    assert abs(est.mean - closed) <= 4.0 * est.stderr


def test_estimate_holder_value():
    params = params_const(10, d=0.1)
    est = estimate(params, Quantity.HOLDER_VALUE, 50_000, seed=6, holder_share=0.5)
    expected = 0.5 * 1.0 / 0.1
    assert abs(est.mean - expected) <= 4.0 * est.stderr
    with pytest.raises(ValueError):
        estimate(params, Quantity.HOLDER_VALUE, 1000, seed=6)
    with pytest.raises(ValueError):
        estimate(params, Quantity.HOLDER_VALUE, 1000, seed=6, holder_share=0.01)


def test_estimate_rejects_a_zero_discount_rate_and_fewer_than_one_worker():
    # Every estimate is an infinite-horizon value, so d = 0 fails naming d
    # before any draw, as a worker count below one does.
    with pytest.raises(DiscountRateError, match=r"needs d > 0, got d=0\.0"):
        estimate(params_const(10, d=0.0), Quantity.HOLDER_VALUE, 1000, seed=6, holder_share=0.5)
    for workers in (0, -3):
        with pytest.raises(ValueError, match=f"workers must be >= 1, got {workers}"):
            estimate(params_const(10), Quantity.TICKET_VALUE, 1000, seed=6, workers=workers)


def test_estimate_takes_a_streak_bonus_for_holder_value_only():
    # The bonus is set on the run's one holder ensemble, which npv_rewards
    # and control_value read too.
    params, bonus = params_const(10, d=0.1), MultiBlockSpec(beta=0.5)
    assert estimate(params, Quantity.HOLDER_VALUE, 1000, seed=6, holder_share=0.5, multiblock=bonus).mean > 0
    for quantity in (Quantity.NPV_REWARDS, Quantity.CONTROL_VALUE, Quantity.TICKET_VALUE):
        with pytest.raises(ValueError, match="holder_value only"):
            estimate(params, quantity, 1000, seed=6, holder_share=0.5, multiblock=bonus)


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
