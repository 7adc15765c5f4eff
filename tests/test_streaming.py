"""Block-streamed ensemble statistics: bounded memory in trials, and the same
statistics as the array helpers on the same sampler arrays."""

import tracemalloc
from functools import partial

import numpy as np
import pytest

from ticketsim import engine
from ticketsim.config import parse_config
from ticketsim.core import ConstantReward, EconomyParams, EmpiricalReward, ParetoReward, calibrate_lognormal
from ticketsim.engine import _BLOCK, _PATH_BLOCK, sample_pool_payoffs
from ticketsim.harness import run_pool, run_verify
from ticketsim.quantities import (
    POOL, Quantity, Run, entries, estimate, fair_price, pool_sums, power_sums,
)
from reference import ticket_value_second_moment

# A streamed run holds a block per ensemble in flight, whatever its trials;
# this allows a few blocks of the tracked samplers' float64 output.
_ALLOWANCE = 4 * _BLOCK * 8


def _mean_stderr(values: np.ndarray) -> tuple[float, float]:
    """Mean and stderr of an array, through its power sums about its mean."""
    return power_sums(values, float(np.mean(values)), 2).mean_stderr()


def _variance_stderr(values: np.ndarray) -> tuple[float, float]:
    """Sample variance of an array and its stderr, through its power sums."""
    return power_sums(values, float(np.mean(values)), 4).variance_stderr()


def _plus_reward_variance(params: EconomyParams, weight: float, statistic: tuple[float, float]):
    """A variance ``statistic`` of payoffs given their win slots T, plus
    ``weight`` times what the reward's variance adds, var_r E[x^(2T)]."""
    value, stderr = statistic
    return value + weight * ticket_value_second_moment(0.0, params.var_r, params.d, params.n), stderr


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name, block, run", [
    ("verify", _BLOCK, lambda trials: run_verify(parse_config({"n": 8, "d": 0.5, "trials": trials}))),
    ("pool", _PATH_BLOCK,
     lambda trials: run_pool(parse_config({"n": 64, "d": 0.05, "pool": {"k": 4}, "trials": trials}))),
    ("holder_value", _BLOCK,     # the holder kernel, at a constant reward and beta = 0
     lambda trials: estimate(EconomyParams(n=8, d=0.2, reward=ConstantReward(1.0)),
                             Quantity.HOLDER_VALUE, trials, 1, holder_share=0.25)),
])
def test_memory_is_bounded_in_trials(name, block, run):
    run(16 * block)     # first-call allocations
    small = _peak_bytes(lambda: run(16 * block))
    large = _peak_bytes(lambda: run(128 * block))
    assert large - small <= _ALLOWANCE, (name, small, large)


_REWARDS = {
    "constant": ConstantReward(1.0),
    "lognormal": calibrate_lognormal(1.0, 1.0),
    "pareto": ParetoReward(4.5, 1.0),
    "empirical": EmpiricalReward([2.0, 2.0, 8.0]),
}


def _close(streamed: float, array: float) -> bool:
    return streamed == pytest.approx(array, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("reward", list(_REWARDS))
def test_streamed_estimates_match_the_array_statistics(reward, monkeypatch):
    # Several full blocks and a partial last one for every sampler.
    params = EconomyParams(n=8, d=0.05, reward=_REWARDS[reward])
    trials = 3 * _BLOCK + 37

    def run():
        return Run(params, 0.25, trials=trials, seed=7, beta=0.5, default_share=True)

    streamed = {q: entry.estimate(run()) for q, entry in entries(estimator=True)}

    # The array statistics: each sampler's whole arrays reduced once by the
    # ensemble's own reducer, but about their own means, which is what
    # _mean_stderr and _variance_stderr do.
    sample = engine._sample

    def whole_arrays(kernel, head, trials, block, seed, stream, workers, reduce=None):
        parts = sample(kernel, head, trials, block, seed, stream, workers)
        means = tuple(float(np.mean(p)) for p in parts if isinstance(p, np.ndarray))
        return reduce.func(parts, **{**reduce.keywords, "shifts": means})

    monkeypatch.setattr(engine, "_sample", whole_arrays)
    for quantity, entry in entries(estimator=True):
        array = entry.estimate(run())
        assert _close(streamed[quantity].mean, array.mean), quantity
        assert _close(streamed[quantity].stderr, array.stderr), quantity

    # The same path as the helpers, on the ticket payoffs.
    monkeypatch.setattr(engine, "_sample", sample)
    payoffs, _ = engine.sample_ticket_payoffs(params, trials, 7, stream=0)
    est = streamed[Quantity.TICKET_VALUE]
    assert all(map(_close, (est.mean, est.stderr), _mean_stderr(payoffs)))
    est = streamed[Quantity.TICKET_VALUE_VARIANCE]
    assert all(map(_close, (est.mean, est.stderr), _plus_reward_variance(params, 1.0, _variance_stderr(payoffs))))


def _pool_rows(run: Run) -> dict:
    """(value, stderr) of each ``POOL`` row on ``run``'s pool ensemble."""
    estimates = {name: entry.estimate(run) for name, entry in POOL.items()}
    return {name: (est.mean, est.stderr) for name, est in estimates.items()}


@pytest.mark.parametrize("reward", list(_REWARDS))
def test_streamed_pool_rows_match_the_array_statistics(reward):
    params = EconomyParams(n=16, d=0.05, reward=_REWARDS[reward])
    trials = 5 * _PATH_BLOCK + 37
    streamed = _pool_rows(Run(params, trials=trials, seed=3, pool_size=4))
    member, solo, truncated = sample_pool_payoffs(params, 4, trials, 3)
    paired = (member - member.mean()) ** 2 - (solo - solo.mean()) ** 2
    gap = (member.var(ddof=1) - solo.var(ddof=1), _mean_stderr(paired)[1])
    array = {
        "solo_variance": _plus_reward_variance(params, 1.0, _variance_stderr(solo)),
        "pooled_per_ticket_variance": _plus_reward_variance(params, 1 / 4, _variance_stderr(member)),
        "variance_gap": _plus_reward_variance(params, -3 / 4, gap),
    }
    assert streamed.keys() == array.keys()
    for row in array:
        assert all(map(_close, streamed[row], array[row])), row
    # The reduced blocks keep the truncated count.
    reduce = partial(pool_sums, shift=fair_price(Run(params)))
    assert sample_pool_payoffs(params, 4, trials, 3, reduce=reduce)[2] == truncated


def test_streamed_pool_is_worker_invariant():
    params = EconomyParams(n=16, d=0.05, reward=calibrate_lognormal(1.0, 1.0))
    trials = 3 * _PATH_BLOCK + 37
    serial = _pool_rows(Run(params, trials=trials, seed=5, workers=1, pool_size=4))
    parallel = _pool_rows(Run(params, trials=trials, seed=5, workers=2, pool_size=4))
    assert serial == parallel


def test_sums_are_insensitive_to_a_wrong_shift():
    # The shift only conditions the sums: a shift well off the mean moves
    # the statistics by rounding.
    params = EconomyParams(n=32, d=0.01, reward=calibrate_lognormal(1.0, 1.0))
    payoffs, _ = engine.sample_ticket_payoffs(params, 20_000, 11)
    right = power_sums(payoffs, float(np.mean(payoffs)), 4)
    for shift in (0.0, 0.9, 2.0):
        wrong = power_sums(payoffs, shift, 4)
        assert all(map(_close, wrong.mean_stderr(), right.mean_stderr())), shift
        assert all(map(_close, wrong.variance_stderr(), right.variance_stderr())), shift
