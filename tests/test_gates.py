"""Calibration and power of ``verify``'s gates (ROADMAP item 18).

A calibration row runs ``verify`` in-process on the program as it is, over
a listed range of seeds, and allows at most a number of failing runs; its
message gives the z distribution of the sampled rows (mean, sd, max |z|).
A power row applies a mutation, a monkeypatch of one kernel or closed form,
and requires every run to fail. Every seed is listed, so the suite is
derandomized. A known defect is a strict xfail that names the ROADMAP item
that mends it: the change that mends it must flip the row.
"""

import statistics

import pytest

from ticketsim import engine
from ticketsim.config import parse_config
from ticketsim.harness import Z_LIMIT, run_pool, run_verify
from ticketsim.quantities import QUANTITIES, Quantity
from test_units import _inflate_tracked_payoffs

# The paper's regime: 12 s slots discounted at 5% a year, ln(1.05) / 2 629 800 per slot.
PAPER_D = 1.855e-8
_LOGNORMAL_2 = {"kind": "lognormal", "mean": 1.0, "sigma_log": 2.0}
_PARETO_2_5 = {"kind": "pareto", "shape": 2.5, "scale": 1.0}


def _verify(raw: dict, seed: int) -> tuple[bool, list[float]]:
    """Whether ``verify`` fails on ``raw`` at ``seed``, and its sampled rows' z."""
    outcome = run_verify(parse_config({**raw, "seed": seed}))
    return bool(outcome.failures), [row.z_score for row in outcome.rows if row.trials]


def _pool_solo(raw: dict, seed: int) -> tuple[bool, list[float]]:
    """Whether ``pool``'s solo_variance row is past the verify gate's |z| at
    ``seed``, and its z: the row has a closed form, but ``pool`` gives no verdict."""
    [z] = [row.z_score for row in run_pool(parse_config({**raw, "seed": seed}))
           if row.swept_value == "solo_variance"]
    return abs(z) > Z_LIMIT, [z]


def _holder_rows(raw: dict, seed: int) -> tuple[bool, list[float]]:
    """Whether ``verify``'s holder rows, npv_rewards and control_value, are
    past its gate's |z| at ``seed``, and their z."""
    rows = run_verify(parse_config({**raw, "seed": seed})).rows
    z = [row.z_score for row in rows if row.swept_value in ("npv_rewards", "control_value")]
    return any(abs(score) > Z_LIMIT for score in z), z


def _runs(run, raw: dict, seeds) -> tuple[int, str]:
    """The failing runs of ``run`` on ``raw`` over ``seeds``, and the z distribution."""
    failed, z = 0, []
    for seed in seeds:
        fails, scores = run(raw, seed)
        failed += fails
        z += scores
    spread = f"z mean {statistics.fmean(z):+.2f}, sd {statistics.stdev(z):.2f}, max |z| {max(map(abs, z)):.2f}"
    return failed, f"{failed} of {len(seeds)} runs fail; {spread}"


_LOGNORMAL_1 = {"kind": "lognormal", "mean": 1.0, "sigma_log": 1.0}
_SAMPLE_STDERR = pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the gates take the sample stderr")
_CALIBRATION = [
    *(pytest.param(_verify, {"n": n, "d": PAPER_D, "reward": reward}, range(20), id=f"{law}_paper_regime_n{n}")
      for law, reward in (("lognormal_sigma2", _LOGNORMAL_2), ("pareto_2.5", _PARETO_2_5))
      for n in (1024, 16384)),
    pytest.param(_verify, {"n": 8, "d": 0.05, "trials": 2000, "reward": {"kind": "pareto", "shape": 4.5}},
                 range(200), id="pareto_4.5"),
    pytest.param(_verify, {"n": 1024, "d": 0.01, "trials": 8192, "reward": _LOGNORMAL_1},
                 range(60), id="lognormal_sigma1"),
    pytest.param(_pool_solo, {"n": 1024, "d": 0.01, "trials": 8192, "pool": {"k": 16}, "reward": _LOGNORMAL_1},
                 range(60), id="pool_solo_variance"),
    # At beta = 0 a holder block draws one Binomial(sum of stops, k/n) count,
    # and the holder rows' stderr is exact given the stops.
    *(pytest.param(_holder_rows, raw, range(60), id=f"holder_rows_{name}")
      for name, raw in (("defaults", {}), ("paper_regime_n1024", {"n": 1024, "d": PAPER_D, "reward": _LOGNORMAL_2}))),
    # The payoff's mass sits in wins so early that 100 trials miss them, and
    # the sample stderr is then 0; the null stderr of item 1 mends it.
    pytest.param(_verify, {"n": 4096, "d": 10.0, "trials": 100}, range(10), id="large_nd_few_trials",
                 marks=_SAMPLE_STDERR),
]


@pytest.mark.parametrize("run, raw, seeds", _CALIBRATION)
def test_correct_closed_forms_pass(run, raw, seeds):
    failed, summary = _runs(run, raw, seeds)
    assert failed == 0, summary


def _corrupt_ticket_value(monkeypatch):
    """A ticket value's closed form 5% too large."""
    entry = QUANTITIES[Quantity.TICKET_VALUE]
    monkeypatch.setitem(QUANTITIES, Quantity.TICKET_VALUE,
                        entry._replace(closed=lambda run: 1.05 * entry.closed(run)))


class _HalvedChanceDoubledWins:
    """A generator whose binomial draws are K = 2 Binomial(N, p/2): the mean
    of K given N holds, and its variance about doubles. At beta = 0 the one
    draw is a holder block's, 2 Binomial(sum of stops, p/2)."""

    def __init__(self, rng):
        self.rng = rng

    def binomial(self, trials, p):
        return 2 * self.rng.binomial(trials, p / 2.0)

    def __getattr__(self, name):
        return getattr(self.rng, name)


def _double_holder_win_variance(monkeypatch):
    kernel = engine._holder_count_block
    monkeypatch.setattr(engine, "_holder_count_block",
                        lambda rng, *args: kernel(_HalvedChanceDoubledWins(rng), *args))


_DEFAULTS = {}
_PAPER_POINTS = [{"n": n, "d": PAPER_D, "reward": _LOGNORMAL_2} for n in (1024, 16384)]

_POWER = [
    pytest.param(_inflate_tracked_payoffs, [_DEFAULTS, *_PAPER_POINTS], range(10), id="payoff_x1.5"),
    pytest.param(_corrupt_ticket_value, [_DEFAULTS, *_PAPER_POINTS], range(3), id="corrupted_closed_form"),
    pytest.param(_double_holder_win_variance, [_DEFAULTS], range(10), id="holder_wins_variance_doubled",
                 marks=pytest.mark.xfail(strict=True, reason=(
                     "ROADMAP item 15: at beta = 0 the holder rows' stderr is computed from p, so no "
                     "row samples K's variance; item 15's row brings the per-row draw"))),
]


@pytest.mark.parametrize("mutate, configs, seeds", _POWER)
def test_mutations_fail_verify(monkeypatch, mutate, configs, seeds):
    mutate(monkeypatch)
    for raw in configs:
        failed, summary = _runs(_verify, raw, seeds)
        assert failed == len(seeds), (raw, summary)
