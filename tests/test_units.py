"""Results that must not depend on the reward's unit: the oracle rows at
every scale, and the Monte Carlo statistics where a deviation's 4th power
would leave the float range."""

import json
import math
import warnings

import pytest

from ticketsim import engine
from ticketsim.cli import main
from ticketsim.config import parse_config
from ticketsim.harness import run_analytic, run_pool, run_verify

_REWARDS = {
    "constant": lambda mean: {"kind": "constant", "mean": mean},
    "lognormal": lambda mean: {"kind": "lognormal", "mean": mean, "sigma_log": 1.0},
}


@pytest.mark.parametrize("reward", list(_REWARDS))
@pytest.mark.parametrize("j", [-150, -12, 0, 12, 15, 40, 150])
def test_oracle_rows_do_not_depend_on_the_reward_unit(reward, j):
    # At n = 1 a constant reward's variance is exactly 0; an oracle that
    # rounds E[V^2] and E[V]^2 separately misses that by their rounding,
    # which grows with the unit.
    for n in (1, 2, 3, 32, 1024):
        for d in (1e-6, 0.01, 1.0, 100.0):
            rows = run_analytic(parse_config({"n": n, "d": d, "reward": _REWARDS[reward](10.0**j)}))
            bad = [(row.swept_value, row.rel_err) for row in rows if not row.rel_err <= 1e-9]
            assert not bad, (n, d, bad)


def test_variance_keeps_its_digits_where_it_is_subnormal():
    # 6e-316 carries about 8 digits; a form that rounds twice into that range
    # misses the oracle by 8e-9.
    rows = run_analytic(parse_config({"n": 3, "d": 1e-8, "reward": _REWARDS["constant"](1e-150)}))
    variance = next(row for row in rows if row.swept_value == "ticket_value_variance")
    assert variance.closed_form < 1e-315 and variance.rel_err <= 1e-9


@pytest.mark.parametrize("reward", list(_REWARDS))
def test_verify_gates_do_not_depend_on_the_reward_unit(monkeypatch, reward):
    # A stderr floor or a gate floor in absolute terms zeroes every stderr of
    # a run in a small unit and then waves through payoffs half again too
    # large. In powers of two a constant reward's samples scale exactly, so
    # its z scores are the same bits; a lognormal's move by rounding.
    def verify():
        runs = [run_verify(parse_config({"n": 32, "d": 0.01, "trials": 20_000, "seed": 3,
                                         "reward": _REWARDS[reward](2.0**j)})) for j in (-40, 0, 40)]
        return ([outcome.failures for outcome in runs],
                [[row.z_score for row in outcome.rows] for outcome in runs])

    failures, z = verify()
    assert failures == [[]] * 3
    tracked = engine._tracked_block

    def inflated(*args):
        payoff, truncated, slots = tracked(*args)
        return 1.5 * payoff, truncated, slots

    monkeypatch.setattr(engine, "_tracked_block", inflated)
    broken, broken_z = verify()
    assert broken == [["ticket_value", "total_ticket_value", "issued_market_cap", "ticket_value_variance"]] * 3
    for scores in (z, broken_z):
        for other in scores[::2]:
            if reward == "constant":
                assert other == scores[1]
            else:
                assert other == pytest.approx(scores[1], rel=1e-12, abs=0)


def _write(tmp_path, cfg):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.mark.parametrize("cfg", [
    # The n = 1 variance oracle of a unit of 1e12.
    {"n": 1, "d": 0.01, "trials": 1000, "reward": {"kind": "constant", "mean": 1e12}},
    # Deviations of 1e77 raised to the 4th power.
    {"n": 8, "d": 0.05, "trials": 1000, "reward": {"kind": "constant", "mean": 1e78}},
])
def test_verify_passes_at_large_reward_units(tmp_path, cfg):
    assert main(["verify", "--config", _write(tmp_path, cfg), "--out", str(tmp_path / "r.csv")]) == 0


def test_pool_stderrs_stay_finite_at_a_large_reward_unit():
    cfg = parse_config({"n": 64, "trials": 1000, "pool": {"k": 8},
                        "reward": {"kind": "constant", "mean": 1e150}})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = run_pool(cfg)
    assert all(math.isfinite(row.mc_mean) and math.isfinite(row.mc_stderr) for row in rows)
