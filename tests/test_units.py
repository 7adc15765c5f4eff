"""Results that must not depend on the reward's unit: the oracle rows at
every scale, the Monte Carlo statistics where a deviation's 4th power
would leave the float range, and every sampling command's values and
verdicts."""

import contextlib
import io
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


# The verify rows that a tracked ticket's payoffs half again too large fail.
_INFLATED_ROWS = ["ticket_value", "total_ticket_value", "issued_market_cap", "ticket_value_variance"]


def _inflate_tracked_payoffs(monkeypatch):
    tracked = engine._tracked_block

    def inflated(*args):
        payoff, truncated, slots = tracked(*args)
        return 1.5 * payoff, truncated, slots

    monkeypatch.setattr(engine, "_tracked_block", inflated)


@pytest.mark.parametrize("reward", list(_REWARDS))
def test_verify_gates_do_not_depend_on_the_reward_unit(monkeypatch, reward):
    # A stderr floor or a gate floor in absolute terms zeroes every stderr of
    # a run in a small unit and then waves through payoffs half again too
    # large. In powers of two the samples, which are mu x^T whatever the law,
    # and the reward's moments scale exactly, so the z scores are the same bits.
    def verify():
        runs = [run_verify(parse_config({"n": 32, "d": 0.01, "trials": 20_000, "seed": 3,
                                         "reward": _REWARDS[reward](2.0**j)})) for j in (-40, 0, 40)]
        return ([outcome.failures for outcome in runs],
                [[row.z_score for row in outcome.rows] for outcome in runs])

    failures, z = verify()
    assert failures == [[]] * 3
    _inflate_tracked_payoffs(monkeypatch)
    broken, broken_z = verify()
    assert broken == [_INFLATED_ROWS] * 3
    for scores in (z, broken_z):
        assert scores[0] == scores[1] == scores[2]


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


# ROADMAP item 8's full test: each sampling command at reward units 2^j.
_SCALES = (-480, -40, 0, 40, 240)
_SAMPLING = {
    "verify": {},
    "simulate": {},
    "pool": {"pool": {"k": 4}},
    "multiblock": {"multiblock": {"beta": 0.5}},
}


def _scale_exponent(row: str) -> int:
    """The power of the reward unit that ``row``'s values carry."""
    return 0 if row == "time_to_win" else 2 if "variance" in row else 1


def _run_at_scale(tmp_path, command, reward, j) -> tuple[int, list, dict]:
    """``command``'s exit code, the rows it prints as failing and its report
    rows by name, run in-process on 2000 trials at reward mean 2^j."""
    cfg = {**_SAMPLING[command], "trials": 2000, "seed": 3, "reward": _REWARDS[reward](2.0**j)}
    report = tmp_path / "report.jsonl"
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main([command, "--config", _write(tmp_path, cfg), "--format", "jsonl", "--out", str(report)])
    failed = [line.split()[0] for line in out.getvalue().splitlines() if line.endswith("  FAIL")]
    records = [json.loads(line) for line in report.read_text().splitlines()]
    return code, failed, {str(r["swept_value"]): r for r in records if r["type"] == "row"}


@pytest.mark.parametrize("reward", list(_REWARDS))
@pytest.mark.parametrize("command", list(_SAMPLING))
def test_sampling_verdicts_do_not_depend_on_the_reward_unit(tmp_path, monkeypatch, command, reward):
    runs = {j: _run_at_scale(tmp_path, command, reward, j)[:2] for j in _SCALES}
    assert runs == {j: (0, []) for j in _SCALES}
    if command != "verify":
        return
    _inflate_tracked_payoffs(monkeypatch)
    assert {j: _run_at_scale(tmp_path, command, reward, j)[:2] for j in _SCALES} == {
        j: (1, _INFLATED_ROWS) for j in _SCALES}


@pytest.mark.parametrize("reward", list(_REWARDS))
@pytest.mark.parametrize("command", list(_SAMPLING))
def test_sampling_values_scale_exactly_with_the_reward_unit(tmp_path, command, reward):
    # In powers of two a sample, its moments and the closed forms scale
    # exactly, so z keeps its bits, and so does a relative error (an
    # absolute one, where the closed form is 0, scales with the row).
    unit = _run_at_scale(tmp_path, command, reward, 0)[2]
    for j in _SCALES:
        rows = _run_at_scale(tmp_path, command, reward, j)[2]
        assert list(rows) == list(unit)
        for name, row in rows.items():
            scale = 2.0 ** (j * _scale_exponent(name))
            at_unit = {**unit[name], "rel_err": unit[name]["rel_err"] * (scale if row["closed_form"] == 0 else 1)}
            for key in ("closed_form", "mc_mean", "mc_stderr"):
                at_unit[key] *= scale
            assert {key: row[key] for key in at_unit} == at_unit, (name, j)
