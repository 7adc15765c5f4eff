"""Config ingestion, report emission, the verify/sweep runners, and the CLI."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ticketsim
from ticketsim import cli, config as config_module, engine, quantities
from ticketsim.analytics import control_value, expected_ticket_value, npv_rewards
from ticketsim.cli import main
from ticketsim.config import load_config, parse_config, resolve
from ticketsim.errors import ConfigError
from ticketsim.harness import (
    _mc_gate,
    run_analytic,
    run_multiblock,
    run_pool,
    run_pricing,
    run_simulate,
    run_sweep,
    run_verify,
)
from ticketsim.quantities import (
    POOL, PRICING, QUANTITIES, Entry, Quantity, Run, entries, estimate, power_sums,
)
from ticketsim.report import emit_report, load_report, make_row, relative_gap

MINIMAL = {"n": 10, "d": 0.01, "reward": {"kind": "constant", "mean": 1}, "trials": 1000, "seed": 42}


def small_cfg(**overrides):
    raw = {
        "n": 8,
        "d": 0.05,
        "reward": {"kind": "constant", "mean": 1.0},
        "trials": 2000,
        "seed": 42,
    }
    raw.update(overrides)
    return parse_config(raw)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


def test_minimal_config_valid():
    cfg = parse_config(MINIMAL)
    assert cfg.n == 10 and cfg.d == 0.01 and cfg.trials == 1000 and cfg.seed == 42
    assert cfg.workers == 1  # default materialized
    assert cfg.reward.mean() == 1.0


def test_config_defaults_echoed():
    _, echo = resolve({"n": 10, "reward": {"kind": "constant", "mean": 1}, "workers": 2,
                       "output": {"format": "jsonl"}}, "simulate")
    # Defaults materialized, sections normalized; result-neutral keys stay out
    # of the echo so reports are byte-stable across worker counts and output
    # destinations.
    assert echo == {"seed": 42, "trials": 100_000, "n": 10, "d": 0.01, "timings": False,
                    "reward": {"kind": "constant", "mean": 1.0}, "quantity": "ticket_value",
                    "holder_share": None}
    assert resolve(echo, "simulate")[1] == echo
    assert resolve({}, "pricing")[1]["policy"] == {"kind": "fair_value"}


def test_config_unknown_key_paths():
    with pytest.raises(ConfigError, match="trails"):
        parse_config({**MINIMAL, "trails": 5})
    with pytest.raises(ConfigError, match="reward.sigma"):
        parse_config({**MINIMAL, "reward": {"kind": "constant", "sigma": 1}})
    with pytest.raises(ConfigError, match="sweep.values"):
        parse_config({**MINIMAL, "sweep": {"parameter": "n", "values": []}})
    with pytest.raises(ConfigError, match="sweep.values"):
        parse_config({**MINIMAL, "sweep": {"parameter": "d", "values": [0.1, 0.0]}})
    with pytest.raises(ConfigError, match="trials"):
        parse_config({**MINIMAL, "trials": 50})
    with pytest.raises(ConfigError, match="pool"):
        parse_config({**MINIMAL, "pool": {"k": 50}})


def test_config_pool_takes_only_k():
    with pytest.raises(ConfigError, match="pool.shares: unknown key"):
        parse_config({**MINIMAL, "pool": {"shares": [0.99, 0.01]}})
    with pytest.raises(ConfigError, match="pool.k"):
        parse_config({**MINIMAL, "pool": {}})
    with pytest.raises(ConfigError, match="pool.k"):
        parse_config({**MINIMAL, "pool": {"k": 0}})
    assert resolve({**MINIMAL, "pool": {"k": 2}}, "pool")[1]["pool"] == {"k": 2}


def test_config_sweep_quantity_needs_oracle_and_estimator():
    with pytest.raises(ConfigError, match="sweep.quantity"):
        parse_config({**MINIMAL, "sweep": {"parameter": "n", "values": [1, 2], "quantity": "holder_value"}})


def test_config_k_sweep_rejects_pool_larger_than_n():
    with pytest.raises(ConfigError, match=r"sweep\.values\[1\]: pool size 64 exceeds ticket count n=32"):
        parse_config({**MINIMAL, "n": 32, "sweep": {"parameter": "k", "values": [2, 64]}})
    assert parse_config({**MINIMAL, "n": 32, "sweep": {"parameter": "k", "values": [32]}}).sweep.values == (32,)


@pytest.mark.parametrize("parameter", ["beta", "k", "p"])
def test_config_sweep_quantity_rejected_for_experiment_parameters(parameter):
    sweep = {"parameter": parameter, "values": [1], "quantity": "control_value"}
    with pytest.raises(ConfigError, match="sweep.quantity"):
        parse_config({**MINIMAL, "sweep": sweep})


@pytest.mark.parametrize("mc", [False, True])
@pytest.mark.parametrize("parameter", ["beta", "k"])
def test_config_sweep_mc_rejected_for_sampled_parameters(parameter, mc):
    # beta and k sweeps always sample, so "mc" would be ignored.
    sweep = {"parameter": parameter, "values": [1], "mc": mc}
    with pytest.raises(ConfigError, match=f"sweep.mc: not used when sweeping {parameter}"):
        parse_config({**MINIMAL, "sweep": sweep})


def test_config_reward_kinds():
    lognormal = parse_config({**MINIMAL, "reward": {"kind": "lognormal", "mean": 2.0, "sigma_log": 0.5}})
    assert lognormal.reward.mean() == 2.0     # held as given
    # A mu_log gives the mean exp(mu_log + sigma_log^2 / 2), which the echo writes.
    _, echo = resolve({**MINIMAL, "reward": {"kind": "lognormal", "mu_log": 0.5, "sigma_log": 1.0}}, "simulate")
    assert echo["reward"] == {"kind": "lognormal", "mean": math.exp(1.0), "sigma_log": 1.0}
    for mu_log, mean in ((-800.0, "0.0"), (800.0, "inf")):
        with pytest.raises(ConfigError, match=f"reward.mu_log: gives the mean {mean}, not finite and > 0"):
            parse_config({**MINIMAL, "reward": {"kind": "lognormal", "mu_log": mu_log, "sigma_log": 1.0}})
    pareto = parse_config({**MINIMAL, "reward": {"kind": "pareto", "shape": 3.0, "scale": 1.0}})
    assert pareto.reward.kind == "pareto"
    with pytest.raises(ConfigError, match="reward.kind"):
        parse_config({**MINIMAL, "reward": {"kind": "uniform"}})
    with pytest.raises(ConfigError, match="shape"):
        parse_config({**MINIMAL, "reward": {"kind": "pareto", "shape": 2.0}})


def test_config_empirical_reward(tmp_path):
    csv = tmp_path / "r.csv"
    csv.write_text("reward_eth\n1.0\n3.0\n")
    cfg = parse_config({**MINIMAL, "reward": {"kind": "empirical", "path": str(csv)}})
    assert cfg.reward.mean() == 2.0
    echoed = resolve({**MINIMAL, "reward": {"kind": "empirical", "path": str(csv)}}, "verify")[1]
    assert echoed["reward"] == {"kind": "empirical", "path": str(csv)}
    with pytest.raises(ConfigError, match="reward.path"):
        parse_config({**MINIMAL, "reward": {"kind": "empirical", "path": str(tmp_path / "absent.csv")}})


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(MINIMAL))
    assert load_config(path).n == 10
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(path)


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------


def _rows():
    return [
        make_row("alpha", 1.0, 1.0000001, 0.001, 500, 2.5e-10),
        make_row(16, 2.0 / 3.0, 0.6667, 0.002, 500, 1e-12),
    ]


def test_emit_csv_shape(tmp_path):
    path = tmp_path / "report.csv"
    emit_report(_rows()[:1], "csv", path)
    lines = path.read_text().splitlines()
    assert len(lines) == 2  # one header line + one data line
    assert lines[0].split(",")[0] == "swept_value"
    emit_report(_rows()[:1], "csv", path, config={"seed": 1})
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config=")
    assert len(lines) == 3


def test_emit_report_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    config = {"seed": 1, "reward": {"kind": "constant", "mean": 1.0}}
    emit_report(_rows(), "csv", a, config=config, verdicts={"z": True, "a": False})
    emit_report(_rows(), "csv", b, config=config, verdicts={"a": False, "z": True})
    assert a.read_bytes() == b.read_bytes()
    ja, jb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    emit_report(_rows(), "jsonl", ja, config=config)
    emit_report(_rows(), "jsonl", jb, config=config)
    assert ja.read_bytes() == jb.read_bytes()


def test_jsonl_roundtrip(tmp_path):
    path = tmp_path / "report.jsonl"
    config = {"seed": 3, "n": 4}
    emit_report(_rows(), "jsonl", path, config=config, verdicts={"mono": True})
    rows, loaded_config, verdicts = load_report(path)
    assert rows == _rows()
    assert loaded_config == config
    assert verdicts == {"mono": True}


def test_emit_rejects_empty(tmp_path):
    with pytest.raises(ValueError):
        emit_report([], "csv", tmp_path / "x.csv")
    with pytest.raises(ValueError):
        emit_report(_rows(), "xml", tmp_path / "x.xml")


def test_csv_renders_17_significant_digits(tmp_path):
    path = tmp_path / "r.csv"
    third = 1.0 / 3.0
    emit_report([make_row("x", third, third, 0.0, 0, 0.0)], "csv", path)
    data_line = path.read_text().splitlines()[1]
    assert "0.33333333333333331" in data_line
    assert float(data_line.split(",")[1]) == third  # exact round trip


# ---------------------------------------------------------------------------
# Verify runner
# ---------------------------------------------------------------------------


def test_run_verify_passes_default_small():
    outcome = run_verify(small_cfg())
    assert not outcome.failures, f"failures: {outcome.failures}"
    assert [row.swept_value for row in outcome.rows] == [
        "npv_rewards",
        "ticket_value",
        "total_ticket_value",
        "issued_market_cap",
        "time_to_win",
        "ticket_value_derivative",
        "control_value",
        "control_value_derivative",
        "ticket_value_variance",
    ]
    for row in outcome.rows:
        assert row.rel_err <= 1e-9


def test_run_verify_single_ticket_edge():
    outcome = run_verify(small_cfg(n=1))
    assert not outcome.failures, f"failures: {outcome.failures}"
    t2 = next(r for r in outcome.rows if r.swept_value == "ticket_value")
    assert t2.mc_stderr <= 1e-12  # constant reward, deterministic win slot


def test_run_verify_detects_corrupted_closed_form(monkeypatch):
    clean = run_verify(small_cfg()).rows
    entry = QUANTITIES[Quantity.TICKET_VALUE]
    monkeypatch.setitem(
        QUANTITIES, Quantity.TICKET_VALUE, entry._replace(closed=lambda run: 0.9)
    )
    # The ticket payoffs' sums are shifted by their closed-form mean; moving
    # that shift to the corrupted value too moves no estimate beyond rounding.
    sampler, stream, _ = quantities.ENSEMBLES["tracked"]
    monkeypatch.setitem(quantities.ENSEMBLES, "tracked", (sampler, stream, lambda run: {
        "reduce": partial(quantities.block_sums, shifts=(0.9, float(run.n)), orders=(4, 2))}))
    outcome = run_verify(small_cfg())
    assert outcome.failures == ["ticket_value"]
    for a, b in zip(clean, outcome.rows):
        assert a.mc_mean == pytest.approx(b.mc_mean, rel=1e-12, abs=0), a.swept_value
        assert a.mc_stderr == pytest.approx(b.mc_stderr, rel=1e-12, abs=0), a.swept_value


@settings(max_examples=25, deadline=None, derandomize=True)
@given(shape=st.floats(min_value=2.0, max_value=12.0, exclude_min=True))
def test_verify_passes_every_pareto_shape_above_two(shape):
    # The tracked rows draw no reward, so the ticket_value_variance gate takes
    # the stderr of a sample variance of mu x^T, and the reward enters only
    # through its exact variance: shape > 2, which the parser requires, is
    # all that verify needs.
    cfg = small_cfg(reward={"kind": "pareto", "shape": shape, "scale": 1.0}, trials=1000)
    outcome = run_verify(cfg)
    assert not outcome.failures, f"failures: {outcome.failures}"
    assert all(row.rel_err <= 1e-9 for row in run_analytic(cfg))
    [row] = run_simulate(cfg._replace(quantity="ticket_value_variance"))
    assert math.isfinite(row.mc_mean) and row.mc_stderr > 0.0


def test_run_verify_lognormal_rewards():
    cfg = small_cfg(reward={"kind": "lognormal", "mean": 1.0, "sigma_log": 1.0}, trials=5000)
    outcome = run_verify(cfg)
    assert not outcome.failures, f"failures: {outcome.failures}"


_SAMPLERS = ("sample_ticket_payoffs", "sample_holder_flows", "sample_pool_payoffs")


def _simulate_every_quantity(cfg):
    run = Run(cfg.params, 0.125, trials=cfg.trials, seed=cfg.seed)
    return [entry.estimate(run) for _, entry in entries(estimator=True)]


@pytest.mark.parametrize("command, section, drawn", [
    (run_verify, {}, {"sample_ticket_payoffs": [0], "sample_holder_flows": [3]}),
    (run_pool, {"pool": {"k": 4}}, {"sample_pool_payoffs": [0]}),
    (run_multiblock, {"multiblock": {"beta": 0.5}}, {"sample_holder_flows": [3]}),
    (_simulate_every_quantity, {}, {"sample_ticket_payoffs": [0], "sample_holder_flows": [3]}),
], ids=["verify", "pool", "multiblock", "simulate"])
def test_each_ensemble_is_drawn_at_most_once_per_run_on_its_stream(monkeypatch, command, section, drawn):
    # However many rows read an ensemble, a run draws it once, on the stream
    # that ENSEMBLES declares.
    streams = {name: [] for name in _SAMPLERS}
    for name in _SAMPLERS:
        def counted(*args, _sample=getattr(engine, name), _streams=streams[name], **kwargs):
            _streams.append(kwargs["stream"])
            return _sample(*args, **kwargs)

        monkeypatch.setattr(engine, name, counted)
    command(parse_config({"trials": 1000, **section}))
    assert streams == {name: drawn.get(name, []) for name in _SAMPLERS}


def test_run_verify_holder_rows_are_the_controlled_flows_of_one_ensemble():
    # npv_rewards and control_value read one holder ensemble on stream 3,
    # as holder_value does: the default share 0.125 of 32 tickets holds k = 4.
    cfg = parse_config({})
    rows = {row.swept_value: row for row in run_verify(cfg).rows}
    gross, net, stops = engine.sample_holder_flows(cfg.params, 4, cfg.trials, cfg.seed,
                                                   replacement_price=expected_ticket_value(1.0, 0.01, 32), stream=3)
    # Each flow is controlled by its stop: v - (its mean per slot) (N - 1/d),
    # at p = 4/32 and d = 0.01.
    gross = gross - 0.125 * (stops - 100.0)
    net = net - 0.125 * (1.0 - expected_ticket_value(1.0, 0.01, 32)) * (stops - 100.0)
    # The rows read the block-streamed sums; the array helpers sum the whole
    # arrays, so the two agree to rounding, not bit for bit.
    control = rows["control_value"]
    mean, stderr = power_sums(net, float(net.mean()), 2).mean_stderr()    # rescaled by 0.125*32/4 = 1
    assert control.mc_mean == pytest.approx(mean, rel=1e-12, abs=0)
    assert control.mc_stderr == pytest.approx(stderr, rel=1e-12, abs=0)
    mean, stderr = power_sums(gross, float(gross.mean()), 2).mean_stderr()
    assert rows["npv_rewards"].mc_mean == pytest.approx(8 * mean, rel=1e-12, abs=0)
    assert rows["npv_rewards"].mc_stderr == pytest.approx(8 * stderr, rel=1e-12, abs=0)
    # npv_rewards is n/k = 8 times holder_value, the mean gross flow of the k = 4 tickets.
    holder = QUANTITIES[Quantity.HOLDER_VALUE].estimate(Run(cfg.params, 0.125, trials=cfg.trials, seed=cfg.seed))
    assert (rows["npv_rewards"].mc_mean, rows["npv_rewards"].mc_stderr) == (8 * holder.mean, 8 * holder.stderr)


def test_npv_rewards_gate_holds_with_lognormal_rewards():
    # n/k times the gross flow of k tickets is unbiased for mu/d, and its gate
    # holds on each of seeds 0-9 with skewed rewards.
    entry = QUANTITIES[Quantity.NPV_REWARDS]
    params = parse_config({"reward": {"kind": "lognormal", "mean": 1.0, "sigma_log": 1.0}}).params
    for seed in range(10):
        run = Run(params, trials=20_000, seed=seed, default_share=True)
        est = entry.estimate(run)
        assert _mc_gate(est.mean, entry.closed(run), est.stderr), seed


def test_holder_rows_z_over_seeds_are_unbiased_with_honest_stderrs():
    # The holder flows stop at a random slot and are controlled by it: over
    # seeds 0-59 at the defaults (20 000 trials), each holder row's z has a
    # mean within 0.3 of 0 and a standard deviation in [0.8, 1.2].
    params = parse_config({}).params
    holder_rows = (Quantity.NPV_REWARDS, Quantity.CONTROL_VALUE, Quantity.HOLDER_VALUE)
    z = {quantity: [] for quantity in holder_rows}
    for seed in range(60):
        run = Run(params, 0.125, trials=20_000, seed=seed)
        for quantity in holder_rows:
            entry = QUANTITIES[quantity]
            est = entry.estimate(run)
            z[quantity].append((est.mean - entry.closed(run)) / est.stderr)
    for quantity, scores in z.items():
        mean = math.fsum(scores) / len(scores)
        sd = math.sqrt(math.fsum((s - mean) ** 2 for s in scores) / (len(scores) - 1))
        assert abs(mean) < 0.3 and 0.8 <= sd <= 1.2, (quantity, mean, sd)


def test_run_verify_pure_defaults():
    # Empty config: n=32, d=0.01, constant unit reward, 1e5 trials, seed 42.
    outcome = run_verify(parse_config({}))
    assert not outcome.failures, f"failures: {outcome.failures}"
    assert len(outcome.rows) == 9


@pytest.mark.parametrize("n", [2, 3])
def test_run_verify_passes_at_small_n(n):
    # At n = 2 and 3, E[V^2] and E[V]^2 agree to ~4 digits; their difference
    # must still match the variance closed form within the 1e-9 tolerance.
    outcome = run_verify(parse_config({"n": n, "trials": 20_000}))
    assert not outcome.failures, f"failures: {outcome.failures}"
    variance = next(row for row in outcome.rows if row.swept_value == "ticket_value_variance")
    assert variance.rel_err <= 1e-11


# ---------------------------------------------------------------------------
# Sweep runner
# ---------------------------------------------------------------------------


def test_sweep_over_n_monotone_verdicts():
    cfg = small_cfg(sweep={"parameter": "n", "values": [1, 4, 16, 64, 256]})
    rows, verdicts = run_sweep(cfg)
    closed = [row.closed_form for row in rows]
    assert [row.swept_value for row in rows] == [1, 4, 16, 64, 256]
    assert all(b < a for a, b in zip(closed, closed[1:]))
    assert verdicts["ticket_value_strictly_decreasing_in_n"] is True
    assert verdicts["control_value_strictly_increasing_in_n"] is True
    for row in rows:
        assert row.rel_err <= 1e-9  # oracle agreement per value


def test_sweep_over_d_npv_column():
    cfg = small_cfg(n=10, sweep={"parameter": "d", "values": [0.001, 0.01, 0.1]})
    rows, verdicts = run_sweep(cfg)
    assert [row.closed_form for row in rows] == [1000.0, 100.0, 10.0]
    assert verdicts == {}


def test_sweep_with_mc_column():
    cfg = small_cfg(sweep={"parameter": "n", "values": [2, 8], "mc": True}, trials=5000)
    rows, _ = run_sweep(cfg)
    for row in rows:
        assert row.trials == 5000
        assert abs(row.z_score) < 5.0


@pytest.mark.parametrize("quantity", [q.value for q, _ in entries(oracle=True, estimator=True)])
def test_sweep_mc_runs_for_every_sweepable_quantity(quantity):
    # holder_share 0.1 of 8 or 16 tickets holds 1 or 2: the control-value
    # estimate must rescale the held share to the configured one.
    sweep = {"parameter": "n", "values": [8, 16], "quantity": quantity, "mc": True}
    rows, _ = run_sweep(small_cfg(sweep=sweep, holder_share=0.1, trials=2000))
    for row in rows:
        assert row.trials == 2000
        assert abs(row.z_score) < 5.0


def test_sweep_over_beta_premium_direction():
    cfg = small_cfg(n=10, sweep={"parameter": "beta", "values": [0.0, 0.5]}, trials=2000, holder_share=0.2)
    rows, _ = run_sweep(cfg)
    assert rows[1].mc_mean - rows[1].closed_form > rows[0].mc_mean - rows[0].closed_form


def test_sweep_requires_section():
    with pytest.raises(ConfigError, match="sweep"):
        run_sweep(small_cfg())


def test_sweep_mu_over_pareto_rejected():
    with pytest.raises(ConfigError, match="sweep.parameter: cannot sweep mu over a pareto reward"):
        small_cfg(reward={"kind": "pareto", "shape": 3.0, "scale": 1.0},
                  sweep={"parameter": "mu", "values": [1.0, 2.0]})


_SWEEP_BASE = {**MINIMAL, "reward": {"kind": "lognormal", "mean": 1.0, "sigma_log": 0.5}}


@pytest.mark.parametrize("parameter,value,keys", [
    ("n", 4, {"n": 4}),
    ("d", 1, {"d": 1}),
    ("mu", 2, {"reward": {"kind": "lognormal", "mean": 2, "sigma_log": 0.5}}),
    ("sigma_log", 2, {"reward": {"kind": "lognormal", "mean": 1.0, "sigma_log": 2}}),
    ("beta", 0.5, {"multiblock": {"beta": 0.5}}),
    ("k", 2, {"pool": {"k": 2}}),
    ("p", 0.5, {"holder_share": 0.5}),
])
def test_sweep_value_config_is_the_base_with_the_key_set(parameter, value, keys):
    sweep = parse_config({**_SWEEP_BASE, "sweep": {"parameter": parameter, "values": [value]}}).sweep
    assert sweep.configs == (parse_config({**_SWEEP_BASE, **keys}),)


def test_sweep_value_config_takes_no_section_of_another_command():
    # pool.k = 16 exceeds n = 1, but a value of an n sweep reads no pool.
    raw = {"n": 32, "pool": {"k": 16}, "policy": {"kind": "fair_value"}, "multiblock": {"beta": 0.5},
           "sweep": {"parameter": "n", "values": [1, 64]}}
    assert [cfg.n for cfg in parse_config(raw).sweep.configs] == [1, 64]
    assert all(cfg.pool_size is None and cfg.multiblock is None for cfg in parse_config(raw).sweep.configs)


def test_sweep_reads_an_empirical_reward_once(tmp_path, monkeypatch):
    # Values that do not set the reward reuse the base config's.
    csv, reads = tmp_path / "r.csv", []
    csv.write_text("reward_eth\n1.0\n3.0\n")
    load = config_module.load_empirical_rewards
    monkeypatch.setattr(config_module, "load_empirical_rewards", lambda path: reads.append(path) or load(path))
    sweep = {"parameter": "n", "values": [1, 2, 4]}
    cfg = parse_config({**MINIMAL, "reward": {"kind": "empirical", "path": str(csv)}, "sweep": sweep})
    assert reads == [str(csv)]
    assert all(value.reward is cfg.reward for value in cfg.sweep.configs)


def test_beta_and_k_sweep_rows_are_their_commands_rows():
    [beta_row], _ = run_sweep(small_cfg(holder_share=0.25, sweep={"parameter": "beta", "values": [0.5]}))
    assert beta_row == run_multiblock(small_cfg(holder_share=0.25, multiblock={"beta": 0.5}))[0]
    # The k row's rel_err is the pooled variance's gap to the solo closed form.
    [k_row], _ = run_sweep(small_cfg(sweep={"parameter": "k", "values": [4]}))
    pooled = {row.swept_value: row for row in run_pool(small_cfg(pool={"k": 4}))}
    assert k_row == pooled["pooled_per_ticket_variance"]._replace(swept_value=4)


# ---------------------------------------------------------------------------
# Other runners
# ---------------------------------------------------------------------------


def test_run_analytic_rows():
    rows = run_analytic(small_cfg())
    names = [row.swept_value for row in rows]
    assert "npv_rewards" in names and "ticket_value_variance" in names
    for row in rows:
        assert row.trials == 0
        assert row.rel_err <= 1e-9


def test_analytic_timings_fill_runtime_per_row():
    plain = run_analytic(small_cfg())
    timed = run_analytic(small_cfg(timings=True))
    assert all(row.runtime_ms == 0.0 for row in plain)
    assert all(row.runtime_ms > 0.0 for row in timed)
    assert [row._replace(runtime_ms=0.0) for row in timed] == plain


def test_rel_err_is_the_oracle_gap_in_analytic_and_the_mc_gap_in_simulate():
    cfg = small_cfg(trials=5000)
    run = Run(cfg.params, cfg.holder_share, default_share=True)
    for row, (_, entry) in zip(run_analytic(cfg), entries(oracle=True, estimator=True)):
        assert row.mc_mean == entry.oracle(run)
        assert row.rel_err == relative_gap(row.mc_mean, row.closed_form)
    [row] = run_simulate(cfg)
    assert row.trials == 5000
    assert row.rel_err == relative_gap(row.mc_mean, row.closed_form) > 1e-6


def test_run_simulate_row():
    rows = run_simulate(small_cfg(trials=5000))
    assert len(rows) == 1
    row = rows[0]
    assert row.swept_value == "ticket_value"
    assert abs(row.z_score) < 5.0


@pytest.mark.parametrize("n", [2, 32])
def test_npv_rewards_needs_no_holder_share(n):
    # Without a share, the holder ensemble takes the default share's tickets,
    # or one ticket where 0.125 of n rounds to none.
    cfg = small_cfg(n=n, quantity="npv_rewards", trials=5000)
    [row] = run_simulate(cfg)
    est = estimate(cfg.params, Quantity.NPV_REWARDS, 5000, seed=42)
    assert (row.mc_mean, row.mc_stderr) == (est.mean, est.stderr)
    assert _mc_gate(est.mean, npv_rewards(1.0, 0.05), est.stderr)
    for quantity in ("control_value", "holder_value"):
        with pytest.raises(ConfigError, match="holder_share: required"):
            run_simulate(cfg._replace(quantity=quantity))


def test_run_pricing_defaults_to_fair_value():
    rows = run_pricing(small_cfg())
    by_name = {row.swept_value: row for row in rows}
    assert math.isclose(by_name["total"].closed_form, npv_rewards(1.0, 0.05), rel_tol=1e-12)
    assert abs(by_name["leakage"].closed_form) < 1e-9


def test_run_pricing_rows():
    cfg = small_cfg(policy={"kind": "fixed_margin", "margin": 0.1})
    rows = run_pricing(cfg)
    by_name = {row.swept_value: row for row in rows}
    assert set(by_name) == {"price", "initial_sale", "per_slot_stream_npv", "total", "leakage"}
    for row in rows:
        assert row.rel_err <= 1e-9
    assert math.isclose(
        by_name["total"].closed_form + by_name["leakage"].closed_form,
        npv_rewards(1.0, 0.05),
        rel_tol=1e-12,
    )


def test_run_pool_rows():
    cfg = small_cfg(pool={"k": 4}, trials=5000, reward={"kind": "lognormal", "mean": 1.0, "sigma_log": 0.5})
    rows = run_pool(cfg)
    by_name = {row.swept_value: row for row in rows}
    assert by_name["pooled_per_ticket_variance"].mc_mean < by_name["solo_variance"].mc_mean
    assert by_name["variance_gap"].mc_mean < 0.0


def test_run_pool_stderrs_finite_at_small_trial_counts():
    cfg = parse_config({"n": 64, "pool": {"k": 8}, "trials": 1000})
    rows = run_pool(cfg)
    assert all(math.isfinite(row.mc_stderr) and row.mc_stderr > 0.0 for row in rows)
    gap = next(row for row in rows if row.swept_value == "variance_gap")
    assert gap.mc_mean + 4.0 * gap.mc_stderr < 0.0


def _moved_rows(clean, rows, name, closed):
    """Assert that of ``rows`` only row ``name`` differs from ``clean``, and
    only in the closed form ``closed`` and the figures derived from it."""
    assert [row.swept_value for row in rows] == [row.swept_value for row in clean]
    for a, b in zip(clean, rows):
        if a.swept_value != name:
            assert b == a, a.swept_value
            continue
        assert b.closed_form == closed != a.closed_form
        assert b.rel_err != a.rel_err
        assert b == make_row(name, closed, a.mc_mean, a.mc_stderr, a.trials, b.rel_err)


def test_run_pool_reads_a_corrupted_pool_closed_form(monkeypatch):
    cfg = small_cfg(pool={"k": 4}, trials=2000, reward={"kind": "lognormal", "mean": 1.0, "sigma_log": 0.5})
    clean = run_pool(cfg)
    [k_clean], _ = run_sweep(small_cfg(trials=2000, sweep={"parameter": "k", "values": [4]}))
    entry = POOL["pooled_per_ticket_variance"]
    monkeypatch.setitem(POOL, "pooled_per_ticket_variance", entry._replace(closed=lambda run: 0.5))
    rows = run_pool(cfg)
    _moved_rows(clean, rows, "pooled_per_ticket_variance", 0.5)
    pooled = {row.swept_value: row for row in rows}["pooled_per_ticket_variance"]
    assert pooled.rel_err == relative_gap(pooled.mc_mean, 0.5)    # estimate mode
    # A k sweep reads the same entry.
    [k_row], _ = run_sweep(small_cfg(trials=2000, sweep={"parameter": "k", "values": [4]}))
    assert k_row.closed_form == 0.5 and k_row.mc_mean == k_clean.mc_mean


def test_run_pricing_reads_a_corrupted_pricing_closed_form(monkeypatch):
    cfg = small_cfg(policy={"kind": "fixed_discount", "discount": 0.25})
    clean = run_pricing(cfg)
    monkeypatch.setitem(PRICING, "total", PRICING["total"]._replace(closed=lambda run: 3.0))
    rows = run_pricing(cfg)
    _moved_rows(clean, rows, "total", 3.0)
    total = {row.swept_value: row for row in rows}["total"]
    assert total.rel_err == relative_gap(total.mc_mean, 3.0) > 1e-9    # check mode: the oracle's gap


def test_an_entry_added_to_a_table_is_a_row_of_its_command(monkeypatch):
    monkeypatch.setitem(PRICING, "twice_price", Entry(closed=lambda run: 2.0 * run.capture.price,
                                                      oracle=lambda run: run.capture.price + run.capture.price))
    rows = run_pricing(small_cfg())
    assert [row.swept_value for row in rows][-1] == "twice_price"
    assert rows[-1].closed_form == 2.0 * rows[0].closed_form and rows[-1].rel_err == 0.0
    solo = POOL["solo_variance"]
    monkeypatch.setitem(POOL, "solo_variance_again", solo)
    rows = {row.swept_value: row for row in run_pool(small_cfg(pool={"k": 2}))}
    assert rows["solo_variance_again"] == rows["solo_variance"]._replace(swept_value="solo_variance_again")


@pytest.mark.parametrize("parameter, values, entry, mode", [
    ("n", [4, 8], "ticket_value", "check"),
    ("d", [0.01], "npv_rewards", "check"),
    ("p", [0.25], "control_value", "check"),
    ("beta", [0.5], "holder_value", "estimate"),
    ("k", [2], "pooled_per_ticket_variance", "estimate"),
])
def test_sweep_spec_carries_the_entry_and_mode_of_its_rows(parameter, values, entry, mode):
    raw = {**MINIMAL, "sweep": {"parameter": parameter, "values": values}}
    sweep = parse_config(raw).sweep
    assert (sweep.entry, sweep.mode, sweep.mc) == (entry, mode, False)
    if parameter in ("n", "d"):    # a p sweep always reads control_value
        named = {**raw, "sweep": {**raw["sweep"], "quantity": "time_to_win", "mc": True}}
        sweep = parse_config(named).sweep
        assert (sweep.entry, sweep.mode, sweep.mc) == ("time_to_win", "check", True)
        # The echo names a quantity only where the config gives one.
        assert "quantity" not in resolve(raw, "sweep")[1]["sweep"]
        assert resolve(named, "sweep")[1]["sweep"]["quantity"] == "time_to_win"


def test_run_multiblock_row():
    cfg = small_cfg(multiblock={"beta": 0.5}, holder_share=0.25, trials=2000)
    rows = run_multiblock(cfg)
    assert rows[0].swept_value == 0.5
    assert rows[0].mc_mean > rows[0].closed_form  # positive premium
    with pytest.raises(ConfigError, match="multiblock"):
        run_multiblock(small_cfg())


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _write_config(tmp_path, **overrides):
    """A config file of a small run with ``overrides``; an override of None
    drops the key."""
    raw = {
        "n": 8,
        "d": 0.05,
        "reward": {"kind": "constant", "mean": 1.0},
        "trials": 2000,
        "seed": 42,
    }
    raw.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({key: value for key, value in raw.items() if value is not None}))
    return path


def test_cli_verify_pass_and_report(tmp_path, capsys):
    config = _write_config(tmp_path)
    out = tmp_path / "verify.csv"
    assert main(["verify", "--config", str(config), "--out", str(out)]) == 0
    assert "verify: PASS" in capsys.readouterr().out
    assert out.exists()
    header = out.read_text().splitlines()
    assert header[0].startswith("# config=")


def test_cli_verify_byte_identical_across_workers(tmp_path):
    config = _write_config(tmp_path)
    paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
    assert main(["verify", "--config", str(config), "--workers", "1", "--out", str(paths[0])]) == 0
    assert main(["verify", "--config", str(config), "--workers", "2", "--out", str(paths[1])]) == 0
    assert main(["verify", "--config", str(config), "--workers", "1", "--out", str(paths[2])]) == 0
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1] == blobs[2]


def test_cli_analytic_with_zero_discount_is_config_error(tmp_path, capsys):
    config = _write_config(tmp_path, d=0.0)
    assert main(["analytic", "--config", str(config)]) == 2
    assert "d: must be > 0" in capsys.readouterr().err


def test_cli_flag_precedence_over_file(tmp_path):
    config = _write_config(tmp_path, seed=1, trials=2000)
    out = tmp_path / "sim.jsonl"
    code = main([
        "simulate", "--config", str(config), "--seed", "9", "--trials", "1000",
        "--out", str(out), "--format", "jsonl",
    ])
    assert code == 0
    rows, resolved, _ = load_report(out)
    assert resolved["seed"] == 9
    assert resolved["trials"] == 1000
    assert rows[0].trials == 1000


def test_cli_simulate_holder_value_without_share_is_config_error(tmp_path, capsys):
    config = _write_config(tmp_path, quantity="holder_value")
    assert main(["simulate", "--config", str(config)]) == 2
    assert "holder_share" in capsys.readouterr().err


def test_cli_verify_share_rounding_to_zero_is_config_error(tmp_path, capsys):
    config = _write_config(tmp_path, n=32, holder_share=0.01, trials=200)
    assert main(["verify", "--config", str(config)]) == 2
    assert "holder_share: 0.01 rounds to zero of 32 tickets" in capsys.readouterr().err


def test_default_holder_share_is_the_same_for_every_command():
    # No holder_share: every command prices a holder of 0.125.
    expected = control_value(0.125, 1.0, 0.01, 32)
    base = {"n": 32, "d": 0.01, "reward": {"kind": "constant", "mean": 1.0}, "trials": 1000}
    analytic = {r.swept_value: r for r in run_analytic(parse_config(base))}
    assert analytic["control_value"].closed_form == expected
    sweep_cfg = {**base, "sweep": {"parameter": "n", "values": [32], "quantity": "control_value"}}
    assert run_sweep(parse_config(sweep_cfg))[0][0].closed_form == expected
    # multiblock prices the holder's gross flow: (k/n) * mu/d with k = 4.
    multiblock = run_multiblock(parse_config({**base, "multiblock": {"beta": 0.0}}))
    assert multiblock[0].closed_form == 4 / 32 * npv_rewards(1.0, 0.01)
    verify = {r.swept_value: r for r in run_verify(parse_config(base)).rows}
    assert verify["control_value"].closed_form == expected


def test_cli_unknown_config_key_exit_code(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({**MINIMAL, "bogus_key": 1}))
    assert main(["verify", "--config", str(config)]) == 2
    assert "bogus_key" in capsys.readouterr().err


def test_cli_sweep_emits_verdicts(tmp_path, capsys):
    config = _write_config(tmp_path, sweep={"parameter": "n", "values": [1, 10, 100]})
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
    text = out.read_text()
    assert "# verdict ticket_value_strictly_decreasing_in_n=true" in text
    assert text.count("\n") == 7  # config + 2 verdicts + header + 3 rows
    assert "verdict" in capsys.readouterr().out


def test_cli_pricing_pool_multiblock_smoke(tmp_path):
    pricing = _write_config(tmp_path, policy={"kind": "fair_value"}, trials=None)
    assert main(["pricing", "--config", str(pricing)]) == 0
    pool = _write_config(tmp_path, pool={"k": 4})
    assert main(["pool", "--config", str(pool)]) == 0
    multi = _write_config(tmp_path, multiblock={"beta": 0.25}, holder_share=0.25)
    assert main(["multiblock", "--config", str(multi)]) == 0


_BRANCH_CONFIGS = {
    "analytic": {"trials": None},
    "verify": {},
    "simulate": {},
    "sweep": {"sweep": {"parameter": "n", "values": [4, 8]}},
    "pricing": {"trials": None},
    "pool": {"pool": {"k": 4}},
    "multiblock": {"multiblock": {"beta": 0.25}, "holder_share": 0.25},
}


def _status_lines(stdout: str) -> list[str]:
    return [line for line in stdout.splitlines() if line.startswith(("verify:", "verdict "))]


def test_cli_main_takes_each_commands_branch(tmp_path, capsys, monkeypatch):
    # verify's outcome and a sweep's (rows, verdicts) are both tuples: main
    # must read failures from the one and verdicts from the other, and take
    # every other command's result as its rows.
    assert set(_BRANCH_CONFIGS) == set(cli._COMMANDS)
    for command, overrides in _BRANCH_CONFIGS.items():
        config = _write_config(tmp_path, **overrides)
        out = tmp_path / f"{command}.jsonl"
        assert main([command, "--config", str(config), "--out", str(out), "--format", "jsonl"]) == 0, command
        rows, _, verdicts = load_report(out)
        status = _status_lines(capsys.readouterr().out)
        if command == "verify":
            assert status == [f"verify: PASS ({len(rows)}/{len(rows)} rows)"]
        elif command == "sweep":
            assert len(rows) == 2 and verdicts
            assert status == [f"verdict {name}: pass" for name in sorted(verdicts)]
        else:
            assert rows and status == [] and verdicts == {}, command
    monkeypatch.setitem(QUANTITIES, Quantity.TIME_TO_WIN,
                        QUANTITIES[Quantity.TIME_TO_WIN]._replace(closed=lambda run: -1.0))
    assert main(["verify", "--config", str(_write_config(tmp_path))]) == 1
    assert _status_lines(capsys.readouterr().out) == ["verify: FAIL (8/9 rows passed)"]


_KEY_VALUES = {
    "policy": {"kind": "fair_value"},
    "pool": {"k": 2},
    "sweep": {"parameter": "n", "values": [8]},
    "quantity": "ticket_value",
    "multiblock": {"beta": 0.5},
    "holder_share": 0.25,
}
# The keys above that each command reads; every command reads the rest.
_READS = {
    "analytic": {"holder_share"},
    "verify": {"holder_share"},
    "simulate": {"quantity", "holder_share"},
    "sweep": {"sweep", "holder_share"},
    "pricing": {"policy"},
    "pool": {"pool"},
    "multiblock": {"multiblock", "holder_share"},
}
_REQUIRED = {"sweep": "sweep", "pool": "pool", "multiblock": "multiblock"}
# No row of these commands samples, so they read no trials.
_UNSAMPLED = ("analytic", "pricing")


def _command_config(tmp_path, command, *keys, **overrides):
    """A config for ``command`` with its required section and ``keys``."""
    names = {_REQUIRED.get(command), *keys} - {None}
    if command in _UNSAMPLED:
        overrides = {"trials": None, **overrides}
    return _write_config(tmp_path, **{name: _KEY_VALUES[name] for name in names}, **overrides)


@pytest.mark.parametrize("key", list(_KEY_VALUES))
@pytest.mark.parametrize("command", list(_READS))
def test_cli_rejects_a_key_its_command_does_not_read(tmp_path, capsys, command, key):
    code = main([command, "--config", str(_command_config(tmp_path, command, key))])
    if key in _READS[command]:
        assert code == 0
    else:
        assert code == 2
        assert f"{key}: not read by {command}" in capsys.readouterr().err


def test_cli_simulate_reads_multiblock_only_for_holder_value(tmp_path, capsys):
    config = _write_config(tmp_path, quantity="holder_value", holder_share=0.25,
                           multiblock={"beta": 0.5})
    assert main(["simulate", "--config", str(config)]) == 0
    config = _write_config(tmp_path, quantity="ticket_value", multiblock={"beta": 0.5})
    assert main(["simulate", "--config", str(config)]) == 2
    assert "multiblock: not read by simulate of ticket_value" in capsys.readouterr().err


@pytest.mark.parametrize("parameter,values", [("p", [0.25]), ("k", [2])])
def test_cli_p_and_k_sweeps_reject_holder_share(tmp_path, capsys, parameter, values):
    # A p sweep's values replace the share; a k sweep's pool reads none.
    config = _write_config(tmp_path, holder_share=0.25, sweep={"parameter": parameter, "values": values})
    assert main(["sweep", "--config", str(config)]) == 2
    assert f"holder_share: not read by sweep over {parameter}" in capsys.readouterr().err


@pytest.mark.parametrize("command,keys,path", [
    ("sweep", {"reward": {"kind": "lognormal", "mean": 1, "sigma_log": 1},
               "sweep": {"parameter": "mu", "values": [1.0, 0.0]}}, "sweep.values[1]: must be > 0"),
    ("sweep", {"reward": {"kind": "lognormal", "mean": 1, "sigma_log": 1},
               "sweep": {"parameter": "sigma_log", "values": [1.0, 40.0]}}, "sweep.values[1]: the reward's"),
    ("analytic", {"reward": {"kind": "lognormal", "mean": 1, "sigma_log": 40}}, "reward: the reward's"),
    ("analytic", {"reward": {"kind": "pareto", "shape": 5, "scale": 1e200}}, "reward: the reward's"),
    ("analytic", {"reward": {"kind": "constant", "mean": 1e200}}, "reward: the reward's"),
    ("sweep", {"n": 32, "trials": 1000, "sweep": {"parameter": "p", "values": [0.5, 0.01], "mc": True}},
     "sweep.values[1]: 0.01 rounds to zero of 32 tickets"),
])
def test_cli_swept_values_and_overflowing_rewards_are_config_errors(tmp_path, capsys, command, keys, path):
    # The first five crashed once: a ValueError from calibrate_lognormal, an
    # OverflowError, or a DivergenceError that named no key. No report is written.
    config, out = _write_config(tmp_path, **{"trials": None, **keys}), tmp_path / "report.csv"
    assert main([command, "--config", str(config), "--out", str(out)]) == 2
    assert f"config error: ConfigError: {path}" in capsys.readouterr().err
    assert not out.exists()


def test_cli_pricing_margin_above_the_ticket_value_is_a_config_error(tmp_path, capsys):
    # At n = 8, d = 0.05 a ticket is worth 1/1.4; the margin is not.
    config = _write_config(tmp_path, policy={"kind": "fixed_margin", "margin": 0.75}, trials=None)
    out = tmp_path / "report.csv"
    assert main(["pricing", "--config", str(config), "--out", str(out)]) == 2
    assert "config error: ConfigError: policy.margin: margin 0.75 exceeds" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["analytic", "verify", "pricing"])
@pytest.mark.parametrize("d", [1e200, 1e101, 1e-11, 1e-200])
def test_cli_discount_rate_outside_its_range_is_a_config_error(tmp_path, capsys, command, d):
    # d = 1e200 once raised an uncaught OverflowError in analytic and verify.
    config = _command_config(tmp_path, command, d=d)
    assert main([command, "--config", str(config)]) == 2
    assert "config error: ConfigError: d: must be between 1e-10 and 1e+100" in capsys.readouterr().err


@settings(max_examples=60, deadline=None, derandomize=True)
@given(command=st.sampled_from(["analytic", "pricing"]), n=st.integers(1, 2**20),
       log_d=st.floats(-10.0, 100.0))
def test_cli_every_discount_rate_in_range_runs(tmp_path_factory, command, n, log_d):
    config = _command_config(tmp_path_factory.mktemp("config"), command, n=n, d=10.0**log_d)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([command, "--config", str(config)])
    assert code == 0, err.getvalue()


def test_cli_multiblock_without_share_holds_one_ticket_at_small_n(tmp_path):
    # The default share 0.125 of 2 tickets rounds to none: the holder keeps one.
    config, out = _write_config(tmp_path, n=2, multiblock={"beta": 0.5}), tmp_path / "mb.jsonl"
    assert main(["multiblock", "--config", str(config), "--out", str(out), "--format", "jsonl"]) == 0
    [row] = load_report(out)[0]
    assert row.closed_form == 1 / 2 * npv_rewards(1.0, 0.05)


def test_cli_p_sweep_names_the_value_that_rounds_to_zero_tickets(tmp_path, capsys):
    sweep = {"parameter": "p", "values": [0.5, 0.01], "mc": True}
    config = _write_config(tmp_path, n=32, sweep=sweep)
    assert main(["sweep", "--config", str(config)]) == 2
    assert "sweep.values[1]: 0.01 rounds to zero of 32 tickets" in capsys.readouterr().err
    # The closed forms take any share: without Monte Carlo the sweep runs.
    config = _write_config(tmp_path, n=32, sweep={**sweep, "mc": False})
    assert main(["sweep", "--config", str(config)]) == 0


@pytest.mark.parametrize("command,section", [
    ("simulate", {}),
    ("pricing", {"policy": {"kind": "fixed_margin", "margin": 0.1}, "trials": None}),
    ("pool", {"pool": {"k": 4}}),
    ("multiblock", {"multiblock": {"beta": 0.5}, "holder_share": 0.25}),
])
def test_cli_timings_fill_runtime_in_every_command(tmp_path, command, section):
    config = _write_config(tmp_path, **section)
    plain, timed = tmp_path / "plain.jsonl", tmp_path / "timed.jsonl"
    assert main([command, "--config", str(config), "--out", str(plain), "--format", "jsonl"]) == 0
    assert main([command, "--config", str(config), "--out", str(timed), "--format", "jsonl",
                 "--timings"]) == 0
    plain_rows, timed_rows = load_report(plain)[0], load_report(timed)[0]
    assert all(row.runtime_ms == 0.0 for row in plain_rows)
    assert all(row.runtime_ms > 0.0 for row in timed_rows)
    # The first row of a shared computation carries its cost.
    assert timed_rows[0].runtime_ms == max(row.runtime_ms for row in timed_rows)
    assert [row._replace(runtime_ms=0.0) for row in timed_rows] == plain_rows


_LOGNORMAL = {"kind": "lognormal", "mean": 2.0, "sigma_log": 0.5}
_PARETO = {"kind": "pareto", "shape": 5.0, "scale": 1.0}
_EMPIRICAL = {"kind": "empirical"}     # the path is filled in per test
# One config per run shape, covering every reward kind between them.
_ROUND_TRIPS = {
    "analytic": ("analytic", {"reward": _LOGNORMAL, "trials": None}),
    "verify": ("verify", {"reward": _PARETO}),
    "pricing": ("pricing", {"reward": _EMPIRICAL, "policy": {"kind": "fixed_margin", "margin": 0.1},
                            "trials": None}),
    "simulate_time_to_win": ("simulate", {"quantity": "time_to_win"}),
    "simulate_holder_value": ("simulate", {"reward": _LOGNORMAL, "quantity": "holder_value",
                                           "holder_share": 0.25, "multiblock": {"beta": 0.5}}),
    "sweep_n": ("sweep", {"reward": _PARETO, "sweep": {"parameter": "n", "values": [1, 8, 64]}}),
    "sweep_d": ("sweep", {"reward": _EMPIRICAL,
                          "sweep": {"parameter": "d", "values": [0.05, 1], "mc": True}}),
    "sweep_p": ("sweep", {"sweep": {"parameter": "p", "values": [0.25, 1], "mc": True}}),
    "sweep_beta": ("sweep", {"reward": _LOGNORMAL, "holder_share": 0.25,
                             "sweep": {"parameter": "beta", "values": [0, 0.5]}}),
    "sweep_k": ("sweep", {"reward": _PARETO, "sweep": {"parameter": "k", "values": [1, 4]}}),
    "pool": ("pool", {"reward": _EMPIRICAL, "pool": {"k": 4}}),
    "multiblock": ("multiblock", {"multiblock": {"beta": 0.25}, "holder_share": 0.5}),
}


def _echoed_config(path, fmt) -> dict:
    if fmt == "jsonl":
        return load_report(path)[1]
    first = path.read_text().splitlines()[0]
    assert first.startswith("# config=")
    return json.loads(first.removeprefix("# config="))


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize("case", list(_ROUND_TRIPS))
def test_cli_echoed_config_reruns_to_the_same_report(tmp_path, case, fmt):
    command, keys = _ROUND_TRIPS[case]
    if keys.get("reward") is _EMPIRICAL:
        rewards = tmp_path / "rewards.csv"
        rewards.write_text("reward_eth\n0.5\n1.0\n2.5\n")
        keys = {**keys, "reward": {**_EMPIRICAL, "path": str(rewards)}}
    config = _write_config(tmp_path, **{"trials": 500, "workers": 1, **keys})
    first, second = tmp_path / f"first.{fmt}", tmp_path / f"second.{fmt}"
    code = main([command, "--config", str(config), "--out", str(first), "--format", fmt])
    echo = _echoed_config(first, fmt)
    assert not {"workers", "output"} & set(echo)
    # The command accepts every echoed key, and echoes the echo unchanged.
    assert resolve(echo, command)[1] == echo
    echo_path = tmp_path / "echo.json"
    echo_path.write_text(json.dumps(echo))
    assert main([command, "--config", str(echo_path), "--out", str(second), "--format", fmt]) == code
    assert second.read_bytes() == first.read_bytes()


def test_cli_run_wide_keys_accepted_by_every_command(tmp_path, capsys):
    run_wide = {"seed": 7, "workers": 1, "timings": False, "output": {"format": "csv"}}
    for command in _READS:
        sampled = {} if command in _UNSAMPLED else {"trials": 2000}
        config = _command_config(tmp_path, command, **run_wide, **sampled)
        assert main([command, "--config", str(config)]) == 0
    # No command reads a horizon: every estimate draws the untruncated law.
    config = _write_config(tmp_path, n=None, d=None, reward=None, seed=None, horizon=5)
    capsys.readouterr()
    assert main(["verify", "--config", str(config)]) == 2
    assert "horizon: unknown key" in capsys.readouterr().err


# trials where no row samples, and horizon, which no command reads, everywhere.
_REJECTED = [(command, "trials", 2000) for command in _UNSAMPLED] + [
    (command, "horizon", horizon) for command in _READS for horizon in (2000, 5)]


@pytest.mark.parametrize("command,key,value", _REJECTED)
def test_cli_unsampled_commands_reject_trials_and_horizon(tmp_path, capsys, command, key, value):
    config = _command_config(tmp_path, command, **{key: value})
    assert main([command, "--config", str(config)]) == 2
    error = "unknown key" if key == "horizon" else f"not read by {command}"
    assert f"{key}: {error}" in capsys.readouterr().err


@pytest.mark.parametrize("command,section", [
    ("pool", {"pool": {"k": 4}}),
    ("sweep", {"sweep": {"parameter": "k", "values": [1, 2, 8]}}),
])
def test_cli_pool_reports_byte_identical_across_workers(tmp_path, command, section):
    config = _write_config(tmp_path, **section)
    paths = [tmp_path / f"w{workers}.csv" for workers in (1, 2)]
    for workers, path in zip((1, 2), paths):
        argv = [command, "--config", str(config), "--workers", str(workers), "--out", str(path)]
        assert main(argv) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_cli_serial_run_loads_no_pool_and_a_pool_run_no_multiprocessing():
    # Only a run with workers > 1 imports the thread pool, and no run imports
    # multiprocessing.
    src = str(Path(ticketsim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, ticketsim.cli\n"
            "loaded = lambda: print('loaded', 'concurrent.futures' in sys.modules, 'multiprocessing' in sys.modules)\n"
            "ticketsim.cli.main(['simulate', '--trials', '1000']); loaded()\n"
            "ticketsim.cli.main(['simulate', '--workers', '2', '--trials', '20000']); loaded()\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert [line for line in done.stdout.splitlines() if line.startswith("loaded ")] == [
        "loaded False False", "loaded True False"]


_GOLDEN_BASE = {"n": 64, "d": 0.02, "reward": {"kind": "constant", "mean": 2.0}}
_GOLDEN_REWARDS = {
    "constant": _GOLDEN_BASE["reward"],
    "lognormal": {"kind": "lognormal", "mean": 2.0, "sigma_log": 0.5},
    "pareto": {"kind": "pareto", "shape": 4.5, "scale": 1.0},
}
_SAMPLED_BASE = {**_GOLDEN_BASE, "trials": 2000, "seed": 7}
_SAMPLED_SECTIONS = {
    "verify": {},
    "pool": {"pool": {"k": 4}},
    "multiblock": {"multiblock": {"beta": 0.5}, "holder_share": 0.25},
}
# The configs that wrote the files tests/data/<case>.<format>. The oracle
# reports' bytes are fixed by the closed forms, the series oracles (exact
# int rationals, 192-bit fixed-point sums) and the emitter. The sampled
# reports' bytes rest also on the block size, the substreams, the Geometric
# rates that ``math.log1p`` takes, and numpy's variates
# (``test_the_variates_behind_the_sampled_goldens_keep_their_first_draws``);
# the 10 000-trial verify spans three tracked and holder blocks, so at two
# workers it pins the thread pool's merge in block order.
_GOLDEN = {
    "analytic": ("analytic", {**_GOLDEN_BASE, "holder_share": 0.25}),
    "pricing_fair": ("pricing", {**_GOLDEN_BASE, "policy": {"kind": "fair_value"}}),
    "pricing_margin": ("pricing", {**_GOLDEN_BASE, "policy": {"kind": "fixed_margin", "margin": 0.1}}),
    "pricing_discount": ("pricing", {**_GOLDEN_BASE, "policy": {"kind": "fixed_discount", "discount": 0.2}}),
    "sweep_n": ("sweep", {**_GOLDEN_BASE, "sweep": {"parameter": "n", "values": [4, 16, 64, 256]}}),
    "sweep_d": ("sweep", {**_GOLDEN_BASE, "sweep": {"parameter": "d", "values": [0.001, 0.01, 0.1]}}),
    "sweep_mu": ("sweep", {**_GOLDEN_BASE, "sweep": {"parameter": "mu", "values": [0.5, 1.0, 3.0]}}),
    "sweep_p": ("sweep", {**_GOLDEN_BASE, "sweep": {"parameter": "p", "values": [0.125, 0.25, 0.5]}}),
    # The oracles at the edges of what the parser accepts: the paper's 5%/yr
    # over 12 s slots with a heavy lognormal, E[V^2] - E[V]^2 cancelling to
    # 2e-18 of E[V^2], r = 0 at the floor of D_RANGE, the most tickets with a
    # Pareto reward, the ceiling of D_RANGE, and a reward unit of 1e-300.
    "analytic_paper_regime": ("analytic", {"n": 2**16, "d": 1.855e-8, "holder_share": 0.25, "reward": {
        "kind": "lognormal", "mean": 2.0, "sigma_log": 2.0}}),
    "analytic_cancellation": ("analytic", {**_GOLDEN_BASE, "n": 2, "d": 1e-9, "holder_share": 0.5}),
    "analytic_one_ticket": ("analytic", {**_GOLDEN_BASE, "n": 1, "d": 1e-10, "holder_share": 1.0}),
    "analytic_pareto_huge_n": ("analytic", {"n": 2**20, "d": 1e-10, "holder_share": 0.25, "reward": {
        "kind": "pareto", "shape": 2.5, "scale": 1.0}}),
    "analytic_huge_d": ("analytic", {**_GOLDEN_BASE, "n": 8, "d": 1e100, "holder_share": 0.25}),
    "pricing_tiny_unit": ("pricing", {"n": 2**16, "d": 1.855e-8, "reward": {"kind": "constant", "mean": 1e-300},
                                      "policy": {"kind": "fair_value"}}),
    **{f"{command}_{law}": (command, {**_SAMPLED_BASE, **section, "reward": reward})
       for command, section in _SAMPLED_SECTIONS.items() for law, reward in _GOLDEN_REWARDS.items()},
    "verify_10k": ("verify", {**_SAMPLED_BASE, "trials": 10_000}),
    "simulate_ticket_value": ("simulate", {**_SAMPLED_BASE, "quantity": "ticket_value"}),
    "simulate_control_value": ("simulate", {**_SAMPLED_BASE, "quantity": "control_value", "holder_share": 0.25}),
    "sweep_n_mc": ("sweep", {**_SAMPLED_BASE, "sweep": {"parameter": "n", "values": [4, 16, 64], "mc": True}}),
}
_SAMPLED_GOLDEN = [case for case, (_, raw) in _GOLDEN.items() if "trials" in raw]


def _golden_bytes_match(tmp_path, case, fmt, *flags) -> bool:
    command, raw = _GOLDEN[case]
    config, out = tmp_path / "config.json", tmp_path / f"report.{fmt}"
    config.write_text(json.dumps(raw))
    assert main([command, "--config", str(config), "--out", str(out), "--format", fmt, *flags]) == 0
    golden = Path(__file__).parent / "data" / f"{case}.{fmt}"
    return out.read_bytes() == golden.read_bytes()


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize("case", [case for case in _GOLDEN if case not in _SAMPLED_GOLDEN])
def test_cli_oracle_reports_keep_their_golden_bytes(tmp_path, case, fmt):
    assert _golden_bytes_match(tmp_path, case, fmt)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize("case", _SAMPLED_GOLDEN)
def test_cli_sampled_reports_keep_their_golden_bytes(tmp_path, case, fmt, workers):
    assert _golden_bytes_match(tmp_path, case, fmt, "--workers", str(workers)), (
        f"{case}.{fmt} moved; if the first draws test fails too, numpy {np.__version__} "
        f"changed a variate's stream")


# The first draws on substream(0, 0, 0) of each variate the samplers and
# reward laws take, under numpy 2.4.6. numpy does not promise its streams
# across releases (NEP 19), so where this fails the sampled goldens fail
# with it and need regenerating, though no code is at fault.
_FIRST_DRAWS = {
    "standard_exponential": (lambda rng: rng.standard_exponential(3),
                             [1.0545469102572156, 2.3262532366469673, 0.20612720376771848]),
    "binomial": (lambda rng: rng.binomial([10, 1000, 10**6], 0.25), [3, 218, 249265]),
    "standard_normal": (lambda rng: rng.standard_normal(3),
                        [0.7859067677198036, -0.9199529560235964, 1.4715789384981375]),
    "pareto": (lambda rng: rng.pareto(4.5, 3),
               [0.26407895457319164, 0.6768971709520191, 0.04687134562791275]),
    "integers": (lambda rng: rng.integers(0, 64, 3), [1, 36, 58]),
}


@pytest.mark.parametrize("variate", list(_FIRST_DRAWS))
def test_the_variates_behind_the_sampled_goldens_keep_their_first_draws(variate):
    draw, first = _FIRST_DRAWS[variate]
    assert draw(engine.substream(0, 0, 0)).tolist() == first, (
        f"numpy {np.__version__} draws another {variate} stream than the goldens were written with")


def test_cli_requires_subcommand():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def _cli_exit(argv) -> tuple:
    """(exit code, stdout, stderr) of ``main(argv)``, returned or raised."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv, message", [
    (["bogus"], "unknown command 'bogus'"),
    (["-x"], "unknown command '-x'"),
    (["verify", "--bogus"], "unrecognized argument '--bogus'"),
    (["verify", "extra"], "unrecognized argument 'extra'"),
    (["verify", "--tri", "1000"], "unrecognized argument '--tri'"),      # no prefix abbreviations
    (["verify", "--seed"], "--seed expects a value"),
    (["verify", "--out", "--timings"], "--out expects a value"),
    (["verify", "--trials", "many"], "--trials: not an integer: 'many'"),
    (["verify", "--workers=1.5"], "--workers: not an integer: '1.5'"),
    (["verify", "--timings=yes"], "--timings takes no value"),
])
def test_cli_usage_errors_exit_2(argv, message):
    code, out, err = _cli_exit(argv)
    assert (code, out) == (2, "")
    usage, error = err.splitlines()
    assert usage.startswith("usage: ticketsim ")
    assert error.startswith(f"ticketsim: error: {message}")


@pytest.mark.parametrize("argv", [["-h"], ["--help", "verify"], ["verify", "-h"], ["pool", "--seed", "1", "--help"]])
def test_cli_help_lists_the_commands_or_the_options(argv):
    code, out, err = _cli_exit(argv)
    assert (code, err) == (0, "")
    names = list(cli._COMMANDS) if argv[0] in ("-h", "--help") else [f"--{name}" for name in cli._OPTIONS]
    assert out.startswith("usage: ticketsim ") and all(name in out for name in names)


def test_cli_equals_forms_and_repeated_flags(tmp_path):
    # --name=value reads as --name value, and a repeated flag's last value wins.
    spaced, joined = tmp_path / "spaced.csv", tmp_path / "joined.csv"
    assert main(["simulate", "--trials", "1000", "--seed", "3", "--out", str(spaced)]) == 0
    assert main(["simulate", "--seed=8", "--trials=1000", f"--out={joined}", "--format=jsonl", "--format", "csv",
                 "--seed", "3"]) == 0
    assert joined.read_bytes() == spaced.read_bytes()


def test_cli_bad_format_is_a_config_error(tmp_path):
    code, _, err = _cli_exit(["analytic", "--format", "xml", "--out", str(tmp_path / "r")])
    assert code == 2
    assert err == "config error: ConfigError: output.format: expected one of ('csv', 'jsonl'), got 'xml'\n"


@pytest.mark.parametrize("output, flags", [("r.csv", ["--out", "x.csv"]), (["ab", "cd"], ["--format", "csv"])])
def test_cli_flags_merge_only_into_an_output_object(tmp_path, output, flags):
    config = _write_config(tmp_path, trials=None, output=output)
    code, _, err = _cli_exit(["analytic", "--config", str(config), *flags])
    assert code == 2
    assert err.startswith("config error: ConfigError: output: expected an object, got ")


@pytest.mark.parametrize("content, message", [
    (None, "cannot read config"),
    (b"{", "invalid JSON"),
    (b"\xff\xfe{}", "invalid JSON"),          # not UTF-8
    (b"[]", "top-level config must be a JSON object"),
])
def test_cli_unreadable_config_is_a_config_error(tmp_path, content, message):
    config = tmp_path / "config.json"
    if content is not None:
        config.write_bytes(content)
    code, _, err = _cli_exit(["analytic", "--config", str(config)])
    assert code == 2
    assert err.startswith(f"config error: ConfigError: {config}: {message}")


def test_cli_unwritable_report_is_a_config_error(tmp_path):
    # A file name longer than any file system takes: only the write sees it.
    out = tmp_path / ("r" * 300 + ".csv")
    code, stdout, err = _cli_exit(["analytic", "--out", str(out)])
    assert code == 2 and list(tmp_path.iterdir()) == []
    assert "ticket_value" in stdout               # the rows were printed first
    assert err.startswith("config error: ConfigError: output.path: cannot write report: ")


@pytest.mark.parametrize("out, message", [
    ("", "expected a file path, got ''"),
    (".", "'.' is a directory"),
    ("missing/r.csv", "no directory 'missing'"),
], ids=["empty", "directory", "missing-directory"])
def test_cli_report_path_is_checked_before_the_run(tmp_path, monkeypatch, out, message):
    monkeypatch.chdir(tmp_path)
    code, stdout, err = _cli_exit(["analytic", f"--out={out}"])
    assert code == 2 and stdout == "" and list(tmp_path.iterdir()) == []
    assert err == f"config error: ConfigError: output.path: {message}\n"


def _mostly(moderate, extreme):
    """``moderate`` three draws in four, else ``extreme``."""
    return st.integers(0, 3).flatmap(lambda i: extreme if i == 0 else moderate)


# Extreme but valid reward parameters: means and scales to 1e300, sigma_log to
# 60, Pareto shapes just above 2. Where a reward's second moment overflows a
# float the config is rejected before any draw, so most are drawn from a
# moderate range, and these examples reach a sampler.
_HUGE = _mostly(st.floats(min_value=0.0, max_value=1e6), st.floats(min_value=0.0, max_value=1e300))
_SCALE = _mostly(st.floats(min_value=1e-6, max_value=1e6), st.floats(min_value=1e-300, max_value=1e300))
_SIGMA_LOG = _mostly(st.floats(min_value=1e-3, max_value=4.0), st.floats(min_value=1e-3, max_value=60.0))
_REWARD_SPECS = st.one_of(
    st.builds(lambda mean: {"kind": "constant", "mean": mean}, _HUGE),
    st.builds(lambda mean, sigma: {"kind": "lognormal", "mean": mean, "sigma_log": sigma}, _SCALE, _SIGMA_LOG),
    st.builds(lambda shape, scale: {"kind": "pareto", "shape": shape, "scale": scale},
              st.floats(min_value=2.0, max_value=50.0, exclude_min=True), _SCALE),
    st.builds(lambda values: {"kind": "empirical", "values": values},
              st.lists(_HUGE, min_size=1, max_size=4)),
)
_N = st.integers(min_value=1, max_value=4096)
_D = st.floats(min_value=1e-3, max_value=10.0)
_SWEPT_VALUES = {
    "n": _N,
    "d": _D,
    "mu": _HUGE,
    "sigma_log": _SIGMA_LOG,
    "beta": st.floats(min_value=0.0, max_value=10.0),
    "k": _N,
    "p": st.floats(min_value=1e-3, max_value=1.0),
}
_SWEEPS = st.sampled_from(sorted(_SWEPT_VALUES)).flatmap(lambda parameter: st.builds(
    lambda values: {"parameter": parameter, "values": values},
    st.lists(_SWEPT_VALUES[parameter], min_size=1, max_size=3)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(command=st.sampled_from(["analytic", "pricing", "sweep", "simulate", "pool", "multiblock"]), n=_N, d=_D,
       reward=_REWARD_SPECS, sweep=_SWEEPS, quantity=st.sampled_from([quantity.value for quantity in Quantity]),
       k=_N, beta=_SWEPT_VALUES["beta"], share=st.none() | st.floats(min_value=1e-3, max_value=1.0))
def test_cli_every_drawn_config_runs_or_is_a_config_error(tmp_path_factory, command, n, d, reward, sweep,
                                                          quantity, k, beta, share):
    # The sampling commands run at the fewest trials allowed, on any quantity
    # (one without an estimator too) and any pool size; beta and k sweeps
    # always sample. simulate and multiblock take a share or none.
    raw = {"n": n, "d": d, "reward": reward}
    sections = {"sweep": {"sweep": sweep}, "simulate": {"quantity": quantity}, "pool": {"pool": {"k": k}},
                "multiblock": {"multiblock": {"beta": beta}}}
    if command in sections:
        raw.update(sections[command], trials=100)
    if command in ("simulate", "multiblock") and share is not None:
        raw["holder_share"] = share
    if reward["kind"] == "empirical":
        path = tmp_path_factory.mktemp("rewards") / "rewards.csv"
        path.write_text("reward_eth\n" + "".join(f"{v!r}\n" for v in reward["values"]))
        raw["reward"] = {"kind": "empirical", "path": str(path)}
    config = tmp_path_factory.mktemp("config") / "config.json"
    config.write_text(json.dumps(raw))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([command, "--config", str(config)])
    assert code == 0 or (code == 2 and err.getvalue().startswith("config error:")), (code, err.getvalue())


# What the command line's property test draws: each option's values, some
# of them invalid, and the config files its --config values name.
_ARGV_CONFIGS = {
    "empty.json": "{}",
    "pool.json": json.dumps({"n": 8, "pool": {"k": 2}}),
    "multiblock.json": json.dumps({"multiblock": {"beta": 0.5}}),
    "sweep.json": json.dumps({"sweep": {"parameter": "n", "values": [8, 16], "mc": True}}),
    "output.json": json.dumps({"output": "r.csv"}),
    "broken.json": "{",
}
_ARGV_VALUES = {
    "config": st.sampled_from([*_ARGV_CONFIGS, "absent.json"]),
    "seed": _mostly(st.integers(-1, 2**64).map(str), st.just("x")),
    "trials": _mostly(st.integers(-1, 1000).map(str), st.just("1e3")),     # cheap runs only
    "workers": st.sampled_from(["1", "0", "x"]),
    "out": st.sampled_from(["r.out", "absent/r.out"]),
    "format": st.sampled_from(["csv", "jsonl", "xml", ""]),
    "timings": st.just(None),
}


def _argv_option(name):
    """One option's tokens: mostly ``--name value`` or ``--name=value``, else
    the flag alone."""
    return _ARGV_VALUES[name].flatmap(lambda value: _mostly(
        st.sampled_from([[f"--{name}", value], [f"--{name}={value}"]]), st.just([f"--{name}"]))
        if value is not None else st.just([f"--{name}"]))


_ARGV_TOKENS = _mostly(
    st.sampled_from(list(cli._OPTIONS)).flatmap(_argv_option),
    st.sampled_from([["-h"], ["--help"], ["--timings=1"], ["--bogus"], ["--tri"], ["extra"], ["--"], ["-"]]),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(command=st.sampled_from([*cli._COMMANDS, "bogus", "--help"]) | st.none(),
       tokens=st.lists(_ARGV_TOKENS, max_size=4))
def test_cli_every_drawn_argv_exits_0_1_or_2(tmp_path_factory, command, tokens):
    # main ends in 0, 1 or 2, returned or raised as SystemExit, and in no
    # other exception; exit 2 says why on stderr.
    workdir = tmp_path_factory.mktemp("argv")
    for name, text in _ARGV_CONFIGS.items():
        (workdir / name).write_text(text)
    argv = sum(tokens, [] if command is None else [command])
    cwd = os.getcwd()
    os.chdir(workdir)       # the drawn paths are relative
    try:
        code, out, err = _cli_exit(argv)
    finally:
        os.chdir(cwd)
    assert code in (0, 1, 2), (argv, code)
    if code == 2:
        assert err.startswith(("usage: ticketsim ", "config error: ")), (argv, err)
