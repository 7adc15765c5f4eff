"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single pass line once its assertions hold; run with
``pytest tests/test_acceptance.py -v -s`` to see them. Monte Carlo gates use
fixed seeds, so the suite is fully deterministic.
"""

import json
import math
import time

import numpy as np

import ticketsim as ts
from ticketsim.analytics import truncated_series_sum
from ticketsim.cli import main
from ticketsim.config import parse_config
from ticketsim.harness import run_pool
from ticketsim.quantities import power_sums

EPS = 1e-12


def report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS  ({detail})")


def rel_gap(a, b):
    return abs(a - b) / abs(b) if b != 0 else abs(a - b)


def ticket_value_series(mu, d, n):
    q = 1.0 - 1.0 / n
    return truncated_series_sum(lambda t: q ** (t - 1) / n * mu / (1.0 + d) ** t, d, EPS)


def test_criterion_01_reward_stream_npv():
    start = time.perf_counter()
    closed = ts.npv_rewards(2.0, 0.05)
    oracle = truncated_series_sum(lambda t: 2.0 / 1.05**t, 0.05, EPS)
    elapsed = time.perf_counter() - start
    assert closed == 40.0
    assert rel_gap(oracle, closed) <= 1e-9
    assert elapsed < 1.0
    report(1, f"npv=40 exact, oracle gap {rel_gap(oracle, closed):.2e}, {elapsed * 1e3:.1f} ms")


def test_criterion_02_single_ticket_value():
    start = time.perf_counter()
    mu, d = 1.0, 0.01
    reward = ts.LognormalReward(1.0, 1.0)
    details = []
    for n, seed in ((1, 11), (32, 12), (100, 13)):
        closed = ts.expected_ticket_value(mu, d, n)
        oracle = ticket_value_series(mu, d, n)
        assert rel_gap(oracle, closed) <= 1e-9
        est = ts.estimate(
            ts.EconomyParams(n=n, d=d, reward=reward),
            ts.Quantity.TICKET_VALUE, 1_000_000, seed=seed,
        )
        if n == 1:  # the one ticket wins at slot 1, so its payoff given that slot, mu x, is exact
            assert est.stderr == 0.0 and rel_gap(est.mean, closed) <= EPS
            details.append("n=1: exact")
            continue
        assert abs(est.mean - closed) <= 3.0 * est.stderr
        assert rel_gap(est.mean, closed) <= 0.005
        details.append(f"n={n}: z={(est.mean - closed) / est.stderr:+.2f}")
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(2, "; ".join(details) + f", {elapsed:.1f} s")


def test_criterion_03_total_value_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(1000):
        mu = float(rng.uniform(0.01, 10.0))
        d = float(10.0 ** rng.uniform(-4, -0.3))
        n = int(rng.integers(1, 10_000_000))
        gap = rel_gap(ts.total_ticket_value(mu, d, n), ts.npv_rewards(mu, d))
        worst = max(worst, gap)
        assert gap < 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(3, f"1000 triples, worst gap {worst:.2e}, {elapsed * 1e3:.0f} ms")


def test_criterion_04_market_cap_limit():
    mu, d = 1.0, 0.01
    worst = 0.0
    for n in (10**2, 10**3, 10**4, 10**5, 10**6, 10**7):
        ratio = ts.issued_market_cap(mu, d, n) / ts.npv_rewards(mu, d)
        gap = rel_gap(ratio, n * d / (n * d + 1.0))
        worst = max(worst, gap)
        assert gap <= 1e-12
    point = ts.issued_market_cap(1.0, 0.01, 10_000)
    assert rel_gap(point, 10_000.0 / 101.0) <= 1e-12
    report(4, f"ratio identity on n grid, worst gap {worst:.2e}; n=1e4 cap {point:.5f}")


def test_criterion_05_waiting_time_distribution():
    n, trials = 64, 1_000_000
    params = ts.EconomyParams(n=n, d=0.01, reward=ts.ConstantReward(1.0))
    slots, truncated = ts.sample_win_slots(params, trials, seed=505)
    mean = float(slots.mean())
    var = float(slots.var(ddof=1))
    assert truncated == 0
    assert abs(mean - 64.0) <= 0.01 * 64.0
    assert abs(var - 4032.0) <= 0.03 * 4032.0
    z = 3.2905  # two-sided 99.9% normal band
    survival = []
    for t in (1, 32, 64, 128):
        p = (1.0 - 1.0 / n) ** t
        observed = float(np.mean(slots > t))
        band = z * math.sqrt(p * (1.0 - p) / trials)
        assert abs(observed - p) <= band
        survival.append(f"t={t}: {observed:.4f}~{p:.4f}")
    report(5, f"mean {mean:.3f}, var {var:.0f}; " + "; ".join(survival))


def test_criterion_06_derivatives_and_monotonicity():
    rng = np.random.default_rng(606)
    sign_failures = 0
    worst = 0.0
    for _ in range(10_000):
        mu = float(rng.uniform(0.01, 10.0))
        d = float(10.0 ** rng.uniform(-4, -0.3))
        n = float(10.0 ** rng.uniform(0.01, 6.0))
        p = float(rng.uniform(1e-3, 1.0))
        h = 1e-4 * n
        fd_ticket = (
            ts.expected_ticket_value(mu, d, n + h) - ts.expected_ticket_value(mu, d, n - h)
        ) / (2.0 * h)
        fd_control = (
            ts.control_value(p, mu, d, n + h) - ts.control_value(p, mu, d, n - h)
        ) / (2.0 * h)
        dv = ts.ticket_value_derivative_n(mu, d, n)
        cv = ts.control_value_derivative_n(p, mu, d, n)
        worst = max(worst, rel_gap(fd_ticket, dv), rel_gap(fd_control, cv))
        assert rel_gap(fd_ticket, dv) <= 1e-6
        assert rel_gap(fd_control, cv) <= 1e-6
        if not (dv < 0.0 and cv > 0.0):
            sign_failures += 1
    assert sign_failures == 0

    ns = [2**k for k in range(21)]
    values = [ts.expected_ticket_value(1.0, 0.01, n) for n in ns]
    controls = [ts.control_value(0.3, 1.0, 0.01, n) for n in ns]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert all(b > a for a, b in zip(controls, controls[1:]))
    report(6, f"10^4 FD points, worst rel gap {worst:.2e}, 0 sign failures; n sweep to 2^20 monotone")


def test_criterion_07_ticket_value_variance():
    mu, d, n = 1.0, 0.1, 10
    closed = ts.ticket_value_variance(mu, 1.0, d, n)
    assert math.isclose(closed, 2.0 / 3.1 - 0.25, rel_tol=1e-12)

    q = 1.0 - 1.0 / n
    second = truncated_series_sum(
        lambda t: q ** (t - 1) / n * 2.0 / (1.0 + d) ** (2 * t),
        epsilon=EPS, ratio=q / (1.0 + d) ** 2,
    )
    oracle = second - ticket_value_series(mu, d, n) ** 2
    assert rel_gap(oracle, closed) <= 1e-9

    reward = ts.LognormalReward(1.0, math.sqrt(math.log(2.0)))  # mean 1, variance 1
    assert math.isclose(reward.variance(), 1.0, rel_tol=1e-12)
    payoffs, _ = ts.sample_ticket_payoffs(
        ts.EconomyParams(n=n, d=d, reward=reward), 1_000_000, seed=707
    )
    # Each payoff is mu x^T given its win slot T, so their variance is
    # mu^2 Var(x^T); the reward's variance adds var_r E[x^(2T)].
    slot_second = truncated_series_sum(
        lambda t: q ** (t - 1) / n / (1.0 + d) ** (2 * t), epsilon=EPS, ratio=q / (1.0 + d) ** 2,
    )
    mc_var, mc_var_se = power_sums(payoffs, float(payoffs.mean()), 4).variance_stderr()
    mc_var += reward.variance() * slot_second
    assert abs(mc_var - closed) <= 3.0 * mc_var_se

    timing_only = ts.ticket_value_variance(mu, 0.0, d, n)
    assert math.isclose(timing_only, 1.0 / 3.1 - 0.25, rel_tol=1e-12)
    const_payoffs, _ = ts.sample_ticket_payoffs(
        ts.EconomyParams(n=n, d=d, reward=ts.ConstantReward(1.0)), 1_000_000, seed=708
    )
    const_var, const_se = power_sums(const_payoffs, float(const_payoffs.mean()), 4).variance_stderr()
    assert abs(const_var - timing_only) <= 3.0 * const_se
    report(
        7,
        f"var {closed:.7f}: oracle gap {rel_gap(oracle, closed):.1e}, "
        f"MC z={(mc_var - closed) / mc_var_se:+.2f}; timing-only z={(const_var - timing_only) / const_se:+.2f}",
    )


def test_criterion_08_pricing_capture():
    fair = ts.protocol_capture(
        ts.FairValue(), ts.EconomyParams(n=57, d=0.013, reward=ts.ConstantReward(1.7))
    )
    npv = ts.npv_rewards(1.7, 0.013)
    assert abs(fair.total - npv) <= 1e-9 * npv
    assert abs(fair.leakage) <= 1e-9 * npv

    margin = ts.protocol_capture(
        ts.FixedMargin(0.1), ts.EconomyParams(n=100, d=0.01, reward=ts.ConstantReward(1.0))
    )
    assert abs(margin.total - 80.0) <= 1e-9 * 80.0
    assert abs(margin.leakage - 20.0) <= 1e-9 * 20.0
    report(8, f"fair total {fair.total:.9f} = npv, margin capture {margin.total:.9f}/leak {margin.leakage:.9f}")


def test_criterion_09_multiblock_bonus():
    params = ts.EconomyParams(n=50, d=0.01, reward=ts.ConstantReward(1.0))

    # beta = 0 is bit-identical to the base model under a shared seed, both
    # for full trajectory records and for aggregated estimates.
    from reference import MARKET_HOLDER, ReplacementRule, run_trajectory

    holders = ["whale"] * 5 + [MARKET_HOLDER] * 45
    base = run_trajectory(
        params, horizon=300, rng=np.random.default_rng(909), holders=holders,
        replacement=ReplacementRule.RETAIN, stop_at_tracked_win=False,
    )
    bonus0 = run_trajectory(
        params, horizon=300, rng=np.random.default_rng(909), holders=holders,
        multiblock=ts.MultiBlockSpec(beta=0.0), replacement=ReplacementRule.RETAIN,
        stop_at_tracked_win=False,
    )
    assert base == bonus0
    est_base = ts.estimate(params, ts.Quantity.HOLDER_VALUE, 1000, seed=909, holder_share=0.1)
    est_zero = ts.estimate(
        params, ts.Quantity.HOLDER_VALUE, 1000, seed=909, holder_share=0.1,
        multiblock=ts.MultiBlockSpec(beta=0.0),
    )
    assert est_base == est_zero

    est = ts.estimate(
        params, ts.Quantity.HOLDER_VALUE, 100_000, seed=910, holder_share=0.1,
        multiblock=ts.MultiBlockSpec(beta=0.5),
    )
    premium = est.mean - 0.1 * ts.npv_rewards(1.0, 0.01)    # over (k/n) * mu/d, k = 5
    assert premium > 3.0 * est.stderr
    report(
        9,
        f"beta=0 bit-identical; beta=0.5 premium {premium:.4f} "
        f"= {premium / est.stderr:.0f} stderr",
    )


def test_criterion_10_pooling_variance_reduction():
    reward = {"kind": "lognormal", "mean": 1.0, "sigma_log": math.sqrt(math.log(2.0))}
    cfg = parse_config({"n": 64, "d": 0.01, "reward": reward, "pool": {"k": 16},
                        "trials": 100_000, "seed": 1010})
    rows = {row.swept_value: row for row in run_pool(cfg)}
    solo, pooled, gap = (rows[name] for name in
                         ("solo_variance", "pooled_per_ticket_variance", "variance_gap"))
    assert pooled.mc_mean < solo.mc_mean
    assert gap.mc_mean < -3.0 * gap.mc_stderr
    report(
        10,
        f"solo {solo.mc_mean:.4f} -> pooled {pooled.mc_mean:.4f}, "
        f"gap = {gap.mc_mean / gap.mc_stderr:.0f} stderr",
    )


def test_criterion_11_deterministic_verify_reports(tmp_path):
    config_path = tmp_path / "verify.json"
    config_path.write_text(json.dumps({
        "n": 32, "d": 0.01,
        "reward": {"kind": "constant", "mean": 1.0},
        "trials": 20_000, "seed": 42,
    }))
    blobs = []
    for run, workers in ((1, "1"), (2, "8"), (3, "1"), (4, "8")):
        out = tmp_path / f"report_{run}.csv"
        code = main([
            "verify", "--config", str(config_path),
            "--workers", workers, "--out", str(out),
        ])
        assert code == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2] == blobs[3]
    report(11, f"4 verify runs (workers 1/8, twice), {len(blobs[0])} bytes each, identical")
