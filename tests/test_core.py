"""Core domain types: discounting, reward distributions, CSV ingestion."""

import math

import numpy as np
import pytest

from ticketsim.core import (
    ConstantReward,
    EconomyParams,
    EmpiricalReward,
    LognormalReward,
    ParetoReward,
    load_empirical_rewards,
)
from reference import DiscountCurve, sample_reward


# ---------------------------------------------------------------------------
# DiscountCurve
# ---------------------------------------------------------------------------


def test_discount_curve_one_slot():
    # 1/1.01 evaluated at high precision: 0.99009900990099009901...
    assert abs(DiscountCurve(0.01).factor(1) - 0.9900990099009901) < 1e-15


def test_discount_curve_rejects_bad_slot_index():
    with pytest.raises(ValueError):
        DiscountCurve(0.05).factor(-1)
    with pytest.raises(ValueError):
        DiscountCurve(0.05).factor(1.5)


def test_discount_curve_basics():
    curve = DiscountCurve(0.05)
    assert curve.factor(0) == 1.0
    assert curve.factor(3) < curve.factor(2) < curve.factor(1) < 1.0


def test_discount_curve_recurrence_over_10k_slots():
    d = 0.013
    curve = DiscountCurve(d)
    table = np.array([curve.factor(t) for t in range(10_001)])
    ratio_err = np.abs(table[1:] * (1.0 + d) - table[:-1]) / table[:-1]
    assert ratio_err.max() < 1e-12


def test_discount_curve_rejects_negative_rate():
    with pytest.raises(ValueError):
        DiscountCurve(-0.1)


# ---------------------------------------------------------------------------
# Reward models
# ---------------------------------------------------------------------------


def test_constant_reward_degenerate():
    model = ConstantReward(3.0)
    rng = np.random.default_rng(0)
    assert model.mean() == 3.0
    assert model.variance() == 0.0
    assert sample_reward(model, rng) == 3.0
    assert np.all(sample_reward(model, rng, size=100) == 3.0)
    with pytest.raises(ValueError):
        ConstantReward(-1.0)


def test_lognormal_calibration_moments():
    model = LognormalReward(2.0, 1.0)
    assert model.mean() == 2.0    # held, not rounded by exp()
    assert math.isclose(model.variance(), 4.0 * (math.e - 1.0), rel_tol=1e-12)
    assert math.isclose(model.mu_log, math.log(2.0) - 0.5, rel_tol=1e-15)
    tiny = LognormalReward(1.0, 1e-8)
    assert tiny.variance() < 1e-15


def test_lognormal_rejects_bad_params():
    with pytest.raises(ValueError):
        LognormalReward(0.0, 1.0)
    with pytest.raises(ValueError):
        LognormalReward(1.0, 0.0)
    with pytest.raises(ValueError):
        LognormalReward(mu=1.0, sigma_log=-1.0)
    with pytest.raises(ValueError, match="lognormal mean must be finite and > 0, got inf"):
        LognormalReward(mu=math.inf, sigma_log=1.0)


def test_pareto_rejects_infinite_variance_shapes():
    with pytest.raises(ValueError):
        ParetoReward(shape=2.0, scale=1.0)
    with pytest.raises(ValueError):
        ParetoReward(shape=1.5, scale=1.0)
    with pytest.raises(ValueError):
        ParetoReward(shape=3.0, scale=0.0)


def test_pareto_moments():
    model = ParetoReward(shape=3.0, scale=2.0)
    assert math.isclose(model.mean(), 3.0, rel_tol=1e-14)          # a*m/(a-1)
    assert math.isclose(model.variance(), 3.0, rel_tol=1e-14)      # m^2*a/((a-1)^2(a-2))


@pytest.mark.parametrize(
    "model",
    [
        ConstantReward(3.0),
        LognormalReward(1.0, 0.5),
        LognormalReward(1.0, 1.0),
        ParetoReward(shape=3.5, scale=1.0),
        EmpiricalReward([2.0, 2.0, 8.0]),
    ],
    ids=lambda m: m.kind + f"_{m.mean():g}",
)
def test_sample_mean_matches_analytic_mean(model):
    # Long-run sample mean within 4 stderr of the analytic mean; draws >= 0.
    rng = np.random.default_rng(7)
    draws = np.asarray(sample_reward(model, rng, size=1_000_000), dtype=float)
    assert np.all(draws >= 0.0)
    band = 4.0 * math.sqrt(model.variance() / draws.size) if model.variance() > 0 else 1e-12
    assert abs(draws.mean() - model.mean()) < max(band, 1e-12)


def test_lognormal_sample_variance_matches():
    model = LognormalReward(2.0, 1.0)
    rng = np.random.default_rng(13)
    draws = sample_reward(model, rng, size=1_000_000)
    s2 = draws.var(ddof=1)
    m4 = ((draws - draws.mean()) ** 4).mean()
    stderr = math.sqrt((m4 - s2**2) / draws.size)
    assert abs(s2 - model.variance()) < 4.0 * stderr


def test_lognormal_sample_is_numpys_lognormal_within_one_ulp():
    # Same normals consumed as ``rng.lognormal``; only the exp may round
    # differently, and the scalar path is exact.
    model = LognormalReward(2.0, 1.0)
    ours, numpys = np.random.default_rng(3), np.random.default_rng(3)
    draws = sample_reward(model, ours, size=(512, 64))
    reference = numpys.lognormal(model.mu_log, model.sigma_log, size=(512, 64))
    assert draws.shape == reference.shape and draws.dtype == np.float64
    assert np.abs(draws.view(np.int64) - reference.view(np.int64)).max() <= 1
    scalar = sample_reward(model, ours)
    assert isinstance(scalar, float)
    assert scalar == numpys.lognormal(model.mu_log, model.sigma_log)
    assert ours.random() == numpys.random()


def test_empirical_reward_resampling():
    model = EmpiricalReward([2.0, 2.0, 8.0])
    assert model.mean() == 4.0
    assert model.variance() == 8.0  # population moments of the data
    rng = np.random.default_rng(3)
    draws = sample_reward(model, rng, size=200_000)
    assert set(np.unique(draws)) == {2.0, 8.0}
    assert abs(draws.mean() - 4.0) < 4.0 * math.sqrt(8.0 / draws.size)
    assert isinstance(sample_reward(model, rng), float)


def test_empirical_reward_rejects_bad_data():
    with pytest.raises(ValueError):
        EmpiricalReward([])
    with pytest.raises(ValueError):
        EmpiricalReward([1.0, -2.0])
    with pytest.raises(ValueError):
        EmpiricalReward([1.0, float("nan")])


def test_empirical_params_hash_as_they_compare():
    # -0.0 is an accepted reward and equals 0.0, so their params are equal
    # and hash alike; the bytes of the values differ.
    plus, minus = (EconomyParams(4, 0.1, EmpiricalReward([zero, 2.0])) for zero in (0.0, -0.0))
    assert plus == minus and hash(plus) == hash(minus)
    assert {plus: 1}[minus] == 1
    assert plus != EconomyParams(4, 0.1, EmpiricalReward([2.0, 0.0]))


# ---------------------------------------------------------------------------
# Empirical CSV ingestion
# ---------------------------------------------------------------------------


def _write(tmp_path, text):
    path = tmp_path / "rewards.csv"
    path.write_text(text)
    return path


def test_load_empirical_rewards(tmp_path):
    path = _write(tmp_path, "reward_eth\n0.5\n1.25\n0\n")
    model = load_empirical_rewards(path)
    assert model.values.tolist() == [0.5, 1.25, 0.0]
    assert math.isclose(model.mean(), 1.75 / 3)


def test_load_empirical_rewards_bad_header(tmp_path):
    path = _write(tmp_path, "eth\n1.0\n")
    with pytest.raises(ValueError, match="line 1"):
        load_empirical_rewards(path)


def test_load_empirical_rewards_malformed_row_names_line(tmp_path):
    path = _write(tmp_path, "reward_eth\n1.0\nbogus\n2.0\n")
    with pytest.raises(ValueError, match="line 3"):
        load_empirical_rewards(path)


def test_load_empirical_rewards_negative_row(tmp_path):
    path = _write(tmp_path, "reward_eth\n1.0\n-0.5\n")
    with pytest.raises(ValueError, match="line 3"):
        load_empirical_rewards(path)


def test_load_empirical_rewards_extra_column(tmp_path):
    path = _write(tmp_path, "reward_eth\n1.0,2.0\n")
    with pytest.raises(ValueError, match="line 2"):
        load_empirical_rewards(path)


def test_load_empirical_rewards_empty(tmp_path):
    with pytest.raises(ValueError):
        load_empirical_rewards(_write(tmp_path, ""))
    with pytest.raises(ValueError):
        load_empirical_rewards(_write(tmp_path, "reward_eth\n"))


# ---------------------------------------------------------------------------
# EconomyParams
# ---------------------------------------------------------------------------


def test_economy_params_validation():
    params = EconomyParams(n=10, d=0.01, reward=ConstantReward(2.0))
    assert params.mu == 2.0
    assert params.var_r == 0.0
    with pytest.raises(ValueError):
        EconomyParams(n=0, d=0.01, reward=ConstantReward(1.0))
    with pytest.raises(ValueError):
        EconomyParams(n=5, d=-0.01, reward=ConstantReward(1.0))
    with pytest.raises(TypeError):
        EconomyParams(n=5, d=0.01, reward=1.0)


def test_economy_params_allows_zero_discount():
    # d = 0 is legal for finite-horizon simulation; valuations reject it later.
    assert EconomyParams(n=5, d=0.0, reward=ConstantReward(1.0)).d == 0.0
