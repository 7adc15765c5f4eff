"""Experiment configuration: a JSON file validated into typed objects.

Precedence is CLI flags > file keys > defaults. Every run echoes the fully
resolved configuration (defaults materialized, derived horizons included)
into its report so the run is reproducible from the artifact alone.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Optional

from .core import (
    ConstantReward,
    EconomyParams,
    LognormalReward,
    ParetoReward,
    RewardModel,
    calibrate_lognormal,
    load_empirical_rewards,
)
from .engine import discount_horizon, win_horizon
from .errors import ConfigError
from .market import FairValue, FixedDiscount, FixedMargin, MultiBlockSpec, PricingPolicy
from .quantities import Quantity, entries

SWEEP_PARAMETERS = ("n", "d", "mu", "sigma_log", "beta", "k", "p")
OUTPUT_FORMATS = ("csv", "jsonl")

_TOP_KEYS = {
    "seed", "trials", "workers", "n", "d", "reward", "quantity", "holder_share",
    "horizon", "sweep", "policy", "pool", "multiblock", "output", "timings",
}

DEFAULTS = {
    "seed": 42,
    "trials": 100_000,
    "workers": 1,
    "n": 32,
    "d": 0.01,
    "reward": {"kind": "constant", "mean": 1.0},
    "quantity": Quantity.TICKET_VALUE.value,
    "holder_share": None,
    "horizon": None,
    "timings": False,
}


@dataclass(frozen=True)
class SweepSpec:
    parameter: str
    values: tuple
    quantity: Optional[str] = None
    mc: bool = False


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int
    trials: int
    workers: int
    n: int
    d: float
    reward: RewardModel
    reward_spec: dict
    quantity: str
    holder_share: Optional[float]
    horizon: Optional[int]
    sweep: Optional[SweepSpec]
    policy: Optional[PricingPolicy]
    pool_size: Optional[int]     # k tickets sharing their payoffs equally
    multiblock: Optional[MultiBlockSpec]
    output_path: Optional[str]
    output_format: str
    timings: bool

    @property
    def params(self) -> EconomyParams:
        return EconomyParams(n=self.n, d=self.d, reward=self.reward)

    def resolved_dict(self) -> dict:
        """Fully materialized configuration for report embedding.

        Only keys that determine results are echoed: worker count and output
        destination are deliberately excluded so that reports stay
        byte-identical across worker counts and file locations.
        """
        out: dict[str, Any] = {
            "seed": self.seed,
            "trials": self.trials,
            "n": self.n,
            "d": self.d,
            "reward": dict(self.reward_spec),
            "quantity": self.quantity,
            "holder_share": self.holder_share,
            "horizon": self.horizon,
            "timings": self.timings,
            "derived": {
                "win_horizon": win_horizon(self.n),
                "discount_horizon": discount_horizon(self.d),
                "reward_mean": self.reward.mean(),
                "reward_variance": self.reward.variance(),
            },
        }
        if self.sweep is not None:
            out["sweep"] = {
                "parameter": self.sweep.parameter,
                "values": list(self.sweep.values),
                "quantity": self.sweep.quantity,
                "mc": self.sweep.mc,
            }
        if self.policy is not None:
            spec = {"kind": self.policy.kind}
            if isinstance(self.policy, FixedMargin):
                spec["margin"] = self.policy.margin
            elif isinstance(self.policy, FixedDiscount):
                spec["discount"] = self.policy.discount
            out["policy"] = spec
        if self.pool_size is not None:
            out["pool"] = {"k": self.pool_size}
        if self.multiblock is not None:
            out["multiblock"] = {"beta": self.multiblock.beta}
        return out


def _expect_mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(path, f"expected an object, got {type(value).__name__}")
    return value


def _expect_int(value, path: str, minimum: Optional[int] = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(path, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(path, f"must be >= {minimum}, got {value}")
    return value


def _expect_number(value, path: str, minimum=None, exclusive_min=None, maximum=None) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {value!r}")
    x = float(value)
    if not math.isfinite(x):
        raise ConfigError(path, f"must be finite, got {value!r}")
    if minimum is not None and x < minimum:
        raise ConfigError(path, f"must be >= {minimum}, got {value}")
    if exclusive_min is not None and x <= exclusive_min:
        raise ConfigError(path, f"must be > {exclusive_min}, got {value}")
    if maximum is not None and x > maximum:
        raise ConfigError(path, f"must be <= {maximum}, got {value}")
    return x


def _expect_quantity(value, path: str, choices) -> None:
    names = [quantity.value for quantity, _ in choices]
    if value not in names:
        raise ConfigError(path, f"expected one of {names}, got {value!r}")


def _check_keys(mapping: dict, allowed: set, path: str) -> None:
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise ConfigError(f"{path}.{unknown[0]}" if path else unknown[0], "unknown key")


def _parse_reward(spec, path: str) -> tuple[RewardModel, dict]:
    spec = _expect_mapping(spec, path)
    kind = spec.get("kind")
    if kind == "constant":
        _check_keys(spec, {"kind", "mean"}, path)
        mean = _expect_number(spec.get("mean", 1.0), f"{path}.mean", minimum=0.0)
        return ConstantReward(mean), {"kind": "constant", "mean": mean}
    if kind == "lognormal":
        _check_keys(spec, {"kind", "mean", "mu_log", "sigma_log"}, path)
        sigma = _expect_number(spec.get("sigma_log", 1.0), f"{path}.sigma_log", exclusive_min=0.0)
        if "mu_log" in spec and "mean" in spec:
            raise ConfigError(path, "give either 'mean' or 'mu_log', not both")
        if "mu_log" in spec:
            model = LognormalReward(_expect_number(spec["mu_log"], f"{path}.mu_log"), sigma)
        else:
            mean = _expect_number(spec.get("mean", 1.0), f"{path}.mean", exclusive_min=0.0)
            model = calibrate_lognormal(mean, sigma)
        return model, {"kind": "lognormal", "mu_log": model.mu_log, "sigma_log": model.sigma_log}
    if kind == "pareto":
        _check_keys(spec, {"kind", "shape", "scale"}, path)
        shape = _expect_number(spec.get("shape"), f"{path}.shape", exclusive_min=2.0)
        scale = _expect_number(spec.get("scale", 1.0), f"{path}.scale", exclusive_min=0.0)
        return ParetoReward(shape, scale), {"kind": "pareto", "shape": shape, "scale": scale}
    if kind == "empirical":
        _check_keys(spec, {"kind", "path"}, path)
        csv_path = spec.get("path")
        if not isinstance(csv_path, str):
            raise ConfigError(f"{path}.path", f"expected a file path string, got {csv_path!r}")
        try:
            model = load_empirical_rewards(csv_path)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"{path}.path", str(exc)) from exc
        return model, {"kind": "empirical", "path": csv_path, "count": int(model.values.size)}
    raise ConfigError(
        f"{path}.kind", f"expected one of constant/lognormal/pareto/empirical, got {kind!r}"
    )


_SWEEP_DOMAINS = {
    "n": lambda v, p: _expect_int(v, p, minimum=1),
    "d": lambda v, p: _expect_number(v, p, exclusive_min=0.0),
    "mu": lambda v, p: _expect_number(v, p, minimum=0.0),
    "sigma_log": lambda v, p: _expect_number(v, p, exclusive_min=0.0),
    "beta": lambda v, p: _expect_number(v, p, minimum=0.0),
    "k": lambda v, p: _expect_int(v, p, minimum=1),
    "p": lambda v, p: _expect_number(v, p, exclusive_min=0.0, maximum=1.0),
}


def _parse_sweep(spec, path: str) -> SweepSpec:
    spec = _expect_mapping(spec, path)
    _check_keys(spec, {"parameter", "values", "quantity", "mc"}, path)
    parameter = spec.get("parameter")
    if parameter not in SWEEP_PARAMETERS:
        raise ConfigError(f"{path}.parameter", f"expected one of {SWEEP_PARAMETERS}, got {parameter!r}")
    values = spec.get("values")
    if not isinstance(values, list) or not values:
        raise ConfigError(f"{path}.values", "expected a non-empty list of values")
    checker = _SWEEP_DOMAINS[parameter]
    checked = tuple(checker(v, f"{path}.values[{i}]") for i, v in enumerate(values))
    quantity = spec.get("quantity")
    if quantity is not None:
        if parameter in ("beta", "k", "p"):
            raise ConfigError(f"{path}.quantity", f"not used when sweeping {parameter}")
        _expect_quantity(quantity, f"{path}.quantity", entries(oracle=True, estimator=True))
    if "mc" in spec and parameter in ("beta", "k"):
        raise ConfigError(f"{path}.mc", f"not used when sweeping {parameter}: it always samples")
    mc = spec.get("mc", False)
    if not isinstance(mc, bool):
        raise ConfigError(f"{path}.mc", f"expected true or false, got {mc!r}")
    return SweepSpec(parameter=parameter, values=checked, quantity=quantity, mc=mc)


def _parse_policy(spec, path: str) -> PricingPolicy:
    spec = _expect_mapping(spec, path)
    kind = spec.get("kind")
    if kind == "fair_value":
        _check_keys(spec, {"kind"}, path)
        return FairValue()
    if kind == "fixed_margin":
        _check_keys(spec, {"kind", "margin"}, path)
        return FixedMargin(_expect_number(spec.get("margin", 0.0), f"{path}.margin", minimum=0.0))
    if kind == "fixed_discount":
        _check_keys(spec, {"kind", "discount"}, path)
        return FixedDiscount(
            _expect_number(spec.get("discount", 0.0), f"{path}.discount", minimum=0.0, maximum=1.0)
        )
    raise ConfigError(
        f"{path}.kind", f"expected one of fair_value/fixed_margin/fixed_discount, got {kind!r}"
    )


def _parse_pool(spec, path: str) -> int:
    spec = _expect_mapping(spec, path)
    _check_keys(spec, {"k"}, path)
    return _expect_int(spec.get("k"), f"{path}.k", minimum=1)


def _parse_multiblock(spec, path: str) -> MultiBlockSpec:
    spec = _expect_mapping(spec, path)
    _check_keys(spec, {"beta"}, path)
    return MultiBlockSpec(beta=_expect_number(spec.get("beta", 0.0), f"{path}.beta", minimum=0.0))


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate a raw key tree into a fully resolved ExperimentConfig."""
    raw = _expect_mapping(raw, "<config>")
    _check_keys(raw, _TOP_KEYS, "")
    merged = {**DEFAULTS, **raw}

    seed = _expect_int(merged["seed"], "seed", minimum=0)
    trials = _expect_int(merged["trials"], "trials", minimum=100)
    workers = _expect_int(merged["workers"], "workers", minimum=1)
    n = _expect_int(merged["n"], "n", minimum=1)
    d = _expect_number(merged["d"], "d", exclusive_min=0.0)
    reward, reward_spec = _parse_reward(merged["reward"], "reward")

    quantity = merged["quantity"]
    _expect_quantity(quantity, "quantity", entries(estimator=True))

    holder_share = merged["holder_share"]
    if holder_share is not None:
        holder_share = _expect_number(holder_share, "holder_share", exclusive_min=0.0, maximum=1.0)

    horizon = merged["horizon"]
    if horizon is not None:
        horizon = _expect_int(horizon, "horizon", minimum=1)

    timings = merged["timings"]
    if not isinstance(timings, bool):
        raise ConfigError("timings", f"expected true or false, got {timings!r}")

    sweep = _parse_sweep(raw["sweep"], "sweep") if raw.get("sweep") is not None else None
    policy = _parse_policy(raw["policy"], "policy") if raw.get("policy") is not None else None
    pool_size = _parse_pool(raw["pool"], "pool") if raw.get("pool") is not None else None
    multiblock = (
        _parse_multiblock(raw["multiblock"], "multiblock") if raw.get("multiblock") is not None else None
    )

    output_path = None
    output_format = "csv"
    if raw.get("output") is not None:
        out = _expect_mapping(raw["output"], "output")
        _check_keys(out, {"path", "format"}, "output")
        output_path = out.get("path")
        if output_path is not None and not isinstance(output_path, str):
            raise ConfigError("output.path", f"expected a string, got {output_path!r}")
        output_format = out.get("format", "csv")
        if output_format not in OUTPUT_FORMATS:
            raise ConfigError("output.format", f"expected one of {OUTPUT_FORMATS}, got {output_format!r}")

    if pool_size is not None and pool_size > n:
        raise ConfigError("pool.k", f"pool size {pool_size} exceeds ticket count n={n}")
    if sweep is not None and sweep.parameter == "k":
        for i, k in enumerate(sweep.values):
            if k > n:
                raise ConfigError(f"sweep.values[{i}]", f"pool size {k} exceeds ticket count n={n}")

    return ExperimentConfig(
        seed=seed,
        trials=trials,
        workers=workers,
        n=n,
        d=d,
        reward=reward,
        reward_spec=reward_spec,
        quantity=quantity,
        holder_share=holder_share,
        horizon=horizon,
        sweep=sweep,
        policy=policy,
        pool_size=pool_size,
        multiblock=multiblock,
        output_path=output_path,
        output_format=output_format,
        timings=timings,
    )


def read_raw_config(path) -> dict:
    """Read a JSON config file into its raw key tree (no validation)."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(str(path), f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(str(path), f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(str(path), "top-level config must be a JSON object")
    return raw


def load_config(path) -> ExperimentConfig:
    """Read and validate a JSON configuration file."""
    return parse_config(read_raw_config(path))
