"""Experiment configuration: a JSON file validated into typed objects.

Precedence is CLI flags > file keys > defaults. ``resolve`` decides from one
table which keys a command reads: it rejects a key that the command does not
read, and builds the report's echo from every key that it does read, with
defaults materialized and each section normalized by its parser. The echo is
a config the same command accepts, and running it again reproduces the
report byte for byte.

A sweep is one config per value, parsed by the same code as a single run's:
the base config's run keys, with the key that the swept parameter sets given
the value. A value's error is reported at ``sweep.values[i]``.
"""

from __future__ import annotations

import json
import math
import os
from typing import NamedTuple, Optional

from .core import (
    ConstantReward,
    EconomyParams,
    LognormalReward,
    ParetoReward,
    RewardModel,
    load_empirical_rewards,
)
from .errors import ConfigError
from .market import FairValue, FixedDiscount, FixedMargin, MultiBlockSpec, PricingPolicy
from .quantities import Quantity, entries

OUTPUT_FORMATS = ("csv", "jsonl")
# The discount rates at which every oracle of a unit-scale reward is within
# verify's tolerance of its closed form (README, "The discount rate").
D_RANGE = (1e-10, 1e100)

DEFAULTS = {
    "seed": 42,
    "trials": 100_000,
    "workers": 1,
    "n": 32,
    "d": 0.01,
    "reward": {"kind": "constant", "mean": 1.0},
    "quantity": Quantity.TICKET_VALUE.value,
    "holder_share": None,
    "timings": False,
    "policy": {"kind": "fair_value"},
}


# Which commands read each key: a command given a key it does not read exits
# 2 naming it, and its report echoes every key it reads.
_READ_BY = {
    **dict.fromkeys(("seed", "n", "d", "reward", "timings"), lambda command, cfg: True),
    # No closed form or oracle reads the Monte Carlo key.
    "trials": lambda command, cfg: command not in ("analytic", "pricing"),
    "quantity": lambda command, cfg: command == "simulate",
    # A p sweep's values replace the share, and a k sweep's pool reads none.
    "holder_share": lambda command, cfg: command not in ("pricing", "pool") and not (
        command == "sweep" and cfg.sweep is not None and cfg.sweep.parameter in ("p", "k")),
    "sweep": lambda command, cfg: command == "sweep",
    "policy": lambda command, cfg: command == "pricing",
    "pool": lambda command, cfg: command == "pool",
    "multiblock": lambda command, cfg: command == "multiblock" or (
        command == "simulate" and cfg.quantity == Quantity.HOLDER_VALUE.value),
}
# Accepted by every command and echoed by none: no report's bytes depend on them.
_UNECHOED = ("workers", "output")
_TOP_KEYS = {*_READ_BY, *_UNECHOED}


class SweepSpec(NamedTuple):
    """A sweep: each value's config, and the row that each value gives, read
    as ``harness`` reads a command's rows: the table entry named ``entry``,
    in ``mode``, sampling in ``check`` mode where ``mc`` is set."""

    parameter: str
    values: tuple
    configs: tuple               # one ExperimentConfig per value, in order
    entry: str
    mode: str
    mc: bool = False


class ExperimentConfig(NamedTuple):
    seed: int
    trials: int
    workers: int
    n: int
    d: float
    reward: RewardModel
    quantity: str
    holder_share: Optional[float]
    sweep: Optional[SweepSpec]
    policy: PricingPolicy
    pool_size: Optional[int]     # k tickets sharing their payoffs equally
    multiblock: Optional[MultiBlockSpec]
    output_path: Optional[str]
    output_format: str
    timings: bool

    @property
    def params(self) -> EconomyParams:
        return EconomyParams(n=self.n, d=self.d, reward=self.reward)


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


def _expect_bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(path, f"expected true or false, got {value!r}")
    return value


def _expect_quantity(value, path: str, choices) -> str:
    names = [quantity.value for quantity, _ in choices]
    if value not in names:
        raise ConfigError(path, f"expected one of {names}, got {value!r}")
    return value


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
        model, normalized = ConstantReward(mean), {"kind": "constant", "mean": mean}
    elif kind == "lognormal":
        _check_keys(spec, {"kind", "mean", "mu_log", "sigma_log"}, path)
        sigma = _expect_number(spec.get("sigma_log", 1.0), f"{path}.sigma_log", exclusive_min=0.0)
        if "mu_log" in spec and "mean" in spec:
            raise ConfigError(path, "give either 'mean' or 'mu_log', not both")
        if "mu_log" in spec:    # the mean exp(mu_log + sigma_log^2 / 2), which the model holds
            mu_log = _expect_number(spec["mu_log"], f"{path}.mu_log")
            try:
                mean = math.exp(mu_log + 0.5 * sigma**2)
            except OverflowError:
                mean = math.inf
            if not 0.0 < mean < math.inf:
                raise ConfigError(f"{path}.mu_log", f"gives the mean {mean}, not finite and > 0")
        else:
            mean = _expect_number(spec.get("mean", 1.0), f"{path}.mean", exclusive_min=0.0)
        model = LognormalReward(mean, sigma)
        normalized = {"kind": "lognormal", "mean": mean, "sigma_log": sigma}
    elif kind == "pareto":
        _check_keys(spec, {"kind", "shape", "scale"}, path)
        shape = _expect_number(spec.get("shape"), f"{path}.shape", exclusive_min=2.0)
        scale = _expect_number(spec.get("scale", 1.0), f"{path}.scale", exclusive_min=0.0)
        model, normalized = ParetoReward(shape, scale), {"kind": "pareto", "shape": shape, "scale": scale}
    elif kind == "empirical":
        _check_keys(spec, {"kind", "path"}, path)
        csv_path = spec.get("path")
        if not isinstance(csv_path, str):
            raise ConfigError(f"{path}.path", f"expected a file path string, got {csv_path!r}")
        try:
            model = load_empirical_rewards(csv_path)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"{path}.path", str(exc)) from exc
        normalized = {"kind": "empirical", "path": csv_path}
    else:
        raise ConfigError(
            f"{path}.kind", f"expected one of constant/lognormal/pareto/empirical, got {kind!r}"
        )
    try:    # every valuation takes the reward's mean and second moment
        finite = math.isfinite(model.variance() + model.mean() ** 2)
    except OverflowError:
        finite = False
    if not finite:
        raise ConfigError(path, "the reward's mean or second moment overflows a float")
    return model, normalized


# Each sweep parameter's row: the entry it reads unless the sweep names a
# quantity, and its mode. A beta value gives multiblock's row, a k value the
# pooled row of pool's, and any other value its quantity's oracle row.
_SWEEP_ROWS = {
    "n": (Quantity.TICKET_VALUE.value, "check"),
    "d": (Quantity.NPV_REWARDS.value, "check"),
    "mu": (Quantity.TICKET_VALUE.value, "check"),
    "sigma_log": (Quantity.TICKET_VALUE_VARIANCE.value, "check"),
    "beta": (Quantity.HOLDER_VALUE.value, "estimate"),
    "k": ("pooled_per_ticket_variance", "estimate"),
    "p": (Quantity.CONTROL_VALUE.value, "check"),
}
SWEEP_PARAMETERS = tuple(_SWEEP_ROWS)
# The keys of the base config that each sweep value's config takes.
_SWEEP_RUN_KEYS = ("seed", "trials", "workers", "n", "d", "reward", "holder_share", "timings")


def _swept_key(parameter: str, value, reward: RewardModel) -> dict:
    """The key that a ``parameter`` sweep's ``value`` sets, unchecked: ``mu``
    and ``sigma_log`` set the mean or the sigma_log of the base ``reward``."""
    if parameter == "mu" and isinstance(reward, ConstantReward):
        return {"reward": {"kind": "constant", "mean": value}}
    if parameter in ("mu", "sigma_log"):
        if not isinstance(reward, LognormalReward):
            raise ConfigError("sweep.parameter", f"cannot sweep {parameter} over a {reward.kind} reward")
        spec = {"kind": "lognormal", "mean": reward.mean(), "sigma_log": reward.sigma_log}
        return {"reward": {**spec, "mean" if parameter == "mu" else "sigma_log": value}}
    return {"n": {"n": value}, "d": {"d": value}, "p": {"holder_share": value},
            "beta": {"multiblock": {"beta": value}}, "k": {"pool": {"k": value}}}[parameter]


def _parse_sweep(spec, path: str, raw: dict, reward: tuple[RewardModel, dict]) -> tuple[SweepSpec, dict]:
    """The sweep section of the config ``raw``, whose parsed reward is ``reward``."""
    spec = _expect_mapping(spec, path)
    _check_keys(spec, {"parameter", "values", "quantity", "mc"}, path)
    parameter = spec.get("parameter")
    if parameter not in SWEEP_PARAMETERS:
        raise ConfigError(f"{path}.parameter", f"expected one of {SWEEP_PARAMETERS}, got {parameter!r}")
    values = spec.get("values")
    if not isinstance(values, list) or not values:
        raise ConfigError(f"{path}.values", "expected a non-empty list of values")
    base = {key: raw[key] for key in _SWEEP_RUN_KEYS if key in raw}
    configs = []
    for i, value in enumerate(values):
        swept = _swept_key(parameter, value, reward[0])
        try:    # a value that does not set the reward reuses it, read once
            configs.append(_parse({**base, **swept}, None if "reward" in swept else reward)[0])
        except ConfigError as exc:
            raise ConfigError(f"{path}.values[{i}]", exc.message) from exc
    # Each value is valid as its key, which keeps an integer n or k as given.
    checked = tuple(value if parameter in ("n", "k") else float(value) for value in values)
    normalized = {"parameter": parameter, "values": list(checked)}
    entry, mode = _SWEEP_ROWS[parameter]
    quantity = spec.get("quantity")
    if quantity is not None:
        if parameter in ("beta", "k", "p"):
            raise ConfigError(f"{path}.quantity", f"not used when sweeping {parameter}")
        entry = normalized["quantity"] = _expect_quantity(
            quantity, f"{path}.quantity", entries(oracle=True, estimator=True))
    mc = False
    if mode == "estimate":
        if "mc" in spec:
            raise ConfigError(f"{path}.mc", f"not used when sweeping {parameter}: it always samples")
    else:
        mc = normalized["mc"] = _expect_bool(spec.get("mc", False), f"{path}.mc")
    sweep = SweepSpec(parameter, checked, tuple(configs), entry, mode, mc)
    return sweep, normalized


def _parse_policy(spec, path: str) -> tuple[PricingPolicy, dict]:
    spec = _expect_mapping(spec, path)
    kind = spec.get("kind")
    if kind == "fair_value":
        _check_keys(spec, {"kind"}, path)
        policy = FairValue()
    elif kind == "fixed_margin":
        _check_keys(spec, {"kind", "margin"}, path)
        policy = FixedMargin(_expect_number(spec.get("margin", 0.0), f"{path}.margin", minimum=0.0))
    elif kind == "fixed_discount":
        _check_keys(spec, {"kind", "discount"}, path)
        policy = FixedDiscount(
            _expect_number(spec.get("discount", 0.0), f"{path}.discount", minimum=0.0, maximum=1.0)
        )
    else:
        raise ConfigError(
            f"{path}.kind", f"expected one of fair_value/fixed_margin/fixed_discount, got {kind!r}"
        )
    return policy, {"kind": kind, **policy._asdict()}


def _parse_pool(spec, path: str) -> tuple[int, dict]:
    spec = _expect_mapping(spec, path)
    _check_keys(spec, {"k"}, path)
    k = _expect_int(spec.get("k"), f"{path}.k", minimum=1)
    return k, {"k": k}


def _parse_multiblock(spec, path: str) -> tuple[MultiBlockSpec, dict]:
    spec = _expect_mapping(spec, path)
    _check_keys(spec, {"beta"}, path)
    multiblock = MultiBlockSpec(beta=_expect_number(spec.get("beta", 0.0), f"{path}.beta", minimum=0.0))
    return multiblock, multiblock._asdict()


def _check_report_path(path) -> None:
    """Reject a report path that no write can succeed at, before the run."""
    if not isinstance(path, str) or not path:
        raise ConfigError("output.path", f"expected a file path, got {path!r}")
    if os.path.isdir(path):
        raise ConfigError("output.path", f"{path!r} is a directory")
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise ConfigError("output.path", f"no directory {parent!r}")


def _section(raw: dict, key: str, parse) -> tuple:
    """``parse``'s (typed value, normalized spec) of section ``key``, or (None, None)."""
    return parse(raw[key], key) if raw.get(key) is not None else (None, None)


def _parse(raw: dict, reward: Optional[tuple[RewardModel, dict]] = None) -> tuple[ExperimentConfig, dict]:
    """The validated config of a raw key tree, and the normalized spec of
    every key in ``_READ_BY`` (None where the key is absent and has no
    default). ``reward``, when given, is ``raw``'s reward already parsed."""
    raw = _expect_mapping(raw, "<config>")
    _check_keys(raw, _TOP_KEYS, "")
    merged = {**DEFAULTS, **raw}

    spec = {
        "seed": _expect_int(merged["seed"], "seed", minimum=0),
        "trials": _expect_int(merged["trials"], "trials", minimum=100),
    }
    workers = _expect_int(merged["workers"], "workers", minimum=1)
    spec["n"] = n = _expect_int(merged["n"], "n", minimum=1)
    spec["d"] = d = _expect_number(merged["d"], "d", exclusive_min=0.0)
    if not D_RANGE[0] <= d <= D_RANGE[1]:
        raise ConfigError("d", f"must be between {D_RANGE[0]:g} and {D_RANGE[1]:g}, got {d}")
    reward, spec["reward"] = reward or _parse_reward(merged["reward"], "reward")
    spec["quantity"] = _expect_quantity(merged["quantity"], "quantity", entries(estimator=True))
    share = merged["holder_share"]
    spec["holder_share"] = None if share is None else _expect_number(
        share, "holder_share", exclusive_min=0.0, maximum=1.0)
    spec["timings"] = _expect_bool(merged["timings"], "timings")

    sweep, spec["sweep"] = _section(
        raw, "sweep", lambda section, path: _parse_sweep(section, path, raw, (reward, spec["reward"])))
    policy, spec["policy"] = _parse_policy(
        DEFAULTS["policy"] if raw.get("policy") is None else raw["policy"], "policy")
    pool_size, spec["pool"] = _section(raw, "pool", _parse_pool)
    multiblock, spec["multiblock"] = _section(raw, "multiblock", _parse_multiblock)

    out = _expect_mapping({} if raw.get("output") is None else raw["output"], "output")
    _check_keys(out, {"path", "format"}, "output")
    output_path = out.get("path")
    if output_path is not None:
        _check_report_path(output_path)
    output_format = out.get("format", "csv")
    if output_format not in OUTPUT_FORMATS:
        raise ConfigError("output.format", f"expected one of {OUTPUT_FORMATS}, got {output_format!r}")

    if pool_size is not None and pool_size > n:
        raise ConfigError("pool.k", f"pool size {pool_size} exceeds ticket count n={n}")

    scalars = ("seed", "trials", "n", "d", "quantity", "holder_share", "timings")
    cfg = ExperimentConfig(
        **{key: spec[key] for key in scalars}, workers=workers, reward=reward, sweep=sweep,
        policy=policy, pool_size=pool_size, multiblock=multiblock, output_path=output_path,
        output_format=output_format,
    )
    return cfg, spec


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate a raw key tree into a fully resolved ExperimentConfig."""
    return _parse(raw)[0]


def _reader(command: str, cfg: ExperimentConfig) -> str:
    if command == "simulate":
        return f"simulate of {cfg.quantity}"
    if command == "sweep" and cfg.sweep is not None:
        return f"sweep over {cfg.sweep.parameter}"
    return command


def resolve(raw: dict, command: str) -> tuple[ExperimentConfig, dict]:
    """The config that ``command`` runs from a raw key tree, and the echo
    its report carries.

    A key given (not null) that ``command`` does not read is a ConfigError.
    The echo holds each key that it reads, normalized, and no other key, so
    the same command accepts the echo and reproduces the report from it.
    """
    cfg, spec = _parse(raw)
    echo = {}
    for key, reads in _READ_BY.items():
        if reads(command, cfg):
            echo[key] = spec[key]
        elif raw.get(key) is not None:
            raise ConfigError(key, f"not read by {_reader(command, cfg)}")
    return cfg, echo


def read_raw_config(path) -> dict:
    """Read a JSON config file into its raw key tree (no validation)."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(str(path), f"cannot read config: {exc}") from exc
    except ValueError as exc:       # a JSONDecodeError, or a UnicodeDecodeError
        raise ConfigError(str(path), f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(str(path), "top-level config must be a JSON object")
    return raw


def load_config(path) -> ExperimentConfig:
    """Read and validate a JSON configuration file."""
    return parse_config(read_raw_config(path))
