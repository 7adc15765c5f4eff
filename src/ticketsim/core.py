"""Domain types shared by every other module: economy parameters and
per-slot reward distributions.

Rewards are dimensionless non-negative reals; the caller decides the unit
(ETH, Gwei, ...). All types here are immutable after construction and safe
to share across workers. A reward model holds a law's exact mean and
variance and draws nothing: the samplers draw the lottery's slots and
condition on them, so these two moments are all they read of a reward.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, ClassVar

if TYPE_CHECKING:   # numpy loads where an empirical reward is built
    import numpy as np


class Frozen:
    """Base of the validated value types: ``__init__`` checks its arguments
    and stores them as the ``_fields``, which nothing may then reassign. An
    object equals one of its own type with equal fields, hashes and prints
    by them, and unpickles through ``__init__``, so a copy is checked again."""

    _fields: ClassVar[tuple[str, ...]] = ()

    def _freeze(self, *values) -> None:
        self.__dict__.update(zip(self._fields, values))

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def _asdict(self) -> dict:
        return dict(zip(self._fields, self._values()))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in self._asdict().items())
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


# ---------------------------------------------------------------------------
# Reward distributions
# ---------------------------------------------------------------------------


class RewardModel(ABC):
    """Distribution of the per-slot reward collected by a winning ticket.

    Rewards at distinct slots are i.i.d. and non-negative. ``mean`` and
    ``variance`` return the exact analytic moments of the configured
    distribution, not sample estimates.
    """

    kind: ClassVar[str]

    @abstractmethod
    def mean(self) -> float: ...

    @abstractmethod
    def variance(self) -> float: ...


class ConstantReward(Frozen, RewardModel):
    """Degenerate distribution: every slot pays exactly ``value``."""

    _fields = ("value",)
    kind = "constant"

    def __init__(self, value: float):
        if not (value >= 0.0 and math.isfinite(value)):
            raise ValueError(f"constant reward must be finite and >= 0, got {value}")
        self._freeze(value)

    def mean(self) -> float:
        return self.value

    def variance(self) -> float:
        return 0.0


class LognormalReward(Frozen, RewardModel):
    """Lognormal rewards of mean ``mu`` and log-scale deviation ``sigma_log``.

    The mean is held as given, so it and the variance mu^2 (e^(sigma_log^2)
    - 1) scale exactly with the reward's unit; the log-scale mean ``mu_log``
    is derived from them.
    """

    _fields = ("mu", "sigma_log")
    kind = "lognormal"

    def __init__(self, mu: float, sigma_log: float):
        if not (sigma_log > 0.0 and math.isfinite(sigma_log)):
            raise ValueError(f"sigma_log must be finite and > 0, got {sigma_log}")
        if not (mu > 0.0 and math.isfinite(mu)):
            raise ValueError(f"lognormal mean must be finite and > 0, got {mu}")
        self._freeze(mu, sigma_log)

    @property
    def mu_log(self) -> float:
        return math.log(self.mu) - 0.5 * self.sigma_log**2

    def mean(self) -> float:
        return self.mu

    def variance(self) -> float:
        return self.mu**2 * math.expm1(self.sigma_log**2)


class ParetoReward(Frozen, RewardModel):
    """Heavy-tailed rewards: classical Pareto with minimum ``scale``.

    ``shape`` must exceed 2 so the variance is finite; the variance
    analytics downstream are meaningless otherwise.
    """

    _fields = ("shape", "scale")
    kind = "pareto"

    def __init__(self, shape: float, scale: float):
        if not (shape > 2.0 and math.isfinite(shape)):
            raise ValueError(f"pareto shape must be > 2 for finite variance, got {shape}")
        if not (scale > 0.0 and math.isfinite(scale)):
            raise ValueError(f"pareto scale must be finite and > 0, got {scale}")
        self._freeze(shape, scale)

    def mean(self) -> float:
        return self.shape * self.scale / (self.shape - 1.0)

    def variance(self) -> float:
        a = self.shape
        return self.scale**2 * a / ((a - 1.0) ** 2 * (a - 2.0))


class EmpiricalReward(RewardModel):
    """Resampling distribution over an ingested data set.

    A reward is one of the values, uniformly, so the exact moments are the
    population moments (ddof=0) of the data.
    """

    kind = "empirical"

    def __init__(self, values):
        import numpy as np   # the moments are numpy's, to keep their bytes
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("empirical rewards need at least one value")
        if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
            raise ValueError("empirical rewards must be finite and >= 0")
        self._values = arr
        self._values.setflags(write=False)
        with np.errstate(over="ignore"):    # a moment that overflows is inf
            self._mean = float(np.mean(arr))
            self._var = float(np.var(arr))

    @property
    def values(self) -> np.ndarray:
        return self._values

    def mean(self) -> float:
        return self._mean

    def variance(self) -> float:
        return self._var

    def __repr__(self):
        return f"EmpiricalReward(<{self._values.size} values>, mean={self._mean:g})"

    def __eq__(self, other):
        import numpy as np
        return isinstance(other, EmpiricalReward) and np.array_equal(self._values, other._values)

    def __hash__(self):
        return hash((self._values.size, self._mean))     # equal values (-0.0 == 0.0) have equal means


def calibrate_lognormal(target_mean: float, sigma_log: float) -> LognormalReward:
    """``LognormalReward(target_mean, sigma_log)``. No longer exported: only
    perfbench's kernel grid still builds its reward with it, and the function
    goes once the benchmark stops calling it (ROADMAP item 4)."""
    return LognormalReward(target_mean, sigma_log)


REWARD_CSV_COLUMN = "reward_eth"


def load_empirical_rewards(path) -> EmpiricalReward:
    """Ingest a one-column CSV (header ``reward_eth``) of non-negative rewards.

    Malformed rows are a hard error naming the offending line number.
    """
    import csv
    values = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file, expected header '{REWARD_CSV_COLUMN}'") from None
        if header != [REWARD_CSV_COLUMN]:
            raise ValueError(f"{path}: line 1: expected header '{REWARD_CSV_COLUMN}', got {header!r}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 1:
                raise ValueError(f"{path}: line {lineno}: expected 1 column, got {len(row)}")
            try:
                value = float(row[0])
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: not a number: {row[0]!r}") from None
            if not math.isfinite(value) or value < 0.0:
                raise ValueError(f"{path}: line {lineno}: reward must be finite and >= 0, got {row[0]!r}")
            values.append(value)
    if not values:
        raise ValueError(f"{path}: no data rows")
    return EmpiricalReward(values)


# ---------------------------------------------------------------------------
# Economy parameters
# ---------------------------------------------------------------------------


class EconomyParams(Frozen):
    """Constants of one economy: ticket count ``n``, inter-slot discount rate
    ``d``, and the per-slot reward distribution.

    ``d == 0`` is accepted here because a sampler given an explicit horizon
    is well defined without discounting; every valuation and ``estimate``
    raise ``DiscountRateError`` on their own.
    """

    _fields = ("n", "d", "reward")

    def __init__(self, n: int, d: float, reward: RewardModel):
        if n < 1 or n != int(n):
            raise ValueError(f"ticket count n must be an integer >= 1, got {n}")
        if not (d >= 0.0 and math.isfinite(d)):
            raise ValueError(f"discount rate d must be finite and >= 0, got {d}")
        if not isinstance(reward, RewardModel):
            raise TypeError(f"reward must be a RewardModel, got {type(reward).__name__}")
        self._freeze(n, d, reward)

    @property
    def mu(self) -> float:
        return self.reward.mean()

    @property
    def var_r(self) -> float:
        return self.reward.variance()
