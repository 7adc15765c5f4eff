"""Domain types shared by every other module: economy parameters, per-slot
reward distributions, and present-value discounting.

Rewards are dimensionless non-negative reals; the caller decides the unit
(ETH, Gwei, ...). All types here are immutable after construction and safe
to share across workers. Random streams are never stored on a model: every
sampling call takes the caller's generator.
"""

from __future__ import annotations

import csv
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar

if TYPE_CHECKING:   # numpy loads where a reward is sampled or an empirical reward is built
    import numpy as np


# ---------------------------------------------------------------------------
# Reward distributions
# ---------------------------------------------------------------------------


class RewardModel(ABC):
    """Distribution of the per-slot reward collected by a winning ticket.

    Draws at distinct slots are i.i.d. and non-negative. ``mean`` and
    ``variance`` return the exact analytic moments of the configured
    distribution, not sample estimates.
    """

    kind: ClassVar[str]

    @abstractmethod
    def mean(self) -> float: ...

    @abstractmethod
    def variance(self) -> float: ...

    @abstractmethod
    def sample(self, rng: np.random.Generator, size=None):
        """Draw one reward (size=None) or an array of the given shape."""


@dataclass(frozen=True)
class ConstantReward(RewardModel):
    """Degenerate distribution: every slot pays exactly ``value``."""

    value: float
    kind: ClassVar[str] = "constant"

    def __post_init__(self):
        if not (self.value >= 0.0 and math.isfinite(self.value)):
            raise ValueError(f"constant reward must be finite and >= 0, got {self.value}")

    def mean(self) -> float:
        return self.value

    def variance(self) -> float:
        return 0.0

    def sample(self, rng: np.random.Generator, size=None):
        if size is None:
            return self.value
        import numpy as np
        return np.full(size, self.value, dtype=np.float64)


@dataclass(frozen=True)
class LognormalReward(RewardModel):
    """Lognormal rewards parameterized on the log scale (mu_log, sigma_log)."""

    mu_log: float
    sigma_log: float
    kind: ClassVar[str] = "lognormal"

    def __post_init__(self):
        if not (self.sigma_log > 0.0 and math.isfinite(self.sigma_log)):
            raise ValueError(f"sigma_log must be finite and > 0, got {self.sigma_log}")
        if not math.isfinite(self.mu_log):
            raise ValueError(f"mu_log must be finite, got {self.mu_log}")

    def mean(self) -> float:
        return math.exp(self.mu_log + 0.5 * self.sigma_log**2)

    def variance(self) -> float:
        return self.mean() ** 2 * math.expm1(self.sigma_log**2)

    def sample(self, rng: np.random.Generator, size=None):
        # exp(mu_log + sigma_log * Z) in place: the normals ``rng.lognormal``
        # would consume, without its temporaries.
        if size is None:
            return math.exp(self.mu_log + self.sigma_log * rng.standard_normal())
        import numpy as np
        draws = rng.standard_normal(size)
        draws *= self.sigma_log
        draws += self.mu_log
        return np.exp(draws, out=draws)


@dataclass(frozen=True)
class ParetoReward(RewardModel):
    """Heavy-tailed rewards: classical Pareto with minimum ``scale``.

    ``shape`` must exceed 2 so the variance is finite; the variance
    analytics downstream are meaningless otherwise.
    """

    shape: float
    scale: float
    kind: ClassVar[str] = "pareto"

    def __post_init__(self):
        if not (self.shape > 2.0 and math.isfinite(self.shape)):
            raise ValueError(f"pareto shape must be > 2 for finite variance, got {self.shape}")
        if not (self.scale > 0.0 and math.isfinite(self.scale)):
            raise ValueError(f"pareto scale must be finite and > 0, got {self.scale}")

    def mean(self) -> float:
        return self.shape * self.scale / (self.shape - 1.0)

    def variance(self) -> float:
        a = self.shape
        return self.scale**2 * a / ((a - 1.0) ** 2 * (a - 2.0))

    def sample(self, rng: np.random.Generator, size=None):
        # numpy's pareto() is the Lomax form on [0, inf); shift to [scale, inf).
        return (rng.pareto(self.shape, size=size) + 1.0) * self.scale


class EmpiricalReward(RewardModel):
    """Resampling distribution over an ingested data set.

    Draws are uniform with replacement, so the exact moments are the
    population moments (ddof=0) of the data.
    """

    kind: ClassVar[str] = "empirical"

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

    def sample(self, rng: np.random.Generator, size=None):
        picked = self._values[rng.integers(0, self._values.size, size=size)]
        return float(picked) if size is None else picked

    def __repr__(self):
        return f"EmpiricalReward(<{self._values.size} values>, mean={self._mean:g})"

    def __eq__(self, other):
        import numpy as np
        return isinstance(other, EmpiricalReward) and np.array_equal(self._values, other._values)


def calibrate_lognormal(target_mean: float, sigma_log: float) -> LognormalReward:
    """Lognormal model whose analytic mean equals ``target_mean``.

    Solves exp(mu_log + sigma_log^2 / 2) = target_mean for mu_log, so the
    variance comes out as target_mean^2 * (exp(sigma_log^2) - 1).
    """
    if not (target_mean > 0.0 and math.isfinite(target_mean)):
        raise ValueError(f"target_mean must be finite and > 0, got {target_mean}")
    if not (sigma_log > 0.0 and math.isfinite(sigma_log)):
        raise ValueError(f"sigma_log must be finite and > 0, got {sigma_log}")
    return LognormalReward(mu_log=math.log(target_mean) - 0.5 * sigma_log**2, sigma_log=sigma_log)


REWARD_CSV_COLUMN = "reward_eth"


def load_empirical_rewards(path) -> EmpiricalReward:
    """Ingest a one-column CSV (header ``reward_eth``) of non-negative rewards.

    Malformed rows are a hard error naming the offending line number.
    """
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
# Discounting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiscountCurve:
    """Per-slot geometric discounting at rate ``d``."""

    d: float

    def __post_init__(self):
        if not (self.d >= 0.0 and math.isfinite(self.d)):
            raise ValueError(f"discount rate must be finite and >= 0, got {self.d}")

    def factor(self, t: int) -> float:
        """1 / (1+d)^t, with factor(0) = 1."""
        if t < 0 or t != int(t):
            raise ValueError(f"slot index must be a non-negative integer, got {t}")
        return (1.0 + self.d) ** (-float(t))


# ---------------------------------------------------------------------------
# Economy parameters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EconomyParams:
    """Constants of one economy: ticket count ``n``, inter-slot discount rate
    ``d``, and the per-slot reward distribution.

    ``d == 0`` is accepted here because finite-horizon simulation is well
    defined without discounting; every infinite-horizon valuation raises
    ``DiscountRateError`` on its own.
    """

    n: int
    d: float
    reward: RewardModel

    def __post_init__(self):
        if self.n < 1 or self.n != int(self.n):
            raise ValueError(f"ticket count n must be an integer >= 1, got {self.n}")
        if not (self.d >= 0.0 and math.isfinite(self.d)):
            raise ValueError(f"discount rate d must be finite and >= 0, got {self.d}")
        if not isinstance(self.reward, RewardModel):
            raise TypeError(f"reward must be a RewardModel, got {type(self.reward).__name__}")

    @property
    def mu(self) -> float:
        return self.reward.mean()

    @property
    def var_r(self) -> float:
        return self.reward.variance()
