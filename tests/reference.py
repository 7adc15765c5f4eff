"""The slot-by-slot reference model that the samplers are tested against.

The object-level state machine (``init_state`` / ``step`` /
``run_trajectory``) keeps full ticket identity, holder and streak
bookkeeping and replays every draw, one slot at a time. ``ticketsim.engine``
samples the same law in vectorized blocks; the tests here hold the two to
each other. Nothing in the package imports this module, so a command
compiles none of it.

Also here, as the state machine's helpers and as references for tests:
per-slot discounting (``DiscountCurve``), the streak bonus applied to one
reward (``MultiBlockSpec.apply``) and a ticket's second moment
(``ticket_value_second_moment``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from ticketsim import analytics, market
from ticketsim.core import EconomyParams
from ticketsim.engine import win_horizon

MARKET_HOLDER = "market"


# ---------------------------------------------------------------------------
# Discounting, the streak bonus and the second moment
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


class MultiBlockSpec(market.MultiBlockSpec):
    """``market.MultiBlockSpec`` with the bonus it gives one reward."""

    def apply(self, reward: float, streak: int) -> float:
        return reward * (1.0 + self.beta * (streak - 1))


def ticket_value_second_moment(mu: float, var_r: float, d: float, n: float) -> float:
    """E[V^2] for one ticket: (var_r + mu^2) / (n*d^2 + 2*n*d + 1)."""
    analytics._check_mu(mu)
    analytics._check_var(var_r)
    analytics._check_rate(d)
    analytics._check_n(n)
    return (var_r + mu * mu) / (n * d * d + 2.0 * n * d + 1.0)


# ---------------------------------------------------------------------------
# Object-level state machine
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Ticket:
    """One live lottery ticket."""

    id: int
    holder: str
    minted_at: int


class ReplacementRule(Enum):
    """Who owns the ticket minted after a burn."""

    MARKET = "market"    # replacements go to the open market label
    RETAIN = "retain"    # the winner's holder buys the replacement


@dataclass
class SlotState:
    """Mutable per-trajectory lottery state. Single-owner; never shared."""

    slot: int
    pool: list[Ticket]
    next_id: int
    last_winner_holder: Optional[str] = None
    streak: int = 0

    @property
    def n(self) -> int:
        return len(self.pool)


@dataclass
class TrajectoryRecord:
    """Outcome of one simulated trajectory."""

    tracked_ticket_win_slot: Optional[int]
    discounted_payoff: float
    holder_totals: dict[str, float]
    slots_simulated: int
    truncated: bool


def init_state(params: EconomyParams, holders: Optional[Sequence[str]] = None) -> SlotState:
    """Mint tickets 0..n-1 at slot 0, assigned to ``holders`` position-wise."""
    if holders is None:
        holders = [MARKET_HOLDER] * params.n
    if len(holders) != params.n:
        raise ValueError(f"holder assignment covers {len(holders)} tickets, need exactly {params.n}")
    pool = [Ticket(id=i, holder=h, minted_at=0) for i, h in enumerate(holders)]
    return SlotState(slot=0, pool=pool, next_id=params.n)


def step(
    state: SlotState,
    params: EconomyParams,
    rng: np.random.Generator,
    multiblock: Optional[market.MultiBlockSpec] = None,
    replacement: ReplacementRule = ReplacementRule.MARKET,
) -> tuple[Ticket, float, SlotState]:
    """Advance one slot: draw a winner uniformly, realize its reward, burn it,
    and mint the replacement (eligible from the next draw).

    ``multiblock``, when given, rescales the drawn reward by its streak bonus
    without consuming extra randomness, so a zero-bonus spec is bit-identical
    to no spec at all. Mutates ``state`` in place and returns it.
    """
    i = int(rng.integers(0, state.n))
    winner = state.pool[i]
    base = float(params.reward.sample(rng))
    streak = state.streak + 1 if winner.holder == state.last_winner_holder else 1
    reward = base if multiblock is None else MultiBlockSpec.apply(multiblock, base, streak)

    state.slot += 1
    new_holder = winner.holder if replacement is ReplacementRule.RETAIN else MARKET_HOLDER
    state.pool[i] = Ticket(id=state.next_id, holder=new_holder, minted_at=state.slot)
    state.next_id += 1
    state.last_winner_holder = winner.holder
    state.streak = streak
    return winner, reward, state


def run_trajectory(
    params: EconomyParams,
    tracked: int = 0,
    horizon: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
    *,
    holders: Optional[Sequence[str]] = None,
    multiblock: Optional[market.MultiBlockSpec] = None,
    replacement: ReplacementRule = ReplacementRule.MARKET,
    stop_at_tracked_win: bool = True,
) -> TrajectoryRecord:
    """Run the state machine, tracking one ticket id and per-holder value.

    Stops when the tracked ticket wins (recording its win slot and discounted
    payoff) or at ``horizon``, in which case the payoff contributes 0 and the
    trajectory is marked truncated. With ``stop_at_tracked_win=False`` the
    run always covers the full horizon, accumulating holder totals throughout.
    """
    if rng is None:
        rng = np.random.default_rng()
    if horizon is None:
        horizon = win_horizon(params.n)
    if not (0 <= tracked < params.n):
        raise ValueError(f"tracked ticket id must be one of the initial ids 0..{params.n - 1}")

    state = init_state(params, holders)
    curve = DiscountCurve(params.d)
    holder_totals: dict[str, float] = {}
    win_slot: Optional[int] = None
    payoff = 0.0

    for t in range(1, horizon + 1):
        winner, reward, state = step(state, params, rng, multiblock=multiblock, replacement=replacement)
        discounted = reward * curve.factor(t)
        holder_totals[winner.holder] = holder_totals.get(winner.holder, 0.0) + discounted
        if win_slot is None and winner.id == tracked:
            win_slot = t
            payoff = discounted
            if stop_at_tracked_win:
                break

    return TrajectoryRecord(
        tracked_ticket_win_slot=win_slot,
        discounted_payoff=payoff,
        holder_totals=holder_totals,
        slots_simulated=state.slot,
        truncated=win_slot is None,
    )
