"""Slot-by-slot lottery engine and Monte Carlo trajectory sampling.

The economy holds exactly ``n`` live tickets. Each slot one ticket is drawn
uniformly, collects that slot's reward, is burned, and is replaced in place
by a freshly minted ticket that becomes eligible from the next slot's draw,
so every draw sees exactly ``n`` tickets and each wins with probability 1/n.

Two implementations of the same law live here:

* an object-level state machine (``init_state`` / ``step`` /
  ``run_trajectory``) that keeps full ticket identity, holder, and streak
  bookkeeping, and
* vectorized samplers (``sample_ticket_payoffs`` etc.) used for large
  trial counts. Because a replacement ticket takes its predecessor's pool
  position, a tracked ticket keeps one fixed position until it wins and a
  retained holder keeps a fixed set of positions, which lets the samplers
  draw winner positions in bulk without replaying the bookkeeping.

Determinism contract: trajectories are partitioned into fixed-size blocks;
block ``b`` of a run draws from ``SeedSequence(seed, spawn_key=(stream, b))``
and results are merged in block order, so a given (seed, trials) pair
produces bit-identical output regardless of the worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .core import DiscountCurve, EconomyParams

MARKET_HOLDER = "market"

# Trajectories per RNG substream. Part of the determinism contract: results
# depend on these constants, never on the worker count.
_BLOCK = 4096        # tracked-ticket samplers (small state per trajectory)
_PATH_BLOCK = 512    # full-horizon path samplers ((count, horizon) matrices)

TAIL_TOLERANCE = 1e-9


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
    multiblock=None,
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
    reward = base if multiblock is None else multiblock.apply(base, streak)

    state.slot += 1
    new_holder = winner.holder if replacement is ReplacementRule.RETAIN else MARKET_HOLDER
    state.pool[i] = Ticket(id=state.next_id, holder=new_holder, minted_at=state.slot)
    state.next_id += 1
    state.last_winner_holder = winner.holder
    state.streak = streak
    return winner, reward, state


def win_horizon(n: int, tol: float = TAIL_TOLERANCE) -> int:
    """Smallest horizon H with (1 - 1/n)^H < tol, about 20.7*n at tol=1e-9."""
    if n == 1:
        return 1
    return math.ceil(math.log(tol) / math.log1p(-1.0 / n))


def discount_horizon(d: float, tol: float = TAIL_TOLERANCE) -> int:
    """Smallest horizon H with (1+d)^-H < tol; requires d > 0."""
    from .errors import DiscountRateError

    if d <= 0.0:
        raise DiscountRateError(f"cannot derive a finite horizon from d={d}; pass one explicitly")
    return math.ceil(-math.log(tol) / math.log1p(d))


def run_trajectory(
    params: EconomyParams,
    tracked: int = 0,
    horizon: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
    *,
    holders: Optional[Sequence[str]] = None,
    multiblock=None,
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


# ---------------------------------------------------------------------------
# Deterministic substreams and block plumbing
# ---------------------------------------------------------------------------


def substream(seed: int, stream: int, block: int) -> np.random.Generator:
    """Generator for one (stream, block) cell of a run's seed space."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(stream, block)))


def _block_sizes(trials: int, block: int) -> list[int]:
    full, rem = divmod(trials, block)
    sizes = [block] * full
    if rem:
        sizes.append(rem)
    return sizes


def _run_blocks(worker, tasks: list[tuple], workers: int) -> list:
    """Evaluate ``worker`` over ``tasks``, preserving task order.

    Each task is self-contained (it derives its own substream), so the
    mapping is order- and worker-count-invariant by construction.
    """
    if workers <= 1 or len(tasks) <= 1:
        return [worker(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as ex:
        chunksize = max(1, len(tasks) // (workers * 4))
        return list(ex.map(worker, tasks, chunksize=chunksize))


# ---------------------------------------------------------------------------
# Vectorized block kernels
# ---------------------------------------------------------------------------


def _draw_win_slots(n: int, horizon: int, count: int, rng: np.random.Generator):
    """First slot at which pool position 0 is drawn, per trajectory.

    The tracked ticket occupies one fixed position until it wins, so its win
    slot is the first uniform draw over n positions that lands on it.
    Trajectories that never hit within the horizon report ``horizon`` with
    ``won=False``.
    """
    slots = np.full(count, horizon, dtype=np.int64)
    won = np.zeros(count, dtype=bool)
    active = np.arange(count)
    offset = 0
    chunk = int(min(horizon, max(128, 2 * n), 16384))
    while active.size and offset < horizon:
        width = min(chunk, horizon - offset)
        hits = rng.integers(0, n, size=(active.size, width), dtype=np.int32) == 0
        found = hits.any(axis=1)
        first = hits.argmax(axis=1)
        rows = active[found]
        slots[rows] = offset + first[found] + 1
        won[rows] = True
        active = active[~found]
        offset += width
    return slots, won


def _ticket_payoff_block(task) -> tuple[np.ndarray, int]:
    params, horizon, count, seed, stream, block = task
    rng = substream(seed, stream, block)
    slots, won = _draw_win_slots(params.n, horizon, count, rng)
    rewards = np.asarray(params.reward.sample(rng, size=count), dtype=np.float64)
    disc = (1.0 + params.d) ** (-slots.astype(np.float64))
    payoffs = np.where(won, rewards * disc, 0.0)
    return payoffs, int(count - won.sum())


def _win_slot_block(task) -> tuple[np.ndarray, int]:
    params, horizon, count, seed, stream, block = task
    rng = substream(seed, stream, block)
    slots, won = _draw_win_slots(params.n, horizon, count, rng)
    return slots, int(count - won.sum())


def _holder_flow_block(task) -> tuple[np.ndarray, np.ndarray]:
    params, k, beta, price, horizon, count, seed, stream, block = task
    rng = substream(seed, stream, block)
    winners = rng.integers(0, params.n, size=(count, horizon), dtype=np.int32)
    base = np.asarray(params.reward.sample(rng, size=(count, horizon)), dtype=np.float64)

    # Retained holders keep positions 0..k-1 for the whole run.
    holder_wins = winners < k

    if beta == 0.0:
        # The streak bonus factor is identically 1, so realized == base
        # bit for bit; skip the streak scan.
        realized = base
    else:
        # Streak of the winning holder: run length of the current value in
        # the holder-win sequence (first slot always starts a streak of 1).
        idx = np.arange(horizon, dtype=np.int64)
        change = np.empty_like(holder_wins)
        change[:, 0] = True
        change[:, 1:] = holder_wins[:, 1:] != holder_wins[:, :-1]
        streak = idx - np.maximum.accumulate(np.where(change, idx, 0), axis=1) + 1
        realized = base * (1.0 + beta * (streak - 1.0))

    disc = (1.0 + params.d) ** (-np.arange(1, horizon + 1, dtype=np.float64))
    holder_disc = np.where(holder_wins, disc, 0.0)
    gross = (realized * holder_disc).sum(axis=1)
    net = gross - price * holder_disc.sum(axis=1)
    return gross, net


def _pool_payoff_block(task) -> tuple[np.ndarray, np.ndarray, int]:
    params, k, horizon, count, seed, stream, block = task
    rng = substream(seed, stream, block)
    winners = rng.integers(0, params.n, size=(count, horizon), dtype=np.int32)
    # Win slots are distinct, so one independent reward draw per member
    # ticket matches drawing at the win slots themselves.
    rewards = np.asarray(params.reward.sample(rng, size=(count, k)), dtype=np.float64)
    payoffs = np.zeros((count, k), dtype=np.float64)
    truncated = 0
    for j in range(k):
        hits = winners == j
        found = hits.any(axis=1)
        slots = hits.argmax(axis=1) + 1
        disc = (1.0 + params.d) ** (-slots.astype(np.float64))
        payoffs[:, j] = np.where(found, rewards[:, j] * disc, 0.0)
        truncated += int(count - found.sum())
    return payoffs.mean(axis=1), payoffs[:, 0], truncated


# ---------------------------------------------------------------------------
# Public samplers
# ---------------------------------------------------------------------------


def sample_ticket_payoffs(
    params: EconomyParams,
    trials: int,
    seed: int,
    *,
    horizon: Optional[int] = None,
    workers: int = 1,
    stream: int = 0,
) -> tuple[np.ndarray, int]:
    """Discounted payoff of a tracked ticket per trajectory.

    Returns (payoffs, truncated_count); truncated trajectories contribute 0.
    """
    if horizon is None:
        horizon = win_horizon(params.n)
    tasks = [
        (params, horizon, count, seed, stream, b)
        for b, count in enumerate(_block_sizes(trials, _BLOCK))
    ]
    results = _run_blocks(_ticket_payoff_block, tasks, workers)
    payoffs = np.concatenate([r[0] for r in results])
    return payoffs, sum(r[1] for r in results)


def sample_win_slots(
    params: EconomyParams,
    trials: int,
    seed: int,
    *,
    horizon: Optional[int] = None,
    workers: int = 1,
    stream: int = 0,
) -> tuple[np.ndarray, int]:
    """Win slot T of a tracked ticket per trajectory (horizon if truncated)."""
    if horizon is None:
        horizon = win_horizon(params.n)
    tasks = [
        (params, horizon, count, seed, stream, b)
        for b, count in enumerate(_block_sizes(trials, _BLOCK))
    ]
    results = _run_blocks(_win_slot_block, tasks, workers)
    slots = np.concatenate([r[0] for r in results])
    return slots, sum(r[1] for r in results)


def sample_holder_flows(
    params: EconomyParams,
    holder_tickets: int,
    trials: int,
    seed: int,
    *,
    beta: float = 0.0,
    replacement_price: float = 0.0,
    horizon: Optional[int] = None,
    workers: int = 1,
    stream: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Discounted reward flows of a holder retaining ``holder_tickets`` of the
    n tickets (replacements bought back, so the position set is fixed).

    Returns per-trajectory (gross, net) arrays where gross sums the holder's
    discounted realized rewards over the horizon and net additionally pays
    ``replacement_price`` at every burn of a holder ticket. ``beta`` applies
    the consecutive-win bonus to every slot's realized reward.
    """
    if not (1 <= holder_tickets <= params.n):
        raise ValueError(f"holder must retain between 1 and n={params.n} tickets, got {holder_tickets}")
    if beta < 0.0:
        raise ValueError(f"streak bonus coefficient must be >= 0, got {beta}")
    if horizon is None:
        horizon = discount_horizon(params.d)
    tasks = [
        (params, holder_tickets, beta, replacement_price, horizon, count, seed, stream, b)
        for b, count in enumerate(_block_sizes(trials, _PATH_BLOCK))
    ]
    results = _run_blocks(_holder_flow_block, tasks, workers)
    gross = np.concatenate([r[0] for r in results])
    net = np.concatenate([r[1] for r in results])
    return gross, net


def sample_pool_payoffs(
    params: EconomyParams,
    pool_tickets: int,
    trials: int,
    seed: int,
    *,
    horizon: Optional[int] = None,
    workers: int = 1,
    stream: int = 0,
) -> tuple[np.ndarray, np.ndarray, int]:
    """One-shot payoffs of a k-ticket pool and of its first member ticket.

    Each pool ticket wins exactly once; the pool splits the combined
    discounted reward equally. Returns (per_ticket_mean, solo, truncated)
    where ``solo`` is member ticket 0's own payoff from the same ensemble.
    """
    if not (1 <= pool_tickets <= params.n):
        raise ValueError(f"pool size must be between 1 and n={params.n}, got {pool_tickets}")
    if horizon is None:
        horizon = win_horizon(params.n, TAIL_TOLERANCE / pool_tickets)
    tasks = [
        (params, pool_tickets, horizon, count, seed, stream, b)
        for b, count in enumerate(_block_sizes(trials, _PATH_BLOCK))
    ]
    results = _run_blocks(_pool_payoff_block, tasks, workers)
    member_mean = np.concatenate([r[0] for r in results])
    solo = np.concatenate([r[1] for r in results])
    return member_mean, solo, sum(r[2] for r in results)


# ---------------------------------------------------------------------------
# Ensemble statistics
# ---------------------------------------------------------------------------


def _zero_degenerate(stderr: float, scale: float) -> float:
    # A deterministic ensemble accumulates rounding noise of a few ulps;
    # report that as the exact zero it is rather than a misleading 1e-16.
    return 0.0 if stderr < 1e-13 * (abs(scale) + 1.0) else stderr


def _mean_stderr(values: np.ndarray) -> tuple[float, float]:
    mean = float(np.mean(values))
    if values.size < 2:
        return mean, 0.0
    var = max(float(np.var(values, ddof=1)), 0.0)
    return mean, _zero_degenerate(math.sqrt(var / values.size), mean)


def _variance_stderr(values: np.ndarray) -> tuple[float, float]:
    """Sample variance and the asymptotic stderr of that variance estimate."""
    mean = float(np.mean(values))
    dev = values - mean
    s2 = max(float(np.var(values, ddof=1)), 0.0)
    m4 = float(np.mean(dev**4))
    stderr = math.sqrt(max(m4 - s2 * s2, 0.0) / values.size)
    return s2, _zero_degenerate(stderr, s2)


def holders_for_share(n: int, holder_tickets: int, holder: str = "whale") -> list[str]:
    """Initial assignment giving one holder the first ``holder_tickets`` tickets."""
    if not (1 <= holder_tickets <= n):
        raise ValueError(f"holder tickets must be between 1 and n={n}, got {holder_tickets}")
    return [holder] * holder_tickets + [MARKET_HOLDER] * (n - holder_tickets)
