"""Slot-by-slot lottery engine and Monte Carlo trajectory sampling.

The economy holds exactly ``n`` live tickets. Each slot one ticket is drawn
uniformly, collects that slot's reward, is burned, and is replaced in place
by a freshly minted ticket that becomes eligible from the next slot's draw,
so every draw sees exactly ``n`` tickets and each wins with probability 1/n.

Two implementations of the same law live here:

* an object-level state machine (``init_state`` / ``step`` /
  ``run_trajectory``) that keeps full ticket identity, holder, and streak
  bookkeeping; it is the statistical reference, and
* vectorized samplers (``sample_ticket_payoffs`` etc.) used for large
  trial counts. A replacement ticket takes its predecessor's pool
  position, so a tracked ticket keeps one position until it wins and a
  retained holder keeps a fixed set of positions. The samplers draw from
  the laws this implies and only the events that carry value:

  - a tracked ticket's win slot is Geometric(1/n), capped at the horizon,
    and a tracked ticket is a pool of one (below): its payoff is the pool
    kernel's at k = 1, with the same draws in the same order;
  - a holder of k retained tickets wins with Geometric(k/n) gaps, so its
    flow is thinned to those wins; a win one slot after the previous one
    extends the holder's streak. The bonus 1 + beta * (streak - 1) is
    exactly 1 on a streak of 1, so only the rewards after a one-slot gap
    (a share p of the wins) are located and scaled in place;
  - with a constant reward and no streak bonus the holder's flow is its
    discounted count of wins, each slot an independent Bernoulli(k/n) win.
    From the share ``_PATTERN_MIN_SHARE`` (a measured crossover) up to
    k < n, one uniform picks a whole group of 8 slots' win pattern, one of
    256, by inversion through a guide table (Chen & Asau, *AIIE Trans.*
    6(2), 1974; Devroye, *Non-Uniform Random Variate Generation*, 1986,
    ch. III.2.4): the cost is per slot, not per win, and no log or exp is
    taken per win. Lognormal, Pareto and empirical rewards, any streak
    bonus, smaller shares and k = n stay on the thinned kernel;
  - in a k-ticket pool, the i-th distinct member hit waits
    Geometric((k - i)/n) slots after the previous one, and members are
    exchangeable, so one member's payoff is the payoff at a uniform rank.

  Geometric variates are drawn by inversion (Devroye, *Non-Uniform Random
  Variate Generation*, 1986, ch. X.2). The thinned holder kernel's gaps,
  most of the variates a streak-bonus run draws, invert a uniform,
  1 + floor(log(1 - U) / log1p(-p)): a uniform and a log cost less than an
  exponential, and each pass inverts them in place in one buffer. The
  win-slot and pool kernels invert an exponential, ceil(Exp(1) /
  -log(1 - p)); they draw under 1% of the variates, and keeping their draws
  keeps their fixed-seed statistical tests on the same samples.

Determinism contract: one driver (``_sample``) partitions every sampler's
trajectories into fixed-size blocks; block ``b`` of a run draws from
``SeedSequence(seed, spawn_key=(stream, b))`` and results are merged in
block order, so a given (seed, trials) pair produces bit-identical output
regardless of the worker count. A sampler called with a ``reduce``
function applies it to each block where the block is drawn (inside the
worker when a pool is used) and adds the returned sums in block order, so
it holds one block per worker in flight and memory that does not grow with
trials; the CLI and ``quantities.estimate`` run every ensemble this way. A
process pool takes chunks of at most ``_CHUNK`` blocks, at most four per
worker submitted and not yet merged, so the parent's memory is bounded too.
Called without one, the public samplers return per-trajectory arrays,
written into output arrays allocated once as the blocks come back.

Each function imports numpy where it runs, so importing this module (which
every command does) loads no numpy: the closed-form commands never load it,
and a command that samples loads it at its first draw.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Optional, Sequence

from .core import ConstantReward, DiscountCurve, EconomyParams

if TYPE_CHECKING:
    import numpy as np

MARKET_HOLDER = "market"

# Trajectories per RNG substream. Part of the determinism contract: results
# depend on these constants, never on the worker count.
_BLOCK = 4096        # tracked-ticket samplers (small state per trajectory)
_PATH_BLOCK = 512    # holder-flow and pool samplers
_WIN_CAP = 64        # holder wins drawn per trajectory in one holder-flow pass
_CHUNK = 8           # most blocks a pool worker takes in one task
_GROUP = 8           # slots whose wins one uniform picks in the win-pattern kernel
_GROUPS = 24         # groups of _GROUP slots per trajectory in one win-pattern pass
_CELLS = 1 << 14     # guide-table cells; a power of two, so U * _CELLS is exact

# Holder shares k/n from which the win-pattern kernel (a fixed cost per slot)
# is cheaper than the thinned one (a cost per win); measured, see CHANGES.md.
_PATTERN_MIN_SHARE = 1 / 16

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
    import numpy as np
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
    import numpy as np
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(stream, block)))


def _run_block(task) -> tuple:
    kernel, seed, stream, b, count, head, reduce = task
    parts = kernel(substream(seed, stream, b), count, *head)
    return parts if reduce is None else reduce(parts)


def _sample(kernel, head: tuple, trials: int, block: int, seed: int, stream: int,
            workers: int, reduce=None) -> tuple:
    """Run ``kernel(substream(seed, stream, b), count, *head)`` over the
    ``block``-sized blocks of ``trials``, serially or in a process pool.

    With ``reduce``, each block's result is passed through it where the
    block is drawn, and the reduced tuples are added entry by entry in
    block order; ``reduce`` must be picklable (a module-level function or a
    ``functools.partial`` of one) for a pool. Without it, arrays are written
    into place and counts summed. Each block derives its own substream, so
    the merge is invariant to the worker count by construction.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    tasks = (   # a generator: a serial run holds one block's task at a time
        (kernel, seed, stream, b, min(block, trials - lo), head, reduce)
        for b, lo in enumerate(range(0, trials, block))
    )
    merge = _add if reduce is not None else lambda results: _merge(results, trials)
    if workers <= 1 or trials <= block:
        return merge(map(_run_block, tasks))
    import multiprocessing   # only a pool needs these
    import tracemalloc
    from concurrent.futures import ProcessPoolExecutor
    size = max(1, min(-(-trials // block) // (4 * workers), _CHUNK))
    chunks = iter(lambda: list(itertools.islice(tasks, size)), [])
    # Under tracemalloc a thread freeing its state holds tracemalloc's lock, and a worker
    # forked then waits on it for ever. A forkserver (far slower to start) runs no thread.
    context = multiprocessing.get_context("forkserver") if tracemalloc.is_tracing() else None
    with ProcessPoolExecutor(max_workers=workers, mp_context=context) as ex:
        return merge(itertools.chain.from_iterable(_windowed(ex, chunks, 4 * workers)))


def _run_chunk(chunk: list) -> list:
    return [_run_block(task) for task in chunk]


def _windowed(ex, chunks, window: int):
    """``_run_chunk`` over ``chunks`` in the pool ``ex``, results in chunk
    order, with at most ``window`` chunks submitted and not yet merged, so
    the parent holds a bounded number of tasks and results however many
    blocks a run has."""
    pending = deque()
    for chunk in chunks:
        if len(pending) == window:
            yield pending.popleft().result()
        pending.append(ex.submit(_run_chunk, chunk))
    while pending:
        yield pending.popleft().result()


def _merge(results, trials: int) -> tuple:
    """The blocks' ``results`` in block order: arrays (each kernel returns one
    first) written into arrays of ``trials`` entries, counts summed."""
    import numpy as np
    merged, lo = [], 0
    for parts in results:
        merged = merged or [np.empty(trials, p.dtype) if isinstance(p, np.ndarray) else 0 for p in parts]
        for i, part in enumerate(parts):
            if isinstance(part, np.ndarray):
                merged[i][lo:lo + part.size] = part
            else:
                merged[i] += part
        lo += parts[0].size
    return tuple(merged)


def _add(results) -> tuple:
    """The blocks' reduced ``results`` added entry by entry, in block order."""
    merged = None
    for parts in results:
        merged = parts if merged is None else tuple(m + p for m, p in zip(merged, parts))
    return merged


# ---------------------------------------------------------------------------
# Vectorized block kernels
# ---------------------------------------------------------------------------


def _geometric(p, size, rng: np.random.Generator) -> np.ndarray:
    """Geometric(p) waiting times on {1, 2, ...}, as float64.

    Inverts an exponential: ceil(Exp(1) / -log(1 - p)) (Devroye 1986,
    ch. X.2), faster than ``rng.geometric``. ``p`` may be an
    array broadcasting against ``size``; p = 1 gives 1.
    """
    import numpy as np
    with np.errstate(divide="ignore"):
        rate = -np.log1p(-np.asarray(p, dtype=np.float64))
    draws = rng.standard_exponential(size)
    np.divide(draws, rate, out=draws)
    np.ceil(draws, out=draws)
    return np.maximum(draws, 1.0, out=draws)


def _holder_gaps(p: float, out: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Fill ``out`` in place with Geometric(p) gaps on {1, 2, ...}, 0 < p < 1.

    Inverts a uniform: 1 + floor(log(1 - U) / log1p(-p)) (Devroye 1986,
    ch. X.2), with U on [0, 1), so log(1 - U) is finite. numpy's uniforms
    are multiples of 2^-53, so 1 - U is exact and ``np.log`` (vectorised,
    where ``np.log1p`` is not) gives log1p(-U) up to rounding.
    """
    import numpy as np
    rng.random(out=out)
    np.subtract(1.0, out, out=out)
    np.log(out, out=out)
    np.divide(out, math.log1p(-p), out=out)
    np.floor(out, out=out)
    return np.add(out, 1.0, out=out)


def _win_slot_block(rng, count, n, horizon) -> tuple[np.ndarray, int]:
    """Win slot T ~ Geometric(1/n) of a tracked ticket, per trajectory,
    reported as ``horizon`` where T is beyond it, and the count of those."""
    import numpy as np
    slots = _geometric(1.0 / n, count, rng)
    return np.minimum(slots, horizon).astype(np.int64), int((slots > horizon).sum())


def _ticket_payoff_block(rng, count, params, horizon) -> tuple[np.ndarray, int]:
    # A tracked ticket is a pool of one: at k = 1 its win slot, then its reward.
    member, _, truncated = _pool_payoff_block(rng, count, params, 1, horizon)
    return member, truncated


def _scale_streaks(rewards: np.ndarray, gaps: np.ndarray, carry: np.ndarray, beta: float) -> np.ndarray:
    """Scale the C-contiguous ``rewards`` in place by each holder win's bonus
    factor 1 + beta * (streak - 1), and return each row's streak at its last win.

    A win one slot after the holder's previous win extends its streak; any
    longer gap starts a new streak at 1, whose factor is exactly 1, so only
    the wins after a gap of 1 are touched. ``carry`` is each row's streak at
    its previous win, 0 before the first.
    """
    import numpy as np
    width = gaps.shape[1]
    ones = gaps == 1
    heads = ones.copy()     # the first and the last win of each run of one-slot gaps
    heads[:, 1:] &= ~ones[:, :-1]
    ends = ones.copy()
    ends[:, :-1] &= ~ones[:, 1:]
    heads, ends, ones = np.flatnonzero(heads), np.flatnonzero(ends), np.flatnonzero(ones)
    lengths = ends - heads + 1
    row, col = np.divmod(heads, width)
    # A run after a longer gap starts at streak 2; one at column 0 continues
    # the streak carried from the previous pass.
    first = np.where(col == 0, carry[row] + 1.0, 2.0)
    factor = np.repeat(first - heads, lengths)
    factor += ones          # the streak; then 1 + beta * (streak - 1), in place
    factor -= 1.0
    factor *= beta
    factor += 1.0
    rewards.reshape(-1)[ones] *= factor
    tail = np.ones(gaps.shape[0])
    last = col + lengths == width
    tail[row[last]] = first[last] + (lengths[last] - 1)
    return tail


def _holder_flow_block(rng, count, params, k, beta, price, horizon) -> tuple[np.ndarray, np.ndarray]:
    import numpy as np
    # Discount weights are computed per pass, never as a horizon-long table,
    # so memory does not grow as d falls.
    log_decay = -math.log1p(params.d)

    if k == params.n:
        # Every slot is a holder win, with streak t at slot t: no gaps to draw.
        gross = np.zeros(count)
        paid = 0.0
        for lo in range(0, horizon, _WIN_CAP):
            slots = np.arange(lo + 1, min(lo + _WIN_CAP, horizon) + 1, dtype=np.float64)
            disc = np.exp(slots * log_decay)
            rewards = np.asarray(params.reward.sample(rng, size=(count, slots.size)), dtype=np.float64)
            gross += np.einsum("ij,j->i", rewards, disc * (1.0 + beta * (slots - 1.0)))
            paid += disc.sum()
        return gross, gross - price * paid

    # Thin the lottery to the holder's wins: Geometric(k/n) gaps between them.
    # Each pass inverts uniforms into gaps, then turns them into slots and the
    # slots into discount weights, all in place in one (rows, width) view of
    # a buffer allocated once per block.
    p = k / params.n
    gross = np.zeros(count)
    paid = np.zeros(count)          # discounted replacement purchases
    last = np.zeros(count)          # slot of the latest holder win
    streak = np.zeros(count)        # streak at that win
    buffer = np.empty(count * _WIN_CAP)
    rows = slice(None)              # every row, until the first one finishes
    m = count
    while m:
        # Draw enough wins that most trajectories pass the horizon, at most
        # _WIN_CAP; the rest take another pass.
        remaining = horizon - last[rows].min()
        spread = 4.0 * math.sqrt(remaining * p * (1.0 - p))
        width = min(_WIN_CAP, math.ceil(remaining * p + spread) + 1)
        view = buffer[:m * width].reshape(m, width)
        gaps = _holder_gaps(p, view, rng)
        rewards = np.ascontiguousarray(params.reward.sample(rng, size=view.shape), dtype=np.float64)
        if beta != 0.0:
            streak[rows] = _scale_streaks(rewards, gaps, streak[rows], beta)
        view[:, 0] += last[rows]
        slots = np.cumsum(view, axis=1, out=view)     # integers below 2^53: exact
        last[rows] = slots[:, -1]
        ends = last[rows]
        past = slots > horizon if ends.max() > horizon else None
        weights = np.exp(np.multiply(slots, log_decay, out=slots), out=slots)
        if past is not None:
            weights[past] = 0.0
        gross[rows] += np.einsum("ij,ij->i", rewards, weights)
        paid[rows] += weights.sum(axis=1)
        del rewards, past           # freed before the next pass draws its own
        going = ends < horizon
        if not going.all():
            rows = np.flatnonzero(going) if isinstance(rows, slice) else rows[going]
            m = rows.size
    return gross, gross - price * paid


def _guide_table(cdf: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``values[searchsorted(cdf, U, "right")]`` for the U of each of
    ``_CELLS`` equal cells of [0, 1), or NaN where a CDF edge falls inside
    the cell and the index depends on U (Chen & Asau 1974)."""
    import numpy as np
    guide = values[np.searchsorted(cdf, np.arange(_CELLS) / _CELLS, side="right")]
    for edge in cdf[:-1].tolist():
        cell = edge * _CELLS            # exact: _CELLS is a power of two
        if cell < _CELLS and cell != math.floor(cell):
            guide[math.floor(cell)] = np.nan
    return guide


def _guided_lookup(u: np.ndarray, cells: np.ndarray, out: np.ndarray, guide: np.ndarray,
                   cdf: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Fill ``out`` with ``values[searchsorted(cdf, U, "right")]`` for the
    uniforms ``u``, through ``guide`` (see ``_guide_table``) and a search in
    the cells it leaves NaN. ``u`` is left scaled by ``_CELLS``, ``cells``
    holds its integer part; all three arrays are C-contiguous."""
    import numpy as np
    np.multiply(u, _CELLS, out=u)
    cells[...] = u
    np.take(guide, cells, out=out, mode="clip")     # "raise" would buffer ``out``
    miss = np.flatnonzero(np.isnan(out))
    if miss.size:
        out.reshape(-1)[miss] = values[np.searchsorted(cdf, u.reshape(-1)[miss] / _CELLS, side="right")]
    return out


@functools.lru_cache(maxsize=16)
def _pattern_tables(p: float, log_decay: float, tail: int) -> tuple:
    """Win-pattern tables for the share p: (patterns, cdf, sums, tail_sums, guide).

    Bit i of pattern j is a holder win at slot i + 1 of a group of _GROUP
    slots, with probability p^w (1 - p)^(_GROUP - w) for w wins. Patterns
    are ordered by falling probability (ties by index), which gathers the
    improbable ones, and so the cells a CDF edge splits, at the top of the
    CDF. Each CDF edge is its prefix sum rounded once, and the last is inf,
    so every U < 1 lands. ``sums`` is each pattern's sum of x^(i+1) over its
    wins, ``tail_sums`` the same over the first ``tail`` slots only, and
    ``guide`` is ``sums`` by cell.
    """
    import numpy as np
    # Built in Python: numpy would page in sort, bit and integer code that
    # no other kernel runs, which shows in a CLI process's peak RSS.
    prob = [p ** j.bit_count() * (1.0 - p) ** (_GROUP - j.bit_count()) for j in range(1 << _GROUP)]
    patterns = tuple(sorted(range(1 << _GROUP), key=lambda j: -prob[j]))     # stable: ties by index
    ordered = [prob[j] for j in patterns]
    cdf = np.array([math.fsum(ordered[:i]) for i in range(1, len(ordered))] + [np.inf])
    x = [math.exp(i * log_decay) for i in range(1, _GROUP + 1)]
    sums = np.array([math.fsum(x[i] for i in range(_GROUP) if j >> i & 1) for j in patterns])
    tail_sums = np.array([math.fsum(x[i] for i in range(tail) if j >> i & 1) for j in patterns])
    tables = cdf, sums, tail_sums, _guide_table(cdf, sums)
    for table in tables:            # cached: every caller shares them
        table.flags.writeable = False
    return (patterns, *tables)


def _pattern_flow_block(rng, count, p, c, d, price, horizon) -> tuple[np.ndarray, np.ndarray]:
    """(gross, net) holder flows at a constant reward ``c`` and beta = 0.

    The holder wins each slot independently with probability p, so one
    uniform per group of _GROUP slots picks the group's whole win pattern by
    inversion, through a guide table (Devroye 1986, ch. III.2.4): no gap,
    log or exp is drawn per win. A pass takes _GROUPS groups per row and
    weights them by one discount row x^(_GROUP g) shared by every row; a
    last group that the horizon cuts short sums only its first slots.
    """
    import numpy as np
    log_decay = -math.log1p(d)
    tail = horizon % _GROUP
    _, cdf, sums, tail_sums, guide = _pattern_tables(p, log_decay, tail)
    groups = -(-horizon // _GROUP)
    width = min(_GROUPS, groups)
    discount = np.exp(np.arange(width) * (_GROUP * log_decay))
    u, cells, flows = np.empty(count * width), np.empty(count * width, np.intp), np.empty(count * width)
    paid = np.zeros(count)          # discounted holder wins, each a replacement purchase
    for lo in range(0, groups, width):
        m = count * min(width, groups - lo)
        view = u[:m].reshape(count, -1)
        flow = _guided_lookup(rng.random(out=view), cells[:m].reshape(count, -1),
                              flows[:m].reshape(count, -1), guide, cdf, sums)
        if tail and lo + width >= groups:
            flow[:, -1] = tail_sums[np.searchsorted(cdf, view[:, -1] / _CELLS, side="right")]
        paid += np.einsum("ij,j->i", flow, discount[:flow.shape[1]] * math.exp(lo * _GROUP * log_decay))
    gross = c * paid
    return gross, gross - price * paid


def _pool_payoff_block(rng, count, params, k, horizon) -> tuple[np.ndarray, np.ndarray, int]:
    import numpy as np
    # With i members already hit, the next fresh member is hit after a
    # Geometric((k - i)/n) wait, so hit i lands at the running sum.
    slots = np.cumsum(_geometric((k - np.arange(k)) / params.n, (count, k), rng), axis=1)
    rewards = np.asarray(params.reward.sample(rng, size=(count, k)), dtype=np.float64)
    won = slots <= horizon
    payoffs = np.where(won, rewards * (1.0 + params.d) ** -slots, 0.0)
    # Members are exchangeable: member 0 is the one hit at a uniform rank.
    rank = rng.integers(0, k, size=count)
    return payoffs.mean(axis=1), payoffs[np.arange(count), rank], int(won.size - won.sum())


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
    reduce=None,
) -> tuple[np.ndarray, int]:
    """Discounted payoff of a tracked ticket per trajectory.

    Returns (payoffs, truncated_count); truncated trajectories contribute 0.
    With ``reduce``, returns its reduction of each block, summed over the
    blocks in block order (see ``_sample``), in place of the arrays.
    """
    if horizon is None:
        horizon = win_horizon(params.n)
    return _sample(_ticket_payoff_block, (params, horizon), trials, _BLOCK, seed, stream, workers,
                   reduce)


def sample_win_slots(
    params: EconomyParams,
    trials: int,
    seed: int,
    *,
    horizon: Optional[int] = None,
    workers: int = 1,
    stream: int = 0,
    reduce=None,
) -> tuple[np.ndarray, int]:
    """Win slot T of a tracked ticket per trajectory (horizon if truncated).

    Returns (slots, truncated_count), or with ``reduce`` its summed block
    reductions, as ``sample_ticket_payoffs`` does.
    """
    if horizon is None:
        horizon = win_horizon(params.n)
    return _sample(_win_slot_block, (params.n, horizon), trials, _BLOCK, seed, stream, workers, reduce)


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
    reduce=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Discounted reward flows of a holder retaining ``holder_tickets`` of the
    n tickets (replacements bought back, so the position set is fixed).

    Returns per-trajectory (gross, net) arrays where gross sums the holder's
    discounted realized rewards over the horizon and net additionally pays
    ``replacement_price`` at every burn of a holder ticket. ``beta`` applies
    the consecutive-win bonus to every slot's realized reward. With
    ``reduce``, returns its summed block reductions instead, as
    ``sample_ticket_payoffs`` does.
    """
    if not (1 <= holder_tickets <= params.n):
        raise ValueError(f"holder must retain between 1 and n={params.n} tickets, got {holder_tickets}")
    if beta < 0.0:
        raise ValueError(f"streak bonus coefficient must be >= 0, got {beta}")
    if horizon is None:
        horizon = discount_horizon(params.d)
    p = holder_tickets / params.n
    if isinstance(params.reward, ConstantReward) and beta == 0.0 and _PATTERN_MIN_SHARE <= p < 1.0:
        kernel, head = _pattern_flow_block, (p, params.reward.value, params.d, replacement_price, horizon)
    else:
        kernel, head = _holder_flow_block, (params, holder_tickets, beta, replacement_price, horizon)
    return _sample(kernel, head, trials, _PATH_BLOCK, seed, stream, workers, reduce)


def sample_pool_payoffs(
    params: EconomyParams,
    pool_tickets: int,
    trials: int,
    seed: int,
    *,
    horizon: Optional[int] = None,
    workers: int = 1,
    stream: int = 0,
    reduce=None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """One-shot payoffs of a k-ticket pool and of its first member ticket.

    Each pool ticket wins exactly once; the pool splits the combined
    discounted reward equally. Returns (per_ticket_mean, solo, truncated)
    where ``solo`` is member ticket 0's own payoff from the same ensemble.
    With ``reduce``, returns its summed block reductions instead, as
    ``sample_ticket_payoffs`` does.
    """
    if not (1 <= pool_tickets <= params.n):
        raise ValueError(f"pool size must be between 1 and n={params.n}, got {pool_tickets}")
    if horizon is None:
        horizon = win_horizon(params.n, TAIL_TOLERANCE / pool_tickets)
    head = (params, pool_tickets, horizon)
    return _sample(_pool_payoff_block, head, trials, _PATH_BLOCK, seed, stream, workers, reduce)
