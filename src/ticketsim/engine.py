"""Monte Carlo trajectory sampling of the slot lottery.

The economy holds exactly ``n`` live tickets. Each slot one ticket is drawn
uniformly, collects that slot's reward, is burned, and is replaced in place
by a freshly minted ticket that becomes eligible from the next slot's draw,
so every draw sees exactly ``n`` tickets and each wins with probability 1/n.

The vectorized samplers here (``sample_ticket_payoffs`` etc.) draw from the
laws this implies; the slot-by-slot state machine that keeps full ticket
identity, holder and streak bookkeeping is their statistical reference, and
lives with the tests (``tests/reference.py``). A replacement ticket takes
its predecessor's pool position, so a tracked ticket keeps one position
until it wins and a retained holder keeps a fixed set of positions. The
samplers draw the lottery and never a reward: a reward is independent of
its slot, so each row is its payoff's expectation given the slots drawn
(conditional Monte Carlo; Asmussen & Glynn, *Stochastic Simulation*, 2007,
ch. V), which reads only the reward's mean mu. The events drawn:

- a tracked ticket's win slot T is Geometric(1/n), uncapped (only an
  explicit ``horizon`` cuts a sampler's draws), and its payoff given T is
  mu x^T. A tracked ticket is a pool of one (below): its payoff is the pool
  kernel's at k = 1, from the same draw, which also gives its win slot;
- discounting by x = 1/(1+d) per slot is stopping at an independent slot
  N with P(N >= t) = x^t (the random-horizon reading of discounting;
  Puterman, *Markov Decision Processes*, 1994, ch. 5), so a holder's
  flow is the undiscounted sum of its rewards up to its own N, and its
  mean is the discounted value, with no horizon to cut;
- a holder of k retained tickets wins each slot with probability
  p = k/n, independently, so its wins up to N are K ~ Binomial(N, p).
  Given (N, K) the wins are a uniform K-subset of the N slots, so a holder
  trajectory reports its flow's expectation given (N, K): two variates per
  trajectory, whatever d, the reward law and the streak bonus are. The
  bonus 1 + beta * (streak - 1) adds beta * (streak - 1) at each win, and
  E[sum of (streak - 1) | N, K] = K (K - 1) / (N - K + 2): a run of L
  wins adds L (L - 1) / 2, the count of its windows of m >= 2
  consecutive wins, and N - m + 1 windows each hold m wins with chance
  (K)_m / (N)_m, which sum over m to that form;
- in a k-ticket pool, the i-th distinct member hit waits
  Geometric((k - i)/n) slots after the previous one, and members are
  exchangeable, so one member's payoff is the payoff at a uniform rank: k
  exponentials and one rank integer per trajectory.

Geometric variates are drawn by inversion (Devroye, *Non-Uniform Random
Variate Generation*, 1986, ch. X.2) of an exponential,
ceil(Exp(1) / -log(1 - p)).

Determinism contract: one driver (``_sample``) partitions every sampler's
trajectories into fixed-size blocks; block ``b`` of a run draws from
``SeedSequence(seed, spawn_key=(stream, b))`` and results are merged in
block order, so a given (seed, trials) pair produces bit-identical output
regardless of the worker count. With ``workers > 1`` the blocks run on a
thread pool (numpy draws and reduces a block outside the GIL), with at most
four blocks per thread submitted and not yet merged. A sampler called with
a ``reduce`` function applies it to each block where the block is drawn
and adds the returned sums in block order, so its memory does not grow
with trials; the CLI and ``quantities.estimate`` run every ensemble this
way. Called without one, the public samplers return per-trajectory arrays,
written into output arrays allocated once as the blocks come back.

``quantities`` registers this module without running its code, which runs
at the first lookup of one of its names: a command's first draw. Each
function imports numpy where it runs, so running this module loads no numpy
either. The closed-form commands compile neither, and a command that samples
compiles this module and loads numpy at its first draw.
"""

from __future__ import annotations

import math
import os
from collections import deque
from typing import TYPE_CHECKING, Optional

from .core import EconomyParams

if TYPE_CHECKING:
    import numpy as np

# Trajectories per RNG substream. Part of the determinism contract: results
# depend on these constants, never on the worker count.
_BLOCK = 4096        # tracked-ticket and holder samplers (small state per row)
_PATH_BLOCK = 512    # pool sampler (k slots per row)

TAIL_TOLERANCE = 1e-9   # the tail the horizons below cut, to size an explicit horizon


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


def _horizon(horizon: Optional[float]) -> float:
    """An explicit ``horizon``, or inf for none; a NaN or negative one is an error."""
    if horizon is None:
        return math.inf
    if not horizon >= 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    return horizon


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
    ``block``-sized blocks of ``trials``, serially or on a thread pool of at
    most one thread per CPU.

    With ``reduce``, each block's result is passed through it where the
    block is drawn, and the reduced tuples are added entry by entry in
    block order. Without it, arrays are written into place and counts
    summed. Each block derives its own substream, so the merge is invariant
    to the worker count by construction.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    tasks = (   # a generator: a serial run holds one block's task at a time
        (kernel, seed, stream, b, min(block, trials - lo), head, reduce)
        for b, lo in enumerate(range(0, trials, block))
    )
    merge = _add if reduce is not None else lambda results: _merge(results, trials)
    if workers <= 1 or trials <= block:
        return merge(map(_run_block, tasks))
    from concurrent.futures import ThreadPoolExecutor   # only a pool needs it
    threads = min(workers, os.cpu_count() or 1)
    with ThreadPoolExecutor(max_workers=threads) as ex:
        return merge(_windowed(ex, tasks, 4 * threads))


def _windowed(ex, tasks, window: int):
    """``_run_block`` over ``tasks`` in the pool ``ex``, results in block
    order, with at most ``window`` blocks submitted and not yet merged, so
    a run holds a bounded number of blocks however many it has."""
    pending = deque()
    for task in tasks:
        if len(pending) == window:
            yield pending.popleft().result()
        pending.append(ex.submit(_run_block, task))
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
    ch. X.2), faster than ``rng.geometric``. ``p``, a list of floats
    broadcasting against ``size``, is passed to ``math.log1p``; p = 1 gives 1.
    """
    import numpy as np
    rate = [-math.log1p(-q) if q < 1.0 else math.inf for q in p]
    draws = rng.standard_exponential(size)
    np.divide(draws, rate, out=draws)
    np.ceil(draws, out=draws)
    return np.maximum(draws, 1.0, out=draws)


def _member_hits(rng, count, params, k, horizon) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(slots, payoffs, won) of each of a k-ticket pool's members in hit order,
    per trajectory: the slot T of each hit, its payoff's expectation given T,
    mu x^T, where T falls within ``horizon`` (else 0), and whether it does."""
    import numpy as np
    # With i members already hit, the next fresh member is hit after a
    # Geometric((k - i)/n) wait, so hit i lands at the running sum.
    slots = _geometric([(k - i) / params.n for i in range(k)], (count, k), rng)
    if k > 1:
        np.cumsum(slots, axis=1, out=slots)
    won = slots <= horizon
    return slots, np.where(won, params.mu * (1.0 + params.d) ** -slots, 0.0), won


def _tracked_block(rng, count, params, horizon) -> tuple[np.ndarray, int, np.ndarray]:
    """(payoffs, truncated count, win slots capped at ``horizon``) of tracked
    tickets. A tracked ticket is a pool of one: at k = 1 its win slot, then
    its reward, and no rank to draw."""
    import numpy as np
    slots, payoffs, won = _member_hits(rng, count, params, 1, horizon)
    return payoffs[:, 0], count - int(won.sum()), np.minimum(slots[:, 0], horizon)


def _ticket_payoff_block(rng, count, params, horizon) -> tuple[np.ndarray, int]:
    return _tracked_block(rng, count, params, horizon)[:2]


def _win_slot_block(rng, count, params, horizon) -> tuple[np.ndarray, int]:
    import numpy as np
    _, truncated, slots = _tracked_block(rng, count, params, horizon)
    return slots.astype(np.int64), truncated


def _holder_stops(rng, count, d, horizon) -> np.ndarray:
    """Each trajectory's last slot: N = Geometric(d/(1+d)) - 1 on {0, 1, ...},
    so that P(N >= t) = (1+d)^-t, cut to min(N, horizon); at d = 0, the
    horizon itself."""
    import numpy as np
    if d == 0.0:
        return np.full(count, float(horizon))
    stops = _geometric([d / (1.0 + d)], count, rng)
    stops -= 1.0
    return np.minimum(stops, horizon, out=stops)


def _holder_count_block(rng, count, params, k, beta, price, horizon) -> tuple[np.ndarray, ...]:
    """(gross, net, stop) of holder flows, each row's flow's expectation
    given its stop S and its wins K. Each slot up to S is a holder win with
    probability k/n, independently, so K ~ Binomial(S, k/n), all of them at
    k = n; given (S, K), gross is mu (K + beta K (K - 1) / (S - K + 2)) and
    each win buys a replacement at ``price``."""
    import numpy as np
    stops = _holder_stops(rng, count, params.d, horizon)
    wins = rng.binomial(stops.astype(np.int64), k / params.n).astype(np.float64)
    mu = params.mu
    if beta == 0.0:
        return mu * wins, (mu - price) * wins, stops
    gross = mu * (wins + beta * wins * (wins - 1.0) / (stops - wins + 2.0))
    return gross, gross - price * wins, stops


def _pool_payoff_block(rng, count, params, k, horizon) -> tuple[np.ndarray, np.ndarray, int]:
    import numpy as np
    _, payoffs, won = _member_hits(rng, count, params, k, horizon)
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
    """A tracked ticket's discounted payoff given its win slot T, mu x^T, per
    trajectory: its mean is the payoff's, its variance that less var_r E[x^(2T)].

    Returns (payoffs, truncated_count); a win past an explicit ``horizon``
    pays 0 and counts as truncated. With ``reduce``, returns its reduction
    of each block's (payoffs, truncated count, win slots capped at the
    horizon), summed over the blocks in block order (see ``_sample``), in
    place of the arrays. Every sampler here raises ``ValueError`` for a NaN
    or negative ``horizon`` and for ``workers`` < 1.
    """
    kernel = _ticket_payoff_block if reduce is None else _tracked_block
    head = (params, _horizon(horizon))
    return _sample(kernel, head, trials, _BLOCK, seed, stream, workers, reduce)


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
    """Win slot T of a tracked ticket per trajectory (horizon if truncated):
    the slots that ``sample_ticket_payoffs`` draws on the same stream.

    Returns (slots, truncated_count), or with ``reduce`` its summed block
    reductions of them.
    """
    head = (params, _horizon(horizon))
    return _sample(_win_slot_block, head, trials, _BLOCK, seed, stream, workers, reduce)


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
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reward flows of a holder retaining ``holder_tickets`` of the n tickets
    (replacements bought back, so the position set is fixed), each stopped
    at an independent slot N with P(N >= t) = (1+d)^-t, so that its mean is
    the discounted flow.

    Returns per-trajectory (gross, net, stop). Each row draws its stop, N
    or min(N, horizon) under an explicit ``horizon``, and its wins
    K ~ Binomial(stop, k/n), two variates, and draws no reward: gross is the
    expectation, given (stop, K), of the holder's rewards under the streak
    bonus ``beta`` at slots up to the stop (see ``_holder_count_block``),
    and net is gross less ``replacement_price`` at each of the K wins. So
    the rows' mean is the raw flow's, and at a random reward or ``beta`` > 0
    their variance is below it. With ``reduce``, returns its summed block
    reductions instead, as ``sample_ticket_payoffs`` does.
    """
    if not (1 <= holder_tickets <= params.n):
        raise ValueError(f"holder must retain between 1 and n={params.n} tickets, got {holder_tickets}")
    if not (beta >= 0.0 and math.isfinite(beta)):
        raise ValueError(f"beta must be finite and >= 0, got {beta}")
    if not math.isfinite(replacement_price):
        raise ValueError(f"replacement_price must be finite, got {replacement_price}")
    if horizon is None and params.d <= 0.0:
        from .errors import DiscountRateError
        raise DiscountRateError(f"cannot stop a holder flow at d={params.d}; pass a horizon explicitly")
    head = (params, holder_tickets, beta, replacement_price, _horizon(horizon))
    return _sample(_holder_count_block, head, trials, _BLOCK, seed, stream, workers, reduce)


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
    where ``solo`` is member ticket 0's own payoff from the same ensemble,
    each given the members' win slots, as in ``sample_ticket_payoffs``.
    With ``reduce``, returns its summed block reductions instead, as
    ``sample_ticket_payoffs`` does.
    """
    if not (1 <= pool_tickets <= params.n):
        raise ValueError(f"pool size must be between 1 and n={params.n}, got {pool_tickets}")
    head = (params, pool_tickets, _horizon(horizon))
    return _sample(_pool_payoff_block, head, trials, _PATH_BLOCK, seed, stream, workers, reduce)
