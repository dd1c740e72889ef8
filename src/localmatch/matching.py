"""Matchings on planar point sets: an exact optimum oracle for small
instances, k-locality verification, k-local search, and alternating-cycle
decomposition of two matchings.

The oracle and the locality scans solve one subset recurrence: pair the
lowest free index with each other free one.  Small calls run it as a
scalar memo (``_dp_optimal``); larger ones run it level by level in numpy
over a stack of distance arrays at once (``_batch_optimal``), with
bit-for-bit the same weights and pairs.  A stack is a (k, k, B) array with
its B rows on the last axis, so each level gathers whole rows of B values;
a row is an index set of one point set (the oracle, the scans) or a whole
point set (the miner's candidates, through ``_batch_k_local_search`` and
``_batch_max_weight``).
The sweep keeps each level's optimum values.  A caller that reads one
row's pairs (the oracle, a single set's scan) re-forms that row's path
from them (``_row_pairs``); only stacks of several point sets, whose pairs
are read for many rows, keep each level's arg-extrema as well.  Every
batched locality scan runs through one kernel, ``_scan_rows``, which hands
back its hits' rematches as one (h, k, 2) array on every stack: the
miner's lockstep search (``_batch_k_local_search``) assigns it into its
swaps as it is, and one point set's scan (``_scan_k_subsets``, in growing
blocks) turns its single hit into the pair tuples it returns.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterator, Literal, NamedTuple, Optional, Sequence

import numpy as np

from .geometry import DEFAULT_TOL, Point

__all__ = [
    "PointSet",
    "Matching",
    "RatioReport",
    "AlternatingCycle",
    "CycleDecomposition",
    "CapExceededError",
    "DEFAULT_ORACLE_CAP",
    "ENUMERATION_CAP",
    "weight",
    "optimal_matching",
    "enumerate_matchings",
    "is_k_local_max",
    "is_k_local_min",
    "k_local_search",
    "greedy_matching",
    "cycle_decomposition",
    "ratio_report",
]

Pair = tuple[int, int]
Objective = Literal["maximize", "minimize"]

# Oracle cap counts edges: up to 13 pairs / 26 points for the subset DP.
# In a fresh interpreter the first call at 26 points, plan build included,
# takes ~0.14 s and peaks at ~65 MB RSS (the scalar memo: ~1.2 s, 105 MB);
# later calls reuse the plan and take ~0.012-0.018 s.  The peak is ~5 MB
# above the (B, k, k) layout's 59.5 MB: ``take`` copies a level's uint16
# indices to intp, where 2-D fancy indexing cast them in buffered chunks.
# Shared 2-core 2.1 GHz Xeon VM, Python 3.11, numpy 2.4.  Each further
# pair costs ~3x time and memory.
DEFAULT_ORACLE_CAP = 13
# Full enumeration stays below 10395 matchings (12 points).
ENUMERATION_CAP = 12


class CapExceededError(ValueError):
    """Instance is larger than the exact oracle is willing to handle."""


def _coincide(shortest, longest):
    """``PointSet``'s coincidence rule: a set whose shortest gap is at most
    eps_geom times its longest (its diameter) has two coinciding points.
    Takes floats, or arrays of one set's gaps per row."""
    return shortest <= DEFAULT_TOL.eps_geom * longest


@dataclass(frozen=True)
class PointSet:
    """Points no two of which lie within eps_geom times the set's diameter.

    A point set is immutable, so each value derived from it is computed
    once and kept for its life: ``coords`` and ``diameter`` (with the
    coincidence check), the distances ``dist`` and ``_dist_array`` (on
    first use), and in ``_memo`` the verdict of each k-subset scan
    (``_scan``), the oracle's optimum per objective (``optimal_matching``)
    and the crossing checks' table of orientations (``crossing._left_of``).
    """

    points: tuple[Point, ...]

    def __init__(self, points: Sequence[Point]):
        pts = tuple(points)
        coords = tuple([p.as_tuple() for p in pts])
        # Pairs (i, j), i < j, in row order: the upper triangle of ``dist``.
        gaps = [math.dist(a, b) for a, b in itertools.combinations(coords, 2)]
        diameter = max(gaps, default=0.0)
        if gaps and _coincide(min(gaps), diameter):
            pairs = itertools.combinations(range(len(pts)), 2)
            i, j = next(pair for pair, gap in zip(pairs, gaps) if _coincide(gap, diameter))
            raise ValueError(f"points {i} and {j} coincide: {pts[i]} ~ {pts[j]}")
        # One update of the instance dict, which a frozen dataclass allows:
        # cheaper than an object.__setattr__ call per attribute.
        vars(self).update(points=pts, coords=coords, diameter=diameter, _gaps=gaps)

    def __len__(self) -> int:
        return len(self.points)

    def __getitem__(self, i: int) -> Point:
        return self.points[i]

    @cached_property
    def dist(self) -> tuple[tuple[float, ...], ...]:
        """Dense pairwise distance matrix: the coincidence check's gaps
        mirrored about a 0.0 diagonal, so ``dist[i][j]`` is
        ``math.dist(coords[i], coords[j])``.  Built on first use (some
        callers never read it), after which the gaps are dropped."""
        n = len(self.points)
        rows = [[0.0] * n for _ in range(n)]
        gaps = iter(self.__dict__.pop("_gaps"))
        for i, row in enumerate(rows):
            for j in range(i + 1, n):
                row[j] = rows[j][i] = next(gaps)
        return tuple(map(tuple, rows))

    @cached_property
    def _dist_array(self) -> np.ndarray:
        """``dist`` as a read-only float64 array holding the same floats."""
        d = np.array(self.dist, dtype=np.float64).reshape(len(self.points), len(self.points))
        d.flags.writeable = False
        return d

    @cached_property
    def _memo(self) -> dict:
        """Values derived on this set: ``_scan``'s verdicts keyed by
        ``(pairs, k, objective)``, ``optimal_matching``'s optima keyed
        by objective, and ``crossing._left_of``'s table keyed by
        ``"left_of"``."""
        return {}


@dataclass(frozen=True, slots=True)
class Matching:
    """A set of vertex-disjoint index pairs; each pair is stored (low, high).
    Immutable, hence shared: every ``enumerate_matchings`` call yields the same objects."""

    pairs: tuple[Pair, ...]

    def __init__(self, pairs) -> None:
        norm = sorted((min(i, j), max(i, j)) for i, j in pairs)
        seen: set[int] = set()
        for i, j in norm:
            if i == j:
                raise ValueError(f"self-loop pair ({i}, {j})")
            if i in seen or j in seen:
                raise ValueError(f"pair ({i}, {j}) reuses an already matched index")
            seen.add(i)
            seen.add(j)
        object.__setattr__(self, "pairs", tuple(norm))

    def __len__(self) -> int:
        return len(self.pairs)

    def covered(self) -> frozenset[int]:
        return frozenset(i for pair in self.pairs for i in pair)

    def is_perfect_on(self, ps: PointSet) -> bool:
        return self.covered() == frozenset(range(len(ps)))


@dataclass(frozen=True)
class RatioReport:
    """Outcome of a locality/ratio check.

    weight_global and ratio are filled only when the global oracle ran;
    violating_subset is present exactly when the k-locality check failed.
    """

    weight_local: float
    weight_global: Optional[float]
    ratio: Optional[float]
    k_verified: int
    violating_subset: Optional[tuple[Pair, ...]]

    @property
    def is_local_max(self) -> bool:
        return self.violating_subset is None


def _check_perfect(m: Matching, ps: PointSet) -> None:
    n = len(ps)
    for i, j in m.pairs:
        if not (0 <= i < n and 0 <= j < n):
            raise IndexError(f"pair ({i}, {j}) out of range for {n} points")
    if not m.is_perfect_on(ps):
        raise ValueError("matching does not cover every point exactly once")


def weight(m: Matching, ps: PointSet) -> float:
    """Sum of the matching's edge lengths, added left to right (not ``sum``,
    which compensates float sums from Python 3.12 and would change bits)."""
    dist = ps.dist
    pairs = m.pairs
    total = 0.0
    # Sorted (low, high) pairs hold the least index at pairs[0][0]: one test there
    # catches a negative index (it would wrap round); a high one fails the lookup.
    if pairs and pairs[0][0] < 0:
        i, j = pairs[0]
        raise IndexError(f"pair ({i}, {j}) out of range for {len(dist)} points")
    try:
        for i, j in pairs:
            total += dist[i][j]
    except IndexError:
        raise IndexError(f"pair ({i}, {j}) out of range for {len(dist)} points") from None
    return total


def _dp_optimal(dist, indices: Sequence[int], objective: Objective) -> tuple[float, tuple[Pair, ...]]:
    """Exact optimum perfect matching on the given indices via subset DP.

    States are bitmasks over the local positions; the lowest unmatched
    position is paired with every other unmatched one.  Only the states
    reachable from the full mask are solved (memoised, top down): always
    removing the lowest bit leaves a Fibonacci-sized family of masks rather
    than all 2^(k-1) even ones (10,946 of 524,288 at k = 20).  Ties keep
    the lexicographically smallest pair sequence because partners are
    scanned in ascending order and only strict improvements replace the
    incumbent.

    This scalar form serves calls too small for ``_batch_optimal`` to pay
    (see ``_BATCH_MIN_WORK``) and is the tests' reference for it.
    """
    k = len(indices)
    if k == 0:
        return 0.0, ()
    maximize = objective == "maximize"
    pos = tuple(indices)
    best: dict[int, float] = {0: 0.0}
    choice: dict[int, int] = {}

    def solve(mask: int) -> float:
        low = (mask & -mask).bit_length() - 1
        rest = mask ^ (1 << low)
        drow = dist[pos[low]]
        sub = rest
        incumbent = -math.inf if maximize else math.inf
        pick = -1
        while sub:
            jbit = sub & -sub
            j = jbit.bit_length() - 1
            tail = best.get(rest ^ jbit)
            cand = (solve(rest ^ jbit) if tail is None else tail) + drow[pos[j]]
            if (cand > incumbent) if maximize else (cand < incumbent):
                incumbent = cand
                pick = j
            sub ^= jbit
        best[mask] = incumbent
        choice[mask] = pick
        return incumbent

    full = (1 << k) - 1
    total = solve(full)
    pairs: list[Pair] = []
    mask = full
    while mask:
        low = (mask & -mask).bit_length() - 1
        j = choice[mask]
        pairs.append((pos[low], pos[j]))
        mask ^= (1 << low) | (1 << j)
    return total, tuple(pairs)


class _Level(NamedTuple):
    """One level of the recurrence: its S states all have ``width + 1`` free
    positions.  Transition ``j * S + s`` pairs state s's lowest free
    position with its j-th other free one (ascending); ``lin`` holds
    ``low * k + partner`` and ``tails`` the index of the state left over in
    the level below.  Partner-major order puts the states' candidates for
    one j side by side, so a level's optimum over j is an elementwise max
    (or min) of contiguous rows: over one row's levels at k = 20, 34 us
    against 550-640 us over a contiguous last axis.  The arg-extremum,
    which only stacks of several point sets take, runs ~1.15-1.25x slower
    in this order (410-432 against 337-362 us).  Shared 2-core 2.1 GHz Xeon
    VM, numpy 2.4."""

    width: int
    lin: np.ndarray
    tails: np.ndarray


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a`` as a read-only uint16 array, or uint32 where a value exceeds
    uint16 (level indices from 28 positions on)."""
    a = a.astype(np.uint16 if a.max() <= np.iinfo(np.uint16).max else np.uint32)
    a.flags.writeable = False
    return a


@functools.cache
def _plan(k: int) -> tuple[_Level, ...]:
    """The reachable states of the k-position recurrence, top level first.

    A state is a mask of free positions; each level's states are sorted by
    mask.  At k = 20 there are 10,945 states and 89,665 transitions, at 26
    196,417 and 2,136,001, at 28 514,228 and 6,052,062.  The cache holds
    one plan per even size in use: up to 26 positions under the default
    oracle cap, more only when a caller raises the cap or scans more than
    13 edges at once.  Temporaries stay int32 where they can and are
    dropped as soon as the next level no longer needs them.
    """
    masks = np.array([(1 << k) - 1], dtype=np.int32)
    cols = np.arange(k, dtype=np.int32)[None, :]  # free positions of each state
    levels = []
    for p in range(k, 0, -2):
        width, states = p - 1, len(masks)
        low = cols[:, 0]
        tails = cols[:, 1:].T.copy()  # partners, partner-major
        lin = _frozen((tails + low * k).ravel())
        np.left_shift(1, tails, out=tails)
        tails ^= masks ^ (1 << low)
        tails = tails.ravel()
        # np.unique(tails, return_inverse=True) without its int64 temporaries.
        order = np.argsort(tails)
        ordered = tails[order]
        del tails
        first = np.empty(len(ordered), dtype=bool)
        first[0] = True
        np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
        masks = ordered[first]
        del ordered
        rank = np.cumsum(first, dtype=np.int32)
        rank -= 1
        index = np.empty_like(rank)
        index[order] = rank
        del rank
        levels.append(_Level(width, lin, _frozen(index)))
        del index
        if p > 2:
            # Free positions of each new state, read off one transition into
            # it: its parent's positions without the pair it matched.
            j, parent = np.divmod(order[first], states)
            del order, first
            keep = np.arange(1, p) != j[:, None] + 1
            cols = cols[parent][:, 1:][keep].reshape(len(masks), p - 2)
    return tuple(levels)


def _batch_optimal(
    local: np.ndarray, objective: Objective, with_choices: bool
) -> tuple[list[np.ndarray], Optional[list[np.ndarray]]]:
    """Optimum perfect matchings on a stack of B distance arrays of one even
    size k at once.

    ``local`` is a C-contiguous (k, k, B) array, the stack on the last
    axis: ``local[:, :, r]`` holds row r's own distances among its k
    positions, gathered by the caller from one point set (index sets of the
    oracle and the locality scans) or from one point set per row (the
    miner's candidates).  Each level gathers whole rows of B values, by
    ``take`` on axis 0, and reduces over the partners on axis 0.  Returns
    each level's (states, B) optimum values, top level first and then the
    empty state's zeros, so ``values[0][0]`` holds the B optimum weights;
    ``_row_pairs`` re-forms one row's pairs from them.  With
    ``with_choices`` it also returns each level's (states, B) arg-extrema,
    top level first, from which ``_stack_pairs`` reads the pairs of many
    rows (else None).  Both equal ``_dp_optimal`` on that row: level by
    level from the bottom, a transition's candidate is the same sum
    ``best[tail] + dist[low][partner]`` of the same floats, and the first
    arg-extremum over a state's ascending partners is the memo's
    strict-improvement choice, ties included.
    """
    k, _, b = local.shape
    local = local.reshape(k * k, b)
    maximize = objective == "maximize"
    values, choices = [np.zeros((1, b))], []
    for level in reversed(_plan(k)):
        cand = values[-1].take(level.tails, axis=0)
        cand += local.take(level.lin, axis=0)
        cand = cand.reshape(level.width, -1, b)
        if with_choices:
            choices.append(cand.argmax(axis=0) if maximize else cand.argmin(axis=0))
        values.append(cand.max(axis=0) if maximize else cand.min(axis=0))
    values.reverse()
    choices.reverse()
    return values, choices if with_choices else None


def _row_pairs(
    local: np.ndarray, values: list[np.ndarray], r: int, row: Sequence[int]
) -> tuple[Pair, ...]:
    """Pairs of row r's optimum, re-formed top down from ``_batch_optimal``'s
    values alone; ``row`` gives the indices of its positions.

    At each level the state's candidates are added again, the same sums
    ``below[tail] + dist[low][partner]`` of the same floats over its
    ascending partners, and the first one equal to the state's optimum is
    taken: the first arg-extremum, so the pairs are the memo's and
    ``_stack_pairs``', ties included.  One row costs a few candidates per
    level in Python, where the arg-extrema cost numpy a pass over every
    state.
    """
    k = local.shape[0]
    flat = local.reshape(k * k, -1)[:, r]
    state = 0
    pairs = []
    for level, here, below in zip(_plan(k), values, values[1:]):
        best, below = here[state, r], below[:, r]
        step = level.lin.size // level.width  # the state's transitions: state, state + step, ...
        for lin, state in zip(level.lin[state::step].tolist(), level.tails[state::step].tolist()):
            if below[state] + flat[lin] == best:
                break  # state is now the tail, the next level's state
        pairs.append((row[lin // k], row[lin % k]))
    return tuple(pairs)


def _stack_pairs(rows: np.ndarray, choices: list[np.ndarray], picks: np.ndarray) -> np.ndarray:
    """Pairs of each picked row's optimum from ``_batch_optimal``'s
    arg-extrema, top down, as a (len(picks), k // 2, 2) array; ``rows``
    (B, k) gives the indices of each row's positions.  They equal
    ``_dp_optimal``'s on that row, ties included.  Each level pairs the
    lowest free position, so a row's pairs come out sorted as ``Matching``
    stores them."""
    k = rows.shape[1]
    state = np.zeros(len(picks), dtype=np.intp)
    lin = np.empty((len(picks), k // 2), dtype=np.intp)  # low * k + partner per level
    for t, (level, choice) in enumerate(zip(_plan(k), choices)):
        move = choice[state, picks] * (level.lin.size // level.width) + state
        lin[:, t] = level.lin[move]
        state = level.tails[move]
    at = np.empty((len(picks), k // 2, 2), dtype=np.intp)  # (low, partner) positions
    np.divmod(lin, k, out=(at[:, :, 0], at[:, :, 1]))
    return rows[picks[:, None, None], at]


# Calls solving fewer than this many transitions in all (index sets x
# transitions per set) run the scalar memo: below it numpy's fixed cost per
# level outweighs the memo's ~0.3 us per transition.  One oracle call
# breaks even at 8 points (97 transitions: 24-27 us either way) and
# batches ahead at 10 (332: 92-108 vs 30-33 us).  For k_local_search plus
# its verdict, from greedy on random sets (n = 8-16, k = 2-4, 4 sets per
# size), 300 took 23.3 ms, within 4 % of the fastest of 60, 120, 300, 600,
# 1200 and "never batch" (600: 22.5 ms; 60: 28.8; never: 39.4).  Shared
# 2-core 2.1 GHz Xeon VM, Python 3.11, numpy 2.4.  (The miner sizes its
# look-ahead blocks by its own rule: ``generators._FIRST_BLOCK_WORK``.)
_BATCH_MIN_WORK = 300


@functools.cache
def _transitions(k: int) -> int:
    """Transitions in the k-position recurrence, the size of its plan,
    counted without building it.  A state t pairs down has its lowest free
    position f >= t (all below are matched) and 2t - f matched positions
    above f; summed over f, the level holds C(k - t, t) states, each with
    k - 2t - 1 transitions."""
    return sum(math.comb(k - t, t) * (k - 2 * t - 1) for t in range(k // 2))


def _batched(sets: int, k: int) -> bool:
    """Whether `sets` index sets of size k go to _batch_optimal."""
    return sets * _transitions(k) >= _BATCH_MIN_WORK


def optimal_matching(
    ps: PointSet, objective: Objective = "maximize", cap: int = DEFAULT_ORACLE_CAP
) -> Matching:
    """Exact optimum perfect matching by dynamic programming over subsets.

    Small instances run the scalar memo ``_dp_optimal``, larger ones the
    batched level-by-level form ``_batch_optimal`` by values alone, with
    the pairs re-formed by ``_row_pairs``; both return the same pairs, ties
    included.  Limited to 2*cap points (default 26) to bound
    time and memory, which grow about 2.8x per added pair.  The optimum is
    solved once per point set and objective and kept on the point set;
    the checks, the cap's included, run on every call.
    """
    n = len(ps)
    if n % 2:
        raise ValueError(f"point set has odd cardinality {n}")
    if n > 2 * cap:
        raise CapExceededError(f"{n} points exceeds the oracle cap of {2 * cap}")
    if objective not in ("maximize", "minimize"):
        raise ValueError(f"unknown objective {objective!r}")
    memo = ps._memo
    if objective not in memo:
        if not _batched(1, n):
            memo[objective] = Matching(_dp_optimal(ps.dist, range(n), objective)[1])
        else:
            local = ps._dist_array[:, :, None]
            values, _ = _batch_optimal(local, objective, False)
            memo[objective] = Matching(_row_pairs(local, values, 0, range(n)))
    return memo[objective]


def enumerate_matchings(ps: PointSet) -> Iterator[Matching]:
    """Yield all (n-1)!! perfect matchings exactly once, in the fixed order
    obtained by always pairing the lowest free index first, with partners
    in ascending order.

    The matchings come from ``_pairings``' table, shared between calls, so
    a call costs about 0.03 us per matching it yields (against 0.3 us when
    each call wrapped the table's pairs in new ``Matching`` objects; shared
    2-core 2.1 GHz Xeon VM, Python 3.11).
    """
    n = len(ps)
    if n % 2:
        raise ValueError(f"point set has odd cardinality {n}")
    if n > ENUMERATION_CAP:
        raise CapExceededError(f"{n} points exceeds the enumeration cap of {ENUMERATION_CAP}")
    yield from _pairings(n)


@functools.cache
def _pairings(n: int) -> tuple[Matching, ...]:
    """Every perfect matching of range(n), in ``enumerate_matchings``'
    order: the lowest free index is paired first, with partners in
    ascending order.  Built on first use (~40 ms at 12 points) and kept for
    the life of the process; matchings share their pair tuples.  Callers
    keep n within ``ENUMERATION_CAP``, which bounds the cache: 1.6 MB for
    every size, 0.46 MB of it the ``Matching`` objects (tracemalloc; 2.1 MB
    if ``Matching`` had an instance dict)."""
    pair = {(a, b): (a, b) for a, b in itertools.combinations(range(n), 2)}

    def rec(free: tuple[int, ...]) -> list[tuple[Pair, ...]]:
        if not free:
            return [()]
        a = free[0]
        out = []
        for idx in range(1, len(free)):
            head = (pair[a, free[idx]],)
            out.extend(head + tail for tail in rec(free[1:idx] + free[idx + 1 :]))
        return out

    new, set_pairs = object.__new__, object.__setattr__
    table = []
    for pairs in rec(tuple(range(n))):
        # Disjoint (low, high) pairs in sorted order already, so the
        # constructor's normalisation and checks are skipped.
        m = new(Matching)
        set_pairs(m, "pairs", pairs)
        table.append(m)
    return tuple(table)


def _subset_weight(dist, pairs: Sequence[Pair]) -> float:
    # Left to right, as the batched scan adds its columns.
    total = 0.0
    for i, j in pairs:
        total += dist[i][j]
    return total


def _sum_in_order(lengths: np.ndarray) -> np.ndarray:
    """Sums over the last axis, column by column from the left, the order in
    which ``weight`` and ``_subset_weight`` add (``np.sum`` pairs terms
    differently and may round differently)."""
    total = lengths[..., 0]
    for col in range(1, lengths.shape[-1]):
        total = total + lengths[..., col]
    return total


def _scan_k_subsets(
    ps: PointSet, m: Matching, k: int, objective: Objective
) -> Optional[tuple[tuple[Pair, ...], tuple[Pair, ...]]]:
    """First k-subset of edges that is not an optimal matching on its own
    endpoints, together with the optimal re-matching; None if k-local.

    Subsets are scanned in lexicographic order over the sorted edge list,
    so reports are deterministic.  Scans with enough work in all
    (``_batched``) run in blocks through ``_scan_rows``, with the same
    arithmetic and so the same first violation and rematch as the
    one-by-one loop.  Blocks grow 4x from the crossover size, so a
    violation among the first subsets (the common case inside
    k_local_search) costs about one small batch, and a clean scan a few
    batch calls more than one.  Each block's edge positions are read
    straight off the lazy ``combinations``, so a scan that stops early
    builds no later block.
    """
    threshold = DEFAULT_TOL.eps_geom * weight(m, ps)
    if _batched(math.comb(len(m), k), 2 * k):
        D, pairs, limit = ps._dist_array[None], np.array(m.pairs), np.array([threshold])
        flat = itertools.chain.from_iterable(itertools.combinations(range(len(m)), k))
        size = -(-_BATCH_MIN_WORK // _transitions(2 * k))
        while (block := np.fromiter(itertools.islice(flat, size * k), np.intp)).size:
            block = block.reshape(-1, k)
            owner = np.zeros(len(block), dtype=np.intp)
            _, picks, rematch = _scan_rows(D, owner, pairs[block], limit, objective)
            if picks.size:
                subset = tuple(m.pairs[c] for c in block[picks[0]].tolist())
                return subset, tuple(map(tuple, rematch[0].tolist()))
            size *= 4
        return None
    sign = 1.0 if objective == "maximize" else -1.0
    dist = ps.dist
    for subset in itertools.combinations(m.pairs, k):
        endpoints = sorted(i for pair in subset for i in pair)
        current = _subset_weight(dist, subset)
        opt_w, opt_pairs = _dp_optimal(dist, endpoints, objective)
        if sign * (opt_w - current) > threshold:
            return subset, opt_pairs
    return None


# Floats of work per _batch_optimal call on a stack (``_chunk_rows``): a
# row of k positions costs its (k, k) distances plus its recurrence's
# transitions.  This bounds the temporaries of a large look-ahead block: a
# 2,048-candidate block at n = 8, k = 3 peaks at 3.7 MB traced, against
# 8.7 MB when its scan and its oracles ran as one call each.  Smaller
# stacks run as one call.
_CHUNK = 1 << 16


@functools.cache
def _chunk_rows(k: int) -> int:
    """Rows of k positions per ``_batch_optimal`` call on a large stack."""
    return max(1, _CHUNK // (k * k + _transitions(k)))


def _gather(D: np.ndarray, owner: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """``D[owner, i, j]``, with ``owner`` shaped to broadcast against
    ``i`` and ``j``.  A stack of one point set is indexed without the
    owners, which numpy gathers faster: with them a clean 4-subset scan at
    20 points took ~7 % longer (588 against 550 us, medians of 25
    alternations; its (8, 8, 210) gather alone 70-75 against 59 us).
    Shared 2-core 2.1 GHz Xeon VM, numpy 2.4."""
    if len(D) == 1:
        return D[0][i, j]
    return D[owner, i, j]


def _scan_rows(
    D: np.ndarray, owner: np.ndarray, edges: np.ndarray, limit: np.ndarray, objective: Objective
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The locality scan's one kernel: row r holds k edges ``edges[r]``
    (k, 2) of the point set ``D[owner[r]]``, and each owner's rows are
    consecutive, in scan order.

    A row's gap is how far the optimum on its 2k endpoints beats its own
    edges: ``opt - current`` when maximizing, ``current - opt`` when
    minimizing, where ``current`` sums the edges column by column in pair
    order, as ``_subset_weight`` adds them.  A row is a hit when its gap
    exceeds ``limit[owner[r]]``.  Returns the (R,) gaps, the (h,) first hit
    row of each owner that has one, and those rows' optimal rematches as
    one (h, k, 2) array: each pair sorted and the pairs in ``Matching``
    order.  A chunk's single hit is re-formed from the DP's values
    (``_row_pairs``), several hits from its arg-extrema, which only stacks
    of several point sets keep.  Rows run in chunks of
    ``_chunk_rows(2 * k)``.
    """
    k = edges.shape[1]
    step = _chunk_rows(2 * k)
    gap = np.empty(len(edges))
    picks, rematch = [], []
    last = -1  # owner of the latest pick
    for lo in range(0, len(edges), step):
        e, o = edges[lo : lo + step], owner[lo : lo + step]
        current = _sum_in_order(_gather(D, o[:, None], e[:, :, 0], e[:, :, 1]))
        rows = np.sort(e.reshape(len(e), 2 * k), axis=1)
        cols = rows.T  # the rows on the last axis, as _batch_optimal stacks them
        local = _gather(D, o, cols[:, None], cols[None])
        values, choices = _batch_optimal(local, objective, len(D) > 1)
        opt = values[0][0]
        g = gap[lo : lo + len(e)] = opt - current if objective == "maximize" else current - opt
        hits = np.flatnonzero(g > limit[o])
        if hits.size > 1:  # each owner's first hit
            if o[0] == o[-1]:  # one owner, as in a single set's scan: ~4 of its ~50 us
                hits = hits[:1]
            else:
                held = o[hits]
                hits = hits[np.concatenate(([True], held[1:] != held[:-1]))]
        if hits.size and o[hits[0]] == last:  # its owner's first was in an earlier chunk
            hits = hits[1:]
        if not hits.size:
            continue
        last = o[hits[-1]]
        if hits.size > 1:
            rematch.append(_stack_pairs(rows, choices, hits))
        else:  # one row: the scalar read from the values is cheaper
            h = int(hits[0])
            rematch.append(np.array([_row_pairs(local, values, h, rows[h].tolist())]))
        picks += (lo + hits).tolist()
    rematch = np.concatenate(rematch) if rematch else np.empty((0, k, 2), dtype=np.intp)
    return gap, np.array(picks, dtype=np.intp), rematch


def _scan(
    ps: PointSet, m: Matching, k: int, objective: Objective
) -> Optional[tuple[tuple[Pair, ...], tuple[Pair, ...]]]:
    """``_scan_k_subsets(ps, m, k, objective)``, run once per point set and
    key and kept in ``ps._memo``.  Callers check `m` and `k` first."""
    key = (m.pairs, k, objective)
    memo = ps._memo
    if key not in memo:
        memo[key] = _scan_k_subsets(ps, m, k, objective)
    return memo[key]


def _is_k_local(ps: PointSet, m: Matching, k: int, objective: Objective) -> RatioReport:
    _check_perfect(m, ps)
    if not (1 <= k <= len(m)):
        raise ValueError(f"k must lie in [1, {len(m)}], got {k}")
    violation = _scan(ps, m, k, objective)
    return RatioReport(
        weight_local=weight(m, ps),
        weight_global=None,
        ratio=None,
        k_verified=k,
        violating_subset=violation[0] if violation else None,
    )


def is_k_local_max(ps: PointSet, m: Matching, k: int) -> RatioReport:
    """Check that every k-subset of edges is a maximum matching on its own
    2k endpoints; reports the first violating subset otherwise.

    Improvements are only counted when they exceed eps_geom * w(m), so
    float noise cannot flag a violation.
    """
    return _is_k_local(ps, m, k, "maximize")


def is_k_local_min(ps: PointSet, m: Matching, k: int) -> RatioReport:
    """Minimum-side twin of is_k_local_max (every k-subset must be a
    minimum matching on its endpoints)."""
    return _is_k_local(ps, m, k, "minimize")


def greedy_matching(ps: PointSet) -> Matching:
    """Repeatedly take the longest available edge."""
    n = len(ps)
    if n % 2:
        raise ValueError(f"point set has odd cardinality {n}")
    dist = ps.dist
    # Longest first, ties by (i, j): plain tuples sort faster than a key.
    edges = sorted((-dist[i][j], i, j) for i in range(n) for j in range(i + 1, n))
    used: set[int] = set()
    pairs: list[Pair] = []
    for _, i, j in edges:
        if i in used or j in used:
            continue
        pairs.append((i, j))
        used.add(i)
        used.add(j)
    return Matching(pairs)


def k_local_search(ps: PointSet, k: int, init: Optional[Matching] = None) -> Matching:
    """First-improvement k-subset local search for a k-local maximum.

    Starting from `init` (by default the greedy matching), repeatedly
    replaces the first k-subset of edges that is not a maximum matching on
    its own endpoints by the maximum re-matching, until no such subset
    exists.  Terminates because each swap raises the weight by more than
    eps_geom * w(m) and the matching space is finite.
    """
    n = len(ps)
    if n % 2:
        raise ValueError(f"point set has odd cardinality {n}")
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if init is None:
        m = greedy_matching(ps)
    else:
        _check_perfect(init, ps)
        m = init
    if len(m) == 0:
        return m
    k_eff = min(k, len(m))
    while True:
        violation = _scan(ps, m, k_eff, "maximize")
        if violation is None:
            return m
        subset, replacement = violation
        dropped = set(subset)
        kept = [pair for pair in m.pairs if pair not in dropped]
        m = Matching(kept + list(replacement))


@functools.cache
def _combos(edges: int, k: int) -> np.ndarray:
    """(C, k): the k-subsets of ``edges`` edge positions, in the scan's
    lexicographic order."""
    combos = np.array(list(itertools.combinations(range(edges), k)), dtype=np.intp)
    combos.flags.writeable = False
    return combos


def _batch_k_local_search(
    D: np.ndarray,
    init: Matching,
    k: int,
    gaps: np.ndarray,
    optimum: np.ndarray,
    incumbent: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``k_local_search`` from `init` on each point set of a stack, in
    lockstep.

    ``D`` is (B, n, n): one point set's distance array per row, all of one
    size, with ``1 <= k <= n // 2``.  ``gaps`` (B, C) holds each row's
    ``_scan_rows`` gap of every k-subset of `init` (in ``_combos`` order)
    where an earlier scan on the same distances already found it, and NaN
    where not.  Each round scans, in one ``_scan_rows`` call, the subsets
    of every row that is not yet clean whose gap is unknown or a hit; a
    row with a hit takes its first one, in ``_scan_k_subsets``' order and
    with its arithmetic, and rescans all its subsets.  Returns the
    (B, n // 2, 2) pairs, sorted as ``Matching`` stores them, their (B,)
    weights as ``weight`` sums them, and the (B, C) gaps of each row's
    last, clean round.

    Rows that cannot beat the ratio ``incumbent`` are dropped (the bound of
    branch and bound).  Each round, once a row's weight is summed, the row
    stops if ``weight / optimum >= incumbent``, where ``optimum`` (B,)
    holds each row's ``weight(optimal_matching)``; its pairs, weight and
    gaps stay those of that round.  This is exact: a swap raises the weight
    by more than eps_geom times itself, about 1e6 times the rounding of the
    sum, so a dropped row's finished search would also end at a ratio of at
    least `incumbent`, by the same float division.  A row that ends
    undropped ran every round as without the bound (``_scan_rows`` judges
    each owner's rows alone), so its result is unchanged bit for bit, and
    its ratio is below `incumbent`.  ``incumbent = inf`` drops nothing.
    """
    b, n, _ = D.shape
    combos = _combos(n // 2, k)
    pairs = np.repeat(np.array(init.pairs)[None], b, axis=0)
    gaps = gaps.copy()
    weights = np.empty(b)
    limit = np.empty(b)
    active = np.arange(b)
    while active.size:
        held = pairs[active]
        lengths = D[active[:, None], held[:, :, 0], held[:, :, 1]]  # (a, n // 2)
        weights[active] = total = _sum_in_order(lengths)
        alive = total / optimum[active] < incumbent
        active, held, total = active[alive], held[alive], total[alive]
        if not active.size:
            break
        limit[active] = DEFAULT_TOL.eps_geom * total
        known = gaps[active]
        row, col = np.nonzero(~(known <= limit[active][:, None]))  # unknown or a hit
        scanned, picks, rematch = _scan_rows(
            D, active[row], held[row[:, None], combos[col]], limit, "maximize"
        )
        known[row, col] = scanned
        gaps[active] = known
        if not picks.size:
            break
        swap = row[picks]
        swapped = held[swap]
        each = np.arange(len(swap))[:, None]
        swapped[each, combos[col[picks]]] = rematch
        active = active[swap]
        pairs[active] = swapped[each, np.argsort(swapped[:, :, 0], axis=1)]
        gaps[active] = np.nan
    return pairs, weights, gaps


def _batch_max_weight(D: np.ndarray) -> np.ndarray:
    """``weight(optimal_matching(ps), ps)`` for each point set of a stack
    ``D`` (B, n, n): the optimum's pairs, re-summed left to right as
    ``weight`` adds them.  Rows run in chunks of ``_chunk_rows(n)``."""
    b, n, _ = D.shape
    step = _chunk_rows(n)
    out = np.empty(b)
    for lo in range(0, b, step):
        d = D[lo : lo + step]
        _, choices = _batch_optimal(np.ascontiguousarray(d.transpose(1, 2, 0)), "maximize", True)
        picks = np.arange(len(d))
        pairs = _stack_pairs(np.broadcast_to(np.arange(n), (len(d), n)), choices, picks)
        out[lo : lo + len(d)] = _sum_in_order(d[picks[:, None], pairs[:, :, 0], pairs[:, :, 1]])
    return out


@dataclass(frozen=True)
class AlternatingCycle:
    """Even cycle alternating between two matchings.

    Edges (vertices[0], vertices[1]), (vertices[2], vertices[3]), ... belong
    to the first matching; the edges in between belong to the second.
    """

    vertices: tuple[int, ...]

    def first_edges(self) -> tuple[Pair, ...]:
        v = self.vertices
        return tuple((v[i], v[i + 1]) for i in range(0, len(v), 2))

    def second_edges(self) -> tuple[Pair, ...]:
        v = self.vertices
        return tuple((v[i], v[(i + 1) % len(v)]) for i in range(1, len(v), 2))


@dataclass(frozen=True)
class CycleDecomposition:
    shared: tuple[Pair, ...]
    cycles: tuple[AlternatingCycle, ...]


def cycle_decomposition(m1: Matching, m2: Matching) -> CycleDecomposition:
    """Split the union of two perfect matchings on the same points into
    shared edges and alternating even cycles (length >= 4)."""
    if m1.covered() != m2.covered():
        raise ValueError("matchings cover different point sets")
    partner1 = {i: j for i, j in m1.pairs} | {j: i for i, j in m1.pairs}
    partner2 = {i: j for i, j in m2.pairs} | {j: i for i, j in m2.pairs}
    shared = tuple(sorted(set(m1.pairs) & set(m2.pairs)))
    on_shared = {i for pair in shared for i in pair}
    visited: set[int] = set(on_shared)
    cycles: list[AlternatingCycle] = []
    for start in sorted(m1.covered()):
        if start in visited:
            continue
        cycle = [start]
        visited.add(start)
        v = partner1[start]
        use_second = True
        while v != start:
            cycle.append(v)
            visited.add(v)
            v = partner2[v] if use_second else partner1[v]
            use_second = not use_second
        cycles.append(AlternatingCycle(tuple(cycle)))
    return CycleDecomposition(shared=shared, cycles=tuple(cycles))


def ratio_report(
    ps: PointSet,
    m: Matching,
    k: int,
    cap: int = DEFAULT_ORACLE_CAP,
) -> RatioReport:
    """Weight of m versus the exact maximum, plus the k-locality verdict."""
    _check_perfect(m, ps)
    w_global = weight(optimal_matching(ps, "maximize", cap), ps)
    report = _is_k_local(ps, m, k, "maximize")
    ratio = report.weight_local / w_global if w_global > 0 else 1.0
    return replace(report, weight_global=w_global, ratio=ratio)
