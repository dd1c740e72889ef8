"""Instance generators for the constructions used throughout the library,
plus an adversarial miner that hill-climbs point coordinates toward
low-ratio k-local maximum matchings.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .certificates import DiskFamily
from .geometry import Disk, Point, orientation
from .matching import (
    DEFAULT_ORACLE_CAP,
    Matching,
    PointSet,
    _batch_k_local_search,
    _batch_max_weight,
    _coincide,
    _combos,
    _transitions,
    greedy_matching,
)

__all__ = [
    "gen_random",
    "gen_convex",
    "gen_circle_alternating",
    "gen_tangent_disks",
    "gen_intersecting_disks",
    "MinerConfig",
    "MinedInstance",
    "mine_low_ratio",
    "LOWER_BOUNDS",
]

# Proved locality ratio lower bounds, by k.
LOWER_BOUNDS = {2: math.sqrt(3.0 / 7.0), 3: math.sqrt(3.0) / 2.0}


def _in_general_position(points: list[Point]) -> bool:
    n = len(points)
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(b + 1, n):
                if orientation(points[a], points[b], points[c]) == 0:
                    return False
    return True


def _random_points(rng: np.random.Generator, n: int) -> PointSet:
    while True:
        raw = rng.uniform(0.0, 1.0, size=(n, 2))
        points = [Point(float(x), float(y)) for x, y in raw]
        try:
            ps = PointSet(points)
        except ValueError:
            continue
        if _in_general_position(points):
            return ps


def gen_random(n: int, seed: int) -> PointSet:
    """n i.i.d. uniform points in [0, 1]^2, resampled until pairwise
    distinct and free of collinear triples; deterministic per seed."""
    if n < 2 or n % 2:
        raise ValueError(f"n must be even and at least 2, got {n}")
    rng = np.random.default_rng(seed)
    return _random_points(rng, n)


def gen_convex(n: int, seed: int) -> PointSet:
    """n points in convex position on a radially perturbed circle, sorted
    by angle; strict convexity is verified before returning."""
    if n < 4 or n % 2:
        raise ValueError(f"n must be even and at least 4, got {n}")
    rng = np.random.default_rng(seed)
    min_gap = 2.0 * math.pi / (4.0 * n)
    while True:
        angles = np.sort(rng.uniform(0.0, 2.0 * math.pi, size=n))
        gaps = np.diff(angles, append=angles[0] + 2.0 * math.pi)
        if gaps.min() < min_gap:
            continue
        radii = rng.uniform(0.95, 1.05, size=n)
        points = [
            Point(float(r * math.cos(a)), float(r * math.sin(a)))
            for a, r in zip(angles, radii)
        ]
        try:
            ps = PointSet(points)
        except ValueError:
            continue
        if all(
            orientation(points[i], points[(i + 1) % n], points[(i + 2) % n]) > 0 for i in range(n)
        ):
            return ps


def gen_circle_alternating(n: int, eps: float) -> tuple[PointSet, Matching]:
    """2n points on a circle with consecutive chord lengths alternating
    between 1 and eps; the returned matching pairs up the unit chords.

    The circle radius solves n * (theta_1 + theta_eps) = 2*pi by bisection,
    where chord(theta) = 2R sin(theta/2).
    """
    if n < 3:
        raise ValueError(f"need at least 3 pairs, got {n}")
    if not (0.0 < eps < 0.1):
        raise ValueError(f"eps must lie in (0, 0.1), got {eps}")

    def angle_excess(R: float) -> float:
        t1 = 2.0 * math.asin(1.0 / (2.0 * R))
        t2 = 2.0 * math.asin(eps / (2.0 * R))
        return n * (t1 + t2) - 2.0 * math.pi

    lo = 0.5 + 1e-12
    if angle_excess(lo) <= 0.0:
        raise ValueError(f"no circle fits n={n}, eps={eps}")
    hi = 1.0
    while angle_excess(hi) > 0.0:
        hi *= 2.0
        if hi > 1e9:
            raise ValueError(f"no circle fits n={n}, eps={eps}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if angle_excess(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    R = 0.5 * (lo + hi)
    t1 = 2.0 * math.asin(1.0 / (2.0 * R))
    t2 = 2.0 * math.asin(eps / (2.0 * R))
    points = []
    phi = 0.0
    for _ in range(n):
        points.append(Point(R * math.cos(phi), R * math.sin(phi)))
        phi += t1
        points.append(Point(R * math.cos(phi), R * math.sin(phi)))
        phi += t2
    ps = PointSet(points)
    matching = Matching((2 * i, 2 * i + 1) for i in range(n))
    return ps, matching


def gen_tangent_disks() -> DiskFamily:
    """Three pairwise tangent unit disks: the tight instance for the
    2/sqrt(3) disk enlargement factor."""
    return DiskFamily(
        (
            Disk(Point(0.0, 0.0), 1.0),
            Disk(Point(2.0, 0.0), 1.0),
            Disk(Point(1.0, math.sqrt(3.0)), 1.0),
        ),
        scale=1.0,
    )


def gen_intersecting_disks(count: int, seed: int) -> DiskFamily:
    """Random pairwise-intersecting disk family of the given size.

    Radii are drawn at random and then rescaled so the worst pair is
    exactly tangent; three families in four then get a further random
    margin, yielding families between barely and comfortably pairwise
    intersecting.
    """
    if count < 2:
        raise ValueError(f"need at least 2 disks, got {count}")
    rng = np.random.default_rng(seed)
    while True:
        centers = rng.uniform(0.0, 1.0, size=(count, 2))
        span = np.hypot(
            centers[:, None, 0] - centers[None, :, 0],
            centers[:, None, 1] - centers[None, :, 1],
        )
        if span[np.triu_indices(count, k=1)].min() > 1e-3:
            break
    base = rng.uniform(0.1, 0.6, size=count)
    need = span / np.add.outer(base, base)
    factor = float(need[np.triu_indices(count, k=1)].max())
    margin = 1.0 if rng.uniform() < 0.25 else float(rng.uniform(1.0, 1.3))
    radii = base * factor * margin
    disks = tuple(
        Disk(Point(float(x), float(y)), float(r)) for (x, y), r in zip(centers, radii)
    )
    return DiskFamily(disks, scale=1.0)


@dataclass(frozen=True)
class MinerConfig:
    k: int
    num_points: int
    budget_iterations: int
    restarts: int = 8
    step_scale: float = 0.08
    seed: int = 0

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError(f"k must be at least 2, got {self.k}")
        if self.num_points % 2 or self.num_points < 2:
            raise ValueError(f"num_points must be even >= 2, got {self.num_points}")
        if self.k > self.num_points // 2:
            raise ValueError(
                f"k = {self.k} exceeds the {self.num_points // 2} pairs of {self.num_points} points"
            )
        if self.num_points > 2 * DEFAULT_ORACLE_CAP:
            raise ValueError(
                f"num_points {self.num_points} exceeds the oracle cap {2 * DEFAULT_ORACLE_CAP}"
            )
        if self.budget_iterations <= 0:
            raise ValueError("budget_iterations must be positive")
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")
        if self.step_scale <= 0.0:
            raise ValueError("step_scale must be positive")


@dataclass(frozen=True)
class MinedInstance:
    point_set: PointSet
    local_matching: Matching
    k: int
    ratio: float
    rng_seed: int
    iterations_used: int


class _WarmStart(NamedTuple):
    """A point set's warm start: its k-local matching, ratio, the gap of
    every k-subset of the matching from the scan that found it clean, and
    each point's edge in the matching (its position in ``matching.pairs``)."""

    matching: Matching
    ratio: float
    gaps: np.ndarray
    edge_of: np.ndarray


def _warm_start(pairs: np.ndarray, ratio: float, gaps: np.ndarray) -> _WarmStart:
    """The warm start of a search's (n // 2, 2) pairs, its ratio and its
    last, clean round's gaps."""
    edge_of = np.empty(pairs.size, dtype=np.intp)
    edge_of[pairs.ravel()] = np.arange(len(pairs)).repeat(2)
    return _WarmStart(Matching(pairs.tolist()), float(ratio), gaps, edge_of)


# Work, in oracle and scan transitions, of a restart's first look-ahead
# block and of the first after each accept (see mine_low_ratio): 28
# candidates at k = 2 on 6 points, 6 at k = 3 on 8.  A ``_judge`` call has a
# fixed cost whatever its size (one batched oracle call, then per search
# round one ``_scan_rows`` call and the swaps' bookkeeping): on moves of
# mined sets it took 150 us for 7 candidates and 852 us for 448 at k = 2 on
# 6 points, 233 and 1,802 us at k = 3 on 8.  The benchmark's 80 miner runs
# took (CPU seconds, medians of 24 alternations in one process) 0.412 at
# 300, 0.388 at 600, 0.358 at 1200, 0.364 at 2400 and 0.384 at 4800;
# criterion 8's two runs did not separate 600 to 4800 beyond their noise.
# Shared 2-core 2.1 GHz Xeon VM, Python 3.11, numpy 2.4.
_FIRST_BLOCK_WORK = 1200


def _search_ratios(
    D: np.ndarray, init: Matching, k: int, gaps: np.ndarray, incumbent: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``k_local_search`` from `init` on each point set of the stack D
    (B, n, n), with the subset gaps already known (``gaps``, NaN where
    not), and ``weight(m) / weight(optimal_matching)``: the local pairs,
    the last round's gaps and the ratios.  The optima come first, so the
    search can drop each set whose ratio cannot fall below `incumbent`
    (``_batch_k_local_search``); every ratio below `incumbent`, with its
    pairs and gaps, is bit for bit that of one set at a time, and every
    other ratio is at least `incumbent`."""
    optimum = _batch_max_weight(D)
    pairs, w_local, gaps = _batch_k_local_search(D, init, k, gaps, optimum, incumbent)
    return pairs, gaps, w_local / optimum


@functools.cache
def _upper(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(n, 1)``, built once per size."""
    return np.triu_indices(n, 1)


@functools.cache
def _holding(edges: int, k: int) -> np.ndarray:
    """(edges, C): whether each k-subset of ``edges`` edge positions, in
    ``_combos`` order, holds each edge."""
    return (_combos(edges, k)[None] == np.arange(edges)[:, None, None]).any(axis=2)


def _moved_dists(ps: PointSet, moves: list[tuple[int, tuple[float, float]]]) -> np.ndarray:
    """(B, n, n): `ps`'s distance array once per move (point index, new
    coordinates), with the moved point's row and column recomputed by
    ``math.dist`` as ``PointSet.dist`` computes them.  All of the block's
    (move, point) distances run through one ``map``: at 448 moves of 8
    points 347 against 553 us for one list per move (best of 9, shared
    2-core 2.1 GHz Xeon VM).  A numpy distance would change bits:
    ``np.hypot`` differs from ``math.dist`` on 11,425 of 2,000,000 random
    pairs in the unit square."""
    coords = ps.coords
    n, b = len(coords), len(moves)
    starts = itertools.chain.from_iterable(itertools.repeat(xy, n) for _, xy in moves)
    moved = np.fromiter(map(math.dist, starts, coords * b), np.float64, b * n).reshape(b, n)
    rows, idx = np.arange(b), np.fromiter((i for i, _ in moves), np.intp, b)
    moved[rows, idx] = 0.0
    D = np.repeat(ps._dist_array[None], b, axis=0)
    D[rows, idx] = D[rows, :, idx] = moved
    return D


def _judge(
    ps: PointSet, warm: _WarmStart, k: int, moves: list[tuple[int, tuple[float, float]]]
) -> Optional[tuple[int, PointSet, _WarmStart]]:
    """The first of `moves` whose candidate lowers the ratio, as (its
    position, point set, warm start); None if none does.

    A move (point index, new coordinates) gives `ps` with that point moved.
    It is skipped when PointSet would reject the moved set: the candidates
    are judged from their distance stack alone, with PointSet's own rule
    (``_coincide``), and points and a PointSet are built for the winner
    only.  All candidates are judged at once, warm-started from the local
    matching.  A candidate's subsets that do not hold the moved point's
    edge keep their distances, so their gaps are the ones the warm start's
    clean scan found; only the others are scanned in the first round.

    The block's optima are solved before the search, and a candidate stops
    searching in the first round whose ``weight / optimum`` is at least the
    warm start's ratio (most do before any scan, from the warm matching's
    weight alone).  The local search only raises the weight, so a stopped
    candidate could not have won, and the winner's search, pairs, gaps and
    ratio are computed as without the bound.
    """
    n = len(ps)
    D = _moved_dists(ps, moves)
    upper = _upper(n)
    spans = D[:, upper[0], upper[1]]  # every gap of each candidate
    kept = np.flatnonzero(~_coincide(spans.min(axis=1), spans.max(axis=1)))
    if not kept.size:
        return None
    if kept.size < len(moves):
        D = D[kept]
    moved = np.fromiter((i for i, _ in moves), np.intp, len(moves))[kept]
    known = np.where(_holding(n // 2, k)[warm.edge_of[moved]], np.nan, warm.gaps)
    pairs, gaps, ratios = _search_ratios(D, warm.matching, k, known, warm.ratio)
    better = np.flatnonzero(ratios < warm.ratio)
    if not better.size:
        return None
    row = int(better[0])
    pos = int(kept[row])
    i, (x, y) = moves[pos]
    points = list(ps.points)
    points[i] = Point(x, y)
    return pos, PointSet(points), _warm_start(pairs[row], ratios[row], gaps[row])


def mine_low_ratio(cfg: MinerConfig, progress=None) -> MinedInstance:
    """Hill-climb point coordinates toward low locality ratios.

    Each restart owns the stream np.random.default_rng([seed, restart]).
    One random coordinate is perturbed per step by Gaussian noise whose
    scale anneals by 0.99 per 100 accepted steps; the k-local search is
    re-run warm-started from the previous local matching and a step is
    accepted only when the ratio strictly decreases.  Returns the best
    instance over all restarts (ties broken by restart index); a spent
    budget is not an error.

    Steps are judged in look-ahead blocks (``_judge``), since accepts are
    rare: a block's candidates all perturb the current instance, the first
    one that lowers the ratio is taken, and the draws after it carry over
    to the next block.  Candidates are judged from their distance arrays;
    a step whose moved set PointSet would reject is skipped, and only the
    winner becomes a PointSet.  The warm start carries its subsets' gaps,
    so a candidate's first search round scans only the subsets that hold
    the moved point's edge.  A step draws its coordinate, then a standard
    normal z, and its noise is ``0.0 + scale * z``, which equals
    ``normal(0.0, scale)`` bit for bit; so the scale can change after an
    accept without reordering the stream, and the results are those of
    judging one step at a time.  Blocks start at ``_FIRST_BLOCK_WORK``
    transitions, sized by what a ``_judge`` call costs whatever its size,
    grow 4x while nothing is accepted, start over after an accept, and
    never exceed the work of one oracle call at ``DEFAULT_ORACLE_CAP``.
    The schedule decides only how many draws one call judges, never the
    result.

    A block's searches are bounded by the current ratio: a candidate whose
    ``weight / optimum`` already reaches it, at the warm matching or after
    any swap, stops searching.  Each swap raises the weight by more than
    eps_geom times itself, far above the sum's rounding, so its finished
    ratio could not have been lower and the mined results are unchanged
    bit for bit.  A restart's first search runs unbounded (an incumbent of
    infinity) on the same path.
    """
    n, k = cfg.num_points, cfg.k
    work = _transitions(n) + math.comb(n // 2, k) * _transitions(2 * k)  # oracle + full scan
    first_block = -(-_FIRST_BLOCK_WORK // work)
    max_block = max(1, _transitions(2 * DEFAULT_ORACLE_CAP) // work)
    best: tuple[float, int, PointSet, Matching] | None = None
    total_iterations = 0
    for restart in range(cfg.restarts):
        rng = np.random.default_rng([cfg.seed, restart])
        ps = _random_points(rng, n)
        unknown = np.full((1, math.comb(n // 2, k)), np.nan)
        D = ps._dist_array[None]
        pairs, gaps, ratios = _search_ratios(D, greedy_matching(ps), k, unknown, math.inf)
        warm = _warm_start(pairs[0], ratios[0], gaps[0])
        accepted = 0
        draws: list[tuple[int, float]] = []  # (coordinate, z) not yet judged
        done = 0
        size = first_block
        while done < cfg.budget_iterations:
            block = min(size, cfg.budget_iterations - done)
            while len(draws) < block:
                draws.append((int(rng.integers(0, 2 * n)), rng.standard_normal()))
            scale = cfg.step_scale * 0.99 ** (accepted // 100)
            coords = ps.coords
            moves = []
            for coord, z in draws[:block]:
                noise = 0.0 + scale * z  # what normal(0.0, scale) computes
                x, y = coords[coord // 2]
                moves.append((coord // 2, (x + noise, y) if coord % 2 == 0 else (x, y + noise)))
            verdict = _judge(ps, warm, k, moves)
            if verdict is None:
                done += block
                del draws[:block]
                size = min(4 * size, max_block)
                continue
            pos, ps, warm = verdict
            done += pos + 1
            del draws[: pos + 1]
            size = first_block
            accepted += 1
            if progress is not None:
                progress(restart, total_iterations + done, warm.ratio)
        total_iterations += cfg.budget_iterations
        if best is None or (warm.ratio, restart) < (best[0], best[1]):
            best = (warm.ratio, restart, ps, warm.matching)
    assert best is not None
    ratio, _, ps, m = best
    bound = LOWER_BOUNDS.get(cfg.k, (cfg.k - 1) / cfg.k)
    if ratio < bound - 1e-9:
        raise RuntimeError(
            f"mined ratio {ratio:.12f} violates the proved lower bound {bound:.12f}"
        )
    return MinedInstance(
        point_set=ps,
        local_matching=m,
        k=cfg.k,
        ratio=ratio,
        rng_seed=cfg.seed,
        iterations_used=total_iterations,
    )
