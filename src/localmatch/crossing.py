"""Pairwise-crossing matchings: detection, half-plane balance, an exact
backtracking search that counts every crossing matching (so uniqueness is
checked at any size), and global maximality checked against the exact
oracle.

The crossing, balance and search predicates read one table of exact
orientations: ``left[a][b]`` is the bitmask of the points strictly left of
the directed line a -> b.  Like the distances and the oracle's optima, the
table is derived once per point set and kept in its ``_memo``, so the checks
compose: ``full_crossing_report`` calls the public ones in turn and every
point triple is still oriented once.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Optional

from .geometry import DEFAULT_TOL, orientation
from .matching import (
    DEFAULT_ORACLE_CAP,
    Matching,
    PointSet,
    optimal_matching,
    weight,
)

__all__ = [
    "CrossingReport",
    "GeneralPositionError",
    "is_pairwise_crossing",
    "halfplane_balance",
    "find_pairwise_crossing",
    "verify_globally_maximum",
    "convex_diagonal_matching",
    "full_crossing_report",
]

Pair = tuple[int, int]


class GeneralPositionError(ValueError):
    """Three of the points are collinear."""


@dataclass(frozen=True)
class CrossingReport:
    is_pairwise_crossing: bool
    non_crossing_pair: Optional[tuple[Pair, Pair]]
    balance_ok: bool
    unique: Optional[bool] = None
    globally_maximum: Optional[bool] = None


def _left_of(ps: PointSet) -> tuple[tuple[int, ...], ...]:
    """left[a][b] is the bitmask of the points strictly left of the directed
    line a -> b. One orientation call per point triple, in ``combinations``
    order, made on the first call for a point set and kept, read-only, in
    ``ps._memo``; the first collinear triple raises GeneralPositionError.
    The triples index the point tuple itself: through ``ps[i]`` the three
    method calls per triple cost about a fifth of the table (63 against
    51 us at 10 points, timeit; shared 2-core 2.1 GHz Xeon VM, Python
    3.11)."""
    memo = ps._memo
    if "left_of" not in memo:
        pts = ps.points
        n = len(pts)
        left = [[0] * n for _ in range(n)]
        for a, b, c in itertools.combinations(range(n), 3):
            side = orientation(pts[a], pts[b], pts[c])
            if side == 0:
                raise GeneralPositionError(f"points {a}, {b}, {c} are collinear")
            if side < 0:
                a, b = b, a
            # (a, b, c) is now counter-clockwise: each vertex lies left of the
            # directed edge opposite it.
            left[a][b] |= 1 << c
            left[b][c] |= 1 << a
            left[c][a] |= 1 << b
        memo["left_of"] = tuple(map(tuple, left))
    return memo["left_of"]


def _cross(left: tuple[tuple[int, ...], ...], a: int, b: int, c: int, d: int) -> bool:
    """Segments ab and cd (four distinct points) properly cross: c and d lie
    on opposite sides of line ab, and a and b on opposite sides of line cd."""
    return bool((left[a][b] >> c ^ left[a][b] >> d) & (left[c][d] >> a ^ left[c][d] >> b) & 1)


def is_pairwise_crossing(ps: PointSet, m: Matching) -> CrossingReport:
    """All-pairs proper-crossing check; the point set must be in general
    position (no three collinear points) or GeneralPositionError is raised.

    The returned report is partial: uniqueness and global maximality stay
    None (see full_crossing_report).
    """
    if not m.is_perfect_on(ps):
        raise ValueError("matching must be perfect on the point set")
    left = _left_of(ps)
    for e, f in itertools.combinations(m.pairs, 2):
        if not _cross(left, *e, *f):
            return CrossingReport(
                is_pairwise_crossing=False, non_crossing_pair=(e, f), balance_ok=False
            )
    # In general position the n - 2 other points split between the two
    # sides, so (n - 2) / 2 on the left means as many on the right.
    half = (len(ps) - 2) // 2
    return CrossingReport(
        is_pairwise_crossing=True,
        non_crossing_pair=None,
        balance_ok=all(left[a][b].bit_count() == half for a, b in m.pairs),
    )


def _require_crossing(ps: PointSet, m: Matching) -> CrossingReport:
    report = is_pairwise_crossing(ps, m)
    if not report.is_pairwise_crossing:
        raise ValueError(
            f"matching is not pairwise crossing (pair {report.non_crossing_pair})"
        )
    return report


def halfplane_balance(ps: PointSet, m: Matching) -> bool:
    """For every edge, both open half-planes of its supporting line must
    contain exactly (|P| - 2) / 2 of the remaining points.

    Requires a pairwise crossing matching (checked).
    """
    return _require_crossing(ps, m).balance_ok


def find_pairwise_crossing(ps: PointSet) -> tuple[Optional[Matching], int]:
    """Find every pairwise crossing perfect matching by exact backtracking.

    Returns the first one in the order of ``enumerate_matchings`` (lowest
    free index paired first, partners ascending; None if none exists) and
    the total count, which the uniqueness theorem predicts
    to be 0 or 1. Every edge of a crossing matching is crossed by all the
    others, so it is a halving edge: (n - 2) / 2 points lie on each side.
    The search therefore pairs the lowest free point only with its halving
    partners, in ascending order, and keeps an edge only if it crosses
    every edge already chosen; the count is exact at any n, and halving
    edges are few (O(n^(4/3)), Dey 1998), which bounds the branching. Raises
    ValueError for an odd number of points and GeneralPositionError for
    collinear ones.
    """
    n = len(ps)
    if n % 2:
        raise ValueError(f"point set has odd cardinality {n}")
    left = _left_of(ps)
    half = (n - 2) // 2
    partners = [[b for b in range(a + 1, n) if left[a][b].bit_count() == half] for a in range(n)]
    chosen: list[Pair] = []
    found: Optional[Matching] = None
    count = 0

    def extend(free: int) -> None:
        nonlocal found, count
        if not free:
            count += 1
            if found is None:
                found = Matching(chosen)
            return
        a = (free & -free).bit_length() - 1
        for b in partners[a]:
            if free >> b & 1 and all(_cross(left, a, b, c, d) for c, d in chosen):
                chosen.append((a, b))
                extend(free ^ (1 << a | 1 << b))
                chosen.pop()

    extend((1 << n) - 1)
    return found, count


def verify_globally_maximum(ps: PointSet, m: Matching) -> bool:
    """True iff the (pairwise crossing) matching matches the oracle maximum."""
    _require_crossing(ps, m)
    return _is_maximum(ps, m, DEFAULT_ORACLE_CAP)


def _is_maximum(ps: PointSet, m: Matching, cap: int) -> bool:
    opt = optimal_matching(ps, "maximize", cap)
    w_max = weight(opt, ps)
    return weight(m, ps) >= w_max - DEFAULT_TOL.eps_geom * w_max


def convex_diagonal_matching(ps: PointSet) -> Matching:
    """Main-diagonal pairing of a convex-position point set: sort by angle
    around the centroid and match index t with t + n/2."""
    n = len(ps)
    if n % 2 or n < 4:
        raise ValueError("need an even number of points, at least 4")
    # The centroid is added left to right: ``sum`` compensates float sums
    # from Python 3.12, which can move it by an ulp.
    coords = ps.coords
    cx = cy = 0.0
    for x, y in coords:
        cx += x
        cy += y
    cx, cy = cx / n, cy / n
    order = sorted(range(n), key=lambda i: math.atan2(coords[i][1] - cy, coords[i][0] - cx))
    half = n // 2
    return Matching((order[t], order[t + half]) for t in range(half))


def full_crossing_report(
    ps: PointSet, m: Matching, cap: int = DEFAULT_ORACLE_CAP
) -> CrossingReport:
    """Crossing/balance check, uniqueness at any size (from the exact
    search's count), and global maximality where the oracle cap allows."""
    report = is_pairwise_crossing(ps, m)
    if not report.is_pairwise_crossing:
        return report
    return replace(
        report,
        unique=find_pairwise_crossing(ps)[1] == 1,
        globally_maximum=_is_maximum(ps, m, cap) if len(ps) <= 2 * cap else None,
    )
