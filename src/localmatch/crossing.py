"""Pairwise-crossing matchings: detection, half-plane balance, uniqueness
via enumeration, and global maximality checked against the exact oracle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

from .geometry import DEFAULT_TOL, Segment, Tolerance, orientation, segments_cross
from .matching import (
    DEFAULT_ORACLE_CAP,
    ENUMERATION_CAP,
    CapExceededError,
    Matching,
    PointSet,
    enumerate_matchings,
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
    """Three collinear points (or a point on an edge's line) were found."""


@dataclass(frozen=True)
class CrossingReport:
    is_pairwise_crossing: bool
    non_crossing_pair: Optional[tuple[Pair, Pair]]
    balance_ok: bool
    unique: Optional[bool] = None
    globally_maximum: Optional[bool] = None


def _assert_general_position(ps: PointSet) -> None:
    for a, b, c in itertools.combinations(range(len(ps)), 3):
        if orientation(ps[a], ps[b], ps[c]) == 0:
            raise GeneralPositionError(f"points {a}, {b}, {c} are collinear")


def _segment(ps: PointSet, pair: Pair) -> Segment:
    return Segment(ps[pair[0]], ps[pair[1]])


def _first_non_crossing_pair(
    ps: PointSet, m: Matching, tol: Tolerance
) -> Optional[tuple[Pair, Pair]]:
    segs = [_segment(ps, pair) for pair in m.pairs]
    for (i, s1), (j, s2) in itertools.combinations(enumerate(segs), 2):
        if not segments_cross(s1, s2, tol):
            return m.pairs[i], m.pairs[j]
    return None


def is_pairwise_crossing(ps: PointSet, m: Matching, tol: Tolerance = DEFAULT_TOL) -> CrossingReport:
    """All-pairs proper-crossing check; the point set must be in general
    position (no three collinear points) or GeneralPositionError is raised.

    The returned report is partial: uniqueness and global maximality stay
    None (they need the enumeration and oracle caps; see
    full_crossing_report).
    """
    if not m.is_perfect_on(ps):
        raise ValueError("matching must be perfect on the point set")
    _assert_general_position(ps)
    bad = _first_non_crossing_pair(ps, m, tol)
    if bad is not None:
        return CrossingReport(
            is_pairwise_crossing=False, non_crossing_pair=bad, balance_ok=False
        )
    return CrossingReport(
        is_pairwise_crossing=True,
        non_crossing_pair=None,
        balance_ok=_halfplane_balance_checked(ps, m),
    )


def _halfplane_balance_checked(ps: PointSet, m: Matching) -> bool:
    n = len(ps)
    expected = (n - 2) // 2
    for i, j in m.pairs:
        left = right = 0
        for v in range(n):
            if v == i or v == j:
                continue
            side = orientation(ps[i], ps[j], ps[v])
            if side == 0:
                raise GeneralPositionError(
                    f"point {v} lies on the line through edge ({i}, {j})"
                )
            if side > 0:
                left += 1
            else:
                right += 1
        if left != expected or right != expected:
            return False
    return True


def halfplane_balance(ps: PointSet, m: Matching, tol: Tolerance = DEFAULT_TOL) -> bool:
    """For every edge, both open half-planes of its supporting line must
    contain exactly (|P| - 2) / 2 of the remaining points.

    Requires a pairwise crossing matching (checked).
    """
    report = is_pairwise_crossing(ps, m, tol)
    if not report.is_pairwise_crossing:
        raise ValueError(
            f"matching is not pairwise crossing (pair {report.non_crossing_pair})"
        )
    return report.balance_ok


def find_pairwise_crossing(
    ps: PointSet, tol: Tolerance = DEFAULT_TOL
) -> tuple[Optional[Matching], int]:
    """Scan all perfect matchings for pairwise crossing ones.

    Returns the first one found (None if none exists) and the total count,
    which the uniqueness theorem predicts to be 0 or 1.
    """
    if len(ps) > ENUMERATION_CAP:
        raise CapExceededError(
            f"{len(ps)} points exceeds the enumeration cap of {ENUMERATION_CAP}"
        )
    _assert_general_position(ps)
    found: Optional[Matching] = None
    count = 0
    for m in enumerate_matchings(ps):
        if _first_non_crossing_pair(ps, m, tol) is None:
            count += 1
            if found is None:
                found = m
    return found, count


def verify_globally_maximum(
    ps: PointSet,
    m: Matching,
    tol: Tolerance = DEFAULT_TOL,
    cap: int = DEFAULT_ORACLE_CAP,
) -> bool:
    """True iff the (pairwise crossing) matching matches the oracle maximum."""
    report = is_pairwise_crossing(ps, m, tol)
    if not report.is_pairwise_crossing:
        raise ValueError(
            f"matching is not pairwise crossing (pair {report.non_crossing_pair})"
        )
    opt = optimal_matching(ps, "maximize", cap)
    w_max = weight(opt, ps)
    return weight(m, ps) >= w_max - tol.eps_geom * w_max


def convex_diagonal_matching(ps: PointSet) -> Matching:
    """Main-diagonal pairing of a convex-position point set: sort by angle
    around the centroid and match index t with t + n/2."""
    n = len(ps)
    if n % 2 or n < 4:
        raise ValueError("need an even number of points, at least 4")
    cx = sum(p.x for p in ps.points) / n
    cy = sum(p.y for p in ps.points) / n
    order = sorted(range(n), key=lambda i: math.atan2(ps[i].y - cy, ps[i].x - cx))
    half = n // 2
    return Matching((order[t], order[t + half]) for t in range(half))


def full_crossing_report(
    ps: PointSet,
    m: Matching,
    tol: Tolerance = DEFAULT_TOL,
    cap: int = DEFAULT_ORACLE_CAP,
) -> CrossingReport:
    """Crossing/balance check plus uniqueness and global maximality where
    the enumeration and oracle caps allow."""
    base = is_pairwise_crossing(ps, m, tol)
    if not base.is_pairwise_crossing:
        return base
    unique: Optional[bool] = None
    if len(ps) <= ENUMERATION_CAP:
        _, count = find_pairwise_crossing(ps, tol)
        unique = count == 1
    globally_maximum: Optional[bool] = None
    if len(ps) <= 2 * cap:
        globally_maximum = verify_globally_maximum(ps, m, tol, cap)
    return CrossingReport(
        is_pairwise_crossing=True,
        non_crossing_pair=None,
        balance_ok=base.balance_ok,
        unique=unique,
        globally_maximum=globally_maximum,
    )
