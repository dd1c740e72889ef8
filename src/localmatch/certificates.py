"""Geometric witnesses behind the locality ratio bounds.

A certificate is a point c together with the per-edge inequality chain
|ca| + |cb| <= beta * |ab|, which sandwiches any rival matching between the
star around c and beta times the certified matching.  Witness points
minimize a convex pointwise-maximum objective in the plane, an LP-type
problem of combinatorial dimension 3, which one violator loop solves over
bases of at most three pieces with closed-form optima.  Disk slack
max_i(|x - c_i| - r_i) is solved by it directly.  The normalized ellipse
radius, whose 2- and 3-supports have no closed form, is solved by an
active-set Newton method whose quadratic model the same loop solves
exactly.  Each witness carries its support and convex multipliers, so
`check_witness` and `check_fingerhut_witness` re-verify optimality without
the solver.  Slack verdicts are relative to the instance's length scale.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import partial
from typing import Literal, Optional

from .geometry import DEFAULT_TOL, Disk, Point, diametral_disk, distance
from .matching import (
    DEFAULT_ORACLE_CAP,
    Matching,
    PointSet,
    is_k_local_max,
    optimal_matching,
    weight,
)

__all__ = [
    "DiskFamily",
    "CenterWitness",
    "Certificate",
    "CertificateError",
    "LocalityError",
    "WitnessError",
    "ENLARGEMENT_FACTOR",
    "diametral_family",
    "common_point",
    "check_witness",
    "check_fingerhut_witness",
    "fingerhut_center",
    "star_weight",
    "certify",
]

ENLARGEMENT_FACTOR = 2.0 / math.sqrt(3.0)

CertificateKind = Literal["local2", "local3_sqrt2", "local3_fingerhut"]

WitnessKind = Literal["diametral", "enlarged", "fingerhut"]


class CertificateError(ValueError):
    """Certificate construction failed."""


class LocalityError(CertificateError):
    """The matching is not k-local maximum, so no certificate applies."""

    def __init__(self, k: int, violating_subset):
        self.k = k
        self.violating_subset = tuple(violating_subset)
        super().__init__(
            f"matching is not {k}-local maximum; violating subset {self.violating_subset}"
        )


class WitnessError(CertificateError):
    """No witness point within tolerance was found."""


@dataclass(frozen=True)
class DiskFamily:
    """Base disks plus a radius scale factor applied uniformly on read."""

    disks: tuple[Disk, ...]
    scale: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.scale) and self.scale > 0.0):
            raise ValueError(f"scale must be a positive real, got {self.scale}")

    def __len__(self) -> int:
        return len(self.disks)

    def scaled_disks(self) -> tuple[Disk, ...]:
        return tuple(d.scaled(self.scale) for d in self.disks)

    def rescaled(self, scale: float) -> "DiskFamily":
        return DiskFamily(self.disks, scale)


@dataclass(frozen=True)
class CenterWitness:
    """A witness point and its slack, the objective's value there.

    A witness names its optimal basis: `support` lists the pieces active at
    the point (disks of the family, or edges of the matching as indices into
    its pairs), and `multipliers` the convex weights under which their
    gradients sum to zero.  A disk witness measures slack in its family's
    length unit `scale`; Fingerhut slack is a ratio, so its scale is 1.
    """

    point: Point
    slack: float
    kind: WitnessKind
    support: tuple[int, ...] = ()
    multipliers: tuple[float, ...] = ()
    scale: float = 1.0

    def holds(self) -> bool:
        """Slack is nonpositive up to eps_opt in the instance's length unit."""
        return self.slack <= DEFAULT_TOL.eps_opt * self.scale


@dataclass(frozen=True)
class Certificate:
    kind: CertificateKind
    witness: CenterWitness
    star_weight: float
    matching_weight: float
    beta: float
    per_edge_checks: tuple[tuple[tuple[int, int], float, float], ...]
    oracle_weight: Optional[float] = None


# ---------------------------------------------------------------------------
# Violator pivoting, and the disks' closed-form bases
# ---------------------------------------------------------------------------

# Violation threshold of the disk pivot, relative to the family's length scale.
_PIVOT_RTOL = 1e-12


def _disk_coordinates(df: DiskFamily) -> tuple[list[float], list[float], list[float]]:
    """Centres and scaled radii of the family, the floats of
    ``df.scaled_disks()`` without building its disks unless a radius
    overflows, when building them raises that disk's ``ValueError``."""
    disks = df.disks
    r = [d.radius * df.scale for d in disks]
    if not all(map(math.isfinite, r)):
        df.scaled_disks()
    return [d.center.x for d in disks], [d.center.y for d in disks], r


def _ascending_roots(a: float, b: float, c: float) -> list[float]:
    """Real roots of a s^2 + b s + c = 0 in ascending order; a discriminant
    that is negative only by rounding counts as a double root."""
    if a == 0.0:
        return [-c / b] if b != 0.0 else []
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        if disc < -1e-12 * (b * b + abs(4.0 * a * c)):
            return []
        disc = 0.0
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    if q == 0.0:
        return [0.0]
    return sorted((q / a, c / q))


def _balance3(cx, cy, support, x: float, y: float) -> Optional[tuple[float, ...]]:
    """Convex weights under which the outward unit vectors of three disks at
    (x, y) sum to zero, or None when 0 lies outside their convex hull."""
    units = []
    for m in support:
        dx, dy = x - cx[m], y - cy[m]
        d = math.hypot(dx, dy)
        if d == 0.0:
            return None
        units.append((dx / d, dy / d))
    (ax, ay), (bx, by), (ex, ey) = units
    # Barycentric coordinates of the origin in the triangle of unit vectors.
    w = (bx * ey - by * ex, ex * ay - ey * ax, ax * by - ay * bx)
    total = w[0] + w[1] + w[2]
    if total == 0.0:
        return None
    lam = tuple(v / total for v in w)
    return lam if min(lam) >= 0.0 else None


def _apollonius(cx, cy, r, support):
    """3-support optimum: the point of equal slack t on three disks whose
    outward unit vectors have 0 in their convex hull.

    In coordinates centred on c_i, with s = r_i + t = |x|, subtracting the
    squared equations |x - a_m|^2 = (s + p_m)^2 (p_m = r_m - r_i) from
    |x|^2 = s^2 leaves a_m . x = (|a_m|^2 - p_m^2) / 2 - s p_m for m = j, k.
    So x = p - s q is affine in s, and |x|^2 = s^2 is a quadratic in s whose
    smallest admissible root is taken.
    """
    i, j, k = support
    ox, oy = cx[i], cy[i]
    ajx, ajy, akx, aky = cx[j] - ox, cy[j] - oy, cx[k] - ox, cy[k] - oy
    pj, pk = r[j] - r[i], r[k] - r[i]
    det = ajx * aky - ajy * akx
    if det == 0.0:
        return None
    hj = (ajx * ajx + ajy * ajy - pj * pj) / 2.0
    hk = (akx * akx + aky * aky - pk * pk) / 2.0
    px, py = (hj * aky - hk * ajy) / det, (ajx * hk - akx * hj) / det
    qx, qy = (pj * aky - pk * ajy) / det, (ajx * pk - akx * pj) / det
    roots = _ascending_roots(qx * qx + qy * qy - 1.0, -2.0 * (px * qx + py * qy), px * px + py * py)
    for s in roots:
        if min(s, s + pj, s + pk) < 0.0:
            continue
        x, y = ox + px - s * qx, oy + py - s * qy
        lam = _balance3(cx, cy, support, x, y)
        if lam is not None:
            return x, y, s - r[i], lam
    return None


def _support_optimum(cx, cy, r, support):
    """Closed-form minimizer (x, y, t, multipliers) of the disks in `support`
    with all of them active, or None when no such point has nonnegative
    multipliers."""
    if len(support) == 1:
        (i,) = support
        return cx[i], cy[i], -r[i], (1.0,)
    if len(support) == 2:
        i, j = support
        dx, dy = cx[j] - cx[i], cy[j] - cy[i]
        d = math.hypot(dx, dy)
        a = (d + r[i] - r[j]) / 2.0
        b = (d - r[i] + r[j]) / 2.0
        if a <= 0.0 or b <= 0.0:
            return None
        return cx[i] + dx * (a / d), cy[i] + dy * (a / d), (d - r[i] - r[j]) / 2.0, (0.5, 0.5)
    return _apollonius(cx, cy, r, support)


def _pivot(n: int, solve, levels, starts, delta: float):
    """Minimizer of the maximum of n convex pieces in the plane by violator
    pivoting (Sharir & Welzl 1992; Matousek, Sharir & Welzl 1996).

    `solve(support)` gives the closed-form minimizer (x, y, t, multipliers)
    of the pieces in `support`, all at value t, or None when its multipliers
    are not all nonnegative; `levels(x, y, pieces)` lists pieces' values at
    (x, y).  The basis starts at the first of `starts` that solves.  While
    the highest piece h exceeds the basis value t beyond `delta`, the new
    basis is the subset of basis + h containing h whose point has the least
    highest piece of basis + h, which becomes t; a later subset replaces an
    earlier one only when lower beyond `delta`.  That is the optimum of
    basis + h, so t rises, no basis repeats and the number of bases bounds
    the pivots.  When rounding leaves no subset as low as the basis' own
    point, the basis stays, at h's value, and the pivoting ends.
    Returns (x, y, value, support, multipliers).
    """
    for basis in starts:
        got = solve(basis)
        if got is not None:
            break
    x, y, t, lam = got
    for _ in range(n + math.comb(n, 2) + math.comb(n, 3)):
        vals = levels(x, y, range(n))
        h = max(range(n), key=vals.__getitem__)
        if vals[h] <= t + delta:
            return x, y, vals[h], basis, lam
        pool = basis + (h,)
        best = None
        for size in range(min(len(basis), 2) + 1):
            for rest in itertools.combinations(basis, size):
                support = tuple(sorted(rest + (h,)))
                got = solve(support)
                if got is None:
                    continue
                sx, sy, _, sl = got
                top = max(levels(sx, sy, pool))
                if best is None or top < best[2] - delta:
                    best = (sx, sy, top, support, sl)
        if best is None or best[2] > vals[h]:
            best = (x, y, vals[h], basis, lam)
        x, y, t, basis, lam = best
    raise WitnessError(f"pivot bound exceeded on {n} pieces")


class _Pieces:
    """Convex pieces f_m(x) = w_m * sum_p |x - p| - r_m, each a weighted sum
    of distances to one or two foci p: a disk |x - c| - r, or a Fingerhut
    ellipse (|x - a| + |x - b|) / |ab| - 2/sqrt(3), whose value is slack.

    `length` is the unit in which point tolerances are judged, unchanged by
    rigid motions and relabelling: the largest distance between two foci,
    or the largest of `radii`.  A caller that already knows the largest
    span passes it as `span` (the ellipses of a perfect matching: the point
    set's diameter); else every pair of foci is measured.  Every piece's
    gradient has norm at most `lipschitz`.
    """

    def __init__(self, foci, weights, offsets, radii, span=None):
        self.foci, self.weights, self.offsets = foci, weights, offsets
        points = [p for fs in foci for p in fs]
        if span is None:
            span = max((math.dist(p, q) for p, q in itertools.combinations(points, 2)), default=0.0)
        self.length = max(max(radii), span)
        self.magnitude = max(max(abs(c) for p in points for c in p), max(radii))
        self.lipschitz = max(w * len(fs) for fs, w in zip(foci, weights))

    def tolerance(self, rel: float) -> float:
        """rel in the length unit, floored by the rounding of coordinates
        that lie far from the origin relative to that unit."""
        return rel * self.length + 16.0 * math.ulp(self.magnitude)

    def values(self, x: float, y: float) -> list[float]:
        p = (x, y)  # paired with each of a piece's one or two foci
        return [
            w * sum(map(math.dist, (p, p), fs)) - r
            for fs, w, r in zip(self.foci, self.weights, self.offsets)
        ]

    def lowest(self, starts) -> tuple[float, float]:
        """``min(starts, key=lambda p: max(self.values(*p)))``: the first
        start with the lowest F = max_m f_m, from the same floats.  A start
        stops being scored once one of its pieces reaches the lowest F so
        far, since it can then at best tie, and a tie keeps the first."""
        terms = list(zip(self.foci, self.weights, self.offsets))
        best, lowest = None, math.inf
        for p in starts:
            f = -math.inf
            for fs, w, r in terms:
                v = w * sum(map(math.dist, (p, p), fs)) - r
                if v >= lowest:
                    break
                f = max(f, v)
            else:
                best, lowest = p, f
        return best

    def near_top(self, x: float, y: float, e: int, v: float) -> Optional[list[float]]:
        """``self.values(x, y)`` when piece e is within v of the highest
        there, ``vals[e] >= max(vals) - v``, else None.  Stops at the first
        piece i with ``vals[e] < vals[i] - v``, which is exactly that test's
        negation: float subtraction is monotone, so ``max(vals) - v`` is the
        largest of the ``vals[i] - v``."""
        p = (x, y)
        own = self.weights[e] * sum(map(math.dist, (p, p), self.foci[e])) - self.offsets[e]
        vals = []
        for fs, w, r in zip(self.foci, self.weights, self.offsets):
            val = w * sum(map(math.dist, (p, p), fs)) - r
            if own < val - v:
                return None
            vals.append(val)
        return vals

    def derivatives(self, x: float, y: float):
        """(value, gradient, Hessian (xx, xy, yy)) of every piece at (x, y);
        a focus within the rounding of the coordinates counts as at the
        point, where it contributes the subgradient 0 and no curvature."""
        out, near = [], self.tolerance(0.0)
        for fs, w, r in zip(self.foci, self.weights, self.offsets):
            v = gx = gy = hxx = hxy = hyy = 0.0
            for px, py in fs:
                dx, dy = x - px, y - py
                d = math.hypot(dx, dy)
                v += d
                if d > near:
                    ux, uy, c = dx / d, dy / d, w / d
                    gx, gy = gx + ux, gy + uy
                    hxx, hxy, hyy = hxx + uy * uy * c, hxy - ux * uy * c, hyy + ux * ux * c
            out.append((w * v - r, (w * gx, w * gy), (hxx, hxy, hyy)))
        return out


def _disk_pieces(cx, cy, r) -> _Pieces:
    return _Pieces([((x, y),) for x, y in zip(cx, cy)], [1.0] * len(r), r, r)


def _ellipse_pieces(m: Matching, ps: PointSet) -> _Pieces:
    # A perfect matching's foci are all the points, so their largest span is
    # the diameter, the same float: the max of the same ``math.dist`` values
    # (symmetric in its arguments) over the same pairs.
    return _Pieces(
        [(ps.coords[i], ps.coords[j]) for i, j in m.pairs],
        [1.0 / ps.dist[i][j] for i, j in m.pairs],
        [ENLARGEMENT_FACTOR] * len(m),
        [0.0],
        ps.diameter if m.is_perfect_on(ps) else None,
    )


def _check_pieces(pieces: _Pieces, witness: CenterWitness) -> None:
    """Re-verify, without the solver, that the witness point minimizes
    max_m f_m with value `witness.slack`.

    It does when the slack is the largest piece value at the point, every
    support piece is active there, the multipliers are nonnegative and sum
    to 1, and the multiplier-weighted gradients of the support sum to zero,
    so 0 is a subgradient.  The point may be off by atol, eps_geom in the
    pieces' length unit, so values are compared within atol * lipschitz,
    and each focus at distance d turns its unit vector by up to atol / d; a
    focus within atol is an apex, where every vector of norm at most 1 is a
    subgradient of its distance.  Raises WitnessError naming the first
    condition that fails.
    """
    eps = DEFAULT_TOL.eps_geom
    atol = pieces.tolerance(eps)
    vtol = atol * pieces.lipschitz
    support, lam = witness.support, witness.multipliers
    n = len(pieces.foci)
    if (
        not support
        or len(lam) != len(support)
        or len(set(support)) != len(support)
        or not all(0 <= i < n for i in support)
    ):
        raise WitnessError(f"malformed support {support} with multipliers {lam}")
    x, y = witness.point.x, witness.point.y
    vals = pieces.values(x, y)
    top = max(range(n), key=vals.__getitem__)
    if abs(vals[top] - witness.slack) > vtol:
        raise WitnessError(
            f"piece {top} has slack {vals[top]:.6e}, witness reports {witness.slack:.6e}"
        )
    for i in support:
        if vals[i] < witness.slack - vtol:
            raise WitnessError(f"support piece {i} is not active: slack {vals[i]:.6e}")
    if min(lam) < -eps or abs(sum(lam) - 1.0) > eps:
        raise WitnessError(f"multipliers {lam} are not convex weights")
    gx = gy = room = 0.0
    for i, l in zip(support, lam):
        lw = l * pieces.weights[i]
        for px, py in pieces.foci[i]:
            dx, dy = x - px, y - py
            d = math.hypot(dx, dy)
            if d <= atol:
                room += lw
                continue
            room += lw * atol / d
            gx += lw * dx / d
            gy += lw * dy / d
    if math.hypot(gx, gy) > room + eps * pieces.lipschitz:
        raise WitnessError(f"weighted gradients leave residual {math.hypot(gx, gy):.3e}")


def check_witness(df: DiskFamily, witness: CenterWitness) -> None:
    """Re-verify, without the solver, that a disk witness minimizes
    max_i (|x - c_i| - r_i) over the scaled family (see `_check_pieces`);
    lengths are compared within eps_geom in the family's length unit.
    """
    if witness.kind == "fingerhut":
        raise WitnessError("a Fingerhut witness is checked by check_fingerhut_witness")
    _check_pieces(_disk_pieces(*_disk_coordinates(df)), witness)


def check_fingerhut_witness(m: Matching, ps: PointSet, witness: CenterWitness) -> None:
    """Re-verify, without the solver, that a Fingerhut witness minimizes
    max_i (|x - a_i| + |x - b_i|) / |a_i b_i| - 2/sqrt(3) over the edges of
    m (see `_check_pieces`); the support indexes m.pairs.
    """
    if witness.kind != "fingerhut":
        raise WitnessError(f"a {witness.kind} witness is checked by check_witness")
    _check_pieces(_ellipse_pieces(m, ps), witness)


# ---------------------------------------------------------------------------
# Ellipse witness: active-set Newton
# ---------------------------------------------------------------------------

_NEWTON_STEPS = 500
# Regularization of the weighted Hessian, relative to its trace, and the
# share of the predicted decrease a trial step must achieve.
_HESSIAN_RTOL = 1e-10
_ARMIJO = 1e-4


def _ellipse_starts(pieces: _Pieces) -> list[tuple[float, float]]:
    """Edge midpoints; edge endpoints, near which a piece's curvature grows
    as 1 / distance; and the points where two edges meet, optimal when every
    edge passes through them (each piece then attains its lower bound 1)."""
    edges = pieces.foci
    starts = [((ax + bx) / 2.0, (ay + by) / 2.0) for (ax, ay), (bx, by) in edges]
    starts += [p for ends in edges for p in ends]
    for ((ax, ay), (bx, by)), ((cx, cy), (dx, dy)) in itertools.combinations(edges, 2):
        ux, uy, vx, vy = bx - ax, by - ay, dx - cx, dy - cy
        den = ux * vy - uy * vx
        if den == 0.0:
            continue
        s = ((cx - ax) * vy - (cy - ay) * vx) / den
        u = ((cx - ax) * uy - (cy - ay) * ux) / den
        if 0.0 <= s <= 1.0 and 0.0 <= u <= 1.0:
            starts.append((ax + s * ux, ay + s * uy))
    return starts


def _support_step(vals, grads, h, support):
    """Step d and multipliers of the program restricted to `support`, with
    vals[m] + grads[m].d = t there, or None when its system is singular.
    One piece takes its Newton step.  Two fix the component of d along the
    difference e of their gradients and minimize over the perpendicular one;
    three fix d.  The multipliers follow from stationarity, with no inverse
    of H along e, so a Hessian nearly singular there costs no accuracy.
    """
    hxx, hxy, hyy = h
    if len(support) == 1:
        (gx, gy), det = grads[support[0]], hxx * hyy - hxy * hxy
        return (hxy * gy - hyy * gx) / det, (hxy * gx - hxx * gy) / det, (1.0,)
    k = support[-1]
    gkx, gky = grads[k]
    if len(support) == 2:
        i = support[0]
        ex, ey = grads[i][0] - gkx, grads[i][1] - gky
        norm = math.hypot(ex, ey)
        if norm == 0.0:
            return None
        nx, ny = ex / norm, ey / norm
        along = (vals[k] - vals[i]) / norm
        # d = along * n + s * (-ny, nx), with s minimizing the objective.
        htt = hxx * ny * ny - 2.0 * hxy * nx * ny + hyy * nx * nx
        htn = (hyy - hxx) * nx * ny + hxy * (nx * nx - ny * ny)
        s = (ny * gkx - nx * gky - htn * along) / htt
        dx, dy = along * nx - s * ny, along * ny + s * nx
        li = -(nx * (hxx * dx + hxy * dy + gkx) + ny * (hxy * dx + hyy * dy + gky)) / norm
        return dx, dy, (li, 1.0 - li)
    i, j, _ = support
    aix, aiy = grads[i][0] - gkx, grads[i][1] - gky
    ajx, ajy = grads[j][0] - gkx, grads[j][1] - gky
    det = aix * ajy - aiy * ajx
    if det == 0.0:
        return None
    ri, rj = vals[k] - vals[i], vals[k] - vals[j]
    dx, dy = (ri * ajy - rj * aiy) / det, (aix * rj - ajx * ri) / det
    # lam_i e_i + lam_j e_j = -(H d + g_k), e_m = g_m - g_k.
    bx, by = -(hxx * dx + hxy * dy + gkx), -(hxy * dx + hyy * dy + gky)
    li, lj = (bx * ajy - by * ajx) / det, (aix * by - aiy * bx) / det
    return dx, dy, (li, lj, 1.0 - li - lj)


def _qp_step(vals, grads, h, start, delta: float):
    """Exact solution (dx, dy, support, multipliers) of the program
    min t + d'Hd/2 subject to vals[m] + grads[m].d <= t, H = (xx, xy, yy)
    positive definite.  Its optimum d minimizes the strictly convex
    q(d) = max_m (vals[m] + grads[m].d + d'Hd/2), a maximum of convex
    pieces in the plane whose supports of at most three pieces have the
    closed-form steps of `_support_step`.  So `_pivot` solves it exactly,
    from the support `start` when its multipliers are nonnegative, else
    from the highest piece alone; pieces count as violated beyond `delta`.
    """
    hxx, hxy, hyy = h

    def levels(dx, dy, pieces):
        quad = 0.5 * (hxx * dx * dx + 2.0 * hxy * dx * dy + hyy * dy * dy)
        return [vals[m] + grads[m][0] * dx + grads[m][1] * dy + quad for m in pieces]

    def solve(support):
        got = _support_step(vals, grads, h, support)
        if got is None or min(got[2]) < 0.0:
            return None
        dx, dy, lam = got
        return dx, dy, levels(dx, dy, support[:1])[0], lam

    top = (max(range(len(vals)), key=vals.__getitem__),)
    dx, dy, _, support, lam = _pivot(len(vals), solve, levels, [start, top], delta)
    return dx, dy, support, lam


def _trial_steps(pieces: _Pieces, x: float, y: float, dx: float, dy: float, grads, h, qp):
    """Trial steps from (x, y), each with the share of the predicted decrease
    it must achieve and the pieces' values at the trial point: the Newton
    step d; its second-order correction c, which folds each piece's
    curvature along d into its value (read off the values at d, so each
    trial point is evaluated once) and solves the program again from `qp`,
    d's support and violation threshold; then s d + s^2 (c - d) for s
    halved up to 40 times.  This arc bends with the active pieces' level
    curves, which near an edge's endpoint curve on the scale of the
    distance to it."""
    ahead = pieces.values(x + dx, y + dy)
    yield 1.0, dx, dy, ahead
    shifted = [v - gx * dx - gy * dy for v, (gx, gy) in zip(ahead, grads)]
    cx, cy, _, _ = _qp_step(shifted, grads, h, *qp)
    yield 1.0, cx, cy, pieces.values(x + cx, y + cy)
    for i in range(1, 41):
        s = 0.5**i
        sx, sy = s * dx + s * s * (cx - dx), s * dy + s * s * (cy - dy)
        yield s, sx, sy, pieces.values(x + sx, y + sy)


def _newton_pieces(pieces: _Pieces, starts):
    """Minimize F = max_m f_m by an active-set Newton method (S.-P. Han,
    Math. Programming 20, 1981).

    From the start with the lowest F, each step solves the model
    min t + d'Hd/2 s.t. f_m + g_m.d <= t exactly, H the Hessian weighted by
    the last multipliers, by pivoting from the last support (`_qp_step`),
    and takes the first trial step that lowers F by a share of the
    predicted decrease F - t.  The program solved at the final point names
    the support.  Returns (x, y, F, support, multipliers).
    """
    x, y = pieces.lowest(starts)
    weights, settle = {}, math.inf
    for _ in range(_NEWTON_STEPS):
        vals, grads, hessians = zip(*pieces.derivatives(x, y))
        f = max(vals)
        # Rounding of F, from that of the point's coordinates.
        noise = pieces.lipschitz * pieces.tolerance(0.0)
        # The first step weights the top piece alone.
        weights = weights or {vals.index(f): 1.0}
        hxx = hxy = hyy = 0.0  # added left to right, not by the compensated ``sum``
        for m, l in weights.items():
            mxx, mxy, myy = hessians[m]
            hxx, hxy, hyy = hxx + l * mxx, hxy + l * mxy, hyy + l * myy
        reg = _HESSIAN_RTOL * (hxx + hyy + pieces.lipschitz / pieces.length)
        h = (hxx + reg, hxy, hyy + reg)
        dx, dy, support, lam = _qp_step(vals, grads, h, tuple(weights), noise)
        weights = dict(zip(support, lam))
        norm = math.hypot(dx, dy)
        if norm > pieces.length:
            dx, dy = dx * pieces.length / norm, dy * pieces.length / norm
        t = max(v + gx * dx + gy * dy for v, (gx, gy) in zip(vals, grads))
        # F cannot confirm a decrease below its rounding: such steps need
        # only keep F within it, and each must at least halve.
        quiet = f - t <= noise
        if t >= f or (quiet and norm > settle / 2.0):
            return x, y, f, support, lam
        for share, sx, sy, ahead in _trial_steps(pieces, x, y, dx, dy, grads, h, (support, noise)):
            fn = max(ahead)
            if (fn <= f + noise) if quiet else (fn < f and fn <= f - _ARMIJO * share * (f - t)):
                x, y = x + sx, y + sy
                break
        else:
            return x, y, f, support, lam
        if quiet:
            settle = norm
    raise WitnessError(f"no Newton step within {_NEWTON_STEPS} settles {len(vals)} pieces")


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def diametral_family(m: Matching, ps: PointSet, scale: float = 1.0) -> DiskFamily:
    """Diametral disk of every matching edge, radii scaled by `scale`."""
    if scale < 1.0:
        raise ValueError(f"scale must be at least 1, got {scale}")
    disks = []
    for i, j in m.pairs:
        disks.append(diametral_disk(ps[i], ps[j]))
    return DiskFamily(tuple(disks), scale)


def common_point(df: DiskFamily) -> CenterWitness:
    """Point minimizing the maximum scaled-disk slack max_i(|xc_i| - r_i).

    The minimizer comes from violator pivoting over the disks' closed-form
    optima, exact up to rounding, and the witness names its support and
    multipliers; it is re-verified by `check_witness` before it is
    returned.  The scaled family has a common point when `witness.holds()`,
    i.e. slack is at most eps_opt in the family's length unit; positive slack
    beyond that means the intersection is empty.
    """
    if len(df) == 0:
        raise ValueError("common_point requires a nonempty disk family")
    cx, cy, r = _disk_coordinates(df)
    pieces = _disk_pieces(cx, cy, r)

    def levels(x, y, disks):
        return [math.hypot(x - cx[i], y - cy[i]) - r[i] for i in disks]

    # The basis starts at the largest disk, lowest index first.
    first = min(range(len(r)), key=lambda i: (-r[i], i))
    solve, delta = partial(_support_optimum, cx, cy, r), pieces.tolerance(_PIVOT_RTOL)
    x, y, slack, support, multipliers = _pivot(len(r), solve, levels, [(first,)], delta)
    witness = CenterWitness(
        point=Point(x, y),
        slack=slack,
        kind="diametral" if df.scale == 1.0 else "enlarged",
        support=support,
        multipliers=multipliers,
        scale=pieces.length,
    )
    _check_pieces(pieces, witness)
    return witness


def fingerhut_center(m: Matching, ps: PointSet) -> CenterWitness:
    """Point minimizing max_i (|xa_i| + |xb_i|) / |a_i b_i| over the edges.

    Slack is the achieved maximum minus 2/sqrt(3); a 3-local maximum
    matching always admits a point with nonpositive slack.  The minimizer
    comes from the active-set Newton method, and the witness names its
    support (indices into m.pairs) and multipliers; it is re-verified by
    `check_fingerhut_witness` before it is returned.
    """
    if len(m) == 0:
        raise ValueError("fingerhut_center requires a nonempty matching")
    pieces = _ellipse_pieces(m, ps)
    x, y, slack, support, multipliers = _newton_pieces(pieces, _ellipse_starts(pieces))
    # Each piece is least at its endpoints, kinks the program cannot see, so
    # an endpoint where its own edge is active within v = atol * lipschitz is
    # optimal within v with that edge as support.  The point found takes
    # that support within atol of such an endpoint; the lowest one replaces
    # the point unless worse by v.  Both happen only for optima within v of 1.
    atol = pieces.tolerance(DEFAULT_TOL.eps_geom)
    v = atol * pieces.lipschitz
    limit = slack + v
    for e, ends in enumerate(pieces.foci):
        for p in ends:
            q = (x, y) if math.dist((x, y), p) <= atol else p
            vals = pieces.near_top(*q, e, v)
            if vals is not None and (q == (x, y) or max(vals) < limit):
                (x, y), slack, support, multipliers = q, max(vals), (e,), (1.0,)
                limit = min(limit, slack)
    witness = CenterWitness(Point(float(x), float(y)), slack, "fingerhut", support, multipliers)
    _check_pieces(pieces, witness)
    return witness


def star_weight(c: Point, ps: PointSet) -> float:
    """Total length of the star connecting c to every point, added left to
    right as ``weight`` adds (``sum`` compensates float sums from Python
    3.12 and would change bits)."""
    total = 0.0
    for p in ps.points:
        total += distance(c, p)
    return total


_KIND_SETTINGS = {
    "local2": dict(k=2, beta=math.sqrt(7.0 / 3.0)),
    "local3_sqrt2": dict(k=3, beta=math.sqrt(2.0)),
    "local3_fingerhut": dict(k=3, beta=ENLARGEMENT_FACTOR),
}


def certify(
    ps: PointSet,
    m: Matching,
    kind: CertificateKind,
    cap: int = DEFAULT_ORACLE_CAP,
) -> Certificate:
    """Build and validate the full inequality chain for a k-local maximum
    matching: w(M*) <= w(S) <= beta * w(M).

    The locality precondition is checked here (LocalityError reports the
    violating subset).  Every step is checked relative to the instance's
    scale: witness slack and the per-edge bounds within eps_opt in its
    length unit (the point set's diameter for the edges, the disk family's
    for disk slack; Fingerhut slack is a ratio), and the star bound within
    eps_opt * beta * w(M); a failed step raises WitnessError.  When the
    instance fits the oracle cap the left side of the chain is verified
    against the exact maximum matching, within eps_geom * w(M*).
    """
    if kind not in _KIND_SETTINGS:
        raise ValueError(f"unknown certificate kind {kind!r}")
    settings = _KIND_SETTINGS[kind]
    k = min(settings["k"], len(m))
    beta = settings["beta"]
    locality = is_k_local_max(ps, m, k)
    if not locality.is_local_max:
        raise LocalityError(k, locality.violating_subset)
    if kind == "local2":
        witness = common_point(diametral_family(m, ps, ENLARGEMENT_FACTOR))
    elif kind == "local3_sqrt2":
        witness = common_point(diametral_family(m, ps, 1.0))
    else:
        witness = fingerhut_center(m, ps)
    if not witness.holds():
        raise WitnessError(
            f"witness slack {witness.slack:.3e} exceeds eps_opt {DEFAULT_TOL.eps_opt:.1e} "
            f"times length scale {witness.scale:.3e} for kind {kind}"
        )
    c = witness.point
    edge_tol = DEFAULT_TOL.eps_opt * ps.diameter
    checks = []
    for i, j in m.pairs:
        lhs = distance(c, ps[i]) + distance(c, ps[j])
        rhs = beta * ps.dist[i][j]
        if lhs > rhs + edge_tol:
            raise WitnessError(
                f"per-edge bound violated on ({i}, {j}): {lhs:.12e} > {rhs:.12e} + {edge_tol:.1e}"
            )
        checks.append(((i, j), lhs, rhs))
    w_star = star_weight(c, ps)
    w_m = weight(m, ps)
    if w_star > beta * w_m * (1.0 + DEFAULT_TOL.eps_opt):
        raise WitnessError(f"star weight {w_star:.12e} exceeds beta * w(M) = {beta * w_m:.12e}")
    oracle_weight: Optional[float] = None
    if len(ps) <= 2 * cap:
        opt = optimal_matching(ps, "maximize", cap)
        oracle_weight = weight(opt, ps)
        if oracle_weight > w_star + DEFAULT_TOL.eps_geom * oracle_weight:
            raise WitnessError(
                f"triangle-inequality step failed: w(M*) = {oracle_weight:.12e} "
                f"> w(S) = {w_star:.12e}"
            )
    return Certificate(
        kind=kind,
        witness=witness,
        star_weight=w_star,
        matching_weight=w_m,
        beta=beta,
        per_edge_checks=tuple(checks),
        oracle_weight=oracle_weight,
    )
