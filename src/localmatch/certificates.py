"""Geometric witnesses behind the locality ratio bounds.

A certificate is a point c together with the per-edge inequality chain
|ca| + |cb| <= beta * |ab|, which sandwiches any rival matching between the
star around c and beta times the certified matching.  Witness points
minimize a convex pointwise-maximum objective in the plane.  For disk slack
max_i(|x - c_i| - r_i), an LP-type problem of combinatorial dimension 3,
an exact solver pivots on violated disks over bases of at most three disks
with closed-form optima; the witness carries its support and convex
multipliers, so `check_witness` re-verifies optimality without the solver.
For the normalized ellipse radius, whose 2- and 3-supports have no closed
form, multi-start Polyak subgradient descent is polished and certified
optimal through the active-set KKT conditions.  Slack verdicts are relative
to the instance's length scale.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Literal, Optional, Sequence

from .geometry import DEFAULT_TOL, Disk, Point, Segment, Tolerance, diametral_disk, distance
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
    "CERTIFICATE_KINDS",
    "diametral_family",
    "common_point",
    "check_witness",
    "fingerhut_center",
    "star_weight",
    "certify",
]

ENLARGEMENT_FACTOR = 2.0 / math.sqrt(3.0)

CertificateKind = Literal["local2", "local3_sqrt2", "local3_fingerhut"]
CERTIFICATE_KINDS: tuple[str, ...] = ("local2", "local3_sqrt2", "local3_fingerhut")

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

    A disk witness measures slack in its family's length unit `scale` and
    names its optimal basis: `support` lists disks active at the point, and
    `multipliers` the convex weights under which their outward unit vectors
    sum to zero.  Fingerhut slack is a ratio, so its scale is 1 and its
    support and multipliers are empty.
    """

    point: Point
    slack: float
    kind: WitnessKind
    support: tuple[int, ...] = ()
    multipliers: tuple[float, ...] = ()
    scale: float = 1.0

    def holds(self, tol: Tolerance = DEFAULT_TOL) -> bool:
        """Slack is nonpositive up to eps_opt in the instance's length unit."""
        return self.slack <= tol.eps_opt * self.scale


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
# Disk witness: exact violator pivoting
# ---------------------------------------------------------------------------

# Violation threshold of the pivot loop, relative to the family's length scale.
_PIVOT_RTOL = 1e-12


def _disk_coordinates(df: DiskFamily) -> tuple[list[float], list[float], list[float]]:
    disks = df.scaled_disks()
    return [d.center.x for d in disks], [d.center.y for d in disks], [d.radius for d in disks]


def _length_scale(xs: Sequence[float], ys: Sequence[float], radii: Sequence[float]) -> float:
    """Largest distance between two centres, or largest radius: the unit in
    which slack is judged, unchanged by rigid motions and relabelling."""
    n = len(xs)
    return max(
        max(radii),
        max(
            (math.hypot(xs[i] - xs[j], ys[i] - ys[j]) for i in range(n) for j in range(i + 1, n)),
            default=0.0,
        ),
    )


def _slack_tolerance(rel: float, scale: float, cx, cy, r) -> float:
    """rel in the family's length unit, floored by the rounding of
    coordinates that lie far from the origin relative to that unit."""
    magnitude = max(max(map(abs, cx)), max(map(abs, cy)), max(r))
    return rel * scale + 16.0 * math.ulp(magnitude)


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


def _pivot_disks(cx, cy, r, delta: float):
    """Exact minimizer of max_i (|x - c_i| - r_i) by violator pivoting.

    The basis (at most three disks) starts at the largest disk, lowest index
    first.  While the most violated disk h exceeds the basis value t, the
    new basis is the subset of basis + h containing h whose closed-form
    optimum satisfies every disk of basis + h; among those, a larger one
    replaces a smaller only when its value is higher beyond tolerance.  The
    value strictly increases, so no basis repeats and the number of bases
    bounds the pivots.  Disks count as violated beyond `delta`.  Returns
    (x, y, slack, support, multipliers).
    """
    n = len(r)
    first = min(range(n), key=lambda i: (-r[i], i))
    basis: tuple[int, ...] = (first,)
    x, y, t, lam = cx[first], cy[first], -r[first], (1.0,)
    for _ in range(n + math.comb(n, 2) + math.comb(n, 3)):
        vals = [math.hypot(x - cx[i], y - cy[i]) - r[i] for i in range(n)]
        h = max(range(n), key=vals.__getitem__)
        if vals[h] <= t + delta:
            return x, y, vals[h], basis, lam
        pool = basis + (h,)
        best = None
        for size in range(min(len(basis), 2) + 1):
            for rest in itertools.combinations(basis, size):
                support = tuple(sorted(rest + (h,)))
                got = _support_optimum(cx, cy, r, support)
                if got is None:
                    continue
                sx, sy, st, sl = got
                at = {m: math.hypot(sx - cx[m], sy - cy[m]) - r[m] for m in pool}
                feasible = all(v <= st + delta for v in at.values())
                active = all(at[m] >= st - delta for m in support)
                if feasible and active and (best is None or st > best[2] + delta):
                    best = (sx, sy, st, support, sl)
        if best is None:
            raise WitnessError(f"no basis within disks {sorted(pool)} improves on slack {t:.3e}")
        x, y, t, basis, lam = best
    raise WitnessError(f"pivot bound exceeded on {n} disks")


def check_witness(df: DiskFamily, witness: CenterWitness, tol: Tolerance = DEFAULT_TOL) -> None:
    """Re-verify, without the solver, that a disk witness minimizes
    max_i (|x - c_i| - r_i) over the scaled family.

    It does when every support disk is active at the point, the multipliers
    are nonnegative and sum to 1, the multiplier-weighted outward unit
    vectors of the support sum to zero, so 0 is a subgradient, and no disk
    exceeds the slack.  Lengths are compared within atol, eps_geom in the
    family's length unit, and unit vectors at that resolution: moving the
    point by atol turns the unit vector of a centre at distance d by up to
    atol / d, and a centre within atol is an apex, where every vector of
    norm at most 1 is a subgradient.  Raises WitnessError naming the first
    condition that fails.
    """
    cx, cy, r = _disk_coordinates(df)
    atol = _slack_tolerance(tol.eps_geom, _length_scale(cx, cy, r), cx, cy, r)
    support, lam = witness.support, witness.multipliers
    if (
        not support
        or len(lam) != len(support)
        or len(set(support)) != len(support)
        or not all(0 <= i < len(r) for i in support)
    ):
        raise WitnessError(f"malformed support {support} with multipliers {lam}")
    x, y = witness.point.x, witness.point.y
    vals = [math.hypot(x - cx[i], y - cy[i]) - r[i] for i in range(len(r))]
    top = max(range(len(vals)), key=vals.__getitem__)
    if abs(vals[top] - witness.slack) > atol:
        raise WitnessError(
            f"disk {top} has slack {vals[top]:.6e}, witness reports {witness.slack:.6e}"
        )
    for i in support:
        if vals[i] < witness.slack - atol:
            raise WitnessError(f"support disk {i} is not active: slack {vals[i]:.6e}")
    if min(lam) < -tol.eps_geom or abs(sum(lam) - 1.0) > tol.eps_geom:
        raise WitnessError(f"multipliers {lam} are not convex weights")
    gx = gy = room = 0.0
    for i, l in zip(support, lam):
        dx, dy = x - cx[i], y - cy[i]
        d = math.hypot(dx, dy)
        if d <= atol:
            room += l
            continue
        room += l * atol / d
        gx += l * dx / d
        gy += l * dy / d
    if math.hypot(gx, gy) > room + tol.eps_geom:
        raise WitnessError(f"weighted unit vectors leave residual {math.hypot(gx, gy):.3e}")


# ---------------------------------------------------------------------------
# Ellipse witness: convex pointwise-max solver
# ---------------------------------------------------------------------------


class _EllipseRatioObjective:
    """max_i (|x - a_i| + |x - b_i|) / |a_i b_i| over the matching's edges."""

    def __init__(self, edges: Sequence[tuple[Point, Point]]):
        self.ax = [a.x for a, _ in edges]
        self.ay = [a.y for a, _ in edges]
        self.bx = [b.x for _, b in edges]
        self.by = [b.y for _, b in edges]
        self.len = [
            math.hypot(self.ax[i] - self.bx[i], self.ay[i] - self.by[i])
            for i in range(len(edges))
        ]
        self.n = len(edges)

    def scale_hint(self) -> float:
        xs = self.ax + self.bx
        ys = self.ay + self.by
        return max(max(xs) - min(xs) + max(ys) - min(ys), 1e-9)

    def values(self, x: float, y: float) -> list[float]:
        return [
            (
                math.hypot(x - self.ax[i], y - self.ay[i])
                + math.hypot(x - self.bx[i], y - self.by[i])
            )
            / self.len[i]
            for i in range(self.n)
        ]

    def _unit(self, x: float, y: float, px: float, py: float) -> tuple[float, float]:
        dx = x - px
        dy = y - py
        d = math.hypot(dx, dy)
        if d <= 1e-300:
            return 0.0, 0.0
        return dx / d, dy / d

    def gradient(self, i: int, x: float, y: float) -> tuple[float, float]:
        uax, uay = self._unit(x, y, self.ax[i], self.ay[i])
        ubx, uby = self._unit(x, y, self.bx[i], self.by[i])
        return (uax + ubx) / self.len[i], (uay + uby) / self.len[i]

    def hessian(self, i: int, x: float, y: float) -> tuple[float, float, float]:
        hxx = hxy = hyy = 0.0
        for px, py in ((self.ax[i], self.ay[i]), (self.bx[i], self.by[i])):
            dx = x - px
            dy = y - py
            d = math.hypot(dx, dy)
            if d <= 1e-300:
                continue
            ux, uy = dx / d, dy / d
            hxx += (1.0 - ux * ux) / d
            hxy += -ux * uy / d
            hyy += (1.0 - uy * uy) / d
        L = self.len[i]
        return hxx / L, hxy / L, hyy / L

    def piece_argmin(self, i: int, x: float, y: float) -> tuple[float, float]:
        # Any point of segment a_i b_i minimizes the piece; take the clamped
        # projection of (x, y) to stay close to the current iterate.
        axi, ayi, bxi, byi = self.ax[i], self.ay[i], self.bx[i], self.by[i]
        vx, vy = bxi - axi, byi - ayi
        denom = vx * vx + vy * vy
        t = ((x - axi) * vx + (y - ayi) * vy) / denom if denom > 0 else 0.0
        t = min(1.0, max(0.0, t))
        return axi + t * vx, ayi + t * vy

    def starts(self) -> list[tuple[float, float]]:
        pts = [
            ((self.ax[i] + self.bx[i]) / 2.0, (self.ay[i] + self.by[i]) / 2.0)
            for i in range(self.n)
        ]
        xs = self.ax + self.bx
        ys = self.ay + self.by
        pts.append((sum(xs) / len(xs), sum(ys) / len(ys)))
        return pts


def _solve2(a11, a12, a21, a22, b1, b2):
    det = a11 * a22 - a12 * a21
    if abs(det) <= 1e-300:
        return None
    return (b1 * a22 - b2 * a12) / det, (a11 * b2 - a21 * b1) / det


def _solve3(m, b):
    det = (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )
    if abs(det) <= 1e-300:
        return None
    out = []
    for col in range(3):
        mc = [list(row) for row in m]
        for r in range(3):
            mc[r][col] = b[r]
        d = (
            mc[0][0] * (mc[1][1] * mc[2][2] - mc[1][2] * mc[2][1])
            - mc[0][1] * (mc[1][0] * mc[2][2] - mc[1][2] * mc[2][0])
            + mc[0][2] * (mc[1][0] * mc[2][1] - mc[1][1] * mc[2][0])
        )
        out.append(d / det)
    return out


def _polyak_descent(obj, x0, y0, eps_opt, max_iter, patience):
    """Polyak-target subgradient descent with a geometric target schedule."""
    x, y = x0, y0
    vals = obj.values(x, y)
    fbest = max(vals)
    xb, yb = x, y
    scale = obj.scale_hint()
    delta = max(10.0 * eps_opt, 0.25 * (fbest - min(vals)), 1e-3 * scale)
    fref = fbest
    stall = 0
    it = 0
    while it < max_iter:
        it += 1
        vals = obj.values(x, y)
        i = max(range(len(vals)), key=vals.__getitem__)
        f = vals[i]
        if f < fbest:
            fbest = f
            xb, yb = x, y
        if fref - fbest > 0.1 * eps_opt:
            fref = fbest
            stall = 0
        else:
            stall += 1
        if stall >= patience:
            stall = 0
            delta *= 0.25
            x, y = xb, yb
            if delta < 0.05 * eps_opt:
                break
            continue
        gx, gy = obj.gradient(i, x, y)
        gn2 = gx * gx + gy * gy
        if gn2 <= 1e-30:
            break
        step = (f - (fbest - delta)) / gn2
        x -= step * gx
        y -= step * gy
    return xb, yb, fbest, it


def _newton_equalize3(obj, idx, x, y, scale):
    """Newton iteration for f_i = f_j = f_k on three pieces."""
    i, j, k = idx
    for _ in range(50):
        vals = obj.values(x, y)
        g1 = vals[i] - vals[k]
        g2 = vals[j] - vals[k]
        gi = obj.gradient(i, x, y)
        gj = obj.gradient(j, x, y)
        gk = obj.gradient(k, x, y)
        sol = _solve2(
            gi[0] - gk[0], gi[1] - gk[1], gj[0] - gk[0], gj[1] - gk[1], -g1, -g2
        )
        if sol is None:
            return None
        dx, dy = sol
        x += dx
        y += dy
        if math.hypot(dx, dy) <= 1e-15 * scale:
            break
    return x, y


def _newton_kkt2(obj, idx, x, y, scale):
    """Newton on the two-piece KKT system: lam*grad_i + (1-lam)*grad_j = 0,
    f_i = f_j."""
    i, j = idx
    lam = 0.5
    for _ in range(50):
        vals = obj.values(x, y)
        gi = obj.gradient(i, x, y)
        gj = obj.gradient(j, x, y)
        hi = obj.hessian(i, x, y)
        hj = obj.hessian(j, x, y)
        r1 = lam * gi[0] + (1.0 - lam) * gj[0]
        r2 = lam * gi[1] + (1.0 - lam) * gj[1]
        r3 = vals[i] - vals[j]
        hxx = lam * hi[0] + (1.0 - lam) * hj[0]
        hxy = lam * hi[1] + (1.0 - lam) * hj[1]
        hyy = lam * hi[2] + (1.0 - lam) * hj[2]
        m = [
            [hxx, hxy, gi[0] - gj[0]],
            [hxy, hyy, gi[1] - gj[1]],
            [gi[0] - gj[0], gi[1] - gj[1], 0.0],
        ]
        sol = _solve3(m, [-r1, -r2, -r3])
        if sol is None:
            return None
        dx, dy, dlam = sol
        x += dx
        y += dy
        lam = min(1.5, max(-0.5, lam + dlam))
        if math.hypot(dx, dy) <= 1e-15 * scale and abs(dlam) <= 1e-12:
            break
    if not (-1e-9 <= lam <= 1.0 + 1e-9):
        return None
    return x, y


def _active_set(vals, f, scale):
    tol = max(1e-7 * scale, 1e-12)
    order = sorted(range(len(vals)), key=lambda i: -vals[i])
    return [i for i in order if f - vals[i] <= tol]


def _is_kkt_point(obj, x, y, scale) -> bool:
    """Sufficient optimality check: 0 in the convex hull of active gradients."""
    vals = obj.values(x, y)
    f = max(vals)
    active = _active_set(vals, f, scale)
    grads = [obj.gradient(i, x, y) for i in active]
    gtol = 1e-8
    for g in grads:
        if math.hypot(*g) <= gtol:
            return True
    for a in range(len(grads)):
        for b in range(a + 1, len(grads)):
            g1, g2 = grads[a], grads[b]
            d1, d2 = g1[0] - g2[0], g1[1] - g2[1]
            denom = d1 * d1 + d2 * d2
            if denom <= 1e-300:
                continue
            lam = -(g2[0] * d1 + g2[1] * d2) / denom
            if -1e-9 <= lam <= 1.0 + 1e-9:
                rx = lam * g1[0] + (1.0 - lam) * g2[0]
                ry = lam * g1[1] + (1.0 - lam) * g2[1]
                if math.hypot(rx, ry) <= gtol:
                    return True
    for a in range(len(grads)):
        for b in range(a + 1, len(grads)):
            for c in range(b + 1, len(grads)):
                g1, g2, g3 = grads[a], grads[b], grads[c]
                m = [[g1[0], g2[0], g3[0]], [g1[1], g2[1], g3[1]], [1.0, 1.0, 1.0]]
                sol = _solve3(m, [0.0, 0.0, 1.0])
                if sol is None:
                    continue
                if all(l >= -1e-9 for l in sol):
                    return True
    return False


def _polish(obj, x, y, scale):
    """Active-set candidates refined by Newton; returns (x, y, f) best among
    the current point and all successfully polished candidates."""
    vals = obj.values(x, y)
    f = max(vals)
    order = sorted(range(len(vals)), key=lambda i: -vals[i])
    candidates: list[tuple[float, float]] = []
    if len(order) >= 3:
        got = _newton_equalize3(obj, order[:3], x, y, scale)
        if got is not None:
            candidates.append(got)
    if len(order) >= 2:
        got = _newton_kkt2(obj, order[:2], x, y, scale)
        if got is not None:
            candidates.append(got)
    candidates.append(obj.piece_argmin(order[0], x, y))
    best = (x, y, f)
    for cx, cy in candidates:
        if not (math.isfinite(cx) and math.isfinite(cy)):
            continue
        cf = max(obj.values(cx, cy))
        if cf < best[2]:
            best = (cx, cy, cf)
    return best


def _minimize_max(obj, eps_opt, max_iter=100_000, patience=100):
    """Multi-start minimization of a convex pointwise-max objective.

    Each start runs Polyak subgradient descent followed by an active-set
    Newton polish; a start whose result passes the KKT optimality check
    settles the (convex) problem and the remaining starts are skipped.
    Otherwise the best point over all starts is returned, with ties broken
    lexicographically on the point.
    """
    scale = obj.scale_hint()
    best: Optional[tuple[float, float, float]] = None
    for sx, sy in obj.starts():
        x, y, _, _ = _polyak_descent(obj, sx, sy, eps_opt, max_iter, patience)
        x, y, f = _polish(obj, x, y, scale)
        if (
            best is None
            or f < best[2]
            or (f == best[2] and (x, y) < (best[0], best[1]))
        ):
            best = (x, y, f)
        if _is_kkt_point(obj, x, y, scale):
            break
    assert best is not None
    return Point(best[0], best[1]), best[2]


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def diametral_family(m: Matching, ps: PointSet, scale: float = 1.0) -> DiskFamily:
    """Diametral disk of every matching edge, radii scaled by `scale`."""
    if scale < 1.0:
        raise ValueError(f"scale must be at least 1, got {scale}")
    disks = []
    for i, j in m.pairs:
        disks.append(diametral_disk(Segment(ps[i], ps[j])))
    return DiskFamily(tuple(disks), scale)


def common_point(df: DiskFamily, tol: Tolerance = DEFAULT_TOL) -> CenterWitness:
    """Point minimizing the maximum scaled-disk slack max_i(|xc_i| - r_i).

    The minimizer is exact up to rounding, and the witness names its support
    and multipliers; it is re-verified by `check_witness` before it is
    returned.  The scaled family has a common point when `witness.holds(tol)`,
    i.e. slack is at most eps_opt in the family's length unit; positive slack
    beyond that means the intersection is empty.
    """
    if len(df) == 0:
        raise ValueError("common_point requires a nonempty disk family")
    cx, cy, r = _disk_coordinates(df)
    scale = _length_scale(cx, cy, r)
    x, y, slack, support, multipliers = _pivot_disks(
        cx, cy, r, _slack_tolerance(_PIVOT_RTOL, scale, cx, cy, r)
    )
    witness = CenterWitness(
        point=Point(x, y),
        slack=slack,
        kind="diametral" if df.scale == 1.0 else "enlarged",
        support=support,
        multipliers=multipliers,
        scale=scale,
    )
    check_witness(df, witness, tol)
    return witness


def fingerhut_center(m: Matching, ps: PointSet, tol: Tolerance = DEFAULT_TOL) -> CenterWitness:
    """Point minimizing max_i (|xa_i| + |xb_i|) / |a_i b_i| over the edges.

    Slack is the achieved maximum minus 2/sqrt(3); a 3-local maximum
    matching always admits a point with nonpositive slack.
    """
    if len(m) == 0:
        raise ValueError("fingerhut_center requires a nonempty matching")
    edges = [(ps[i], ps[j]) for i, j in m.pairs]
    obj = _EllipseRatioObjective(edges)
    point, value = _minimize_max(obj, tol.eps_opt)
    return CenterWitness(point=point, slack=value - ENLARGEMENT_FACTOR, kind="fingerhut")


def star_weight(c: Point, ps: PointSet) -> float:
    """Total length of the star connecting c to every point."""
    return sum(distance(c, p) for p in ps.points)


_KIND_SETTINGS = {
    "local2": dict(k=2, beta=math.sqrt(7.0 / 3.0)),
    "local3_sqrt2": dict(k=3, beta=math.sqrt(2.0)),
    "local3_fingerhut": dict(k=3, beta=ENLARGEMENT_FACTOR),
}


def certify(
    ps: PointSet,
    m: Matching,
    kind: CertificateKind,
    tol: Tolerance = DEFAULT_TOL,
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
    locality = is_k_local_max(ps, m, k, tol)
    if not locality.is_local_max:
        raise LocalityError(k, locality.violating_subset)
    if kind == "local2":
        witness = common_point(diametral_family(m, ps, ENLARGEMENT_FACTOR), tol)
    elif kind == "local3_sqrt2":
        witness = common_point(diametral_family(m, ps, 1.0), tol)
    else:
        witness = fingerhut_center(m, ps, tol)
    if not witness.holds(tol):
        raise WitnessError(
            f"witness slack {witness.slack:.3e} exceeds eps_opt {tol.eps_opt:.1e} "
            f"times length scale {witness.scale:.3e} for kind {kind}"
        )
    c = witness.point
    edge_tol = tol.eps_opt * max(map(max, ps.dist))
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
    if w_star > beta * w_m * (1.0 + tol.eps_opt):
        raise WitnessError(f"star weight {w_star:.12e} exceeds beta * w(M) = {beta * w_m:.12e}")
    oracle_weight: Optional[float] = None
    if len(ps) <= 2 * cap:
        opt = optimal_matching(ps, "maximize", cap)
        oracle_weight = weight(opt, ps)
        if oracle_weight > w_star + tol.eps_geom * oracle_weight:
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
