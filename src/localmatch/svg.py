"""SVG rendering of instances and certificates: points, matching edges,
diametral/enlarged disks, witness point, and the star around it.

Color map: certified matching red, star edges black, rival matching blue.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .geometry import Disk, Point
from .matching import Matching, PointSet

__all__ = ["render_figure"]

_MATCHING_COLOR = "#d62728"  # red
_ALT_COLOR = "#1f77b4"  # blue
_STAR_COLOR = "#000000"  # black
_DISK_FILL = "#9ecae1"
_DISK_STROKE = "#6baed6"
_ENLARGED_FILL = "#c7e9c0"
_ENLARGED_STROKE = "#74c476"
_SIZE = 640  # width and height in pixels


class _Canvas:
    def __init__(self, xs: Sequence[float], ys: Sequence[float]):
        pad = 0.08
        xmin, xmax = min(xs), max(xs)
        ymin, ymax = min(ys), max(ys)
        span = max(xmax - xmin, ymax - ymin, 1e-9)
        margin = pad * span
        self.xmin = xmin - margin
        self.ymax = ymax + margin
        self.scale = _SIZE / (span + 2.0 * margin)

    def x(self, x: float) -> float:
        return (x - self.xmin) * self.scale

    def y(self, y: float) -> float:
        return (self.ymax - y) * self.scale

    def r(self, r: float) -> float:
        return r * self.scale


def _fmt(v: float) -> str:
    return f"{v:.3f}"


def render_figure(
    ps: PointSet,
    matching: Optional[Matching] = None,
    alt_matching: Optional[Matching] = None,
    disks: Sequence[Disk] = (),
    enlarged_disks: Sequence[Disk] = (),
    witness: Optional[Point] = None,
) -> str:
    """Compose an SVG 1.1 document for the given instance; with a witness,
    dashed star edges join it to every point."""
    xs = [p.x for p in ps.points]
    ys = [p.y for p in ps.points]
    for d in list(disks) + list(enlarged_disks):
        xs.extend([d.center.x - d.radius, d.center.x + d.radius])
        ys.extend([d.center.y - d.radius, d.center.y + d.radius])
    if witness is not None:
        xs.append(witness.x)
        ys.append(witness.y)
    if not xs:
        xs = ys = [0.0, 1.0]
    canvas = _Canvas(xs, ys)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_SIZE}" height="{_SIZE}" viewBox="0 0 {_SIZE} {_SIZE}">',
        f'<rect width="{_SIZE}" height="{_SIZE}" fill="white"/>',
    ]
    for d, fill, stroke in [(d, _ENLARGED_FILL, _ENLARGED_STROKE) for d in enlarged_disks] + [
        (d, _DISK_FILL, _DISK_STROKE) for d in disks
    ]:
        parts.append(
            f'<circle cx="{_fmt(canvas.x(d.center.x))}" cy="{_fmt(canvas.y(d.center.y))}" '
            f'r="{_fmt(canvas.r(d.radius))}" fill="{fill}" fill-opacity="0.25" '
            f'stroke="{stroke}" stroke-width="1"/>'
        )
    if witness is not None:
        for p in ps.points:
            parts.append(_line(canvas, witness, p, _STAR_COLOR, 1.0, dash=True))
    if alt_matching is not None:
        for i, j in alt_matching.pairs:
            parts.append(_line(canvas, ps[i], ps[j], _ALT_COLOR, 1.6))
    if matching is not None:
        for i, j in matching.pairs:
            parts.append(_line(canvas, ps[i], ps[j], _MATCHING_COLOR, 2.2))
    for idx, p in enumerate(ps.points):
        parts.append(
            f'<circle cx="{_fmt(canvas.x(p.x))}" cy="{_fmt(canvas.y(p.y))}" r="3.5" '
            f'fill="black"/>'
        )
        parts.append(
            f'<text x="{_fmt(canvas.x(p.x) + 6)}" y="{_fmt(canvas.y(p.y) - 6)}" '
            f'font-size="12" font-family="sans-serif">{idx}</text>'
        )
    if witness is not None:
        parts.append(
            f'<circle cx="{_fmt(canvas.x(witness.x))}" cy="{_fmt(canvas.y(witness.y))}" '
            f'r="4.5" fill="none" stroke="black" stroke-width="2"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def _line(canvas: _Canvas, a: Point, b: Point, color: str, width: float, dash: bool = False) -> str:
    dash_attr = ' stroke-dasharray="4 3"' if dash else ""
    return (
        f'<line x1="{_fmt(canvas.x(a.x))}" y1="{_fmt(canvas.y(a.y))}" '
        f'x2="{_fmt(canvas.x(b.x))}" y2="{_fmt(canvas.y(b.y))}" '
        f'stroke="{color}" stroke-width="{width}"{dash_attr}/>'
    )
