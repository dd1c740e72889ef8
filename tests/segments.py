"""The segment-crossing predicate the tests use as an independent
reference for the crossing search (which reads a bitmask table instead)."""

from localmatch.geometry import Point, orientation


def segments_cross(a: Point, b: Point, c: Point, d: Point) -> bool:
    """True iff the open segments ab and cd properly cross (share one
    interior point).

    Shared endpoints, endpoint-on-interior contact, and collinear overlap
    all count as non-crossing.
    """
    d1 = orientation(c, d, a)
    d2 = orientation(c, d, b)
    if d1 * d2 >= 0:
        return False
    d3 = orientation(a, b, c)
    d4 = orientation(a, b, d)
    return d3 * d4 < 0
