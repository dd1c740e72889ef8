"""Unit and property tests for the planar geometry kernel."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from localmatch.geometry import (
    DEFAULT_TOL,
    Disk,
    Point,
    diameter_bound,
    diametral_disk,
    disks_intersect,
    distance,
    endpoint_bound,
    orientation,
)
from segments import segments_cross

SQRT3 = math.sqrt(3.0)


def seg(ax, ay, bx, by):
    return Point(ax, ay), Point(bx, by)


class TestPointAndTolerance:
    def test_point_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Point(math.nan, 0.0)
        with pytest.raises(ValueError):
            Point(0.0, math.inf)

    def test_disk_rejects_negative_radius(self):
        with pytest.raises(ValueError):
            Disk(Point(0, 0), -0.1)


class TestDistance:
    def test_examples(self):
        assert distance(Point(0, 0), Point(0, 0)) == 0.0
        assert distance(Point(0, 0), Point(3, 4)) == 5.0
        assert distance(Point(-1, 0), Point(1, 0)) == 2.0

    @given(
        st.floats(-100, 100), st.floats(-100, 100), st.floats(-100, 100), st.floats(-100, 100)
    )
    def test_symmetric_and_nonnegative(self, ax, ay, bx, by):
        p, q = Point(ax, ay), Point(bx, by)
        assert distance(p, q) == distance(q, p) >= 0.0


class TestSegmentsCross:
    def test_x_shape(self):
        assert segments_cross(*seg(0, 0, 2, 2), *seg(0, 2, 2, 0))

    def test_disjoint_collinear(self):
        assert not segments_cross(*seg(0, 0, 1, 0), *seg(2, 0, 3, 0))

    def test_endpoint_touching_interior(self):
        # The touching endpoint lies on the other segment, not across it:
        # both orientation tests on that side agree, so no proper crossing.
        assert not segments_cross(*seg(0, 0, 2, 0), *seg(1, 0, 1, 5))

    def test_shared_endpoint(self):
        assert not segments_cross(*seg(0, 0, 1, 1), *seg(0, 0, 1, -1))

    def test_collinear_overlap(self):
        assert not segments_cross(*seg(0, 0, 2, 0), *seg(1, 0, 3, 0))

    def test_near_degenerate_orientation_is_exact(self):
        # Points off a line by one ulp still resolve to a nonzero sign.
        a = Point(0.0, 0.0)
        b = Point(1.0, 1.0)
        above = Point(0.5, math.nextafter(0.5, 1.0))
        below = Point(0.5, math.nextafter(0.5, 0.0))
        on = Point(0.5, 0.5)
        assert orientation(a, b, on) == 0
        assert orientation(a, b, above) == 1
        assert orientation(a, b, below) == -1

    @given(st.tuples(*[st.integers(-20, 20)] * 8))
    @settings(max_examples=300)
    def test_symmetry_and_rigid_invariance(self, coords):
        ax, ay, bx, by, cx, cy, dx, dy = coords
        a, b = seg(ax, ay, bx, by)
        c, d = seg(cx, cy, dx, dy)
        if a == b or c == d:
            return  # no segment
        crossed = segments_cross(a, b, c, d)
        assert crossed == segments_cross(c, d, a, b)
        assert crossed == segments_cross(b, a, d, c)
        orientations = [
            orientation(c, d, a),
            orientation(c, d, b),
            orientation(a, b, c),
            orientation(a, b, d),
        ]
        if 0 in orientations:
            return  # touching configurations are not rotation-stable
        theta, tx, ty = 0.7363, 13.25, -4.5

        def rigid(p):
            return Point(
                p.x * math.cos(theta) - p.y * math.sin(theta) + tx,
                p.x * math.sin(theta) + p.y * math.cos(theta) + ty,
            )

        assert segments_cross(rigid(a), rigid(b), rigid(c), rigid(d)) == crossed


class TestDiametralDisk:
    def test_examples(self):
        d = diametral_disk(*seg(-1, 0, 1, 0))
        assert d.center == Point(0, 0) and d.radius == 1.0
        d = diametral_disk(*seg(0, 0, 0, 4))
        assert d.center == Point(0, 2) and d.radius == 2.0
        d = diametral_disk(*seg(1, 1, 4, 5))
        assert d.center == Point(2.5, 3.0) and d.radius == 2.5


class TestDisksIntersect:
    def test_tangency_counts(self):
        assert disks_intersect(Disk(Point(0, 0), 1), Disk(Point(2, 0), 1))

    def test_disjoint(self):
        assert not disks_intersect(Disk(Point(0, 0), 1), Disk(Point(2.1, 0), 1))

    def test_containment(self):
        assert disks_intersect(Disk(Point(0, 0), 1), Disk(Point(1, 0), 3))

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_verdict_is_scale_invariant(self, scale):
        # Unit disks 2.0005 apart are disjoint at every scale; 2 + 5e-11
        # apart they are tangent within eps_geom at every scale.
        for gap, meet in ((2.0005, False), (2.0 + 5e-11, True), (2.0, True)):
            d1 = Disk(Point(0, 0), scale)
            d2 = Disk(Point(gap * scale, 0), scale)
            assert disks_intersect(d1, d2) is meet, gap


class TestEndpointBound:
    def test_examples(self):
        assert endpoint_bound(0.0, 1.0) == pytest.approx(2 * math.sqrt(2), abs=1e-12)
        assert endpoint_bound(0.0, 2 / SQRT3) == pytest.approx(
            2 * math.sqrt(7.0 / 3.0), abs=1e-12
        )
        assert endpoint_bound(1.0, 1.0) == pytest.approx(2.0, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            endpoint_bound(0.5, 0.0)
        with pytest.raises(ValueError):
            endpoint_bound(-0.1, 1.0)
        with pytest.raises(ValueError):
            endpoint_bound(1.1, 1.0)

    def test_arrays_match_scalars(self):
        xs = np.linspace(0.0, 1.5, 7)
        assert endpoint_bound(xs, 1.5).tolist() == [endpoint_bound(float(x), 1.5) for x in xs]
        rs = np.array([0.5, 1.0, 2.0])
        assert endpoint_bound(0.0, rs).tolist() == [endpoint_bound(0.0, float(r)) for r in rs]
        assert isinstance(endpoint_bound(0.5, 1.0), float)

    def test_array_domain_checks_every_element(self):
        with pytest.raises(ValueError):
            endpoint_bound(np.array([0.0, 0.5, 1.01]), 1.0)
        with pytest.raises(ValueError):
            endpoint_bound(np.array([0.0, -1e-12]), 1.0)
        with pytest.raises(ValueError):
            endpoint_bound(0.0, np.array([1.0, 0.0]))

    def test_maximum_at_zero(self):
        rng = np.random.default_rng(3)
        for r in rng.uniform(1e-6, 4.0, 12):
            peak = endpoint_bound(0.0, r)
            assert peak == pytest.approx(2 * math.sqrt(r * r + 1), abs=1e-12)
            for x in rng.uniform(0.0, r, 1000):
                assert endpoint_bound(x, r) <= peak

    def test_statement_on_random_segments(self):
        # |pa| + |pb| <= sqrt(r^2+1) * |ab| whenever p is within r*|ab|/2
        # of the midpoint.
        rng = np.random.default_rng(4)
        for _ in range(10_000):
            a = Point(*rng.uniform(-5, 5, 2))
            b = Point(*rng.uniform(-5, 5, 2))
            ab = distance(a, b)
            if ab < 1e-6:
                continue
            r = rng.uniform(0.01, 3.0)
            rho = rng.uniform(0.0, 1.0) * r * ab / 2.0
            ang = rng.uniform(0, 2 * math.pi)
            p = Point(
                (a.x + b.x) / 2 + rho * math.cos(ang),
                (a.y + b.y) / 2 + rho * math.sin(ang),
            )
            assert (
                distance(p, a) + distance(p, b)
                <= math.sqrt(r * r + 1.0) * ab + DEFAULT_TOL.eps_geom
            )


class TestDiameterBound:
    # Independent oracle: place p at the origin, a and b symmetric at
    # angle alpha with |pa| = |pb| = 1, and q on the axis with angle
    # aqb = 2*pi/3 on the far side; then |pq| = cos(a/2) + sin(a/2)/sqrt(3).
    @staticmethod
    def geometric_oracle(alpha):
        return math.cos(alpha / 2.0) + math.sin(alpha / 2.0) / SQRT3

    def test_peak_example(self):
        assert diameter_bound(math.pi / 3) == pytest.approx(2 / SQRT3, abs=1e-12)

    def test_derived_examples(self):
        assert diameter_bound(math.pi) == pytest.approx(
            self.geometric_oracle(math.pi), abs=1e-12
        )
        assert diameter_bound(math.pi) == pytest.approx(1 / SQRT3, abs=1e-12)
        assert diameter_bound(0.0) == pytest.approx(self.geometric_oracle(0.0), abs=1e-12)
        assert diameter_bound(0.0) == pytest.approx(1.0, abs=1e-12)

    def test_matches_geometric_oracle_everywhere(self):
        for alpha in np.linspace(0.0, math.pi, 500):
            assert diameter_bound(float(alpha)) == pytest.approx(
                self.geometric_oracle(float(alpha)), abs=1e-12
            )

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            diameter_bound(-0.01)
        with pytest.raises(ValueError):
            diameter_bound(math.pi + 0.01)

    def test_arrays_match_scalars_and_check_every_element(self):
        alphas = np.linspace(0.0, math.pi, 9)
        assert diameter_bound(alphas).tolist() == pytest.approx(
            [diameter_bound(float(a)) for a in alphas], abs=1e-15
        )
        assert isinstance(diameter_bound(1.0), float)
        with pytest.raises(ValueError):
            diameter_bound(np.array([0.0, 1.0, math.pi + 1e-9]))

    def test_maximum_at_pi_over_three(self):
        rng = np.random.default_rng(6)
        peak = 2 / SQRT3
        for alpha in rng.uniform(0.0, math.pi, 1000):
            assert diameter_bound(alpha) <= peak + 1e-12
