"""Tests for disk families, witness solvers, and ratio certificates."""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from localmatch import certificates
from localmatch.certificates import (
    ENLARGEMENT_FACTOR,
    CenterWitness,
    CertificateError,
    DiskFamily,
    LocalityError,
    WitnessError,
    certify,
    check_fingerhut_witness,
    check_witness,
    common_point,
    diametral_family,
    fingerhut_center,
    star_weight,
)
from localmatch.generators import gen_intersecting_disks, gen_random, gen_tangent_disks
from localmatch.geometry import Disk, Point, Tolerance, disks_intersect, distance
from localmatch.io import certificate_to_dict
from localmatch.matching import Matching, PointSet, k_local_search, optimal_matching

SQRT3 = math.sqrt(3.0)
TOL = Tolerance()


def crossing_x():
    ps = PointSet([Point(0, 0), Point(1, 1), Point(0, 1), Point(1, 0)])
    return ps, Matching([(0, 1), (2, 3)])


def family(*disks):
    return DiskFamily(tuple(Disk(Point(x, y), r) for x, y, r in disks))


def length_scale(disks):
    """Largest distance between two centres, or largest radius."""
    spans = [distance(a.center, b.center) for a, b in itertools.combinations(disks, 2)]
    return max([d.radius for d in disks] + spans)


def brute_force_slack(disks):
    """Optimal slack max_i(|x - c_i| - r_i) by trying every support of at
    most three disks: a support's closed-form optimum counts when its KKT
    multipliers are nonnegative and it satisfies the whole family.  Solved
    in global coordinates with numpy, independently of the solver's algebra."""
    c = np.array([[d.center.x, d.center.y] for d in disks])
    r = np.array([d.radius for d in disks])
    n = len(r)
    tol = 1e-9 * length_scale(disks)

    def value(x):
        return float(np.max(np.hypot(x[0] - c[:, 0], x[1] - c[:, 1]) - r))

    candidates = [(c[i], -r[i]) for i in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        d = float(np.hypot(*(c[j] - c[i])))
        a = (d + r[i] - r[j]) / 2.0
        if 0.0 < a < d:
            candidates.append((c[i] + (c[j] - c[i]) * a / d, (d - r[i] - r[j]) / 2.0))
    for triple in itertools.combinations(range(n), 3):
        i, j, k = triple
        rows = 2.0 * np.array([c[j] - c[i], c[k] - c[i]])
        if abs(np.linalg.det(rows)) < 1e-300:
            continue
        # 2(c_m - c_i).x + 2t(r_m - r_i) = |c_m|^2 - |c_i|^2 - r_m^2 + r_i^2, so x = p - t q.
        rhs = np.array([c[m] @ c[m] - c[i] @ c[i] - r[m] ** 2 + r[i] ** 2 for m in (j, k)])
        p = np.linalg.solve(rows, rhs)
        q = np.linalg.solve(rows, 2.0 * np.array([r[j] - r[i], r[k] - r[i]]))
        u = p - c[i]
        for root in np.roots([q @ q - 1.0, -2.0 * (u @ q + r[i]), u @ u - r[i] ** 2]):
            if abs(root.imag) > 1e-7 * max(1.0, abs(root.real)):
                continue
            t = root.real
            x = p - t * q
            offsets = x - c[list(triple)]
            norms = np.hypot(offsets[:, 0], offsets[:, 1])
            if np.any(r[list(triple)] + t < 0.0) or np.any(norms == 0.0):
                continue
            kkt = np.vstack([(offsets / norms[:, None]).T, np.ones(3)])
            lam, *_ = np.linalg.lstsq(kkt, np.array([0.0, 0.0, 1.0]), rcond=None)
            if lam.min() >= -1e-9 and np.allclose(kkt @ lam, [0.0, 0.0, 1.0], atol=1e-9):
                candidates.append((x, t))
    valid = [t for x, t in candidates if value(x) <= t + tol]
    assert valid, "no support of at most three disks is optimal"
    return max(valid)


class TestDiskFamily:
    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            DiskFamily((Disk(Point(0, 0), 1),), scale=0.0)

    def test_scaled_disks_preserve_centers(self):
        df = DiskFamily((Disk(Point(2, 3), 1.5),), scale=2.0)
        (d,) = df.scaled_disks()
        assert d.center == Point(2, 3)
        assert d.radius == 3.0

    def test_overflowing_scaled_radius_raises(self):
        # The witness solvers read the scaled radii without building the
        # scaled disks, and still reject one that overflows.
        df = DiskFamily((Disk(Point(0, 0), 1e308), Disk(Point(1, 0), 1.0)), scale=10.0)
        with pytest.raises(ValueError, match="disk radius must be a nonnegative real, got inf"):
            df.scaled_disks()
        with pytest.raises(ValueError, match="disk radius must be a nonnegative real, got inf"):
            common_point(df)


class TestDiametralFamily:
    def test_single_edge_scale_one(self):
        ps = PointSet([Point(-1, 0), Point(1, 0)])
        df = diametral_family(Matching([(0, 1)]), ps, 1.0)
        (d,) = df.scaled_disks()
        assert d.center == Point(0, 0) and d.radius == pytest.approx(1.0)

    def test_single_edge_enlarged(self):
        ps = PointSet([Point(-1, 0), Point(1, 0)])
        df = diametral_family(Matching([(0, 1)]), ps, ENLARGEMENT_FACTOR)
        (d,) = df.scaled_disks()
        assert d.radius == pytest.approx(2 / SQRT3)

    def test_empty_matching(self):
        df = diametral_family(Matching([]), PointSet([]), 1.0)
        assert len(df) == 0

    def test_scale_below_one_rejected(self):
        ps = PointSet([Point(-1, 0), Point(1, 0)])
        with pytest.raises(ValueError):
            diametral_family(Matching([(0, 1)]), ps, 0.9)


class TestCommonPoint:
    def test_single_disk(self):
        w = common_point(DiskFamily((Disk(Point(2, 3), 1.5),)))
        assert w.point == Point(2, 3)
        assert w.slack == pytest.approx(-1.5)

    def test_tangent_family_enlarged_has_unique_point(self):
        w = common_point(gen_tangent_disks().rescaled(ENLARGEMENT_FACTOR))
        assert w.slack <= TOL.eps_opt
        assert distance(w.point, Point(1.0, 1.0 / SQRT3)) <= 1e-5
        assert w.kind == "enlarged"

    def test_disjoint_pair_positive_slack(self):
        df = DiskFamily((Disk(Point(0, 0), 1), Disk(Point(5, 0), 1)))
        w = common_point(df)
        assert w.slack == pytest.approx(1.5, abs=1e-9)
        assert distance(w.point, Point(2.5, 0)) <= 1e-6

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError):
            common_point(DiskFamily(()))

    def test_witness_names_support_and_multipliers(self):
        single = common_point(family((2, 3, 1.5)))
        assert single.support == (0,) and single.multipliers == (1.0,)
        pair = common_point(family((0, 0, 1), (5, 0, 1)))
        assert pair.support == (0, 1) and pair.multipliers == (0.5, 0.5)
        triple = common_point(gen_tangent_disks().rescaled(ENLARGEMENT_FACTOR))
        assert triple.support == (0, 1, 2)
        assert triple.multipliers == pytest.approx((1 / 3, 1 / 3, 1 / 3), abs=1e-12)
        assert triple.scale == 2.0

    def test_no_admissible_basis_raises(self, monkeypatch):
        monkeypatch.setattr(
            certificates,
            "_support_optimum",
            lambda cx, cy, r, support: (cx[support[0]], cy[support[0]], -r[support[0]], (1.0,))
            if len(support) == 1
            else None,
        )
        with pytest.raises(WitnessError):
            common_point(family((0, 0, 1), (5, 0, 1)))

    def test_objective_is_convex(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            disks = [
                Disk(Point(*rng.uniform(-1, 1, 2)), float(rng.uniform(0.1, 1.5)))
                for _ in range(rng.integers(2, 6))
            ]

            def f(x, y):
                return max(distance(Point(x, y), d.center) - d.radius for d in disks)

            x1, y1, x2, y2 = rng.uniform(-2, 2, 4)
            t = float(rng.uniform(0, 1))
            mx, my = t * x1 + (1 - t) * x2, t * y1 + (1 - t) * y2
            assert f(mx, my) <= t * f(x1, y1) + (1 - t) * f(x2, y2) + 1e-12


class TestCheckWitness:
    def test_accepts_solver_witnesses(self):
        for df in (
            family((2, 3, 1.5)),
            family((0, 0, 1), (5, 0, 1)),
            gen_tangent_disks(),
            gen_tangent_disks().rescaled(ENLARGEMENT_FACTOR),
        ):
            check_witness(df, common_point(df))

    def test_rejects_tampered_witnesses(self):
        df = gen_tangent_disks()
        w = common_point(df)
        moved = Point(w.point.x + 1e-3, w.point.y)
        tampered = [
            CenterWitness(moved, w.slack, w.kind, w.support, w.multipliers, w.scale),
            CenterWitness(w.point, w.slack - 1e-3, w.kind, w.support, w.multipliers, w.scale),
            CenterWitness(w.point, w.slack, w.kind, (0, 1), (0.5, 0.5), w.scale),
            CenterWitness(w.point, w.slack, w.kind, w.support, (0.5, 0.5, 0.5), w.scale),
            CenterWitness(w.point, w.slack, w.kind, w.support, (1.2, -0.1, -0.1), w.scale),
            CenterWitness(w.point, w.slack, w.kind, (0, 1, 3), w.multipliers, w.scale),
            CenterWitness(w.point, w.slack, w.kind),
        ]
        for bad in tampered:
            with pytest.raises(WitnessError):
                check_witness(df, bad)

    def test_rejects_balanced_value_at_non_optimal_point(self):
        # On the bisector of two unit disks both are equally active, but
        # off the segment between the centres their unit vectors do not cancel.
        df = family((0, 0, 1), (4, 0, 1))
        off = Point(2.0, 1.0)
        slack = math.hypot(2.0, 1.0) - 1.0
        with pytest.raises(WitnessError):
            check_witness(df, CenterWitness(off, slack, "diametral", (0, 1), (0.5, 0.5), 4.0))

    def test_rejects_fingerhut_witness(self):
        ps, m = crossing_x()
        with pytest.raises(WitnessError):
            check_witness(diametral_family(m, ps), fingerhut_center(m, ps))


DEGENERATE_FAMILIES = {
    "single": [(1, 2, 0.5)],
    "single-point": [(1, 2, 0.0)],
    "identical": [(0, 0, 1)] * 3,
    "identical-points": [(0, 0, 0)] * 4,
    "concentric": [(0, 0, 1), (0, 0, 2), (0, 0, 0.5)],
    "nested": [(0, 0, 3), (0.5, 0, 1), (-1, 0.2, 0.3)],
    "internally-tangent": [(0, 0, 2), (1, 0, 1)],
    "collinear": [(0, 0, 1), (1, 0, 0.2), (2, 0, 1), (3, 0, 0.1)],
    "collinear-equal": [(0, 0, 0.5), (1, 0, 0.5), (2, 0, 0.5)],
    "collinear-within-1e-12": [(0, 0, 0.5), (1, 1e-12, 0.5), (2, 0, 0.5)],
    "collinear-within-1e-12-point": [(0, 0, 1.0), (1, 1e-12, 0.0), (2, 0, 1.0)],
    "cocircular": [(1, 0, 0.1), (0, 1, 0.1), (-1, 0, 0.1), (0, -1, 0.1)],
}


class TestBruteForceCrossCheck:
    @staticmethod
    def random_families(count, seed):
        rng = np.random.default_rng(seed)
        for i in range(count):
            n = int(rng.integers(2, 11))
            if i % 4 == 0:
                centers, radii = rng.uniform(0, 1, (n, 2)), rng.uniform(0.01, 1.0, n)
            elif i % 4 == 1:
                centers, radii = rng.uniform(0, 1, (n, 2)), rng.uniform(0.0, 0.2, n)
            elif i % 4 == 2:
                centers, radii = rng.normal(0, 1, (n, 2)), rng.exponential(1.0, n)
            else:
                # Integer data: ties, shared centres and cocircular supports.
                centers, radii = np.round(rng.uniform(0, 4, (n, 2))), np.round(rng.uniform(0, 3, n))
            yield family(*((float(x), float(y), float(rr)) for (x, y), rr in zip(centers, radii)))

    @staticmethod
    def assert_optimal(df):
        w = common_point(df)
        check_witness(df, w)
        disks = df.scaled_disks()
        assert abs(w.slack - brute_force_slack(disks)) <= 1e-9 * length_scale(disks)

    def test_random_families(self):
        for df in self.random_families(240, seed=11):
            self.assert_optimal(df)

    def test_diametral_families_of_local_matchings(self):
        for i in range(40):
            k = 2 + i % 2
            ps = gen_random(6 + 2 * (i % 4), seed=30_000 + i)
            m = k_local_search(ps, k)
            for scale in (1.0, ENLARGEMENT_FACTOR):
                self.assert_optimal(diametral_family(m, ps, scale))

    @pytest.mark.parametrize("disks", DEGENERATE_FAMILIES.values(), ids=DEGENERATE_FAMILIES)
    def test_degenerate_families(self, disks):
        df = family(*disks)
        try:
            w = common_point(df)
        except WitnessError:
            return
        check_witness(df, w)
        assert abs(w.slack - brute_force_slack(df.scaled_disks())) <= 1e-9 * length_scale(
            df.scaled_disks()
        )


# common_point witnesses on `pin_families()` as (x, y, slack, support,
# multipliers), floats as float.hex, recorded from the disk pivot before it
# became the generic violator loop that the Newton step shares.
COMMON_POINT_PIN = {
    "random-2": (
        "0x1.71a4d449ab9b8p-2", "0x1.a6319612ad1b5p-1", "0x1.cec5dd258140ap-2",
        (0, 1),
        ("0x1.0000000000000p-1", "0x1.0000000000000p-1"),
    ),
    "random-3": (
        "-0x1.2f5aab5371a34p-2", "0x1.ba7eca123c62ep-2", "0x1.b164bbef63012p-2",
        (1, 2),
        ("0x1.0000000000000p-1", "0x1.0000000000000p-1"),
    ),
    "random-4": (
        "-0x1.a629c373cf3d0p-5", "-0x1.02d251ab68d5cp-2", "0x1.d161853ad4d14p-2",
        (1, 2),
        ("0x1.0000000000000p-1", "0x1.0000000000000p-1"),
    ),
    "random-5": (
        "0x1.60cae723412efp-3", "0x1.60f0ee8c4def8p-2", "0x1.4425b77fae752p-2",
        (3, 4),
        ("0x1.0000000000000p-1", "0x1.0000000000000p-1"),
    ),
    "random-6": (
        "0x1.9d1218588fc20p-4", "-0x1.b50c16c51f4e8p-4", "0x1.8889129fbb6d8p-2",
        (0, 1),
        ("0x1.0000000000000p-1", "0x1.0000000000000p-1"),
    ),
    "random-7": (
        "-0x1.a189fc159389ep-3", "-0x1.eabfdaf6a4c49p-4", "0x1.372608ba303c4p-1",
        (2, 3, 4),
        ("0x1.3caff8921fc69p-4", "0x1.e0aa42af24c9ap-2", "0x1.d029bf2c5344bp-2"),
    ),
    "random-8": (
        "-0x1.603076914341fp-3", "0x1.d191a3874af74p-5", "0x1.8ce114cae6e4ep-1",
        (0, 1, 5),
        ("0x1.ee939561f83bcp-2", "0x1.a666d8b8beac7p-2", "0x1.ac164795245fap-4"),
    ),
    "random-9": (
        "-0x1.98015dbc34638p-5", "-0x1.242bc0f41aebfp-2", "0x1.0c2e28485a236p-1",
        (1, 5, 6),
        ("0x1.6b0caf3aed98bp-2", "0x1.3561d68d1ac29p-2", "0x1.5f917a37f7a4dp-2"),
    ),
    "random-10": (
        "-0x1.0e5d905f00e70p-3", "-0x1.84cc29488fe48p-3", "0x1.e1dcca517de8cp-1",
        (8, 9),
        ("0x1.0000000000000p-1", "0x1.0000000000000p-1"),
    ),
    "tangent-enlarged": (
        "0x1.0000000000000p+0", "0x1.279a74590331bp-1", "-0x1.0000000000000p-52",
        (0, 1, 2),
        ("0x1.5555555555556p-2", "0x1.5555555555556p-2", "0x1.5555555555554p-2"),
    ),
    "tangent-shy": (
        "0x1.0000000000000p+0", "0x1.279a74590331bp-1", "0x1.0624dd2f1a400p-10",
        (0, 1, 2),
        ("0x1.5555555555556p-2", "0x1.5555555555556p-2", "0x1.5555555555554p-2"),
    ),
    "single": (
        "0x1.0000000000000p+0", "0x1.0000000000000p+1", "-0x1.0000000000000p-1",
        (0,),
        ("0x1.0000000000000p+0",),
    ),
    "single-point": (
        "0x1.0000000000000p+0", "0x1.0000000000000p+1", "0x0.0p+0",
        (0,),
        ("0x1.0000000000000p+0",),
    ),
    "identical": (
        "0x0.0p+0", "0x0.0p+0", "-0x1.0000000000000p+0",
        (0,),
        ("0x1.0000000000000p+0",),
    ),
    "identical-points": (
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        (0,),
        ("0x1.0000000000000p+0",),
    ),
    "concentric": (
        "0x0.0p+0", "0x0.0p+0", "-0x1.0000000000000p-1",
        (2,),
        ("0x1.0000000000000p+0",),
    ),
    "nested": (
        "-0x1.31a0c7376b960p-1", "0x1.2b88f2c839611p-3", "0x1.b4c94f96308b0p-4",
        (1, 2),
        ("0x1.0000000000000p-1", "0x1.0000000000000p-1"),
    ),
    "internally-tangent": (
        "0x1.0000000000000p+0", "0x0.0p+0", "-0x1.0000000000000p+0",
        (1,),
        ("0x1.0000000000000p+0",),
    ),
    "collinear": (
        "0x1.f333333333334p+0", "0x0.0p+0", "0x1.e666666666668p-1",
        (0, 3),
        ("0x1.0000000000000p-1", "0x1.0000000000000p-1"),
    ),
    "collinear-equal": (
        "0x1.0000000000000p+0", "0x0.0p+0", "0x1.0000000000000p-1",
        (0, 2),
        ("0x1.0000000000000p-1", "0x1.0000000000000p-1"),
    ),
    "collinear-within-1e-12": (
        "0x1.0000000000000p+0", "0x0.0p+0", "0x1.0000000000000p-1",
        (0, 2),
        ("0x1.0000000000000p-1", "0x1.0000000000000p-1"),
    ),
    "collinear-within-1e-12-point": (
        "0x1.0000000000000p+0", "0x1.19799812dea11p-40", "0x0.0p+0",
        (1,),
        ("0x1.0000000000000p+0",),
    ),
    "cocircular": (
        "0x0.0p+0", "0x0.0p+0", "0x1.ccccccccccccdp-1",
        (0, 2),
        ("0x1.0000000000000p-1", "0x1.0000000000000p-1"),
    ),
}


def pin_families():
    for n in range(2, 11):
        rng = random.Random(n)
        disks = [(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(0.05, 1)) for _ in range(n)]
        yield f"random-{n}", family(*disks)
    yield "tangent-enlarged", gen_tangent_disks().rescaled(ENLARGEMENT_FACTOR)
    yield "tangent-shy", gen_tangent_disks().rescaled(ENLARGEMENT_FACTOR - 1e-3)
    for name, disks in DEGENERATE_FAMILIES.items():
        yield name, family(*disks)


class TestCommonPointPin:
    def test_witnesses_match_recording_bit_for_bit(self):
        names = []
        for name, df in pin_families():
            w = common_point(df)
            x, y, slack, support, multipliers = COMMON_POINT_PIN[name]
            assert (float(w.point.x).hex(), float(w.point.y).hex()) == (x, y), name
            assert float(w.slack).hex() == slack, name
            assert w.support == support, name
            assert tuple(float(l).hex() for l in w.multipliers) == multipliers, name
            names.append(name)
        assert names == list(COMMON_POINT_PIN)


class TestSimilarityInvariance:
    @given(
        st.lists(
            st.tuples(st.floats(-1, 1), st.floats(-1, 1), st.floats(0, 1)), min_size=1, max_size=8
        ),
        st.floats(0, 2 * math.pi),
        st.integers(-6, 6),
        st.tuples(st.floats(-10, 10), st.floats(-10, 10)),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_translation_rotation_scaling_relabelling(self, disks, angle, exponent, shift, data):
        factor = 10.0**exponent
        perm = data.draw(st.permutations(range(len(disks))))
        cos, sin = math.cos(angle), math.sin(angle)

        def image(x, y):
            return (
                factor * (cos * x - sin * y + shift[0]),
                factor * (sin * x + cos * y + shift[1]),
            )

        df = family(*disks)
        w = common_point(df)
        # Rounding is relative to the coordinates, so the family must not be
        # tiny next to them.
        assume(w.scale >= 1e-3)
        moved = family(*((*image(*disks[j][:2]), factor * disks[j][2]) for j in perm))
        v = common_point(moved)
        unit = factor * w.scale
        assert v.scale == pytest.approx(unit, rel=1e-9)
        assert abs(v.slack - factor * w.slack) <= 1e-9 * unit
        ix, iy = image(w.point.x, w.point.y)
        assert math.hypot(v.point.x - ix, v.point.y - iy) <= 1e-6 * unit
        # The support is unique when exactly its disks are active and none
        # of them has a vanishing multiplier; then it maps through perm.
        active = [
            i
            for i, d in enumerate(df.scaled_disks())
            if distance(w.point, d.center) - d.radius >= w.slack - 1e-9 * w.scale
        ]
        if len(active) == len(w.support) and min(w.multipliers) > 1e-6:
            assert sorted(perm[j] for j in v.support) == list(w.support)


class TestScaleRelativeVerdicts:
    def test_tiny_shy_tangent_triple_has_no_common_point(self):
        shy = ENLARGEMENT_FACTOR - 1e-3
        tiny = DiskFamily(
            tuple(Disk(Point(d.center.x * 1e-6, d.center.y * 1e-6), d.radius * 1e-6)
                  for d in gen_tangent_disks().disks),
            shy,
        )
        w = common_point(tiny)
        assert w.slack == pytest.approx(1e-9, rel=1e-6)
        assert w.slack <= TOL.eps_opt  # an absolute test would accept it
        assert not w.holds()

    def test_unit_scale_verdicts(self):
        tangent = gen_tangent_disks()
        assert common_point(tangent.rescaled(ENLARGEMENT_FACTOR)).holds()
        assert not common_point(tangent.rescaled(ENLARGEMENT_FACTOR - 1e-3)).holds()
        assert not common_point(tangent).holds()

    @pytest.mark.parametrize("factor", [1e-6, 1e6])
    def test_certify_is_scale_invariant(self, factor):
        for seed in range(5):
            ps = gen_random(8, seed=95_000 + seed)
            m = k_local_search(ps, 3)
            scaled = PointSet([Point(p.x * factor, p.y * factor) for p in ps.points])
            for kind in ("local2", "local3_sqrt2", "local3_fingerhut"):
                cert = certify(ps, m, kind)
                big = certify(scaled, m, kind)
                assert big.witness.support == cert.witness.support
                assert big.star_weight == pytest.approx(factor * cert.star_weight, rel=1e-9)
                assert big.matching_weight == pytest.approx(
                    factor * cert.matching_weight, rel=1e-12
                )


class TestStretchLemma:
    def test_enlarged_random_families_have_common_point(self):
        worst = -math.inf
        for i in range(1000):
            df = gen_intersecting_disks(3 + i % 8, seed=40_000 + i)
            witness = common_point(df.rescaled(ENLARGEMENT_FACTOR))
            worst = max(worst, witness.slack)
        assert worst <= TOL.eps_opt

    def test_tangent_family_tightness(self):
        tangent = gen_tangent_disks()
        assert common_point(tangent.rescaled(ENLARGEMENT_FACTOR)).slack <= TOL.eps_opt
        for scale in (1.0, ENLARGEMENT_FACTOR - 1e-3, ENLARGEMENT_FACTOR - 0.05):
            assert common_point(tangent.rescaled(scale)).slack > 1e-4

    def test_tangent_family_scale_one_slack(self):
        # Fermat point of the three centers sits at distance 2/sqrt(3).
        w = common_point(gen_tangent_disks())
        assert w.slack == pytest.approx(2 / SQRT3 - 1.0, abs=1e-9)
        assert w.kind == "diametral"


class TestPairwiseAndTriplePremises:
    def test_two_local_max_gives_pairwise_intersecting_disks(self):
        for i in range(1000):
            ps = gen_random(6 + 2 * (i % 3), seed=50_000 + i)
            m = k_local_search(ps, 2)
            disks = diametral_family(m, ps, 1.0).scaled_disks()
            for d1, d2 in itertools.combinations(disks, 2):
                assert disks_intersect(d1, d2)

    def test_three_local_max_gives_triplewise_common_points(self):
        for i in range(60):
            ps = gen_random(6 + 2 * (i % 3), seed=60_000 + i)
            m = k_local_search(ps, 3)
            disks = diametral_family(m, ps, 1.0).scaled_disks()
            for triple in itertools.combinations(disks, 3):
                assert common_point(DiskFamily(triple)).slack <= TOL.eps_opt
            # Helly: the whole family then intersects as well.
            assert common_point(DiskFamily(disks)).slack <= TOL.eps_opt


# Slack on `golden_instances()` recorded, as float.hex, from the earlier
# solver (multi-start Polyak descent with a Newton polish).
FINGERHUT_GOLDEN = {
    "local3-0": "-0x1.2c91383365700p-3",
    "local3-1": "-0x1.2ef62815e8e70p-3",
    "local3-2": "-0x1.225bab95fbbf0p-3",
    "local3-3": "-0x1.cede554867c70p-4",
    "local3-4": "-0x1.1c6be5348d998p-3",
    "local3-5": "-0x1.2e94f0328be80p-4",
    "local3-6": "-0x1.0be0f2dbb53d0p-3",
    "local3-7": "-0x1.d7e4cad74b180p-4",
    "local3-8": "-0x1.3af772b608728p-3",
    "local3-9": "-0x1.34fa866eb9f28p-3",
    "local3-10": "-0x1.a58f8b164b4c0p-4",
    "local3-11": "-0x1.f6d75a2188500p-4",
    "local3-12": "-0x1.fae2409df79d0p-4",
    "local3-13": "-0x1.e730ab8d5a690p-4",
    "local3-14": "-0x1.65847f184c640p-4",
    "local3-15": "-0x1.1642c5e407500p-3",
    "local3-16": "-0x1.32fb00e918448p-3",
    "local3-17": "-0x1.e71359ec74e40p-4",
    "local3-18": "-0x1.383a111f75cb8p-3",
    "local3-19": "-0x1.23070b0e60478p-3",
    "local3-20": "-0x1.3a8e0ec83ada0p-3",
    "local3-21": "-0x1.318205c0a6738p-3",
    "local3-22": "-0x1.13dcb88ead710p-3",
    "local3-23": "-0x1.2bcaba838a148p-3",
    "local3-24": "-0x1.309f91c758b08p-3",
    "local3-25": "-0x1.770441404ded0p-4",
    "local3-26": "-0x1.dad29490fd760p-4",
    "local3-27": "-0x1.22a312a20db38p-3",
    "local3-28": "-0x1.2a97a8bf88ed0p-3",
    "local3-29": "-0x1.34e7dce5b2290p-3",
    "local3-30": "-0x1.0a08eb9311d28p-3",
    "local3-31": "-0x1.0ddac64bbfc08p-3",
    "local3-32": "-0x1.cdcc10d95d010p-4",
    "local3-33": "-0x1.7f137a611d1c0p-4",
    "local3-34": "-0x1.35529930ad940p-3",
    "local3-35": "-0x1.070ebe5813490p-3",
    "local3-36": "-0x1.3b42e41306d70p-3",
    "local3-37": "-0x1.394cc79eb8818p-3",
    "local3-38": "-0x1.108c5249f6928p-3",
    "local3-39": "-0x1.c2faea76431a0p-4",
    "global-0": "-0x1.3cd0c84bcae58p-3",
    "global-1": "-0x1.3aef6fbbc5760p-3",
    "global-2": "-0x1.3a8ba6c1d4198p-3",
    "global-3": "-0x1.cd200cf379360p-4",
    "global-4": "-0x1.3ccf705ff0260p-3",
    "global-5": "-0x1.34a6f7731ebd0p-3",
    "global-6": "-0x1.136061b065678p-3",
    "global-7": "-0x1.32767da976570p-3",
    "global-8": "-0x1.3c84ef47f7060p-3",
    "global-9": "-0x1.2bb79b3be6458p-3",
    "crossing-x": "-0x1.3cd3a2c8198e8p-3",
    "single-edge": "-0x1.3cd3a2c8198e8p-3",
}


def golden_instances():
    for i in range(40):
        ps = gen_random(6 + 2 * (i % 4), seed=97_000 + i)
        yield f"local3-{i}", ps, k_local_search(ps, 3)
    for i in range(10):
        ps = gen_random(6, seed=70_000 + i)
        yield f"global-{i}", ps, optimal_matching(ps)
    yield "crossing-x", *crossing_x()
    yield "single-edge", PointSet([Point(0, 0), Point(5, 0)]), Matching([(0, 1)])


def points(*coords):
    return PointSet([Point(float(x), float(y)) for x, y in coords])


def assert_checked_or_raises(m, ps):
    """A degenerate instance gets a witness that passes the shared check,
    or WitnessError; returns the witness or None."""
    try:
        w = fingerhut_center(m, ps)
    except WitnessError:
        return None
    check_fingerhut_witness(m, ps, w)
    assert min(w.multipliers) >= 0.0 and sum(w.multipliers) == pytest.approx(1.0, abs=1e-12)
    return w


def brute_force_qp_step(vals, grads, h):
    """The Newton model's step (dx, dy, support, multipliers) by trying every
    support of at most three pieces: of those whose `_support_step` has
    nonnegative multipliers, the one of least q, where q charges the excess
    of the highest piece over the support's own level twice.  This was the
    solver's own enumeration before the violator loop replaced it."""
    hxx, hxy, hyy = h
    best_q, best = math.inf, None
    for size in (1, 2, 3):
        for support in itertools.combinations(range(len(vals)), size):
            got = certificates._support_step(vals, grads, h, support)
            if got is None or min(got[2]) < 0.0:
                continue
            dx, dy, lam = got
            t = vals[support[0]] + grads[support[0]][0] * dx + grads[support[0]][1] * dy
            q = 2.0 * max(v + gx * dx + gy * dy for v, (gx, gy) in zip(vals, grads)) - t
            q += 0.5 * (hxx * dx * dx + 2.0 * hxy * dx * dy + hyy * dy * dy)
            if q < best_q:
                best_q, best = q, (dx, dy, support, lam)
    return best


def qp_models():
    """(vals, grads, H) of random Newton models, then degenerate ones."""
    rng = random.Random(23)
    for _ in range(30):
        n = rng.randint(1, 6)
        a, b, c = (rng.gauss(0, 1) for _ in range(3))
        h = (a * a + 0.1, a * b, b * b + c * c + 0.1)
        vals = [rng.uniform(-1, 1) for _ in range(n)]
        yield vals, [(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n)], h
    unit, cos, sin = (1.0, 0.0, 1.0), -0.5, math.sqrt(3.0) / 2.0
    # Equal gradients, with different and with equal values.
    yield [0.0, 0.5, 0.5], [(1.0, 0.0)] * 3, unit
    # Parallel gradient differences: every 3-support is singular.
    yield [0.0, 0.1, 0.2, 0.05], [(0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (-1.0, -1.0)], unit
    # Ties: three and four pieces active at d = 0.
    yield [0.0] * 3, [(1.0, 0.0), (cos, sin), (cos, -sin)], unit
    yield [0.0] * 4, [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)], unit
    # Nearly singular H, with and without balanced gradients.
    yield [0.0, 0.0, 0.3], [(1.0, -1.0), (-1.0, 1.0), (0.5, 0.2)], (1.0, 1.0 - 1e-9, 1.0)
    yield [0.2, -0.1], [(1.0, 0.0), (0.0, 1.0)], (1e-10, 0.0, 1.0)
    # A Fingerhut model at an edge's endpoint on another edge: a gradient at
    # rounding level and a near-singular H, where the optimum's second
    # multiplier is 0 and its closed form rounds below 0.
    yield [-0.15470053837925168] * 2, [
        (1.8116769772343915e-13, -1.268173884064074e-13),
        (6.5312933612770525, -7.690451984101095),
    ], (1522.605672531027, -1068.1011596075673, 749.2682500261258)


class TestQuadraticStep:
    def test_matches_brute_force_from_every_warm_start(self):
        for vals, grads, h in qp_models():
            rx, ry, _, _ = brute_force_qp_step(vals, grads, h)
            scale = max(1.0, math.hypot(rx, ry))
            starts = [s for k in (1, 2, 3) for s in itertools.combinations(range(len(vals)), k)]
            for start in starts:
                # 1e-14: about the Newton loop's rounding of F at unit scale.
                dx, dy, support, lam = certificates._qp_step(vals, grads, h, start, 1e-14)
                assert math.hypot(dx - rx, dy - ry) <= 1e-12 * scale, (vals, start)
                assert 1 <= len(support) <= 3 and len(lam) == len(support)
                assert min(lam) >= 0.0 and sum(lam) == pytest.approx(1.0, abs=1e-12)


def foci_span(pieces):
    """Largest distance between two foci of the pieces, over all pairs."""
    points = [p for fs in pieces.foci for p in fs]
    return max(math.dist(p, q) for p, q in itertools.combinations(points, 2))


class TestEllipseLength:
    """The Fingerhut pieces' length unit: a perfect matching's is read off
    the point set's diameter, the same float as the largest span between
    two foci; any other matching's is measured over its foci."""

    def test_perfect_matching_takes_the_diameter(self):
        for seed in range(40):
            ps = gen_random(4 + 2 * (seed % 5), seed=71_000 + seed)
            consecutive = Matching((2 * i, 2 * i + 1) for i in range(len(ps) // 2))
            for m in (optimal_matching(ps), consecutive):
                pieces = certificates._ellipse_pieces(m, ps)
                assert pieces.length == foci_span(pieces) == ps.diameter

    def test_partial_matching_measures_its_foci(self):
        ps = points((0, 0), (1, 0), (0, 1), (1, 1), (10, 10), (-10, -10))
        pieces = certificates._ellipse_pieces(Matching([(0, 1), (2, 3)]), ps)
        assert pieces.length == foci_span(pieces) == math.sqrt(2.0) < ps.diameter
        for seed in range(20):
            ps = gen_random(8, seed=72_000 + seed)
            partial = Matching(optimal_matching(ps).pairs[seed % 4 :][:2])
            pieces = certificates._ellipse_pieces(partial, ps)
            assert pieces.length == foci_span(pieces)


class TestFingerhutCenter:
    def test_single_edge(self):
        ps = PointSet([Point(0, 0), Point(5, 0)])
        w = assert_checked_or_raises(Matching([(0, 1)]), ps)
        assert w.slack == pytest.approx(1.0 - ENLARGEMENT_FACTOR, abs=1e-9)
        assert w.kind == "fingerhut"
        assert w.support == (0,) and w.multipliers == (1.0,)

    def test_crossing_unit_segments_meet_at_midpoint(self):
        ps, m = crossing_x()
        w = assert_checked_or_raises(m, ps)
        assert distance(w.point, Point(0.5, 0.5)) <= 1e-6
        assert w.slack == pytest.approx(1.0 - ENLARGEMENT_FACTOR, abs=1e-9)

    def test_crossing_segments_attain_exactly_one(self):
        # Two crossing segments: the optimum is the lower bound 1, attained
        # only at the crossing point, where both pieces are flat.
        ps = points((0, 0), (3, 1), (0.5, -1), (1, 2))
        w = assert_checked_or_raises(Matching([(0, 1), (2, 3)]), ps)
        assert w.slack + ENLARGEMENT_FACTOR == pytest.approx(1.0, abs=1e-15)
        assert distance(w.point, Point(12 / 17, 4 / 17)) <= 1e-12

    @pytest.mark.parametrize("offset", [0.0, 1e-7, -1e-7])
    def test_focus_on_another_edge(self, offset):
        # The endpoint (1, offset) of the second edge lies inside the first,
        # or next to it, where the optimum sits at that endpoint's kink.
        ps = points((0, 0), (3, 0), (1, offset), (1, 1))
        w = assert_checked_or_raises(Matching([(0, 1), (2, 3)]), ps)
        assert w.slack + ENLARGEMENT_FACTOR == pytest.approx(1.0, abs=1e-12)
        assert distance(w.point, Point(1, offset)) <= 1e-6

    @pytest.mark.parametrize(
        "coords, pairs, value, point",
        [
            ([(0, 0), (1, 0), (2, 0), (3, 0)], [(0, 1), (2, 3)], 2.0, (1.5, 0)),
            ([(0, 0), (2, 0), (1.5, 0), (5, 0)], [(0, 1), (2, 3)], 1.0, None),
            (
                [(0, 0), (1, 0), (2, 0), (3, 0), (5, 0), (7, 0)],
                [(0, 1), (2, 3), (4, 5)],
                11 / 3,
                (7 / 3, 0),
            ),
        ],
        ids=["disjoint", "overlapping", "three"],
    )
    def test_collinear_edges(self, coords, pairs, value, point):
        w = assert_checked_or_raises(Matching(pairs), points(*coords))
        assert w.slack + ENLARGEMENT_FACTOR == pytest.approx(value, abs=1e-12)
        if point is not None:
            assert distance(w.point, Point(*point)) <= 1e-12
        else:  # anywhere on the overlap [1.5, 2] of the two edges
            assert abs(w.point.y) <= 1e-12 and 1.5 - 1e-12 <= w.point.x <= 2.0 + 1e-12

    @pytest.mark.parametrize(
        "coords",
        [
            # Crossing edges whose weighted Hessian at the crossing is singular.
            [(0.75, 0.125), (0.7615329594421554, -0.625), (0.0, 0.0), (1.0, -0.25)],
            # Nearly collinear, nearly nested edges: a flat objective whose
            # best start is an endpoint 0.047 from the optimum.
            [(0.36589448104959144, -0.004198885892603199), (-0.5, -3e-30),
             (0.6335949385294879, 6.5e-142), (-1.0, 0.001953125)],
            # An endpoint 1e-7 from the other edge.
            [(1e-07, 1e-38), (0.001, -0.40485111899507664), (-3e-239, -0.9427310797582162),
             (-3e-239, 0.5320251883516289)],
        ],
        ids=["singular-hessian", "flat-near-collinear", "near-kink"],
    )
    def test_near_degenerate_inputs_get_checked_witnesses(self, coords):
        assert assert_checked_or_raises(Matching([(0, 1), (2, 3)]), points(*coords)) is not None

    def test_global_maximum_matchings_admit_center(self):
        for seed in range(60):
            ps = gen_random(6, seed=70_000 + seed)
            m = optimal_matching(ps)
            assert fingerhut_center(m, ps).slack <= TOL.eps_opt

    def test_slack_matches_golden_values(self):
        names = []
        for name, ps, m in golden_instances():
            w = fingerhut_center(m, ps)
            assert abs(w.slack - float.fromhex(FINGERHUT_GOLDEN[name])) <= 1e-12, name
            names.append(name)
        assert names == list(FINGERHUT_GOLDEN)

    def test_witness_names_support_and_multipliers(self):
        for _, ps, m in golden_instances():
            w = fingerhut_center(m, ps)
            check_fingerhut_witness(m, ps, w)
            assert 1 <= len(w.support) <= 3 and len(w.multipliers) == len(w.support)
            assert all(0 <= i < len(m) for i in w.support)
            assert min(w.multipliers) >= 0.0
            assert sum(w.multipliers) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [6, 12, 26])
    def test_start_is_first_lowest(self, n):
        # Each start is listed twice, as two tuple objects: the start taken
        # is the very object min() takes, the first one with the lowest F.
        for seed in range(20):
            ps = gen_random(n, seed=98_000 + 100 * n + seed)
            pieces = certificates._ellipse_pieces(k_local_search(ps, 2), ps)
            starts = certificates._ellipse_starts(pieces)
            starts += [(x, y) for x, y in starts]
            want = min(starts, key=lambda p: max(pieces.values(*p)))
            assert pieces.lowest(starts) is want

    def test_solver_result_is_checked_before_return(self, monkeypatch):
        ps, m = crossing_x()
        monkeypatch.setattr(
            certificates,
            "_newton_pieces",
            lambda pieces, starts: (0.5, 0.5, 1.0 - ENLARGEMENT_FACTOR, (0,), (0.5,)),
        )
        with pytest.raises(WitnessError):
            fingerhut_center(m, ps)

    def test_empty_matching_rejected(self):
        with pytest.raises(ValueError):
            fingerhut_center(Matching([]), PointSet([]))


class TestCheckFingerhutWitness:
    def test_rejects_tampered_witnesses(self):
        ps = gen_random(8, seed=97_001)
        m = k_local_search(ps, 3)
        w = fingerhut_center(m, ps)
        assert len(w.support) >= 2
        other = next(i for i in range(len(m)) if i not in w.support)
        moved = Point(w.point.x + 1e-3, w.point.y)
        # At the moved point with its own slack, only the gradients tell.
        moved_slack = max(certificates._ellipse_pieces(m, ps).values(moved.x, moved.y))
        size = len(w.support)
        negative = (1.1, *[-0.1 / (size - 1)] * (size - 1))
        tampered = {
            "moved point": CenterWitness(moved, w.slack, w.kind, w.support, w.multipliers),
            "moved point, own slack": CenterWitness(
                moved, moved_slack, w.kind, w.support, w.multipliers
            ),
            "lowered slack": CenterWitness(w.point, w.slack - 1e-3, w.kind, w.support, w.multipliers),
            "wrong support": CenterWitness(
                w.point, w.slack, w.kind, (*w.support[:-1], other), w.multipliers
            ),
            "non-convex multipliers": CenterWitness(
                w.point, w.slack, w.kind, w.support, (0.5,) * size
            ),
            "negative multiplier": CenterWitness(w.point, w.slack, w.kind, w.support, negative),
            "empty support": CenterWitness(w.point, w.slack, w.kind),
            "disk kind": CenterWitness(w.point, w.slack, "diametral", w.support, w.multipliers),
        }
        check_fingerhut_witness(m, ps, w)
        for name, bad in tampered.items():
            with pytest.raises(WitnessError):
                check_fingerhut_witness(m, ps, bad)
                pytest.fail(name)

    def test_rejects_balanced_value_at_non_optimal_point(self):
        # Equidistant from two parallel unit edges, both pieces are equally
        # active, but away from the midline their gradients do not cancel.
        ps = points((0, 0), (1, 0), (0, 2), (1, 2))
        m = Matching([(0, 1), (2, 3)])
        off = Point(3.0, 1.0)
        slack = math.hypot(3.0, 1.0) + math.hypot(2.0, 1.0) - ENLARGEMENT_FACTOR
        with pytest.raises(WitnessError):
            check_fingerhut_witness(m, ps, CenterWitness(off, slack, "fingerhut", (0, 1), (0.5, 0.5)))


class TestFingerhutInvariance:
    @given(
        st.lists(st.tuples(st.floats(-1, 1), st.floats(-1, 1)), min_size=2, max_size=10).filter(
            lambda pts: len(pts) % 2 == 0
        ),
        st.floats(0, 2 * math.pi),
        st.integers(-6, 6),
        st.tuples(st.floats(-10, 10), st.floats(-10, 10)),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_translation_rotation_scaling_relabelling(self, coords, angle, exponent, shift, data):
        n = len(coords)
        # Points stay apart by more than eps_geom after scaling by 1e-6.
        assume(min(math.dist(p, q) for p, q in itertools.combinations(coords, 2)) >= 1e-2)
        factor = 10.0**exponent
        cos, sin = math.cos(angle), math.sin(angle)

        def image(x, y):
            return (
                factor * (cos * x - sin * y + shift[0]),
                factor * (sin * x + cos * y + shift[1]),
            )

        ps = points(*coords)
        m = Matching((2 * e, 2 * e + 1) for e in range(n // 2))
        # Relabel the points, and with them the edges and their endpoints.
        perm = data.draw(st.permutations(range(n)))  # old index -> new index
        moved_coords = [None] * n
        for old, new in enumerate(perm):
            moved_coords[new] = image(*coords[old])
        moved_ps = points(*moved_coords)
        moved_m = Matching((perm[a], perm[b]) for a, b in m.pairs)
        # Nearly concurrent or nearly collinear edges may raise WitnessError
        # (2 of 50,272 drawn instances over five Hypothesis seeds, each with
        # its image); invariance is asserted of the witnesses that are returned.
        w = assert_checked_or_raises(m, ps)
        v = assert_checked_or_raises(moved_m, moved_ps)
        assume(w is not None and v is not None)
        assert abs(v.slack - w.slack) <= 1e-9
        # Edge e of m is edge edge_map[e] of moved_m.
        edge_map = [moved_m.pairs.index(tuple(sorted((perm[a], perm[b])))) for a, b in m.pairs]
        # The support is unique when exactly its edges are active, none of
        # them has a vanishing multiplier and the edges share no point (there
        # every gradient vanishes); then it maps through perm.
        values = certificates._ellipse_pieces(m, ps).values(w.point.x, w.point.y)
        active = [i for i, f in enumerate(values) if f >= w.slack - 1e-9]
        concurrent = w.slack + ENLARGEMENT_FACTOR <= 1.0 + 1e-9
        if len(active) == len(w.support) and min(w.multipliers) > 1e-6 and not concurrent:
            assert sorted(edge_map[e] for e in w.support) == sorted(v.support)


class TestStarWeight:
    def test_coincident_with_one_of_two_points(self):
        ps = PointSet([Point(0, 0), Point(5, 0)])
        assert star_weight(Point(0, 0), ps) == 5.0

    def test_centroid_of_square(self):
        ps = PointSet([Point(1, 1), Point(-1, 1), Point(-1, -1), Point(1, -1)])
        assert star_weight(Point(0, 0), ps) == pytest.approx(4 * math.sqrt(2))

    def test_empty(self):
        assert star_weight(Point(3, 3), PointSet([])) == 0.0


class TestCertify:
    def test_crossing_x_local2(self):
        ps, m = crossing_x()
        cert = certify(ps, m, "local2")
        assert distance(cert.witness.point, Point(0.5, 0.5)) <= 1e-6
        assert cert.witness.slack < 0
        assert cert.beta == pytest.approx(math.sqrt(7.0 / 3.0))
        for _, lhs, rhs in cert.per_edge_checks:
            assert lhs < rhs

    def test_local2_chain_on_random_instances(self):
        bound = math.sqrt(3.0 / 7.0)
        for seed in range(40):
            ps = gen_random(6, seed=80_000 + seed)
            m = k_local_search(ps, 2)
            cert = certify(ps, m, "local2")
            assert cert.star_weight <= cert.beta * cert.matching_weight + 1e-7
            assert cert.oracle_weight <= cert.star_weight + 1e-9
            assert cert.matching_weight >= bound * cert.oracle_weight - 1e-9

    def test_local3_chains_on_random_instances(self):
        bound = SQRT3 / 2.0
        for seed in range(25):
            ps = gen_random(8, seed=90_000 + seed)
            m = k_local_search(ps, 3)
            for kind, beta in (
                ("local3_sqrt2", math.sqrt(2.0)),
                ("local3_fingerhut", ENLARGEMENT_FACTOR),
            ):
                cert = certify(ps, m, kind)
                assert cert.beta == pytest.approx(beta)
                assert cert.star_weight <= beta * cert.matching_weight + 1e-7
                assert cert.oracle_weight <= cert.star_weight + 1e-9
            assert cert.matching_weight >= bound * cert.oracle_weight - 1e-9

    def test_every_kind_certifies_at_tiny_scale(self):
        # Scaled by 1e-12, edges are shorter than 1e-12.  Nothing on the
        # certificate path may read an absolute length threshold: a
        # diametral disk of such an edge is still a disk.
        ps = gen_random(8, seed=3)
        tiny = PointSet([Point(p.x * 1e-12, p.y * 1e-12) for p in ps.points])
        m = k_local_search(tiny, 3)
        assert m == k_local_search(ps, 3)
        assert min(distance(tiny[i], tiny[j]) for i, j in m.pairs) < 1e-12
        for kind in ("local2", "local3_sqrt2", "local3_fingerhut"):
            cert = certify(tiny, m, kind)
            assert cert.witness.holds()
            assert cert.star_weight <= cert.beta * cert.matching_weight * (1 + 1e-7)
            assert cert.oracle_weight <= cert.star_weight * (1 + 1e-9)

    def test_fingerhut_support_in_certificate_dict(self):
        ps = gen_random(8, seed=97_001)
        m = k_local_search(ps, 3)
        cert = certify(ps, m, "local3_fingerhut")
        witness = certificate_to_dict(cert)["witness"]
        assert witness["support"] == list(cert.witness.support) != []
        assert witness["multipliers"] == pytest.approx(list(cert.witness.multipliers))

    def test_locality_precondition_reports_subset(self):
        ps = PointSet([Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)])
        sides = Matching([(0, 1), (2, 3)])
        with pytest.raises(LocalityError) as err:
            certify(ps, sides, "local2")
        assert err.value.violating_subset == ((0, 1), (2, 3))

    def test_unknown_kind_rejected(self):
        ps, m = crossing_x()
        with pytest.raises(ValueError):
            certify(ps, m, "local9")

    def test_certificate_error_is_value_error(self):
        assert issubclass(CertificateError, ValueError)
