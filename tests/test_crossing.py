"""Tests for pairwise-crossing matching detection, balance, uniqueness,
and global maximality."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from localmatch import crossing, geometry
from localmatch.crossing import (
    GeneralPositionError,
    convex_diagonal_matching,
    find_pairwise_crossing,
    full_crossing_report,
    halfplane_balance,
    is_pairwise_crossing,
    verify_globally_maximum,
)
from localmatch.generators import gen_convex, gen_random
from localmatch.geometry import Point, orientation
from localmatch.matching import (
    Matching,
    PointSet,
    enumerate_matchings,
    is_k_local_max,
    weight,
)
from segments import segments_cross


def unit_square():
    return PointSet([Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)])


def regular_hexagon():
    return PointSet(
        [Point(math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)) for k in range(6)]
    )


def circle_points(n, seed):
    """n points at seeded random angles on the unit circle: convex position,
    no three collinear, and any n (gen_convex stops near 16)."""
    rng = random.Random(seed)
    angles = sorted(rng.uniform(0.0, 2.0 * math.pi) for _ in range(n))
    return PointSet([Point(math.cos(t), math.sin(t)) for t in angles])


def jittered_lattice(n, seed, jitter=1e-6):
    """n distinct cells of a 4x4 unit lattice, each moved by at most
    `jitter`: many nearly collinear triples and nearly parallel edges."""
    rng = random.Random(seed)
    cells = rng.sample([(x, y) for x in range(4) for y in range(4)], n)
    moved = [(x + rng.uniform(-jitter, jitter), y + rng.uniform(-jitter, jitter)) for x, y in cells]
    return PointSet([Point(x, y) for x, y in moved])


def random_points(n, seed):
    """n seeded uniform points in the unit square; any n, odd included."""
    rng = random.Random(seed)
    return PointSet([Point(rng.random(), rng.random()) for _ in range(n)])


def brute_force_crossing(ps):
    """Reference for find_pairwise_crossing: scan all matchings in
    enumeration order with the segment predicate, which shares no code with
    the search's orientation table."""
    found, count = None, 0
    for m in enumerate_matchings(ps):
        segments = [(ps[i], ps[j]) for i, j in m.pairs]
        if all(segments_cross(*s, *t) for s, t in itertools.combinations(segments, 2)):
            count += 1
            if found is None:
                found = m
    return found, count


class TestIsPairwiseCrossing:
    def test_square_diagonals(self):
        report = is_pairwise_crossing(unit_square(), Matching([(0, 2), (1, 3)]))
        assert report.is_pairwise_crossing
        assert report.non_crossing_pair is None

    def test_square_sides_report_pair(self):
        report = is_pairwise_crossing(unit_square(), Matching([(0, 1), (2, 3)]))
        assert not report.is_pairwise_crossing
        assert report.non_crossing_pair == ((0, 1), (2, 3))

    def test_hexagon_long_diagonals(self):
        ps = regular_hexagon()
        report = is_pairwise_crossing(ps, Matching([(0, 3), (1, 4), (2, 5)]))
        assert report.is_pairwise_crossing

    def test_collinear_input_rejected(self):
        ps = PointSet([Point(0, 0), Point(1, 0), Point(2, 0), Point(0, 1)])
        with pytest.raises(GeneralPositionError):
            is_pairwise_crossing(ps, Matching([(0, 3), (1, 2)]))


class TestLeftOfTable:
    @staticmethod
    def brute_force(ps):
        """left[a][b] from ``orientation`` on every ordered triple."""
        n = len(ps)
        left = [[0] * n for _ in range(n)]
        for a, b, c in itertools.permutations(range(n), 3):
            if orientation(ps[a], ps[b], ps[c]) > 0:
                left[a][b] |= 1 << c
        return tuple(map(tuple, left))

    @pytest.mark.parametrize("n", range(4, 15))
    def test_random_sets(self, n):
        for seed in range(3):
            ps = random_points(n, seed=33_000 + 100 * n + seed)
            assert crossing._left_of(ps) == self.brute_force(ps)

    @pytest.mark.parametrize("n", [4, 6, 8, 10, 12, 14])
    def test_convex_sets(self, n):
        ps = gen_convex(n, seed=33_500 + n)
        assert crossing._left_of(ps) == self.brute_force(ps)

    @pytest.mark.parametrize("seed", range(4))
    def test_nearly_collinear_sets(self, seed, monkeypatch):
        # Lattice triples a few ulps off a line: the float filter leaves
        # some of them to the exact fallback.
        ps = jittered_lattice(12, seed=33_700 + seed, jitter=1e-15)
        exact = geometry._orientation_exact
        calls = []
        monkeypatch.setattr(
            geometry, "_orientation_exact", lambda *args: calls.append(args) or exact(*args)
        )
        assert crossing._left_of(ps) == self.brute_force(ps)
        assert calls

    def test_first_collinear_triple_named(self):
        # Two collinear triples, (0, 4, 5) on y = 0 and (1, 2, 3) on x = 1:
        # the error names the first in lexicographic order, though its
        # largest index comes last.
        coords = [(0, 0), (1, 1), (1, 3), (1, 4), (2, 0), (5, 0)]
        ps = PointSet([Point(x, y) for x, y in coords])
        collinear = [
            (a, b, c)
            for a, b, c in itertools.combinations(range(6), 3)
            if orientation(ps[a], ps[b], ps[c]) == 0
        ]
        assert collinear == [(0, 4, 5), (1, 2, 3)]
        with pytest.raises(GeneralPositionError, match="^points 0, 4, 5 are collinear$"):
            crossing._left_of(ps)
        assert "left_of" not in ps._memo


class TestHalfplaneBalance:
    def test_square_diagonals(self):
        assert halfplane_balance(unit_square(), Matching([(0, 2), (1, 3)]))

    def test_hexagon_two_per_side(self):
        assert halfplane_balance(regular_hexagon(), Matching([(0, 3), (1, 4), (2, 5)]))

    def test_non_crossing_input_rejected(self):
        with pytest.raises(ValueError):
            halfplane_balance(unit_square(), Matching([(0, 1), (2, 3)]))


class TestFindPairwiseCrossing:
    def test_square(self):
        found, count = find_pairwise_crossing(unit_square())
        assert count == 1
        assert found.pairs == ((0, 2), (1, 3))

    def test_hexagon(self):
        found, count = find_pairwise_crossing(regular_hexagon())
        assert count == 1
        assert found.pairs == ((0, 3), (1, 4), (2, 5))

    def test_point_inside_triangle_none(self):
        ps = PointSet([Point(0, 0), Point(4, 0), Point(2, 3), Point(2, 1)])
        found, count = find_pairwise_crossing(ps)
        assert found is None and count == 0

    @pytest.mark.parametrize(
        "family",
        [
            lambda n, seed: gen_random(n, seed=seed),
            lambda n, seed: gen_convex(n, seed=seed),
            jittered_lattice,
        ],
        ids=["random", "convex", "jittered-lattice"],
    )
    def test_matches_brute_force(self, family):
        existing = 0
        for n in (4, 6, 8, 10, 12):
            for i in range(10 if n < 12 else 2):
                ps = family(n, 34_000 + 100 * n + i)
                found, count = find_pairwise_crossing(ps)
                assert (found, count) == brute_force_crossing(ps)
                existing += count
        assert existing > 5  # the family exercises found matchings too

    @given(
        family=st.sampled_from([gen_random, gen_convex]),
        n=st.sampled_from([4, 6, 8, 10, 12]),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_relabelling(self, family, n, seed, data):
        ps = family(n, seed=seed)
        perm = data.draw(st.permutations(range(n)))
        moved = [None] * n
        for i, p in enumerate(ps.points):
            moved[perm[i]] = p
        found, count = find_pairwise_crossing(ps)
        found_moved, count_moved = find_pairwise_crossing(PointSet(moved))
        assert count_moved == count
        if found is None:
            assert found_moved is None
        else:
            assert found_moved == Matching((perm[i], perm[j]) for i, j in found.pairs)

    @pytest.mark.parametrize("n", range(14, 42, 2))
    def test_points_on_a_circle_beyond_enumeration(self, n):
        ps = circle_points(n, seed=35_000 + n)
        found, count = find_pairwise_crossing(ps)
        assert count == 1
        assert found == convex_diagonal_matching(ps)

    def test_no_enumeration_cap(self):
        # 14 points is above ENUMERATION_CAP; the search has no size cap.
        _, count = find_pairwise_crossing(gen_random(14, seed=36_000))
        assert count in (0, 1)

    def test_collinear_input_rejected(self):
        ps = PointSet([Point(0, 0), Point(1, 0), Point(2, 0), Point(0, 1)])
        with pytest.raises(GeneralPositionError, match="points 0, 1, 2 are collinear"):
            find_pairwise_crossing(ps)

    def test_odd_cardinality_rejected(self):
        ps = PointSet([Point(0, 0), Point(4, 0), Point(2, 3), Point(2, 1), Point(1, 5)])
        with pytest.raises(ValueError, match="odd"):
            find_pairwise_crossing(ps)


class TestVerifyGloballyMaximum:
    def test_square_diagonals(self):
        assert verify_globally_maximum(unit_square(), Matching([(0, 2), (1, 3)]))

    def test_hexagon(self):
        assert verify_globally_maximum(regular_hexagon(), Matching([(0, 3), (1, 4), (2, 5)]))

    def test_non_crossing_rejected(self):
        with pytest.raises(ValueError):
            verify_globally_maximum(unit_square(), Matching([(0, 1), (2, 3)]))

    def test_tolerance_is_relative_to_the_weight(self, monkeypatch):
        # At scale 1e-6 the diagonals weigh 6e-6; an oracle weight 1e-4
        # heavier must be seen, although it is heavier by only 6e-10.
        tiny = PointSet([Point(p.x * 1e-6, p.y * 1e-6) for p in regular_hexagon().points])
        diagonals = Matching([(0, 3), (1, 4), (2, 5)])
        assert verify_globally_maximum(tiny, diagonals)
        oracle, real_weight = crossing.optimal_matching, crossing.weight
        returned = []

        def traced_oracle(*args):
            returned.append(oracle(*args))
            return returned[-1]

        def inflated_weight(m, ps):
            return real_weight(m, ps) * (1.0 + 1e-4 if m is returned[-1] else 1.0)

        monkeypatch.setattr(crossing, "optimal_matching", traced_oracle)
        monkeypatch.setattr(crossing, "weight", inflated_weight)
        assert not verify_globally_maximum(tiny, diagonals)


class TestTheoremsOnRandomSets:
    def test_uniqueness_balance_locality_maximality(self):
        existing = 0
        for i in range(150):
            ps = gen_random(4 + 2 * (i % 4), seed=31_000 + i)
            found, count = find_pairwise_crossing(ps)
            assert count in (0, 1)
            if found is None:
                continue
            existing += 1
            assert halfplane_balance(ps, found)
            assert is_k_local_max(ps, found, 2).is_local_max
            assert verify_globally_maximum(ps, found)
        assert existing > 10  # the scan actually exercised the theorems

    def test_convex_position_always_unique(self):
        for i in range(30):
            n = 4 + 2 * (i % 4)
            ps = gen_convex(n, seed=32_000 + i)
            m = convex_diagonal_matching(ps)
            assert is_pairwise_crossing(ps, m).is_pairwise_crossing
            _, count = find_pairwise_crossing(ps)
            assert count == 1


class TestFullCrossingReport:
    def test_square_diagonals_full(self):
        report = full_crossing_report(unit_square(), Matching([(0, 2), (1, 3)]))
        assert report.is_pairwise_crossing
        assert report.balance_ok
        assert report.unique is True
        assert report.globally_maximum is True

    def test_unique_beyond_enumeration_maximum_beyond_oracle_cap(self):
        ps = circle_points(30, seed=37_000)
        report = full_crossing_report(ps, convex_diagonal_matching(ps))
        assert report.is_pairwise_crossing and report.balance_ok
        assert report.unique is True
        assert report.globally_maximum is None  # 30 points > the oracle's 2 * 13

    def test_one_orientation_per_triple(self, monkeypatch):
        # The crossing check, the uniqueness search and the maximality check
        # share one left-of table: C(26, 3) = 2,600 orientation calls on a
        # fresh point set (``ps`` keeps the table of the first report).
        ps = circle_points(26, seed=37_026)
        m = convex_diagonal_matching(ps)
        want = full_crossing_report(ps, m)
        calls = []
        orientation = crossing.orientation
        monkeypatch.setattr(
            crossing, "orientation", lambda *args: calls.append(args) or orientation(*args)
        )
        assert full_crossing_report(PointSet(ps.points), m) == want
        assert len(calls) == math.comb(26, 3)
        assert want.is_pairwise_crossing and want.balance_ok
        assert want.unique is True and want.globally_maximum is True

    def test_public_checks_share_one_sweep(self, monkeypatch):
        # The table is kept on the point set, so the four public checks on
        # one set orient each of its C(12, 3) = 220 triples once in total.
        ps = gen_convex(12, seed=37_012)
        calls = []
        orientation = crossing.orientation
        monkeypatch.setattr(
            crossing, "orientation", lambda *args: calls.append(args) or orientation(*args)
        )
        found, count = find_pairwise_crossing(ps)
        assert count == 1
        assert is_pairwise_crossing(ps, found).is_pairwise_crossing
        assert halfplane_balance(ps, found)
        assert verify_globally_maximum(ps, found)
        assert len(calls) == math.comb(12, 3)

    def test_non_crossing_partial(self):
        report = full_crossing_report(unit_square(), Matching([(0, 1), (2, 3)]))
        assert not report.is_pairwise_crossing
        assert report.unique is None and report.globally_maximum is None

    def test_crossing_weight_dominates_all_matchings(self):
        # Direct statement of the maximality theorem on a hexagon.
        ps = regular_hexagon()
        found, _ = find_pairwise_crossing(ps)
        w = weight(found, ps)
        assert all(weight(m, ps) <= w + 1e-12 for m in enumerate_matchings(ps))
