"""Tests for the matching oracle, locality checks, local search, and
cycle decomposition."""

import copy
import dataclasses
import hashlib
import itertools
import math
import pickle

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from localmatch import matching
from localmatch.certificates import certify
from localmatch.generators import MinerConfig, gen_circle_alternating, gen_random, mine_low_ratio
from localmatch.geometry import DEFAULT_TOL, Point
from localmatch.matching import (
    ENUMERATION_CAP,
    CapExceededError,
    Matching,
    PointSet,
    cycle_decomposition,
    enumerate_matchings,
    greedy_matching,
    is_k_local_max,
    is_k_local_min,
    k_local_search,
    optimal_matching,
    ratio_report,
    weight,
)

SQRT2 = math.sqrt(2.0)


def unit_square():
    return PointSet([Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)])


def regular_polygon(n):
    return PointSet(
        [Point(math.cos(2 * math.pi * i / n), math.sin(2 * math.pi * i / n)) for i in range(n)]
    )


def similar_image(points, theta, exponent, shift):
    """`points` rotated by theta, shifted and scaled by 10**exponent."""
    c, s, scale = math.cos(theta), math.sin(theta), 10.0**exponent
    return [
        Point(scale * (c * p.x - s * p.y + shift[0]), scale * (s * p.x + c * p.y + shift[1]))
        for p in points
    ]


def perturbed(base, rng, count, scale):
    """`count` point sets, each `base` with one point moved by Gaussian
    noise of the given scale."""
    sets = []
    while len(sets) < count:
        points = list(base.points)
        i = int(rng.integers(len(points)))
        dx, dy = scale * rng.standard_normal(2)
        points[i] = Point(points[i].x + dx, points[i].y + dy)
        sets.append(PointSet(points))
    return sets


def brute_force_weight(ps, objective="maximize"):
    pick = max if objective == "maximize" else min
    return pick(weight(m, ps) for m in enumerate_matchings(ps))


class TestPointSet:
    def test_rejects_coincident_points(self):
        with pytest.raises(ValueError):
            PointSet([Point(0, 0), Point(0, 0), Point(1, 0), Point(2, 3)])

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_coincidence_is_relative_to_diameter(self, scale):
        # Two points 5e-4 apart in a unit square: distinct at every scale.
        xy = [(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0.5), (0.5005, 0.5)]
        PointSet([Point(x * scale, y * scale) for x, y in xy])
        with pytest.raises(ValueError, match="points 4 and 5 coincide"):
            PointSet([Point(x * scale, y * scale) for x, y in xy[:5] + [xy[4]]])

    def test_distance_matrix(self):
        ps = unit_square()
        assert ps.dist[0][2] == pytest.approx(SQRT2)
        assert ps.dist[1][1] == 0.0

    @given(
        st.integers(0, 10**6),
        st.integers(1, 14),
        st.floats(0.0, 2.0 * math.pi),
        st.floats(-6.0, 6.0),
        st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
    )
    @settings(max_examples=60, deadline=None)
    def test_distances_are_the_coincidence_checks_gaps(self, seed, n, theta, exponent, shift):
        ps = PointSet(similar_image(gen_random(14, seed=seed).points[:n], theta, exponent, shift))
        assert "dist" not in ps.__dict__  # built on first use only
        cs = ps.coords
        for i, row in enumerate(ps.dist):
            assert [d.hex() for d in row] == [math.dist(cs[i], c).hex() for c in cs]
            assert row[i] == 0.0
            assert all(row[j] == ps.dist[j][i] for j in range(n))
        assert "_gaps" not in ps.__dict__
        assert ps.diameter == max(map(max, ps.dist))
        assert ps._dist_array.tolist() == [list(row) for row in ps.dist]

    @given(
        st.integers(0, 10**6),
        st.integers(4, 14),
        st.floats(0.0, 2.0 * math.pi),
        st.floats(-6.0, 6.0),
        st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_coincidence_error_unchanged(self, seed, n, theta, exponent, shift, rnd):
        # One or two points copied onto others, or moved within eps_geom of
        # them: the message names the first pair that math.hypot gaps flag.
        points = similar_image(gen_random(14, seed=seed).points[:n], theta, exponent, shift)
        scale = max(math.dist(p.as_tuple(), q.as_tuple()) for p in points for q in points)
        chosen = rnd.sample(range(n), 4)
        for i, j in zip(chosen[: rnd.choice([2, 4]) : 2], chosen[1::2]):
            nudge = 1e-11 * scale * rnd.randint(0, 1)
            points[j] = Point(points[i].x + nudge, points[i].y)
        pairs = list(itertools.combinations(range(n), 2))
        gaps = [math.hypot(points[a].x - points[b].x, points[a].y - points[b].y) for a, b in pairs]
        flagged = [pair for pair, gap in zip(pairs, gaps) if gap <= 1e-9 * max(gaps)]
        assume(flagged)  # a moved twin may stay clear of a shrunken diameter
        a, b = flagged[0]
        with pytest.raises(ValueError) as raised:
            PointSet(points)
        assert str(raised.value) == f"points {a} and {b} coincide: {points[a]} ~ {points[b]}"


class TestMatchingType:
    def test_normalizes_pairs(self):
        m = Matching([(3, 0), (2, 1)])
        assert m.pairs == ((0, 3), (1, 2))

    def test_rejects_reused_index(self):
        with pytest.raises(ValueError):
            Matching([(0, 1), (1, 2)])

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Matching([(2, 2)])

    def test_pairs_are_frozen(self):
        m = Matching([(0, 1)])
        with pytest.raises(dataclasses.FrozenInstanceError):
            m.pairs = ((2, 3),)
        assert m.pairs == ((0, 1),) and not hasattr(m, "__dict__")

    def test_equality_and_hash_go_by_pairs(self):
        a, b = Matching([(3, 0), (2, 1)]), Matching([(1, 2), (0, 3)])
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != Matching([(0, 1), (2, 3)])

    def test_copy_and_pickle_round_trip(self):
        m = Matching([(3, 0), (2, 1)])
        copies = [copy.copy(m), copy.deepcopy(m)]
        copies += [pickle.loads(pickle.dumps(m, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
        for c in copies:
            assert type(c) is Matching and c == m and c.pairs == ((0, 3), (1, 2))


class TestWeight:
    def test_single_edge(self):
        ps = PointSet([Point(0, 0), Point(3, 4)])
        assert weight(Matching([(0, 1)]), ps) == 5.0

    def test_two_unit_edges(self):
        ps = PointSet([Point(0, 0), Point(1, 0), Point(0, 5), Point(1, 5)])
        assert weight(Matching([(0, 1), (2, 3)]), ps) == 2.0

    def test_empty(self):
        assert weight(Matching([]), PointSet([])) == 0.0

    def test_index_out_of_range(self):
        with pytest.raises(IndexError, match=r"^pair \(0, 7\) out of range for 4 points$"):
            weight(Matching([(0, 7)]), unit_square())

    # A bare dist[-1] would wrap round to the last point without an error.
    @pytest.mark.parametrize(
        "pairs",
        [[(-1, 0)], [(-3, -2)], [(4, 5)], [(0, 1), (2, 4)], [(0, 1), (4, 6)], [(-1, 4), (0, 1)]],
    )
    def test_other_indices_out_of_range(self, pairs):
        ((i, j),) = [(i, j) for i, j in pairs if i < 0 or j >= 4]
        with pytest.raises(IndexError, match=rf"^pair \({i}, {j}\) out of range for 4 points$"):
            weight(Matching(pairs), unit_square())

    def test_adds_left_to_right_on_every_matching(self):
        ps = gen_random(10, seed=4)
        for m in enumerate_matchings(ps):
            total = 0.0
            for i, j in m.pairs:
                total = total + ps.dist[i][j]
            assert weight(m, ps).hex() == total.hex()


class TestOptimalMatching:
    def test_two_points(self):
        ps = PointSet([Point(0, 0), Point(1, 2)])
        assert optimal_matching(ps).pairs == ((0, 1),)

    def test_square_maximize_takes_diagonals(self):
        ps = unit_square()
        m = optimal_matching(ps, "maximize")
        assert m.pairs == ((0, 2), (1, 3))
        assert weight(m, ps) == pytest.approx(2 * SQRT2)

    def test_square_minimize_takes_opposite_sides(self):
        ps = unit_square()
        m = optimal_matching(ps, "minimize")
        assert weight(m, ps) == pytest.approx(2.0)
        assert m.pairs == ((0, 1), (2, 3))  # lexicographically smallest optimum

    def test_odd_cardinality_rejected(self):
        with pytest.raises(ValueError):
            optimal_matching(PointSet([Point(0, 0), Point(1, 0), Point(0, 1)]))

    def test_cap(self):
        ps = gen_random(8, seed=0)
        with pytest.raises(CapExceededError):
            optimal_matching(ps, cap=3)

    def test_matches_enumeration_both_objectives(self):
        for i in range(120):
            ps = gen_random(4 + 2 * (i % 4), seed=9000 + i)
            for objective in ("maximize", "minimize"):
                w = weight(optimal_matching(ps, objective), ps)
                assert w == pytest.approx(
                    brute_force_weight(ps, objective), rel=1e-9
                )


# Pairs the oracle returns on tie-rich and random instances, as
# (maximize, minimize).  The square and the grid have exact ties, so these
# literals pin the ascending partner scan and the strict-improvement
# tie-break that locality reports and rematches depend on.
GOLDEN_PAIRS = {
    "square": (
        ((0, 2), (1, 3)),
        ((0, 1), (2, 3)),
    ),
    "hexagon": (
        ((0, 3), (1, 4), (2, 5)),
        ((0, 5), (1, 2), (3, 4)),
    ),
    "octagon": (
        ((0, 4), (1, 5), (2, 6), (3, 7)),
        ((0, 1), (2, 3), (4, 5), (6, 7)),
    ),
    "grid4x4": (
        ((0, 10), (1, 14), (2, 13), (3, 12), (4, 11), (5, 15), (6, 9), (7, 8)),
        ((0, 1), (2, 3), (4, 5), (6, 7), (8, 9), (10, 11), (12, 13), (14, 15)),
    ),
    "circle8": (
        ((0, 8), (1, 9), (2, 10), (3, 11), (4, 12), (5, 13), (6, 14), (7, 15)),
        ((0, 15), (1, 2), (3, 4), (5, 6), (7, 8), (9, 10), (11, 12), (13, 14)),
    ),
    "random10": (
        ((0, 2), (1, 8), (3, 7), (4, 5), (6, 9)),
        ((0, 7), (1, 9), (2, 4), (3, 8), (5, 6)),
    ),
    "random16": (
        ((0, 14), (1, 13), (2, 12), (3, 6), (4, 5), (7, 11), (8, 10), (9, 15)),
        ((0, 7), (1, 10), (2, 13), (3, 4), (5, 6), (8, 15), (9, 12), (11, 14)),
    ),
    "random20": (
        ((0, 11), (1, 13), (2, 17), (3, 7), (4, 5), (6, 18), (8, 10), (9, 19), (12, 14), (15, 16)),
        ((0, 17), (1, 10), (2, 13), (3, 11), (4, 18), (5, 6), (7, 19), (8, 14), (9, 16), (12, 15)),
    ),
}


def golden_instance(name):
    if name == "square":
        return unit_square()
    if name == "hexagon":
        return regular_polygon(6)
    if name == "octagon":
        return regular_polygon(8)
    if name == "grid4x4":
        return PointSet([Point(x, y) for y in range(4) for x in range(4)])
    if name == "circle8":
        return gen_circle_alternating(8, 0.01)[0]
    return gen_random(int(name.removeprefix("random")), seed=0)


class TestOracleTieBreak:
    @pytest.mark.parametrize("name", sorted(GOLDEN_PAIRS))
    def test_pairs_match_golden(self, name):
        ps = golden_instance(name)
        want_max, want_min = GOLDEN_PAIRS[name]
        assert optimal_matching(ps, "maximize").pairs == want_max
        assert optimal_matching(ps, "minimize").pairs == want_min


class TestOracleAgainstBlossom:
    """Independent check of the subset DP at sizes enumeration cannot reach,
    against Edmonds' blossom algorithm as implemented by networkx."""

    @pytest.mark.parametrize("n", [20, 22, 24, 26])
    def test_weights_match_networkx(self, n):
        nx = pytest.importorskip("networkx")
        ps = gen_random(n, seed=4000 + n)
        g = nx.Graph()
        for i in range(n):
            for j in range(i + 1, n):
                g.add_edge(i, j, weight=ps.dist[i][j])
        for objective, nx_matching in (
            ("maximize", nx.max_weight_matching(g, maxcardinality=True)),
            ("minimize", nx.min_weight_matching(g)),
        ):
            assert len(nx_matching) == n // 2
            nx_weight = weight(Matching(nx_matching), ps)
            assert weight(optimal_matching(ps, objective), ps) == pytest.approx(
                nx_weight, rel=1e-9
            )


def batch_instances():
    """Random sets at every even n in 2..22, plus tie-rich ones: the 4x4
    grid, regular polygons and alternating circles."""
    for n in range(2, 24, 2):
        for seed in range(2):
            yield f"random{n}-{seed}", gen_random(n, seed=5000 + 10 * n + seed)
    yield "grid4x4", golden_instance("grid4x4")
    for n in (4, 6, 8, 12, 16, 20):
        yield f"polygon{n}", regular_polygon(n)
    for pairs in (3, 5, 8, 11):
        yield f"circle{pairs}", gen_circle_alternating(pairs, 0.01)[0]


class TestBatchedOracle:
    """The level-by-level numpy recurrence against the scalar memo DP: the
    same floats added in the same order, so weights agree bit for bit and
    pairs agree, ties included."""

    @pytest.mark.parametrize("objective", ["maximize", "minimize"])
    def test_equal_to_memo_dp(self, objective):
        for name, ps in batch_instances():
            n = len(ps)
            local = ps._dist_array[:, :, None]
            values, choices = matching._batch_optimal(local, objective, True)
            want_w, want_pairs = matching._dp_optimal(ps.dist, range(n), objective)
            assert float(values[0][0, 0]).hex() == want_w.hex(), name
            stacked = matching._stack_pairs(np.arange(n)[None, :], choices, np.arange(1))
            assert stacked[0].tolist() == [list(pair) for pair in want_pairs], name
            # The value path, which keeps no arg-extrema: the same values, and
            # the same pairs re-formed from them.
            alone, none = matching._batch_optimal(local, objective, False)
            assert none is None
            assert [a.tobytes() for a in alone] == [a.tobytes() for a in values], name
            got = matching._row_pairs(local, alone, 0, range(n))
            assert got == want_pairs, name
            assert all(type(i) is int for pair in got for i in pair)

    @pytest.mark.parametrize("objective", ["maximize", "minimize"])
    def test_many_rows_at_once(self, objective):
        ps = golden_instance("grid4x4")
        rng = np.random.default_rng(7)
        for k in (2, 4, 6, 8):
            rows = np.sort(np.array([rng.choice(16, k, replace=False) for _ in range(40)]), axis=1)
            local = ps._dist_array[rows.T[:, None], rows.T[None]]  # (k, k, 40)
            values, choices = matching._batch_optimal(local, objective, True)
            alone, _ = matching._batch_optimal(local, objective, False)
            stacked = matching._stack_pairs(rows, choices, np.arange(40))
            for r, row in enumerate(rows.tolist()):
                want_w, want_pairs = matching._dp_optimal(ps.dist, row, objective)
                assert float(values[0][0, r]).hex() == want_w.hex()
                assert float(alone[0][0, r]).hex() == want_w.hex()
                assert matching._row_pairs(local, alone, r, row) == want_pairs
                assert stacked[r].tolist() == [list(pair) for pair in want_pairs]

    @pytest.mark.parametrize("objective", ["maximize", "minimize"])
    @pytest.mark.parametrize("k", [4, 8])
    def test_stack_equals_each_row_alone(self, objective, k):
        # Tie-rich rows (index sets of the 4x4 grid) at heights up to one
        # past a chunk: each row's level values and arg-extrema on the stack
        # are byte for byte those it gets solved alone.
        ps = golden_instance("grid4x4")
        rng = np.random.default_rng(11)
        for height in (1, 2, matching._chunk_rows(k) + 1):
            rows = np.sort(np.array([rng.choice(16, k, replace=False) for _ in range(height)]), axis=1)
            local = ps._dist_array[rows.T[:, None], rows.T[None]]
            values, choices = matching._batch_optimal(local, objective, True)
            for r in range(height):
                row = np.ascontiguousarray(local[:, :, r : r + 1])
                alone, picks = matching._batch_optimal(row, objective, True)
                assert [a[:, r].tobytes() for a in values] == [a[:, 0].tobytes() for a in alone]
                assert [c[:, r].tobytes() for c in choices] == [c[:, 0].tobytes() for c in picks]

    def test_plan_sizes(self):
        plan = matching._plan(20)
        assert sum(level.lin.size // level.width for level in plan) == 10_945
        assert matching._transitions(20) == 89_665
        assert all(level.tails.dtype == np.uint16 for level in plan)
        # From 28 positions a level's state index exceeds uint16.
        plan = matching._plan(28)
        assert sum(level.lin.size // level.width for level in plan) == 514_228
        assert matching._transitions(28) == 6_052_062
        assert max(level.lin.size // level.width for level in plan) == 125_970
        assert {level.tails.dtype for level in plan} == {np.dtype(np.uint16), np.dtype(np.uint32)}

    def test_transitions_counted_without_a_plan(self):
        for k in range(2, 21, 2):
            assert matching._transitions(k) == sum(level.lin.size for level in matching._plan(k))
        assert matching._transitions(26) == 2_136_001

    @pytest.mark.parametrize(
        "k, digest",
        [
            (20, "a67b972b6acf1a03a4c45832aa08ed07a6bbfa0d07be73d15df3ba62ebca89b3"),
            (26, "7ededb26e3fe5cbb8c29bb10851407cde8a861d863ce5bde620a55cff151ce67"),
            (28, "4d40f62f0e04b7d0dc764d2d9d84f23511665def7966b7b6750068685d6cc9ff"),
        ],
    )
    def test_plan_bytes_unchanged(self, k, digest):
        # Digests of every level's lin and tails (dtype and bytes), recorded
        # from the np.unique-based build the current one replaced.
        h = hashlib.sha256()
        for level in matching._plan(k):
            for array in (level.lin, level.tails):
                h.update(array.dtype.str.encode())
                h.update(array.tobytes())
        assert h.hexdigest() == digest

    def test_raised_cap_runs_batched(self):
        # 28 points: above the default cap, solved by the batch with the
        # memo's weight and pairs.
        ps = gen_random(28, seed=5)
        want_w, want_pairs = matching._dp_optimal(ps.dist, range(28), "maximize")
        assert optimal_matching(ps, cap=14).pairs == want_pairs
        values, _ = matching._batch_optimal(ps._dist_array[:, :, None], "maximize", False)
        assert float(values[0][0, 0]).hex() == want_w.hex()

    def test_plan_arrays_read_only(self):
        for level in matching._plan(8):
            for array in (level.lin, level.tails):
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[0] = 0

    def test_oracle_selects_by_size(self, monkeypatch):
        # The scalar memo serves 8 points (97 transitions) and the batch 10
        # (332); either way the answer is the memo's.
        built, plan = [], matching._plan
        monkeypatch.setattr(matching, "_plan", lambda k: built.append(k) or plan(k))
        for n in (8, 10):
            ps = gen_random(n, seed=n)
            for objective in ("maximize", "minimize"):
                want = matching._dp_optimal(ps.dist, range(n), objective)[1]
                assert optimal_matching(ps, objective).pairs == want
        assert set(built) == {10}


class TestBatchedLocalSearch:
    """The stack forms the miner judges its candidates with, against
    k_local_search and the oracle on each point set alone, bit for bit."""

    @pytest.mark.parametrize("n, k", [(6, 1), (6, 2), (8, 2), (8, 3), (12, 3), (10, 5)])
    def test_equal_to_one_set_at_a_time(self, n, k):
        sets = [gen_random(n, seed=seed) for seed in range(12)]
        init = Matching((2 * i, 2 * i + 1) for i in range(n // 2))
        D = np.array([ps._dist_array for ps in sets])
        unknown = np.full((len(sets), math.comb(n // 2, k)), np.nan)
        optimum = matching._batch_max_weight(D)
        pairs, weights, _ = matching._batch_k_local_search(D, init, k, unknown, optimum, math.inf)
        swapped = 0
        for r, ps in enumerate(sets):
            want = k_local_search(ps, k, init)
            assert pairs[r].tolist() == [list(pair) for pair in want.pairs]
            assert float(weights[r]).hex() == weight(want, ps).hex()
            assert float(optimum[r]).hex() == weight(optimal_matching(ps), ps).hex()
            swapped += want != init
            # A stack of one set, as when a block keeps one candidate, runs
            # without arg-extrema (its scans re-form each rematch from the
            # DP's values) and gives the stacked row's result bit for bit.
            alone = matching._batch_k_local_search(
                D[r : r + 1], init, k, unknown[:1], optimum[r : r + 1], math.inf)
            assert alone[0][0].tobytes() == pairs[r].tobytes()
            assert alone[1][0].hex() == weights[r].hex()
        assert swapped or k == 1

    @pytest.mark.parametrize("k", [2, 3])
    def test_known_gaps_are_reused_and_hits_rescanned(self, k):
        # The gaps of init's subsets, as a first scan finds them: passing
        # them in, all or some, gives the result of scanning everything.  A
        # known gap that is a hit (here +inf) is scanned again, not trusted.
        sets = [gen_random(8, seed=100 + seed) for seed in range(16)]
        init = Matching((2 * i, 2 * i + 1) for i in range(4))
        D = np.array([ps._dist_array for ps in sets])
        combos = matching._combos(4, k)
        row, col = np.divmod(np.arange(len(sets) * len(combos)), len(combos))
        edges = np.array(init.pairs)[combos[col]]
        first, _, _ = matching._scan_rows(D, row, edges, np.full(len(sets), np.inf), "maximize")
        first = first.reshape(len(sets), len(combos))
        optimum = matching._batch_max_weight(D)
        unknown = np.full_like(first, np.nan)
        want = matching._batch_k_local_search(D, init, k, unknown, optimum, math.inf)
        rng = np.random.default_rng(k)
        for known in (first, np.where(rng.random(first.shape) < 0.5, np.nan, first),
                      np.where(rng.random(first.shape) < 0.5, np.inf, first)):
            got = matching._batch_k_local_search(D, init, k, known, optimum, math.inf)
            for a, b in zip(got, want):
                assert a.tobytes() == b.tobytes()
        assert (want[0] != np.array(init.pairs)).any()  # some searches swap

    @pytest.mark.parametrize("k", [2, 3])
    def test_bound_drops_only_rows_that_cannot_win(self, k):
        # Rows whose ratio reaches the incumbent stop searching.  The rows
        # that end below it equal the unbounded search bit for bit, and
        # every dropped row would have ended at or above it.  The base is a
        # mined k-local maximum below the optimum.  Three blocks: moves of it
        # under the median of their ratios; moves of the global maximum
        # under exactly 1.0, a plateau that every move keeping the optimum
        # ties; and the first block under the ratio a row reaches by its
        # first swap, which lifts it onto the incumbent.
        mined = mine_low_ratio(MinerConfig(k, 8, 1000, restarts=1, step_scale=0.15, seed=2))
        base, local = mined.point_set, mined.local_matching
        best = optimal_matching(base)
        assert local != best
        rng = np.random.default_rng(k)
        unknown = np.full((24, math.comb(4, k)), np.nan)

        def block(init, scale):
            sets = perturbed(base, rng, 24, scale)
            D = np.array([ps._dist_array for ps in sets])
            return sets, D, init, matching._batch_max_weight(D)

        def search(block, incumbent):
            _, D, init, optimum = block
            return matching._batch_k_local_search(D, init, k, unknown, optimum, incumbent)

        def check(block, incumbent):
            optimum = block[3]
            full, got = search(block, math.inf), search(block, incumbent)
            kept = got[1] / optimum < incumbent
            assert (full[1][~kept] / optimum[~kept] >= incumbent).all()
            for a, b in zip(got, full):
                assert a[kept].tobytes() == b[kept].tobytes()
            return got, kept

        moves, plateau = block(local, 0.05), block(best, 0.15)
        sets, _, _, optimum = moves
        full = search(moves, math.inf)
        _, kept = check(moves, float(np.median(full[1] / optimum)))
        assert kept.any() and not kept.all()
        starts = [weight(best, ps) / weight(optimal_matching(ps), ps) for ps in plateau[0]]
        assert 1.0 in starts and min(starts) < 1.0
        check(plateau, 1.0)
        swapped = np.flatnonzero((full[0] != np.array(local.pairs)).any(axis=(1, 2)))
        assert swapped.size
        # Stopped on the incumbent, right after its first swap.
        row = int(swapped[0])
        ps = sets[row]
        subset, rematch = matching._scan_k_subsets(ps, local, k, "maximize")
        first = Matching([p for p in local.pairs if p not in subset] + list(rematch))
        lifted = weight(first, ps) / weight(optimal_matching(ps), ps)
        got, kept = check(moves, lifted)
        assert not kept[row] and got[1][row] / optimum[row] == lifted
        assert got[0][row].tolist() == [list(p) for p in first.pairs]

    @pytest.mark.parametrize("objective", ["maximize", "minimize"])
    def test_chunked_scan_rows_equal_one_call(self, objective, monkeypatch):
        # Chunks of one to a few rows split owners across chunk borders;
        # each owner's first hit and its rematch stay those of one call.
        sets = [gen_random(8, seed=300 + seed) for seed in range(12)]
        init = Matching((2 * i, 2 * i + 1) for i in range(4))
        D = np.array([ps._dist_array for ps in sets])
        combos = matching._combos(4, 2)
        row, col = np.divmod(np.arange(len(sets) * len(combos)), len(combos))
        edges = np.array(init.pairs)[combos[col]]
        limit = np.where(np.arange(len(sets)) % 3, 0.0, np.inf)  # every third owner never hits

        def run():
            return (*matching._scan_rows(D, row, edges, limit, objective), matching._batch_max_weight(D))

        want = run()
        assert 0 < len(want[1]) < len(sets)  # some owners hit, not all
        assert len(np.unique(row[want[1]])) == len(want[1])
        assert want[2].shape == (len(want[1]), 2, 2) and want[2].dtype == np.intp
        for rows in (1, 2, 5):
            monkeypatch.setattr(matching, "_chunk_rows", lambda k: rows)
            got = run()
            for a, b in zip(got, want):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()


def scan(ps, m, k, objective, min_work, monkeypatch):
    monkeypatch.setattr(matching, "_BATCH_MIN_WORK", min_work)
    return matching._scan_k_subsets(ps, m, k, objective)


class TestBatchedScan:
    @pytest.mark.parametrize("objective", ["maximize", "minimize"])
    def test_equal_to_loop(self, objective, monkeypatch):
        # Sizes on both sides of the selection constant: 3 x 6 = 18
        # transitions (n = 6, k = 2) up to 210 x 97 (n = 20, k = 4).  Each
        # side scans greedy (violations) and a matching with a clean scan.
        below = above = 0
        min_work = matching._BATCH_MIN_WORK
        for i in range(48):
            n = 6 + 2 * (i % 8)
            k = min(2 + i % 3, n // 2)
            ps = gen_random(n, seed=6000 + i)
            if objective == "maximize":
                clean = k_local_search(ps, k)
            else:
                clean = optimal_matching(ps, objective)
            for m in (greedy_matching(ps), clean):
                loop = scan(ps, m, k, objective, math.inf, monkeypatch)
                batch = scan(ps, m, k, objective, 1, monkeypatch)
                assert batch == loop, (n, k)
                if batch:  # the rematch as tuples of ints, as the loop gives it
                    assert all(type(i) is int for pair in batch[1] for i in pair)
            if math.comb(n // 2, k) * matching._transitions(2 * k) >= min_work:
                above += 1
            else:
                below += 1
        assert below and above

    @pytest.mark.parametrize("objective", ["maximize", "minimize"])
    @pytest.mark.parametrize("k", [2, 3])
    def test_stack_rematch_equals_one_set_scan(self, objective, k):
        # On a stack of several point sets each owner's first hit and its
        # rematch, read off the arg-extrema as one (h, k, 2) array, are the
        # single-set scan's, which returns them as a tuple of (int, int)
        # tuples.  Every third owner holds its optimum, whose scan is clean.
        sets = [gen_random(8, seed=700 + seed) for seed in range(12)]
        init = Matching((2 * i, 2 * i + 1) for i in range(4))
        ms = [optimal_matching(ps, objective) if r % 3 == 0 else init for r, ps in enumerate(sets)]
        D = np.array([ps._dist_array for ps in sets])
        combos = matching._combos(4, k)
        row, col = np.divmod(np.arange(len(sets) * len(combos)), len(combos))
        edges = np.array([m.pairs for m in ms])[row[:, None], combos[col]]
        limit = np.array([DEFAULT_TOL.eps_geom * weight(m, ps) for m, ps in zip(ms, sets)])
        _, picks, rematch = matching._scan_rows(D, row, edges, limit, objective)
        assert 1 < len(picks) < len(sets)
        assert rematch.shape == (len(picks), k, 2) and rematch.dtype == np.intp
        got = {int(row[p]): (edges[p].tolist(), r.tolist()) for p, r in zip(picks, rematch)}
        for owner, (ps, m) in enumerate(zip(sets, ms)):
            want = matching._scan_k_subsets(ps, m, k, objective)
            if want is None:
                assert owner not in got, owner
                continue
            assert got[owner] == ([list(p) for p in want[0]], [list(p) for p in want[1]]), owner
            for pairs in want:
                assert type(pairs) is tuple
                assert all(type(pair) is tuple and type(i) is int for pair in pairs for i in pair)

    def test_circle_verdicts_pin_criterion_9(self, monkeypatch):
        # Criterion 9's threshold from both sides, by both scans: adjacent
        # unit chords violate 2-locality at 22 pairs; none do at 23.
        ps, red = gen_circle_alternating(22, 0.01)
        report = is_k_local_min(ps, red, 2)
        assert report.violating_subset == ((0, 1), (2, 3))
        assert scan(ps, red, 2, "minimize", math.inf, monkeypatch)[0] == ((0, 1), (2, 3))
        ps, red = gen_circle_alternating(23, 0.01)
        assert is_k_local_min(ps, red, 2).is_local_max
        assert scan(ps, red, 2, "minimize", math.inf, monkeypatch) is None


class TestEnumerateMatchings:
    @pytest.mark.parametrize("n,count", [(2, 1), (4, 3), (6, 15), (8, 105), (10, 945), (12, 10395)])
    def test_counts(self, n, count):
        ps = gen_random(n, seed=n)
        assert sum(1 for _ in enumerate_matchings(ps)) == count

    def test_distinct_and_perfect(self):
        ps = gen_random(8, seed=1)
        seen = set()
        for m in enumerate_matchings(ps):
            assert m.is_perfect_on(ps)
            assert m.pairs not in seen
            seen.add(m.pairs)

    def test_cap(self):
        with pytest.raises(CapExceededError):
            list(enumerate_matchings(gen_random(14, seed=2)))

    @pytest.mark.parametrize("n", [0, 2, 4, 6, 8])
    def test_order_is_lowest_free_index_first(self, n):
        # Pairing the lowest free index first, partners ascending, is the
        # lexicographic order of the sorted pair tuples; build that order
        # independently from every permutation of range(n).
        reference = sorted(
            {
                tuple(sorted((min(a, b), max(a, b)) for a, b in zip(perm[::2], perm[1::2])))
                for perm in itertools.permutations(range(n))
            }
        )
        ps = gen_random(n, seed=n) if n else PointSet([])
        assert [m.pairs for m in enumerate_matchings(ps)] == reference

    def test_successive_calls_share_one_table(self):
        ps = gen_random(10, seed=3)
        first = [m.pairs for m in enumerate_matchings(ps)]
        second = [m.pairs for m in enumerate_matchings(ps)]
        assert first == second
        assert all(a is b for a, b in zip(first, second))

    @pytest.mark.parametrize("n,error", [(7, ValueError), (14, CapExceededError)])
    def test_rejected_sizes_build_no_table(self, n, error):
        ps = PointSet(gen_random(n + n % 2, seed=5).points[:n])
        before = matching._pairings.cache_info()
        with pytest.raises(error):
            next(enumerate_matchings(ps))
        assert matching._pairings.cache_info() == before

    def test_outputs_pinned(self):
        # Digest of every yielded matching's pairs and weight, recorded from
        # the enumeration that built a new Matching per yield.
        h = hashlib.sha256()
        for n in range(2, ENUMERATION_CAP + 1, 2):
            ps = gen_random(n, seed=n)
            for m in enumerate_matchings(ps):
                h.update(repr(m.pairs).encode())
                h.update(weight(m, ps).hex().encode())
        assert h.hexdigest() == "6adaf7673cce20b13d4d95c1475fd94c7b02009f17ea36589230543ac19080df"

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
    def test_equal_to_constructed_matchings(self, n):
        ms = list(enumerate_matchings(gen_random(n, seed=n)))
        assert len(ms) == math.prod(range(n - 1, 0, -2))
        assert len(set(ms)) == len(ms)
        for m in ms:
            built = Matching(m.pairs)
            assert m == built and m.pairs == built.pairs and hash(m) == hash(built)


class TestIsKLocal:
    def test_any_matching_is_1_local(self):
        for seed in range(5):
            ps = gen_random(8, seed=seed)
            worst = min(enumerate_matchings(ps), key=lambda m: weight(m, ps))
            assert is_k_local_max(ps, worst, 1).is_local_max

    def test_square_sides_violate_k2(self):
        ps = unit_square()
        report = is_k_local_max(ps, Matching([(0, 1), (2, 3)]), 2)
        assert not report.is_local_max
        assert report.violating_subset == ((0, 1), (2, 3))

    def test_square_diagonals_pass_k2(self):
        ps = unit_square()
        assert is_k_local_max(ps, Matching([(0, 2), (1, 3)]), 2).is_local_max

    def test_k_out_of_range(self):
        ps = unit_square()
        with pytest.raises(ValueError):
            is_k_local_max(ps, Matching([(0, 2), (1, 3)]), 3)

    def test_global_maximum_is_k_local_for_every_k(self):
        for seed in range(30):
            ps = gen_random(4 + 2 * (seed % 4), seed=300 + seed)
            opt = optimal_matching(ps)
            for k in range(1, len(opt) + 1):
                assert is_k_local_max(ps, opt, k).is_local_max

    def test_locality_is_monotone_downward(self):
        # Passing at k implies passing at every smaller k.
        for seed in range(40):
            ps = gen_random(8, seed=600 + seed)
            for m in itertools.islice(enumerate_matchings(ps), 20):
                verdicts = [
                    is_k_local_max(ps, m, k).is_local_max for k in range(1, 5)
                ]
                for small, big in zip(verdicts, verdicts[1:]):
                    if big:
                        assert small

    def test_min_variant_mirrors_max(self):
        ps = unit_square()
        sides = Matching([(0, 1), (2, 3)])
        assert is_k_local_min(ps, sides, 2).is_local_max
        diag = Matching([(0, 2), (1, 3)])
        assert not is_k_local_min(ps, diag, 2).is_local_max


class TestKLocalSearch:
    def test_square_sides_improve_to_diagonals(self):
        ps = unit_square()
        out = k_local_search(ps, 2, init=Matching([(0, 1), (2, 3)]))
        assert out.pairs == ((0, 2), (1, 3))

    def test_fixpoint_returned_unchanged(self):
        ps = unit_square()
        diag = Matching([(0, 2), (1, 3)])
        assert k_local_search(ps, 2, init=diag) is diag

    def test_output_is_k_local_and_not_worse_than_init(self):
        for seed in range(25):
            ps = gen_random(6 + 2 * (seed % 3), seed=1200 + seed)
            init = greedy_matching(ps)
            for k in (2, 3):
                out = k_local_search(ps, k, init=init)
                assert is_k_local_max(ps, out, k).is_local_max
                assert weight(out, ps) >= weight(init, ps) - 1e-12

    def test_three_local_search_hits_sqrt3_over_2(self):
        for seed in range(20):
            ps = gen_random(6, seed=1400 + seed)
            out = k_local_search(ps, 3)
            oracle = brute_force_weight(ps)
            assert weight(out, ps) >= (math.sqrt(3) / 2 - 1e-9) * oracle

    def test_weight_sequence_strictly_increases(self):
        # Re-drive the search one swap at a time through the public
        # interface: apply the reported violating subset's optimal
        # re-matching and watch the weight climb to the search's fixpoint.
        for seed in range(10):
            ps = gen_random(8, seed=1800 + seed)
            m = min(enumerate_matchings(ps), key=lambda m: weight(m, ps))
            weights = [weight(m, ps)]
            for _ in range(200):
                report = is_k_local_max(ps, m, 2)
                if report.is_local_max:
                    break
                subset = set(report.violating_subset)
                endpoints = sorted(i for pair in subset for i in pair)
                sub = PointSet([ps[i] for i in endpoints])
                repl = optimal_matching(sub, "maximize")
                kept = [p for p in m.pairs if p not in subset]
                kept += [(endpoints[i], endpoints[j]) for i, j in repl.pairs]
                m = Matching(kept)
                weights.append(weight(m, ps))
            else:
                pytest.fail("local search did not terminate")
            assert all(b > a for a, b in zip(weights, weights[1:]))
            assert m.pairs == k_local_search(ps, 2, init=min(
                enumerate_matchings(ps), key=lambda m: weight(m, ps)
            )).pairs

    def test_greedy_takes_longest_edge_first_ties_by_index(self):
        # Grids and regular polygons have many equal lengths.
        grid = PointSet([Point(x, y) for x in range(3) for y in range(4)])
        kite = PointSet([Point(0, 0), Point(1, 0), Point(2, 0), Point(1, 5)])  # (0, 3) ties (2, 3)
        for ps in (unit_square(), kite, regular_polygon(8), grid, gen_random(12, seed=1700)):
            n, dist = len(ps), ps.dist
            edges = sorted(itertools.combinations(range(n), 2), key=lambda e: (-dist[e[0]][e[1]], e))
            want, used = [], set()
            for i, j in edges:
                if not used & {i, j}:
                    want.append((i, j))
                    used |= {i, j}
            assert greedy_matching(ps).pairs == tuple(sorted(want))

    def test_greedy_init_is_half_approximation(self):
        for seed in range(20):
            ps = gen_random(8, seed=1600 + seed)
            g = greedy_matching(ps)
            assert weight(g, ps) >= 0.5 * brute_force_weight(ps) - 1e-12


class TestCycleDecomposition:
    def test_identical_matchings_all_shared(self):
        ps = gen_random(8, seed=7)
        m = optimal_matching(ps)
        dec = cycle_decomposition(m, m)
        assert dec.shared == m.pairs
        assert dec.cycles == ()

    def test_square_sides_vs_diagonals(self):
        dec = cycle_decomposition(Matching([(0, 1), (2, 3)]), Matching([(0, 2), (1, 3)]))
        assert dec.shared == ()
        assert len(dec.cycles) == 1
        assert len(dec.cycles[0].vertices) == 4

    def test_six_point_disjoint_matchings_single_cycle(self):
        m1 = Matching([(0, 1), (2, 3), (4, 5)])
        m2 = Matching([(1, 2), (3, 4), (0, 5)])
        dec = cycle_decomposition(m1, m2)
        assert len(dec.cycles) == 1
        cycle = dec.cycles[0]
        assert len(cycle.vertices) == 6
        assert set(cycle.first_edges()) == set(m1.pairs)
        assert {tuple(sorted(e)) for e in cycle.second_edges()} == set(m2.pairs)

    def test_mismatched_point_sets(self):
        with pytest.raises(ValueError):
            cycle_decomposition(Matching([(0, 1)]), Matching([(2, 3)]))

    def test_alternation_on_random_instances(self):
        for seed in range(20):
            ps = gen_random(10, seed=2000 + seed)
            m1 = greedy_matching(ps)
            m2 = optimal_matching(ps)
            dec = cycle_decomposition(m1, m2)
            edges1 = set(m1.pairs)
            edges2 = set(m2.pairs)
            for cycle in dec.cycles:
                assert len(cycle.vertices) >= 4 and len(cycle.vertices) % 2 == 0
                for e in cycle.first_edges():
                    assert tuple(sorted(e)) in edges1
                for e in cycle.second_edges():
                    assert tuple(sorted(e)) in edges2


class TestRatioReport:
    def test_global_maximum_has_ratio_one(self):
        ps = gen_random(8, seed=42)
        m = optimal_matching(ps)
        rep = ratio_report(ps, m, 2)
        assert rep.ratio == pytest.approx(1.0)
        assert rep.is_local_max

    def test_two_local_bound(self):
        for seed in range(15):
            ps = gen_random(6 + 2 * (seed % 3), seed=2500 + seed)
            m = k_local_search(ps, 2)
            rep = ratio_report(ps, m, 2)
            assert rep.is_local_max
            assert rep.ratio >= math.sqrt(3.0 / 7.0) - 1e-9

    def test_three_local_bound(self):
        for seed in range(15):
            ps = gen_random(6 + 2 * (seed % 3), seed=2700 + seed)
            m = k_local_search(ps, 3)
            rep = ratio_report(ps, m, 3)
            assert rep.is_local_max
            assert rep.ratio >= math.sqrt(3.0) / 2.0 - 1e-9

    def test_cap_enforced(self):
        ps = gen_random(8, seed=3)
        with pytest.raises(CapExceededError):
            ratio_report(ps, optimal_matching(ps), 2, cap=2)


def count_solves(monkeypatch, n):
    """Records the oracle's solves on all n points (by objective) and the
    k-subset scans (by pairs, k and objective) from here on."""
    oracle, scans = [], []
    dp, batch, scan_k = matching._dp_optimal, matching._batch_optimal, matching._scan_k_subsets

    def counted_dp(dist, indices, objective):
        if len(indices) == n:
            oracle.append(objective)
        return dp(dist, indices, objective)

    def counted_batch(local, objective, with_choices):
        if local.shape[1] == n:
            oracle.append(objective)
        return batch(local, objective, with_choices)

    def counted_scan(ps, m, k, objective):
        scans.append((m.pairs, k, objective))
        return scan_k(ps, m, k, objective)

    monkeypatch.setattr(matching, "_dp_optimal", counted_dp)
    monkeypatch.setattr(matching, "_batch_optimal", counted_batch)
    monkeypatch.setattr(matching, "_scan_k_subsets", counted_scan)
    return oracle, scans


class TestDerivedOnce:
    """A point set keeps its oracle optima and scan verdicts: each is
    computed once, equals a fresh point set's, and the argument checks
    still run on every call."""

    @pytest.mark.parametrize("n", [8, 10])  # the oracle's scalar and batched paths
    def test_certificate_chain_scans_and_solves_once(self, n, monkeypatch):
        ps = gen_random(n, seed=2100 + n)
        oracle, scans = count_solves(monkeypatch, n)
        m = k_local_search(ps, 3)
        assert is_k_local_max(ps, m, 3).is_local_max
        certs = [certify(ps, m, kind) for kind in ("local3_sqrt2", "local3_fingerhut")]
        assert scans.count((m.pairs, 3, "maximize")) == 1
        assert len(set(scans)) == len(scans)
        assert oracle == ["maximize"]
        fresh = PointSet(ps.points)
        assert certs == [certify(fresh, m, kind) for kind in ("local3_sqrt2", "local3_fingerhut")]
        assert oracle == ["maximize"] * 2

    def test_memoised_verdicts_equal_fresh_ones(self):
        violations = {"maximize": 0, "minimize": 0}
        for seed in range(6):
            ps = gen_random(10, seed=2200 + seed)
            consecutive = Matching((2 * i, 2 * i + 1) for i in range(5))
            for m in (greedy_matching(ps), k_local_search(ps, 2), consecutive,
                      optimal_matching(ps, "minimize")):
                for k in (1, 2, 3):
                    for objective, check in (("maximize", is_k_local_max), ("minimize", is_k_local_min)):
                        first, again = check(ps, m, k), check(ps, m, k)
                        assert first == again == check(PointSet(ps.points), m, k)
                        violations[objective] += not first.is_local_max
                assert ratio_report(ps, m, 2) == ratio_report(PointSet(ps.points), m, 2)
            assert optimal_matching(ps) is optimal_matching(ps)
        assert all(violations.values())

    def test_cap_is_checked_after_a_cached_optimum(self):
        ps = gen_random(10, seed=2300)
        optimal_matching(ps)
        with pytest.raises(CapExceededError):
            optimal_matching(ps, cap=len(ps) // 2 - 1)
        with pytest.raises(CapExceededError):
            ratio_report(ps, k_local_search(ps, 2), 2, cap=len(ps) // 2 - 1)
        with pytest.raises(ValueError, match="objective"):
            optimal_matching(ps, "maximise")

    def test_arguments_are_checked_after_a_cached_verdict(self):
        ps = gen_random(8, seed=2400)
        m = k_local_search(ps, 4)  # caches the 4-subset scan of its result
        assert is_k_local_max(ps, m, 2).is_local_max
        for k in (0, 5):
            with pytest.raises(ValueError, match="k must lie"):
                is_k_local_max(ps, m, k)
        partial = Matching(m.pairs[1:])
        for check in (is_k_local_max, is_k_local_min):
            with pytest.raises(ValueError, match="cover every point"):
                check(ps, partial, 2)
        with pytest.raises(IndexError):
            is_k_local_max(ps, Matching(m.pairs[1:] + ((m.pairs[0][0], 8),)), 2)
        with pytest.raises(ValueError, match="cover every point"):
            k_local_search(ps, 2, init=partial)


def locality_margin(ps, m, k):
    """Largest gain of re-matching a k-subset of m optimally on its own
    endpoints, relative to w(m); the scans flag a violation when it exceeds
    eps_geom."""
    gains = []
    for subset in itertools.combinations(m.pairs, k):
        ends = [i for pair in subset for i in pair]
        sub = PointSet([ps[i] for i in ends])
        gains.append(weight(optimal_matching(sub), sub) - sum(ps.dist[i][j] for i, j in subset))
    return max(gains) / weight(m, ps)


class TestMatchingLayerInvariance:
    """Aim 3: rotating, scaling (1e-6 to 1e6), shifting and relabelling an
    instance moves the oracle's weight by rounding only and changes no
    locality verdict, for instances whose locality margin is well clear of
    eps_geom (closer to it, a flip is rounding, not a defect)."""

    @given(
        st.integers(0, 10**6),
        st.sampled_from([6, 8, 10, 12]),
        st.sampled_from([2, 3]),
        st.floats(0.0, 2.0 * math.pi),
        st.floats(-6.0, 6.0),
        st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_verdicts_survive_similarity_and_relabelling(
        self, seed, n, k, theta, exponent, shift, rnd
    ):
        ps = gen_random(n, seed=seed)
        scale = 10.0**exponent
        perm = list(range(n))
        rnd.shuffle(perm)
        moved = [None] * n
        for i, p in enumerate(similar_image(ps.points, theta, exponent, shift)):
            moved[perm[i]] = p
        image = PointSet(moved)
        want = weight(optimal_matching(ps), ps)
        assert weight(optimal_matching(image), image) == pytest.approx(scale * want, rel=1e-9)
        consecutive = Matching((2 * i, 2 * i + 1) for i in range(n // 2))
        for m in (k_local_search(ps, k), greedy_matching(ps), consecutive):
            margin = locality_margin(ps, m, k)
            assume(not 1e-12 <= margin <= 1e-6)
            relabelled = Matching((perm[i], perm[j]) for i, j in m.pairs)
            local = is_k_local_max(ps, m, k).is_local_max
            assert local == (margin <= 1e-12)
            assert is_k_local_max(image, relabelled, k).is_local_max == local
            before, after = ratio_report(ps, m, k), ratio_report(image, relabelled, k)
            assert after.is_local_max == before.is_local_max == local
            assert after.ratio == pytest.approx(before.ratio, rel=1e-9)
