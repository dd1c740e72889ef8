"""The benchmark's four closed-loop workloads.

A workload is built from the benchmark seed (its constructor is the timed
set-up: every input is generated there) and hands out its operations one
cycle at a time.  An operation is one call sequence a user makes; ``run``
is timed, ``check`` verifies the output outside the timed region.  Each
cycle holds a fixed mix of operation kinds, so a run of whole cycles sees
the same mix whatever its length.  The pool of inputs is reused once a
run has used it up; each operation builds its own PointSet, so no value
the library derives from an input survives from one operation to the next.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from localmatch import certificates as C
from localmatch import crossing as X
from localmatch import generators as G
from localmatch import matching as M
from localmatch.geometry import DEFAULT_TOL, Point, distance

REL_TOL = 1e-9


class Op(NamedTuple):
    kind: str
    run: Callable[[], object]
    check: Callable[[object], bool]


def _seed(seed: int, stream: int, index: int) -> int:
    """Library seed of input ``index`` of ``stream`` under benchmark seed ``seed``."""
    return (seed * 64 + stream) * 1_000_003 + index


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1e-30)


def _networkx_optimum(ps, objective: str) -> float:
    """Weight of a maximum or minimum perfect matching by Edmonds' blossom
    algorithm, an oracle independent of the library's subset DP.  networkx
    is imported here, outside the timed set-up, because only checks use it."""
    import networkx as nx

    graph = nx.Graph()
    n = len(ps)
    graph.add_weighted_edges_from((i, j, ps.dist[i][j]) for i in range(n) for j in range(i + 1, n))
    if objective == "maximize":
        pairs = nx.max_weight_matching(graph, maxcardinality=True)
    else:
        pairs = nx.min_weight_matching(graph)
    return sum(ps.dist[i][j] for i, j in pairs)


class Certify:
    """Criteria 3-5: k-local search, locality verdict and certificate chain
    on random sets, interleaved with common-point witnesses of enlarged
    pairwise-intersecting disk families and the tight tangent triple."""

    POOL = 128
    TRACE_CYCLES = 32
    SIZES = (6, 8, 10, 12)
    KINDS = {2: ("local2",), 3: ("local3_sqrt2", "local3_fingerhut")}

    def __init__(self, seed: int):
        self.point_sets = [
            [
                (n, k, G.gen_random(n, _seed(seed, k, 4 * c + j)).points)
                for j, n in enumerate(self.SIZES)
                for k in (2, 3)
            ]
            for c in range(self.POOL)
        ]
        self.families = [
            [G.gen_intersecting_disks(count, _seed(seed, 9, 8 * c + count)) for count in range(3, 11)]
            for c in range(self.POOL)
        ]
        self.tangent = G.gen_tangent_disks()

    def cycle(self, c: int) -> list[Op]:
        ops = []
        for (n, k, points), family in zip(self.point_sets[c % self.POOL], self.families[c % self.POOL]):
            ops.append(self._chain(n, k, points))
            ops.append(self._disks(family))
        ops.append(self._tangent())
        return ops

    def _chain(self, n, k, points) -> Op:
        kinds = self.KINDS[k]

        def run():
            ps = M.PointSet(points)
            m = M.k_local_search(ps, k)
            local = M.is_k_local_max(ps, m, k)
            return local, [C.certify(ps, m, kind) for kind in kinds]

        def check(out) -> bool:
            local, certs = out
            return local.is_local_max and all(
                cert.matching_weight / cert.oracle_weight >= G.LOWER_BOUNDS[k] - REL_TOL
                and all(lhs <= rhs + DEFAULT_TOL.eps_opt for _, lhs, rhs in cert.per_edge_checks)
                for cert in certs
            )

        return Op(f"chain.n{n}.k{k}", run, check)

    @staticmethod
    def _disks(family) -> Op:
        def run():
            return C.common_point(family.rescaled(C.ENLARGEMENT_FACTOR))

        return Op(f"disks.{len(family)}", run, lambda w: w.slack <= 1e-7)

    def _tangent(self) -> Op:
        tangent = self.tangent

        def run():
            tight = C.common_point(tangent.rescaled(C.ENLARGEMENT_FACTOR))
            shy = C.common_point(tangent.rescaled(C.ENLARGEMENT_FACTOR - 1e-3))
            return tight, shy

        def check(out) -> bool:
            tight, shy = out
            apex = Point(1.0, 1.0 / math.sqrt(3.0))
            return tight.slack <= 1e-7 and distance(tight.point, apex) <= 1e-5 and shy.slack > 1e-4

        return Op("tangent", run, check)


class Exact:
    """Exact oracle near the top of its practical range (n = 16-20): the
    maximum, the minimum, and a 4-local search with its ratio report, each
    its own op on the same point set; plus one op for the alternating-circle
    2-local-minimum verdicts at 20 and 24 pairs."""

    POOL = 8
    TRACE_CYCLES = 2
    SIZES = (16, 18, 20)
    K = 4
    # Criterion 9's known-red fact: at 20 pairs two adjacent unit chords
    # rematch shorter; from 23 pairs on the construction is 2-local minimum.
    CIRCLES = ((20, ((0, 1), (2, 3))), (24, None))

    def __init__(self, seed: int):
        self.point_sets = [
            [G.gen_random(n, _seed(seed, n, c)).points for n in self.SIZES] for c in range(self.POOL)
        ]
        self.circles = []
        for pairs, expected in self.CIRCLES:
            ps, red = G.gen_circle_alternating(pairs, 0.01)
            self.circles.append((ps.points, red, expected))

    def cycle(self, c: int) -> list[Op]:
        ops = []
        for points in self.point_sets[c % self.POOL]:
            ops.append(self._optimum(points, "maximize"))
            ops.append(self._optimum(points, "minimize"))
            ops.append(self._ratio(points))
        ops.append(self._circles())
        return ops

    @staticmethod
    def _optimum(points, objective) -> Op:
        def run():
            ps = M.PointSet(points)
            return ps, M.optimal_matching(ps, objective)

        def check(out) -> bool:
            ps, m = out
            return _close(M.weight(m, ps), _networkx_optimum(ps, objective))

        return Op(f"{objective[:3]}.n{len(points)}", run, check)

    def _ratio(self, points) -> Op:
        k = self.K

        def run():
            ps = M.PointSet(points)
            return ps, M.ratio_report(ps, M.k_local_search(ps, k), k)

        def check(out) -> bool:
            ps, report = out
            return (
                _close(report.weight_global, _networkx_optimum(ps, "maximize"))
                and report.is_local_max
                and report.ratio >= (k - 1) / k - REL_TOL
            )

        return Op(f"ratio.n{len(points)}", run, check)

    def _circles(self) -> Op:
        circles = self.circles

        def run():
            return [M.is_k_local_min(M.PointSet(points), red, 2) for points, red, _ in circles]

        def check(reports) -> bool:
            return all(r.violating_subset == expected for r, (_, _, expected) in zip(reports, circles))

        return Op("circles", run, check)


class _AcceptCounter:
    """``progress`` callback of mine_low_ratio: counts accepted steps."""

    def __init__(self) -> None:
        self.accepts = 0

    def __call__(self, restart: int, iteration: int, ratio: float) -> None:
        self.accepts += 1


class Mine:
    """Criterion 8's miner configurations with one restart and a fixed
    budget per call: many warm-started local searches and oracle calls on
    tiny inputs."""

    TRACE_CYCLES = 36
    # (k, n, budget): budgets give the two kinds similar latency at the
    # commit that added this benchmark, so the latency median does not sit
    # between two modes.
    CONFIGS = ((2, 6, 900), (3, 8, 300))

    def __init__(self, seed: int):
        self.seed = seed

    def cycle(self, c: int) -> list[Op]:
        return [
            self._mine(k, n, budget, _seed(self.seed, k, c), rerun=c == 0)
            for k, n, budget in self.CONFIGS
        ]

    @staticmethod
    def _mine(k, n, budget, seed, rerun: bool) -> Op:
        def config():
            return G.MinerConfig(
                k=k, num_points=n, budget_iterations=budget, restarts=1, seed=seed, step_scale=0.15
            )

        def run():
            return G.mine_low_ratio(config(), progress=_AcceptCounter())

        def check(mined) -> bool:
            ok = (
                M.is_k_local_max(mined.point_set, mined.local_matching, k).is_local_max
                and mined.ratio >= G.LOWER_BOUNDS[k] - REL_TOL
            )
            if ok and rerun:
                again = G.mine_low_ratio(config(), progress=_AcceptCounter())
                ok = (
                    again.point_set.points == mined.point_set.points
                    and again.local_matching == mined.local_matching
                    and again.ratio == mined.ratio
                    and again.iterations_used == mined.iterations_used
                )
            return ok

        return Op(f"mine.k{k}.n{n}", run, check)


class Crossing:
    """Criteria 1 and 7: enumeration against the oracle, the pairwise
    crossing scan with its balance, locality and maximality follow-ups,
    and convex sets whose diagonal matching is the unique crossing one."""

    POOL = 128
    TRACE_CYCLES = 24
    SIZES = (8, 10, 12)
    CONVEX_SIZES = (4, 6, 8, 10)

    def __init__(self, seed: int):
        self.point_sets = [
            [G.gen_random(n, _seed(seed, n, c)).points for n in self.SIZES] for c in range(self.POOL)
        ]
        self.convex = [
            [G.gen_convex(n, _seed(seed, 1, 4 * c + j)).points for j, n in enumerate(self.CONVEX_SIZES)]
            for c in range(self.POOL)
        ]

    def cycle(self, c: int) -> list[Op]:
        ops = [self._random(points) for points in self.point_sets[c % self.POOL]]
        ops.extend(self._convex(points) for points in self.convex[c % self.POOL])
        return ops

    @staticmethod
    def _random(points) -> Op:
        def run():
            ps = M.PointSet(points)
            enum_max = max(M.weight(m, ps) for m in M.enumerate_matchings(ps))
            dp_max = M.weight(M.optimal_matching(ps, "maximize"), ps)
            found, count = X.find_pairwise_crossing(ps)
            follow_ups = None
            if found is not None:
                follow_ups = (
                    X.halfplane_balance(ps, found),
                    M.is_k_local_max(ps, found, 2).is_local_max,
                    X.verify_globally_maximum(ps, found),
                )
            return enum_max, dp_max, count, follow_ups

        def check(out) -> bool:
            enum_max, dp_max, count, follow_ups = out
            return _close(enum_max, dp_max) and count in (0, 1) and (follow_ups is None or all(follow_ups))

        return Op(f"random.n{len(points)}", run, check)

    @staticmethod
    def _convex(points) -> Op:
        def run():
            ps = M.PointSet(points)
            diagonal = X.convex_diagonal_matching(ps)
            return diagonal, X.find_pairwise_crossing(ps)

        def check(out) -> bool:
            diagonal, (found, count) = out
            return count == 1 and found == diagonal

        return Op(f"convex.n{len(points)}", run, check)


WORKLOADS = {"certify": Certify, "exact": Exact, "mine": Mine, "crossing": Crossing}
