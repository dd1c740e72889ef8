"""The paper's acceptance criteria, defined once in ``CRITERIA`` with their
seeds, counts, bounds and time budgets; ``localmatch suite`` and the
acceptance tests both run this table. A scale is a divisor: ``FULL`` runs
every instance, ``SMOKE`` the first tenth of the same seeded instances,
miner budgets and restarts, lemma grid and trials.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .certificates import ENLARGEMENT_FACTOR, certify, common_point
from .crossing import (
    convex_diagonal_matching,
    find_pairwise_crossing,
    halfplane_balance,
    is_pairwise_crossing,
    verify_globally_maximum,
)
from .generators import (
    LOWER_BOUNDS,
    MinerConfig,
    gen_circle_alternating,
    gen_convex,
    gen_intersecting_disks,
    gen_random,
    gen_tangent_disks,
    mine_low_ratio,
)
from .geometry import Point, diameter_bound, distance, endpoint_bound
from .matching import (
    Matching,
    _subset_weight,
    cycle_decomposition,
    enumerate_matchings,
    is_k_local_max,
    is_k_local_min,
    k_local_search,
    optimal_matching,
    weight,
)

__all__ = ["Verdict", "Criterion", "CRITERIA", "SMOKE", "FULL", "evaluate", "run_suite"]

FULL = 1
SMOKE = 10

SQRT3 = math.sqrt(3.0)


@dataclass
class Verdict:
    """Outcome of one criterion: named hard checks that must all hold,
    named soft targets whose miss is reported but does not fail, and a
    one-line detail with the measured margins."""

    checks: dict[str, bool]
    detail: str
    soft: dict[str, bool] = field(default_factory=dict)

    @property
    def failed(self) -> list[str]:
        return [name for name, ok in self.checks.items() if not ok]

    @property
    def missed(self) -> list[str]:
        return [name for name, hit in self.soft.items() if not hit]


@dataclass(frozen=True)
class Criterion:
    """One acceptance criterion. ``budget_s`` bounds the wall time of a
    whole run; it is None for criterion 6, which has no budget, and for
    criterion 8, which bounds each miner configuration itself."""

    number: int
    name: str
    budget_s: Optional[float]
    run: Callable[[int], Verdict]


def _sizes(count: int, lo: int = 4, hi: int = 10) -> list[int]:
    span = range(lo, hi + 1, 2)  # lo is even
    return [span[i % len(span)] for i in range(count)]


def oracle_equivalence(scale: int) -> Verdict:
    count = 500 // scale
    worst = 0.0
    for i, n in enumerate(_sizes(count)):
        ps = gen_random(n, seed=100_000 + i)
        w_dp = weight(optimal_matching(ps, "maximize"), ps)
        w_enum = max(weight(m, ps) for m in enumerate_matchings(ps))
        worst = max(worst, abs(w_dp - w_enum) / max(abs(w_enum), 1e-30))
    return Verdict(
        {"DP maximum equals enumeration (relative 1e-9)": worst <= 1e-9},
        f"{count} instances, max relative gap {worst:.3e}",
    )


def k_local_theorem(scale: int) -> Verdict:
    count = 200 // scale
    min_ratio_margin = math.inf
    min_cycle_margin = math.inf
    cycles = 0
    for k in (2, 3, 4):
        for i, n in enumerate(_sizes(count, lo=6, hi=12)):
            ps = gen_random(n, seed=110_000 + 1000 * k + i)
            m = k_local_search(ps, k)
            opt = optimal_matching(ps, "maximize")
            ratio = weight(m, ps) / weight(opt, ps)
            min_ratio_margin = min(min_ratio_margin, ratio - (k - 1) / k)
            for cycle in cycle_decomposition(m, opt).cycles:
                cycles += 1
                w_m = _subset_weight(ps.dist, cycle.first_edges())
                w_star = _subset_weight(ps.dist, cycle.second_edges())
                min_cycle_margin = min(min_cycle_margin, k * w_m - (k - 1) * w_star)
    return Verdict(
        {
            "ratio >= (k-1)/k": min_ratio_margin >= -1e-9,
            "every cycle k w(M) >= (k-1) w(M*)": min_cycle_margin >= -1e-9,
        },
        f"{3 * count} searches over k in {{2,3,4}}, min ratio margin "
        f"{min_ratio_margin:.3e}, min cycle margin {min_cycle_margin:.3e} "
        f"over {cycles} cycles",
    )


def _search_and_certify(k: int, seed0: int, count: int, kinds: tuple[str, ...]):
    """Whether every search is k-local maximum, the smallest ratio, and each kind's certificates."""
    all_local = True
    min_ratio = math.inf
    certs: dict[str, list] = {kind: [] for kind in kinds}
    for i, n in enumerate(_sizes(count, lo=6, hi=12)):
        ps = gen_random(n, seed=seed0 + i)
        m = k_local_search(ps, k)
        all_local &= is_k_local_max(ps, m, k).is_local_max
        min_ratio = min(min_ratio, weight(m, ps) / weight(optimal_matching(ps, "maximize"), ps))
        for kind in kinds:
            certs[kind].append(certify(ps, m, kind))
    return all_local, min_ratio, certs


def _edge_margin(certs) -> float:
    return min(rhs + 1e-7 - lhs for cert in certs for _, lhs, rhs in cert.per_edge_checks)


def local2_bound_and_certificates(scale: int) -> Verdict:
    count = 300 // scale
    all_local, min_ratio, certs = _search_and_certify(2, 120_000, count, ("local2",))
    margin = _edge_margin(certs["local2"])
    return Verdict(
        {
            "every search 2-local maximum": all_local,
            "ratio >= sqrt(3/7)": min_ratio >= LOWER_BOUNDS[2] - 1e-9,
            "local2 per-edge chain within 1e-7": margin >= 0.0,
        },
        f"{count} verified 2-local maxima, min ratio {min_ratio:.6f}, "
        f"min per-edge margin {margin:.3e}",
    )


def local3_bounds_and_certificates(scale: int) -> Verdict:
    count = 300 // scale
    all_local, min_ratio, certs = _search_and_certify(
        3, 130_000, count, ("local3_sqrt2", "local3_fingerhut")
    )
    sqrt2, fingerhut = certs["local3_sqrt2"], certs["local3_fingerhut"]
    sqrt2_margin = _edge_margin(sqrt2)
    fingerhut_margin = _edge_margin(fingerhut)
    fingerhut_slack = max(cert.witness.slack for cert in fingerhut)
    beta_ok = all(math.isclose(cert.beta, math.sqrt(2.0), rel_tol=1e-6) for cert in sqrt2)
    return Verdict(
        {
            "every search 3-local maximum": all_local,
            "ratio >= sqrt(3)/2": min_ratio >= LOWER_BOUNDS[3] - 1e-9,
            "sqrt(2) certificate beta": beta_ok,
            "sqrt(2) per-edge chain within 1e-7": sqrt2_margin >= 0.0,
            "fingerhut per-edge chain within 1e-7": fingerhut_margin >= 0.0,
            "fingerhut witness slack <= 1e-7": fingerhut_slack <= 1e-7,
        },
        f"{count} verified 3-local maxima, min ratio {min_ratio:.6f}, min per-edge margin "
        f"{sqrt2_margin:.3e} (sqrt(2)) and {fingerhut_margin:.3e} (fingerhut), max "
        f"fingerhut slack {fingerhut_slack:.3e}",
    )


def disk_enlargement(scale: int) -> Verdict:
    count = 1000 // scale
    worst_slack = -math.inf
    for i in range(count):
        df = gen_intersecting_disks(3 + i % 8, seed=140_000 + i)
        worst_slack = max(worst_slack, common_point(df.rescaled(ENLARGEMENT_FACTOR)).slack)
    tangent = gen_tangent_disks()
    tight = common_point(tangent.rescaled(ENLARGEMENT_FACTOR))
    shy = common_point(tangent.rescaled(ENLARGEMENT_FACTOR - 1e-3))
    witness_err = distance(tight.point, Point(1.0, 1.0 / SQRT3))
    # The slack bound is absolute on purpose: witness scales on these
    # families reach 3.74, so the scale-relative witness.holds() is looser.
    return Verdict(
        {
            "enlarged families share a point (slack <= 1e-7)": worst_slack <= 1e-7,
            "under-scaled tangent triple shares none (slack > 1e-4)": shy.slack > 1e-4,
            "tangent triple tight (slack <= 1e-7)": tight.slack <= 1e-7,
            "tangent witness at (1, 1/sqrt(3)) within 1e-5": witness_err <= 1e-5,
        },
        f"{count} enlarged families, max slack {worst_slack:.3e}; tangent slack "
        f"{tight.slack:.3e} at witness error {witness_err:.1e}; under-scaled slack "
        f"{shy.slack:.3e}",
    )


def extremal_lemmas(scale: int) -> Verdict:
    grid = 100_000 // scale
    trials = 10_000 // scale
    grid_excess = 0.0
    for r in (0.25, 0.5, 1.0, ENLARGEMENT_FACTOR, 2.0, 4.0):
        vals = endpoint_bound(np.linspace(0.0, r, grid // 6), r)
        grid_excess = max(grid_excess, float(vals.max()) - 2.0 * math.sqrt(r * r + 1.0))
    dvals = diameter_bound(np.linspace(0.0, math.pi, grid))
    grid_excess = max(grid_excess, float(dvals.max()) - 2.0 / SQRT3)

    rng = np.random.default_rng(150_000)
    statement_excess = 0.0
    for _ in range(trials):
        a = Point(*rng.uniform(-5, 5, 2))
        b = Point(*rng.uniform(-5, 5, 2))
        ab = distance(a, b)
        if ab < 1e-6:
            continue
        r = float(rng.uniform(0.01, 3.0))
        rho = float(rng.uniform(0.0, 1.0)) * r * ab / 2.0
        ang = float(rng.uniform(0.0, 2.0 * math.pi))
        p = Point(
            (a.x + b.x) / 2.0 + rho * math.cos(ang),
            (a.y + b.y) / 2.0 + rho * math.sin(ang),
        )
        statement_excess = max(
            statement_excess,
            distance(p, a) + distance(p, b) - math.sqrt(r * r + 1.0) * ab,
        )
    return Verdict(
        {
            "extremal functions peak where stated (grid, 1e-9)": grid_excess <= 1e-9,
            "stretch statement holds (sampled, 1e-9)": statement_excess <= 1e-9,
        },
        f"grid max excess {grid_excess:.3e} over {grid} samples, statement max "
        f"excess {statement_excess:.3e} over {trials} configurations",
    )


def pairwise_crossing(scale: int) -> Verdict:
    count = 500 // scale
    n_convex = 50 // scale
    at_most_one = balanced = local = global_max = True
    found_count = 0
    for i, n in enumerate(_sizes(count)):
        ps = gen_random(n, seed=160_000 + i)
        found, matches = find_pairwise_crossing(ps)
        at_most_one &= matches in (0, 1)
        if found is None:
            continue
        found_count += 1
        balanced &= halfplane_balance(ps, found)
        local &= is_k_local_max(ps, found, 2).is_local_max
        global_max &= verify_globally_maximum(ps, found)
    convex_crossing = convex_unique = True
    for i in range(n_convex):
        ps = gen_convex(4 + 2 * (i % 4), seed=165_000 + i)
        m = convex_diagonal_matching(ps)
        convex_crossing &= is_pairwise_crossing(ps, m).is_pairwise_crossing
        convex_unique &= find_pairwise_crossing(ps)[1] == 1
    # Beyond 12 points only the exact search can state uniqueness;
    # gen_convex's rejection sampling stops n at 16.
    n_large = 15 // scale
    large_unique = True
    for i in range(n_large):
        ps = gen_convex(12 + 2 * (i % 3), seed=167_000 + i)
        found, matches = find_pairwise_crossing(ps)
        large_unique &= (
            matches == 1
            and found == convex_diagonal_matching(ps)
            and verify_globally_maximum(ps, found)
        )
    return Verdict(
        {
            "at most one crossing matching": at_most_one,
            "crossing matchings half-plane balanced": balanced,
            "crossing matchings 2-local maximum": local,
            "crossing matchings globally maximum": global_max,
            "convex diagonal matching pairwise crossing": convex_crossing,
            "convex crossing matching unique": convex_unique,
            "convex diagonal matching unique and globally maximum at 12-16 points": large_unique,
        },
        f"{count} random sets ({found_count} admit a crossing matching); {n_convex} convex sets; "
        f"{n_large} convex sets at 12-16 points",
    )


def upper_bound_mining(scale: int) -> Verdict:
    # The targets are existence claims reproduced by bounded heuristic search, so
    # a missed target is soft. Budgets fit 600 s per configuration at ~0.007-0.011 ms per
    # iteration (k = 2: 96,000 iterations in ~0.67 s; k = 3: 40,000 in ~0.40-0.43 s; shared
    # 2-core 2.1 GHz Xeon VM).
    checks: dict[str, bool] = {}
    soft: dict[str, bool] = {}
    details = []
    for k, n, seed, restarts, budget, target in (
        (2, 6, 7, 24, 4000, 0.94),
        (3, 8, 2, 16, 2500, 0.99),
    ):
        start = time.perf_counter()
        cfg = MinerConfig(
            k=k,
            num_points=n,
            budget_iterations=budget // scale,
            restarts=restarts // scale,
            seed=seed,
            step_scale=0.15,
        )
        mined = mine_low_ratio(cfg)
        elapsed = time.perf_counter() - start
        checks[f"k={k} under 600 s"] = elapsed < 600.0
        local = is_k_local_max(mined.point_set, mined.local_matching, k).is_local_max
        checks[f"k={k} mined matching {k}-local maximum"] = local
        checks[f"k={k} ratio >= proved bound"] = mined.ratio >= LOWER_BOUNDS[k] - 1e-9
        soft[f"k={k} ratio < {target}"] = mined.ratio < target
        details.append(f"k={k}: ratio {mined.ratio:.6f} in {elapsed:.0f}s")
    return Verdict(checks, "; ".join(details), soft)


def circle_construction(scale: int) -> Verdict:
    # 23 pairs is the smallest count at which the construction is 2-local
    # minimum for eps = 0.01: rematching two adjacent unit chords a1b1, a2b2
    # into b1a2 + a1b2 changes the weight by eps + |a1b2| - 2, about -3.6e-4
    # at 22 pairs and +1.4e-3 at 23.
    pairs, eps = 23, 0.01
    ps, red = gen_circle_alternating(pairs, eps)
    alternation = max(
        abs(distance(ps[i], ps[(i + 1) % len(ps)]) - (1.0 if i % 2 == 0 else eps))
        for i in range(len(ps))
    )
    eps_matching = Matching([(2 * i + 1, (2 * i + 2) % len(ps)) for i in range(pairs)])
    # The eps-matching upper-bounds the global minimum, so the factor is a
    # lower bound on the true blow-up.
    factor = weight(red, ps) / weight(eps_matching, ps)
    report = is_k_local_min(ps, red, 2)
    below_ps, below_red = gen_circle_alternating(pairs - 1, eps)
    below = is_k_local_min(below_ps, below_red, 2).violating_subset
    # Two unit chords (2i, 2i+1) that are neighbours around the circle,
    # the wrap-around pair included.
    below_ok = (
        below is not None
        and len(below) == 2
        and set(below) <= set(below_red.pairs)
        and (below[1][0] - below[0][0]) // 2 % (pairs - 1) in (1, pairs - 2)
    )
    return Verdict(
        {
            "unit and eps chords alternate (1e-9)": alternation <= 1e-9,
            "min-side blow-up factor >= 10": factor >= 10.0,
            f"2-local minimum at {pairs} pairs": report.is_local_max,
            f"adjacent unit chords violate at {pairs - 1} pairs": below_ok,
        },
        f"alternation error {alternation:.3e}, min-side blow-up factor {factor:.1f}, "
        f"violating subset {report.violating_subset} at {pairs} pairs, {below} at {pairs - 1}",
    )


CRITERIA: list[Criterion] = [
    Criterion(1, "oracle_equivalence", 10.0, oracle_equivalence),
    Criterion(2, "k_local_theorem", 60.0, k_local_theorem),
    Criterion(3, "local2_bound_and_certificates", 120.0, local2_bound_and_certificates),
    Criterion(4, "local3_bounds_and_certificates", 180.0, local3_bounds_and_certificates),
    Criterion(5, "disk_enlargement", 30.0, disk_enlargement),
    Criterion(6, "extremal_lemmas", None, extremal_lemmas),
    Criterion(7, "pairwise_crossing", 60.0, pairwise_crossing),
    Criterion(8, "miner", None, upper_bound_mining),
    Criterion(9, "circle_construction", 10.0, circle_construction),
]


def evaluate(criterion: Criterion, scale: int) -> tuple[Verdict, float]:
    """Run one criterion at a scale; its time budget becomes a hard check."""
    start = time.perf_counter()
    verdict = criterion.run(scale)
    elapsed = time.perf_counter() - start
    if criterion.budget_s is not None:
        verdict.checks[f"under {criterion.budget_s:g} s"] = elapsed < criterion.budget_s
    return verdict, elapsed


def run_suite(scale: int) -> tuple[list[dict], int]:
    """Run every criterion; one passes when all its hard checks hold."""
    results = []
    for criterion in CRITERIA:
        start = time.perf_counter()
        try:
            verdict, elapsed = evaluate(criterion, scale)
        except Exception as exc:  # a crash is a failure, not an abort
            verdict = Verdict({"runs without error": False}, f"error: {exc!r}")
            elapsed = time.perf_counter() - start
        ok = not verdict.failed
        message = "; ".join(
            [verdict.detail]
            + [f"failed: {name}" for name in verdict.failed]
            + [f"soft target missed: {name}" for name in verdict.missed]
        )
        print(f"{'PASS' if ok else 'FAIL'} {criterion.name}: {message} [{elapsed:.1f}s]")
        results.append(
            {
                "number": criterion.number,
                "name": criterion.name,
                "passed": ok,
                "message": message,
                "seconds": elapsed,
                "checks": verdict.checks,
                "soft": verdict.soft,
            }
        )
    return results, sum(not result["passed"] for result in results)
