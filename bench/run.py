#!/usr/bin/env python3
"""Benchmark of the localmatch library.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload certify --seed 1 --seconds 20 --trace 0

The library is imported from ``src/``; nothing needs installing beyond
numpy and networkx (networkx checks the oracle's answers).  One process,
one caller that waits for each operation (a closed loop).

``--trace 0`` runs whole cycles of the workload until ``--seconds`` of
operation time, at a reference CPU speed, have passed and reports the
end-to-end metrics.  ``--trace 1`` runs every op of a fixed list of cycles
once untraced and once with spans around the public functions of the
measured layers, and reports the per-layer metrics; the fixed op list
makes counts repeat exactly.  The last line of standard output is the
JSON result; bench/README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / "bench" / "spans"
SETUP_SAMPLES = 3
# On a virtual machine whose cores other tenants share, the CPU speed one
# process gets can halve or double within seconds.  Timed runs therefore
# measure a fixed unit of pure-Python work (``calibrate``) at least every
# CALIBRATE_EVERY_S of op time.  Each op's time is scaled by
# REFERENCE_UNIT_S over the unit time measured around it, which gives
# seconds at one fixed reference speed: 0.5 ms per unit is typical of a
# shared 2-core Intel Xeon VM at 2.1 GHz running Python 3.11.
REFERENCE_UNIT_S = 0.5e-3
CALIBRATE_EVERY_S = 0.1

# Workloads and metrics, with their units, come from BENCHMARK.json.  Counts
# derived from the inputs rather than read from the program have the unit
# "count-computed".
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _unit_of_work() -> int:
    acc = 0
    table = {}
    for i in range(3000):
        acc = (acc * 31 + i) % 1_000_003
        table[i & 127] = acc / 7.0
    return acc + len(table)


def calibrate() -> float:
    """Seconds one unit of fixed pure-Python work takes now (median of 3)."""
    samples = []
    for _ in range(3):
        start = time.perf_counter()
        _unit_of_work()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it: (percent, value)."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        raise ValueError(f"{n} samples leave no percentile with ten beyond it")
    return 100.0 * (n - 10) / n, ordered[n - 11]


def run_op(op, tracer=None) -> tuple[float, bool]:
    """Run one operation, traced when a tracer is given; its check runs
    after the clock stops and with the tracer removed."""
    if tracer is not None:
        tracer.install()
        root = tracer.open("op")
    start = time.perf_counter()
    raised = None
    try:
        out = op.run()
    except Exception as exc:  # a raising op counts as failed, the run goes on
        raised = exc
    finally:
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.close(root)
            tracer.uninstall()
    if raised is not None:
        print(f"op {op.kind} raised {raised!r}", file=sys.stderr)
        return elapsed, False
    try:
        ok = bool(op.check(out))
    except Exception as exc:
        print(f"check of {op.kind} raised {exc!r}", file=sys.stderr)
        ok = False
    if not ok:
        print(f"op {op.kind} failed its output check", file=sys.stderr)
    return elapsed, ok


def build(workload: str, seed: int):
    import workloads

    return workloads.WORKLOADS[workload](seed)


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Import plus input generation, timed in a fresh interpreter:
    (seconds, seconds at the reference speed)."""
    before = calibrate()
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    build(workload, seed)
    elapsed = time.perf_counter() - start
    return elapsed, elapsed * REFERENCE_UNIT_S / ((before + calibrate()) / 2)


def setup_seconds(workload: str, seed: int) -> tuple[float, float]:
    """Medians over fresh interpreters: (seconds, reference seconds)."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        child = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--setup-probe"],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append(json.loads(child.stdout.strip().splitlines()[-1]))
    return tuple(statistics.median(column) for column in zip(*samples))


def timed_run(wl, seconds: float) -> dict:
    """Whole cycles until ``seconds`` of op time at the reference speed
    have passed, so the op count does not follow the machine's speed; on a
    machine more than 1.5 times as slow, until 1.5 ``seconds`` as measured.
    Returns the measured latencies and the same scaled to the reference
    speed by the calibration measured before and after each stretch of ops."""
    latencies: list[float] = []
    scaled: list[float] = []
    by_kind: dict[str, list[float]] = {}
    failed = 0
    c = 0
    unit = calibrate()
    stretch = 0.0
    while sum(scaled) < seconds and sum(latencies) < 1.5 * seconds:
        for op in wl.cycle(c):
            elapsed, ok = run_op(op)
            latencies.append(elapsed)
            by_kind.setdefault(op.kind, []).append(elapsed)
            failed += not ok
            stretch += elapsed
            if stretch >= CALIBRATE_EVERY_S:
                unit = _rescale(latencies, scaled, unit)
                stretch = 0.0
        c += 1
    _rescale(latencies, scaled, unit)
    for kind, values in by_kind.items():
        print(f"  {kind:16s} {len(values):5d} ops  p50 {statistics.median(values) * 1e3:9.2f} ms"
              f"  max {max(values) * 1e3:9.2f} ms")
    return {"latencies": latencies, "scaled": scaled, "failed": failed, "cycles": c}


def _rescale(latencies: list[float], scaled: list[float], unit_before: float) -> float:
    """Scale the latencies not yet in ``scaled``; returns the new unit time."""
    unit_after = calibrate()
    factor = REFERENCE_UNIT_S / ((unit_before + unit_after) / 2)
    scaled.extend(x * factor for x in latencies[len(scaled):])
    return unit_after


def add_layer_spans(tracer) -> None:
    def n_of(args, kwargs) -> int:
        return len(args[0] if args else kwargs["ps"])

    def optimal(args, kwargs, result):
        n = n_of(args, kwargs)
        return {"n": n, "masks": 2 ** (n - 1)}

    def locality(args, kwargs, report):
        m = args[1] if len(args) > 1 else kwargs["m"]
        k = args[2] if len(args) > 2 else kwargs["k"]
        return {"subsets": scanned_subsets(m.pairs, k, report.violating_subset)}

    def matchings(args, kwargs, result):
        return {"matchings": double_factorial(n_of(args, kwargs) - 1)}

    def mined(args, kwargs, result):
        return {"iterations": result.iterations_used, "accepts": kwargs["progress"].accepts}

    for module, name, hook in (
        ("localmatch.matching", "optimal_matching", optimal),
        ("localmatch.matching", "enumerate_matchings", matchings),
        ("localmatch.matching", "is_k_local_max", locality),
        ("localmatch.matching", "is_k_local_min", locality),
        ("localmatch.matching", "k_local_search", None),
        ("localmatch.matching", "ratio_report", None),
        ("localmatch.certificates", "common_point", None),
        ("localmatch.certificates", "fingerhut_center", None),
        ("localmatch.certificates", "certify", None),
        ("localmatch.generators", "mine_low_ratio", mined),
        ("localmatch.generators", "gen_random", None),
        ("localmatch.generators", "gen_intersecting_disks", None),
        ("localmatch.crossing", "find_pairwise_crossing", matchings),
        ("localmatch.crossing", "verify_globally_maximum", None),
        ("localmatch.crossing", "halfplane_balance", None),
    ):
        tracer.target(module, name, hook)


def double_factorial(n: int) -> int:
    return math.prod(range(n, 0, -2))


def scanned_subsets(pairs, k: int, violating) -> int:
    """Subsets the lexicographic k-subset scan visits: all C(m, k) when the
    verdict is local, else the 1-based rank of the reported subset."""
    m = len(pairs)
    if violating is None:
        return math.comb(m, k)
    positions = [pairs.index(p) for p in violating]
    rank, prev = 0, -1
    for slot, pos in enumerate(positions):
        for skipped in range(prev + 1, pos):
            rank += math.comb(m - skipped - 1, k - slot - 1)
        prev = pos
    return rank + 1


def layer_metrics(spans, untraced_s: float, traced_s: float) -> dict[str, float]:
    by_name: dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def calls(name):
        return by_name.get(name, [])

    def self_s(name):
        return sum(s.self_s for s in calls(name))

    def ms_p50(name, pick=lambda s: True):
        chosen = [s.busy * 1e3 for s in calls(name) if pick(s)]
        return statistics.median(chosen) if chosen else 0.0

    def ms_tail(name):
        chosen = [s.busy * 1e3 for s in calls(name)]
        return tail(chosen)[1] if len(chosen) >= 11 else 0.0

    def total(name, key):
        return sum(s.info[key] for s in calls(name))

    out: dict[str, float] = {}
    for name in ("matching.optimal_matching", "matching.is_k_local_max", "matching.k_local_search",
                 "certificates.common_point", "certificates.fingerhut_center",
                 "crossing.find_pairwise_crossing"):
        out[f"{name}.calls"] = len(calls(name))
        out[f"{name}.self_s"] = self_s(name)
        out[f"{name}.ms_p50"] = ms_p50(name)
    for n in (16, 18, 20):
        out[f"matching.optimal_matching.n{n}.ms_p50"] = ms_p50(
            "matching.optimal_matching", lambda s, n=n: s.info["n"] == n
        )
    out["matching.optimal_matching.masks_computed"] = total("matching.optimal_matching", "masks")
    out["matching.is_k_local_max.subsets_scanned"] = total("matching.is_k_local_max", "subsets")
    out["matching.is_k_local_min.ms_p50"] = ms_p50("matching.is_k_local_min")
    out["matching.is_k_local_min.subsets_scanned"] = total("matching.is_k_local_min", "subsets")
    for name in ("matching.ratio_report", "certificates.certify", "generators.mine_low_ratio",
                 "crossing.verify_globally_maximum", "crossing.halfplane_balance",
                 "matching.enumerate_matchings"):
        out[f"{name}.self_s"] = self_s(name)
    out["certificates.common_point.ms_tail"] = ms_tail("certificates.common_point")
    out["certificates.fingerhut_center.ms_tail"] = ms_tail("certificates.fingerhut_center")
    mine_busy = sum(s.busy for s in calls("generators.mine_low_ratio"))
    iterations = total("generators.mine_low_ratio", "iterations")
    out["generators.mine_low_ratio.iters_per_s"] = iterations / mine_busy if mine_busy else 0.0
    out["generators.mine_low_ratio.accept_ratio"] = (
        total("generators.mine_low_ratio", "accepts") / iterations if iterations else 0.0
    )
    out["generators.gen_random.ms_p50"] = ms_p50("generators.gen_random")
    out["generators.gen_intersecting_disks.ms_p50"] = ms_p50("generators.gen_intersecting_disks")
    out["crossing.find_pairwise_crossing.matchings_scanned"] = total(
        "crossing.find_pairwise_crossing", "matchings"
    )
    out["matching.enumerate_matchings.matchings"] = total("matching.enumerate_matchings", "matchings")
    out["trace.overhead_ratio"] = traced_s / untraced_s - 1.0
    return out


def print_self_time_shares(spans) -> None:
    """Share of traced op time by span name, largest first.  Set-up spans
    (top-level spans other than ops) are left out."""
    total = sum(s.busy for s in spans if s.name == "op")
    shares: dict[str, float] = {}
    for s in spans:
        if s.parent is not None or s.name == "op":
            shares[s.name] = shares.get(s.name, 0.0) + s.self_s
    for name, value in sorted(shares.items(), key=lambda kv: -kv[1]):
        print(f"  self {name:40s} {value:9.3f} s  {100.0 * value / total:5.1f}%")


def traced_run(wl, tracer, spans_path: Path) -> tuple[dict, int, int]:
    """Each op of a fixed list runs once untraced and once traced, in
    alternating order, so drift in machine speed cancels from the overhead."""
    ops = [op for c in range(wl.TRACE_CYCLES) for op in wl.cycle(c)]
    untraced: list[float] = []
    traced_s = 0.0
    failed = 0
    for i, op in enumerate(ops):
        for traced in (i % 2 == 0, i % 2 == 1):
            elapsed, ok = run_op(op, tracer if traced else None)
            failed += not ok
            if traced:
                traced_s += elapsed
            else:
                untraced.append(elapsed)
    untraced_s = sum(untraced)
    percent, tail_s = tail(untraced)
    print(f"traced {len(ops)} ops: untraced {untraced_s:.3f} s, traced {traced_s:.3f} s")
    print(f"op.latency_tail_ms = p{percent:.2f} over {len(ops)} untraced ops")
    print_self_time_shares(tracer.spans)
    tracer.dump(spans_path)
    print(f"spans written to {spans_path.relative_to(ROOT)}")
    metrics = layer_metrics(tracer.spans, untraced_s, traced_s)
    metrics["op.latency_tail_ms"] = tail_s * 1e3
    return metrics, 2 * len(ops), failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not (SRC / "localmatch" / "__init__.py").is_file():
        print(f"library source not found under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(json.dumps(measure_setup(args.workload, args.seed)))
        return 0

    sys.path.insert(0, str(SRC))
    if args.trace:
        import spans

        import localmatch  # noqa: F401

        tracer = spans.Tracer()
        add_layer_spans(tracer)
        tracer.install()
        try:
            wl = build(args.workload, args.seed)
        finally:
            tracer.uninstall()
        spans_path = SPANS_DIR / f"{args.workload}-seed{args.seed}.jsonl"
        metrics, attempted, failed = traced_run(wl, tracer, spans_path)
    else:
        setup_s, setup_ref_s = setup_seconds(args.workload, args.seed)
        wl = build(args.workload, args.seed)
        result = timed_run(wl, args.seconds)
        attempted, failed = len(result["latencies"]), result["failed"]
        measured = {}
        for label, latencies, setup in (("measured", result["latencies"], setup_s),
                                        ("reference", result["scaled"], setup_ref_s)):
            # Only printed, so a run too short for a tail prints nan.
            percent, tail_s = tail(latencies) if len(latencies) > 10 else (math.nan, math.nan)
            measured[label] = {
                "throughput_ops_s": attempted / sum(latencies),
                "latency_p50_ms": statistics.median(latencies) * 1e3,
                "latency_tail_ms": tail_s * 1e3,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "setup_s": setup,
            }
        metrics = measured["reference"]
        print(f"{args.workload}: {attempted} ops in {result['cycles']} cycles, "
              f"{sum(result['latencies']):.3f} s busy")
        print(f"latency_tail_ms = p{percent:.2f} over {attempted} ops")
        print(f"failed_ops_ratio = {failed}/{attempted} = {failed / attempted:.6f}")
        print("at measured speed: " + ", ".join(f"{k} {v:.6g}" for k, v in measured["measured"].items()))
        print("at reference speed: " + ", ".join(f"{k} {v:.6g}" for k, v in metrics.items()))

    units = {m["name"]: m["unit"] for m in SPEC["per_layer" if args.trace else "end_to_end"]}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
