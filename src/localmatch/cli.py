"""Command-line front end.

Exit codes: 0 success, 1 malformed input, 2 oracle/enumeration cap
exceeded, 3 verification failure (locality violation, missing witness,
or a failed certificate).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

from . import suite as suite_mod
from .certificates import (
    ENLARGEMENT_FACTOR,
    CertificateError,
    certify,
    diametral_family,
)
from .crossing import GeneralPositionError, full_crossing_report
from .generators import (
    MinerConfig,
    gen_circle_alternating,
    gen_convex,
    gen_random,
    mine_low_ratio,
)
from .io import (
    InstanceFormatError,
    certificate_to_dict,
    instance_from_objects,
    load_instance,
    mined_instance_to_dict,
    ratio_report_to_dict,
    save_instance,
)
from .matching import (
    DEFAULT_ORACLE_CAP,
    CapExceededError,
    optimal_matching,
    ratio_report,
    weight,
)
from .svg import render_figure

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CAP = 2
EXIT_VERIFICATION = 3

_KIND_FLAGS = {
    "local2": "local2",
    "local3-sqrt2": "local3_sqrt2",
    "local3-fingerhut": "local3_fingerhut",
}


def _write_json(path: str | None, payload: dict) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_solve(args) -> int:
    inst = load_instance(args.input)
    ps = inst.point_set()
    objective = "maximize" if args.objective == "max" else "minimize"
    m = optimal_matching(ps, objective, cap=args.cap)
    w = weight(m, ps)
    label = "maximum" if objective == "maximize" else "minimum"
    print(f"{label} matching: {list(m.pairs)}")
    print(f"weight: {w!r}")
    if args.output:
        out = instance_from_objects(ps, m, {"objective": objective, "weight": w})
        save_instance(args.output, out)
    return EXIT_OK


def cmd_verify(args) -> int:
    inst = load_instance(args.input)
    ps = inst.point_set()
    m = inst.matching_obj()
    report = ratio_report(ps, m, args.k, cap=args.cap)
    _write_json(args.output, ratio_report_to_dict(report))
    if not report.is_local_max:
        print(
            f"not {args.k}-local maximum; violating subset {list(report.violating_subset)}",
            file=sys.stderr,
        )
        return EXIT_VERIFICATION
    return EXIT_OK


def cmd_certify(args) -> int:
    inst = load_instance(args.input)
    ps = inst.point_set()
    m = inst.matching_obj()
    kind = _KIND_FLAGS[args.kind]
    cert = certify(ps, m, kind, cap=args.cap)
    _write_json(args.output, certificate_to_dict(cert))
    if args.svg:
        base = diametral_family(m, ps, 1.0)
        enlarged = ()
        if kind == "local2":
            enlarged = base.rescaled(ENLARGEMENT_FACTOR).scaled_disks()
        alt = None
        if len(ps) <= 2 * args.cap:
            alt = optimal_matching(ps, "maximize", cap=args.cap)
        Path(args.svg).write_text(
            render_figure(
                ps,
                matching=m,
                alt_matching=alt,
                disks=base.scaled_disks(),
                enlarged_disks=enlarged,
                witness=cert.witness.point,
            )
        )
    return EXIT_OK


def cmd_crossing(args) -> int:
    inst = load_instance(args.input)
    ps = inst.point_set()
    m = inst.matching_obj()
    report = full_crossing_report(ps, m, cap=args.cap)
    _write_json(args.output, dataclasses.asdict(report))
    return EXIT_OK


def cmd_mine(args) -> int:
    cfg = MinerConfig(
        k=args.k,
        num_points=args.n,
        budget_iterations=args.budget,
        restarts=args.restarts,
        step_scale=args.step_scale,
        seed=args.seed,
    )
    start = time.perf_counter()

    def progress(restart: int, iteration: int, ratio: float) -> None:
        print(f"restart {restart} iteration {iteration}: best ratio {ratio:.6f}")

    mined = mine_low_ratio(cfg, progress=progress)
    elapsed = time.perf_counter() - start
    print(
        f"mined ratio {mined.ratio:.6f} with k={mined.k} on {len(mined.point_set)} points "
        f"({mined.iterations_used} iterations, {elapsed:.1f}s)"
    )
    _write_json(args.output, mined_instance_to_dict(mined, cfg))
    return EXIT_OK


def cmd_gen(args) -> int:
    if args.family == "random":
        ps = gen_random(args.n, args.seed)
        inst = instance_from_objects(ps, metadata={"family": "random", "seed": args.seed})
    elif args.family == "convex":
        ps = gen_convex(args.n, args.seed)
        inst = instance_from_objects(ps, metadata={"family": "convex", "seed": args.seed})
    else:
        ps, m = gen_circle_alternating(args.n, args.eps)
        inst = instance_from_objects(
            ps, m, metadata={"family": "circle-alternating", "eps": args.eps}
        )
    if args.output:
        save_instance(args.output, inst)
    else:
        _write_json(None, inst.to_dict())
    return EXIT_OK


def cmd_suite(args) -> int:
    scale = suite_mod.FULL if args.scale == "full" else suite_mod.SMOKE
    results, failures = suite_mod.run_suite(scale)
    summary = {
        "scale": args.scale,
        "total": len(results),
        "failures": failures,
        "criteria": results,
    }
    if args.output:
        _write_json(args.output, summary)
    print(f"{len(results)} criteria, {failures} failures")
    return EXIT_OK if failures == 0 else EXIT_VERIFICATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="localmatch",
        description="Local vs. global maximum matchings on planar point sets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_input=True):
        if needs_input:
            p.add_argument("--input", required=True, help="instance file (JSON or CSV)")
            p.add_argument(
                "--cap", type=int, default=DEFAULT_ORACLE_CAP, help="oracle cap in edges (pairs)"
            )
        p.add_argument("--output", default=None, help="write the result to this file")

    p = sub.add_parser("solve", help="exact optimum matching")
    add_common(p)
    p.add_argument("--objective", choices=("max", "min"), default="max")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("verify", help="k-locality and ratio report")
    add_common(p)
    p.add_argument("--k", type=int, default=2)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("certify", help="geometric ratio certificate")
    add_common(p)
    p.add_argument("--kind", choices=sorted(_KIND_FLAGS), default="local2")
    p.add_argument("--svg", default=None, help="also render the certificate figure")
    p.set_defaults(fn=cmd_certify)

    p = sub.add_parser("crossing", help="pairwise-crossing matching report")
    add_common(p)
    p.set_defaults(fn=cmd_crossing)

    p = sub.add_parser("mine", help="search for low-ratio k-local maximum instances")
    add_common(p, needs_input=False)
    p.add_argument("--k", type=int, default=2, help="locality of the mined matching, at least 2")
    p.add_argument("--n", type=int, default=6, help="number of points")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=2000, help="iterations per restart")
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument("--step-scale", type=float, default=0.08)
    p.set_defaults(fn=cmd_mine)

    p = sub.add_parser("gen", help="generate an instance")
    add_common(p, needs_input=False)
    p.add_argument("--family", choices=("random", "convex", "circle"), default="random")
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eps", type=float, default=0.01, help="short chord for circle family")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("suite", help="run the acceptance criteria")
    p.add_argument("--scale", choices=("smoke", "full"), default="smoke")
    p.add_argument("--output", default=None)
    p.set_defaults(fn=cmd_suite)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (InstanceFormatError, GeneralPositionError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CapExceededError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except CertificateError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
