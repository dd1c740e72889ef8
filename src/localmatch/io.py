"""Flat-file instance format and JSON serialization of reports.

The canonical instance format is JSON: a list of [x, y] points, an
optional perfect matching as [i, j] index pairs, and free-form metadata.
CSV files with one "x,y" row per point are accepted for import.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from .certificates import Certificate
from .generators import MinedInstance, MinerConfig
from .geometry import Point
from .matching import Matching, PointSet, RatioReport

__all__ = [
    "InstanceFile",
    "InstanceFormatError",
    "load_instance",
    "save_instance",
    "instance_from_objects",
    "ratio_report_to_dict",
    "certificate_to_dict",
    "mined_instance_to_dict",
]


class InstanceFormatError(ValueError):
    """Malformed instance file."""


@dataclass
class InstanceFile:
    points: list[tuple[float, float]]
    matching: Optional[list[tuple[int, int]]] = None
    metadata: dict = field(default_factory=dict)

    def point_set(self) -> PointSet:
        try:
            return PointSet([Point(x, y) for x, y in self.points])
        except ValueError as exc:
            raise InstanceFormatError(str(exc)) from exc

    def matching_obj(self) -> Matching:
        if self.matching is None:
            raise InstanceFormatError("instance file carries no matching")
        try:
            m = Matching(self.matching)
        except ValueError as exc:
            raise InstanceFormatError(str(exc)) from exc
        if m.covered() != frozenset(range(len(self.points))):
            raise InstanceFormatError("matching is not perfect on the instance points")
        return m

    def to_dict(self) -> dict:
        out: dict = {"points": [[x, y] for x, y in self.points]}
        if self.matching is not None:
            out["matching"] = [[i, j] for i, j in self.matching]
        if self.metadata:
            out["metadata"] = self.metadata
        return out


def instance_from_objects(
    ps: PointSet, matching: Optional[Matching] = None, metadata: Optional[dict] = None
) -> InstanceFile:
    return InstanceFile(
        points=[(p.x, p.y) for p in ps.points],
        matching=[tuple(pair) for pair in matching.pairs] if matching is not None else None,
        metadata=dict(metadata or {}),
    )


def _is_int(value) -> bool:
    """A JSON integer: ``json`` reads true and false as bools, which are ints."""
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_points(raw) -> list[tuple[float, float]]:
    if not isinstance(raw, list):
        raise InstanceFormatError("'points' must be a list of [x, y] pairs")
    points = []
    for idx, entry in enumerate(raw):
        if not (isinstance(entry, (list, tuple)) and len(entry) == 2):
            raise InstanceFormatError(f"point {idx} is not an [x, y] pair: {entry!r}")
        if not all(_is_int(v) or isinstance(v, float) for v in entry):
            raise InstanceFormatError(f"point {idx} has non-numeric coordinates")
        try:
            points.append((float(entry[0]), float(entry[1])))
        except OverflowError as exc:
            raise InstanceFormatError(f"point {idx} has a coordinate beyond float range") from exc
    return points


def _parse_matching(raw) -> list[tuple[int, int]]:
    if not isinstance(raw, list):
        raise InstanceFormatError("'matching' must be a list of [i, j] pairs")
    pairs = []
    for idx, entry in enumerate(raw):
        if not (isinstance(entry, (list, tuple)) and len(entry) == 2):
            raise InstanceFormatError(f"matching entry {idx} is not an [i, j] pair")
        i, j = entry
        if not (_is_int(i) and _is_int(j)):
            raise InstanceFormatError(f"matching entry {idx} has non-integer indices")
        pairs.append((i, j))
    return pairs


def load_instance(path: Union[str, Path]) -> InstanceFile:
    path = Path(path)
    if path.suffix.lower() == ".csv":
        return _load_csv(path)
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(data, dict) or "points" not in data:
        raise InstanceFormatError(f"{path}: expected an object with a 'points' field")
    points = _parse_points(data["points"])
    matching = _parse_matching(data["matching"]) if "matching" in data else None
    metadata = data.get("metadata", {})
    if not isinstance(metadata, dict):
        raise InstanceFormatError(f"{path}: 'metadata' must be an object")
    return InstanceFile(points=points, matching=matching, metadata=metadata)


def _load_csv(path: Path) -> InstanceFile:
    points = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise InstanceFormatError(f"{path}:{lineno}: expected 'x,y'")
        try:
            points.append((float(parts[0]), float(parts[1])))
        except ValueError as exc:
            raise InstanceFormatError(f"{path}:{lineno}: non-numeric coordinates") from exc
    return InstanceFile(points=points)


def save_instance(path: Union[str, Path], inst: InstanceFile) -> None:
    Path(path).write_text(json.dumps(inst.to_dict(), indent=2) + "\n")


def ratio_report_to_dict(report: RatioReport) -> dict:
    return {
        "weight_local": report.weight_local,
        "weight_global": report.weight_global,
        "ratio": report.ratio,
        "k_verified": report.k_verified,
        "is_local_max": report.is_local_max,
        "violating_subset": (
            [[i, j] for i, j in report.violating_subset]
            if report.violating_subset is not None
            else None
        ),
    }


def certificate_to_dict(cert: Certificate) -> dict:
    return {
        "kind": cert.kind,
        "witness": {
            "point": [cert.witness.point.x, cert.witness.point.y],
            "slack": cert.witness.slack,
            "kind": cert.witness.kind,
            "support": list(cert.witness.support),
            "multipliers": list(cert.witness.multipliers),
        },
        "beta": cert.beta,
        "star_weight": cert.star_weight,
        "matching_weight": cert.matching_weight,
        "oracle_weight": cert.oracle_weight,
        "per_edge_checks": [
            {"edge": [i, j], "star_sum": lhs, "bound": rhs}
            for (i, j), lhs, rhs in cert.per_edge_checks
        ],
    }


def mined_instance_to_dict(mined: MinedInstance, cfg: MinerConfig) -> dict:
    inst = instance_from_objects(mined.point_set, mined.local_matching)
    out = inst.to_dict()
    provenance = {
        "seed": mined.rng_seed,
        "k": mined.k,
        "ratio": mined.ratio,
        "iterations_used": mined.iterations_used,
        "num_points": cfg.num_points,
        "budget_iterations": cfg.budget_iterations,
        "restarts": cfg.restarts,
        "step_scale": cfg.step_scale,
    }
    out["metadata"] = {"provenance": provenance}
    return out
