"""End-to-end tests of the command-line interface and file formats."""

import dataclasses
import json
import math
import xml.etree.ElementTree as ET

import pytest

from localmatch import suite as suite_mod
from localmatch.cli import build_parser, main
from localmatch.generators import gen_random
from localmatch.io import (
    InstanceFile,
    InstanceFormatError,
    instance_from_objects,
    load_instance,
    save_instance,
)
from localmatch.matching import DEFAULT_ORACLE_CAP, optimal_matching
from localmatch.suite import CRITERIA, Criterion, Verdict
from test_acceptance import check_criterion


SQUARE = {"points": [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]}


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


class TestInstanceIO:
    def test_round_trip_is_exact(self, tmp_path):
        ps = gen_random(8, seed=11)
        inst = instance_from_objects(ps, optimal_matching(ps), {"note": "test"})
        path = tmp_path / "inst.json"
        save_instance(path, inst)
        back = load_instance(path)
        assert back.points == inst.points  # repr round-trip, no 1e-12 loss
        assert back.matching == inst.matching
        assert back.metadata == inst.metadata

    def test_csv_import(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("0,0\n1.5,2.25\n\n3,4\n1,1\n")
        inst = load_instance(path)
        assert inst.points == [(0.0, 0.0), (1.5, 2.25), (3.0, 4.0), (1.0, 1.0)]
        assert inst.matching is None

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(InstanceFormatError):
            load_instance(path)

    @pytest.mark.parametrize(
        "instance",
        [
            {"points": [[0, 0], [1]]},
            {"points": [["0", "0"], ["1", "0"], ["0", "1"], ["1", "1"]]},
            {"points": [[0, 0], [1, 0], [0, True], [1, 1]]},
            {"points": [[0, 0], [1, 0], [0, 1], [10**400, 1]]},  # an integer beyond float range
            {**SQUARE, "matching": [[True, 2], [False, 3]]},
            {**SQUARE, "matching": [[0.0, 2], [1, 3]]},
        ],
        ids=["short", "strings", "boolean", "overflow", "boolean-indices", "float-indices"],
    )
    def test_bad_points(self, tmp_path, instance):
        path = write_json(tmp_path / "bad.json", instance)
        with pytest.raises(InstanceFormatError):
            load_instance(path)
        assert main(["solve", "--input", path]) == 1

    def test_matching_must_be_perfect(self, tmp_path):
        inst = InstanceFile(points=[(0, 0), (1, 0), (0, 1), (1, 1)], matching=[(0, 1)])
        with pytest.raises(InstanceFormatError):
            inst.matching_obj()


class TestSolveCommand:
    def test_square_maximize(self, tmp_path, capsys):
        inp = write_json(tmp_path / "sq.json", SQUARE)
        out = tmp_path / "solved.json"
        assert main(["solve", "--input", inp, "--output", str(out)]) == 0
        solved = load_instance(out)
        assert sorted(tuple(p) for p in solved.matching) == [(0, 2), (1, 3)]
        assert solved.metadata["weight"] == pytest.approx(2 * math.sqrt(2))

    def test_malformed_input_exit_1(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("nope")
        assert main(["solve", "--input", str(path)]) == 1

    def test_missing_file_exit_1(self, tmp_path):
        assert main(["solve", "--input", str(tmp_path / "missing.json")]) == 1

    def test_cap_exit_2(self, tmp_path):
        ps = gen_random(30, seed=2)
        inp = tmp_path / "big.json"
        save_instance(inp, instance_from_objects(ps))
        assert main(["solve", "--input", str(inp)]) == 2

    @pytest.mark.parametrize(
        "argv",
        [[c, "--input", "x.json"] for c in ("solve", "verify", "certify", "crossing")],
    )
    def test_cap_default_is_oracle_cap(self, argv):
        assert build_parser().parse_args(argv).cap == DEFAULT_ORACLE_CAP

    @pytest.mark.parametrize("command", ["mine", "gen"])
    def test_cap_rejected_without_oracle(self, command):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--cap", "5"])


class TestVerifyCommand:
    def test_local_matching_exit_0(self, tmp_path):
        inp = write_json(
            tmp_path / "sq.json", {**SQUARE, "matching": [[0, 2], [1, 3]]}
        )
        out = tmp_path / "report.json"
        assert main(["verify", "--input", inp, "--k", "2", "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["is_local_max"] is True
        assert report["ratio"] == pytest.approx(1.0)

    def test_violating_matching_exit_3(self, tmp_path):
        inp = write_json(
            tmp_path / "sq.json", {**SQUARE, "matching": [[0, 1], [2, 3]]}
        )
        out = tmp_path / "report.json"
        assert main(["verify", "--input", inp, "--k", "2", "--output", str(out)]) == 3
        report = json.loads(out.read_text())
        assert report["violating_subset"] == [[0, 1], [2, 3]]

    def test_k1_always_passes(self, tmp_path):
        inp = write_json(
            tmp_path / "sq.json", {**SQUARE, "matching": [[0, 1], [2, 3]]}
        )
        assert main(["verify", "--input", inp, "--k", "1"]) == 0


class TestCertifyCommand:
    def test_certificate_and_svg(self, tmp_path):
        inp = write_json(
            tmp_path / "x.json",
            {
                "points": [[0, 0], [1, 1], [0, 1], [1, 0]],
                "matching": [[0, 1], [2, 3]],
            },
        )
        out = tmp_path / "cert.json"
        svg = tmp_path / "fig.svg"
        code = main(
            ["certify", "--input", inp, "--kind", "local2",
             "--output", str(out), "--svg", str(svg)]
        )
        assert code == 0
        cert = json.loads(out.read_text())
        assert cert["witness"]["slack"] < 0
        # Both diagonals have the same diametral disk, so its centre is optimal.
        assert cert["witness"]["support"] == [0]
        assert cert["witness"]["multipliers"] == [1.0]
        for row in cert["per_edge_checks"]:
            assert row["star_sum"] <= row["bound"] + 1e-7
        root = ET.fromstring(svg.read_text())
        assert root.tag.endswith("svg")
        assert root.attrib["version"] == "1.1"

    def test_non_local_matching_exit_3(self, tmp_path):
        inp = write_json(
            tmp_path / "sq.json", {**SQUARE, "matching": [[0, 1], [2, 3]]}
        )
        assert main(["certify", "--input", inp, "--kind", "local2"]) == 3


class TestCrossingCommand:
    def test_square_diagonals(self, tmp_path):
        inp = write_json(
            tmp_path / "sq.json", {**SQUARE, "matching": [[0, 2], [1, 3]]}
        )
        out = tmp_path / "cross.json"
        assert main(["crossing", "--input", inp, "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["is_pairwise_crossing"] is True
        assert report["balance_ok"] is True
        assert report["unique"] is True
        assert report["globally_maximum"] is True

    def test_unique_beyond_twelve_points(self, tmp_path):
        n = 14
        angles = [2 * math.pi * (t + 0.1) / n for t in range(n)]
        points = [[math.cos(a), math.sin(a)] for a in angles]
        diagonals = [[t, t + n // 2] for t in range(n // 2)]
        inp = write_json(tmp_path / "circle.json", {"points": points, "matching": diagonals})
        out = tmp_path / "cross.json"
        assert main(["crossing", "--input", inp, "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["unique"] is True
        assert report["globally_maximum"] is True

    def test_collinear_input_exit_1(self, tmp_path):
        inp = write_json(
            tmp_path / "col.json",
            {"points": [[0, 0], [1, 0], [2, 0], [0, 1]], "matching": [[0, 3], [1, 2]]},
        )
        assert main(["crossing", "--input", inp]) == 1


class TestGenCommand:
    def test_deterministic_output(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(["gen", "--family", "random", "--n", "6", "--seed", "4",
                     "--output", str(a)]) == 0
        assert main(["gen", "--family", "random", "--n", "6", "--seed", "4",
                     "--output", str(b)]) == 0
        assert a.read_text() == b.read_text()

    def test_circle_family_carries_matching(self, tmp_path):
        out = tmp_path / "circle.json"
        assert main(["gen", "--family", "circle", "--n", "5", "--eps", "0.05",
                     "--output", str(out)]) == 0
        inst = load_instance(out)
        assert len(inst.points) == 10
        assert len(inst.matching) == 5


class TestMineCommand:
    def test_deterministic_file_and_monotone_log(self, tmp_path, capsys):
        args = ["mine", "--k", "2", "--n", "6", "--seed", "6", "--budget", "400",
                "--restarts", "2"]
        out1 = tmp_path / "m1.json"
        out2 = tmp_path / "m2.json"
        assert main(args + ["--output", str(out1)]) == 0
        log = capsys.readouterr().out
        ratios = [
            float(line.rsplit(" ", 1)[1])
            for line in log.splitlines()
            if line.startswith("restart")
        ]
        assert ratios == sorted(ratios, reverse=True)
        assert main(args + ["--output", str(out2)]) == 0
        assert out1.read_text() == out2.read_text()

    def test_k_above_pair_count_rejected(self, tmp_path, capsys):
        # 6 points have 3 pairs; an instance labelled k = 4 could not be
        # verified, and every matching is 1-local, so for neither is anything
        # mined or written.
        out = tmp_path / "mined.json"
        for k, message in (("4", "exceeds the 3 pairs"), ("1", "must be at least 2")):
            assert main(["mine", "--k", k, "--n", "6", "--budget", "10",
                         "--output", str(out)]) == 1
            assert message in capsys.readouterr().err
            assert not out.exists()

    def test_verify_reproduces_stored_ratio(self, tmp_path):
        out = tmp_path / "mined.json"
        assert main(["mine", "--k", "2", "--n", "6", "--seed", "6", "--budget", "400",
                     "--restarts", "2", "--output", str(out)]) == 0
        mined = json.loads(out.read_text())
        rep_path = tmp_path / "rep.json"
        assert main(["verify", "--input", str(out), "--k", "2",
                     "--output", str(rep_path)]) == 0
        report = json.loads(rep_path.read_text())
        stored = mined["metadata"]["provenance"]["ratio"]
        assert report["ratio"] == pytest.approx(stored, abs=1e-9)


class TestSuiteCommand:
    def test_smoke_suite_passes(self, tmp_path, capsys):
        out = tmp_path / "summary.json"
        code = main(["suite", "--scale", "smoke", "--output", str(out)])
        printed = capsys.readouterr().out
        assert code == 0
        summary = json.loads(out.read_text())
        assert summary["failures"] == 0
        assert [c["name"] for c in summary["criteria"]] == [
            "oracle_equivalence",
            "k_local_theorem",
            "local2_bound_and_certificates",
            "local3_bounds_and_certificates",
            "disk_enlargement",
            "extremal_lemmas",
            "pairwise_crossing",
            "miner",
            "circle_construction",
        ]
        assert [c["number"] for c in summary["criteria"]] == list(range(1, 10))
        for entry in summary["criteria"]:
            assert entry["checks"] and all(entry["checks"].values())
        assert printed.count("PASS") == summary["total"] == 9

    def test_failing_check_gives_nonzero_exit(self, monkeypatch, capsys):
        failing = Criterion(
            0, "always_fails", None, lambda scale: Verdict({"injected": False}, "injected failure")
        )
        monkeypatch.setattr(suite_mod, "CRITERIA", [failing])
        assert main(["suite", "--scale", "smoke"]) == 3
        assert "FAIL always_fails" in capsys.readouterr().out

    def test_failed_hard_check_fails_cli_and_acceptance_test(self, monkeypatch, capsys):
        # Criterion 9 with a locality oracle that rejects the 23-pair circle:
        # exactly its "2-local minimum at 23 pairs" check fails.
        real = suite_mod.is_k_local_min

        def rejects_23_pairs(ps, m, k):
            report = real(ps, m, k)
            if len(ps) == 46:
                report = dataclasses.replace(report, violating_subset=((0, 1), (2, 3)))
            return report

        monkeypatch.setattr(suite_mod, "is_k_local_min", rejects_23_pairs)
        monkeypatch.setattr(suite_mod, "CRITERIA", [CRITERIA[8]])
        assert main(["suite", "--scale", "smoke"]) == 3
        printed = capsys.readouterr().out
        assert "FAIL circle_construction" in printed
        assert "; failed: 2-local minimum at 23 pairs [" in printed
        with pytest.raises(AssertionError) as failure:
            check_criterion(9)
        assert str(failure.value).splitlines()[0] == (
            "criterion 9 (circle_construction) failed: 2-local minimum at 23 pairs"
        )
