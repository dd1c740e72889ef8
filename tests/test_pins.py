"""The outputs that CI pins across commits, checked in-process.

Each command runs through ``cli.main`` into a temporary directory, and
each digest is the SHA-256 that ``.github/workflows/tier1.yml`` records for
the same command's stdout or file; a change to one is a change to both.
CI keeps its own steps, which also run the installed console script in
fresh processes.
"""

import hashlib
import json

import pytest

from localmatch.cli import main

MINED_CONFIGS = {
    "mine-a": ["--k", "3", "--n", "8", "--seed", "2", "--budget", "300", "--restarts", "2"],
    "mine-c": ["--k", "2", "--n", "6", "--seed", "7", "--budget", "900", "--restarts", "2"],
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run(capsys, *argv, code=0) -> str:
    """stdout of ``localmatch *argv``, which must exit with ``code``."""
    capsys.readouterr()
    assert main([str(a) for a in argv]) == code, argv
    return capsys.readouterr().out


def test_raised_cap_solves_28_points(tmp_path, capsys):
    # Weights 11.372676383861306 and 1.8450057244443627 on the batched path.
    inst = tmp_path / "random28.json"
    run(capsys, "gen", "--family", "random", "--n", 28, "--seed", 5, "--output", inst)
    solve = ["solve", "--input", inst, "--cap", 14, "--objective"]
    assert sha256(run(capsys, *solve, "max")) == (
        "6394d6c86f221920c4c4df30cf643b5228308437973163b2c278c4e31f482b2f"
    )
    assert sha256(run(capsys, *solve, "min")) == (
        "2daf8a0ea320377fd8ff2bf845fab0bf33a5c6289a26b3410a2ce8ff21d4b27e"
    )


def test_oracle_and_4_local_verdicts_at_20_points(tmp_path, capsys):
    # Weights 7.003899642533623 and 1.5455554716125524; the maximum's clean
    # verdict over all 210 4-subsets; the minimum's verdict exits 3 on the
    # violating subset [(0, 2), (1, 12), (3, 4), (5, 6)].
    inst, best, worst = (tmp_path / f"random20{s}.json" for s in ("", "-max", "-min"))
    run(capsys, "gen", "--family", "random", "--n", 20, "--seed", 3, "--output", inst)
    solve_max = run(capsys, "solve", "--input", inst, "--objective", "max", "--output", best)
    solve_min = run(capsys, "solve", "--input", inst, "--objective", "min", "--output", worst)
    clean = run(capsys, "verify", "--input", best, "--k", 4)
    violated = run(capsys, "verify", "--input", worst, "--k", 4, code=3)
    assert json.loads(violated)["violating_subset"] == [[0, 2], [1, 12], [3, 4], [5, 6]]
    assert {
        "solve20-max.txt": sha256(solve_max),
        "solve20-min.txt": sha256(solve_min),
        "random20-max.json": sha256(best.read_text()),
        "verify20-k4.json": sha256(clean),
        "verify20-min-k4.json": sha256(violated),
    } == {
        "solve20-max.txt": "9e5ede6cf29f24c4438b3c8454293e3c832b1a333a97d53a4001d950acf6132b",
        "solve20-min.txt": "4fd0cc5461de018c2223bfed821f5b11c106701f858e5740cb969028852d3a73",
        "random20-max.json": "f755909f39f451a48140a55616e0143ec30c70111699414b463557621a6cbcdd",
        "verify20-k4.json": "5e85c4418ae960ed2dbbc14229e1e13cecad86570b7870cfe1db6efd1f4062a9",
        "verify20-min-k4.json": "f8b1c4c2d53f8a4706c4e6dec2b9f8c17d44f6054f19bcaf276a61c84ac41e67",
    }


@pytest.mark.parametrize(
    "family, n, seed, digest",
    [
        # A full report: crossing, balanced, unique, globally maximum.
        ("convex", 16, 3, "a719cbbaab6f065481d39e0ac8e2490955a83dc033738cd9e9cca436c3c173a9"),
        # A partial one: the non-crossing pair (3, 8), (4, 11).
        ("random", 12, 4, "5944fdc72a7548895188a54e0f546e51edcbe282cf1b78d146a70493c7212617"),
    ],
    ids=["convex16", "random12"],
)
def test_crossing_reports(tmp_path, capsys, family, n, seed, digest):
    inst, best = tmp_path / "instance.json", tmp_path / "instance-max.json"
    run(capsys, "gen", "--family", family, "--n", n, "--seed", seed, "--output", inst)
    run(capsys, "solve", "--input", inst, "--output", best)
    assert sha256(run(capsys, "crossing", "--input", best)) == digest


def test_mined_verified_and_certified_outputs_repeat(tmp_path, capsys):
    # Two runs of each command write the same bytes, and the Fingerhut
    # witness on the mined 3-local maximum keeps its recorded slack.
    for name, config in MINED_CONFIGS.items():
        outputs = [tmp_path / f"{name}.{side}.json" for side in "ab"]
        for out in outputs:
            run(capsys, "mine", *config, "--output", out)
        assert outputs[0].read_bytes() == outputs[1].read_bytes(), name
    mined = tmp_path / "mine-a.a.json"
    files = {}
    for side in "ab":
        verify, certify, svg = (tmp_path / f"{what}.{side}" for what in ("verify", "certify", "svg"))
        run(capsys, "verify", "--input", mined, "--k", 3, "--output", verify)
        run(capsys, "certify", "--input", mined, "--kind", "local3-fingerhut",
            "--output", certify, "--svg", svg)
        files[side] = [path.read_bytes() for path in (verify, certify, svg)]
    assert files["a"] == files["b"]
    slack = json.loads(files["a"][1])["witness"]["slack"]
    assert abs(slack - (-0.14677000743884183)) <= 1e-12, repr(slack)
