"""The paper's second example up the dimension ladder.

For n = 3..12 the anosov model is built from the middle targets
``linspace(0.6, 1.8, n - 2)`` at 3 decimals, ``--eps 0.5 --seed 0``, and run
through every subcommand in process.  ``LADDER`` pins each command's exit
code at each n with the reason for it; a change that moves a cell edits
that one line.  The aim is exit 0 with evidence in every cell.
"""

import json

import numpy as np
import pytest

from liouville_forge.cli import main

NS = range(3, 13)
COMMANDS = {
    "find-matrix": ["find-matrix"],
    "certify": ["certify", "--model", "anosov", "--samples", "2000"],
    "descent": ["descent", "--model", "anosov", "--samples", "2000"],
    "skeleton": ["skeleton", "--model", "anosov", "--depth", "2", "--seeds", "20000"],
}

FOUND = "the search certifies a matrix"
EXHAUSTED = ("the search exhausts k1 up to 200000: its lattice points give "
             "non-real roots or miss a middle target")
CERTIFIED = "d1, d2 and d3 pass at every sample"
TINY_DET = ("d2 alone fails: |det D phi|, the product of the disk rates, "
            "falls below tol 1e-8")
DESCENDS = "the residual is below tol 1e-9 and the collar margin positive"
ROUNDING = ("the residual is absolute: rounding scaled by about e^(2G) at the "
            "roof G exceeds tol 1e-9")
EXACT = ("exit 0 with the exact estimate n + 1: the depth-2 image is counted in "
         "closed form on at least two dyadic scales at or above its half-width")


def _row(find, certify, descent, skeleton):
    return dict(zip(COMMANDS, (find, certify, descent, skeleton)))


# n -> command -> (exit code, reason)
LADDER = {
    3: _row((0, FOUND), (0, CERTIFIED), (0, DESCENDS), (0, EXACT)),
    4: _row((0, FOUND), (0, CERTIFIED), (0, DESCENDS), (0, EXACT)),
    5: _row((0, FOUND), (0, CERTIFIED), (0, DESCENDS), (0, EXACT)),
    6: _row((0, FOUND), (1, TINY_DET), (0, DESCENDS), (0, EXACT)),
    7: _row((0, FOUND), (1, TINY_DET), (1, ROUNDING), (0, EXACT)),
    8: _row((0, FOUND), (1, TINY_DET), (1, ROUNDING), (0, EXACT)),
    9: _row((0, FOUND), (1, TINY_DET), (1, ROUNDING), (0, EXACT)),
    10: _row((3, EXHAUSTED), (3, EXHAUSTED), (3, EXHAUSTED), (3, EXHAUSTED)),
    11: _row((3, EXHAUSTED), (3, EXHAUSTED), (3, EXHAUSTED), (3, EXHAUSTED)),
    12: _row((3, EXHAUSTED), (3, EXHAUSTED), (3, EXHAUSTED), (3, EXHAUSTED)),
}


def _mu(n: int) -> list[str]:
    return [f"{v:.3f}" for v in np.linspace(0.6, 1.8, n - 2)]


def test_table_covers_the_ladder():
    assert list(LADDER) == list(NS)
    assert all(list(row) == list(COMMANDS) for row in LADDER.values())


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("n", NS)
def test_ladder_cell(n, command, tmp_path):
    out = tmp_path / "r.json"
    argv = COMMANDS[command] + ["--n", str(n), "--mu", *_mu(n), "--eps", "0.5",
                                "--seed", "0", "--out", str(out)]
    code, reason = LADDER[n][command]
    assert main(argv) == code, reason
    report = json.loads(out.read_text())
    results = report["results"]

    if code == 3:
        assert report["status"] == "not-found"
        assert set(results["search"]) == {"exact_checks", "k1_tried", "rejections"}
        assert results["search"]["k1_tried"][-1] <= 200_000
        return
    assert report["status"] == ("pass" if code == 0 else "fail")
    if command == "find-matrix":
        assert results["certificate"]["n"] == n
    elif command == "certify":
        cert = results["contraction_certificate"]
        failing = {k for k in ("d1", "d2", "d3") if not cert[k]["pass"]}
        assert failing == ({"d2"} if code == 1 else set())
        if code == 1:
            assert cert["d2"]["collisions"] == 0
            assert cert["d2"]["min_abs_det"] < cert["tol"]
    elif command == "descent":
        descent = results["descent"]
        assert (descent["max_residual"] >= descent["tol"]) == (code == 1)
        assert descent["transversality_margin"] > 0
    else:
        skeleton = results["skeleton"]
        assert skeleton["route"] == "cloud"
        assert skeleton["evidence"] == "exact"
        assert abs(skeleton["estimate"] - (n + 1)) < 1e-9
        assert skeleton["resolved_scales"] >= 2
