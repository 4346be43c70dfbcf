"""Tests of the benchmark itself (smoke sizes): ``python -m pytest perfbench -q``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gate
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "src"))


def _bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_appears_with_its_unit(workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = _bench(ROOT, workload, trace)
        assert proc.returncode == 0, proc.stderr
        line = json.loads(proc.stdout.splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        units = {name: m["unit"] for name, m in line["metrics"].items()}
        assert units == {m["name"]: m["unit"] for m in BENCHMARK[key]}
        if trace:
            # The spans really wrap the CLI: one cli.main call per op and pass.
            ops = len(workloads.build(workload, 3, smoke=True))
            assert line["metrics"]["cli.main.calls"]["value"] == ops


def _shape(op: workloads.Op) -> list[str]:
    """The argv with the values of --seed and --mu masked."""
    out, masked = [], False
    for tok in op.argv:
        if tok.startswith("--"):
            masked = tok in ("--seed", "--mu")
            out.append(tok)
        else:
            out.append("<value>" if masked else tok)
    return out


@pytest.mark.parametrize("smoke", (False, True))
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_second_seed_gives_same_shapes_with_other_values(workload, smoke):
    first, second = workloads.build(workload, 1, smoke), workloads.build(workload, 2, smoke)
    assert workloads.build(workload, 1, smoke) == first
    assert [_shape(op) for op in first] == [_shape(op) for op in second]
    assert [op.expect for op in first] == [op.expect for op in second]
    seeds = [(gate.flag_values(a.argv, "--seed"), gate.flag_values(b.argv, "--seed"))
             for a, b in zip(first, second)]
    assert sum(a != b for a, b in seeds) >= len(first) // 2
    if workload == "spectrum-sweep":
        mus = [(gate.flag_values(a.argv, "--mu"), gate.flag_values(b.argv, "--mu"))
               for a, b in zip(first, second) if gate.flag_values(a.argv, "--mu")]
        assert mus and all(a != b for a, b in mus)


def _run_cli(argv: list[str]) -> tuple[tuple[str, ...], int, dict]:
    from liouville_forge import cli

    full = tuple(argv) + ("--threads", "1", "--out", "r.json")
    code = cli.main(list(full))
    return full, code, json.loads(Path("r.json").read_text())


def test_wrong_output_trips_the_gate(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)

    argv, code, report = _run_cli(["find-matrix", "--n", "3", "--mu", "1.0", "--seed", "0"])
    expect = {"status": ("pass", "not-found")}
    assert gate.check(argv, expect, code, report, tmp_path) == []
    bad = json.loads(json.dumps(report))
    bad["results"]["certificate"]["matrix"][0][0] += 1
    assert gate.check(argv, expect, code, bad, tmp_path)
    bad = json.loads(json.dumps(report))
    bad["results"]["certificate"]["roots"][0] += 0.01
    assert gate.check(argv, expect, code, bad, tmp_path)
    assert gate.check(argv, expect, 1, report, tmp_path)

    argv, code, report = _run_cli(["skeleton", "--model", "solenoid", "--depth", "3",
                                   "--seeds", "4000", "--section", "0.0",
                                   "--csv-out", "c.csv"])
    expect = {"status": ("pass",), "route": "section", "clusters": 8, "csv": True}
    assert gate.check(argv, expect, code, report, tmp_path) == []
    assert gate.check(argv, {**expect, "clusters": 9}, code, report, tmp_path)
    assert gate.check(argv, {**expect, "estimate": (3.0, 3.5, True)}, code, report, tmp_path)
    bad = json.loads(json.dumps(report))
    bad["results"]["skeleton"]["box_counting"]["counts"][-1] = 0
    assert gate.check(argv, expect, code, bad, tmp_path)
    lines = Path("c.csv").read_text().splitlines()
    Path("c.csv").write_text("\n".join(lines[:-1]) + "\n")
    assert gate.check(argv, expect, code, report, tmp_path)

    argv, code, report = _run_cli(["descent", "--model", "solenoid", "--force-G", "2.1972",
                                   "--samples", "300"])
    expect = {"status": ("fail",), "residual_above": 1e-2}
    assert gate.check(argv, expect, code, report, tmp_path) == []
    assert gate.check(argv, {"status": ("pass",)}, code, report, tmp_path)
    bad = json.loads(json.dumps(report))
    bad["results"]["descent"]["max_residual"] = 1e-3
    assert gate.check(argv, expect, code, bad, tmp_path)


def test_layer_metrics_from_spans():
    # find_matrix re-entering itself, with two sturm_isolate children.
    recs = [
        ["spectrum_search.find_matrix", 0, -1, 0.0, 10.0, None, None],
        ["spectrum_search.find_matrix", 0, 0, 1.0, 5.0, None, None],
        ["exactlin.sturm_isolate", 0, 1, 2.0, 3.0, None, None],
        ["exactlin.sturm_isolate", 0, 0, 6.0, 8.0, "NotIsolating", None],
        ["spectrum_search.newton_refine", 0, 0, 8.0, 9.0, "NoConvergence", None],
    ]
    m = spans.layer_metrics(recs, report_bytes=7)
    assert m["spectrum_search.find_matrix.calls"] == 2
    assert m["spectrum_search.find_matrix.s"] == 10.0
    assert m["exactlin.sturm_isolate.s"] == 3.0
    assert m["spectrum_search.newton_refine.fail.NoConvergence"] == 1
    assert m["spectrum_search.newton_refine.ok_ratio"] == 0.0
    assert m["spectrum_search.exact_rejects"] == 0  # 2 isolations, 2 certificates
    assert m["cli.report_bytes"] == 7
    assert set(m) >= {name for name, _ in spans.LAYER_METRICS}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "contraction", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
