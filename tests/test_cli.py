import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import liouville_forge
from liouville_forge.cli import main, resolve_threads


def run(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse usage errors
        return exc.code


class TestFindMatrix:
    def test_n2_default(self, tmp_path):
        out = tmp_path / "r.json"
        assert run(["find-matrix", "--n", "2", "--eps", "0.4", "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["status"] == "pass"
        cert = rep["results"]["certificate"]
        assert cert["matrix"] == [[0, -1], [1, 3]]
        assert all(cert["conditions"].values())

    def test_deterministic_bytes(self, tmp_path):
        out = tmp_path / "r.json"
        args = ["find-matrix", "--n", "3", "--mu", "2.0", "--eps", "0.5",
                "--seed", "7", "--out", str(out)]
        assert run(args) == 0
        first = out.read_bytes()
        assert run(args) == 0
        assert out.read_bytes() == first

    def test_wrong_mu_count_usage_error(self):
        assert run(["find-matrix", "--n", "3", "--mu", "1.0", "2.0"]) == 2

    def test_search_exhausted(self, tmp_path):
        out = tmp_path / "r.json"
        code = run(["find-matrix", "--n", "3", "--mu", "0.5", "--eps", "0.2",
                    "--k1-max", "2", "--out", str(out)])
        assert code == 3
        assert json.loads(out.read_text())["status"] == "not-found"

    def test_search_counters(self, tmp_path):
        # Found: every k1 tried got one exact check, and all but the last
        # were rejected.  Not found (k1_max below the k1 floor): nothing tried.
        out = tmp_path / "r.json"
        assert run(["find-matrix", "--n", "3", "--mu", "2.0", "--eps", "0.5",
                    "--seed", "7", "--out", str(out)]) == 0
        search = json.loads(out.read_text())["results"]["search"]
        assert search["exact_checks"] == len(search["k1_tried"])
        assert search["exact_checks"] == sum(search["rejections"].values()) + 1
        assert set(search["rejections"]) == {"not_real", "middle", "tail"}
        assert run(["find-matrix", "--n", "3", "--mu", "0.5", "--eps", "0.2",
                    "--k1-max", "2", "--out", str(out)]) == 3
        search = json.loads(out.read_text())["results"]["search"]
        assert search["k1_tried"] == [] and search["exact_checks"] == 0


class TestCertify:
    def test_solenoid(self, tmp_path):
        out = tmp_path / "r.json"
        assert run(["certify", "--model", "solenoid", "--samples", "10000",
                    "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        d3 = rep["results"]["contraction_certificate"]["d3"]
        assert d3["g_min"] == pytest.approx(math.log(10), abs=1e-9)

    def test_transverse_knot_degenerate_params_fail(self, tmp_path):
        out = tmp_path / "r.json"
        code = run(["certify", "--model", "transverse-knot", "--c", "0.001",
                    "--delta", "0.001", "--out", str(out)])
        assert code == 1
        rep = json.loads(out.read_text())
        assert rep["status"] == "fail"
        cert = rep["results"]["contraction_certificate"]
        assert not (cert["d1"]["pass"] and cert["d3"]["pass"])

    def test_anosov(self, tmp_path):
        out = tmp_path / "r.json"
        assert run(["certify", "--model", "anosov", "--n", "2", "--eps", "0.4",
                    "--samples", "3000", "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        cert = rep["results"]["contraction_certificate"]
        lam = rep["results"]["spectrum_certificate"]["roots"][-1]
        assert cert["d3"]["factor_max"] == pytest.approx(lam, abs=1e-8)
        assert rep["results"]["search"]["exact_checks"] >= 1

    def test_anosov_wrong_mu_count(self):
        assert run(["certify", "--model", "anosov", "--n", "3"]) == 2

    def test_anosov_eigen_failure_usage_error(self, capsys):
        # mu = -1 gives a certified matrix whose smallest eigenvalue is
        # negative, which anosov_model rejects with EigenFailure.
        code = run(["certify", "--model", "anosov", "--n", "3", "--mu", "-1.0",
                    "--eps", "0.5", "--samples", "100"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestSkeleton:
    def test_solenoid_section_clusters(self, tmp_path):
        out = tmp_path / "r.json"
        csv = tmp_path / "sec.csv"
        code = run(["skeleton", "--model", "solenoid", "--depth", "3",
                    "--section", "0.0", "--seeds", "16000",
                    "--csv-out", str(csv), "--out", str(out)])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["results"]["section"]["clusters"] == 8
        # The section cloud is seeded on the fiber, so the slab keeps every
        # point: 2000 per branch, 8 branches.
        assert rep["results"]["section"]["points"] == 16000
        lines = csv.read_text().splitlines()
        assert lines[0] == "x,y"
        assert len(lines) - 1 == rep["results"]["section"]["points"]

    def test_anosov_cloud(self, tmp_path):
        out = tmp_path / "r.json"
        code = run(["skeleton", "--model", "anosov", "--n", "2", "--eps", "0.4",
                    "--depth", "3", "--seeds", "50000", "--out", str(out)])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["results"]["skeleton"]["route"] == "cloud"
        assert abs(rep["results"]["skeleton"]["estimate"] - 3.0) < 0.3

    def test_transverse_knot_rejected(self):
        assert run(["skeleton", "--model", "transverse-knot", "--depth", "2"]) == 2

    def test_section_on_cloud_route_usage_error(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = run(["skeleton", "--model", "anosov", "--n", "2", "--depth", "2",
                    "--seeds", "1000", "--section", "0.0", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_csv_cloud_export(self, tmp_path):
        csv = tmp_path / "cloud.csv"
        out = tmp_path / "r.json"
        code = run(["skeleton", "--model", "solenoid", "--depth", "2",
                    "--seeds", "5000", "--csv-out", str(csv), "--out", str(out)])
        assert code == 0
        lines = csv.read_text().splitlines()
        assert lines[0] == "theta,x,y"
        assert len(lines) > 1000

    def test_depth8_section_clusters_match_analysis(self, tmp_path):
        # The solenoid's depth-8 image meets a fiber in 2^8 disks.
        out = tmp_path / "r.json"
        assert run(["skeleton", "--model", "solenoid", "--depth", "8",
                    "--section", "0.0", "--out", str(out)]) == 0
        results = json.loads(out.read_text())["results"]
        assert results["section"]["clusters"] == results["skeleton"]["section_clusters"] == 256

    def test_thin_branches_report_no_clusters(self, tmp_path):
        out = tmp_path / "r.json"
        assert run(["skeleton", "--model", "solenoid", "--depth", "8", "--seeds", "16384",
                    "--section", "0.0", "--out", str(out)]) == 0
        text = out.read_text()
        assert '"section_clusters": null' in text
        assert "clusters" not in json.loads(text)["results"]["section"]


class TestDescent:
    def test_solenoid_passes(self, tmp_path):
        out = tmp_path / "r.json"
        assert run(["descent", "--model", "solenoid", "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        d = rep["results"]["descent"]
        assert d["max_residual"] < 1e-9
        assert d["transversality_margin"] > 0
        assert d["g_constant"] == pytest.approx(math.log(10), abs=1e-12)

    def test_forced_wrong_constant_fails(self, tmp_path):
        out = tmp_path / "r.json"
        code = run(["descent", "--model", "solenoid", "--force-G", "2.1972",
                    "--out", str(out)])
        assert code == 1
        rep = json.loads(out.read_text())
        assert rep["status"] == "fail"
        assert rep["results"]["descent"]["max_residual"] > 1e-2

    def test_nan_tol_fails_closed(self, tmp_path):
        out = tmp_path / "r.json"
        code = run(["descent", "--model", "solenoid", "--force-G", "2.1972",
                    "--tol", "nan", "--out", str(out)])
        assert code == 1
        assert json.loads(out.read_text())["status"] == "fail"

    def test_jet_space(self, tmp_path):
        out = tmp_path / "r.json"
        assert run(["descent", "--model", "jet-space", "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["results"]["descent"]["g_constant"] == pytest.approx(
            math.log(2), abs=1e-12
        )

    def test_transverse_knot(self, tmp_path):
        out = tmp_path / "r.json"
        assert run(["descent", "--model", "transverse-knot", "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["results"]["descent"]["g_mode"] == "model"


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["descent", "--model", "solenoid", "--samples", "0"],
        ["descent", "--model", "solenoid", "--tilt-eps", "-1"],
        ["skeleton", "--model", "solenoid", "--depth", "-1", "--seeds", "1000"],
        ["skeleton", "--model", "solenoid", "--depth", "2", "--seeds", "1000",
         "--scales", "0.1"],
        ["certify", "--model", "solenoid", "--samples", "-5"],
        ["certify", "--model", "solenoid", "--samples", "0"],
        ["find-matrix", "--n", "3", "--mu", "1.0", "2.0"],
        ["find-matrix", "--n", "3", "--mu", "inf"],
        ["find-matrix", "--n", "3", "--mu", "1.0", "--eps", "nan"],
        ["find-matrix", "--n", "3", "--mu", "1.0", "--eps", "inf"],
        ["skeleton", "--model", "solenoid", "--depth", "2", "--seeds", "-3"],
        ["skeleton", "--model", "solenoid", "--depth", "2", "--seeds", "1000",
         "--scales", "nan", "0.1"],
        # 2**40 section branches from 10 seeds; rejected before allocating.
        ["skeleton", "--model", "solenoid", "--depth", "40", "--seeds", "10"],
    ], ids=["descent-samples-0", "descent-tilt-eps-negative", "skeleton-depth-negative",
            "skeleton-one-scale", "certify-samples-negative", "certify-samples-0",
            "find-matrix-mu-count", "find-matrix-mu-inf", "find-matrix-eps-nan",
            "find-matrix-eps-inf", "skeleton-seeds-negative", "skeleton-scales-nan",
            "skeleton-seeds-below-branches"])
    def test_bad_input_exits_2_without_report(self, argv, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert run(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["certify", "--model", "solenoid", "--samples", "10000000000000"],
        ["descent", "--model", "solenoid", "--samples", "10000000000000"],
        ["skeleton", "--model", "jet-space", "--depth", "1", "--seeds", "10000000000000"],
    ], ids=["certify-samples", "descent-samples", "skeleton-seeds"])
    def test_count_too_large_to_allocate_exits_2(self, argv, tmp_path):
        # Hundreds of TiB of points; the 3 GB address-space cap makes the
        # allocation fail at once on any machine.
        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (3 * 10**9, 3 * 10**9))

        src = str(Path(liouville_forge.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-m", "liouville_forge.cli", *argv, "--out", "r.json"],
            cwd=tmp_path, env=env, capture_output=True, text=True,
            preexec_fn=cap_address_space, timeout=120,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "r.json").exists()

    def test_skeleton_rejects_knot_flags(self, tmp_path, capsys):
        # skeleton cannot build the transverse knot, so it has no knot flags.
        out = tmp_path / "r.json"
        argv = ["skeleton", "--model", "solenoid", "--depth", "1", "--c", "0.2"]
        assert run(argv + ["--out", str(out)]) == 2
        assert "unrecognized arguments: --c 0.2" in capsys.readouterr().err
        assert not out.exists()


class TestImports:
    def test_find_matrix_imports_no_scipy(self, tmp_path):
        # scipy is imported only where clusters are counted or a blend roof
        # is fitted; a module-level import would cost every command.
        script = (
            "import sys\n"
            "import liouville_forge.cli\n"
            "liouville_forge.cli.main(['find-matrix', '--n', '3', '--mu', '1.0',"
            " '--out', sys.argv[1]])\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        src = str(Path(liouville_forge.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-c", script, "r.json"], cwd=tmp_path,
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestReportShape:
    def test_sorted_keys_and_metadata(self, tmp_path):
        out = tmp_path / "r.json"
        run(["find-matrix", "--n", "2", "--eps", "0.5", "--out", str(out)])
        text = out.read_text()
        rep = json.loads(text)
        assert rep["schema_version"] == 1
        assert rep["tool_version"]
        assert rep["inputs"]["eps"] == 0.5
        # keys serialized in sorted order at the top level
        keys = [line.split('"')[1] for line in text.splitlines()
                if line.startswith('  "')]
        assert keys == sorted(keys)

    def test_float_formatting_17_digits(self, tmp_path):
        out = tmp_path / "r.json"
        run(["descent", "--model", "solenoid", "--out", str(out)])
        assert "2.3025850929940455" in out.read_text()  # log(10) at 17 digits

    def test_floats_use_shortest_repr(self, tmp_path):
        out = tmp_path / "r.json"
        run(["find-matrix", "--n", "2", "--eps", "0.4", "--out", str(out)])
        assert '"eps": 0.4,' in out.read_text()
        run(["certify", "--model", "solenoid", "--samples", "100", "--tol", "1e-8",
             "--out", str(out)])
        assert '"tol": 1e-08' in out.read_text()


class TestThreads:
    def test_explicit_wins(self):
        assert resolve_threads(4) == 4

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("LIOUVILLE_FORGE_THREADS", "3")
        assert resolve_threads(None) == 3

    def test_default_cpu_count(self, monkeypatch):
        monkeypatch.delenv("LIOUVILLE_FORGE_THREADS", raising=False)
        assert resolve_threads(None) >= 1
