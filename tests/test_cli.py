import json
import math
import os
import resource
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import liouville_forge
from liouville_forge import cli, torus_builder
from liouville_forge.cli import build_parser, main
from liouville_forge.contact_kernel import builtin_model


def run(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse usage errors
        return exc.code


def _run_capped(argv, tmp_path, cap=3 * 10**9):
    """The CLI in a subprocess under an address-space cap of ``cap`` bytes."""
    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    src = str(Path(liouville_forge.__file__).resolve().parents[1])
    # OpenBLAS reserves address space per thread; one thread keeps the cap
    # independent of the core count.
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1"}
    return subprocess.run(
        [sys.executable, "-m", "liouville_forge.cli", *argv, "--out", "r.json"],
        cwd=tmp_path, env=env, capture_output=True, text=True,
        preexec_fn=cap_address_space, timeout=120,
    )


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

    def test_c_equal_delta_report_is_strict_json(self, tmp_path):
        # The map divides by zero on the chart edge y = 1: a fail whose
        # margin has no finite value and is written as null, not -Infinity.
        def refuse(name):
            raise ValueError(f"{name} is not JSON")

        out = tmp_path / "r.json"
        assert run(["certify", "--model", "transverse-knot", "--delta", "0.1",
                    "--samples", "500", "--out", str(out)]) == 1
        cert = json.loads(out.read_text(), parse_constant=refuse)["results"][
            "contraction_certificate"]
        assert cert["d1"]["min_margin"] is None and not cert["d1"]["pass"]
        assert any("non-finite" in note for note in cert["notes"])

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

    def test_anosov_n9_gives_a_verdict_under_address_cap(self, tmp_path):
        # The full probe product at n = 9 needed more than 3 GB (exit 2).
        argv = ["certify", "--model", "anosov", "--n", "9", "--mu", "0.6", "0.8", "1.0",
                "1.2", "1.4", "1.6", "1.8", "--eps", "0.5", "--samples", "2000"]
        proc = _run_capped(argv, tmp_path)
        assert proc.returncode in (0, 1), proc.stderr
        rep = json.loads((tmp_path / "r.json").read_text())
        assert rep["results"]["contraction_certificate"]["d3"]["pass"]

    def test_anosov_million_samples_under_700_mb(self, tmp_path):
        # Each row block is folded to its figures, so the sample is the only
        # (N, 7) array held; the whole (N, 7, 7) Jacobian batch took near 1 GiB.
        argv = ["certify", "--model", "anosov", "--n", "4", "--mu", "1.21", "1.25",
                "--seed", "7197", "--samples", "1000000"]
        proc = _run_capped(argv, tmp_path, cap=7 * 10**8)
        assert proc.returncode == 0, proc.stderr
        rep = json.loads((tmp_path / "r.json").read_text())
        assert rep["results"]["contraction_certificate"]["sample_count"] > 10**6

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
        # The section cloud is seeded on the fiber, so every point is in the
        # section: 2000 per branch, 8 branches.
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

    def test_anosov_csv_iterates_once(self, tmp_path, monkeypatch):
        # The estimate needs no cloud; --csv-out iterates one, as before.
        depths = []
        iterate = torus_builder._iterate

        def counted(model, pts, depth):
            depths.append(depth)
            return iterate(model, pts, depth)

        monkeypatch.setattr(torus_builder, "_iterate", counted)
        argv = ["skeleton", "--model", "anosov", "--n", "2", "--depth", "3", "--seeds", "5000",
                "--seed", "4"]
        csv = tmp_path / "cloud.csv"
        assert run(argv + ["--csv-out", str(csv), "--out", str(tmp_path / "r.json")]) == 0
        assert depths == [3]
        model, _ = cli._build_model(build_parser().parse_args(argv))
        ref = tmp_path / "ref.csv"
        torus_builder.export_cloud_csv(
            torus_builder.iterate_attractor(model, 3, 5000, rng_seed=4).points,
            list(model.chart.names), str(ref))
        assert csv.read_bytes() == ref.read_bytes()

    def test_transverse_knot_rejected(self):
        assert run(["skeleton", "--model", "transverse-knot", "--depth", "2"]) == 2

    def test_section_on_cloud_route_usage_error(self, tmp_path, capsys, monkeypatch):
        # Refused before any point is iterated.
        def no_iteration(*args):
            raise RuntimeError("the cloud was iterated")

        monkeypatch.setattr(torus_builder, "_iterate", no_iteration)
        out = tmp_path / "r.json"
        code = run(["skeleton", "--model", "anosov", "--n", "2", "--depth", "2",
                    "--seeds", "1000", "--section", "0.0", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("angle", ["1e10", "1e15"])
    def test_section_at_a_large_angle_keeps_every_point(self, angle, tmp_path):
        out = tmp_path / "r.json"
        csv = tmp_path / "sec.csv"
        assert run(["skeleton", "--model", "solenoid", "--depth", "3", "--seeds", "4000",
                    "--section", angle, "--csv-out", str(csv), "--out", str(out)]) == 0
        section = json.loads(out.read_text())["results"]["section"]
        assert section["points"] == 4000
        assert len(csv.read_text().splitlines()) - 1 == 4000

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

    def test_section_csv_builds_the_boxes_once(self, tmp_path, monkeypatch):
        # skeleton_analysis builds the section boxes; the CSV is placed on them.
        calls = []
        boxes = torus_builder._section_boxes

        def counted(*args):
            calls.append(args[1:])
            return boxes(*args)

        monkeypatch.setattr(torus_builder, "_section_boxes", counted)
        csv = tmp_path / "sec.csv"
        assert run(["skeleton", "--model", "solenoid", "--depth", "3", "--seeds", "4000",
                    "--section", "0.25", "--seed", "5", "--csv-out", str(csv),
                    "--out", str(tmp_path / "r.json")]) == 0
        assert calls == [(3, 0.25)]
        model = builtin_model("solenoid")
        ref = tmp_path / "ref.csv"
        torus_builder.export_cloud_csv(
            torus_builder.section_cloud(model, 3, 500, 0.25, 5).points[:, [1, 2]],
            ["x", "y"], str(ref))
        assert csv.read_bytes() == ref.read_bytes()

    def test_thin_branches_report_no_clusters(self, tmp_path):
        out = tmp_path / "r.json"
        assert run(["skeleton", "--model", "solenoid", "--depth", "8", "--seeds", "16384",
                    "--section", "0.0", "--out", str(out)]) == 0
        results = json.loads(out.read_text())["results"]
        assert results["skeleton"]["section_clusters"] == 256
        assert results["section"]["clusters"] == 256


class TestSkeletonThreads:
    @pytest.mark.parametrize("argv", [
        ["skeleton", "--model", "solenoid", "--depth", "3", "--seeds", "20000"],
        ["skeleton", "--model", "jet-space", "--depth", "3", "--seeds", "20000"],
        ["skeleton", "--model", "solenoid", "--depth", "3", "--seeds", "4000",
         "--section", "0.0", "--csv-out", "cloud.csv"],
    ], ids=["solenoid-section", "jet-space-section", "solenoid-section-csv"])
    def test_reports_and_csv_independent_of_threads(self, argv, tmp_path, monkeypatch):
        # Iteration is serial; --threads is accepted, echoed and has no effect.
        monkeypatch.chdir(tmp_path)
        texts, csvs = [], []
        for extra in (["--threads", "2"], []):
            assert run(argv + ["--seed", "11", *extra, "--out", "r.json"]) == 0
            texts.append(Path("r.json").read_text())
            csvs.append(Path("cloud.csv").read_bytes() if "--csv-out" in argv else b"")
        assert csvs[0] == csvs[1]
        two, default = (json.loads(t) for t in texts)
        assert (two["inputs"]["threads"], default["inputs"]["threads"]) == (2, None)
        assert texts[0].replace('"threads": 2', '"threads": null') == texts[1]
        assert "threads" not in default
        assert default["schema_version"] == 2


class TestDescent:
    def test_anosov_million_samples_under_450_mb(self, tmp_path):
        # The residual is reduced per row block: the address space peaks near
        # 328 MiB, where whole-batch temporaries took it to 541 MiB.
        argv = ["descent", "--model", "anosov", "--n", "4", "--mu", "1.21", "1.25",
                "--seed", "7197", "--samples", "1000000"]
        proc = _run_capped(argv, tmp_path, cap=45 * 10**7)
        assert proc.returncode == 0, proc.stderr
        rep = json.loads((tmp_path / "r.json").read_text())
        assert rep["status"] == "pass"

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

    def test_nan_residual_fails_with_null(self, tmp_path, monkeypatch):
        # A residual with no finite value fails (exit 1) and is written as
        # null, as certify writes its figures; it once ended with exit 4.
        monkeypatch.setattr(cli, "descent_check", lambda *a, **k: math.nan)
        out = tmp_path / "r.json"
        assert run(["descent", "--model", "solenoid", "--out", str(out)]) == 1
        rep = json.loads(out.read_text(), parse_constant=_refuse_constant)
        assert rep["status"] == "fail"
        assert rep["results"]["descent"]["max_residual"] is None

    def test_zero_tol_refused_before_the_model_is_built(self, tmp_path, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("the model was built")

        monkeypatch.setattr(cli, "_build_model", refuse)
        out = tmp_path / "r.json"
        assert run(["descent", "--model", "solenoid", "--tol", "0", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: tol must be finite and positive, got 0.0\n"
        assert not out.exists()

    def test_nan_tol_fails_closed(self, tmp_path):
        out = tmp_path / "r.json"
        code = run(["descent", "--model", "solenoid", "--force-G", "2.1972",
                    "--tol", "nan", "--out", str(out)])
        # A tolerance no residual can be checked against is a usage error.
        assert code == 2
        assert not out.exists()

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
        # No values at all: once the default scales ran and echoed "scales": [].
        ["skeleton", "--model", "solenoid", "--depth", "2", "--seeds", "1000", "--scales"],
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
        ["skeleton", "--model", "solenoid", "--depth", "3", "--seeds", "4000",
         "--section", "nan"],
        ["skeleton", "--model", "solenoid", "--depth", "3", "--seeds", "4000",
         "--section", "inf"],
        ["descent", "--model", "solenoid", "--tilt-eps", "inf"],
        ["descent", "--model", "solenoid", "--tilt-eps", "nan"],
        ["descent", "--model", "solenoid", "--tilt-eps", "1"],
        ["descent", "--model", "solenoid", "--tilt-eps", "5"],
        ["descent", "--model", "solenoid", "--force-G", "0"],
        ["descent", "--model", "solenoid", "--force-G", "nan"],
        ["certify", "--model", "transverse-knot", "--knot-eps", "inf"],
        ["certify", "--model", "transverse-knot", "--c", "nan"],
        ["descent", "--model", "transverse-knot", "--delta", "inf"],
        # Cell indices past int64 at 1e-19 once wrapped into a false pass.
        ["skeleton", "--model", "solenoid", "--depth", "3", "--seeds", "4000",
         "--scales", "1e-17", "1e-19"],
        ["skeleton", "--model", "solenoid", "--depth", "3", "--seeds", "4000",
         "--scales", "0.1", "0.1"],
        # Every z and p coordinate halves to 0: a cloud of one point.
        ["skeleton", "--model", "jet-space", "--depth", "1100", "--seeds", "100"],
        # Seeds within eps/2 of 1 cannot stay 1e-6 apart.
        ["find-matrix", "--n", "4", "--mu", "1", "1", "--eps", "1e-7"],
        # delta**2 overflows in the knot's Jacobian.
        ["certify", "--model", "transverse-knot", "--delta", "1e160"],
        ["descent", "--model", "transverse-knot", "--delta", "1e160"],
        # e^(s+G) overflows for a roof with 2G >= log(DBL_MAX).
        ["descent", "--model", "jet-space", "--force-G", "400"],
        ["descent", "--model", "solenoid", "--force-G", "400"],
        # A tolerance that is not finite and positive: --tol inf passed any residual.
        ["certify", "--model", "solenoid", "--samples", "100", "--tol", "inf"],
        ["certify", "--model", "solenoid", "--samples", "100", "--tol", "nan"],
        ["certify", "--model", "solenoid", "--samples", "100", "--tol", "0"],
        ["certify", "--model", "solenoid", "--samples", "100", "--tol", "-1"],
        ["descent", "--model", "solenoid", "--force-G", "0.5", "--tol", "inf"],
        ["descent", "--model", "solenoid", "--samples", "100", "--tol", "0"],
        ["descent", "--model", "solenoid", "--samples", "100", "--tol", "-1"],
        # 1/eps overflows the k1 floor, which ended in an OverflowError traceback.
        ["find-matrix", "--n", "4", "--mu", "1.0", "1.2", "--eps", "5e-324"],
        ["certify", "--model", "anosov", "--n", "3", "--mu", "1.0", "--eps", "5e-324"],
        # eps * sigma_m underflows to 0, which ended in a ZeroDivisionError traceback.
        ["find-matrix", "--n", "3", "--mu", "0.4", "--eps", "5e-324"],
        # c*delta, c/delta or c*delta**2 out of range wrote NaN and -Infinity
        # margins and factors into a report.
        ["certify", "--model", "transverse-knot", "--c", "1e308", "--delta", "10",
         "--samples", "500"],
        ["certify", "--model", "transverse-knot", "--delta", "5e-324", "--samples", "500"],
        ["certify", "--model", "transverse-knot", "--c", "1e-170", "--delta", "1e-170",
         "--samples", "500"],
        # A negative --seed once passed on the routes that draw no random numbers.
        ["find-matrix", "--n", "2", "--seed", "-1"],
        ["skeleton", "--model", "solenoid", "--depth", "2", "--seeds", "100", "--seed", "-1"],
        ["skeleton", "--model", "anosov", "--n", "2", "--depth", "2", "--seeds", "100",
         "--seed", "-1"],
    ], ids=["descent-samples-0", "descent-tilt-eps-negative", "skeleton-depth-negative",
            "skeleton-one-scale", "skeleton-no-scales", "certify-samples-negative", "certify-samples-0",
            "find-matrix-mu-count", "find-matrix-mu-inf", "find-matrix-eps-nan",
            "find-matrix-eps-inf", "skeleton-seeds-negative", "skeleton-scales-nan",
            "skeleton-seeds-below-branches", "skeleton-section-nan",
            "skeleton-section-inf", "descent-tilt-eps-inf", "descent-tilt-eps-nan",
            "descent-tilt-eps-1", "descent-tilt-eps-5",
            "descent-force-G-0", "descent-force-G-nan", "certify-knot-eps-inf",
            "certify-knot-c-nan", "descent-knot-delta-inf", "skeleton-scales-past-int64",
            "skeleton-scales-repeated", "skeleton-collapsed-cloud",
            "find-matrix-seeds-undrawable", "certify-knot-delta-overflow",
            "descent-knot-delta-overflow", "descent-jet-force-G-overflow",
            "descent-solenoid-force-G-overflow", "certify-tol-inf", "certify-tol-nan",
            "certify-tol-0", "certify-tol-negative", "descent-tol-inf", "descent-tol-0",
            "descent-tol-negative", "find-matrix-eps-subnormal", "certify-anosov-eps-subnormal",
            "find-matrix-eps-times-sigma-underflows", "certify-knot-c-delta-overflow",
            "certify-knot-c-over-delta-overflow", "certify-knot-c-delta-underflow",
            "find-matrix-seed-negative", "skeleton-solenoid-seed-negative",
            "skeleton-anosov-seed-negative"])
    def test_bad_input_exits_2_without_report(self, argv, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert run(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    # These once ended with numpy's "expected non-negative integer", which
    # names no option.
    @pytest.mark.parametrize("argv", [
        ["find-matrix", "--n", "3", "--mu", "1.0"],
        ["certify", "--model", "solenoid", "--samples", "100"],
        ["skeleton", "--model", "solenoid", "--depth", "2", "--seeds", "100", "--section", "0",
         "--csv-out", "s.csv"],
        ["descent", "--model", "solenoid", "--samples", "100"],
    ], ids=["find-matrix", "certify", "skeleton-section-csv", "descent"])
    def test_negative_seed_refused_by_name(self, argv, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(argv + ["--seed", "-1", "--out", "r.json"]) == 2
        assert capsys.readouterr().err == "error: --seed must be non-negative\n"
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["certify", "--model", "solenoid", "--samples", "10000000000000"],
        ["descent", "--model", "solenoid", "--samples", "10000000000000"],
        ["skeleton", "--model", "jet-space", "--depth", "1", "--seeds", "10000000000000"],
    ], ids=["certify-samples", "descent-samples", "skeleton-seeds"])
    def test_count_too_large_to_allocate_exits_2(self, argv, tmp_path):
        # Hundreds of TiB of points; the 3 GB address-space cap makes the
        # allocation fail at once on any machine.
        proc = _run_capped(argv, tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("outputs", [
        ["--out", "missing/x"],
        ["--csv-out", "missing/x"],
        # A writable CSV path must not be written when the report cannot be.
        ["--csv-out", "ok.csv", "--out", "missing/x"],
        ["--csv-out", "ok.csv", "--out", "."],
    ], ids=["--out", "--csv-out", "csv-ok-out-missing", "csv-ok-out-is-dir"])
    def test_unwritable_output_path_exits_2(self, outputs, tmp_path, capsys):
        argv = ["skeleton", "--model", "solenoid", "--depth", "2", "--seeds", "1000"]
        argv += [a if a.startswith("--") else str(tmp_path / a) for a in outputs]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_skeleton_rejects_knot_flags(self, tmp_path, capsys):
        # skeleton cannot build the transverse knot, so it has no knot flags.
        out = tmp_path / "r.json"
        argv = ["skeleton", "--model", "solenoid", "--depth", "1", "--c", "0.2"]
        assert run(argv + ["--out", str(out)]) == 2
        assert "unrecognized arguments: --c 0.2" in capsys.readouterr().err
        assert not out.exists()


def _scipy_modules_after(argv, tmp_path):
    """The scipy modules loaded by one CLI run in a fresh interpreter."""
    script = (
        "import sys\n"
        "import liouville_forge.cli\n"
        "assert liouville_forge.cli.main(sys.argv[1:]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(liouville_forge.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", script, *argv, "--out", "r.json"],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


class TestImports:
    # The package needs numpy only; scipy is a test dependency.
    def test_find_matrix_imports_no_scipy(self, tmp_path):
        assert _scipy_modules_after(["find-matrix", "--n", "3", "--mu", "1.0"], tmp_path) == "[]"

    def test_section_route_imports_no_scipy(self, tmp_path):
        # This run counts the section's clusters.
        argv = ["skeleton", "--model", "solenoid", "--depth", "3", "--seeds", "4000",
                "--section", "0.0"]
        assert _scipy_modules_after(argv, tmp_path) == "[]"
        assert json.loads((tmp_path / "r.json").read_text())["results"]["section"]["clusters"] == 8


class TestParser:
    def test_one_parser_serves_every_command_of_a_process(self, tmp_path, monkeypatch):
        built = []

        def counted():
            built.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counted)
        cli._parser.cache_clear()
        try:
            first, other = ["find-matrix", "--n", "2"], ["find-matrix", "--n", "3", "--mu", "1.5"]
            texts = []
            for argv in (first, other, first):
                out = tmp_path / "r.json"
                assert run(argv + ["--out", str(out)]) == 0
                texts.append(out.read_bytes())
        finally:
            cli._parser.cache_clear()
        assert len(built) == 1
        assert texts[0] == texts[2] != texts[1]
        assert json.loads(texts[0])["inputs"]["mu"] == []
        assert build_parser() is not build_parser()

    def test_list_options_take_negative_exponent_notation(self, tmp_path, capsys):
        args = build_parser().parse_args(["skeleton", "--model", "solenoid", "--depth", "3",
                                          "--scales", "-1e-1", "2.5E+0", "-.5e1", "-Inf"])
        assert args.scales == [-0.1, 2.5, -5.0, -math.inf]
        out = tmp_path / "r.json"
        assert run(["find-matrix", "--n", "3", "--mu", "-1e-1", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["inputs"]["mu"] == [-0.1]
        # Read as a value, the scale is refused by the library, not by argparse.
        assert run(["skeleton", "--model", "solenoid", "--depth", "3", "--seeds", "4000",
                    "--scales", "0.3", "-1e-1"]) == 2
        assert capsys.readouterr().err.startswith("error: scales must be positive")

    @pytest.mark.parametrize("scales", [["0.1000000000000001", "0.1"],
                                        ["1.0000000000000002e-12", "1e-12"]])
    def test_scales_too_close_to_fit_are_refused(self, scales, tmp_path, capsys):
        # np.polyfit's RankWarning once went by, and the first pair reported
        # the estimate 2.4515 with r2 = 1.
        out = tmp_path / "r.json"
        assert run(["skeleton", "--model", "solenoid", "--depth", "2", "--seeds", "1000",
                    "--scales", *scales, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: scales are too close together")
        assert not out.exists()


class TestReportShape:
    def test_sorted_keys_and_metadata(self, tmp_path):
        out = tmp_path / "r.json"
        run(["find-matrix", "--n", "2", "--eps", "0.5", "--out", str(out)])
        text = out.read_text()
        rep = json.loads(text)
        assert rep["schema_version"] == 2
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

    def test_non_finite_value_ends_with_exit_4_and_no_report(self, tmp_path, capsys,
                                                             monkeypatch):
        # A NaN that reaches the writer is a bug: strict JSON refuses it, and
        # the command says where it is rather than reporting a usage error.
        real = cli.skeleton_analysis
        monkeypatch.setattr(cli, "skeleton_analysis",
                            lambda *a, **k: replace(real(*a, **k), estimate=math.nan))
        out = tmp_path / "r.json"
        assert run(["skeleton", "--model", "solenoid", "--depth", "2", "--seeds", "1000",
                    "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: report not written: results.skeleton.estimate ")
        assert not out.exists()

    @pytest.mark.parametrize("argv, evidence", [
        (["--model", "solenoid", "--depth", "3", "--seeds", "4000"], "exact"),
        (["--model", "jet-space", "--depth", "3", "--seeds", "4000"], "exact"),
        (["--model", "anosov", "--n", "2", "--depth", "2", "--seeds", "1000"], "exact"),
    ], ids=["solenoid", "jet-space", "anosov"])
    def test_skeleton_evidence(self, argv, evidence, tmp_path):
        out = tmp_path / "r.json"
        assert run(["skeleton", *argv, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["results"]["skeleton"]["evidence"] == evidence


# The extreme values of every float option, and the models each subcommand
# builds, at sizes small enough that an example takes milliseconds.
_EXTREMES = (0.0, -1.0, 1e-300, 5e-324, 1e300, -1e300, 1e308, -1e308,
             math.nan, math.inf, -math.inf)
_MODELS = {"find-matrix": (None,),
           "certify": ("solenoid", "jet-space", "transverse-knot", "anosov"),
           "skeleton": ("solenoid", "jet-space", "anosov"),
           "descent": ("solenoid", "jet-space", "transverse-knot", "anosov")}
_SIZES = {"find-matrix": ["--n", "3", "--mu", "1.0"], "certify": ["--samples", "200"],
          "skeleton": ["--depth", "2", "--seeds", "500"], "descent": ["--samples", "200"]}


def _float_options():
    """(subcommand, model, option) for every float option each subcommand's
    parser accepts, read off the parser, whether or not the model reads it."""
    commands = next(a for a in build_parser()._actions if a.dest == "command").choices
    return [(command, model, action.option_strings[0])
            for command, parser in commands.items() for model in _MODELS[command]
            for action in parser._actions if action.type is float]


def _argv(command, model, option, value):
    argv = [command] + ([] if model is None else ["--model", model]) + _SIZES[command]
    if model == "anosov":
        argv += ["--n", "3", "--mu", "1.0"]
    # "--option=value" keeps argparse from reading a negative value such as
    # -1e300 as an option; a list reads one as a value.
    if option == "--scales":
        return argv + ["--scales", "0.3", repr(value)]
    return argv + [f"{option}={value!r}"]


def _numbers(value):
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        for item in value:
            yield from _numbers(item)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield value


def _refuse_constant(name):
    raise ValueError(f"{name} is not strict JSON")


@pytest.fixture(scope="module")
def report_path(tmp_path_factory):
    return tmp_path_factory.mktemp("reports") / "r.json"


@given(case=st.sampled_from(_float_options()),
       value=st.one_of(st.sampled_from(_EXTREMES),
                       st.floats(allow_nan=False, allow_infinity=False)))
@settings(max_examples=300, derandomize=True, deadline=None)
# An unread option echoed into the report, and two overflows that warned.
@example(case=("certify", "solenoid", "--eps"), value=math.nan)
@example(case=("certify", "anosov", "--tol"), value=1e308)
@example(case=("descent", "solenoid", "--force-G"), value=5e-324)
def test_every_float_option_ends_in_a_documented_exit(report_path, case, value):
    report_path.unlink(missing_ok=True)
    code = main(_argv(*case, value) + ["--out", str(report_path)])
    assert code in (0, 1, 2, 3)
    assert report_path.exists() == (code != 2)
    if code != 2:
        report = json.loads(report_path.read_text(), parse_constant=_refuse_constant)
        if code == 0:
            assert all(math.isfinite(x) for x in _numbers(report["results"]))


def test_float_options_cover_every_subcommand():
    options = {(command, option) for command, _, option in _float_options()}
    assert {command for command, _ in options} == set(_MODELS)
    assert {("skeleton", "--scales"), ("skeleton", "--section"), ("descent", "--force-G"),
            ("descent", "--tilt-eps"), ("certify", "--tol"), ("find-matrix", "--eps")} <= options
