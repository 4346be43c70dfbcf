"""Acceptance suite: one test per criterion, each printing a pass/fail line
with its runtime and asserting the stated tolerance and time budget."""

import math
import time

import numpy as np
import pytest
from scipy.stats import qmc

from liouville_forge.contact_kernel import (
    anosov_model,
    builtin_model,
    certify_contraction,
    fd_jacobian,
    model_conformal_factors,
)
from liouville_forge.exactlin import IntMatrix, char_poly, determinant, sturm_isolate
from liouville_forge.spectrum_search import (
    SpectrumRequest,
    certify_matrix,
    elementary_symmetric,
    find_matrix,
)
from liouville_forge.torus_builder import (
    GExtension,
    MappingTorusModel,
    box_counting_dimension,
    build_mapping_torus,
    constant_roof,
    count_clusters,
    cross_section,
    descent_check,
    section_cloud,
    skeleton_analysis,
    suggested_section_gap,
)

LAMBDA_SMALL = (3 - math.sqrt(5)) / 2


class _Timer:
    def __init__(self, label, budget):
        self.label = label
        self.budget = budget

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.label}: {verdict} ({elapsed:.2f}s)")
        if exc_type is None:
            assert elapsed < self.budget, (
                f"{self.label} exceeded its {self.budget}s budget: {elapsed:.2f}s"
            )
        return False


def test_criterion_1_solenoid_pullback_identity():
    with _Timer("1 solenoid pullback factor 0.1", 1.0):
        model = builtin_model("solenoid")
        pts = model.chart.sample(10_000, rng_seed=0)
        f, resid, scale, _ = model_conformal_factors(model, pts)
        assert np.all(np.abs(f - 0.1) < 1e-9)
        assert np.all(resid <= 1e-8 * scale)


def test_criterion_2_transverse_knot_pullback():
    with _Timer("2 transverse-knot factor c*d/(c-d*y)", 1.0):
        model = builtin_model("transverse_knot", {"c": 0.1, "delta": 1e-3})
        c, d = 0.1, 1e-3
        pts = model.chart.sample(10_000, rng_seed=0)
        f, resid, scale, _ = model_conformal_factors(model, pts)
        expected = c * d / (c - d * pts[:, 2])
        assert np.all(np.abs(f - expected) < 1e-9)
        cert = certify_contraction(model, samples=10_000, rng_seed=0)
        assert cert.passed
        degenerate = certify_contraction(
            builtin_model("transverse_knot", {"c": 0.1, "delta": 0.1}),
            samples=10_000,
            rng_seed=0,
        )
        assert not degenerate.passed


def test_criterion_3_cat_map_identity():
    with _Timer("3 cat-map factor and eigenform relation", 1.0):
        a = IntMatrix.from_rows([[2, 1], [1, 1]])
        cert = certify_matrix(a)
        model = anosov_model(a, cert)
        pts = model.chart.sample(5_000, rng_seed=0)
        f, resid, scale, _ = model_conformal_factors(model, pts)
        assert np.all(np.abs(f - LAMBDA_SMALL) < 1e-8)
        # eigenform relation: transpose action reproduces each eigenvalue
        mat_t = np.array(a.to_lists(), float).T
        vals, vecs = np.linalg.eig(mat_t)
        for lam in cert.roots:
            idx = int(np.argmin(np.abs(vals - lam)))
            beta = np.real(vecs[:, idx])
            assert np.max(np.abs(mat_t @ beta - lam * beta)) < 1e-10


def _exhaustive_valid_set(mu1: float, eps: float, bound: int = 200) -> set:
    """All system tuples (k1, k2) with entries up to the bound whose
    companion matrix passes the same spectrum conditions (float check)."""
    ks = np.arange(-bound, bound + 1)
    big1, big2 = np.meshgrid(ks, ks, indexing="ij")
    k1, k2 = big1.ravel(), big2.ravel()
    mats = np.zeros((len(k1), 3, 3))
    mats[:, 1, 0] = 1
    mats[:, 2, 1] = 1
    mats[:, 0, 2] = 1
    mats[:, 1, 2] = -k2
    mats[:, 2, 2] = k1
    ev = np.linalg.eigvals(mats)
    real_ok = np.all(np.abs(ev.imag) < 1e-9 * (1 + np.abs(ev.real)), axis=1)
    order = np.argsort(np.abs(ev.real), axis=1)
    vals = np.take_along_axis(ev.real, order, axis=1)
    mags = np.abs(vals)
    simple = (np.abs(vals[:, 0] - vals[:, 1]) > 1e-9) & (
        np.abs(vals[:, 1] - vals[:, 2]) > 1e-9
    )
    good = (
        real_ok
        & simple
        & (mags[:, 0] < eps)
        & (mags[:, 2] > 1 / eps)
        & (np.abs(vals[:, 1] - mu1) < eps)
    )
    return set(zip(k1[good].tolist(), k2[good].tolist()))


EMITTED_CERTIFICATES = []


def test_criterion_4_spectrum_search_end_to_end():
    with _Timer("4 spectrum search n=2,3,4 with exhaustive n=3 oracle", 60.0):
        rng = np.random.default_rng(20260810)
        for n in (2, 3, 4):
            for eps in (0.5, 0.2):
                mu = tuple(float(v) for v in rng.uniform(-2, 2, size=n - 2))
                cert = find_matrix(SpectrumRequest(n=n, mu=mu, eps=eps, seed=0))
                EMITTED_CERTIFICATES.append(cert)
                assert determinant(cert.matrix) == 1
                iso = sturm_isolate(char_poly(cert.matrix), require_simple=True)
                assert iso.count_real == n and iso.square_free
                for lam, target in zip(cert.roots[: n - 2], mu):
                    assert abs(lam - target) < eps
                assert abs(cert.roots[n - 2]) > 1 / eps
                assert abs(cert.roots[n - 1]) < eps
                if n == 3:
                    valid = _exhaustive_valid_set(mu[0], eps)
                    assert (cert.k[0], cert.k[1]) in valid


def test_criterion_5_descent():
    with _Timer("5 descent residuals on all built-in models", 1.0):
        models = [
            builtin_model("solenoid"),
            builtin_model("jet_space"),
            builtin_model("transverse_knot"),
        ]
        cat = IntMatrix.from_rows([[2, 1], [1, 1]])
        models.append(anosov_model(cat, certify_matrix(cat)))
        for model in models:
            torus = build_mapping_torus(model)
            assert descent_check(torus, samples=500) < 1e-9
        wrong = MappingTorusModel(
            models[0],
            GExtension(constant_roof(math.log(9.0)), "forced", math.log(9.0)),
        )
        assert descent_check(wrong, samples=300) > 1e-2


def test_criterion_6_skeleton_dimension():
    with _Timer("6 solenoid skeleton dimension with calibrated box counter", 120.0):
        # calibration: filled unit square
        eng = qmc.Halton(d=2, scramble=True, seed=0)
        square = eng.random(1_000_000)
        res = box_counting_dimension(square, [2.0**-k for k in range(2, 7)])
        assert abs(res.slope - 2.0) < 0.1
        # calibration: middle-thirds dust on a line
        rng = np.random.default_rng(0)
        digits = rng.integers(0, 2, size=(1_000_000, 40)) * 2
        dust = (digits * (3.0 ** -np.arange(1, 41))).sum(axis=1)[:, None]
        res = box_counting_dimension(dust, [3.0**-k for k in range(2, 8)])
        assert abs(res.slope - math.log(2) / math.log(3)) < 0.05
        # the estimate itself
        model = builtin_model("solenoid")
        analysis = skeleton_analysis(model, 8, 1_000_000, rng_seed=0)
        assert 2.2 <= analysis.estimate <= 2.35


def test_criterion_7_cross_section_structure():
    with _Timer("7 solenoid cross-sections have 2^m clusters", 30.0):
        model = builtin_model("solenoid")
        for depth in range(1, 7):
            sample = section_cloud(model, depth, 512, theta0=0.0, rng_seed=0)
            pts2 = cross_section(sample, 0.0, 1e-6)
            gap = suggested_section_gap(model, depth)
            assert count_clusters(pts2, gap) == 2**depth


def test_criterion_8_numerical_hygiene():
    with _Timer("8 Jacobian convergence and Vieta round-trips", 30.0):
        # second-order convergence where truncation dominates
        for name, h in (("solenoid", 1e-3), ("transverse_knot", 0.2)):
            model = builtin_model(name)
            pts = model.chart.sample(64, rng_seed=9)
            exact = model.phi.jac(pts)
            errs = [
                float(np.max(np.abs(fd_jacobian(model.phi.forward, pts, step) - exact)))
                for step in (h, h / 2)
            ]
            assert 3.0 < errs[0] / errs[1] < 5.0
        # affine maps: agreement at rounding level for any step
        cat = IntMatrix.from_rows([[2, 1], [1, 1]])
        for model in (builtin_model("jet_space"), anosov_model(cat, certify_matrix(cat))):
            pts = model.chart.sample(32, rng_seed=9)
            err = np.max(np.abs(fd_jacobian(model.phi.forward, pts, 1e-3) - model.phi.jac(pts)))
            assert err < 1e-9
        # Vieta round-trips on every certificate emitted by criterion 4
        certs = EMITTED_CERTIFICATES or [
            find_matrix(SpectrumRequest(n=3, mu=(1.0,), eps=0.5, seed=0))
        ]
        for cert in certs:
            n = cert.n
            sig = elementary_symmetric(cert.roots)
            for i in range(1, n):
                assert abs(sig.value(i) - cert.k[i - 1]) < 1e-6
            assert abs(sig.value(n) - 1.0) < 1e-6
            assert cert.residuals["vieta_max"] < 1e-6
