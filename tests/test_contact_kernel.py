import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import qmc

from liouville_forge.contact_kernel import (
    Chart,
    Coord,
    OneForm,
    SmoothMap,
    UnknownModel,
    anosov_model,
    builtin_model,
    certify_contraction,
    contact_check,
    fd_jacobian,
    halton,
    model_conformal_factors,
    pullback,
)
from liouville_forge.exactlin import IntMatrix
from liouville_forge.spectrum_search import SpectrumRequest, certify_matrix, find_matrix

LAMBDA_SMALL = (3 - math.sqrt(5)) / 2


@pytest.fixture(scope="module")
def solenoid():
    return builtin_model("solenoid")


@pytest.fixture(scope="module")
def jet():
    return builtin_model("jet_space")


@pytest.fixture(scope="module")
def knot():
    return builtin_model("transverse-knot")


@pytest.fixture(scope="module")
def cat_model():
    cert = certify_matrix(IntMatrix.from_rows([[2, 1], [1, 1]]))
    return anosov_model(cert.matrix, cert)


@pytest.fixture(scope="module")
def anosov3():
    cert = find_matrix(SpectrumRequest(n=3, mu=(2.0,), eps=0.5, seed=7))
    return anosov_model(cert.matrix, cert)


@pytest.fixture(scope="module")
def anosov4():
    cert = find_matrix(SpectrumRequest(n=4, mu=(0.98, 0.90), eps=0.4, seed=8577))
    return anosov_model(cert.matrix, cert)


@pytest.mark.parametrize(
    "name", ["solenoid", "jet", "knot", "cat_model", "anosov3", "anosov4"]
)
def test_contact_form_in_every_dimension(name, request):
    # The form is contact in every dimension, up to d = 7 for anosov n = 4.
    model = request.getfixturevalue(name)
    pts = model.chart.sample(64, rng_seed=11)
    assert np.all(np.abs(contact_check(model.alpha, pts)) > 1e-3)


@pytest.mark.parametrize("name", ["solenoid", "jet", "knot", "anosov3"])
def test_inverse_round_trip(name, request):
    model = request.getfixturevalue(name)
    pts = model.chart.sample(2000, rng_seed=3)
    pre = model.phi.inverse(model.codomain.reduce(model.phi(pts)))
    n, b, d = pre.shape
    assert (n, d) == pts.shape
    inside = model.chart.contains(pre.reshape(n * b, d)).reshape(n, b)
    assert np.all(inside.sum(axis=1) == 1)
    diff = pre[inside] - pts
    for i in model.chart.periodic_idx:
        period = model.chart.coords[i].period
        diff[:, i] -= period * np.rint(diff[:, i] / period)
    assert np.max(np.linalg.norm(diff, axis=1)) < 1e-9


class TestEvalPullback:
    def test_identity_map(self, solenoid):
        ident = SmoothMap(lambda p: p, lambda p: np.broadcast_to(
            np.eye(3), (len(p), 3, 3)).copy())
        pts = solenoid.chart.sample(20, rng_seed=2)
        pb = pullback(ident, solenoid.alpha, pts, None)[0]
        np.testing.assert_allclose(pb, solenoid.alpha(pts), rtol=1e-12, atol=0)

    def test_solenoid_tenth(self, solenoid):
        pts = solenoid.chart.sample(50, rng_seed=1)
        pb, _, _ = pullback(solenoid.phi, solenoid.alpha, pts, solenoid.chart)
        base = solenoid.alpha(pts)
        assert np.max(np.abs(pb - 0.1 * base)) < 1e-12

    def test_jet_half(self, jet):
        pts = jet.chart.sample(20, rng_seed=2)
        pb = pullback(jet.phi, jet.alpha, pts, None)[0]
        assert np.max(np.abs(pb - 0.5 * jet.alpha(pts))) < 1e-14

    def test_linearity(self, solenoid):
        w1 = solenoid.alpha
        w2 = OneForm(lambda p: np.stack(
            [p[:, 1], np.cos(p[:, 0]), p[:, 2] ** 2], axis=-1))
        combo = OneForm(lambda p: 2.5 * w1(p) + w2(p))
        pts = solenoid.chart.sample(20, rng_seed=2)
        lhs = pullback(solenoid.phi, combo, pts, None)[0]
        rhs = (2.5 * pullback(solenoid.phi, w1, pts, None)[0]
               + pullback(solenoid.phi, w2, pts, None)[0])
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_functoriality_on_composition(self, solenoid):
        phi = solenoid.phi
        comp = SmoothMap(lambda p: phi(phi(p)))  # FD Jacobian
        pts = solenoid.chart.sample(20, rng_seed=2)
        lhs = pullback(comp, solenoid.alpha, pts, None)[0]
        inner = OneForm(lambda q: pullback(phi, solenoid.alpha, q, None)[0])
        rhs = pullback(SmoothMap(phi.forward), inner, pts, None)[0]
        assert np.max(np.abs(lhs - rhs)) < 1e-8
        # and both equal the known square factor
        assert np.max(np.abs(lhs - 0.01 * solenoid.alpha(pts))) < 1e-8


class TestConformalFactor:
    def test_solenoid_constant(self, solenoid):
        f = model_conformal_factors(solenoid, solenoid.chart.sample(100, rng_seed=3))[0]
        assert np.max(np.abs(f - 0.1)) < 1e-9

    def test_knot_at_y_zero(self, knot):
        f = model_conformal_factors(knot, np.array([[0.3, -0.4, 0.0]]))[0]
        assert f[0] == pytest.approx(knot.params["delta"], abs=1e-14)

    def test_knot_pointwise_formula(self, knot):
        c, d = knot.params["c"], knot.params["delta"]
        pts = knot.chart.sample(200, rng_seed=4)
        f = model_conformal_factors(knot, pts)[0]
        assert np.max(np.abs(f - c * d / (c - d * pts[:, 2]))) < 1e-9

    def test_cat_map_factor(self, cat_model):
        f = model_conformal_factors(cat_model, cat_model.chart.sample(100, rng_seed=5))[0]
        assert np.max(np.abs(f - LAMBDA_SMALL)) < 1e-8

    def test_not_conformal(self, solenoid):
        # Halving x alone sends dx + y dtheta to dx/2 + y dtheta, which is
        # not a multiple of the form wherever y != 0.
        squash = SmoothMap(lambda p: p * np.array([1.0, 0.5, 1.0]))
        cert = certify_contraction(replace(solenoid, phi=squash), samples=1000)
        assert not cert.d3["pass"]
        assert cert.d3["max_residual"] > 0.1

    def test_degenerate_form(self, solenoid):
        # A vanishing form has no conformal factor anywhere.
        zero = OneForm(lambda p: np.zeros_like(p))
        cert = certify_contraction(replace(solenoid, alpha=zero), samples=1000)
        assert not cert.d3["pass"]
        assert math.isnan(cert.d3["factor_min"])


class TestContactCheck:
    def test_solenoid_orientation(self, solenoid):
        vals = contact_check(solenoid.alpha, solenoid.chart.sample(20, rng_seed=6))
        assert vals.shape == (20,)
        assert np.max(np.abs(vals - 1.0)) < 1e-7

    def test_non_contact_form(self):
        dz = OneForm(lambda p: np.broadcast_to(np.array([1.0, 0.0, 0.0]), p.shape).copy())
        pts = np.array([[0.1, 0.2, 0.3], [-0.5, 0.9, 0.0]])
        assert np.max(np.abs(contact_check(dz, pts))) < 1e-10

    def test_jet_orientation(self, jet):
        vals = contact_check(jet.alpha, np.array([[0.2, 0.5, -0.1]]))
        assert vals[0] == pytest.approx(1.0, abs=1e-7)

    def test_anosov_nonvanishing_constant(self, cat_model):
        vals = contact_check(cat_model.alpha, cat_model.chart.sample(20, rng_seed=7))
        assert np.ptp(vals) < 1e-6
        assert abs(vals[0]) > 0.5

    def test_bounded_away_from_zero_all_builtins(self, solenoid, jet, knot, cat_model):
        for model in (solenoid, jet, knot, cat_model):
            vals = contact_check(model.alpha, model.chart.sample(16, rng_seed=8))
            assert np.all(np.abs(vals) > 1e-3)


# The n = 4 (mu, seed) rows on which the contraction benchmark certifies
# anosov maps (eps 0.4, the CLI default).
ANOSOV_N4_INPUTS = (
    ((0.98, 0.90), 8577),
    ((1.64, 0.95), 5160),
    ((0.92, 1.81), 5355),
    ((1.19, 1.75), 7031),
    ((1.11, 1.71), 5790),
    ((0.91, 1.71), 6289),
    ((0.97, 0.87), 7987),
    ((1.85, 1.53), 3468),
    ((0.87, 1.47), 2003),
    ((1.14, 1.39), 8158),
    ((1.21, 1.25), 7197),
    ((1.62, 1.21), 9708),
)


class TestCertifyContraction:
    def test_solenoid_passes(self, solenoid):
        cert = certify_contraction(solenoid, samples=10_000, rng_seed=0)
        assert cert.passed
        assert cert.d1["min_margin"] == pytest.approx(0.4, abs=0.05)
        assert cert.d3["g_min"] == pytest.approx(math.log(10), abs=1e-9)
        assert cert.d3["g_max"] == pytest.approx(math.log(10), abs=1e-9)

    def test_jet_passes(self, jet):
        cert = certify_contraction(jet, samples=4000, rng_seed=0)
        assert cert.passed
        assert cert.d3["g_min"] == pytest.approx(math.log(2), abs=1e-9)

    def test_knot_passes_when_c_dominates(self, knot):
        cert = certify_contraction(knot, samples=10_000, rng_seed=0)
        assert cert.passed
        c, d = knot.params["c"], knot.params["delta"]
        assert cert.d3["factor_max"] <= c * d / (c - d) + 1e-12

    def test_knot_fails_when_delta_equals_c(self):
        bad = builtin_model("transverse_knot", {"c": 0.1, "delta": 0.1})
        cert = certify_contraction(bad, samples=10_000, rng_seed=0)
        assert not cert.passed
        assert not (cert.d1["pass"] and cert.d3["pass"])
        # y near 1 sends the last coordinate out of the target box.
        assert not cert.d1["pass"]

    def test_cat_map_passes(self, cat_model):
        cert = certify_contraction(cat_model, samples=5000, rng_seed=0)
        assert cert.passed
        assert cert.d3["factor_min"] == pytest.approx(LAMBDA_SMALL, abs=1e-8)
        assert cert.d3["factor_max"] == pytest.approx(LAMBDA_SMALL, abs=1e-8)

    def test_anosov_n3_end_to_end(self):
        cert = find_matrix(SpectrumRequest(n=3, mu=(2.0,), eps=0.5, seed=7))
        model = anosov_model(cert.matrix, cert)
        out = certify_contraction(model, samples=3000, rng_seed=1)
        assert out.passed
        assert out.d3["factor_max"] == pytest.approx(cert.roots[-1], abs=1e-8)

    @pytest.mark.parametrize("mu, seed", ANOSOV_N4_INPUTS)
    def test_anosov_n4_inputs_pass(self, mu, seed):
        cert = find_matrix(SpectrumRequest(n=4, mu=mu, eps=0.4, seed=seed))
        model = anosov_model(cert.matrix, cert)
        assert certify_contraction(model, samples=2000, rng_seed=seed).passed

    @pytest.mark.parametrize("with_inverse", [True, False])
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("k", [3, 5])
    def test_k_to_one_map_fails_injectivity(self, solenoid, k, seed, with_inverse):
        # (theta, x, y) -> (k theta, x/10, y/(10k)) rescales dx + y dtheta by
        # 1/10 and keeps its image deep inside the chart, but every image
        # point has k preimages.
        scale = np.array([k, 0.1, 0.1 / k])

        def jacobian(p):
            return np.broadcast_to(np.diag(scale), (len(p), 3, 3)).copy()

        def inverse(p):
            th = p[:, 0, None] / k + 2.0 * math.pi * np.arange(k) / k
            rest = np.broadcast_to(p[:, None, 1:] / scale[1:], th.shape + (2,))
            return np.concatenate([th[:, :, None], rest], axis=-1)

        phi = SmoothMap(lambda p: p * scale, jacobian, inverse if with_inverse else None)
        cert = certify_contraction(
            replace(solenoid, phi=phi), samples=10_000, rng_seed=seed
        )
        assert cert.d1["pass"] and cert.d3["pass"]
        assert not cert.passed
        if with_inverse:
            assert cert.d2["collisions"] == cert.sample_count
        else:
            assert "injectivity not checked: the map has no inverse" in cert.notes

    @pytest.mark.parametrize("name", ["solenoid", "jet", "knot"])
    def test_reduces_the_image_once(self, name, request, monkeypatch):
        # The form and the inverse both read the image reduced into the
        # codomain chart; the certificate reduces it once for both.
        model = request.getfixturevalue(name)
        before = certify_contraction(model, samples=1000)
        calls = []
        reduce = Chart.reduce

        def counted(self, pts):
            calls.append(len(pts))
            return reduce(self, pts)

        monkeypatch.setattr(Chart, "reduce", counted)
        cert = certify_contraction(model, samples=1000)
        assert cert.to_dict() == before.to_dict()
        assert calls == [cert.sample_count]


class TestBuiltinModels:
    def test_solenoid_image_point(self, solenoid):
        assert solenoid.phi(np.zeros((1, 3)))[0] == pytest.approx([0.0, 0.5, 0.0])

    def test_knot_image_point(self, knot):
        assert knot.phi(np.zeros((1, 3)))[0] == pytest.approx([0.0, 0.0, 0.001])

    def test_unknown(self):
        with pytest.raises(UnknownModel):
            builtin_model("moebius")

    def test_jet_factor(self, jet):
        f = model_conformal_factors(jet, np.array([[0.1, 0.9, 0.3]]))[0]
        assert f[0] == pytest.approx(0.5, abs=1e-12)


class TestAnosovEigenforms:
    def test_beta_pullback_relation(self, cat_model):
        # Constant eigen-coefficient forms transform by their eigenvalue
        # under the torus map.
        mat = np.array(cat_model.params["matrix"], float)
        torus_map = SmoothMap(
            lambda p: p @ mat.T,
            lambda p: np.broadcast_to(mat, (len(p), 2, 2)).copy(),
        )
        cert = certify_matrix(IntMatrix.from_rows([[2, 1], [1, 1]]))
        lam_sorted = sorted(cert.roots)
        for lam in lam_sorted:
            vals, vecs = np.linalg.eig(mat.T)
            idx = int(np.argmin(np.abs(vals - lam)))
            beta = np.real(vecs[:, idx])
            form = OneForm(lambda p, b=beta: np.broadcast_to(b, p.shape).copy())
            pts = np.array([[0.3, 0.8], [0.6, 0.1]])
            pb = pullback(torus_map, form, pts, None)[0]
            assert np.max(np.abs(pb - lam * beta)) < 1e-10

    def test_rejects_negative_small_eigenvalue(self):
        # spectrum {-1/2, -2}: real and simple, but smallest-magnitude
        # eigenvalue is negative.
        m = IntMatrix.from_rows([[0, -1], [1, -3]])
        cert = certify_matrix(m)
        from liouville_forge.contact_kernel import EigenFailure

        with pytest.raises(EigenFailure):
            anosov_model(m, cert)


class TestNumericalHygiene:
    @pytest.mark.parametrize(
        "name,h",
        [("solenoid", 1e-3), ("transverse_knot", 0.2)],
    )
    def test_fd_jacobian_second_order(self, name, h):
        # Halving the step quarters the truncation error (step chosen large
        # enough that truncation dominates rounding for each map).
        model = builtin_model(name)
        pts = model.chart.sample(64, rng_seed=9)
        exact = model.phi.jac(pts)
        err = []
        for step in (h, h / 2):
            fd = fd_jacobian(model.phi.forward, pts, step)
            err.append(np.max(np.abs(fd - exact)))
        ratio = err[0] / err[1]
        assert 3.0 < ratio < 5.0

    def test_fd_jacobian_exact_on_affine_maps(self, jet, cat_model):
        # Affine maps have no truncation term: agreement at rounding level.
        for model in (jet, cat_model):
            pts = model.chart.sample(32, rng_seed=9)
            exact = model.phi.jac(pts)
            fd = fd_jacobian(model.phi.forward, pts, 1e-3)
            assert np.max(np.abs(fd - exact)) < 1e-9

    def test_halton_sampling_deterministic(self, solenoid):
        a = solenoid.chart.sample(100, rng_seed=42)
        b = solenoid.chart.sample(100, rng_seed=42)
        assert np.array_equal(a, b)


class TestHalton:
    # Powers of a base and one past them sit on the digit tree's boundary.
    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("d", [1, 2, 3, 7, 12, 20])
    def test_bitwise_equal_to_scipy(self, d, seed):
        for n in (1, 2, 3, 8, 9, 27, 28, 37, 100_000):
            ours = halton(n, d, seed)
            ref = qmc.Halton(d=d, scramble=True, seed=seed).random(n)
            assert ours.shape == ref.shape == (n, d)
            assert np.array_equal(ours.view(np.int64), ref.view(np.int64)), n
            assert ours.flags.f_contiguous == ref.flags.f_contiguous


class TestChart:
    def test_dim_validation(self):
        with pytest.raises(ValueError):
            Chart((Coord.interval("a", 0, 1), Coord.interval("b", 0, 1)))

    def test_reduce_and_margins(self):
        ch = Chart(
            (
                Coord.circle("t", 2.0),
                Coord.interval("u", -1.0, 1.0),
                Coord.interval("v", 0.0, 4.0),
            )
        )
        pts = np.array([[5.0, 0.5, 1.0], [-0.5, -2.0, 3.0]])
        red = ch.reduce(pts)
        assert red[0, 0] == pytest.approx(1.0)
        assert red[1, 0] == pytest.approx(1.5)
        m = ch.interior_margins(pts)
        assert m[0] == pytest.approx(0.5)
        assert m[1] == pytest.approx(-1.0)
