import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import qmc

from liouville_forge.contact_kernel import (
    Chart,
    Coord,
    DegenerateForm,
    NotConformal,
    OneForm,
    SmoothMap,
    UnknownModel,
    anosov_model,
    builtin_model,
    certify_contraction,
    conformal_factor,
    contact_check,
    eval_pullback,
    fd_jacobian,
    halton,
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
def test_batch_matches_stacked_single_points(name, request):
    model = request.getfixturevalue(name)
    pts = model.chart.sample(64, rng_seed=11)
    target, codomain = model.codomain_alpha, model.codomain
    # Matrix products may round differently for one row than for many; the
    # finite-difference d(alpha) in contact_check scales that by 1/FD_STEP.
    calls = [
        (model.alpha, 1e-12),
        (model.phi, 1e-12),
        (model.phi.jac, 1e-12),
        (lambda p: eval_pullback(model.phi, target, p, codomain), 1e-12),
        (lambda p: conformal_factor(
            model.phi, model.alpha, p, target_form=target, codomain=codomain
        ), 1e-12),
        (lambda p: contact_check(model.alpha, p), 1e-9),
    ]
    for fn, atol in calls:
        batched = fn(pts)
        stacked = np.stack([fn(p) for p in pts])
        assert batched.shape == stacked.shape
        np.testing.assert_allclose(batched, stacked, rtol=0, atol=atol)
    # The form is contact in every dimension, up to d = 7 for anosov n = 4.
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
            np.eye(3), (np.atleast_2d(p).shape[0], 3, 3)).copy())
        p = np.array([0.7, 0.2, -0.3])
        assert eval_pullback(ident, solenoid.alpha, p) == pytest.approx(
            solenoid.alpha(p)
        )

    def test_solenoid_tenth(self, solenoid):
        pts = solenoid.chart.sample(50, rng_seed=1)
        pb, _, _ = pullback(solenoid.phi, solenoid.alpha, pts, solenoid.chart)
        base = solenoid.alpha(pts)
        assert np.max(np.abs(pb - 0.1 * base)) < 1e-12

    def test_jet_half(self, jet):
        p = np.array([0.4, 0.3, -0.6])
        assert eval_pullback(jet.phi, jet.alpha, p) == pytest.approx(
            0.5 * jet.alpha(p), abs=1e-14
        )

    def test_linearity(self, solenoid):
        w1 = solenoid.alpha
        w2 = OneForm(lambda p: np.stack(
            [np.atleast_2d(p)[:, 1], np.cos(np.atleast_2d(p)[:, 0]),
             np.atleast_2d(p)[:, 2] ** 2], axis=-1).squeeze())
        combo = OneForm(lambda p: 2.5 * w1(p) + w2(p))
        p = np.array([1.1, 0.4, -0.2])
        lhs = eval_pullback(solenoid.phi, combo, p)
        rhs = 2.5 * eval_pullback(solenoid.phi, w1, p) + eval_pullback(
            solenoid.phi, w2, p
        )
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_functoriality_on_composition(self, solenoid):
        phi = solenoid.phi
        comp = SmoothMap(lambda p: phi(phi(p)))  # FD Jacobian
        p = np.array([0.9, 0.1, 0.2])
        lhs = eval_pullback(comp, solenoid.alpha, p)
        inner = OneForm(lambda q: eval_pullback(phi, solenoid.alpha, q))
        rhs = eval_pullback(SmoothMap(lambda q: phi.forward(q)), inner, p)
        assert np.max(np.abs(lhs - rhs)) < 1e-8
        # and both equal the known square factor
        assert np.max(np.abs(lhs - 0.01 * solenoid.alpha(p))) < 1e-8


class TestConformalFactor:
    def test_solenoid_constant(self, solenoid):
        pts = solenoid.chart.sample(100, rng_seed=3)
        for p in pts:
            assert conformal_factor(solenoid.phi, solenoid.alpha, p) == pytest.approx(
                0.1, abs=1e-9
            )

    def test_knot_at_y_zero(self, knot):
        p = np.array([0.3, -0.4, 0.0])
        f = conformal_factor(
            knot.phi, knot.alpha, p,
            target_form=knot.codomain_alpha, codomain=knot.codomain,
        )
        assert f == pytest.approx(knot.params["delta"], abs=1e-14)

    def test_knot_pointwise_formula(self, knot):
        c, d = knot.params["c"], knot.params["delta"]
        pts = knot.chart.sample(200, rng_seed=4)
        for p in pts:
            f = conformal_factor(
                knot.phi, knot.alpha, p,
                target_form=knot.codomain_alpha, codomain=knot.codomain,
            )
            assert f == pytest.approx(c * d / (c - d * p[2]), abs=1e-9)

    def test_cat_map_factor(self, cat_model):
        pts = cat_model.chart.sample(100, rng_seed=5)
        for p in pts:
            assert conformal_factor(
                cat_model.phi, cat_model.alpha, p
            ) == pytest.approx(LAMBDA_SMALL, abs=1e-8)

    def test_not_conformal(self, solenoid):
        squash = SmoothMap(lambda p: np.atleast_2d(p) * np.array([1.0, 0.5, 1.0]))
        with pytest.raises(NotConformal):
            conformal_factor(squash, solenoid.alpha, np.array([0.3, 0.2, 0.5]))

    def test_degenerate_form(self, solenoid):
        zero = OneForm(lambda p: np.zeros_like(np.asarray(p, float)))
        with pytest.raises(DegenerateForm):
            conformal_factor(solenoid.phi, zero, np.array([0.3, 0.2, 0.5]))

    def test_out_of_chart(self):
        from liouville_forge.contact_kernel import OutOfChart

        bad = builtin_model("transverse_knot", {"c": 0.1, "delta": 0.1})
        # y close to 1 blows the last coordinate past the target box
        with pytest.raises(OutOfChart):
            eval_pullback(
                bad.phi, bad.codomain_alpha, np.array([0.0, 0.0, 0.999]),
                codomain=bad.codomain,
            )


class TestContactCheck:
    def test_solenoid_orientation(self, solenoid):
        for p in solenoid.chart.sample(20, rng_seed=6):
            assert contact_check(solenoid.alpha, p) == pytest.approx(1.0, abs=1e-7)

    def test_non_contact_form(self):
        dz = OneForm(
            lambda p: np.broadcast_to(
                np.array([1.0, 0.0, 0.0]), np.atleast_2d(p).shape
            ).copy().squeeze()
        )
        assert contact_check(dz, np.array([0.1, 0.2, 0.3])) == pytest.approx(
            0.0, abs=1e-10
        )

    def test_jet_orientation(self, jet):
        assert contact_check(jet.alpha, np.array([0.2, 0.5, -0.1])) == pytest.approx(
            1.0, abs=1e-7
        )

    def test_anosov_nonvanishing_constant(self, cat_model):
        vals = [
            contact_check(cat_model.alpha, p)
            for p in cat_model.chart.sample(20, rng_seed=7)
        ]
        assert np.ptp(vals) < 1e-6
        assert abs(vals[0]) > 0.5

    def test_bounded_away_from_zero_all_builtins(self, solenoid, jet, knot, cat_model):
        for model in (solenoid, jet, knot, cat_model):
            for p in model.chart.sample(16, rng_seed=8):
                assert abs(contact_check(model.alpha, p)) > 1e-3


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
        assert solenoid.phi(np.zeros(3)) == pytest.approx([0.0, 0.5, 0.0])

    def test_knot_image_point(self, knot):
        assert knot.phi(np.zeros(3)) == pytest.approx([0.0, 0.0, 0.001])

    def test_unknown(self):
        with pytest.raises(UnknownModel):
            builtin_model("moebius")

    def test_jet_factor(self, jet):
        assert conformal_factor(jet.phi, jet.alpha, np.array([0.1, 0.9, 0.3])) == (
            pytest.approx(0.5, abs=1e-12)
        )


class TestAnosovEigenforms:
    def test_beta_pullback_relation(self, cat_model):
        # Constant eigen-coefficient forms transform by their eigenvalue
        # under the torus map.
        mat = np.array(cat_model.params["matrix"], float)
        torus_map = SmoothMap(
            lambda p: np.atleast_2d(p) @ mat.T,
            lambda p: np.broadcast_to(
                mat, (np.atleast_2d(p).shape[0], 2, 2)
            ).copy(),
        )
        cert = certify_matrix(IntMatrix.from_rows([[2, 1], [1, 1]]))
        lam_sorted = sorted(cert.roots)
        for lam in lam_sorted:
            vals, vecs = np.linalg.eig(mat.T)
            idx = int(np.argmin(np.abs(vals - lam)))
            beta = np.real(vecs[:, idx])
            form = OneForm(
                lambda p, b=beta: np.broadcast_to(
                    b, np.atleast_2d(p).shape
                ).copy().squeeze()
            )
            p = np.array([0.3, 0.8])
            pb = eval_pullback(torus_map, form, p)
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
