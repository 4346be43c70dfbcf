import itertools
import json
import math
import os
import resource
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.stats import qmc

import liouville_forge
from liouville_forge import contact_kernel
from liouville_forge.contact_kernel import (
    CONTAINS_TOL,
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
from liouville_forge.torus_builder import build_mapping_torus, descent_check

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
        assert f[0] == pytest.approx(1e-3, abs=1e-14)  # the builder's default delta

    def test_knot_pointwise_formula(self, knot):
        c, d = 0.1, 1e-3  # the knot builder's defaults
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
        assert cert.d3["factor_min"] is None
        assert "no sample has a finite conformal factor" in cert.notes


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


def _k_to_one_model(solenoid, k, with_inverse=True):
    """(theta, x, y) -> (k theta, x/10, y/(10k)) rescales dx + y dtheta by
    1/10 and keeps its image deep inside the chart, but every image point
    has k preimages."""
    scale = np.array([k, 0.1, 0.1 / k])

    def jacobian(p):
        return np.broadcast_to(np.diag(scale), (len(p), 3, 3)).copy()

    def inverse(p):
        th = p[:, 0, None] / k + 2.0 * math.pi * np.arange(k) / k
        rest = np.broadcast_to(p[:, None, 1:] / scale[1:], th.shape + (2,))
        return np.concatenate([th[:, :, None], rest], axis=-1)

    phi = SmoothMap(lambda p: p * scale, jacobian, inverse if with_inverse else None)
    return replace(solenoid, phi=phi)


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
        c, d = 0.1, 1e-3  # the knot builder's defaults
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
        cert = certify_contraction(
            _k_to_one_model(solenoid, k, with_inverse), samples=10_000, rng_seed=seed
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

    @pytest.mark.parametrize("name", ["solenoid", "jet", "knot"])
    def test_reduces_the_image_once_per_block(self, name, request, monkeypatch):
        # Past one block of samples, each row is still reduced exactly once:
        # one call per block, none larger than the block.
        model = request.getfixturevalue(name)
        samples = 2 * contact_kernel._BLOCK_ROWS + 1000
        before = certify_contraction(model, samples=samples)
        calls = []
        reduce = Chart.reduce

        def counted(self, pts):
            calls.append(len(pts))
            return reduce(self, pts)

        monkeypatch.setattr(Chart, "reduce", counted)
        cert = certify_contraction(model, samples=samples)
        assert cert.to_dict() == before.to_dict()
        assert len(calls) > 1
        assert sum(calls) == cert.sample_count
        assert max(calls) <= contact_kernel._BLOCK_ROWS


class TestRowBlocks:
    @pytest.mark.parametrize(
        "name", ["solenoid", "jet", "anosov3", "anosov4", "knot_delta_01", "k_to_one"]
    )
    def test_reports_do_not_depend_on_the_block_size(self, name, request, monkeypatch):
        # Every per-row value is computed as before, and the blocks' figures
        # fold by min / max / sum / all, which do not see the blocking, so
        # the reports are equal, NaN included.  At 2000 samples, blocks of
        # 1999 rows join the sample/probe seam inside a block, 2000 put it on
        # a block edge and 2001 end the first block one probe past it; the
        # 6912 anosov n = 4 probes fill later blocks on their own.
        if name == "knot_delta_01":
            # Probes at y = 1 map to non-finite points (12 at 2000 samples).
            model = builtin_model("transverse_knot", {"c": 0.1, "delta": 0.1})
        elif name == "k_to_one":
            model = _k_to_one_model(request.getfixturevalue("solenoid"), 3)
        else:
            model = request.getfixturevalue(name)
        if name == "anosov4":
            assert len(model.chart.probe_points()) == 6912
        outcomes = []
        for rows in (7, 1999, 2000, 2001, 10**9):
            monkeypatch.setattr(contact_kernel, "_BLOCK_ROWS", rows)
            cert = certify_contraction(model, samples=2000, rng_seed=3).to_dict()
            residual = descent_check(build_mapping_torus(model), samples=1000)
            outcomes.append((json.dumps(cert, sort_keys=True), repr(residual)))
        assert outcomes[1:] == outcomes[:-1]
        if name == "knot_delta_01":
            assert "12 samples mapped to non-finite points" in json.loads(outcomes[0][0])["notes"]

    @pytest.mark.parametrize("name", ["solenoid", "anosov4"])
    def test_blocks_are_the_stacked_rows_in_c_order(self, name, request, monkeypatch):
        # The map sees the rows of the sample followed by the probes, in
        # order, each block C-contiguous as a stack of the two gives it: a
        # row sum of 8 or more coordinates and the BLAS products of the
        # anosov map may depend on the layout.  Descent's blocks stay views
        # of Halton's column-major array.
        model = request.getfixturevalue(name)
        monkeypatch.setattr(contact_kernel, "_BLOCK_ROWS", 1999)
        seen = []

        def forward(p):
            seen.append(p)
            return model.phi.forward(p)

        counted = replace(model, phi=replace(model.phi, forward=forward))
        certify_contraction(counted, samples=5000, rng_seed=3)
        want = np.vstack([model.chart.sample(5000, 3), model.chart.probe_points()])
        assert [len(p) for p in seen[:-1]] == [1999] * (len(want) // 1999)
        assert all(p.flags.c_contiguous for p in seen)
        assert _same_bits(np.concatenate(seen), want)

        seen.clear()
        descent_check(build_mapping_torus(counted, force_G=1.0), samples=5000)
        assert [len(p) for p in seen] == [1999, 1999, 1002]
        assert all(p.flags.f_contiguous for p in seen)

    def test_certify_holds_the_sample_once(self, anosov4):
        # The sample is Halton's array scaled in place, the blocks are fed
        # from it without a stacked copy, and each block leaves only its
        # figures.  At 100 000 anosov n = 4 samples (5.3 MiB) the traced
        # peak reads 1.73 times the sample's bytes: the sample, the probes
        # and one block's temporaries, its Jacobians the largest.  A scaled
        # copy beside Halton's array, a stack with the probes and per-row
        # arrays joined over the blocks read 3.0 times; the bound is 2.25.
        samples = 100_000
        sample_bytes = samples * anosov4.chart.dim * 8
        tracemalloc.start()
        try:
            cert = certify_contraction(anosov4, samples=samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cert.passed
        assert peak < 2.25 * sample_bytes

    @pytest.mark.parametrize("odd", [1e-9, 0.4], ids=["det-below-tol", "det-above-tol"])
    def test_one_determinant_only_for_equal_jacobians(self, jet, odd):
        # Every Jacobian is the constant one except at a single sample in the
        # second block; its determinant must reach min_abs_det and the d2
        # verdict exactly as LAPACK over the whole batch gives them.
        samples = 2 * contact_kernel._BLOCK_ROWS
        pts = np.vstack([jet.chart.sample(samples, 0), jet.chart.probe_points()])
        z_odd = pts[contact_kernel._BLOCK_ROWS + 17, 0]
        assert np.count_nonzero(pts[:, 0] == z_odd) == 1

        def jacobian(p):
            out = jet.phi.jac(p).copy()
            out[p[:, 0] == z_odd] = np.diag([0.5, 1.0, odd])
            return out

        cert = certify_contraction(
            replace(jet, phi=replace(jet.phi, jacobian=jacobian)), samples=samples
        )
        want = float(np.min(np.abs(np.linalg.det(jacobian(pts)))))
        assert want == pytest.approx(0.5 * odd) and want < 0.25  # the odd row is the min
        assert cert.d2["min_abs_det"] == want
        assert cert.d2["pass"] == (want >= cert.tol)


# Values on which float reductions differ: signed zeros, subnormals, the
# smallest normal, infinities, NaN and magnitudes near 1e+-300.
_NASTY = st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308,
    math.inf, -math.inf, math.nan, 1e300, -1e300, 1e-300, -1e-300, 1.0, -3.5,
])
_FLOATS = (_NASTY | st.floats() | st.floats(1e299, 1e301) | st.floats(-1e301, -1e299)
           | st.floats(1e-301, 1e-299) | st.floats(-1e-299, -1e-301))


def _rows(data, dtype, elements):
    """An (N, d) array with d = 1..25 columns, row- or column-major."""
    shape = (data.draw(st.integers(1, 6), "rows"), data.draw(st.integers(1, 25), "columns"))
    x = data.draw(hnp.arrays(dtype, shape, elements=elements), "x")
    return np.asfortranarray(x) if data.draw(st.booleans(), "column-major") else x


def _assert_same_bits(got, want):
    """Equal NaN positions, equal bits elsewhere: which NaN a row of several
    NaNs returns depends on the order numpy's compiled loops add them in."""
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))


class TestRowReductions:
    """The column loops give what numpy's axis=1 reductions give."""

    @settings(max_examples=500, derandomize=True, deadline=None)
    @given(st.data())
    def test_row_sum_is_add_reduce_bit_for_bit(self, data):
        x = _rows(data, np.float64, _FLOATS)
        with np.errstate(all="ignore"):
            _assert_same_bits(contact_kernel._row_sum(x), np.add.reduce(x, axis=1))

    @pytest.mark.parametrize("cols", [128, 129, 136, 300])
    def test_row_sum_past_numpy_block(self, cols):
        # Past 128 entries numpy's pairwise sum splits a row; chart rows
        # never get there, and _row_sum hands such rows to numpy as well.
        rng = np.random.default_rng(cols)
        x = rng.standard_normal((50, cols)) * 10.0 ** rng.integers(-8, 9, (50, cols))
        _assert_same_bits(contact_kernel._row_sum(x), np.add.reduce(x, axis=1))

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.data())
    def test_row_all_is_all(self, data):
        mask = _rows(data, bool, st.booleans())
        np.testing.assert_array_equal(contact_kernel._row_all(mask), mask.all(axis=1))

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.data())
    def test_contains_is_margin_test(self, data):
        bounds = []
        for name in ("u", "v"):
            lo = data.draw(st.sampled_from([0.0, -1.0]) | st.floats(-1e6, 1e6), f"{name} lo")
            width = data.draw(st.sampled_from([1.0, 2.0]) | st.floats(1e-6, 1e6), f"{name} width")
            bounds.append((lo, lo + width))
        chart = Chart((Coord.circle("t", 2 * math.pi),
                       *(Coord.interval(name, *b) for name, b in zip("uv", bounds))))
        non_finite = st.sampled_from([math.nan, math.inf, -math.inf])

        def interval_values(lo, hi):
            # Each end, and each end CONTAINS_TOL outside, one ulp either side.
            edges = [e2 for e in (lo, hi, lo - CONTAINS_TOL, hi + CONTAINS_TOL)
                     for e2 in (math.nextafter(e, -math.inf), e, math.nextafter(e, math.inf))]
            return st.sampled_from(edges) | st.floats(lo, hi) | non_finite

        row = st.tuples(st.floats(0.0, 2 * math.pi) | non_finite,
                        *(interval_values(*b) for b in bounds))
        pts = np.array(data.draw(st.lists(row, min_size=1, max_size=30), "points"))
        np.testing.assert_array_equal(chart.contains(pts),
                                      chart.interior_margins(pts) >= -CONTAINS_TOL)

    def test_contains_keeps_points_tol_outside(self):
        # Ends at 0, so the subtractions give -CONTAINS_TOL exactly.
        chart = Chart((Coord.circle("t", 1.0), Coord.interval("u", -1.0, 0.0),
                       Coord.interval("v", 0.0, 1.0)))
        tol, past = CONTAINS_TOL, math.nextafter(CONTAINS_TOL, math.inf)
        pts = np.array([[0.5, tol, 0.5], [0.5, -0.5, -tol], [0.5, past, 0.5], [0.5, -0.5, -past]])
        assert chart.contains(pts).tolist() == [True, True, False, False]


# The bench's anosov n = 3 and 4 inputs, and the ladder's n = 5 and 9 ones:
# charts of 9 and 17 coordinates take numpy's own reduce in _row_sum.
_SWAP_MODELS = {
    "anosov3": (3, (1.10,), 0.4, 7173),
    "anosov4": (4, (1.21, 1.25), 0.4, 7197),
    "anosov5": (5, (0.6, 1.2, 1.8), 0.5, 0),
    "anosov9": (9, (0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8), 0.5, 0),
}


class TestColumnReductionsInCertify:
    @pytest.mark.parametrize("name", ["solenoid", "jet", "knot", "knot_delta_01", "cat_model",
                                      *_SWAP_MODELS])
    def test_reports_equal_with_numpy_reductions(self, name, request, monkeypatch):
        if name == "knot_delta_01":
            model = builtin_model("transverse_knot", {"c": 0.1, "delta": 0.1})
        elif name in _SWAP_MODELS:
            n, mu, eps, seed = _SWAP_MODELS[name]
            cert = find_matrix(SpectrumRequest(n=n, mu=mu, eps=eps, seed=seed))
            model = anosov_model(cert.matrix, cert)
        else:
            model = request.getfixturevalue(name)

        def outcome():
            cert = certify_contraction(model, samples=3000, rng_seed=5).to_dict()
            residual = descent_check(build_mapping_torus(model), samples=1000)
            return json.dumps(cert, sort_keys=True), repr(residual)

        ours = outcome()
        monkeypatch.setattr(contact_kernel, "_row_all", lambda m: m.all(axis=1))
        monkeypatch.setattr(contact_kernel, "_row_sum", lambda x: np.add.reduce(x, axis=1))
        monkeypatch.setattr(Chart, "contains",
                            lambda self, p: self.interior_margins(p) >= -CONTAINS_TOL)
        assert outcome() == ours


class TestDeterminants:
    def test_broadcast_jacobian_takes_one_call(self, monkeypatch):
        calls = []
        det = np.linalg.det
        monkeypatch.setattr(np.linalg, "det", lambda a: calls.append(a.shape) or det(a))
        m = np.array([[2.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.3, 0.0, 0.25]])
        jac = np.broadcast_to(m, (1000, 3, 3))
        one = contact_kernel._determinants(jac)
        assert calls == [(1, 3, 3)]
        # The same values held row by row take the batch call, with the same bits.
        batch = contact_kernel._determinants(jac.copy())
        assert calls == [(1, 3, 3), (1000, 3, 3)]
        assert np.array_equal(one.view(np.int64), batch.view(np.int64))

    def test_nan_jacobian_gives_nan(self):
        jac = np.broadcast_to(np.full((3, 3), np.nan), (10, 3, 3))
        with np.errstate(invalid="ignore"):
            assert np.isnan(contact_kernel._determinants(jac)).all()
            assert np.isnan(contact_kernel._determinants(jac.copy())).all()


class TestBuiltinModels:
    def test_solenoid_image_point(self, solenoid):
        assert solenoid.phi(np.zeros((1, 3)))[0] == pytest.approx([0.0, 0.5, 0.0])

    def test_knot_image_point(self, knot):
        assert knot.phi(np.zeros((1, 3)))[0] == pytest.approx([0.0, 0.0, 0.001])

    def test_unknown(self):
        with pytest.raises(UnknownModel):
            builtin_model("moebius")

    @pytest.mark.parametrize("name, params", [
        ("solenoid", {"angle_multiplier": 3}),
        ("solenoid", {"rate_x": 0.5}),
        ("solenoid", {"rate_y": 0.5}),
        ("jet_space", {"rate": 0.25}),
        # A misspelled knot parameter is refused, not ignored.
        ("transverse_knot", {"C": 1}),
    ])
    def test_parameters_the_model_does_not_take_raise(self, name, params):
        # The map stays the same whatever the keys say, so a key that only
        # moved the section's seeding, scales or gap made a false report.
        with pytest.raises(TypeError):
            builtin_model(name, params)

    def test_sections(self, solenoid, jet, knot):
        assert solenoid.section == (2, (0.1, 0.05))
        assert jet.section == (1, (0.5, 0.5))
        assert knot.section is None

    def test_affine_records(self, solenoid, jet, knot, cat_model):
        assert jet.affine == ((0.5, 0.5), ((1,),), ((1,),))
        # The jet space's section reads the record's rates.
        assert jet.section.rates is jet.affine.rates
        assert cat_model.affine.matrix == ((2, 1), (1, 1))
        assert cat_model.affine.rates == pytest.approx((LAMBDA_SMALL**2,), rel=1e-14)
        assert solenoid.affine is None and knot.affine is None
        for model in (solenoid, jet, knot, cat_model):
            assert not hasattr(model, "params")

    def test_knot_delta_whose_square_overflows_is_refused(self):
        with pytest.raises(ValueError, match="delta"):
            builtin_model("transverse_knot", {"delta": 1e160})
        # A delta whose square fits still builds and squares in floats.
        knot = builtin_model("transverse_knot", {"delta": 1e154})
        assert np.isfinite(knot.phi.jac(np.array([[0.0, 0.0, 1.0]]))).all()

    def test_jet_factor(self, jet):
        f = model_conformal_factors(jet, np.array([[0.1, 0.9, 0.3]]))[0]
        assert f[0] == pytest.approx(0.5, abs=1e-12)


class TestAnosovEigenforms:
    def test_beta_pullback_relation(self, cat_model):
        # Constant eigen-coefficient forms transform by their eigenvalue
        # under the torus map.
        mat = np.array(cat_model.affine.matrix, float)
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

    def test_exact_factor_constant_on_large_entries(self):
        # Entries up to 900638 and lambda_n = 2.5e-6: the float eigenvectors
        # of A^T spread the sampled exponent by 1.9e-3, although the exact
        # factor is the constant lambda_n.
        req = SpectrumRequest(n=6, mu=(1.85, 1.77, 1.58, 1.95), eps=0.4, seed=6)
        cert = find_matrix(req)
        model = anosov_model(cert.matrix, cert)
        f = model_conformal_factors(model, model.chart.sample(1000))[0]
        assert np.ptp(-np.log(f)) < 1e-6

    def test_rejects_negative_small_eigenvalue(self):
        # spectrum {-1/2, -2}: real and simple, but smallest-magnitude
        # eigenvalue is negative.
        m = IntMatrix.from_rows([[0, -1], [1, -3]])
        cert = certify_matrix(m)
        from liouville_forge.contact_kernel import EigenFailure

        with pytest.raises(EigenFailure):
            anosov_model(m, cert)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shapes and equal float64 bit patterns, so -0.0 differs from 0.0."""
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _ladder_model(n: int):
    """The anosov model of the dimension ladder's inputs at ``n``."""
    mu = tuple(round(float(v), 3) for v in np.linspace(0.6, 1.8, n - 2))
    cert = find_matrix(SpectrumRequest(n=n, mu=mu, eps=0.5, seed=0))
    return anosov_model(cert.matrix, cert), cert


class TestAffineMaps:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_inverse_is_exact(self, n, cat_model):
        if n == 2:
            model, matrix = cat_model, ((2, 1), (1, 1))
        else:
            model, cert = _ladder_model(n)
            matrix = cert.matrix.entries
        a, a_inv = model.affine.matrix, model.affine.inverse
        assert a == matrix
        assert all(isinstance(v, int) for row in a_inv for v in row)
        product = [[sum(a[i][k] * a_inv[k][j] for k in range(n)) for j in range(n)]
                   for i in range(n)]
        assert product == [[int(i == j) for j in range(n)] for i in range(n)]

    @pytest.mark.parametrize("name", ["cat_model", "anosov3", "anosov4"])
    def test_anosov_map_bit_for_bit(self, name, request):
        # The forward map scales y by the rates and sends x to A x, as the
        # hand-written map did, on signed zeros too.
        model = request.getfixturevalue(name)
        chart = model.chart
        m = len(chart.interval_idx)
        pts = np.vstack([chart.sample(500, rng_seed=9), chart.probe_points(),
                         np.full((1, chart.dim), -0.0),
                         np.where(np.arange(chart.dim) % 2, -0.0, 0.25)[None, :]])
        a = np.array(model.affine.matrix, float)
        want = np.column_stack([pts[:, :m] * np.array(model.affine.rates), pts[:, m:] @ a.T])
        assert _same_bits(model.phi(pts), want)

    def test_jet_map_bit_for_bit(self, jet):
        pts = np.vstack([jet.chart.sample(500, rng_seed=9), jet.chart.probe_points()])
        z, q, p = pts.T
        assert _same_bits(jet.phi(pts), np.column_stack([z / 2, q, p / 2]))
        assert _same_bits(jet.phi.inverse(pts)[:, 0], np.column_stack([2 * z, q, 2 * p]))
        assert _same_bits(jet.phi.jac(pts[:2]), np.broadcast_to(np.diag([0.5, 1.0, 0.5]),
                                                                (2, 3, 3)))


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


def _anosov_chart(n):
    return Chart(tuple(Coord.interval(f"y{i}", -1.0, 1.0) for i in range(n - 1))
                 + tuple(Coord.circle(f"x{i}", 1.0) for i in range(n)))


class TestChart:
    @pytest.mark.parametrize("name", ["solenoid", "jet", "anosov4"])
    @pytest.mark.parametrize("n", [1, 37, 5000])
    def test_sample_is_scaled_halton(self, name, n, request):
        # Scaled in place, the sample keeps the bits and the column-major
        # layout of lo + u * (hi - lo) on Halton's points u.
        chart = request.getfixturevalue(name).chart
        lo, hi = chart.lows(), chart.highs()
        want = lo + halton(n, chart.dim, 4) * (hi - lo)
        got = chart.sample(n, rng_seed=4)
        assert _same_bits(got, want)
        assert got.flags.f_contiguous and want.flags.f_contiguous

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_probe_points_match_full_product(self, n):
        # Reference: every stride-th row of the whole product.
        chart = _anosov_chart(n)
        axes = [[0.0, c.period / 4, c.period / 2, 3 * c.period / 4] if c.is_periodic
                else [c.lo, 0.5 * (c.lo + c.hi), c.hi] for c in chart.coords]
        full = np.array(list(itertools.product(*axes)))
        for cap in (512, 8192):
            want = full[::int(np.ceil(len(full) / cap))] if len(full) > cap else full
            np.testing.assert_array_equal(chart.probe_points(cap), want)

    def test_probe_points_past_int64_rows(self):
        # n = 19: 3^18 * 4^19 rows in the product, more than 2**63.  Run in a
        # subprocess under a 3 GB address-space cap, so that building the
        # full product fails at once instead of filling the machine.
        script = (
            "import numpy as np\n"
            "from liouville_forge.contact_kernel import Chart, Coord\n"
            "chart = Chart(tuple(Coord.interval(f'y{i}', -1.0, 1.0) for i in range(18))\n"
            "              + tuple(Coord.circle(f'x{i}', 1.0) for i in range(19)))\n"
            "pts = chart.probe_points()\n"
            "assert pts.shape == (8192, 37), pts.shape\n"
            "assert np.all(pts[:, 18:] < 1.0) and np.all(np.abs(pts[:, :18]) <= 1.0)\n"
        )

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (3 * 10**9, 3 * 10**9))

        src = str(Path(liouville_forge.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, preexec_fn=cap_address_space, timeout=120)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("x", [-1e-20, -1e-300, -5e-324, -0.0, -2 * math.pi])
    def test_reduce_never_returns_the_period(self, x):
        # mod(-1e-20, 2 pi) rounds to 2 pi itself, outside [0, period).
        red = builtin_model("solenoid").chart.reduce([[x, 0.0, 0.0]])
        assert red[0, 0] == 0.0
        assert not np.signbit(red[0, 0])

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_reduce_is_mod_bit_for_bit(self, data):
        p = data.draw(st.sampled_from([2 * math.pi, 1.0]) | st.floats(1e-300, 1e300), "period")
        # [-p, 2p), where reduce steps by one period, with its ends and the
        # neighbours of -p, 0, p and 2p that lie inside it.
        values = st.floats(-p, 2 * p, exclude_max=True) | st.sampled_from([
            -p, math.nextafter(-p, math.inf), math.nextafter(-0.0, -math.inf), -0.0, 0.0,
            math.nextafter(0.0, math.inf), math.nextafter(p, -math.inf), p,
            math.nextafter(p, math.inf), math.nextafter(2 * p, -math.inf),
        ])
        if data.draw(st.booleans(), "with values that keep np.mod"):
            values |= st.floats() | st.sampled_from([
                math.nextafter(-p, -math.inf), 2 * p, math.nextafter(2 * p, math.inf),
                math.inf, -math.inf,
            ])
        col = np.array(data.draw(st.lists(values, min_size=1, max_size=20), "column"))
        chart = Chart((Coord.circle("t", p), Coord.interval("u", 0, 1), Coord.interval("v", 0, 1)))
        pts = np.zeros((len(col), 3))
        pts[:, 0] = col
        with np.errstate(invalid="ignore"):
            got = chart.reduce(pts)[:, 0]
            want = np.mod(col, p)
        want[want == p] = 0.0
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))

    def test_dim_validation(self):
        with pytest.raises(ValueError):
            Chart((Coord.interval("a", 0, 1), Coord.interval("b", 0, 1)))

    @pytest.mark.parametrize("coord", [
        Coord.interval("u", -math.inf, 1.0),
        Coord.interval("u", 0.0, math.nan),
        Coord.circle("t", math.inf),
        Coord.circle("t", math.nan),
    ], ids=["interval-lo-inf", "interval-hi-nan", "period-inf", "period-nan"])
    def test_non_finite_bounds_refused(self, coord):
        with pytest.raises(ValueError):
            Chart((coord, Coord.interval("a", 0, 1), Coord.interval("b", 0, 1)))

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

    def test_margins_take_the_callers_finite_mask(self):
        # The mask certify computes once gives the same bits as the one
        # interior_margins computes itself; a non-finite row still gives -inf.
        ch = Chart((Coord.circle("t", 2.0), Coord.interval("u", -1.0, 1.0),
                    Coord.interval("v", 0.0, 4.0)))
        pts = np.array([[5.0, 0.5, 1.0], [math.nan, 0.0, 2.0], [0.0, math.inf, 2.0],
                        [1.0, -0.25, 3.5], [0.0, 1e308, -1e308]])
        finite = np.isfinite(pts).all(axis=1)
        got = ch.interior_margins(pts, finite)
        np.testing.assert_array_equal(got, ch.interior_margins(pts))
        assert got[1] == got[2] == -math.inf and np.isfinite(got[[0, 3, 4]]).all()
