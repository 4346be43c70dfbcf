import io
import math
import time
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree
from scipy.stats import qmc

from liouville_forge import contact_kernel, torus_builder
from liouville_forge.cli import main
from liouville_forge.contact_kernel import (
    _BLOCK_ROWS,
    EVIDENCE,
    Chart,
    ContactModel,
    Coord,
    ModelError,
    OneForm,
    Section,
    SmoothMap,
    anosov_model,
    builtin_model,
)
from liouville_forge.exactlin import IntMatrix
from liouville_forge.spectrum_search import SpectrumRequest, certify_matrix, find_matrix
from liouville_forge.torus_builder import (
    DegenerateCloud,
    EmptySection,
    GExtension,
    MappingTorusModel,
    _row_keys,
    boundary_transversality_check,
    box_counting_dimension,
    build_mapping_torus,
    count_clusters,
    cross_section,
    descent_check,
    export_cloud_csv,
    iterate_attractor,
    section_cloud,
    skeleton_analysis,
    suggested_section_gap,
)

LN10 = math.log(10.0)


@pytest.fixture(scope="module")
def solenoid():
    return builtin_model("solenoid")


@pytest.fixture(scope="module")
def solenoid_torus(solenoid):
    return build_mapping_torus(solenoid)


def variable_rate_model() -> ContactModel:
    """Jet-space-like model whose conformal exponent depends on position:
    (z, q, p) -> (h(z), q, h'(z) p) rescales dz - p dq by h'(z)."""

    def h(z):
        return (z + 0.3 * np.sin(z)) / 2.2

    def hp(z):
        return (1.0 + 0.3 * np.cos(z)) / 2.2

    def hpp(z):
        return -0.3 * np.sin(z) / 2.2

    chart = Chart(
        (
            Coord.interval("z", -1.0, 1.0),
            Coord.circle("q", 1.0),
            Coord.interval("p", -1.0, 1.0),
        )
    )

    def alpha(pts):
        out = np.zeros_like(pts)
        out[:, 0] = 1.0
        out[:, 1] = -pts[:, 2]
        return out

    def forward(pts):
        return np.column_stack([h(pts[:, 0]), pts[:, 1], hp(pts[:, 0]) * pts[:, 2]])

    def jacobian(pts):
        out = np.zeros((len(pts), 3, 3))
        out[:, 0, 0] = hp(pts[:, 0])
        out[:, 1, 1] = 1.0
        out[:, 2, 0] = hpp(pts[:, 0]) * pts[:, 2]
        out[:, 2, 2] = hp(pts[:, 0])
        return out

    return ContactModel(
        name="variable_rate",
        chart=chart,
        alpha=OneForm(alpha, "dz - p dq"),
        phi=SmoothMap(forward, jacobian, None),
    )


class TestExtendG:
    def test_solenoid_constant(self, solenoid_torus):
        assert solenoid_torus.G.mode == "constant"
        assert solenoid_torus.G.constant == pytest.approx(LN10, abs=1e-12)

    def test_jet_constant(self):
        torus = build_mapping_torus(builtin_model("jet_space"))
        assert torus.G.constant == pytest.approx(math.log(2), abs=1e-12)

    def test_cat_map_constant(self):
        cert = certify_matrix(IntMatrix.from_rows([[2, 1], [1, 1]]))
        torus = build_mapping_torus(anosov_model(cert.matrix, cert))
        assert torus.G.constant == pytest.approx(0.9624236501192069, abs=1e-10)

    def test_forced_roof_reads_no_conformal_factor(self, solenoid, monkeypatch):
        calls = []
        real = torus_builder.model_conformal_factors
        monkeypatch.setattr(torus_builder, "model_conformal_factors",
                            lambda *a, **k: calls.append(a) or real(*a, **k))
        torus = build_mapping_torus(solenoid, force_G=math.log(9.0))
        assert (torus.G.mode, torus.G.constant) == ("forced", math.log(9.0))
        assert calls == []
        # The spy sees the extended roof's samples.
        build_mapping_torus(solenoid)
        assert len(calls) == 1

    def test_model_mode_for_transverse_knot(self):
        torus = build_mapping_torus(builtin_model("transverse_knot"))
        assert torus.G.mode == "model"
        assert torus.G.meta["extension_residual"] < 1e-10


class TestDescent:
    def test_solenoid_residual_tiny(self, solenoid_torus):
        assert descent_check(solenoid_torus, samples=1000) < 1e-9

    def test_wrong_constant_fails(self, solenoid):
        g9 = math.log(9.0)
        bad = MappingTorusModel(
            solenoid,
            GExtension(lambda p: np.full(len(p), g9), "forced", g9),
        )
        # scale |1 - 10/9| times the form magnitude
        assert descent_check(bad, samples=300) > 1e-2

    def test_constant_roof_too_large_to_check_refused(self, solenoid):
        # e^(s+G) for s up to G overflows once 2G reaches log(DBL_MAX) and
        # once wrote a NaN residual into the report.
        def roof(g):
            return GExtension(lambda p: np.full(len(p), g), "forced", g)

        with pytest.raises(ValueError, match="too large"):
            MappingTorusModel(solenoid, roof(355.0))
        residual = descent_check(MappingTorusModel(solenoid, roof(354.8)), samples=300)
        assert math.isfinite(residual) and not residual < 1e-9

    @pytest.mark.parametrize("check_seed", [0, 11])
    def test_varying_factor_gets_failing_constant_roof(self, check_seed):
        # A constant roof cannot glue a varying factor; the check must say
        # so, also when it samples the very points the roof was built from.
        torus = build_mapping_torus(variable_rate_model(), rng_seed=0)
        assert torus.G.mode == "constant"
        assert torus.G.meta["spread"] > 0.1
        assert not descent_check(torus, rng_seed=check_seed) < 1e-9

    def test_varying_factor_descends_with_exact_extension(self):
        # G(q) = -log h'(h^-1(q_z)) meets G(phi(x)) = -log h'(z) everywhere.
        def g_ext(q):
            target = 2.2 * q[:, 0]
            z = target.copy()
            for _ in range(50):
                z -= (z + 0.3 * np.sin(z) - target) / (1.0 + 0.3 * np.cos(z))
            return -np.log((1.0 + 0.3 * np.cos(z)) / 2.2)

        model = replace(variable_rate_model(), g_extension=g_ext)
        torus = build_mapping_torus(model)
        assert torus.G.mode == "model"
        assert descent_check(torus, samples=500, rng_seed=11) < 1e-9

    def test_torus_needs_a_map(self, solenoid_torus):
        with pytest.raises(ModelError):
            replace(solenoid_torus, base=replace(solenoid_torus.base, phi=None))

    def test_transverse_knot_descends(self):
        torus = build_mapping_torus(builtin_model("transverse_knot"))
        assert descent_check(torus, samples=500) < 1e-9

    def test_check_evaluates_the_map_once(self):
        # The non-constant roof is read at the images phi(x) that the
        # pullback already made; the residuals reuse them and their one
        # Jacobian instead of mapping or differentiating the points again.
        torus = build_mapping_torus(builtin_model("transverse_knot"))
        calls, jac_calls = [], []
        phi = torus.base.phi

        def forward(pts):
            calls.append(len(pts))
            return phi.forward(pts)

        def jacobian(pts):
            jac_calls.append(len(pts))
            return phi.jacobian(pts)

        counted_phi = replace(phi, forward=forward, jacobian=jacobian)
        counted = replace(torus, base=replace(torus.base, phi=counted_phi))
        assert descent_check(counted, samples=200) == descent_check(torus, samples=200)
        assert calls == [200]
        assert jac_calls == [200]

    def test_check_evaluates_the_map_once_per_block(self):
        # Past one block of samples, the map and its Jacobian still see each
        # row once: one call per block, none larger than the block.
        torus = build_mapping_torus(builtin_model("transverse_knot"))
        samples = 2 * contact_kernel._BLOCK_ROWS + 500
        calls, jac_calls = [], []
        phi = torus.base.phi

        def forward(pts):
            calls.append(len(pts))
            return phi.forward(pts)

        def jacobian(pts):
            jac_calls.append(len(pts))
            return phi.jacobian(pts)

        counted_phi = replace(phi, forward=forward, jacobian=jacobian)
        counted = replace(torus, base=replace(torus.base, phi=counted_phi))
        assert descent_check(counted, samples=samples) == descent_check(torus, samples=samples)
        for seen in (calls, jac_calls):
            assert len(seen) > 1
            assert sum(seen) == samples
            assert max(seen) <= contact_kernel._BLOCK_ROWS


class TestTransversality:
    def test_constant_margin(self, solenoid_torus):
        m = boundary_transversality_check(solenoid_torus, samples=128)
        assert m == pytest.approx(solenoid_torus.tilt_eps / LN10, abs=1e-12)

    def test_untilted_fails(self, solenoid):
        flat = MappingTorusModel(
            solenoid,
            GExtension(lambda p: np.full(len(p), LN10), "constant", LN10),
            tilt_eps=0.0,
        )
        assert boundary_transversality_check(flat) == 0.0

    def test_knot_margin_reads_the_roof_at_the_collar_images(self):
        # The roof lives on the codomain: over a collar point x it is
        # G(reduce(phi(x))), so the margin is tilt_eps over its largest
        # value there.  The clip floor of the knot's extension lies far
        # below the image (z_bar near 1e-3), so moving it moves nothing.
        model = builtin_model("transverse_knot")
        torus = build_mapping_torus(model)
        seen = []

        def roof(q):
            seen.append(q)
            return torus.G(q)

        margin = boundary_transversality_check(replace(torus, G=replace(torus.G, evaluate=roof)))
        (q,) = seen
        assert model.codomain.contains(q).all()
        np.testing.assert_array_equal(model.codomain.reduce(q), q)
        assert margin == torus.tilt_eps / np.max(torus.G(q))
        # The roof over the chart is largest at y = -1, where z_bar is
        # c delta / (c + delta); the collar samples come within 1e-5 of it.
        bound = torus.tilt_eps / -math.log(1e-4 / 0.101)
        assert bound <= margin == pytest.approx(bound, rel=1e-5)

        def g_ext_floor(p):
            return -np.log(np.clip(p[:, 2], 1e-6, 1.0 - 1e-12))

        floored = build_mapping_torus(replace(model, g_extension=g_ext_floor))
        assert boundary_transversality_check(floored) == margin


class TestAttractorIteration:
    def test_depth_zero_fills_chart(self, solenoid):
        sample = iterate_attractor(solenoid, 0, 20_000, rng_seed=0)
        spans = np.ptp(sample.points, axis=0)
        assert spans[0] > 0.95 * 2 * math.pi
        assert spans[1] > 1.9 and spans[2] > 1.9

    def test_depth_one_angle_doubling(self, solenoid):
        grid = np.column_stack(
            [np.linspace(0, 2 * math.pi, 64, endpoint=False), np.zeros(64), np.zeros(64)]
        )
        img = solenoid.chart.reduce(solenoid.phi(grid))
        assert np.allclose(
            img[:, 0], np.mod(2 * grid[:, 0], 2 * math.pi), atol=1e-12
        )

    def test_bounding_volume_shrinks(self, solenoid):
        vols = []
        for depth in range(4):
            pts = iterate_attractor(solenoid, depth, 20_000, rng_seed=1).points
            spans = np.ptp(pts[:, 1:], axis=0)
            vols.append(float(spans.prod()))
        assert all(a >= b for a, b in zip(vols, vols[1:]))

    def test_hausdorff_distance_contracts(self, solenoid):
        clouds = [
            iterate_attractor(solenoid, d, 400_000, rng_seed=2).points
            for d in (1, 2, 3)
        ]

        def hausdorff(a, b):
            d1, _ = cKDTree(b).query(a, workers=-1)
            d2, _ = cKDTree(a).query(b, workers=-1)
            return max(d1.max(), d2.max())

        h12 = hausdorff(clouds[0], clouds[1])
        h23 = hausdorff(clouds[1], clouds[2])
        assert h23 < 0.5 * h12


class TestCrossSection:
    def test_depth_zero_fills_disk(self, solenoid):
        sample = section_cloud(solenoid, 0, 4096, theta0=0.0, rng_seed=0)
        pts2 = cross_section(sample, 0.0, 1e-6)
        assert len(pts2) == 4096
        assert np.ptp(pts2[:, 0]) > 1.9 and np.ptp(pts2[:, 1]) > 1.9

    def test_empty_section(self, solenoid):
        sample = section_cloud(solenoid, 2, 128, theta0=0.0, rng_seed=0)
        with pytest.raises(EmptySection):
            cross_section(sample, math.pi, 1e-9)

    @pytest.mark.parametrize("depth", range(1, 9))
    def test_cluster_count_is_two_to_depth(self, solenoid, depth):
        sample = section_cloud(solenoid, depth, 512, theta0=0.0, rng_seed=0)
        pts2 = cross_section(sample, 0.0, 1e-6)
        gap = suggested_section_gap(solenoid, depth)
        assert count_clusters(pts2, gap) == 2**depth

    def test_cluster_diameter_rate(self, solenoid):
        # horizontal extent of each branch shrinks like the x-rate per level
        diams = []
        for depth in (2, 3, 4):
            sample = section_cloud(solenoid, depth, 512, theta0=0.0, rng_seed=0)
            pts2 = cross_section(sample, 0.0, 1e-6)
            # cluster at angle index 0 maps the seed box through depth steps
            block = pts2[:512]
            diams.append(float(np.ptp(block[:, 0])))
        assert diams[1] / diams[0] == pytest.approx(0.1, rel=0.05)
        assert diams[2] / diams[1] == pytest.approx(0.1, rel=0.05)


class TestBoxCounting:
    def test_single_point(self):
        res = box_counting_dimension(np.array([[0.3, 0.4]]), [0.25, 0.125, 0.0625])
        assert res.slope == pytest.approx(0.0, abs=1e-12)
        assert res.counts == (1, 1, 1)

    def test_unit_square(self):
        eng = qmc.Halton(d=2, scramble=True, seed=0)
        pts = eng.random(200_000)
        res = box_counting_dimension(pts, [2.0**-k for k in range(2, 7)])
        assert abs(res.slope - 2.0) < 0.1

    def test_cantor_dust(self):
        rng = np.random.default_rng(0)
        digits = rng.integers(0, 2, size=(200_000, 40)) * 2
        pows = 3.0 ** -np.arange(1, 41)
        pts = (digits * pows).sum(axis=1)[:, None]
        res = box_counting_dimension(pts, [3.0**-k for k in range(2, 8)])
        assert abs(res.slope - math.log(2) / math.log(3)) < 0.05

    def test_counts_monotone(self, solenoid):
        pts = iterate_attractor(solenoid, 3, 50_000, rng_seed=0).points
        res = box_counting_dimension(pts, [0.4, 0.2, 0.1, 0.05, 0.025])
        assert all(a <= b for a, b in zip(res.counts, res.counts[1:]))

    def test_degenerate_cloud(self):
        with pytest.raises(DegenerateCloud):
            box_counting_dimension(np.zeros((10, 2)), [0.5, 0.25])

    def test_needs_two_scales(self):
        with pytest.raises(ValueError):
            box_counting_dimension(np.random.rand(10, 2), [0.5])

    @pytest.mark.parametrize("scales", [[0.1, 0.1], [0.2, 0.1, 0.1], [0.1, 0.2, 0.1]])
    def test_repeated_scale_refused(self, scales):
        # Two equal scales fit a line through one abscissa, or weight it twice.
        with pytest.raises(ValueError, match="distinct"):
            box_counting_dimension(np.random.rand(100, 2), scales)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_refused(self, bad):
        pts = np.random.default_rng(0).random((100, 2))
        pts[37, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            box_counting_dimension(pts, [0.5, 0.25])

    def test_memory_bound(self):
        # Each scale packs one int64 key per point (8 MB here) in blocks of
        # rows, one column at a time, then compares neighbouring keys (a
        # 1 MB mask); the block buffers are 0.5 MB.  The bound is 16 MB:
        # whole (N, d) arrays of cells took about 48 MB.
        pts = np.random.default_rng(0).random((1_000_000, 2))
        tracemalloc.start()
        try:
            box_counting_dimension(pts, [2.0**-k for k in range(2, 9)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    @pytest.mark.parametrize("scales", [[1e-17, 1e-19], [1e-300, 1e-301]])
    def test_cell_index_past_int64_refused(self, scales):
        # A unit-sized cloud at these scales has cell indices beyond 2**63,
        # which the int64 cast would wrap or saturate into a false count.
        pts = np.random.default_rng(0).random((1000, 2))
        with pytest.raises(ValueError, match="int64"):
            box_counting_dimension(pts, scales)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_cell_index_at_the_int64_edge_counted(self, sign):
        # Indices of magnitude 2**62 fit; the count is exact.
        pts = sign * np.array([[2.0**62, 0.0], [2.0**62 + 2.0**11, 0.0]])
        res = box_counting_dimension(pts, [2.0, 1.0], origin=[0.0, 0.0])
        assert res.counts == (2, 2)

    def test_non_finite_origin_refused(self):
        with pytest.raises(ValueError, match="finite"):
            box_counting_dimension(np.random.rand(10, 2), [0.5, 0.25], origin=[np.nan, 0.0])


_BAD_CLOUDS = {
    "one-d": np.linspace(0.0, 1.0, 1000),
    "empty-list": [],
    "no-rows": np.empty((0, 2)),
    "three-d": np.zeros((4, 2, 2)),
}


class TestPointArrayContract:
    # Clouds are (N, d) with N >= 1; a 1-D array is not read as one point.
    @pytest.mark.parametrize("pts", _BAD_CLOUDS.values(), ids=_BAD_CLOUDS.keys())
    def test_box_counting_rejects(self, pts):
        with pytest.raises(ValueError):
            box_counting_dimension(pts, [0.5, 0.25])

    @pytest.mark.parametrize("pts", _BAD_CLOUDS.values(), ids=_BAD_CLOUDS.keys())
    def test_count_clusters_rejects(self, pts):
        with pytest.raises(ValueError):
            count_clusters(pts, 0.1)

    @pytest.mark.parametrize("pts", _BAD_CLOUDS.values(), ids=_BAD_CLOUDS.keys())
    def test_csv_export_rejects(self, pts, tmp_path):
        path = tmp_path / "bad.csv"
        with pytest.raises(ValueError):
            export_cloud_csv(pts, ["a", "b"], str(path))
        assert not path.exists()


class TestSkeletonDimension:
    def test_solenoid_smoke(self, solenoid):
        est = skeleton_analysis(solenoid, 6, 120_000, rng_seed=0).estimate
        assert 2.1 < est < 2.4

    def test_anosov_cat_map(self):
        cert = certify_matrix(IntMatrix.from_rows([[2, 1], [1, 1]]))
        model = anosov_model(cert.matrix, cert)
        an = skeleton_analysis(model, 4, 200_000, rng_seed=0)
        assert an.route == "cloud"
        assert abs(an.estimate - 3.0) < 0.15

    def test_depth_zero_full_box(self, solenoid):
        an = skeleton_analysis(solenoid, 0, 50_000, rng_seed=0)
        assert abs(an.estimate - 4.0) < 0.2

    def test_jet_space_smooth_skeleton(self):
        an = skeleton_analysis(builtin_model("jet_space"), 6, 50_000, rng_seed=0)
        assert abs(an.estimate - 2.0) < 0.2


def _cat_map():
    cert = certify_matrix(IntMatrix.from_rows([[2, 1], [1, 1]]))
    return anosov_model(cert.matrix, cert)


def _polyfit_rank(scales):
    """The rank np.polyfit finds for a line through log(1/scale), scales
    from coarsest to finest: its column-scaled Vandermonde system solved by
    lstsq with rcond = len * eps."""
    xs = np.log(1.0 / np.asarray(sorted(scales, reverse=True)))
    lhs = np.vander(xs, 2)
    lhs /= np.sqrt((lhs * lhs).sum(axis=0))
    return np.linalg.lstsq(lhs, xs, rcond=len(xs) * np.finfo(float).eps)[2]


def _reference_counts(model, depth, scales):
    """Box counts of the depth-d image of an affine model read straight off
    its closed form, in Fractions with |rate|**depth taken whole: the open
    interval (-h, h) meets ceil((end + h)/s) - floor((end - h)/s) cells of
    the grid from -end, a circle of period P ceil(P/s)."""
    chart, counts = model.chart, []
    for s in map(Fraction, scales):
        c = math.prod(math.ceil(Fraction(chart.coords[i].period) / s) for i in chart.periodic_idx)
        for i, r in zip(chart.interval_idx, model.affine.rates):
            end = Fraction(chart.coords[i].hi)
            h = end * Fraction(abs(r)) ** depth
            c *= math.ceil((end + h) / s) - math.floor((end - h) / s)
        counts.append(c)
    return counts


class TestAffineCounts:
    def test_cat_map_counts_equal_the_sampled_ones(self):
        model = _cat_map()
        scales = torus_builder._DEFAULT_CLOUD_SCALES
        exact = skeleton_analysis(model, 4, 1, scales=scales)
        sampled = box_counting_dimension(iterate_attractor(model, 4, 200_000).points, scales,
                                         origin=model.chart.lows())
        assert exact.box.counts == sampled.counts == (32, 128, 512, 2048)
        assert exact.evidence == "exact"

    @pytest.mark.parametrize("make", [_cat_map, lambda: _anosov_n3()], ids=["n2", "n3"])
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_sampled_counts_never_exceed_the_closed_form(self, make, depth):
        model = make()
        scales = (0.5, 0.3, 0.25, 0.125, 0.1, 0.0625)
        exact = skeleton_analysis(model, depth, 1, scales=scales).box
        sampled = box_counting_dimension(iterate_attractor(model, depth, 20_000).points,
                                         scales, origin=model.chart.lows())
        assert exact.counts == tuple(_reference_counts(model, depth, exact.scales))
        assert all(s <= e for s, e in zip(sampled.counts, exact.counts))

    def test_a_thin_image_on_a_grid_line_meets_two_cells(self):
        # At depth 12 the half-width 0.146**12 = 9e-11 is below 1e-9 of each
        # scale, and the image's centre 0 lies on a grid line from -1.
        model = _cat_map()
        for depth in (12, 10**9):
            assert skeleton_analysis(model, depth, 1, scales=(0.5, 0.25)).box.counts == (8, 32)

    @given(rate=st.floats(1e-3, 1.0), depth=st.integers(0, 60),
           scales=st.lists(st.floats(1e-12, 2.0), min_size=2, max_size=4, unique=True),
           bits=st.sampled_from((2, 64)))
    @example(rate=0.5, depth=3, scales=[1.0000000000000002e-12, 1e-12], bits=64)
    @settings(max_examples=80, deadline=None)
    def test_counts_match_the_whole_power(self, rate, depth, scales, bits):
        # Bounds of 2 bits are too loose to settle most counts: each then
        # comes from the tightened bounds.
        cat = _cat_map()
        model = replace(cat, affine=cat.affine._replace(rates=(rate,)))
        if _polyfit_rank(scales) < 2:
            # Scales such as 1e-12 and the next float up leave the fit's
            # line undetermined: refused, not counted.
            with pytest.raises(ValueError, match="too close together"):
                skeleton_analysis(model, depth, 1, scales=scales)
            return
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(torus_builder, "_BOUND_BITS", bits)
            got = skeleton_analysis(model, depth, 1, scales=scales).box
        assert list(got.counts) == _reference_counts(model, depth, got.scales)

    @pytest.mark.parametrize("x, d", [(Fraction(0.381966), 7), (Fraction(3, 4), 41),
                                      (Fraction(1, 2), 100), (Fraction(1), 5)])
    def test_power_bounds(self, x, d):
        exact = x**d
        for bits in (8, 64):
            lo, hi = torus_builder._power_bounds(x, d, bits)
            assert lo <= exact <= hi
        whole = x.numerator.bit_length() * d + 1
        assert torus_builder._power_bounds(x, d, whole) == (exact, exact)

    def test_default_scales_stop_at_the_half_width(self):
        # The benchmark's n = 3 input: its largest rate is 0.382.
        cert = find_matrix(SpectrumRequest(n=3, mu=(1.0,), eps=0.4))
        model = anosov_model(cert.matrix, cert)
        got = skeleton_analysis(model, 3, 1)
        half = max(abs(r) for r in model.affine.rates) ** 3
        assert got.box.scales == tuple(2.0**-j for j in range(1, len(got.box.scales) + 1))
        assert got.box.scales[-1] >= half > got.box.scales[-1] / 2
        assert got.resolved_scales == len(got.box.scales) and got.note is None
        assert abs(got.estimate - 4.0) < 1e-9
        # At depth 1 only 1/2 is above the half-width 0.38: the floor keeps 1/4.
        shallow = skeleton_analysis(model, 1, 1)
        assert shallow.box.scales == (0.5, 0.25)
        assert shallow.resolved_scales == 1 and "1 of 2 scales" in shallow.note
        assert "note" not in skeleton_analysis(builtin_model("solenoid"), 2, 1000).to_dict()

    def test_n9_scale_past_int64_exits_2(self, tmp_path):
        mu = [f"{v:.3f}" for v in np.linspace(0.6, 1.8, 7)]
        argv = ["skeleton", "--model", "anosov", "--n", "9", "--mu", *mu, "--eps", "0.5",
                "--depth", "2", "--out", str(tmp_path / "r.json"), "--scales", "0.5"]
        assert main(argv + [repr(2.0**-61)]) == 0
        assert main(argv + [repr(2.0**-62)]) == 2

    @pytest.mark.parametrize("rates, chart", [
        ((1.5,), None),
        ((0.0,), None),
        ((0.5,), Chart((Coord.interval("y1", -1.0, 2.0), Coord.circle("x1"), Coord.circle("x2")))),
    ], ids=["rate-above-1", "rate-0", "off-centre-chart"])
    def test_affine_record_checked(self, rates, chart):
        cat = _cat_map()
        model = replace(cat, affine=cat.affine._replace(rates=rates), chart=chart or cat.chart)
        with pytest.raises(ModelError):
            skeleton_analysis(model, 2, 1)


def _mod_reduce(chart, pts):
    """Chart.reduce's result written with np.mod: the period folds to 0.0."""
    out = pts.copy()
    for i in chart.periodic_idx:
        period = chart.coords[i].period
        col = np.mod(out[:, i], period)
        col[col == period] = 0.0
        out[:, i] = col
    return out


def _stepwise(model, pts, depth):
    """Reference for the block iteration: the whole array, one step at a
    time, wrapped by np.mod rather than by the Chart.reduce under test."""
    for _ in range(depth):
        pts = _mod_reduce(model.chart, model.phi(pts))
    return pts


@pytest.mark.parametrize(
    "make, cloud",
    [
        # 25 600 seeds, as many as 256 branches of 100: three full blocks
        # and a partial one.
        (lambda: builtin_model("solenoid"),
         lambda m: iterate_attractor(m, 8, 25_600, rng_seed=3)),
        (lambda: builtin_model("jet_space"),
         lambda m: iterate_attractor(m, 6, 20_000, rng_seed=3)),
        (_cat_map, lambda m: iterate_attractor(m, 3, 20_000, rng_seed=3)),
        (lambda: builtin_model("solenoid"),
         lambda m: iterate_attractor(m, 4, 1000, rng_seed=3)),
    ],
    ids=["solenoid-cloud-depth8", "jet-space-cloud", "cat-map-cloud",
         "smaller-than-a-block"],
)
def test_block_iteration_matches_whole_array_steps(make, cloud, monkeypatch):
    model = make()
    got = cloud(model).points
    monkeypatch.setattr(torus_builder, "_iterate", _stepwise)
    want = cloud(model).points
    assert np.array_equal(got, want)


def _solenoid_columns(p):
    """The solenoid map as a column formula, with cos and sin of every row."""
    th = p[:, 0]
    return np.column_stack(
        [2.0 * th, p[:, 1] / 10.0 + np.cos(th) / 2.0, p[:, 2] / 20.0 + np.sin(th) / 4.0]
    )


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def _depth8_section_steps(solenoid):
    """The arrays the map sees when 100 seeds per branch of the depth-8
    section are iterated, one per step: 256 runs of 100 equal angles."""
    chart = solenoid.chart
    lo, hi = chart.lows()[[1, 2]], chart.highs()[[1, 2]]
    seeds = np.empty((100, 3))
    seeds[:, 1:] = lo + contact_kernel.halton(100, 2, 3) * (hi - lo)
    steps = [np.tile(seeds, (256, 1))]
    steps[0][:, 0] = np.repeat(chart.coords[0].period * np.arange(256) / 256, 100)
    for _ in range(7):
        steps.append(solenoid.chart.reduce(_solenoid_columns(steps[-1])))
    return steps


def _signed_zeros_and_non_finite():
    # Runs split at -0.0 / +0.0 (sin keeps the sign, and so does y/20 + sin/4
    # at y = -0.0) and at every NaN; inf repeats, as a run would.
    th = [0.0, -0.0, -0.0, 0.0, 0.0, np.nan, np.nan, -np.nan, np.inf, np.inf, -np.inf, 1.0, 1.0]
    return np.column_stack([th, np.full(len(th), 0.5), np.full(len(th), -0.0)])


class TestSolenoidRunsMatchColumnFormula:
    def test_depth8_section_steps(self, solenoid):
        for pts in _depth8_section_steps(solenoid):
            assert np.count_nonzero(np.diff(pts[:, 0])) < len(pts) // 50  # runs
            assert np.array_equal(_bits(solenoid.phi(pts)), _bits(_solenoid_columns(pts)))

    def test_chart_samples_with_distinct_angles(self, solenoid):
        pts = solenoid.chart.sample(20_000, 5)
        assert len(np.unique(pts[:, 0])) == len(pts)
        assert np.array_equal(_bits(solenoid.phi(pts)), _bits(_solenoid_columns(pts)))

    def test_signed_zeros_nan_and_inf(self, solenoid):
        pts = _signed_zeros_and_non_finite()
        with np.errstate(invalid="ignore"):
            got, want = solenoid.phi(pts), _solenoid_columns(pts)
        assert np.array_equal(_bits(got), _bits(want))
        assert np.array_equal(np.signbit(got[:5, 2]), np.signbit(pts[:5, 0]))

    @pytest.mark.parametrize("layout", ["fortran", "row-strided", "column-strided"])
    def test_memory_layouts(self, solenoid, layout):
        pts = _depth8_section_steps(solenoid)[3]
        if layout == "fortran":
            view = np.asfortranarray(pts)
        elif layout == "row-strided":
            view = pts[::3]
        else:
            wide = np.zeros((len(pts), 6))
            wide[:, ::2] = pts
            view = wide[:, ::2]
        assert np.array_equal(_bits(solenoid.phi(view)), _bits(_solenoid_columns(view)))

    @pytest.mark.parametrize("rows", [0, 1])
    def test_zero_and_one_rows(self, solenoid, rows):
        pts = np.full((rows, 3), 0.25)
        got = solenoid.phi(pts)
        assert got.shape == (rows, 3)
        assert np.array_equal(_bits(got), _bits(_solenoid_columns(pts)))

    def test_skeleton_analysis(self, solenoid):
        oracle = replace(solenoid, phi=replace(solenoid.phi, forward=_solenoid_columns))
        got = skeleton_analysis(solenoid, 8, 256 * 100)
        want = skeleton_analysis(oracle, 8, 256 * 100)
        assert got.to_dict() == want.to_dict()
        got, want = section_cloud(solenoid, 8, 100), section_cloud(oracle, 8, 100)
        assert np.array_equal(_bits(got.points), _bits(want.points))


def test_cloud_keeps_one_image_row_per_seed():
    # Angle doubling sends base-2 Halton seeds onto shared images at depth
    # 20; the cloud keeps every copy, in seed order.
    model = builtin_model("solenoid")
    got = iterate_attractor(model, 20, 200_000, rng_seed=0).points
    want = _stepwise(model, model.chart.sample(200_000, 0), 20)
    assert np.array_equal(got, want)


def test_section_angle_on_cloud_route_refused_before_iterating(monkeypatch):
    def no_iteration(*args):
        raise AssertionError("the cloud was iterated")

    monkeypatch.setattr(torus_builder, "_iterate", no_iteration)
    with pytest.raises(ModelError):
        skeleton_analysis(_cat_map(), 2, 1000, theta0=0.0)


def test_scales_refused_before_iterating(monkeypatch):
    def no_iteration(*args):
        raise AssertionError("the cloud was iterated")

    monkeypatch.setattr(torus_builder, "_iterate", no_iteration)
    with pytest.raises(ValueError, match="distinct"):
        skeleton_analysis(builtin_model("solenoid"), 3, 4000, scales=(0.1, 0.1))


def test_model_without_section_takes_cloud_route(solenoid):
    cloud_model = replace(solenoid, section=None)
    with pytest.raises(ModelError):
        skeleton_analysis(cloud_model, 2, 1000, theta0=0.0)
    analysis = skeleton_analysis(cloud_model, 2, 1000)
    assert analysis.route == "cloud"
    assert analysis.section_clusters is None


@pytest.mark.parametrize("section", [
    Section(2, (0.1,)),
    Section(2, (0.1, 0.05, 0.05)),
    Section(0, (0.1, 0.05)),
    Section(2.0, (0.1, 0.05)),
], ids=["too-few-rates", "too-many-rates", "multiplier-0", "multiplier-float"])
def test_section_record_checked(solenoid, section):
    with pytest.raises(ModelError):
        section_cloud(replace(solenoid, section=section), 2, 100)
    with pytest.raises(ModelError):
        skeleton_analysis(replace(solenoid, section=section), 2, 1000)


def test_section_clusters_counted_only_above_multiplier_1(solenoid):
    assert skeleton_analysis(solenoid, 3, 20000).section_clusters == 8
    jet = builtin_model("jet_space")
    assert skeleton_analysis(jet, 3, 20000).section_clusters is None


@pytest.mark.parametrize("theta0", [1e10, -1e10, 1e15])
def test_section_cloud_lies_on_the_fiber_at_any_angle(solenoid, theta0):
    period = solenoid.chart.coords[0].period
    sample = section_cloud(solenoid, 3, 500, theta0=theta0)
    ang = np.mod(sample.points[:, 0] - theta0 % period, period)
    assert np.minimum(ang, period - ang).max() < 1e-12


def _anosov_n3():
    cert = find_matrix(SpectrumRequest(n=3, mu=(2.0,), eps=0.5, seed=7))
    return anosov_model(cert.matrix, cert)


@pytest.mark.parametrize(
    "make, periodic, interval",
    [
        (lambda: builtin_model("solenoid"), (0,), (1, 2)),
        (lambda: builtin_model("jet_space"), (1,), (0, 2)),
        (_anosov_n3, (2, 3, 4), (0, 1)),
    ],
    ids=["solenoid", "jet_space", "anosov_n3"],
)
def test_chart_layout(make, periodic, interval):
    model = make()
    assert model.chart.periodic_idx == periodic
    assert model.chart.interval_idx == interval
    if model.section is None:
        sample = iterate_attractor(model, 1, 2000, rng_seed=0)
    else:
        sample = section_cloud(model, 1, 2000, rng_seed=0)
    assert sample.chart is model.chart


class TestCsvExport:
    def test_roundtrip(self, solenoid, tmp_path):
        sample = iterate_attractor(solenoid, 1, 1000, rng_seed=0)
        path = tmp_path / "cloud.csv"
        rows = export_cloud_csv(sample.points, solenoid.chart.names, str(path))
        text = path.read_text().splitlines()
        assert text[0] == "theta,x,y"
        assert rows == len(sample.points) == len(text) - 1
        back = np.loadtxt(str(path), delimiter=",", skiprows=1)
        assert np.allclose(back, sample.points)

    def test_row_cap(self, tmp_path, monkeypatch):
        monkeypatch.setattr(torus_builder, "_CSV_MAX_ROWS", 100)
        pts = np.random.default_rng(0).random((1000, 2))
        path = tmp_path / "cap.csv"
        rows = export_cloud_csv(pts, ["a", "b"], str(path))
        assert rows <= 100

    @pytest.mark.parametrize("cap", [10_000_000, 3000])
    def test_bytes_match_savetxt(self, tmp_path, monkeypatch, cap):
        # Edge values, integer-valued floats, and a row count that is not a
        # multiple of the write chunk; a cap of 3000 rows takes the stride path.
        monkeypatch.setattr(torus_builder, "_CSV_MAX_ROWS", cap)
        rng = np.random.default_rng(0)
        n = 2 * torus_builder._CSV_ROWS + 123
        pts = rng.standard_normal((n, 3)) * 10.0 ** rng.integers(-300, 300, (n, 3))
        special = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, np.nan, 1.0, -2.0, 1e16,
                   123456789.0, np.inf, -np.inf, 0.1, 1 / 3]
        pts.flat[: len(special)] = special
        pts[-7:] = np.arange(-10.0, 11.0).reshape(7, 3)
        path = tmp_path / "cloud.csv"
        rows = export_cloud_csv(pts, ["a", "b", "c"], str(path))
        kept = pts[:: math.ceil(n / cap)]
        ref = tmp_path / "ref.csv"
        np.savetxt(str(ref), kept, delimiter=",", header="a,b,c", comments="", fmt="%.17g")
        assert rows == len(kept)
        assert path.read_bytes() == ref.read_bytes()


def _nudged(x, ulps):
    """x moved by ``ulps`` units in the last place, for finite x > 0."""
    return float((np.float64(x).view(np.int64) + ulps).view(np.float64))


def _ties(k):
    """The odd j with 10^17 <= j·5^(17-k) < 10^18: the exact decimal expansion
    of j·2^(k-17) has 18 significant digits and ends in 5, a tie at 17 digits."""
    return range(-(-(10**17) // 5 ** (17 - k)) | 1, 10**18 // 5 ** (17 - k), 2)


_POWER_OF_TEN_NEIGHBOURS = st.builds(
    lambda j, ulps: _nudged(float(f"1e{j}"), ulps), st.integers(-18, 1), st.integers(-40, 40))
_TIES = st.builds(lambda k, i: math.ldexp(_ties(k)[i % len(_ties(k))], k - 17),
                  st.integers(-8, 0), st.integers(0, 2**20))
_CSV_VALUES = st.one_of(
    st.floats(),
    st.builds(lambda x, sign: sign * x, _POWER_OF_TEN_NEIGHBOURS | _TIES, st.sampled_from((-1, 1))))


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("csv") / "cloud.csv"


@given(rows=st.integers(1, 4).flatmap(
    lambda d: st.lists(st.lists(_CSV_VALUES, min_size=d, max_size=d), min_size=1, max_size=20)))
@settings(max_examples=200, derandomize=True, deadline=None)
def test_csv_bytes_match_savetxt_on_any_floats(csv_path, rows):
    pts = np.array(rows, float)
    names = [f"c{i}" for i in range(pts.shape[1])]
    export_cloud_csv(pts, names, str(csv_path))
    ref = io.BytesIO()
    np.savetxt(ref, pts, delimiter=",", header=",".join(names), comments="", fmt="%.17g")
    assert csv_path.read_bytes() == ref.getvalue()


def test_csv_bytes_near_every_power_of_ten_and_on_ties(tmp_path):
    # Every double within 40 ulps of 10^-18 ... 10^1 and a spread of exact
    # ties at 17 digits.  1e-14 lies 0.12 units of its 17th digit below
    # 10^-14, so its digits round up to 10^17 and it is written "1e-14".
    near = [_nudged(float(f"1e{j}"), u) for j in range(-18, 2) for u in range(-40, 41)]
    ties = [math.ldexp(j, k - 17) for k in range(-8, 1) for j in _ties(k)[::97]]
    values = np.array(near + ties)
    pts = np.concatenate([values, -values])[:, None]
    path = tmp_path / "cloud.csv"
    export_cloud_csv(pts, ["v"], str(path))
    lines = path.read_bytes().split(b"\n")
    assert lines[1 + near.index(1e-14)] == b"1e-14"
    assert lines[1:-1] == [b"%.17g" % v for v in pts[:, 0].tolist()]


def test_digit_step_on_every_4_digit_lane_value():
    lane = np.arange(10**4, dtype=np.uint64)
    n = np.concatenate([lane * 10**4 + lane[::-1], lane[::-1] * 10**4 + lane])
    ascii_digits = torus_builder._digit_bytes(n) + 0x3030303030303030
    assert ascii_digits.astype("<u8").tobytes() == b"".join(b"%08d" % v for v in n.tolist())


def _oracle_counts(points, scales):
    """Occupied boxes per scale (coarsest first) by distinct rows."""
    return tuple(
        len(np.unique(np.floor(points / s).astype(np.int64), axis=0))
        for s in sorted(scales, reverse=True)
    )


@st.composite
def _integer_clouds(draw):
    """Integer-valued clouds (on grid lines for the scales below), with
    exact duplicates and negative coordinates; the wide range overflows the
    packed key in several dimensions."""
    d = draw(st.sampled_from((1, 2, 3, 5)))
    bound = draw(st.sampled_from((40, 2**40)))
    coord = st.integers(-bound, bound)
    rows = draw(st.lists(st.lists(coord, min_size=d, max_size=d), min_size=1, max_size=40))
    dups = draw(st.lists(st.integers(0, len(rows) - 1), max_size=10))
    pts = np.array(rows + [rows[i] for i in dups], float)
    assume(len(pts) == 1 or np.ptp(pts, axis=0).max() > 0)
    return pts


class TestPackedKeys:
    @given(
        _integer_clouds(),
        st.lists(st.sampled_from((0.25, 0.5, 1.0, 2.0, 3.0, 7.0)),
                 min_size=2, max_size=4, unique=True),
    )
    @settings(max_examples=200, deadline=None)
    def test_counts_match_distinct_rows(self, pts, scales):
        assert box_counting_dimension(pts, scales).counts == _oracle_counts(pts, scales)

    def test_wide_cells_use_row_view(self):
        rng = np.random.default_rng(0)
        cells = rng.integers(-(2**22), 2**22, size=(2000, 3))
        pts = np.vstack([cells, cells[::5]]).astype(float)
        assert _row_keys(pts.astype(np.int64)).dtype.kind == "V"
        scales = (1.0, 4.0)
        assert box_counting_dimension(pts, scales).counts == _oracle_counts(pts, scales)

    @pytest.mark.parametrize("spans, row_view", [
        ((454_279, 20_303_320_287_433), False),  # 7^2 73 127 * 337 92737 649657 = 2^63 - 1
        ((2**31, 2**32), True),
    ])
    def test_span_product_at_the_int64_edge(self, spans, row_view, monkeypatch):
        # Spans whose product is 2^63 - 1 pack into int64 keys up to 2^63 - 2;
        # a product of 2^63 takes the row view at the finer scale only.
        assert math.prod(spans) == 2**63 - (not row_view)
        inner = np.random.default_rng(3).integers(0, spans, size=(500, 2))
        cells = np.vstack([[0, 0], np.subtract(spans, 1), inner, inner[::7]])
        pts = (cells - np.array(spans) // 2).astype(float)
        calls = []
        monkeypatch.setattr(torus_builder, "_row_keys", lambda c: calls.append(1) or _row_keys(c))
        scales = (1.0, 2.0)
        assert box_counting_dimension(pts, scales).counts == _oracle_counts(pts, scales)
        assert len(calls) == row_view


class TestSectionClusters:
    @pytest.mark.parametrize("depth", [3, 40])
    def test_needs_a_seed_per_branch(self, solenoid, depth):
        with pytest.raises(ValueError):
            skeleton_analysis(solenoid, depth, 2**depth - 1)

    def test_one_seed_per_branch_suffices(self, solenoid):
        assert skeleton_analysis(solenoid, 3, 8).route == "section"
        assert section_cloud(solenoid, 3, 8).points.shape == (64, 3)

    def test_thin_branches_unclaimed(self, solenoid):
        # Boxes need no seed density: one seed per branch still links them.
        assert skeleton_analysis(solenoid, 8, 16_384).section_clusters == 256

    @pytest.mark.parametrize("per_branch", [64, 256])
    @pytest.mark.parametrize("depth", [0, 4, 8, 9])
    def test_count_is_right_or_unclaimed(self, solenoid, depth, per_branch):
        clusters = skeleton_analysis(solenoid, depth, per_branch * 2**depth).section_clusters
        assert clusters in (None, 2**depth)


def _sampled_reference(model, depth, seeds):
    """Box counts over the section cloud, the way the section route sampled
    them, and clusters of every eighth point of it."""
    per_branch = max(8, seeds // 2**depth)
    scales = torus_builder._default_section_scales(model.section.rates[0], depth)
    pts = section_cloud(model, depth, per_branch).points[:, [1, 2]]
    box = box_counting_dimension(pts, scales, origin=model.chart.lows()[[1, 2]])
    return box.counts, count_clusters(pts[::8], suggested_section_gap(model, depth))


def _closed_box_count(centres, half, scale, org):
    """Cells met by the closed boxes, edges as float rounding puts them."""
    first = np.floor((centres - half - org) / scale).astype(int)
    last = np.floor((centres + half - org) / scale).astype(int)
    cells = set()
    for f, l in zip(first, last):
        cells.update(tuple(f + np.array(c)) for c in np.ndindex(*(l - f + 1)))
    return len(cells)


class TestSectionBoxes:
    @pytest.mark.parametrize("depth, seeds", [(2, 20_000), (4, 20_000), (6, 20_000),
                                              (8, 1_000_000)])
    def test_counts_and_clusters_match_the_sampled_section(self, solenoid, depth, seeds):
        analysis = skeleton_analysis(solenoid, depth, seeds)
        assert (analysis.box.counts, analysis.section_clusters) == _sampled_reference(
            solenoid, depth, seeds)
        assert analysis.section_clusters == 2**depth

    def test_open_boxes_at_depth_2(self, solenoid):
        centres, half = torus_builder._section_boxes(solenoid, 2, 0.0)
        org = solenoid.chart.lows()[[1, 2]]
        # Every box edge lies on a grid line of side 0.005, up to rounding.
        assert torus_builder._box_counts(centres, half, [0.005], org) == [24]
        assert _closed_box_count(centres, half, 0.005, org) == 40

    def test_edge_share_decides_a_cell(self):
        org, half = np.zeros(2), np.array([0.25, 0.25])
        for past, cells in [(0.5e-9, 1), (2e-9, 2), (-0.5e-9, 1)]:
            centres = np.array([[0.75 + past, 0.5]])  # upper x edge at 1 + past
            assert torus_builder._box_counts(centres, half, [1.0], org) == [cells]
        # A box narrower than the edge share still meets one cell.
        assert torus_builder._box_counts(np.array([[0.5, 0.5]]), np.array([1e-12, 1e-12]),
                                         [1.0, 0.5], org) == [1, 1]

    def test_jet_space_edge_on_a_grid_line(self):
        analysis = skeleton_analysis(builtin_model("jet_space"), 6, 1000)
        assert analysis.box.scales[-1] == 1 / 64  # the box edge 1/64 is a grid line
        assert set(analysis.box.counts) == {4}

    def test_interval_part_must_be_affine(self, solenoid):
        with pytest.raises(ModelError, match="diag"):
            skeleton_analysis(replace(solenoid, section=Section(2, (0.1, 0.06))), 2, 1000)

    def test_independent_of_the_rng_seed(self, solenoid):
        reports = {str(skeleton_analysis(solenoid, 6, 20_000, rng_seed=r).to_dict())
                   for r in range(4)}
        assert len(reports) == 1

    def test_no_cloud_iterated_and_no_point_clustered(self, solenoid, monkeypatch):
        def refuse(*args):
            raise AssertionError("the sampled path ran")

        monkeypatch.setattr(torus_builder, "_iterate", refuse)
        monkeypatch.setattr(torus_builder, "count_clusters", refuse)
        analysis = skeleton_analysis(solenoid, 8, 1_000_000)
        assert round(analysis.estimate, 4) == 2.2381
        assert analysis.section_clusters == 256

    def test_clusters_where_seeds_are_thin(self, solenoid):
        assert skeleton_analysis(solenoid, 10, 1_000_000).section_clusters == 1024

    @pytest.mark.parametrize("depth, clusters", [(11, 2048), (12, None), (16, None)])
    def test_clusters_unclaimed_below_the_rounding_bound(self, solenoid, depth, clusters):
        # From depth 12 the gap, 0.25 * 0.05**(depth - 1), is below the
        # centres' rounding bound; at depth 16 rounding alone merges boxes.
        assert skeleton_analysis(solenoid, depth, 2**depth).section_clusters == clusters

    def test_evidence(self, solenoid):
        assert skeleton_analysis(solenoid, 2, 1000).to_dict()["evidence"] == "exact"
        assert skeleton_analysis(_cat_map(), 2, 1000).to_dict()["evidence"] == "exact"
        cloud_model = replace(solenoid, section=None)
        assert skeleton_analysis(cloud_model, 2, 1000).to_dict()["evidence"] == "sampled"
        assert {"exact", "sampled"} <= set(EVIDENCE)

    def test_too_many_cells_refused(self, solenoid):
        with pytest.raises(ValueError, match="cells"):
            skeleton_analysis(solenoid, 2, 1000, scales=(1e-5, 1e-6))

    def test_zero_width_boxes_refused(self):
        with pytest.raises(DegenerateCloud):
            skeleton_analysis(builtin_model("jet_space"), 1100, 100)

    def test_zero_width_refused_before_the_depth_loop(self):
        # Only the affine probe check runs the map: the half-widths are
        # known from the depth, so no centre is pushed through 2000 steps.
        jet = builtin_model("jet_space")
        calls = []

        def forward(pts):
            calls.append(len(pts))
            return jet.phi.forward(pts)

        spied = replace(jet, phi=replace(jet.phi, forward=forward))
        torus_builder._section_boxes(spied, 0, 0.0)
        probe_calls, calls[:] = len(calls), []
        with pytest.raises(DegenerateCloud):
            skeleton_analysis(spied, 2000, 10)
        assert len(calls) <= probe_calls

    def test_deep_refusal_builds_no_power(self, solenoid):
        # 2**(10**9) took 6.9 s and 443 MiB to build; the bit length of the
        # seed count decides it.
        start = time.perf_counter()
        with pytest.raises(ValueError, match="multiplier"):
            skeleton_analysis(solenoid, 10**9, 10)
        assert time.perf_counter() - start < 1.0


def _negative_rate_solenoid(solenoid):
    """The solenoid with x -> -x/10 + cos(theta)/2: a section rate below 0."""
    def forward(p):
        th = p[:, 0]
        return np.column_stack(
            [2.0 * th, -p[:, 1] / 10.0 + np.cos(th) / 2.0, p[:, 2] / 20.0 + np.sin(th) / 4.0])

    return replace(solenoid, phi=replace(solenoid.phi, forward=forward),
                   section=Section(2, (-0.1, 0.05)))


class TestSectionCloud:
    def test_depth14_counts_equal_the_boxes(self, solenoid):
        # Float angle doubling of the seeds once read 1044 / 2064 / 4474
        # cells at the three finest scales, where the boxes meet 1045 / 2043 / 4126.
        scales = [0.5 * 10.0**-j for j in range(1, 12)]
        pts = section_cloud(solenoid, 14, 61).points[:, [1, 2]]
        sampled = box_counting_dimension(pts, scales, origin=solenoid.chart.lows()[[1, 2]])
        boxes = skeleton_analysis(solenoid, 14, 1_000_000, scales=scales)
        assert sampled.counts == boxes.box.counts

    def test_seeds_placed_in_their_boxes_without_iteration(self, solenoid, monkeypatch):
        def refuse(*args):
            raise AssertionError("the seeds were iterated")

        monkeypatch.setattr(torus_builder, "_iterate", refuse)
        pts = section_cloud(solenoid, 8, 100, theta0=7.0).points
        centres, half = torus_builder._section_boxes(solenoid, 8, 7.0)
        assert np.all(np.abs(pts[:, [1, 2]].reshape(256, 100, 2) - centres[:, None]) < half)
        assert np.all(pts[:, 0] == 7.0 % solenoid.chart.coords[0].period)

    @pytest.mark.parametrize("per_branch", [600, 2055])
    @pytest.mark.parametrize("theta0", [0.0, 0.25, 7.0])
    @pytest.mark.parametrize("depth", [0, 1, 3, 6])
    @pytest.mark.parametrize("name", ["solenoid", "jet_space"])
    def test_bits_match_the_one_shot_closed_form(self, name, depth, theta0, per_branch):
        # Placed in row blocks (three 600-seed branches a block, or a
        # 2055-seed branch in two), every value is still np.add(centre_k[col],
        # step_j[col]) on the operands of the one-shot placement below.
        model = builtin_model(name)
        chart = model.chart
        pi_idx = chart.periodic_idx[0]
        centres, _ = torus_builder._section_boxes(model, depth, theta0)
        u = contact_kernel.halton(per_branch, len(chart.interval_idx), 3)
        want = np.empty((len(centres), per_branch, chart.dim))
        want[:, :, pi_idx] = theta0 % chart.coords[pi_idx].period
        for col, (i, rate) in enumerate(zip(chart.interval_idx, model.section.rates)):
            c = chart.coords[i]
            step = (c.lo + u[:, col] * (c.hi - c.lo) - (c.lo + c.hi) / 2) * rate**depth
            np.add(centres[:, col, None], step, out=want[:, :, i])
        got = section_cloud(model, depth, per_branch, theta0, 3).points
        assert got.shape == (len(centres) * per_branch, chart.dim)
        assert got.tobytes() == want.reshape(-1, chart.dim).tobytes()

    @pytest.mark.parametrize("depth", [1, 4, 13])
    def test_negative_rate_matches_stepwise_iteration(self, solenoid, depth):
        model, per_branch, theta0 = _negative_rate_solenoid(solenoid), 4, 1.0
        period, branches = solenoid.chart.coords[0].period, 2**depth
        got = section_cloud(model, depth, per_branch, theta0=theta0).points
        pts = section_cloud(model, 0, per_branch).points
        pts = np.tile(pts, (branches, 1))
        index = np.repeat(np.arange(branches), per_branch)
        for j in range(depth):
            pts[:, 0] = (theta0 % period * 2**j + period * index) / branches
            pts = model.phi(pts)
            index = index * 2 % branches
        assert np.max(np.abs(got[:, 1:] - pts[:, 1:])) <= 1e-13
        assert np.all(got[:, 0] == theta0 % period)


def _reference_box_clusters(centres, half, gap):
    """Components of the graph linking the boxes within ``gap``, pair by pair."""
    sep = np.maximum(np.abs(centres[:, None] - centres[None]) - 2 * half, 0.0)
    adj = coo_matrix(np.sum(sep * sep, axis=2) <= gap * gap)
    return int(connected_components(adj, directed=False)[0])


@pytest.mark.parametrize("seed", range(5))
def test_box_components_match_pairwise_reference(seed):
    rng = np.random.default_rng(seed)
    centres = rng.uniform(-1.0, 1.0, size=(400, 2))
    half, gap = rng.uniform(0.0, 0.03, size=2), 0.02
    assert torus_builder._components(centres, half, gap) == _reference_box_clusters(
        centres, half, gap)


def _reference_clusters(points, gap):
    """Components of the graph linking the pairs within ``gap``, by scipy."""
    n = len(points)
    pairs = cKDTree(points).query_pairs(r=gap, output_type="ndarray")
    adj = coo_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(n, n))
    return int(connected_components(adj, directed=False)[0])


@st.composite
def _cluster_clouds(draw):
    """A cloud and a gap: either quarter-gap grid points, many of them
    exactly ``gap`` apart, over a narrow range or one wide enough that the
    packed cell keys pass int64 in two and three dimensions; or floats.
    Both have exact duplicates and negative coordinates."""
    d = draw(st.sampled_from((1, 2, 3)))
    gap = draw(st.sampled_from((0.25, 0.5, 1.0, 2.0)))
    if draw(st.booleans()):
        bound = draw(st.sampled_from((12, 2**40)))
        coord = st.integers(-bound, bound).map(lambda k: k * gap / 4)
    else:
        coord = st.floats(-3.0, 3.0)
    rows = draw(st.lists(st.lists(coord, min_size=d, max_size=d), min_size=1, max_size=60))
    dups = draw(st.lists(st.integers(0, len(rows) - 1), max_size=10))
    return np.array(rows + [rows[i] for i in dups], float), gap


class TestCountClusters:
    @given(_cluster_clouds())
    @settings(max_examples=300, deadline=None)
    def test_matches_scipy_reference(self, cloud_and_gap):
        pts, gap = cloud_and_gap
        assert count_clusters(pts, gap) == _reference_clusters(pts, gap)

    def test_one_point(self):
        assert count_clusters(np.array([[-0.5, 2.0, 7.0]]), 0.1) == 1

    def test_more_rows_than_a_block(self):
        # About the percolation density, so components of every size span
        # blocks of _BLOCK_ROWS rows.
        pts = np.random.default_rng(1).random((3 * _BLOCK_ROWS + 5, 2))
        gap = 0.006
        assert count_clusters(pts, gap) == _reference_clusters(pts, gap)

    def test_key_span_past_int64(self):
        # Clumps spread over 2**42 cells per axis: the packed keys wrap mod
        # 2**64, and the exact test still drops every false candidate.
        rng = np.random.default_rng(2)
        centres = rng.integers(-(2**41), 2**41, size=(300, 3)).astype(float)
        pts = np.repeat(centres, 6, axis=0) + rng.uniform(-1.0, 1.0, size=(1800, 3))
        gap = 1.0
        assert np.prod(np.ptp(pts, axis=0) / gap) > 2.0**64
        assert count_clusters(pts, gap) == _reference_clusters(pts, gap)

    @pytest.mark.parametrize("gap", [0.0, -1.0, math.nan, math.inf])
    def test_gap_not_finite_and_positive_refused(self, gap):
        with pytest.raises(ValueError, match="gap"):
            count_clusters(np.random.default_rng(0).random((10, 2)), gap)

    def test_cell_index_past_int64_refused(self):
        with pytest.raises(ValueError, match="int64"):
            count_clusters(np.random.default_rng(0).random((100, 2)), 1e-300)
