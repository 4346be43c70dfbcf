import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree
from scipy.stats import qmc

from liouville_forge.contact_kernel import (
    Chart,
    ContactModel,
    Coord,
    OneForm,
    SmoothMap,
    anosov_model,
    builtin_model,
)
from liouville_forge.exactlin import IntMatrix
from liouville_forge.spectrum_search import SpectrumRequest, certify_matrix, find_matrix
from liouville_forge.torus_builder import (
    DegenerateCloud,
    DescentViolation,
    EmptySection,
    GExtension,
    MappingTorusModel,
    _dedup,
    _row_keys,
    boundary_transversality_check,
    box_counting_dimension,
    build_mapping_torus,
    count_clusters,
    cross_section,
    descent_check,
    export_cloud_csv,
    extend_G,
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
        arr = np.atleast_2d(pts)
        out = np.zeros_like(arr)
        out[:, 0] = 1.0
        out[:, 1] = -arr[:, 2]
        return out if np.asarray(pts).ndim > 1 else out[0]

    def forward(pts):
        arr = np.atleast_2d(np.asarray(pts, float))
        out = np.column_stack([h(arr[:, 0]), arr[:, 1], hp(arr[:, 0]) * arr[:, 2]])
        return out if np.asarray(pts).ndim > 1 else out[0]

    def jacobian(pts):
        arr = np.atleast_2d(pts)
        n = arr.shape[0]
        out = np.zeros((n, 3, 3))
        out[:, 0, 0] = hp(arr[:, 0])
        out[:, 1, 1] = 1.0
        out[:, 2, 0] = hpp(arr[:, 0]) * arr[:, 2]
        out[:, 2, 2] = hp(arr[:, 0])
        return out if np.asarray(pts).ndim > 1 else out[0]

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

    def test_blend_mode_extends_over_image(self):
        model = variable_rate_model()
        g_ext = extend_G(model, samples=4096, rng_seed=0)
        assert g_ext.mode == "blend"
        # held-out extension property G(phi(p)) = g(p)
        assert g_ext.meta["extension_residual"] < 1e-3
        # positive everywhere, including far from the image
        far = model.chart.sample(500, rng_seed=3)
        assert np.all(g_ext(far) > 0.0)

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
            GExtension(lambda p: np.full(np.atleast_2d(p).shape[0], g9), "forced", g9),
        )
        with pytest.raises(DescentViolation) as err:
            descent_check(bad, samples=300)
        # scale |1 - 10/9| times the form magnitude
        assert err.value.residual > 1e-2

    def test_blend_mode_descends(self):
        # Seeds decorrelated so the check does not revisit the RBF nodes.
        model = variable_rate_model()
        torus = build_mapping_torus(model, samples=4096, rng_seed=0)
        assert torus.G.mode == "blend"
        assert descent_check(torus, samples=400, tol=5e-3, rng_seed=11) < 5e-3

    def test_transverse_knot_descends(self):
        torus = build_mapping_torus(builtin_model("transverse_knot"))
        assert descent_check(torus, samples=500) < 1e-9

    def test_check_evaluates_the_map_once(self):
        # The non-constant roof needs G(phi(x)) for the mean roof height; the
        # residuals reuse that image and its one Jacobian instead of mapping
        # or differentiating the points again.
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


class TestTransversality:
    def test_constant_margin(self, solenoid_torus):
        m = boundary_transversality_check(solenoid_torus, samples=128)
        assert m == pytest.approx(solenoid_torus.tilt_eps / LN10, abs=1e-12)

    def test_untilted_fails(self, solenoid):
        flat = MappingTorusModel(
            solenoid,
            GExtension(lambda p: np.full(np.atleast_2d(p).shape[0], LN10), "constant", LN10),
            tilt_eps=0.0,
        )
        assert boundary_transversality_check(flat) == 0.0


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
        img = solenoid.chart.reduce(np.atleast_2d(solenoid.phi(grid)))
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

    def test_dedup_collapses_tiny_spread(self, solenoid):
        pts = np.array([[0.5, 0.1, 0.1], [0.5, 0.1, 0.1 + 1e-12]])
        from liouville_forge.torus_builder import _dedup

        assert len(_dedup(pts, 1e-9)) == 1


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


@pytest.mark.parametrize(
    "make, depth, seeds",
    [(lambda: builtin_model("solenoid"), 4, 200_000), (_cat_map, 3, 100_000)],
    ids=["solenoid-section", "cat-map-cloud"],
)
def test_skeleton_analysis_independent_of_threads(make, depth, seeds):
    # Both clouds exceed the size at which the map is applied in pooled chunks.
    model = make()
    one = skeleton_analysis(model, depth, seeds, rng_seed=0, threads=1)
    two = skeleton_analysis(model, depth, seeds, rng_seed=0, threads=2)
    assert two.to_dict() == one.to_dict()
    assert np.array_equal(two.sample.points, one.sample.points)


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
    assert skeleton_analysis(model, 1, 2000, rng_seed=0).sample.chart is model.chart


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

    def test_row_cap(self, tmp_path):
        pts = np.random.default_rng(0).random((1000, 2))
        path = tmp_path / "cap.csv"
        rows = export_cloud_csv(pts, ["a", "b"], str(path), max_rows=100)
        assert rows <= 100


def _oracle_counts(points, scales):
    """Occupied boxes per scale (coarsest first) by distinct rows."""
    return tuple(
        len(np.unique(np.floor(points / s).astype(np.int64), axis=0))
        for s in sorted(scales, reverse=True)
    )


def _oracle_dedup(pts, threshold):
    keys = np.round(pts / threshold).astype(np.int64)
    _, idx = np.unique(keys, axis=0, return_index=True)
    return pts[np.sort(idx)]


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

    def test_dedup_row_view_on_anosov_n3(self):
        model = _anosov_n3()
        pts = model.chart.sample(20_000, 0)
        for _ in range(3):
            pts = model.chart.reduce(model.phi(pts))
        pts = np.vstack([pts, pts[::7]])
        assert _row_keys(np.round(pts / 1e-9).astype(np.int64)).dtype.kind == "V"
        out = _dedup(pts, 1e-9)
        assert len(out) < len(pts)
        assert np.array_equal(out, _oracle_dedup(pts, 1e-9))

    def test_dedup_packs_one_column(self):
        rng = np.random.default_rng(1)
        pts = rng.integers(-500, 500, size=(5000, 1)) * 1e-9
        assert _row_keys(np.round(pts / 1e-9).astype(np.int64)).dtype == np.int64
        out = _dedup(pts, 1e-9)
        assert len(out) < len(pts)
        assert np.array_equal(out, _oracle_dedup(pts, 1e-9))


class TestSectionClusters:
    @pytest.mark.parametrize("depth", [3, 40])
    def test_needs_a_seed_per_branch(self, solenoid, depth):
        with pytest.raises(ValueError):
            skeleton_analysis(solenoid, depth, 2**depth - 1)

    def test_one_seed_per_branch_suffices(self, solenoid):
        assert skeleton_analysis(solenoid, 3, 8).sample.points.shape == (64, 3)

    def test_thin_branches_unclaimed(self, solenoid):
        # 64 seeds per branch cannot link a depth-8 branch at the gap.
        assert skeleton_analysis(solenoid, 8, 16_384).section_clusters is None

    @pytest.mark.parametrize("per_branch", [64, 256])
    @pytest.mark.parametrize("depth", [0, 4, 8, 9])
    def test_count_is_right_or_unclaimed(self, solenoid, depth, per_branch):
        clusters = skeleton_analysis(solenoid, depth, per_branch * 2**depth).section_clusters
        assert clusters in (None, 2**depth)
