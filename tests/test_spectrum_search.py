import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from liouville_forge import spectrum_search
from liouville_forge.exactlin import IntMatrix, alternation_isolate, char_poly, determinant
from liouville_forge.spectrum_search import (
    _SCAN_CHUNK,
    REJECT_REASONS,
    ComplexTail,
    NotFound,
    SearchExhausted,
    SeedLambdas,
    SigmaVector,
    SingularJacobian,
    SpectrumRequest,
    certify_matrix,
    elementary_symmetric,
    ergodic_scan,
    find_matrix,
    newton_refine,
    residual_dynamics,
    seed_lambdas,
    solve_tail,
    x_vector,
)

GOLDEN_MINUS = (3 - math.sqrt(5)) / 2


class TestElementarySymmetric:
    def test_pair(self):
        assert elementary_symmetric((2.0, 3.0)).sigma == (5.0, 6.0)

    def test_empty(self):
        s = elementary_symmetric(())
        assert s.sigma == ()
        assert s.value(0) == 1.0
        assert s.last == 1.0

    def test_triple_against_expansion(self):
        # (x - 0.5)(x + 1.2)(x - 3) = x^3 - 2.3 x^2 - 2.7 x + 1.8,
        # so the symmetric values are (2.3, -2.7, -1.8).
        s = elementary_symmetric((0.5, -1.2, 3.0))
        assert s.sigma == pytest.approx((2.3, -2.7, -1.8), abs=1e-14)

    @given(st.lists(st.floats(-3, 3), min_size=1, max_size=5))
    @settings(max_examples=50, deadline=None)
    def test_matches_polynomial_coefficients(self, lams):
        # numpy.poly returns the monic coefficients, an independent oracle.
        coeffs = np.poly(np.asarray(lams))
        s = elementary_symmetric(lams)
        for j in range(1, len(lams) + 1):
            assert s.value(j) == pytest.approx(
                (-1) ** j * coeffs[j], abs=1e-9 * max(1, np.max(np.abs(coeffs)))
            )


class TestXVectorAndResiduals:
    def test_n3_value(self):
        s = SigmaVector((0.5,))
        assert x_vector(s) == pytest.approx((1.75,))

    def test_n2_empty(self):
        assert x_vector(SigmaVector(())) == ()

    def test_residual_example(self):
        s = SigmaVector((0.5,))
        assert residual_dynamics(s, 4, (4,)) == pytest.approx((-0.25,))

    def test_exact_solution_is_zero(self):
        # lambda solving lambda + 1/lambda = 3 gives k1=4, k2=4 exactly:
        # residual = 4*l - l^2 + 1/l - 4 = l - 3 + 1/l with l^2 = 3l - 1.
        s = elementary_symmetric((GOLDEN_MINUS,))
        assert residual_dynamics(s, 4, (4,)) == pytest.approx((0.0,), abs=1e-12)

    @given(
        st.lists(
            st.floats(min_value=0.2, max_value=2.5), min_size=1, max_size=4
        ),
        st.integers(min_value=1, max_value=50),
    )
    @settings(max_examples=50, deadline=None)
    def test_identity_with_x_vector(self, lams, k1):
        # residual(sigma, k1, k') == x(sigma) + k1*r - k' componentwise, to
        # 1e-14 relative to the intermediate magnitudes.
        s = elementary_symmetric(lams)
        kprime = tuple(range(1, len(lams) + 1))
        lhs = np.asarray(residual_dynamics(s, k1, kprime))
        rhs = np.asarray(x_vector(s)) + k1 * np.asarray(s.sigma) - np.asarray(kprime)
        scale = 1.0 + np.max(np.abs(np.asarray(x_vector(s)))) + k1 * (
            1.0 + np.max(np.abs(s.sigma))
        )
        assert np.max(np.abs(lhs - rhs)) < 1e-14 * scale


@st.composite
def _scan_inputs(draw):
    """(x, r, eps, k1_min, k1_max) with m = 0..9 and a range that spans up
    to two chunk boundaries."""
    m = draw(st.integers(0, 9))
    eps = draw(st.sampled_from([0.0375, 0.05, 0.3, 0.5]))
    k1_min = draw(st.integers(1, 5_000))
    chunks = draw(st.integers(0, 2))
    k1_max = k1_min + chunks * _SCAN_CHUNK + draw(st.integers(-2, 3_000))
    if draw(st.booleans()) and k1_max >= k1_min:
        # A near hit planted at the start of the last chunk, with slow rates,
        # keeps each coordinate within eps for a run of 150 to 17,000 values
        # of k, so the first hit often lies next to a chunk boundary, even at
        # m = 9 and eps = 0.0375.
        slow = st.integers(500, 4_000).map(lambda i: i * 2.0**-24)
        r = [draw(st.sampled_from([1, -1])) * draw(slow) for _ in range(m)]
        start = chunks * _SCAN_CHUNK + draw(st.integers(-2_000, 2_000))
        k_plant = k1_min + min(max(start, 0), k1_max - k1_min)
        x = [
            draw(st.integers(-3, 3)) + draw(st.floats(-eps, eps)) - k_plant * rj
            for rj in r
        ]
    else:
        # Halves and other dyadic values put orbit points exactly on
        # half-integers, eps = 0.5 away from the lattice.
        value = draw(
            st.sampled_from(
                [
                    st.floats(-3, 3),
                    st.integers(-6, 6).map(lambda i: i / 2),
                    st.integers(-64, 64).map(lambda i: i / 16),
                    st.integers(-4_000, 4_000).map(lambda i: i * 2.0**-20),
                ]
            )
        )
        r = draw(st.lists(value, min_size=m, max_size=m))
        x = draw(st.lists(value, min_size=m, max_size=m))
    return tuple(x), tuple(r), eps, k1_min, k1_max


def _full_orbit_scan(x, r, eps, k1_min, k1_max):
    """Reference: the whole (K, m) orbit at once, first k within eps of the
    lattice in max-norm with its nearest lattice point, or None."""
    xv = np.asarray(x, dtype=float)
    rv = np.asarray(r, dtype=float)
    ks = np.arange(k1_min, k1_max + 1, dtype=float)
    orbit = xv[None, :] + ks[:, None] * rv[None, :]
    nearest = np.rint(orbit)
    dist = np.max(np.abs(orbit - nearest), axis=1, initial=0.0)
    hits = np.flatnonzero(dist < eps)
    if not hits.size:
        return None
    i = int(hits[0])
    return k1_min + i, tuple(int(v) for v in nearest[i])


class TestErgodicScan:
    def test_integer_lattice_immediate(self):
        k1, kp = ergodic_scan((0.0, 0.0), (1.0, 2.0), 0.5, 7, 100)
        assert k1 == 7
        assert kp == (7, 14)

    def test_matches_bruteforce(self):
        r = (math.sqrt(2) - 1,)
        x = (0.3,)
        k1, kp = ergodic_scan(x, r, 0.05, 1, 100)
        # brute-force oracle
        best = None
        for k in range(1, 101):
            t = x[0] + k * r[0]
            d = abs(t - round(t))
            if d < 0.05:
                best = k
                break
        assert best is not None and k1 == best
        assert abs(x[0] + k1 * r[0] - kp[0]) < 0.05

    def test_not_found(self):
        with pytest.raises(NotFound):
            ergodic_scan((0.5,), (0.0,), 1e-3, 1, 50)

    def test_shrinking_eps_pushes_first_hit_out(self):
        rng = np.random.default_rng(0)
        firsts_wide, firsts_narrow = [], []
        for _ in range(40):
            r = (float(rng.uniform(0.3, 0.7)),)
            x = (float(rng.uniform(0, 1)),)
            k_wide, _ = ergodic_scan(x, r, 0.2, 1, 10_000)
            k_narrow, _ = ergodic_scan(x, r, 0.02, 1, 10_000)
            firsts_wide.append(k_wide)
            firsts_narrow.append(k_narrow)
        assert np.mean(firsts_narrow) > np.mean(firsts_wide)

    @given(_scan_inputs())
    @example(((0.5, 0.0), (1.0, 0.5), 0.5, 1, 5))  # every point exactly eps away
    @settings(max_examples=40, deadline=None)
    def test_matches_full_orbit_oracle(self, inputs):
        expected = _full_orbit_scan(*inputs)
        if expected is None:
            with pytest.raises(NotFound):
                ergodic_scan(*inputs)
        else:
            assert ergodic_scan(*inputs) == expected

    @pytest.mark.parametrize("k_hit", [_SCAN_CHUNK, _SCAN_CHUNK + 1])
    def test_hit_at_chunk_edges(self, k_hit):
        # Exact dyadic orbit: the distance to 1 is exactly eps = 0.25 at
        # k_hit - 1 (a miss) and 0.25 - 2**-20 at k_hit, the last index of
        # the first chunk or the first index of the second.
        x = (0.75 - (k_hit - 1) * 2.0**-20, 0.0)
        r = (2.0**-20, 1.0)
        got = ergodic_scan(x, r, 0.25, 1, 3 * _SCAN_CHUNK)
        assert got == (k_hit, (1, k_hit))
        assert got == _full_orbit_scan(x, r, 0.25, 1, 3 * _SCAN_CHUNK)

    @pytest.mark.parametrize(
        "k1_min, expected", [(1, (1, (2,))), (2, (2, (2,)))], ids=["1.5", "2.5"]
    )
    def test_half_rounds_to_even(self, k1_min, expected):
        # 1.5 and 2.5 both sit 0.5 < eps from the lattice and round to 2.
        assert ergodic_scan((0.5,), (1.0,), 0.6, k1_min, 10) == expected

    @pytest.mark.parametrize("x, r", [((), ()), ((0.0, 0.0), (1.0, 2.0))], ids=["m0", "m2"])
    def test_empty_range(self, x, r):
        with pytest.raises(NotFound):
            ergodic_scan(x, r, 0.5, 10, 9)

    @pytest.mark.parametrize(
        "x, r, eps",
        [
            ((0.0, 0.1), (0.3, 0.7), math.nan),
            ((0.0, 0.1), (0.3, 0.7), math.inf),
            ((0.0, math.nan), (0.3, 0.7), 0.05),
            ((0.0, 0.1), (-math.inf, 0.7), 0.05),
        ],
        ids=["eps-nan", "eps-inf", "x-nan", "r-inf"],
    )
    def test_rejects_non_finite_input(self, x, r, eps):
        with pytest.raises(ValueError, match="finite"):
            ergodic_scan(x, r, eps, 1, 10**6)


class TestNewtonRefine:
    def test_exact_seed_unchanged(self):
        seed = SeedLambdas((GOLDEN_MINUS,))
        out = newton_refine((4,), 4, seed, tol=1e-10)
        assert out == seed.lams

    def test_converges_from_perturbed_seed(self):
        seed = SeedLambdas((GOLDEN_MINUS + 1e-3,))
        out = newton_refine((4,), 4, seed, tol=1e-12, max_iter=10)
        s = elementary_symmetric(out)
        assert abs(residual_dynamics(s, 4, (4,))[0]) < 1e-12

    def test_collided_seed_raises(self):
        with pytest.raises(SingularJacobian):
            newton_refine((3, 5), 9, SeedLambdas((0.7, 0.7)), tol=1e-12)

    def test_no_convergence_with_zero_iterations(self):
        from liouville_forge.spectrum_search import NoConvergence

        with pytest.raises(NoConvergence):
            newton_refine((4,), 4, SeedLambdas((0.9,)), tol=1e-12, max_iter=0)

    def test_degenerate_sigma(self):
        from liouville_forge.spectrum_search import DegenerateSigma

        with pytest.raises(DegenerateSigma):
            x_vector(SigmaVector((0.0,)))
        with pytest.raises(DegenerateSigma):
            residual_dynamics(SigmaVector((0.0,)), 3, (1,))

    def test_analytic_jacobian_matches_finite_differences(self):
        from liouville_forge.spectrum_search import _dynamics_jacobian

        lam = np.array([0.6, -1.1, 1.7])
        k1 = 12
        sigma = elementary_symmetric(tuple(lam))
        jac = _dynamics_jacobian(lam, sigma, k1)
        h = 1e-7
        fd = np.zeros_like(jac)
        kprime = (0, 0, 0)
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            fp = np.asarray(
                residual_dynamics(elementary_symmetric(tuple(lam + e)), k1, kprime)
            )
            fm = np.asarray(
                residual_dynamics(elementary_symmetric(tuple(lam - e)), k1, kprime)
            )
            fd[:, i] = (fp - fm) / (2 * h)
        assert np.max(np.abs(jac - fd)) < 1e-5 * max(1.0, np.max(np.abs(jac)))


class TestSolveTail:
    def test_n2_convention(self):
        lam_big, lam_small = solve_tail(SigmaVector(()), 3)
        assert lam_big == pytest.approx((3 + math.sqrt(5)) / 2, abs=1e-10)
        assert lam_small == pytest.approx((3 - math.sqrt(5)) / 2, abs=1e-10)

    def test_factorable(self):
        # sum 5, product 4 -> roots (4, 1).
        out = solve_tail(SigmaVector((0.0, 0.25)), 5)
        assert out == pytest.approx((4.0, 1.0), abs=1e-12)

    def test_product_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            lams = tuple(rng.uniform(0.3, 2.0, size=3))
            s = elementary_symmetric(lams)
            k1 = int(rng.integers(10, 100))
            big, small = solve_tail(s, k1)
            assert big * small * s.last == pytest.approx(1.0, rel=1e-12)
            assert big + small == pytest.approx(k1 - s.value(1), rel=1e-12)

    def test_complex_tail(self):
        with pytest.raises(ComplexTail):
            solve_tail(SigmaVector((2.0,)), 2)  # sum 0, product 0.5


class TestSeedLambdas:
    def test_containment(self):
        out = seed_lambdas(SpectrumRequest(n=3, mu=(0.5,), eps=0.4, seed=1))
        assert 0.4 < out.lams[0] < 0.6

    def test_duplicates_become_distinct(self):
        out = seed_lambdas(SpectrumRequest(n=4, mu=(0.5, 0.5), eps=0.3, seed=2))
        assert abs(out.lams[0] - out.lams[1]) >= 1e-6

    def test_deterministic(self):
        req = SpectrumRequest(n=4, mu=(1.0, -1.0), eps=0.2, seed=9)
        assert seed_lambdas(req) == seed_lambdas(req)


def _assert_certificate_valid(cert, request):
    assert determinant(cert.matrix) == 1
    assert cert.passed
    n = request.n
    assert len(cert.roots) == n
    # middle eigenvalues near targets
    for lam, target in zip(cert.roots[: n - 2], request.mu):
        assert abs(lam - target) < request.eps
    lam_big, lam_small = cert.roots[n - 2], cert.roots[n - 1]
    assert abs(lam_big) > 1 / request.eps
    assert abs(lam_small) < request.eps
    # Vieta: symmetric functions of the refined roots give back k exactly.
    assert cert.residuals["vieta_max"] < 1e-6
    # characteristic polynomial reproduces k with alternating signs
    coeffs = char_poly(cert.matrix).coeffs
    for i in range(1, n):
        assert coeffs[n - i] == (-1) ** i * cert.k[i - 1]


def _assert_matches_certify_matrix(cert, request):
    # The external entry point reaches the same k and roots on the same matrix.
    again = certify_matrix(cert.matrix, request.mu, request.eps)
    assert again.k == cert.k
    assert again.roots == cert.roots


class TestFindMatrix:
    def test_n2_smallest_budget(self):
        req = SpectrumRequest(n=2, eps=0.4, seed=0)
        cert = find_matrix(req)
        assert cert.matrix.to_lists() == [[0, -1], [1, 3]]
        assert cert.k == (3,)
        _assert_certificate_valid(cert, req)

    def test_n2_huge_eps_advances_past_degenerate(self):
        # k1 = 1, 2 give complex or repeated roots; the pipeline must land
        # at k1 >= 3 with distinct real roots.
        cert = find_matrix(SpectrumRequest(n=2, eps=10.0, seed=0))
        assert cert.k[0] >= 3
        assert cert.roots[0] != cert.roots[1]

    def test_n3(self):
        req = SpectrumRequest(n=3, mu=(2.0,), eps=0.5, seed=7)
        cert = find_matrix(req)
        _assert_certificate_valid(cert, req)

    def test_n4(self):
        req = SpectrumRequest(n=4, mu=(1.5, -0.8), eps=0.25, seed=3)
        cert = find_matrix(req)
        _assert_certificate_valid(cert, req)

    def test_deterministic(self):
        req = SpectrumRequest(n=3, mu=(1.2,), eps=0.4, seed=5)
        a = find_matrix(req)
        b = find_matrix(req)
        assert a.matrix.to_lists() == b.matrix.to_lists()
        assert a.roots == b.roots

    def test_n6_newton_no_convergence_input(self):
        # Every lattice-scan hit of this input ended Newton's iteration in
        # NoConvergence while the exact layer accepted it; kept as an n = 6
        # input that must certify.
        req = SpectrumRequest(n=6, mu=(-1.9612, -1.1598, 1.48, 1.8913), eps=0.5, seed=628993)
        cert = find_matrix(req)
        _assert_certificate_valid(cert, req)
        _assert_matches_certify_matrix(cert, req)

    def test_n8(self):
        req = SpectrumRequest(
            n=8, mu=(1.3666, 0.7705, -0.1174, -0.4013, -1.5638, 0.4122), eps=0.5, seed=221086
        )
        cert = find_matrix(req)
        _assert_certificate_valid(cert, req)
        _assert_matches_certify_matrix(cert, req)

    @pytest.mark.parametrize(
        "req, matrix_last_column, k",
        [
            (SpectrumRequest(n=3, mu=(1.0,)), (1, -4, 4), (4, 4)),
            (SpectrumRequest(n=3, mu=(2.0,), eps=0.5, seed=7), (1, -17, 10), (10, 17)),
            (
                SpectrumRequest(n=4, mu=(1.5, -0.8), eps=0.25, seed=3),
                (-1, -6, -1, 5),
                (5, 1, -6),
            ),
            (
                SpectrumRequest(n=6, mu=(-1.9612, -1.1598, 1.48, 1.8913), eps=0.5, seed=628993),
                (-1, 41, -1, -35, 5, 6),
                (6, -5, -35, 1, 41),
            ),
            (
                SpectrumRequest(
                    n=8,
                    mu=(1.3666, 0.7705, -0.1174, -0.4013, -1.5638, 0.4122),
                    eps=0.5,
                    seed=221086,
                ),
                (-1, -6, 4, 44, -2, -89, 4, 34),
                (34, -4, -89, 2, 44, -4, -6),
            ),
        ],
        ids=["cli-n3", "n3", "n4", "n6", "n8"],
    )
    def test_pinned_outputs(self, req, matrix_last_column, k):
        # Recorded from the doubling-k1 rounding; a change to the seed, the
        # k1 floor or the rounding changes these.  Each pinned matrix must
        # also certify on its own.
        cert = find_matrix(req)
        assert certify_matrix(cert.matrix, req.mu, req.eps).passed
        n = req.n
        expected = [
            [int(i == j + 1) for j in range(n - 1)] + [matrix_last_column[i]]
            for i in range(n)
        ]
        assert cert.matrix.to_lists() == expected
        assert cert.k == k

    def test_exhaustion(self):
        with pytest.raises(SearchExhausted):
            find_matrix(SpectrumRequest(n=3, mu=(0.5,), eps=0.2, k1_max=2, seed=0))

    def test_float_guard_stops_before_rounding(self):
        # sigma_1 ~ 1e14 puts k1*max|sigma| past 2**50 at the k1 floor, far
        # below k1_max: the search stops there and says why.
        req = SpectrumRequest(n=3, mu=(1e14,), eps=0.5, k1_max=10**30, seed=0)
        with pytest.raises(SearchExhausted, match=r"reaches 2\*\*50") as err:
            find_matrix(req)
        assert err.value.search.exact_checks == 0
        assert err.value.search.k1_tried == []

    def test_counters_add_up(self):
        req = SpectrumRequest(n=6, mu=(-1.9612, -1.1598, 1.48, 1.8913), eps=0.5, seed=628993)
        search = find_matrix(req).search
        assert search.exact_checks == sum(search.rejections.values()) + 1
        assert search.exact_checks == len(search.k1_tried)
        assert set(search.rejections) == set(REJECT_REASONS)
        floor = search.k1_tried[0]
        assert search.k1_tried == [floor * 2**i for i in range(len(search.k1_tried))]

    @pytest.mark.parametrize("n", [9, 10, 11, 12])
    def test_high_dimensions_find(self, n):
        # The inputs of the ROADMAP baseline table: all ten seeds certify.
        mu = tuple(np.linspace(-1.5, 1.5, n - 2))
        for seed in range(10):
            req = SpectrumRequest(n=n, mu=mu, eps=0.5, seed=seed)
            _assert_certificate_valid(find_matrix(req), req)

    def test_search_calls_no_scan_and_no_sturm(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("find_matrix must not call this")

        monkeypatch.setattr(spectrum_search, "sturm_isolate", forbidden)
        monkeypatch.setattr(spectrum_search, "ergodic_scan", forbidden)
        req = SpectrumRequest(n=8, mu=(1.3666, 0.7705, -0.1174, -0.4013, -1.5638, 0.4122),
                              eps=0.5, seed=221086)
        _assert_certificate_valid(find_matrix(req), req)

    def test_validation(self):
        with pytest.raises(ValueError):
            SpectrumRequest(n=3, mu=(1.0, 2.0), eps=0.5)
        with pytest.raises(ValueError):
            SpectrumRequest(n=2, eps=-1.0)


class TestIntervalVerdict:
    # |x - t| over an interval, against a bound: True when every point
    # satisfies the condition, False when none does, None when it straddles.
    @pytest.mark.parametrize(
        "iv, t, above, expected",
        [
            ((3, 4), 0, True, True),  # |x| in [3, 4] > 2
            ((1, 2), 0, True, False),  # |x| in [1, 2] <= 2
            ((1, 3), 0, True, None),
            ((-4, -3), 0, True, True),
            ((-3, 3), 0, True, None),  # holds 0 and 3
            ((-1, 1), 0, False, True),  # |x| <= 1 < 2
            ((2, 5), 0, False, False),  # |x| >= 2
            ((-3, 1), 0, False, None),
            ((9, 11), 10, False, True),  # |x - 10| <= 1 < 2
            ((12, 13), 10, False, False),
        ],
    )
    def test_three_way(self, iv, t, above, expected):
        iv = (Fraction(iv[0]), Fraction(iv[1]))
        assert spectrum_search._verdict(iv, Fraction(t), Fraction(2), above) is expected


class TestCertifyMatrix:
    def test_cat_map(self):
        cert = certify_matrix(IntMatrix.from_rows([[2, 1], [1, 1]]))
        assert sorted(cert.roots) == pytest.approx(
            [(3 - math.sqrt(5)) / 2, (3 + math.sqrt(5)) / 2], abs=1e-10
        )
        assert cert.k == (3,)

    def test_rejects_complex_spectrum(self):
        with pytest.raises(ValueError):
            certify_matrix(IntMatrix.from_rows([[0, -1], [1, 0]]))  # rotation

    def test_complex_pair_refused_through_sturm(self, monkeypatch):
        # (x^2 + 1)(x^2 - 3x + 1) = x^4 - 3x^3 + 2x^2 - 3x + 1: two real roots
        # and the pair +-i.  The signs cannot alternate, and the refusal
        # comes from the Sturm fallback.
        a = IntMatrix.from_rows([[0, 0, 0, -1], [1, 0, 0, 3], [0, 1, 0, -2], [0, 0, 1, 3]])
        poly = char_poly(a)
        assert poly.coeffs == (1, -3, 2, -3, 1)
        guesses = sorted(np.roots(poly.coeffs[::-1]).real)
        assert alternation_isolate(poly, guesses) is None
        calls = []
        sturm = spectrum_search.sturm_isolate

        def spy(*args, **kwargs):
            calls.append(args)
            return sturm(*args, **kwargs)

        monkeypatch.setattr(spectrum_search, "sturm_isolate", spy)
        with pytest.raises(ValueError, match="not real and simple"):
            certify_matrix(a)
        assert len(calls) == 1

    def test_sturm_fallback_certifies_when_guesses_miss(self, monkeypatch):
        # Guesses that do not separate the roots fail to alternate; an
        # outside matrix then still certifies through Sturm isolation.
        a = IntMatrix.from_rows([[2, 1], [1, 1]])
        monkeypatch.setattr(spectrum_search, "_float_roots", lambda poly: [0.0] * poly.degree)
        cert = certify_matrix(a)
        assert sorted(cert.roots) == pytest.approx(
            [(3 - math.sqrt(5)) / 2, (3 + math.sqrt(5)) / 2], abs=1e-10
        )
        assert all(hi - lo < 1e-12 for lo, hi in cert.root_intervals)

    def test_accepted_intervals_are_refined(self):
        req = SpectrumRequest(n=5, mu=(0.9, 1.3, 1.7), eps=0.5, seed=1)
        cert = find_matrix(req)
        assert all(0 <= hi - lo < 1e-12 for lo, hi in cert.root_intervals)
        for root, (lo, hi) in zip(cert.roots, cert.root_intervals):
            assert lo <= root <= hi
