import math
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix

from liouville_forge import exactlin
from liouville_forge.exactlin import (
    IntMatrix,
    IntPolynomial,
    NotIsolating,
    SquareFreeViolation,
    alternation_isolate,
    char_poly,
    companion_matrix,
    companion_poly,
    determinant,
    refine_root,
    sign_at,
    sturm_isolate,
    trace_recursion,
)
from liouville_forge.spectrum_search import SpectrumRequest, find_matrix

GOLDEN_PLUS = (3 + math.sqrt(5)) / 2  # 2.618033988749895
GOLDEN_MINUS = (3 - math.sqrt(5)) / 2  # 0.3819660112501051


def _sympy_charpoly(rows):
    m = sympy.Matrix(rows)
    x = sympy.symbols("x")
    poly = m.charpoly(x)
    coeffs = list(reversed(poly.all_coeffs()))  # ascending
    return tuple(int(c) for c in coeffs)


class TestCompanionMatrix:
    def test_n2(self):
        assert companion_matrix((3,)).to_lists() == [[0, -1], [1, 3]]

    def test_n3_signs(self):
        # (2,3) entry must carry the alternating sign: -k_1.
        k1, k2 = 4, 7
        assert companion_matrix((k1, k2)).to_lists() == [
            [0, 0, 1],
            [1, 0, -k1],
            [0, 1, k2],
        ]

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_zero_tuple_charpoly(self, n):
        # k = 0 collapses the characteristic polynomial to x^n + (-1)^n.
        a = companion_matrix((0,) * (n - 1))
        expected = [0] * (n + 1)
        expected[0] = (-1) ** n
        expected[n] = 1
        assert char_poly(a).coeffs == tuple(expected)

    def test_symbolic_roundtrip_n3_n4(self):
        # char_poly(companion(k)) must match the alternating-sign pattern,
        # cross-checked by symbolic expansion of det(xI - A).
        x = sympy.symbols("x")
        for k in [(2, 5), (-3, 1), (4, -2, 7), (1, 1, 1)]:
            a = companion_matrix(k)
            got = char_poly(a).coeffs
            assert got == _sympy_charpoly(a.to_lists())
            n = len(k) + 1
            expected = sympy.expand(
                x**n
                + sum(
                    (-1) ** i * k[n - i - 1] * x ** (n - i) for i in range(1, n)
                )
                + (-1) ** n
            )
            assert sympy.expand(sympy.Poly(list(reversed(got)), x).as_expr()) == expected

    @given(
        st.lists(st.integers(min_value=-20, max_value=20), min_size=1, max_size=4)
    )
    @settings(max_examples=60, deadline=None)
    def test_unit_determinant_and_roundtrip(self, k):
        a = companion_matrix(k)
        assert determinant(a) == 1
        n = len(k) + 1
        coeffs = char_poly(a).coeffs
        assert coeffs[n] == 1
        assert coeffs[0] == (-1) ** n
        for i in range(1, n):
            assert coeffs[n - i] == (-1) ** i * k[n - i - 1]

    @given(st.lists(st.integers(-(10**6), 10**6), min_size=1, max_size=11))
    @settings(max_examples=100, deadline=None)
    def test_companion_poly_is_char_poly(self, k):
        # The closed form against the trace recursion at n = 2..12.
        assert companion_poly(k) == char_poly(companion_matrix(k))
        assert companion_matrix(companion_poly(k)) == companion_matrix(k)


class TestCharPoly:
    def test_hand_example(self):
        a = IntMatrix.from_rows([[0, -1], [1, 3]])
        assert char_poly(a).coeffs == (1, -3, 1)  # x^2 - 3x + 1

    def test_identity(self):
        a = IntMatrix.from_rows([[1, 0], [0, 1]])
        assert char_poly(a).coeffs == (1, -2, 1)

    def test_random_vs_sympy(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(2, 6))
            rows = rng.integers(-9, 10, size=(n, n)).tolist()
            a = IntMatrix.from_rows(rows)
            assert char_poly(a).coeffs == _sympy_charpoly(rows)


class TestTraceRecursion:
    def test_adjugate_random_vs_sympy(self):
        # adj(xI - A) = sum_k M_k x^(n-k), and p is char_poly's.
        x = sympy.symbols("x")
        rng = np.random.default_rng(12)
        for _ in range(25):
            n = int(rng.integers(2, 6))
            rows = rng.integers(-9, 10, size=(n, n)).tolist()
            poly, ms = trace_recursion(IntMatrix.from_rows(rows))
            assert poly.coeffs == _sympy_charpoly(rows)
            assert len(ms) == n
            got = sum((sympy.Matrix(m) * x ** (n - k) for k, m in enumerate(ms, 1)),
                      sympy.zeros(n, n))
            # sympy's adjugate over Z[x]; Matrix.adjugate gives the same, slower.
            want = DomainMatrix.from_Matrix(x * sympy.eye(n) - sympy.Matrix(rows)).adjugate()
            assert (got - want.to_Matrix()).expand() == sympy.zeros(n, n)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 9])
    def test_last_matrix_gives_inverse(self, n):
        # (-1)^(n+1) M_n A = I for unit-determinant A: the cat map at n = 2,
        # find_matrix outputs above.
        if n == 2:
            a = IntMatrix.from_rows([[2, 1], [1, 1]])
        else:
            req = SpectrumRequest(n=n, mu=tuple(np.linspace(-1.5, 1.5, n - 2)), eps=0.5)
            a = find_matrix(req).matrix
        inv = (-1) ** (n + 1) * sympy.Matrix(trace_recursion(a)[1][-1])
        assert inv * sympy.Matrix(a.to_lists()) == sympy.eye(n)


class TestDeterminant:
    def test_examples(self):
        assert determinant(IntMatrix.from_rows([[1, 0], [0, 1]])) == 1
        assert determinant(IntMatrix.from_rows([[2, 1], [1, 1]])) == 1

    def test_random_vs_sympy(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(1, 6))
            rows = rng.integers(-9, 10, size=(n, n)).tolist()
            assert determinant(IntMatrix.from_rows(rows)) == int(
                sympy.Matrix(rows).det()
            )

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_companion_always_unimodular(self, n):
        rng = np.random.default_rng(n)
        for _ in range(5):
            k = tuple(int(v) for v in rng.integers(-50, 51, size=n - 1))
            assert determinant(companion_matrix(k)) == 1


def _grid_root_count(poly: IntPolynomial) -> int:
    # Independent oracle: sign changes on a dense evaluation grid.
    xs = np.concatenate(
        [
            np.linspace(-1e6, -30, 2001),
            np.linspace(-30, 30, 600001),
            np.linspace(30, 1e6, 2001),
        ]
    )
    vals = np.polyval(list(reversed(poly.coeffs)), xs)
    signs = np.sign(vals)
    signs = signs[signs != 0]
    return int(np.sum(signs[:-1] != signs[1:]))


class TestSturmIsolate:
    def test_two_real_roots(self):
        p = IntPolynomial((1, -3, 1))
        iso = sturm_isolate(p)
        assert iso.count_real == 2 and iso.square_free
        (a1, b1), (a2, b2) = iso.intervals
        assert float(a1) < GOLDEN_MINUS < float(b1)
        assert float(a2) < GOLDEN_PLUS < float(b2)

    def test_no_real_roots(self):
        assert sturm_isolate(IntPolynomial((1, 0, 1))).count_real == 0

    def test_cubic_three_intervals(self):
        # x^3 - 5x^2 + 5x - 1 = (x - 1)(x^2 - 4x + 1): roots 1, 2 +/- sqrt(3).
        p = char_poly(companion_matrix((5, 5)))
        iso = sturm_isolate(p)
        assert iso.count_real == 3
        assert _grid_root_count(p) == 3
        roots = sorted(
            float(sum(refine_root(p, iv, 1e-10)) / 2) for iv in iso.intervals
        )
        assert roots[0] == pytest.approx(2 - math.sqrt(3), abs=1e-9)
        assert roots[1] == pytest.approx(1.0, abs=1e-9)
        assert roots[2] == pytest.approx(2 + math.sqrt(3), abs=1e-9)

    def test_repeated_root_flags(self):
        p = IntPolynomial((1, -2, 1))  # (x - 1)^2
        iso = sturm_isolate(p)
        assert not iso.square_free
        assert iso.count_real == 1
        assert iso.simple_flags == (False,)
        with pytest.raises(SquareFreeViolation):
            sturm_isolate(p, require_simple=True)

    def test_counts_match_grid_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            k = tuple(int(v) for v in rng.integers(-6, 7, size=n - 1))
            p = char_poly(companion_matrix(k))
            assert sturm_isolate(p).count_real == _grid_root_count(p)

    def test_intervals_sorted_disjoint(self):
        p = char_poly(companion_matrix((5, 5)))
        iso = sturm_isolate(p)
        for (a1, b1), (a2, b2) in zip(iso.intervals, iso.intervals[1:]):
            assert b1 <= a2


class TestRefineRoot:
    def test_quadratic(self):
        p = IntPolynomial((1, -3, 1))
        lo, hi = refine_root(p, (Fraction(2), Fraction(3)), 1e-12)
        assert float(hi - lo) < 1e-12
        assert lo <= Fraction(GOLDEN_PLUS) <= hi or abs(float(lo) - GOLDEN_PLUS) < 1e-11
        assert p(lo) <= 0 <= p(hi) or p(hi) <= 0 <= p(lo)

    def test_exact_hit(self):
        p = IntPolynomial((-1, 1))  # x - 1
        assert refine_root(p, (Fraction(0), Fraction(2)), 1e-12) == (
            Fraction(1),
            Fraction(1),
        )

    def test_not_isolating(self):
        p = IntPolynomial((1, -3, 1))
        with pytest.raises(NotIsolating):
            refine_root(p, (Fraction(5), Fraction(6)), 1e-6)

    def test_vieta_roundtrip(self):
        # Sum of refined roots matches the trace coefficient; product is 1.
        for k in [(3,), (5, 5), (4, 4)]:
            p = char_poly(companion_matrix(k))
            iso = sturm_isolate(p)
            if iso.count_real != p.degree:
                continue
            roots = [
                float(sum(refine_root(p, iv, 1e-13)) / 2) for iv in iso.intervals
            ]
            assert sum(roots) == pytest.approx(k[-1], abs=len(roots) * 1e-12)
            assert math.prod(roots) == pytest.approx(1.0, rel=len(roots) * 1e-12)


def _reference_refine(P, interval, tol):
    """Bisection on the exact rational value P(m), as refine_root did before
    it used the integer sign test."""
    a, b = Fraction(interval[0]), Fraction(interval[1])
    fa = P(a)
    while b - a >= tol:
        m = (a + b) / 2
        fm = P(m)
        if fm == 0:
            return (m, m)
        if (fm > 0) == (fa > 0):
            a, fa = m, fm
        else:
            b = m
    return (a, b)


_small_polys = st.lists(st.integers(-30, 30), min_size=1, max_size=6).map(
    lambda k: char_poly(companion_matrix(k))
)
_rationals = st.fractions(max_denominator=10**6).filter(lambda x: abs(x) < 10**4)


class TestSignAt:
    @given(_small_polys, _rationals, st.integers(1, 5))
    @settings(max_examples=100, deadline=None)
    def test_matches_rational_value(self, p, x, scale):
        # Any representation a/b of x, reduced or not, gives the same sign.
        v = p(x)
        assert sign_at(p, x.numerator * scale, x.denominator * scale) == (v > 0) - (v < 0)

    def test_exact_root(self):
        p = IntPolynomial((-1, 1))  # x - 1
        assert sign_at(p, 1, 1) == 0
        assert sign_at(p, 3, 2) == 1
        assert sign_at(p, -7, 3) == -1


@st.composite
def _rational_roots(draw):
    """Monic integer p(y) = L^n q(y/L), q = prod (x - r_i) for distinct
    rationals r_i with common denominator L, with guesses for p's roots
    off by less than a fifth of the gap to the nearest neighbour."""
    roots = draw(st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=12),
                          min_size=1, max_size=7, unique=True))
    lcm = math.lcm(*(r.denominator for r in roots))
    scaled = sorted(r * lcm for r in roots)  # integers: the roots of p
    coeffs = [1]
    for r in scaled:  # multiply by (y - r), ascending powers
        coeffs = [0] + coeffs
        for i in range(len(coeffs) - 1):
            coeffs[i] -= int(r) * coeffs[i + 1]
    gaps = [b - a for a, b in zip(scaled, scaled[1:])]
    guesses = []
    for i, r in enumerate(scaled):
        near = min(gaps[max(i - 1, 0): i + 1], default=1)
        guesses.append(float(r) + draw(st.floats(-0.2, 0.2)) * float(near))
    return IntPolynomial(tuple(coeffs)), guesses


def _counted_sign_at(monkeypatch):
    """Patch ``exactlin.sign_at`` to record each point a/b it is asked for."""
    points = []

    def counted(P, a, b):
        points.append(Fraction(a, b))
        return sign_at(P, a, b)

    monkeypatch.setattr(exactlin, "sign_at", counted)
    return points


def _guesses(draw, p, iv, tol):
    """No guess, the final cell's midpoint, points off by many cells on
    either side, points outside the interval, and non-finite floats."""
    lo, hi = _reference_refine(p, iv, tol)
    width = max(hi - lo, tol / 2)
    offset = draw(st.integers(-(2**40), 2**40))
    return [None, float((lo + hi) / 2), (lo + hi) / 2 + offset * width,
            float(lo + offset * width), float(iv[0]) - 1.0, float(iv[1]) + 1.0,
            math.nan, math.inf, -math.inf]


class TestRefineRootSignTest:
    @given(_small_polys, st.sampled_from([Fraction(1, 10**3), Fraction(1, 10**12)]),
           st.data())
    @settings(max_examples=40, deadline=None)
    def test_same_intervals_as_rational_bisection(self, p, tol, data):
        for iv in sturm_isolate(p).intervals:
            if p(iv[0]) * p(iv[1]) >= 0:
                continue  # a root at an endpoint, or one of even multiplicity
            want = _reference_refine(p, iv, tol)
            for guess in _guesses(data.draw, p, iv, tol):
                assert refine_root(p, iv, tol, guess) == want, guess

    def test_without_a_guess_it_evaluates_bisections_midpoints(self, monkeypatch):
        p = char_poly(companion_matrix((5, 5)))
        iv = sturm_isolate(p).intervals[0]
        tol = Fraction(1, 10**12)
        points = _counted_sign_at(monkeypatch)
        got = refine_root(p, iv, tol)
        a, b = iv
        mids = []
        while b - a >= tol:
            m = (a + b) / 2
            mids.append(m)
            a, b = (m, b) if (p(m) > 0) == (p(a) > 0) else (a, m)
        assert got == (a, b)
        assert points == [iv[0], iv[1], *mids]

    @pytest.mark.parametrize("k", [(3,), (5, 5), (4, 4), (5, -20, 6), (1, -12, 2)])
    def test_eigenvector_tolerance_below_float_resolution(self, k, monkeypatch):
        # The width |lam| 2^-60 of _left_eigenvector from a wide isolating
        # interval: the float root lies a few hundred cells from the root.
        p = char_poly(companion_matrix(k))
        iso = sturm_isolate(p)
        assert iso.count_real == p.degree
        for iv, lam in zip(iso.intervals, sorted(np.roots(p.coeffs[::-1]).real)):
            tol = Fraction(abs(float(lam))) / 2**60
            want = _reference_refine(p, iv, tol)
            points = _counted_sign_at(monkeypatch)
            assert refine_root(p, iv, tol, float(lam)) == want
            assert len(points) <= 30 < 60 <= len(_bisection_levels(iv, tol))
            assert refine_root(p, iv, tol) == want

    @pytest.mark.parametrize("iv", [(0, 2), (0, 4), (-1, 3), (-3, 5), (-7, 9),
                                    (Fraction(1, 2), Fraction(3, 2))])
    @pytest.mark.parametrize("guess", [None, 1.0, 0.9999, 1.5, -0.5, 2.75, math.nan,
                                       1 + 1.5 * 2**-20, 1 - 1.5 * 2**-20])
    def test_integer_root_on_a_grid_point(self, iv, guess):
        # (x - 1)(x + 9)(x - 11): 1 is the midpoint of each interval or of
        # one of its halves, so bisection returns [1, 1].  The final cells
        # are 2^-20 wide, so the last two guesses put the root one cell
        # from the guess's cell: the gallop's first step lands on it.
        p = IntPolynomial((99, -97, -3, 1))
        iv = tuple(map(Fraction, iv))
        tol = Fraction(1, 10**6)
        want = (Fraction(1), Fraction(1))
        assert refine_root(p, iv, tol, guess) == want == _reference_refine(p, iv, tol)

    def test_no_halving_returns_the_interval(self, monkeypatch):
        p = IntPolynomial((1, -3, 1))
        iv = (Fraction(2), Fraction(3))
        points = _counted_sign_at(monkeypatch)
        assert refine_root(p, iv, 2, 2.6) == iv == _reference_refine(p, iv, 2)
        assert points == [2, 3]
        # A width equal to tol still halves once, as the loop did.
        assert refine_root(p, iv, 1, 2.6) == (Fraction(5, 2), 3) == _reference_refine(p, iv, 1)

    @pytest.mark.parametrize("guess", [None, 5.5, 2.6, math.nan])
    def test_not_isolating_whatever_the_guess(self, guess):
        p = IntPolynomial((1, -3, 1))
        with pytest.raises(NotIsolating):
            refine_root(p, (Fraction(5), Fraction(6)), 1e-6, guess)
        with pytest.raises(NotIsolating):
            refine_root(p, (Fraction(5), Fraction(5)), 1e-6, guess)
        with pytest.raises(NotIsolating):  # two roots: no sign change across
            refine_root(p, (Fraction(0), Fraction(3)), 1e-6, guess)

    @given(_rational_roots(), st.sampled_from([Fraction(1, 10**3), Fraction(1, 10**12)]))
    @settings(max_examples=40, deadline=None)
    def test_a_guess_in_the_final_cell_costs_four_sign_tests(self, drawn, tol):
        p, guesses = drawn
        iso = alternation_isolate(p, guesses)
        if iso is None:
            return
        for iv in iso.intervals:
            lo, hi = _reference_refine(p, iv, tol)
            with pytest.MonkeyPatch.context() as patch:
                points = _counted_sign_at(patch)
                assert refine_root(p, iv, tol, (lo + hi) / 2) == (lo, hi)
            assert len(points) <= 4


def _bisection_levels(iv, tol):
    """The widths bisection halves through from ``iv`` down to below ``tol``."""
    width, levels = iv[1] - iv[0], []
    while width >= tol:
        levels.append(width)
        width /= 2
    return levels


class TestAlternationIsolate:
    @given(_rational_roots())
    @settings(max_examples=60, deadline=None)
    def test_each_interval_holds_one_sturm_root(self, case):
        p, guesses = case
        iso = alternation_isolate(p, guesses)
        assert iso is not None and iso.count_real == p.degree
        sturm = sturm_isolate(p, require_simple=True)
        assert sturm.count_real == p.degree
        sturm_roots = [refine_root(p, iv, Fraction(1, 10**9)) for iv in sturm.intervals]
        for a, b in iso.intervals:
            inside = [r for r in sturm_roots if a < r[0] and r[1] < b]
            assert len(inside) == 1

    def test_complex_pair_does_not_alternate(self):
        # (x^2 + 1)(x - 3)(x + 2): two real roots, and +-i whose real parts
        # coincide.
        p = IntPolynomial((-6, -1, -5, -1, 1))
        guesses = sorted(np.roots(p.coeffs[::-1]).real)
        assert guesses == pytest.approx([-2, 0, 0, 3], abs=1e-9)
        assert alternation_isolate(p, guesses) is None

    def test_repeated_guess_does_not_alternate(self):
        p = IntPolynomial((1, -3, 1))
        assert alternation_isolate(p, [1.0, 1.0]) is None
        assert alternation_isolate(p, [GOLDEN_MINUS, GOLDEN_PLUS]) is not None

    def test_guess_count_must_match_degree(self):
        with pytest.raises(ValueError):
            alternation_isolate(IntPolynomial((1, -3, 1)), [1.0])
