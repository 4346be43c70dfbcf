"""Exact integer linear algebra and certified real-root isolation.

Everything here runs over arbitrary-precision integers or exact rationals:
companion matrices, characteristic polynomials (trace recursion),
determinants (fraction-free elimination), the exact sign of a polynomial at
a rational point (integer Horner), root isolation by sign alternation around
supplied guesses or by Sturm sequences, and bisection refinement.  A guess
only chooses where to evaluate; every verdict rests on exact integer signs,
so the spectrum certificates built on top of this module are
bit-trustworthy.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

__all__ = [
    "IntMatrix",
    "IntPolynomial",
    "RootIsolation",
    "SquareFreeViolation",
    "NotIsolating",
    "companion_matrix",
    "char_poly",
    "determinant",
    "sign_at",
    "alternation_isolate",
    "sturm_isolate",
    "refine_root",
]


class SquareFreeViolation(Exception):
    """Repeated roots detected while simple-root certification was requested."""


class NotIsolating(Exception):
    """Interval endpoints fail the sign conditions needed for bisection."""


@dataclass(frozen=True)
class IntMatrix:
    """Square matrix with exact (arbitrary-precision) integer entries."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.entries)
        if n == 0:
            raise ValueError("matrix must be nonempty")
        for row in self.entries:
            if len(row) != n:
                raise ValueError("matrix must be square")
            for v in row:
                if not isinstance(v, int) or isinstance(v, bool):
                    raise TypeError(f"non-integer entry {v!r}")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "IntMatrix":
        return cls(tuple(tuple(int(v) for v in row) for row in rows))

    @property
    def n(self) -> int:
        return len(self.entries)

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.entries]


@dataclass(frozen=True)
class IntPolynomial:
    """Monic polynomial with integer coefficients, ascending powers.

    ``coeffs[i]`` multiplies ``x**i``; the leading coefficient must be 1.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) < 2:
            raise ValueError("degree must be at least 1")
        for c in self.coeffs:
            if not isinstance(c, int) or isinstance(c, bool):
                raise TypeError(f"non-integer coefficient {c!r}")
        if self.coeffs[-1] != 1:
            raise ValueError("polynomial must be monic")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c
        return acc


@dataclass(frozen=True)
class RootIsolation:
    """Disjoint rational intervals, each holding exactly one distinct real root."""

    intervals: tuple[tuple[Fraction, Fraction], ...]
    simple_flags: tuple[bool, ...]
    square_free: bool
    count_real: int


def companion_matrix(k: Sequence[int]) -> IntMatrix:
    """Unit-determinant companion-form matrix for an integer tuple.

    Ones on the subdiagonal; last column ((-1)^(n+1), (-1)^n k_1,
    (-1)^(n-1) k_2, ..., k_{n-1}); zeros elsewhere.  The characteristic
    polynomial is x^n - k_{n-1} x^(n-1) + ... + (-1)^(n-1) k_1 x + (-1)^n,
    so the determinant is exactly 1.
    """
    ks = tuple(int(v) for v in k)
    n = len(ks) + 1
    if n < 2:
        raise ValueError("need at least one entry (dimension >= 2)")
    rows = [[0] * n for _ in range(n)]
    for i in range(1, n):
        rows[i][i - 1] = 1
    rows[0][n - 1] = (-1) ** (n + 1)
    for i in range(1, n):
        rows[i][n - 1] = (-1) ** (n - i + 1) * ks[i - 1]
    return IntMatrix.from_rows(rows)


def _mat_mul(a_rows: list[list[tuple[int, int]]], b: list[list[int]]) -> list[list[int]]:
    """a @ b, with a given as the (column, value) pairs of each row's
    nonzero entries: a companion matrix has at most two per row."""
    n = len(b)
    return [[sum(v * b[t][j] for t, v in row) for j in range(n)] for row in a_rows]


def char_poly(A: IntMatrix) -> IntPolynomial:
    """Exact monic characteristic polynomial via the trace recursion.

    Intermediate divisions are by construction exact over the integers.
    """
    n = A.n
    a = [[(t, v) for t, v in enumerate(row) if v] for row in A.entries]
    ident = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    m = [row[:] for row in ident]
    am = _mat_mul(a, m)
    for step in range(1, n + 1):
        tr = sum(am[i][i] for i in range(n))
        if tr % step != 0:
            raise ArithmeticError("trace recursion produced a non-integer")
        c = -(tr // step)
        coeffs[n - step] = c
        if step == n:
            break
        m = [[am[i][j] + (c if i == j else 0) for j in range(n)] for i in range(n)]
        am = _mat_mul(a, m)
    return IntPolynomial(tuple(coeffs))


def determinant(A: IntMatrix) -> int:
    """Exact integer determinant by fraction-free (Bareiss) elimination."""
    n = A.n
    m = [[v for v in row] for row in A.entries]
    sign = 1
    prev = 1
    for i in range(n - 1):
        if m[i][i] == 0:
            for r in range(i + 1, n):
                if m[r][i] != 0:
                    m[i], m[r] = m[r], m[i]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                m[r][c] = (m[r][c] * m[i][i] - m[r][i] * m[i][c]) // prev
            m[r][i] = 0
        prev = m[i][i]
    return sign * m[n - 1][n - 1]


# -- Sign alternation ---------------------------------------------------------

def sign_at(P: IntPolynomial, a: int, b: int) -> int:
    """Exact sign of P at the rational a/b, for integers a and b > 0.

    Integer Horner on the cleared numerator sum_j c_j a^j b^(n-j), which
    has the sign of P(a/b) because b^n > 0; no rational arithmetic.
    """
    acc = P.coeffs[-1]
    bpow = 1
    for c in reversed(P.coeffs[:-1]):
        bpow *= b
        acc = acc * a + c * bpow
    return (acc > 0) - (acc < 0)


def alternation_isolate(
    P: IntPolynomial, guesses: Sequence[float | Fraction]
) -> RootIsolation | None:
    """Prove that P has deg P simple real roots, one near each guess.

    P is evaluated exactly at the midpoints between neighbouring sorted
    guesses and at one point beyond each end (the end guess mirrored across
    its nearest midpoint).  If these n + 1 signs alternate, the intermediate
    value theorem puts a root in each of the n open intervals between
    neighbouring points, and the degree leaves room for no more: each holds
    exactly one simple root.  Returns None when the signs do not alternate,
    which proves nothing either way.
    """
    n = P.degree
    if len(guesses) != n:
        raise ValueError(f"need {n} guesses, got {len(guesses)}")
    rs = sorted(Fraction(g) for g in guesses)
    if n == 1:
        points = [rs[0] - 1, rs[0] + 1]
    else:
        mids = [(u + v) / 2 for u, v in zip(rs, rs[1:])]
        points = [2 * rs[0] - mids[0], *mids, 2 * rs[-1] - mids[-1]]
    signs = [sign_at(P, p.numerator, p.denominator) for p in points]
    if any(s == 0 for s in signs) or any(u == v for u, v in zip(signs, signs[1:])):
        return None
    intervals = tuple(zip(points, points[1:]))
    return RootIsolation(intervals, (True,) * n, True, n)


# -- Sturm machinery over exact rationals -----------------------------------

def _strip(p: list[Fraction]) -> list[Fraction]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _deriv(p: list[Fraction]) -> list[Fraction]:
    return [p[i] * i for i in range(1, len(p))]


def _poly_eval(p: list[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _poly_rem(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    r = a[:]
    db = len(b) - 1
    lead = b[-1]
    while len(r) - 1 >= db and _strip(r):
        dr = len(r) - 1
        if dr < db:
            break
        q = r[-1] / lead
        for i in range(db + 1):
            r[dr - db + i] -= q * b[i]
        r.pop()
        _strip(r)
    return r


def _sturm_chain(p: list[Fraction]) -> list[list[Fraction]]:
    chain = [p[:], _deriv(p)]
    while _strip(chain[-1]):
        nxt = [-c for c in _poly_rem(chain[-2], chain[-1])]
        if not _strip(nxt):
            break
        chain.append(nxt)
    return [q for q in chain if q]


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def _variations(vals: Iterable[int]) -> int:
    seq = [v for v in vals if v != 0]
    return sum(1 for a, b in zip(seq, seq[1:]) if a != b)


def _var_at(chain: list[list[Fraction]], x: Fraction) -> int:
    return _variations(_sign(_poly_eval(q, x)) for q in chain)


def _var_at_inf(chain: list[list[Fraction]], positive: bool) -> int:
    signs = []
    for q in chain:
        s = _sign(q[-1])
        if not positive and (len(q) - 1) % 2 == 1:
            s = -s
        signs.append(s)
    return _variations(signs)


def _count_in(chain: list[list[Fraction]], a: Fraction, b: Fraction) -> int:
    """Number of distinct real roots in the half-open interval (a, b]."""
    return _var_at(chain, a) - _var_at(chain, b)


def _cauchy_bound(P: IntPolynomial) -> Fraction:
    return Fraction(1 + max(abs(c) for c in P.coeffs[:-1]))


def _nonroot_split(p: list[Fraction], a: Fraction, b: Fraction) -> Fraction:
    """A point strictly inside (a, b) where the polynomial does not vanish."""
    for j in (8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15):
        m = a + (b - a) * Fraction(j, 16)
        if _poly_eval(p, m) != 0:
            return m
    raise ArithmeticError("could not find a non-root split point")


def sturm_isolate(P: IntPolynomial, require_simple: bool = False) -> RootIsolation:
    """Isolate all distinct real roots in disjoint rational intervals.

    Sturm counting works verbatim for non-square-free inputs (it counts
    distinct roots); square-freeness is reported via the gcd(P, P') degree
    and, when ``require_simple`` is set, enforced with an exception.
    """
    p = [Fraction(c) for c in P.coeffs]
    chain = _sturm_chain(p)
    gcd_deg = len(chain[-1]) - 1
    square_free = gcd_deg == 0
    if require_simple and not square_free:
        raise SquareFreeViolation(
            f"gcd(P, P') has degree {gcd_deg}; repeated roots present"
        )

    total = _var_at_inf(chain, positive=False) - _var_at_inf(chain, positive=True)
    if total == 0:
        return RootIsolation((), (), square_free, 0)

    bound = _cauchy_bound(P) + 1
    work = [(-bound, bound, _count_in(chain, -bound, bound))]
    done: list[tuple[Fraction, Fraction]] = []
    guard = 0
    while work:
        guard += 1
        if guard > 100_000:
            raise ArithmeticError("root isolation failed to terminate")
        a, b, cnt = work.pop()
        if cnt == 0:
            continue
        if cnt == 1:
            done.append((a, b))
            continue
        m = (a + b) / 2
        if _poly_eval(p, m) == 0:
            m = _nonroot_split(p, a, b)
        left = _count_in(chain, a, m)
        work.append((a, m, left))
        work.append((m, b, cnt - left))

    done.sort()
    if square_free:
        flags = tuple(True for _ in done)
    else:
        gcd_chain = _sturm_chain(chain[-1])
        flags = tuple(_count_in(gcd_chain, a, b) == 0 for a, b in done)
    return RootIsolation(tuple(done), flags, square_free, len(done))


def refine_root(
    P: IntPolynomial,
    interval: tuple[Fraction, Fraction],
    tol: float | Fraction,
) -> tuple[Fraction, Fraction]:
    """Shrink an isolating interval of a simple root to width below ``tol``.

    Pure sign bisection on the exact sign test ``sign_at``; an exactly-hit
    root returns a degenerate [r, r] interval.  The endpoints are kept as
    integer numerators lo/d and hi/d over one denominator d that doubles
    with each halving, so no step pays for a gcd.
    """
    a, b = Fraction(interval[0]), Fraction(interval[1])
    tol = Fraction(tol)
    if tol <= 0:
        raise ValueError("tol must be positive")
    d = a.denominator * b.denominator
    lo, hi = a.numerator * b.denominator, b.numerator * a.denominator
    sa = sign_at(P, lo, d)
    if a == b:
        if sa == 0:
            return (a, a)
        raise NotIsolating("degenerate interval without a root")
    sb = sign_at(P, hi, d)
    if sa == 0:
        return (a, a)
    if sb == 0:
        return (b, b)
    if sa == sb:
        raise NotIsolating("no sign change across the interval")
    while (hi - lo) * tol.denominator >= tol.numerator * d:
        mid = lo + hi
        lo, hi, d = 2 * lo, 2 * hi, 2 * d
        sm = sign_at(P, mid, d)
        if sm == 0:
            return (Fraction(mid, d), Fraction(mid, d))
        if sm == sa:
            lo = mid
        else:
            hi = mid
    return (Fraction(lo, d), Fraction(hi, d))
