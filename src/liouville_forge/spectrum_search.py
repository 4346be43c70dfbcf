"""Search for unit-determinant integer matrices with prescribed real spectrum.

The integer constraints on the spectrum, written through elementary
symmetric polynomials, read k' = x + k1*sigma, where sigma holds the
symmetric values of the n-2 middle eigenvalues and k1 is the trace.
``find_matrix`` seeds the middle eigenvalues near the requested tuple once,
then tries k1 = ``_k1_floor``, doubling up to ``k1_max``.  At each k1 it
rounds once, k' = rint(x + k1*sigma), and the exact layer alone accepts or
rejects the polynomial it rounded, the characteristic polynomial of the
companion matrix of (k1, k') in closed form (``exactlin.companion_poly``):
its float roots only say where to evaluate, and an exact sign alternation
(``exactlin.alternation_isolate``) proves the n simple real roots.  The
magnitude conditions are decided on those intervals, and bisection runs
only where an interval straddles a bound, and once on each interval of an
accepted certificate.  Even there it is not walked: ``exactlin.refine_root``
tests the cell of bisection's final grid that holds the float root, and a
few more grid points when the root is not in it, for the same result.

``ergodic_scan``, ``newton_refine`` and ``solve_tail`` are earlier float
stages that ``find_matrix`` no longer calls; they stay importable until the
benchmark that wraps them is refreshed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .exactlin import (
    IntMatrix,
    IntPolynomial,
    SquareFreeViolation,
    alternation_isolate,
    char_poly,
    companion_matrix,
    companion_poly,
    refine_root,
    sturm_isolate,
)

__all__ = [
    "SpectrumRequest",
    "SeedLambdas",
    "SigmaVector",
    "SpectrumCertificate",
    "SearchCounters",
    "DegenerateSigma",
    "NotFound",
    "SingularJacobian",
    "NoConvergence",
    "ComplexTail",
    "SearchExhausted",
    "elementary_symmetric",
    "x_vector",
    "residual_dynamics",
    "ergodic_scan",
    "newton_refine",
    "solve_tail",
    "seed_lambdas",
    "find_matrix",
    "certify_matrix",
]


class DegenerateSigma(Exception):
    """The top symmetric function vanishes; the eliminated system is singular."""


class NotFound(Exception):
    """Scan budget exhausted without a near-integer hit (``ergodic_scan``)."""


class SingularJacobian(Exception):
    """Newton iteration hit a (numerically) singular Jacobian."""


class NoConvergence(Exception):
    """Newton iteration failed to converge within the iteration cap."""


class ComplexTail(Exception):
    """The quadratic for the last two eigenvalues has no real solution."""


class SearchExhausted(Exception):
    """No verified certificate up to ``k1_max``, or k1 grew past the float guard.

    ``search`` holds the counters of the search that gave up.
    """

    def __init__(self, message: str, search: "SearchCounters") -> None:
        super().__init__(message)
        self.search = search


# Rejection reasons of the exact layer, in the order they are checked.
REJECT_REASONS = ("not_real", "middle", "tail")


class _Rejected(Exception):
    """The exact layer refused a candidate; ``args[0]`` is its reason."""


@dataclass
class SearchCounters:
    """What one ``find_matrix`` call did: the k1 values it rounded at, the
    candidates the exact layer checked, and its rejections by reason."""

    k1_tried: list[int] = field(default_factory=list)
    exact_checks: int = 0
    rejections: dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(REJECT_REASONS, 0)
    )

    def to_dict(self) -> dict:
        return {
            "k1_tried": list(self.k1_tried),
            "exact_checks": self.exact_checks,
            "rejections": dict(self.rejections),
        }


@dataclass(frozen=True)
class SpectrumRequest:
    """Target spectrum: n-2 prescribed middle eigenvalues within eps, plus
    one eigenvalue above 1/eps and one below eps in magnitude.  ``k1_max``
    is the largest k1 the search tries."""

    n: int
    mu: tuple[float, ...] = ()
    eps: float = 0.5
    k1_max: int = 200_000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("dimension must be at least 2")
        if not math.isfinite(self.eps) or self.eps <= 0:
            raise ValueError("eps must be positive and finite")
        if not all(math.isfinite(m) for m in self.mu):
            raise ValueError("target values must be finite")
        if len(self.mu) != self.n - 2:
            raise ValueError(f"expected {self.n - 2} target values, got {len(self.mu)}")
        if self.k1_max < 1:
            raise ValueError("k1_max must be at least 1")


@dataclass(frozen=True)
class SeedLambdas:
    """Perturbed copies of the requested middle eigenvalues."""

    lams: tuple[float, ...]


@dataclass(frozen=True)
class SigmaVector:
    """Elementary symmetric values (sigma_1, ..., sigma_m) of an m-tuple.

    ``value`` applies the standard conventions sigma_0 = 1 and sigma_j = 0
    for j > m, so callers can index uniformly.
    """

    sigma: tuple[float, ...]

    @property
    def m(self) -> int:
        return len(self.sigma)

    def value(self, j: int) -> float:
        if j == 0:
            return 1.0
        if 1 <= j <= self.m:
            return self.sigma[j - 1]
        return 0.0

    @property
    def last(self) -> float:
        """sigma_m, the product of the underlying tuple (1 for an empty tuple)."""
        return self.value(self.m)


@dataclass(frozen=True)
class SpectrumCertificate:
    """A verified matrix together with its isolated real spectrum.

    ``roots`` and ``root_intervals`` are ordered by role: the n-2 middle
    eigenvalues matched to the request, then the large one, then the small
    one; each float interval holds its root.  ``k`` collects the elementary
    symmetric values of the full spectrum as exact integers (the last, the
    determinant, is always 1 and not stored).  ``search`` carries the
    counters of the ``find_matrix`` call that found the matrix (None from
    ``certify_matrix``); ``to_dict`` leaves it out.
    """

    matrix: IntMatrix
    k: tuple[int, ...]
    n: int
    eps: float | None
    mu: tuple[float, ...]
    roots: tuple[float, ...]
    root_intervals: tuple[tuple[float, float], ...]
    conditions: dict[str, bool] = field(default_factory=dict)
    residuals: dict[str, float] = field(default_factory=dict)
    search: SearchCounters | None = field(default=None, compare=False)

    def to_dict(self) -> dict:
        return {
            "matrix": self.matrix.to_lists(),
            "k": list(self.k),
            "n": self.n,
            "eps": self.eps,
            "mu": list(self.mu),
            "roots": list(self.roots),
            "root_intervals": [list(iv) for iv in self.root_intervals],
            "conditions": dict(self.conditions),
            "residuals": dict(self.residuals),
        }


def elementary_symmetric(lams: Sequence[float]) -> SigmaVector:
    """Elementary symmetric polynomials by incremental product expansion."""
    e = [1.0]
    for x in lams:
        e.append(0.0)
        for j in range(len(e) - 1, 0, -1):
            e[j] += x * e[j - 1]
    return SigmaVector(tuple(e[1:]))


def x_vector(sigma: SigmaVector) -> tuple[float, ...]:
    """Constant part of the eliminated integer system, one entry per j = 2..n-1.

    x_j = sigma_j - sigma_1 sigma_{j-1} + sigma_{j-2} / sigma_m, the
    residual of the system at k1 = 0 and k' = 0.
    """
    return residual_dynamics(sigma, 0, (0.0,) * sigma.m)


def residual_dynamics(
    sigma: SigmaVector, k1: int, kprime: Sequence[float]
) -> tuple[float, ...]:
    """Componentwise defect of the eliminated system at the given sigma.

    Entry j-2 is sigma_j + (k1 - sigma_1) sigma_{j-1} + sigma_{j-2}/sigma_m - k_j
    for j = 2..n-1; an exact solution gives the zero tuple.
    """
    if sigma.last == 0:
        raise DegenerateSigma("sigma_{n-2} vanishes")
    if len(kprime) != sigma.m:
        raise ValueError("kprime length must match the number of middle eigenvalues")
    s1 = sigma.value(1)
    sm = sigma.last
    return tuple(
        sigma.value(j)
        + (k1 - s1) * sigma.value(j - 1)
        + sigma.value(j - 2) / sm
        - kprime[j - 2]
        for j in range(2, sigma.m + 2)
    )


# 1 MiB float64 temporaries: at 65_536, glibc's mmap threshold raised peak RSS.
_SCAN_CHUNK = 131_072


def ergodic_scan(
    x: Sequence[float],
    r: SigmaVector | Sequence[float],
    eps: float,
    k1_min: int,
    k1_max: int,
) -> tuple[int, tuple[int, ...]]:
    """First k1 in [k1_min, k1_max] whose orbit point x + k1*r sits within
    eps (max-norm) of the integer lattice; returns it with the nearest
    lattice point.  Nearest-integer ties round half to even.

    Each chunk of k1 values is sieved one coordinate at a time: only the
    values still within eps on every earlier coordinate are tested on the
    next.  Each coordinate is the same float expression as in the full
    ``(k1, m)`` orbit, so the first hit and its lattice point are bitwise
    the ones the full orbit gives.

    Not called by ``find_matrix``; deleted with the benchmark refresh
    (ROADMAP item 8).
    """
    if not math.isfinite(eps) or eps <= 0:
        raise ValueError("eps must be positive and finite")
    if k1_min < 1:
        raise ValueError("k1_min must be at least 1")
    rv = np.asarray(r.sigma if isinstance(r, SigmaVector) else r, dtype=float)
    xv = np.asarray(x, dtype=float)
    if xv.shape != rv.shape:
        raise ValueError("x and r must have equal length")
    if not (np.isfinite(xv).all() and np.isfinite(rv).all()):
        raise ValueError("x and r must be finite")
    lo = k1_min
    while lo <= k1_max:
        hi = min(lo + _SCAN_CHUNK, k1_max + 1)
        ks = np.arange(lo, hi, dtype=float)
        for xj, rj in zip(xv, rv):
            c = xj + ks * rj
            ks = ks[np.abs(c - np.rint(c)) < eps]
            if not ks.size:
                break
        if ks.size:
            k = ks[0]
            return int(k), tuple(int(v) for v in np.rint(xv + k * rv))
        lo = hi
    raise NotFound(f"no lattice hit within eps={eps} for k1 <= {k1_max}")


def _dynamics_jacobian(lam: np.ndarray, sigma: SigmaVector, k1: int) -> np.ndarray:
    """Jacobian of ``residual_dynamics`` in the middle eigenvalues, for
    ``newton_refine``.

    Not called by ``find_matrix``; deleted with the benchmark refresh
    (ROADMAP item 8).
    """
    m = lam.size
    s1 = sigma.value(1)
    sm = sigma.last

    # omitted[i] holds the symmetric values of the tuple with lam[i] left out.
    omitted = [elementary_symmetric(np.delete(lam, i)) for i in range(m)]
    jac = np.zeros((m, m))
    for row, j in enumerate(range(2, m + 2)):
        for i, ev in enumerate(omitted):
            d = ev.value(j - 1)
            d += (k1 - s1) * ev.value(j - 2) - sigma.value(j - 1)
            d += (ev.value(j - 3) * sm - sigma.value(j - 2) * ev.last) / (sm * sm)
            jac[row, i] = d
    return jac


def newton_refine(
    kprime: Sequence[int],
    k1: int,
    seed: SeedLambdas,
    tol: float = 1e-12,
    max_iter: int = 50,
) -> tuple[float, ...]:
    """Polish the middle eigenvalues until the eliminated system residual
    drops below ``tol``.  Analytic Jacobian through the symmetric functions
    (the derivative of sigma_j in lambda_i is sigma_{j-1} of the tuple with
    lambda_i omitted).

    Not called by ``find_matrix``; deleted with the benchmark refresh
    (ROADMAP item 8).
    """
    lam = np.asarray(seed.lams, dtype=float)
    if lam.size == 0:
        return ()
    for _ in range(max_iter + 1):
        sigma = elementary_symmetric(tuple(lam))
        if sigma.last == 0:
            raise SingularJacobian("sigma_{n-2} vanished during iteration")
        f = np.asarray(residual_dynamics(sigma, k1, kprime))
        if np.max(np.abs(f)) < tol:
            return tuple(float(v) for v in lam)
        if lam.size > 1:
            diffs = np.abs(lam[:, None] - lam[None, :])
            np.fill_diagonal(diffs, np.inf)
            if diffs.min() < 1e-12:
                raise SingularJacobian("eigenvalue seeds collided")
        jac = _dynamics_jacobian(lam, sigma, k1)
        try:
            step = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobian(str(exc)) from exc
        if not np.all(np.isfinite(step)):
            raise SingularJacobian("non-finite Newton step")
        lam = lam + step
    raise NoConvergence(f"residual above {tol} after {max_iter} iterations")


def solve_tail(sigma: SigmaVector, k1: int) -> tuple[float, float]:
    """Real roots of t^2 - (k1 - sigma_1) t + 1/sigma_m, larger magnitude first.

    Not called by ``find_matrix``; deleted with the benchmark refresh
    (ROADMAP item 8).
    """
    if sigma.last == 0:
        raise DegenerateSigma("sigma_{n-2} vanishes")
    b = k1 - sigma.value(1)
    c = 1.0 / sigma.last
    disc = b * b - 4.0 * c
    if disc < 0:
        raise ComplexTail(f"discriminant {disc} < 0; k1 too small")
    root = math.sqrt(disc)
    q = (b + math.copysign(root, b)) / 2.0 if b != 0 else root / 2.0
    if q == 0:
        pair = (0.0, 0.0)
    else:
        pair = (q, c / q)
    return pair if abs(pair[0]) >= abs(pair[1]) else (pair[1], pair[0])


def seed_lambdas(request: SpectrumRequest) -> SeedLambdas:
    """Deterministically perturb the requested middle eigenvalues.

    Rejection rules keep the seeds pairwise distinct, nonzero, and with a
    nondegenerate product; the perturbation widens from eps/4 toward eps/2
    if the first 100 draws all fail, and ``ValueError`` ends the last 100.
    """
    m = request.n - 2
    if m == 0:
        return SeedLambdas(())
    rng = np.random.default_rng(request.seed)
    mu = np.asarray(request.mu, dtype=float)
    width = request.eps / 4.0
    for attempt in range(200):
        if attempt == 100:
            width = request.eps / 2.0 * (1.0 - 1e-9)
        lam = mu + rng.uniform(-width, width, size=m)
        if np.any(np.abs(lam) < 1e-6):
            continue
        if m > 1:
            diffs = np.abs(lam[:, None] - lam[None, :])
            np.fill_diagonal(diffs, np.inf)
            if diffs.min() < 1e-6:
                continue
        if abs(float(np.prod(lam))) < 1e-9:
            continue
        return SeedLambdas(tuple(float(v) for v in lam))
    raise ValueError(
        f"could not draw seeds within eps/2 = {request.eps / 2:g} of the targets "
        "that stay 1e-6 apart and 1e-6 away from 0, with a product of magnitude "
        "at least 1e-9; widen eps or move the targets apart and away from 0"
    )


def _k1_floor(sigma: SigmaVector, eps: float) -> int:
    s1 = sigma.value(1)
    sm = sigma.last
    # eps * |sm| underflows to 0 only where its reciprocal would overflow.
    scaled = eps * abs(sm)
    bound = max(1.0 / eps, 1.0 / scaled if scaled else math.inf)
    if sm > 0:
        bound = max(bound, 2.0 / math.sqrt(sm))
    if not math.isfinite(s1 + bound):
        raise ValueError(f"eps = {eps:g} is too small: the k1 floor is not finite")
    return max(1, math.ceil(s1 + bound))


def _greedy_match(mids: list[float], pool: list[int], mu: Sequence[float]) -> list[int]:
    chosen: list[int] = []
    remaining = list(pool)
    for target in mu:
        best = min(remaining, key=lambda i: abs(mids[i] - target))
        chosen.append(best)
        remaining.remove(best)
    return chosen


# Every accepted root interval is narrower than this.
_ROOT_TOL = Fraction(1, 10**12)
# Below 2**50 a float keeps two fractional bits, so rint(x + k1*sigma) still
# rounds a value that carries its fractional part.
_FLOAT_GUARD = 2.0**50
_REFUSALS = {
    "not_real": "matrix spectrum is not real and simple",
    "middle": "a middle eigenvalue is not within eps of its target",
    "tail": "the large and small eigenvalues fail the magnitude conditions",
}


def _float_roots(poly: IntPolynomial) -> list[float] | None:
    """Sorted real parts of the float roots of an exact polynomial, or None
    when its coefficients or roots are not finite floats."""
    try:
        coeffs = np.array(poly.coeffs[::-1], dtype=float)
    except OverflowError:
        return None
    roots = np.roots(coeffs)
    if not np.isfinite(roots).all():
        return None
    return sorted(float(r) for r in roots.real)


def _verdict(
    iv: tuple[Fraction, Fraction], t: Fraction, bound: Fraction, above: bool
) -> bool | None:
    """Whether |x - t| is above (or below) ``bound`` for every x in iv: True
    if it is throughout, False if it fails throughout, None if iv straddles
    the bound."""
    a, b = iv[0] - t, iv[1] - t
    hi = max(abs(a), abs(b))
    lo = Fraction(0) if a <= 0 <= b else min(abs(a), abs(b))
    if above:
        return True if lo > bound else False if hi <= bound else None
    return True if hi < bound else False if lo >= bound else None


def _outward(lo: Fraction, hi: Fraction) -> tuple[float, float]:
    """Float ends of [lo, hi] rounded outward, so that they still hold it."""
    flo, fhi = float(lo), float(hi)
    return (math.nextafter(flo, -math.inf) if Fraction(flo) > lo else flo,
            math.nextafter(fhi, math.inf) if Fraction(fhi) < hi else fhi)


def _certificate_fields(
    poly: IntPolynomial, ivs: Sequence[tuple[Fraction, Fraction]], guesses: Sequence[float],
    mu: Sequence[float], eps: float | None,
) -> dict:
    """k, n, roots, root_intervals, conditions and residuals of a
    certificate for the unit-determinant ``poly``, whose caller has proved
    its n simple real roots: ``ivs`` isolates them in increasing order and
    ``guesses`` holds one point near each, in the same order.  Raises
    ``_Rejected`` with its reason.

    The guesses pick the small, large and middle roles.  Each magnitude
    condition is decided on the isolating interval where it can be; only an
    interval that straddles its bound is refined first.  Middles are checked
    before the tail, and an accepted certificate carries every interval
    refined below ``_ROOT_TOL``.  Interval i is refined from guess i:
    ``refine_root`` goes straight to the cell bisection would end on.
    """
    n = poly.degree
    k_sys = tuple((-1) ** i * poly.coeffs[n - i] for i in range(1, n))
    ivs = list(ivs)

    small = min(range(n), key=lambda i: abs(guesses[i]))
    large = max(range(n), key=lambda i: abs(guesses[i]))
    if small == large:
        raise _Rejected("tail")
    middle_pool = [i for i in range(n) if i not in (small, large)]
    middle = _greedy_match(guesses, middle_pool, mu)

    conditions: dict[str, bool] = {}
    if eps is not None:
        feps = Fraction(eps)
        checks = [("middle", i, Fraction(t), feps, False) for i, t in zip(middle, mu)]
        checks += [("tail", large, Fraction(0), 1 / feps, True),
                   ("tail", small, Fraction(0), feps, False)]
        verdicts = [_verdict(ivs[i], t, bound, above) for _, i, t, bound, above in checks]
        for (reason, *_), verdict in zip(checks, verdicts):
            if verdict is False:
                raise _Rejected(reason)
        for (reason, i, t, bound, above), verdict in zip(checks, verdicts):
            if verdict is None:
                ivs[i] = refine_root(poly, ivs[i], _ROOT_TOL, guesses[i])
                if not _verdict(ivs[i], t, bound, above):
                    raise _Rejected(reason)
        conditions = {"middles_within_eps": True, "tail_magnitudes": True}

    refined = [refine_root(poly, iv, _ROOT_TOL, g) for iv, g in zip(ivs, guesses)]
    mids = [float((a + b) / 2) for a, b in refined]
    order = middle + [large, small]
    roots = tuple(mids[i] for i in order)
    intervals = tuple(_outward(*refined[i]) for i in order)

    mid_sigma = elementary_symmetric(roots[: n - 2])
    lam_l, lam_s = roots[n - 2], roots[n - 1]
    residuals = {
        "sum_split": mid_sigma.value(1) + lam_l + lam_s - k_sys[0],
        "product_split": mid_sigma.last * lam_l * lam_s - 1.0,
    }
    mid_terms = []
    for j in range(2, n):
        val = (
            mid_sigma.value(j)
            + (lam_l + lam_s) * mid_sigma.value(j - 1)
            + lam_l * lam_s * mid_sigma.value(j - 2)
            - k_sys[j - 1]
        )
        mid_terms.append(abs(val))
    residuals["middle_split_max"] = max(mid_terms) if mid_terms else 0.0
    full_sigma = elementary_symmetric(roots)
    vieta = [abs(full_sigma.value(i) - k_sys[i - 1]) for i in range(1, n)]
    vieta.append(abs(full_sigma.value(n) - 1.0))
    residuals["vieta_max"] = max(vieta)

    return {"k": k_sys, "n": n, "roots": roots, "root_intervals": intervals,
            "conditions": conditions, "residuals": residuals}


def certify_matrix(
    A: IntMatrix, mu: Sequence[float] = (), eps: float | None = None
) -> SpectrumCertificate:
    """Build a certificate for an externally supplied matrix.

    The matrix must have unit determinant and an all-real simple spectrum;
    magnitude conditions are evaluated only when ``eps`` is given.  Its
    characteristic polynomial comes from the trace recursion, and a
    determinant, (-1)^n p(0), other than 1 raises ``ValueError``.  The
    roots are isolated by sign alternation around the float roots, as
    ``find_matrix`` isolates them; a spectrum whose signs do not alternate
    there goes to Sturm isolation (``exactlin.sturm_isolate``), whose
    intervals, refined below ``_ROOT_TOL``, give the guesses, so a refusal
    still carries a proof.  An empty ``mu`` matches the middle roots to 0.
    """
    n = A.n
    if len(mu) not in (0, n - 2):
        raise ValueError("mu must be empty or have length n-2")
    poly = char_poly(A)
    if poly.coeffs[0] != (-1) ** n:
        raise ValueError("matrix determinant must be exactly 1")
    guesses = _float_roots(poly)
    iso = None if guesses is None else alternation_isolate(poly, guesses)
    if iso is not None:
        ivs = iso.intervals
    else:
        try:
            iso = sturm_isolate(poly, require_simple=True)
        except SquareFreeViolation:
            raise ValueError(_REFUSALS["not_real"]) from None
        if iso.count_real != n:
            raise ValueError(_REFUSALS["not_real"])
        ivs = [refine_root(poly, iv, _ROOT_TOL) for iv in iso.intervals]
        guesses = [float((a + b) / 2) for a, b in ivs]
    try:
        fields = _certificate_fields(poly, ivs, guesses, mu or (0.0,) * (n - 2), eps)
    except _Rejected as exc:
        raise ValueError(_REFUSALS[exc.args[0]]) from None
    return SpectrumCertificate(matrix=A, eps=eps, mu=tuple(float(v) for v in mu), **fields)


def find_matrix(request: SpectrumRequest) -> SpectrumCertificate:
    """Seed once, round at doubling k1, and return the first candidate the
    exact layer accepts.

    k1 runs through ``_k1_floor`` * 2^i up to ``request.k1_max``.  Each k1
    is rounded once, k' = rint(x + k1*sigma), and the exact layer alone
    accepts or rejects the polynomial of (k1,) + k', which ``companion_poly``
    writes down without the trace recursion.  Its roots are isolated by sign
    alternation around its float roots (``exactlin.alternation_isolate``)
    and nothing else: a polynomial whose signs do not alternate there is
    rejected as not real, with no Sturm sequence.  ``_certificate_fields``
    decides the rest, and only the accepted polynomial has its companion
    matrix built.  ``SearchExhausted`` ends the search past ``k1_max``, or
    before a rounding whose k1*max|sigma| reaches 2**50.  The certificate's
    ``search`` holds the counters.
    """
    counters = SearchCounters()
    sigma = elementary_symmetric(seed_lambdas(request).lams)
    x = np.asarray(x_vector(sigma))
    rate = np.asarray(sigma.sigma)
    top = float(np.max(np.abs(rate), initial=0.0))
    where = f"n={request.n}, eps={request.eps}"
    k1 = _k1_floor(sigma, request.eps)
    while k1 <= request.k1_max:
        if k1 * top >= _FLOAT_GUARD:
            raise SearchExhausted(
                f"no certificate for {where}: stopped before k1={k1}, where "
                f"k1*max|sigma| = {k1 * top:.6g} reaches 2**50 and x + k1*sigma "
                "keeps too few fractional bits to round",
                counters,
            )
        counters.k1_tried.append(k1)
        kprime = np.rint(x + k1 * rate)
        poly = companion_poly(tuple(reversed((k1, *(int(v) for v in kprime)))))
        counters.exact_checks += 1
        guesses = _float_roots(poly)
        iso = None if guesses is None else alternation_isolate(poly, guesses)
        try:
            if iso is None:
                raise _Rejected("not_real")
            fields = _certificate_fields(poly, iso.intervals, guesses, request.mu, request.eps)
        except _Rejected as exc:
            counters.rejections[exc.args[0]] += 1
        else:
            return SpectrumCertificate(matrix=companion_matrix(poly), eps=request.eps,
                                       mu=tuple(float(v) for v in request.mu),
                                       search=counters, **fields)
        k1 *= 2
    raise SearchExhausted(
        f"no certificate for {where} at the doubling k1 values up to "
        f"k1_max={request.k1_max}",
        counters,
    )
