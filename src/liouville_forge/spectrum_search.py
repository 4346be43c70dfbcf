"""Search for unit-determinant integer matrices with prescribed real spectrum.

Pipeline: seed the middle eigenvalues near the requested tuple, express the
integer constraints through elementary symmetric polynomials, scan the
translation orbit on the torus for a near-integer hit, polish with Newton,
split off the large/small eigenvalue pair from the residual quadratic, and
finally re-verify everything on the exact integer companion matrix with
Sturm-certified root isolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Sequence

import numpy as np

from .exactlin import (
    IntMatrix,
    SquareFreeViolation,
    char_poly,
    companion_matrix,
    determinant,
    refine_root,
    sturm_isolate,
)

__all__ = [
    "SpectrumRequest",
    "SeedLambdas",
    "SigmaVector",
    "SpectrumCertificate",
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
    """Scan budget exhausted without a near-integer hit."""


class SingularJacobian(Exception):
    """Newton iteration hit a (numerically) singular Jacobian."""


class NoConvergence(Exception):
    """Newton iteration failed to converge within the iteration cap."""


class ComplexTail(Exception):
    """The quadratic for the last two eigenvalues has no real solution."""


class SearchExhausted(Exception):
    """All retries and scan budgets spent without a verified certificate."""


@dataclass(frozen=True)
class SpectrumRequest:
    """Target spectrum: n-2 prescribed middle eigenvalues within eps, plus
    one eigenvalue above 1/eps and one below eps in magnitude."""

    n: int
    mu: tuple[float, ...] = ()
    eps: float = 0.5
    k1_max: int = 200_000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("dimension must be at least 2")
        if self.eps <= 0:
            raise ValueError("eps must be positive")
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
    one.  ``k`` collects the elementary symmetric values of the full
    spectrum as exact integers (the last, the determinant, is always 1 and
    not stored).
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

    @property
    def passed(self) -> bool:
        return all(self.conditions.values()) if self.conditions else True

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


_SCAN_CHUNK = 65_536


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
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if k1_min < 1:
        raise ValueError("k1_min must be at least 1")
    rv = np.asarray(r.sigma if isinstance(r, SigmaVector) else r, dtype=float)
    xv = np.asarray(x, dtype=float)
    if xv.shape != rv.shape:
        raise ValueError("x and r must have equal length")
    if xv.size == 0:
        if k1_min > k1_max:
            raise NotFound("empty scan range")
        return k1_min, ()
    lo = k1_min
    while lo <= k1_max:
        hi = min(lo + _SCAN_CHUNK, k1_max + 1)
        ks = np.arange(lo, hi, dtype=float)
        orbit = xv[None, :] + ks[:, None] * rv[None, :]
        nearest = np.rint(orbit)
        dist = np.max(np.abs(orbit - nearest), axis=1)
        hits = np.flatnonzero(dist < eps)
        if hits.size:
            i = int(hits[0])
            return lo + i, tuple(int(v) for v in nearest[i])
        lo = hi
    raise NotFound(f"no lattice hit within eps={eps} for k1 <= {k1_max}")


def _dynamics_jacobian(lam: np.ndarray, sigma: SigmaVector, k1: int) -> np.ndarray:
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
    lambda_i omitted)."""
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
    """Real roots of t^2 - (k1 - sigma_1) t + 1/sigma_m, larger magnitude first."""
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
    if the first 100 draws all fail.
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
    raise RuntimeError("could not draw admissible seeds")


def _k1_floor(sigma: SigmaVector, eps: float) -> int:
    s1 = sigma.value(1)
    sm = sigma.last
    bound = max(1.0 / eps, 1.0 / (eps * abs(sm)))
    if sm > 0:
        bound = max(bound, 2.0 / math.sqrt(sm))
    return max(1, math.ceil(s1 + bound))


def _greedy_match(mids: list[float], pool: list[int], mu: Sequence[float]) -> list[int]:
    chosen: list[int] = []
    remaining = list(pool)
    for target in mu:
        best = min(remaining, key=lambda i: abs(mids[i] - target))
        chosen.append(best)
        remaining.remove(best)
    return chosen


def _certificate_from_matrix(
    A: IntMatrix,
    k_sys: tuple[int, ...],
    mu: Sequence[float],
    eps: float | None,
) -> SpectrumCertificate | None:
    """Exact verification pass: Sturm-count the spectrum, refine roots,
    and check the magnitude conditions with interval endpoints."""
    n = A.n
    poly = char_poly(A)
    try:
        iso = sturm_isolate(poly, require_simple=True)
    except SquareFreeViolation:
        return None
    if iso.count_real != n:
        return None
    refined = [refine_root(poly, iv, Fraction(1, 10**12)) for iv in iso.intervals]
    mids = [float((a + b) / 2) for a, b in refined]

    small = min(range(n), key=lambda i: abs(mids[i]))
    large = max(range(n), key=lambda i: abs(mids[i]))
    if small == large:
        return None
    middle_pool = [i for i in range(n) if i not in (small, large)]
    middle = _greedy_match(mids, middle_pool, mu)

    conditions: dict[str, bool] = {}
    if eps is not None:
        feps = Fraction(eps)
        ok_mid = True
        for idx, target in zip(middle, mu):
            a, b = refined[idx]
            ft = Fraction(target)
            if max(abs(a - ft), abs(b - ft)) >= feps:
                ok_mid = False
                break
        la, lb = refined[large]
        sa, sb = refined[small]
        ok_tail = min(abs(la), abs(lb)) > 1 / feps and max(abs(sa), abs(sb)) < feps
        conditions = {"middles_within_eps": ok_mid, "tail_magnitudes": ok_tail}
        if not (ok_mid and ok_tail):
            return None

    order = middle + [large, small]
    roots = tuple(mids[i] for i in order)
    intervals = tuple((float(refined[i][0]), float(refined[i][1])) for i in order)

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

    return SpectrumCertificate(
        matrix=A,
        k=k_sys,
        n=n,
        eps=eps,
        mu=tuple(float(v) for v in mu),
        roots=roots,
        root_intervals=intervals,
        conditions=conditions,
        residuals=residuals,
    )


def certify_matrix(
    A: IntMatrix, mu: Sequence[float] = (), eps: float | None = None
) -> SpectrumCertificate:
    """Build a certificate for an externally supplied matrix.

    The matrix must have unit determinant and an all-real simple spectrum;
    magnitude conditions are evaluated only when ``eps`` is given.
    """
    if determinant(A) != 1:
        raise ValueError("matrix determinant must be exactly 1")
    n = A.n
    if len(mu) not in (0, n - 2):
        raise ValueError("mu must be empty or have length n-2")
    poly = char_poly(A)
    coeffs = poly.coeffs
    # Elementary symmetric values from the characteristic coefficients.
    k_sys = tuple(int((-1) ** i) * coeffs[n - i] for i in range(1, n))
    mu_eff = tuple(mu) if mu else tuple(0.0 for _ in range(n - 2))
    cert = _certificate_from_matrix(A, k_sys, mu_eff, eps)
    if cert is None:
        raise ValueError("matrix spectrum is not real and simple (or fails conditions)")
    return cert if mu else replace(cert, mu=())


def find_matrix(request: SpectrumRequest) -> SpectrumCertificate:
    """Full search pipeline returning a verified certificate.

    Retry policy: three re-seeds on top of the initial attempt, doubling the
    scan budget each time, then ``SearchExhausted``.
    """
    scan_eps = min(request.eps / 8.0, 0.05)
    for attempt in range(4):
        seeded = replace(
            request, k1_max=request.k1_max * (2**attempt), seed=request.seed + attempt
        )
        seed = seed_lambdas(seeded)
        sigma0 = elementary_symmetric(seed.lams)
        xv = x_vector(sigma0)
        k1 = _k1_floor(sigma0, request.eps)
        while k1 <= seeded.k1_max:
            try:
                k1, kprime = ergodic_scan(xv, sigma0, scan_eps, k1, seeded.k1_max)
            except NotFound:
                break
            try:
                lam = newton_refine(kprime, k1, seed)
                sigma = elementary_symmetric(lam)
                resid = residual_dynamics(sigma, k1, kprime) if lam else ()
                solve_tail(sigma, k1)  # raises ComplexTail if k1 too small
                k_sys = (k1,) + kprime
                A = companion_matrix(tuple(reversed(k_sys)))
                cert = _certificate_from_matrix(A, k_sys, request.mu, request.eps)
                if cert is not None:
                    dynamics_max = max((abs(v) for v in resid), default=0.0)
                    return replace(
                        cert, residuals={**cert.residuals, "dynamics_max": dynamics_max}
                    )
            except (ComplexTail, SingularJacobian, NoConvergence, DegenerateSigma):
                pass
            k1 += 1
    raise SearchExhausted(
        f"no certificate for n={request.n}, eps={request.eps} within budget"
    )
