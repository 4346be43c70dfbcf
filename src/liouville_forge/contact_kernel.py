"""Numeric differential-geometry kernel.

Evaluates contact forms on box-with-circle-factor charts, pulls back
1-forms through smooth maps (analytic Jacobians for the built-in models,
central finite differences otherwise), and certifies the three contraction
axioms on sampled points: image interiority, injectivity (a nonsingular
Jacobian, and exactly one in-chart preimage of each image through the map's
own inverse), and conformal rescaling of the contact form by a factor
strictly inside (0, 1).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .exactlin import IntMatrix, determinant
from .spectrum_search import SpectrumCertificate

__all__ = [
    "Coord",
    "Chart",
    "OneForm",
    "SmoothMap",
    "ContactModel",
    "ContractionCertificate",
    "OutOfChart",
    "NotConformal",
    "DegenerateForm",
    "UnknownModel",
    "EigenFailure",
    "ModelError",
    "halton",
    "eval_pullback",
    "pullback",
    "conformal_factor",
    "contact_check",
    "certify_contraction",
    "builtin_model",
    "anosov_model",
    "BUILTIN_MODELS",
]

TWO_PI = 2.0 * math.pi
# Central-difference step for Jacobians and for d(alpha) in the contact check.
FD_STEP = 1e-5
# Slack for rounding error when testing whether a point lies in the chart.
CONTAINS_TOL = 1e-12
# Distance every image point must keep from the codomain's interval boundaries.
INTERIOR_MARGIN = 1e-3


class OutOfChart(Exception):
    """A mapped point left the chart box along a non-periodic coordinate."""


class NotConformal(Exception):
    """Pullback is not proportional to the reference form at the point."""


class DegenerateForm(Exception):
    """The reference form vanishes at the point (never for a contact form)."""


class UnknownModel(Exception):
    """Requested built-in model name does not exist."""


class EigenFailure(Exception):
    """Numeric eigendata does not satisfy the required pullback relations."""


class ModelError(Exception):
    """Model is unusable for the requested certification."""


def _first_primes(count: int) -> list[int]:
    primes: list[int] = []
    k = 2
    while len(primes) < count:
        if all(k % p for p in primes if p * p <= k):
            primes.append(k)
        k += 1
    return primes


def halton(n: int, d: int, seed: int) -> np.ndarray:
    """Owen-scrambled Halton points in [0, 1)^d, shape ``(n, d)``.

    Bitwise equal to ``scipy.stats.qmc.Halton(d, scramble=True,
    seed=seed).random(n)``: per prime base b, the ``ceil(54 / log2 b) - 1``
    digit permutations are drawn as scipy draws them, from one
    ``np.random.default_rng(seed)``, and the permuted digits are added low
    digit first, each times ``b2r`` = b**-(j+1) by repeated division, as
    scipy's loop adds them.  The sums are built as a digit tree: ``s`` holds
    the partial sums of every index below b**j, and the next digit extends
    it by an outer sum.  Once ``s`` covers all n indices, every higher digit
    is 0 and adds one scalar.
    """
    rng = np.random.default_rng(seed)
    out = np.empty((d, n))
    for col, base in zip(out, _first_primes(d)):
        perms = np.repeat(np.arange(base)[None], math.ceil(54 / math.log2(base)) - 1, axis=0)
        for perm in perms:
            rng.shuffle(perm)
        s = np.zeros(1)
        b2r = 1.0 / base
        for perm in perms:
            if len(s) < n:
                rows = min(base, -(-n // len(s)))
                s = (s[None, :] + (perm[:rows] * b2r)[:, None]).ravel()[:n]
            else:
                s += perm[0] * b2r
            b2r /= base
        col[:] = s
    # Column-major, as scipy returns it, so reductions see the same layout.
    return out.T


@dataclass(frozen=True)
class Coord:
    """One chart coordinate: either an interval factor or a circle factor."""

    name: str
    lo: float = 0.0
    hi: float = 0.0
    period: float | None = None

    @classmethod
    def interval(cls, name: str, lo: float, hi: float) -> "Coord":
        return cls(name, float(lo), float(hi), None)

    @classmethod
    def circle(cls, name: str, period: float = 1.0) -> "Coord":
        return cls(name, 0.0, float(period), float(period))

    @property
    def is_periodic(self) -> bool:
        return self.period is not None


@dataclass(frozen=True)
class Chart:
    """Product chart: intervals and circle factors, one per coordinate."""

    coords: tuple[Coord, ...]

    def __post_init__(self) -> None:
        if self.dim < 3 or self.dim % 2 == 0:
            raise ValueError("chart dimension must be odd and at least 3")
        for c in self.coords:
            if c.is_periodic:
                if c.period <= 0:
                    raise ValueError(f"coordinate {c.name}: period must be positive")
            elif not c.hi > c.lo:
                raise ValueError(f"coordinate {c.name}: degenerate interval")

    @property
    def dim(self) -> int:
        return len(self.coords)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.coords)

    @cached_property
    def periodic_idx(self) -> tuple[int, ...]:
        """Positions of the circle factors."""
        return tuple(i for i, c in enumerate(self.coords) if c.is_periodic)

    @cached_property
    def interval_idx(self) -> tuple[int, ...]:
        """Positions of the interval factors."""
        return tuple(i for i in range(self.dim) if i not in self.periodic_idx)

    def lows(self) -> np.ndarray:
        return np.array([c.lo for c in self.coords])

    def highs(self) -> np.ndarray:
        return np.array([c.hi for c in self.coords])

    def reduce(self, pts: np.ndarray) -> np.ndarray:
        """Wrap periodic coordinates into [0, period)."""
        out = np.array(pts, dtype=float, copy=True)
        for i in self.periodic_idx:
            out[:, i] = np.mod(out[:, i], self.coords[i].period)
        return out

    def interior_margins(self, pts: np.ndarray) -> np.ndarray:
        """Distance to the boundary along interval coordinates (min over them).

        Periodic coordinates impose no constraint.  Non-finite coordinates
        yield -inf so they register as violations.
        """
        margins = np.full(len(pts), np.inf)
        for i in self.interval_idx:
            c = self.coords[i]
            d = np.minimum(pts[:, i] - c.lo, c.hi - pts[:, i])
            d = np.where(np.isfinite(pts[:, i]), d, -np.inf)
            margins = np.minimum(margins, d)
        bad = ~np.all(np.isfinite(pts), axis=1)
        margins[bad] = -np.inf
        return margins

    def contains(self, pts: np.ndarray) -> np.ndarray:
        return self.interior_margins(pts) >= -CONTAINS_TOL

    def normalized_radius(self, pts: np.ndarray) -> np.ndarray:
        """Sup-norm radius of the interval factors, rescaled so the boundary
        sits at radius 1."""
        r = np.zeros(len(pts))
        for i in self.interval_idx:
            c = self.coords[i]
            mid = 0.5 * (c.lo + c.hi)
            half = 0.5 * (c.hi - c.lo)
            r = np.maximum(r, np.abs(pts[:, i] - mid) / half)
        return r

    def sample(self, n: int, rng_seed: int = 0) -> np.ndarray:
        """Low-discrepancy points covering the chart, from ``halton``."""
        if n < 1:
            raise ValueError("sample count must be positive")
        u = halton(n, self.dim, rng_seed)
        lo = self.lows()
        hi = self.highs()
        return lo + u * (hi - lo)

    def probe_points(self, cap: int = 8192) -> np.ndarray:
        """Deterministic corner/edge probes: interval coordinates at
        lo/mid/hi, circle factors at four phases."""
        axes = []
        for c in self.coords:
            if c.is_periodic:
                axes.append([0.0, c.period / 4, c.period / 2, 3 * c.period / 4])
            else:
                axes.append([c.lo, 0.5 * (c.lo + c.hi), c.hi])
        pts = np.array(list(itertools.product(*axes)))
        if len(pts) > cap:
            stride = int(np.ceil(len(pts) / cap))
            pts = pts[::stride]
        return pts

    def embed_periodic(self, pts: np.ndarray) -> np.ndarray:
        """Isometric-to-second-order embedding of circle factors into the
        plane, for the blend roof's interpolation and nearest-neighbor
        distances at small radii."""
        cols = []
        for i, c in enumerate(self.coords):
            if c.is_periodic:
                ang = TWO_PI * pts[:, i] / c.period
                scale = c.period / TWO_PI
                cols.append(scale * np.cos(ang))
                cols.append(scale * np.sin(ang))
            else:
                cols.append(pts[:, i])
        return np.column_stack(cols)


def _pointwise(fn: Callable[[np.ndarray], np.ndarray], pts: np.ndarray):
    """Apply the batched ``fn`` to ``pts``; a single (d,) point runs as a
    batch of one and its result comes back without the batch axis."""
    pts = np.asarray(pts, dtype=float)
    if pts.ndim == 1:
        return fn(pts[None, :])[0]
    return fn(pts)


@dataclass(frozen=True)
class OneForm:
    """Coefficient evaluator of a 1-form in chart coordinates.

    The evaluator receives (N, dim) float points and returns (N, dim)
    coefficients.  Calling the form also accepts a single (dim,) point.
    """

    evaluator: Callable[[np.ndarray], np.ndarray]
    label: str = ""

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        # The reshape keeps (N, dim) for evaluators that squeeze a batch of one.
        return _pointwise(
            lambda p: np.asarray(self.evaluator(p), dtype=float).reshape(p.shape), pts
        )


@dataclass(frozen=True)
class SmoothMap:
    """Smooth map with analytic Jacobian when available, else central FD.

    ``forward``, ``jacobian`` and ``inverse`` receive (N, dim) float points.
    ``forward`` returns (N, dim) points and ``jacobian`` (N, dim, dim)
    Jacobians; ``inverse`` returns all B branches of the inverse as an
    (N, B, dim) array, in or out of the chart.  Calling the map or its
    ``jac`` also accepts a single (dim,) point.
    """

    forward: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray] | None = None
    inverse: Callable[[np.ndarray], np.ndarray] | None = None

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        return _pointwise(lambda p: np.asarray(self.forward(p), dtype=float), pts)

    def jac(self, pts: np.ndarray) -> np.ndarray:
        if self.jacobian is None:
            return _pointwise(lambda p: fd_jacobian(self.forward, p, FD_STEP), pts)
        return _pointwise(lambda p: np.asarray(self.jacobian(p), dtype=float), pts)


def fd_jacobian(fn: Callable, pts: np.ndarray, h: float) -> np.ndarray:
    """Second-order central-difference Jacobian of a batched map at (N, d)
    points."""
    n, d = pts.shape
    out = np.empty((n, d, d))
    for j in range(d):
        e = np.zeros(d)
        e[j] = h
        out[:, :, j] = (fn(pts + e) - fn(pts - e)) / (2.0 * h)
    return out


@dataclass(frozen=True)
class ContactModel:
    """Chart, contact form, and (optionally) a candidate contraction map.

    Maps that land in a differently-parameterized neighborhood carry a
    separate target chart and the coordinate expression of the same form
    there; self-maps leave both unset.
    """

    name: str
    chart: Chart
    alpha: OneForm
    phi: SmoothMap | None = None
    params: dict = field(default_factory=dict)
    target_chart: Chart | None = None
    target_alpha: OneForm | None = None
    g_extension: Callable[[np.ndarray], np.ndarray] | None = None

    @property
    def codomain(self) -> Chart:
        return self.target_chart or self.chart

    @property
    def codomain_alpha(self) -> OneForm:
        return self.target_alpha or self.alpha

    @property
    def is_self_map(self) -> bool:
        return self.target_chart is None


@dataclass(frozen=True)
class ContractionCertificate:
    """Evidence for the three contraction axioms at the sampled points.

    Injectivity counts, for each sampled image, the branches of the map's
    inverse that land in the chart; ``d2["collisions"]`` is the number of
    samples where that count is not exactly one.  A map without an inverse
    fails ``d2``.  Every verdict covers the sampled points only.
    """

    model: str
    sample_count: int
    tol: float
    d1: dict
    d2: dict
    d3: dict
    notes: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return bool(self.d1["pass"] and self.d2["pass"] and self.d3["pass"])

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "sample_count": self.sample_count,
            "tol": self.tol,
            "d1": dict(self.d1),
            "d2": dict(self.d2),
            "d3": dict(self.d3),
            "passed": self.passed,
            "notes": list(self.notes),
        }


# -- pullback and conformal factor -------------------------------------------

def pullback(
    map_: SmoothMap, form: OneForm, pts: np.ndarray, codomain: Chart | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Jacobian-transpose of the map applied to the form at the image
    points, for (N, d) points.  Returns the pullback, the images (reduced
    into ``codomain`` when one is given) and the Jacobians."""
    with np.errstate(all="ignore"):
        q = map_(pts)
        if codomain is not None:
            q = codomain.reduce(q)
        jac = map_.jac(pts)
        w = form(q)
        pb = np.einsum("ni,nij->nj", w, jac)
    return pb, q, jac


def eval_pullback(
    map_: SmoothMap,
    form: OneForm,
    p: np.ndarray,
    codomain: Chart | None = None,
) -> np.ndarray:
    """Pull a 1-form back through a map at one point or a batch; raises
    ``OutOfChart`` when an image point leaves ``codomain``."""

    def pull(pts):
        pb, q, _ = pullback(map_, form, pts, codomain)
        if codomain is not None and not codomain.contains(q).all():
            raise OutOfChart("image point leaves the chart box")
        return pb

    return _pointwise(pull, p)


def _proportionality(pb: np.ndarray, base: np.ndarray):
    """Least-squares factor f with pb ~ f * base, the residual, the norm of
    base, and the larger of the two norms (floored) as residual scale."""
    denom = np.einsum("ni,ni->n", base, base)
    num = np.einsum("ni,ni->n", pb, base)
    with np.errstate(divide="ignore", invalid="ignore"):
        f = num / denom
        resid = np.linalg.norm(pb - f[:, None] * base, axis=1)
    nbase = np.sqrt(denom)
    scale = np.maximum(np.maximum(np.linalg.norm(pb, axis=1), nbase), 1e-300)
    return f, resid, nbase, scale


def conformal_factor(
    map_: SmoothMap,
    form: OneForm,
    p: np.ndarray,
    tol: float = 1e-8,
    target_form: OneForm | None = None,
    codomain: Chart | None = None,
) -> float | np.ndarray:
    """Least-squares scalar f with pullback = f * form(p), certified by a
    residual below tol times the participating norms.  A single point gives
    a float, a batch an (N,) array; any failing point raises."""

    def factor(pts):
        pb = eval_pullback(map_, target_form or form, pts, codomain)
        f, resid, nbase, scale = _proportionality(pb, form(pts))
        if np.any(nbase <= tol):
            raise DegenerateForm("reference form vanishes at the point")
        bad = resid > tol * scale
        if bad.any():
            raise NotConformal(
                f"pullback deviates from proportionality by {resid[bad][0]:.3e}"
            )
        return f

    return _pointwise(factor, p)


def model_conformal_factors(model: ContactModel, pts: np.ndarray):
    """Vectorized conformal factors with residual diagnostics (no raising)."""
    if model.phi is None:
        raise ModelError("model has no map")
    pb, q, _ = pullback(model.phi, model.codomain_alpha, pts, model.codomain)
    f, resid, _, scale = _proportionality(pb, model.alpha(pts))
    return f, resid, scale, q


# -- contact condition --------------------------------------------------------

def _pfaffian(m: np.ndarray) -> np.ndarray:
    """Pfaffians of a batch of antisymmetric (N, 2k, 2k) matrices by
    expansion along the first row.  There is no division, so an exactly
    degenerate matrix gives exactly zero."""
    size = m.shape[-1]
    if size == 0:
        return np.ones(len(m))
    total = np.zeros(len(m))
    for j in range(1, size):
        rest = [k for k in range(1, size) if k != j]
        total += (-1) ** (j + 1) * m[:, 0, j] * _pfaffian(m[:, rest][:, :, rest])
    return total


def contact_check(form: OneForm, p: np.ndarray) -> float | np.ndarray:
    """Top-form coefficient of alpha wedge (d alpha)^m, dim = 2m + 1, at one
    point (a float) or a batch (an (N,) array).

    d alpha comes from central finite differences; the coefficient is
    m! Pf([[0, alpha], [-alpha^T, d alpha]]).
    """

    def top(pts):
        jac = fd_jacobian(form, pts, FD_STEP)
        n, d = pts.shape
        bordered = np.zeros((n, d + 1, d + 1))
        bordered[:, 0, 1:] = form(pts)
        bordered[:, 1:, 0] = -bordered[:, 0, 1:]
        bordered[:, 1:, 1:] = np.swapaxes(jac, 1, 2) - jac
        return math.factorial((d - 1) // 2) * _pfaffian(bordered)

    return _pointwise(top, p)


# -- contraction certification ------------------------------------------------

def certify_contraction(
    model: ContactModel,
    samples: int = 10_000,
    tol: float = 1e-8,
    rng_seed: int = 0,
) -> ContractionCertificate:
    """Sample the chart (plus deterministic corner probes) and check the
    three contraction axioms; per-axiom verdicts are recorded, not thrown."""
    if model.phi is None:
        raise ModelError("model has no map to certify")
    chart = model.chart
    codomain = model.codomain
    pts = np.vstack([chart.sample(samples, rng_seed), chart.probe_points()])
    notes: list[str] = []

    pb, q, jac = pullback(model.phi, model.codomain_alpha, pts, codomain)
    finite_img = np.all(np.isfinite(q), axis=1)
    if not finite_img.all():
        notes.append(f"{int((~finite_img).sum())} samples mapped to non-finite points")

    margins = codomain.interior_margins(q)
    d1_min = float(np.min(margins))
    d1 = {
        "min_margin": d1_min,
        "required_margin": INTERIOR_MARGIN,
        "pass": bool(finite_img.all() and d1_min >= INTERIOR_MARGIN),
    }

    with np.errstate(all="ignore"):
        dets = np.linalg.det(jac)
    finite_det = np.isfinite(dets)
    det_min = float(np.min(np.abs(dets[finite_det]))) if finite_det.any() else 0.0
    collisions = None
    if model.phi.inverse is None:
        notes.append("injectivity not checked: the map has no inverse")
    else:
        with np.errstate(all="ignore"):
            pre = model.phi.inverse(q[finite_img])
        inside = chart.contains(pre.reshape(-1, chart.dim)).reshape(pre.shape[:2])
        collisions = int(np.count_nonzero(inside.sum(axis=1) != 1))
    d2 = {
        "min_abs_det": det_min,
        "collisions": collisions,
        "pass": bool(finite_det.all() and det_min >= tol and collisions == 0),
    }

    f, resid, _, scale = _proportionality(pb, model.alpha(pts))
    ok = np.isfinite(f) & (resid <= tol * scale) & (f > 0.0) & (f < 1.0)
    valid = np.isfinite(f) & (f > 0.0)
    g = -np.log(f[valid]) if valid.any() else np.array([])
    d3 = {
        "pass": bool(ok.all()),
        "factor_min": float(np.min(f[np.isfinite(f)])) if np.isfinite(f).any() else math.nan,
        "factor_max": float(np.max(f[np.isfinite(f)])) if np.isfinite(f).any() else math.nan,
        "max_residual": float(np.max(resid[np.isfinite(resid)]))
        if np.isfinite(resid).any()
        else math.nan,
        "g_min": float(g.min()) if g.size else math.nan,
        "g_max": float(g.max()) if g.size else math.nan,
    }

    return ContractionCertificate(
        model=model.name,
        sample_count=len(pts),
        tol=tol,
        d1=d1,
        d2=d2,
        d3=d3,
        notes=tuple(notes),
    )


# -- built-in models ----------------------------------------------------------

def _jet_space_model(params: dict) -> ContactModel:
    chart = Chart(
        (
            Coord.interval("z", -1.0, 1.0),
            Coord.circle("q", 1.0),
            Coord.interval("p", -1.0, 1.0),
        )
    )

    def alpha(p):
        out = np.zeros_like(p)
        out[:, 0] = 1.0
        out[:, 1] = -p[:, 2]
        return out

    def forward(p):
        return np.column_stack([p[:, 0] / 2.0, p[:, 1], p[:, 2] / 2.0])

    jac_const = np.diag([0.5, 1.0, 0.5])

    def jacobian(p):
        return np.broadcast_to(jac_const, (len(p), 3, 3)).copy()

    def inverse(p):
        return np.column_stack([2.0 * p[:, 0], p[:, 1], 2.0 * p[:, 2]])[:, None, :]

    return ContactModel(
        name="jet_space",
        chart=chart,
        alpha=OneForm(alpha, "dz - p dq"),
        phi=SmoothMap(forward, jacobian, inverse),
        params={"rate": 0.5, "angle_multiplier": 1, **params},
    )


def _solenoid_model(params: dict) -> ContactModel:
    chart = Chart(
        (
            Coord.circle("theta", TWO_PI),
            Coord.interval("x", -1.0, 1.0),
            Coord.interval("y", -1.0, 1.0),
        )
    )

    def alpha(p):
        out = np.zeros_like(p)
        out[:, 0] = p[:, 2]
        out[:, 1] = 1.0
        return out

    def forward(p):
        th = p[:, 0]
        return np.column_stack(
            [
                2.0 * th,
                p[:, 1] / 10.0 + np.cos(th) / 2.0,
                p[:, 2] / 20.0 + np.sin(th) / 4.0,
            ]
        )

    def jacobian(p):
        th = p[:, 0]
        n = p.shape[0]
        out = np.zeros((n, 3, 3))
        out[:, 0, 0] = 2.0
        out[:, 1, 0] = -np.sin(th) / 2.0
        out[:, 1, 1] = 0.1
        out[:, 2, 0] = np.cos(th) / 4.0
        out[:, 2, 2] = 0.05
        return out

    def inverse(p):
        # Angle doubling has the two branches theta/2 and theta/2 + pi.
        th = np.mod(p[:, 0], TWO_PI)[:, None] / 2.0 + np.array([0.0, math.pi])
        x = (p[:, 1, None] - np.cos(th) / 2.0) * 10.0
        y = (p[:, 2, None] - np.sin(th) / 4.0) * 20.0
        return np.stack([th, x, y], axis=-1)

    return ContactModel(
        name="solenoid",
        chart=chart,
        alpha=OneForm(alpha, "dx + y dtheta"),
        phi=SmoothMap(forward, jacobian, inverse),
        params={"rate_x": 0.1, "rate_y": 0.05, "angle_multiplier": 2, **params},
    )


def _transverse_knot_model(params: dict) -> ContactModel:
    c = float(params.get("c", 0.1))
    delta = float(params.get("delta", 1e-3))
    eps = float(params.get("eps", 0.5))
    if c <= 0 or delta <= 0 or eps <= 0:
        raise ValueError("transverse_knot parameters must be positive")
    chart = Chart(
        (
            Coord.circle("theta", 1.0),
            Coord.interval("x", -1.0, 1.0),
            Coord.interval("y", -1.0, 1.0),
        )
    )
    target = Chart(
        (
            Coord.circle("theta_bar", 1.0),
            Coord.interval("x_bar", -eps, eps),
            Coord.interval("y_bar", -eps, eps),
        )
    )

    def alpha(p):
        out = np.zeros_like(p)
        out[:, 0] = 1.0
        out[:, 1] = -p[:, 2]
        return out

    def alpha_bar(p):
        out = np.zeros_like(p)
        out[:, 0] = p[:, 2]
        out[:, 1] = 1.0
        return out

    def forward(p):
        with np.errstate(all="ignore"):
            return np.column_stack(
                [
                    p[:, 0] - c * p[:, 1] / delta,
                    c * p[:, 1],
                    c * delta / (c - delta * p[:, 2]),
                ]
            )

    def jacobian(p):
        n = p.shape[0]
        out = np.zeros((n, 3, 3))
        out[:, 0, 0] = 1.0
        out[:, 0, 1] = -c / delta
        out[:, 1, 1] = c
        with np.errstate(all="ignore"):
            out[:, 2, 2] = c * delta**2 / (c - delta * p[:, 2]) ** 2
        return out

    def inverse(p):
        return np.column_stack(
            [p[:, 0] + p[:, 1] / delta, p[:, 1] / c, c / delta - c / p[:, 2]]
        )[:, None, :]

    def g_ext(p):
        return -np.log(np.clip(p[:, 2], 1e-12, 1.0 - 1e-12))

    return ContactModel(
        name="transverse_knot",
        chart=chart,
        alpha=OneForm(alpha, "dtheta - y dx"),
        phi=SmoothMap(forward, jacobian, inverse),
        params={"c": c, "delta": delta, "eps": eps},
        target_chart=target,
        target_alpha=OneForm(alpha_bar, "dx_bar + y_bar dtheta_bar"),
        g_extension=g_ext,
    )


BUILTIN_MODELS = ("jet_space", "solenoid", "transverse_knot")


def builtin_model(name: str, params: dict | None = None) -> ContactModel:
    """Construct a built-in model with hard-coded analytic Jacobians."""
    key = name.replace("-", "_")
    params = dict(params or {})
    if key == "jet_space":
        return _jet_space_model(params)
    if key == "solenoid":
        return _solenoid_model(params)
    if key == "transverse_knot":
        return _transverse_knot_model(params)
    raise UnknownModel(f"unknown model {name!r}")


# -- hyperbolic torus model ---------------------------------------------------

def _int_inverse_unimodular(A: IntMatrix) -> IntMatrix:
    """Exact inverse of a determinant +1 integer matrix via the adjugate."""
    n = A.n
    det = determinant(A)
    if det != 1:
        raise ValueError("matrix determinant must be exactly 1")
    rows = A.to_lists()

    def minor(r, c):
        sub = [
            [rows[i][j] for j in range(n) if j != c] for i in range(n) if i != r
        ]
        if not sub:
            return 1
        return determinant(IntMatrix.from_rows(sub))

    adj = [[(-1) ** (i + j) * minor(j, i) for j in range(n)] for i in range(n)]
    return IntMatrix.from_rows(adj)


def anosov_model(A: IntMatrix, cert: SpectrumCertificate) -> ContactModel:
    """Contact model on disk x torus from a certified all-real-spectrum
    matrix whose smallest-magnitude eigenvalue is positive.

    The form coefficients are the left eigenvectors (eigenvectors of the
    transpose), normalized to unit norm with first nonzero component
    positive; the map contracts each disk coordinate by the ratio of the
    small eigenvalue to the paired one and acts by the matrix on the torus.
    """
    n = A.n
    roots = np.asarray(cert.roots, dtype=float)
    if roots.size != n:
        raise EigenFailure("certificate does not carry a full spectrum")
    order = np.argsort(np.abs(roots))
    lam_n = float(roots[order[0]])
    if lam_n <= 0:
        raise EigenFailure("smallest-magnitude eigenvalue must be positive")
    if abs(roots[order[1]]) <= lam_n:
        raise EigenFailure("smallest eigenvalue is not strictly dominated")
    others = [int(i) for i in order[1:]][::-1]  # descending magnitude
    lam_list = [float(roots[i]) for i in others] + [lam_n]

    a_float = np.array(A.to_lists(), dtype=float)
    eigvals, eigvecs = np.linalg.eig(a_float.T)
    used: list[int] = []
    betas = []
    for lam in lam_list:
        idx = min(
            (i for i in range(n) if i not in used),
            key=lambda i: abs(eigvals[i] - lam),
        )
        used.append(idx)
        v = eigvecs[:, idx]
        if np.max(np.abs(v.imag)) > 1e-10:
            raise EigenFailure("complex eigenvector for a certified real eigenvalue")
        b = v.real.astype(float)
        b = b / np.linalg.norm(b)
        lead = b[np.flatnonzero(np.abs(b) > 1e-9)[0]]
        if lead < 0:
            b = -b
        if np.max(np.abs(a_float.T @ b - lam * b)) > 1e-8 * (1.0 + abs(lam)):
            raise EigenFailure("eigenvector residual exceeds 1e-8")
        betas.append(b)
    B = np.vstack(betas)  # rows: beta_1..beta_{n-1}, beta_n
    rates = lam_n / np.array(lam_list[:-1])

    coords = tuple(
        Coord.interval(f"y{i + 1}", -1.0, 1.0) for i in range(n - 1)
    ) + tuple(Coord.circle(f"x{i + 1}", 1.0) for i in range(n))
    chart = Chart(coords)
    d = 2 * n - 1

    def alpha(p):
        out = np.zeros_like(p)
        out[:, n - 1 :] = B[n - 1][None, :] + p[:, : n - 1] @ B[: n - 1]
        return out

    def forward(p):
        out = np.empty_like(p)
        out[:, : n - 1] = p[:, : n - 1] * rates[None, :]
        out[:, n - 1 :] = p[:, n - 1 :] @ a_float.T
        return out

    jac_const = np.zeros((d, d))
    jac_const[: n - 1, : n - 1] = np.diag(rates)
    jac_const[n - 1 :, n - 1 :] = a_float

    def jacobian(p):
        return np.broadcast_to(jac_const, (len(p), d, d)).copy()

    a_inv = np.array(_int_inverse_unimodular(A).to_lists(), dtype=float)

    def inverse(p):
        out = np.empty_like(p)
        out[:, : n - 1] = p[:, : n - 1] / rates[None, :]
        out[:, n - 1 :] = p[:, n - 1 :] @ a_inv.T
        return out[:, None, :]

    return ContactModel(
        name="anosov",
        chart=chart,
        alpha=OneForm(alpha, "beta_n + sum y_i beta_i"),
        phi=SmoothMap(forward, jacobian, inverse),
        params={
            "lambda_n": lam_n,
            "rates": tuple(float(r) for r in rates),
            "matrix": tuple(tuple(row) for row in A.entries),
        },
    )
