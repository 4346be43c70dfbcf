"""Numeric differential-geometry kernel.

Evaluates contact forms on box-with-circle-factor charts, pulls back
1-forms through smooth maps (analytic Jacobians for the built-in models,
central finite differences otherwise), and certifies the three contraction
axioms on sampled points: image interiority, injectivity (a nonsingular
Jacobian, and exactly one in-chart preimage of each image through the map's
own inverse), and conformal rescaling of the contact form by a factor
strictly inside (0, 1).

Every entry point takes a batch of points as an ``(N, d)`` array and
returns ``(N, d)`` forms or images, ``(N, d, d)`` Jacobians and ``(N,)``
scalars.  ``pullback`` is the one path from a map and a form to the pulled
back form; ``model_conformal_factors`` and ``certify_contraction`` read the
conformal factor off it.

``certify_contraction`` and ``torus_builder.descent_check`` run their samples
through ``pullback`` in row blocks of ``_BLOCK_ROWS``, so each block's
temporaries stay in cache, and each block is folded to the figures the
report reads (least margin, least |det|, counts, extreme factors, largest
residual): the sample is the only ``(N, d)`` array held, and no ``(N, d,
d)`` Jacobian is.  A block whose Jacobians are one broadcast matrix (a
``np.broadcast_to`` view, as the affine maps return them) takes one
determinant, of that matrix, for every row; a batch of equal matrices held
row by row takes one per row.  Reductions across a row's d coordinates run
a column at a time and give the bits numpy's ``axis=1`` reductions give;
a sum across rows of 8 or more coordinates (anosov n >= 5) is numpy's own
reduce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .exactlin import IntMatrix, IntPolynomial, refine_root, trace_recursion
from .spectrum_search import SpectrumCertificate

__all__ = [
    "Coord",
    "Chart",
    "OneForm",
    "SmoothMap",
    "ContactModel",
    "Section",
    "Affine",
    "EVIDENCE",
    "ContractionCertificate",
    "UnknownModel",
    "EigenFailure",
    "ModelError",
    "halton",
    "pullback",
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
# What a verdict rests on: the value of a report's "evidence" key.
EVIDENCE = {
    "sampled": "checked at sampled points only",
    "vertices": "decided at the vertices of an affine image box",
    "exact": "read off the closed form of the map's image, up to float rounding",
    "cover": "decided on an interval cover of the whole chart",
}


class UnknownModel(Exception):
    """Requested built-in model name does not exist."""


class EigenFailure(Exception):
    """No anosov model: the certificate lacks the full spectrum, or its
    smallest-magnitude eigenvalue is not positive or not dominated."""


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


# -- row reductions -----------------------------------------------------------
#
# Reductions across the few coordinates of each row of an (N, d) array, one
# whole-column ufunc per coordinate.  numpy's axis=1 reductions pay about
# 18 ns a row whatever d is, several times this loop at d = 3.

def _row_all(mask: np.ndarray) -> np.ndarray:
    """``mask.all(axis=1)`` of an (N, d) boolean array."""
    out = np.ones(len(mask), dtype=bool)
    for col in mask.T:
        out &= col
    return out


def _row_sum(x: np.ndarray) -> np.ndarray:
    """``np.add.reduce(x, axis=1)`` of an (N, d) float array, bit for bit up
    to which NaN a row of several NaNs returns.

    Below 8 coordinates numpy adds a row in order from 0.0, whatever the
    layout, and so does the column loop.  Rows of 8 or more coordinates
    (anosov n >= 5) go to numpy's own reduce, which sums them pairwise.
    """
    if x.shape[1] >= 8:
        return np.add.reduce(x, axis=1)
    out = np.zeros(len(x))
    for col in x.T:
        out += col
    return out


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
                if not (math.isfinite(c.period) and c.period > 0):
                    raise ValueError(f"coordinate {c.name}: period must be finite and positive")
            elif not (math.isfinite(c.lo) and math.isfinite(c.hi) and c.hi > c.lo):
                raise ValueError(f"coordinate {c.name}: interval ends must be finite, lo < hi")

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
        """Wrap periodic coordinates into [0, period).

        Each periodic column is ``np.mod(col, period)`` bit for bit, with a
        result equal to the period folded to 0.0.  A column whose values all
        lie in [-P, 2P), P the period, takes at most one period step
        instead, which is what ``np.mod`` computes there: a + 0.0 on [0, P)
        (turning -0.0 into +0.0), a - P on [P, 2P), exact by Sterbenz's
        lemma, and fl(a + P) on [-P, 0).  Any other column, or one holding
        NaN or inf, uses ``np.mod``.
        """
        out = np.array(pts, dtype=float, copy=True)
        for i in self.periodic_idx:
            period = self.coords[i].period
            # A contiguous copy: the in-place steps below run faster on it
            # than on the strided column view.
            col = out[:, i].copy()
            # NaN fails both comparisons and takes np.mod; an empty column passes.
            if np.min(col, initial=0.0) >= -period and np.max(col, initial=0.0) < 2 * period:
                col -= period * (col >= period)
                col += period * (col < 0.0)
            else:
                col = np.mod(col, period)
            # fl(a + P) rounds a tiny negative coordinate up to the period.
            col[col == period] = 0.0
            out[:, i] = col
        return out

    def interior_margins(self, pts: np.ndarray, finite: np.ndarray | None = None) -> np.ndarray:
        """Distance to the boundary along interval coordinates (min over them).

        Periodic coordinates impose no constraint.  A row with a non-finite
        coordinate yields -inf so it registers as a violation; ``finite``,
        when given, is that row mask, ``_row_all(np.isfinite(pts))``, already
        computed by the caller.
        """
        margins = np.full(len(pts), np.inf)
        for i in self.interval_idx:
            c = self.coords[i]
            np.minimum(margins, np.minimum(pts[:, i] - c.lo, c.hi - pts[:, i]), out=margins)
        margins[~(_row_all(np.isfinite(pts)) if finite is None else finite)] = -np.inf
        return margins

    def contains(self, pts: np.ndarray) -> np.ndarray:
        """``interior_margins(pts) >= -CONTAINS_TOL``: finite rows within
        ``CONTAINS_TOL`` of every interval, by the same subtractions."""
        inside = _row_all(np.isfinite(pts))
        for i in self.interval_idx:
            c = self.coords[i]
            inside &= pts[:, i] - c.lo >= -CONTAINS_TOL
            inside &= c.hi - pts[:, i] >= -CONTAINS_TOL
        return inside

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
        """Low-discrepancy points covering the chart: ``halton``'s own
        column-major array, scaled in place to ``lo + u * (hi - lo)`` (the
        same products, and the sum in the other order, so the same bits)."""
        if n < 1:
            raise ValueError("sample count must be positive")
        u = halton(n, self.dim, rng_seed)
        lo = self.lows()
        u *= self.highs() - lo
        u += lo
        return u

    def probe_points(self, cap: int = 8192) -> np.ndarray:
        """Deterministic corner/edge probes: interval coordinates at
        lo/mid/hi, circle factors at four phases."""
        axes = []
        for c in self.coords:
            if c.is_periodic:
                axes.append([0.0, c.period / 4, c.period / 2, 3 * c.period / 4])
            else:
                axes.append([c.lo, 0.5 * (c.lo + c.hi), c.hi])
        # Every stride-th row of the product of the axes, last coordinate
        # fastest, from Python-int indices: it passes 2**63 rows at d = 37.
        total = math.prod(len(a) for a in axes)
        idx = np.array(range(0, total, -(-total // cap)), dtype=object)
        pts = np.empty((len(idx), self.dim))
        for j in reversed(range(self.dim)):
            pts[:, j] = np.asarray(axes[j])[(idx % len(axes[j])).astype(np.intp)]
            idx //= len(axes[j])
        return pts


@dataclass(frozen=True)
class OneForm:
    """Coefficient evaluator of a 1-form in chart coordinates.

    The evaluator receives (N, dim) float points and returns (N, dim)
    coefficients.
    """

    evaluator: Callable[[np.ndarray], np.ndarray]
    label: str = ""

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        return np.asarray(self.evaluator(np.asarray(pts, dtype=float)), dtype=float)


@dataclass(frozen=True)
class SmoothMap:
    """Smooth map with analytic Jacobian when available, else central FD.

    ``forward``, ``jacobian`` and ``inverse`` receive (N, dim) float points.
    ``forward`` returns (N, dim) points and ``jacobian`` (N, dim, dim)
    Jacobians, which an affine map may return as a read-only
    ``np.broadcast_to`` view of its one constant matrix (certification then
    takes one determinant per row block, not one per row); ``inverse`` returns
    all B branches of the inverse as an (N, B, dim) array, in or out of the
    chart.
    """

    forward: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray] | None = None
    inverse: Callable[[np.ndarray], np.ndarray] | None = None

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        return np.asarray(self.forward(np.asarray(pts, dtype=float)), dtype=float)

    def jac(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        if self.jacobian is None:
            return fd_jacobian(self.forward, pts, FD_STEP)
        return np.asarray(self.jacobian(pts), dtype=float)


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


class Section(NamedTuple):
    """Angle multiplier and interval rates, in chart order, of a map measured on a fiber.

    The map must send the angle theta to multiplier * theta and the interval
    coordinates x to diag(rates) x + t(theta), so that it sends the boxes of
    a fiber to boxes.  ``torus_builder`` checks the interval part on the
    chart's probe points and raises ``ModelError`` where it fails.
    """
    multiplier: int
    rates: tuple[float, ...]


class Affine(NamedTuple):
    """Interval rates in chart order, and the integer torus matrix with its exact inverse."""
    rates: tuple[float, ...]
    matrix: tuple[tuple[int, ...], ...]
    inverse: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class ContactModel:
    """Chart, contact form, and (optionally) a candidate contraction map.

    Maps that land in a differently-parameterized neighborhood carry a
    separate target chart and the coordinate expression of the same form
    there; self-maps leave both unset.  ``section`` is ``None`` on models
    whose skeleton is measured through their whole image; ``affine`` is
    ``None`` unless ``phi`` was built from it.
    """

    name: str
    chart: Chart
    alpha: OneForm
    phi: SmoothMap | None = None
    target_chart: Chart | None = None
    target_alpha: OneForm | None = None
    g_extension: Callable[[np.ndarray], np.ndarray] | None = None
    section: Section | None = None
    affine: Affine | None = None

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


def _proportionality(pb: np.ndarray, base: np.ndarray):
    """Least-squares factor f with pb ~ f * base, the residual, and the
    larger of the two norms (floored) as residual scale."""
    denom = np.einsum("ni,ni->n", base, base)
    num = np.einsum("ni,ni->n", pb, base)
    with np.errstate(divide="ignore", invalid="ignore"):
        f = num / denom
        # Row norms as np.linalg.norm(x, axis=1) computes them.
        r = pb - f[:, None] * base
        resid = np.sqrt(_row_sum(r * r))
    scale = np.maximum(np.maximum(np.sqrt(_row_sum(pb * pb)), np.sqrt(denom)), 1e-300)
    return f, resid, scale


def model_conformal_factors(model: ContactModel, pts: np.ndarray):
    """Vectorized conformal factors with residual diagnostics (no raising)."""
    if model.phi is None:
        raise ModelError("model has no map")
    pb, q, _ = pullback(model.phi, model.codomain_alpha, pts, model.codomain)
    f, resid, scale = _proportionality(pb, model.alpha(pts))
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


def contact_check(form: OneForm, pts: np.ndarray) -> np.ndarray:
    """Top-form coefficient of alpha wedge (d alpha)^m, dim = 2m + 1, at
    (N, d) points, as an (N,) array.

    d alpha comes from central finite differences; the coefficient is
    m! Pf([[0, alpha], [-alpha^T, d alpha]]).
    """
    pts = np.asarray(pts, dtype=float)
    jac = fd_jacobian(form, pts, FD_STEP)
    n, d = pts.shape
    bordered = np.zeros((n, d + 1, d + 1))
    bordered[:, 0, 1:] = form(pts)
    bordered[:, 1:, 0] = -bordered[:, 0, 1:]
    bordered[:, 1:, 1:] = np.swapaxes(jac, 1, 2) - jac
    return math.factorial((d - 1) // 2) * _pfaffian(bordered)


# -- contraction certification ------------------------------------------------

# Rows per block for certify_contraction, descent_check and attractor
# iteration: a block's temporaries stay in cache.
_BLOCK_ROWS = 8192


def _row_blocks(*parts: np.ndarray):
    """Blocks of ``_BLOCK_ROWS`` consecutive rows of ``parts`` stacked end to
    end, without the stack: a block inside one part is a view of its rows,
    in that part's layout, and only a block across a seam is joined, in C
    order as ``np.vstack`` gives it."""
    starts = np.cumsum([0, *map(len, parts)]).tolist()
    for i in range(0, starts[-1], _BLOCK_ROWS):
        j = min(i + _BLOCK_ROWS, starts[-1])
        pieces = [p[max(i - s, 0) : j - s] for p, s in zip(parts, starts)
                  if s < j and i < s + len(p)]
        yield pieces[0] if len(pieces) == 1 else np.concatenate(pieces)


def _determinants(jac: np.ndarray) -> np.ndarray:
    """Determinants of (N, d, d) Jacobians.  A broadcast view of one matrix
    (row stride 0, as ``_affine_map`` returns its Jacobian) takes one LAPACK
    call, on its first matrix, broadcast to every row: the bits LAPACK gives
    each row of the batch.  Any other batch, a materialised constant one
    included, takes the batch call."""
    if jac.strides[0] == 0:
        return np.broadcast_to(np.linalg.det(jac[:1]), len(jac))
    return np.linalg.det(jac)


def certify_contraction(
    model: ContactModel,
    samples: int = 10_000,
    tol: float = 1e-8,
    rng_seed: int = 0,
) -> ContractionCertificate:
    """Sample the chart (plus deterministic corner probes) and check the
    three contraction axioms; per-axiom verdicts are recorded, not thrown.

    The sample and the probes are taken in row blocks as a stack of the two
    would hold them, without the stack, and each block is folded to its
    figures at once, so the sample is the only ``(N, d)`` array held."""
    if model.phi is None:
        raise ModelError("model has no map to certify")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    chart = model.chart
    codomain = model.codomain
    sample = chart.sample(samples, rng_seed)
    probes = chart.probe_points()
    inverse = model.phi.inverse

    def block(x: np.ndarray) -> tuple:
        """The figures of one block of rows, laid out in C order as a stack
        of the sample and the probes would hold them: its count of
        non-finite images and least margin; its least finite |det| and whether every |det| is finite;
        its collisions; whether d3 holds at every row; and its least and
        greatest finite factor, greatest finite residual and least and
        greatest g = -log f.  A min over no value is inf, a max -inf."""
        x = np.ascontiguousarray(x)
        pb, q, jac = pullback(model.phi, model.codomain_alpha, x, codomain)
        finite = _row_all(np.isfinite(q))
        collisions = 0
        with np.errstate(all="ignore"):
            dets = np.abs(_determinants(jac))
            if inverse is not None:
                pre = inverse(q[finite])
                branches = np.zeros(len(pre), dtype=np.intp)
                for k in range(pre.shape[1]):
                    branches += chart.contains(pre[:, k])
                collisions = int(np.count_nonzero(branches != 1))
        finite_det = np.isfinite(dets)
        f, resid, scale = _proportionality(pb, model.alpha(x))
        finite_f = np.isfinite(f)
        with np.errstate(over="ignore"):  # a tol near DBL_MAX admits every finite residual
            ok = finite_f & (resid <= tol * scale) & (f > 0.0) & (f < 1.0)
        g = -np.log(f[finite_f & (f > 0.0)])
        return (
            len(x) - int(np.count_nonzero(finite)),
            np.min(codomain.interior_margins(q, finite)),
            np.min(dets, initial=np.inf, where=finite_det),
            bool(finite_det.all()),
            collisions,
            bool(ok.all()),
            np.min(f, initial=np.inf, where=finite_f),
            np.max(f, initial=-np.inf, where=finite_f),
            np.max(resid, initial=-np.inf, where=np.isfinite(resid)),
            np.min(g, initial=np.inf),
            np.max(g, initial=-np.inf),
        )

    # Each figure folds over the blocks by the one of min, max, sum and all
    # it is; these are exact and blind to the order and the blocking.
    folds = (sum, min, min, all, sum, all, min, max, max, min, max)
    (non_finite, margin_min, det_min, dets_finite, collisions, d3_ok,
     f_min, f_max, resid_max, g_min, g_max) = (
        fold(col) for fold, col in zip(folds, zip(*map(block, _row_blocks(sample, probes)))))

    def finite_or_none(x) -> float | None:
        """A figure with no finite value is reported as None (JSON null)."""
        return float(x) if math.isfinite(x) else None

    notes: list[str] = []
    if non_finite:
        notes.append(f"{non_finite} samples mapped to non-finite points")
    d1_min = None if non_finite else float(margin_min)
    d1 = {
        "min_margin": d1_min,
        "required_margin": INTERIOR_MARGIN,
        "pass": bool(d1_min is not None and d1_min >= INTERIOR_MARGIN),
    }

    det_min = float(det_min) if det_min < np.inf else 0.0
    if inverse is None:
        collisions = None
        notes.append("injectivity not checked: the map has no inverse")
    d2 = {
        "min_abs_det": det_min,
        "collisions": collisions,
        "pass": bool(dets_finite and det_min >= tol and collisions == 0),
    }

    if f_min == np.inf:
        notes.append("no sample has a finite conformal factor")
    d3 = {
        "pass": d3_ok,
        "factor_min": finite_or_none(f_min),
        "factor_max": finite_or_none(f_max),
        "max_residual": finite_or_none(resid_max),
        "g_min": finite_or_none(g_min),
        "g_max": finite_or_none(g_max),
    }

    return ContractionCertificate(
        model=model.name,
        sample_count=samples + len(probes),
        tol=tol,
        d1=d1,
        d2=d2,
        d3=d3,
        notes=tuple(notes),
    )


# -- built-in models ----------------------------------------------------------

# The built-in 3-D models share two contact forms, by coefficient vector.

def _alpha_1_mx3(p):
    """(1, -x3, 0): dz - p dq on the jet space, dtheta - y dx on the knot."""
    out = np.zeros_like(p)
    out[:, 0] = 1.0
    out[:, 1] = -p[:, 2]
    return out


def _alpha_x3_1(p):
    """(x3, 1, 0): dx + y dtheta on the solenoid and the knot's target."""
    out = np.zeros_like(p)
    out[:, 0] = p[:, 2]
    out[:, 1] = 1.0
    return out


def _affine_map(chart: Chart, affine: Affine) -> SmoothMap:
    """Interval coordinates times ``affine.rates``, circle coordinates x to A x:
    the map, its constant Jacobian and its one inverse branch."""
    iv, pe, d = list(chart.interval_idx), list(chart.periodic_idx), chart.dim
    rates = np.array(affine.rates)
    a, a_inv = np.array(affine.matrix, dtype=float), np.array(affine.inverse, dtype=float)
    jac_const = np.zeros((d, d))
    jac_const[iv, iv] = rates
    jac_const[np.ix_(pe, pe)] = a

    def forward(p):
        out = np.empty_like(p)
        out[:, iv] = p[:, iv] * rates
        out[:, pe] = np.dot(p[:, pe], a.T)
        return out

    def jacobian(p):
        return np.broadcast_to(jac_const, (len(p), d, d))

    def inverse(p):
        out = np.empty_like(p)
        out[:, iv] = p[:, iv] / rates
        out[:, pe] = np.dot(p[:, pe], a_inv.T)
        return out[:, None, :]

    return SmoothMap(forward, jacobian, inverse)


def _jet_space_model() -> ContactModel:
    chart = Chart(
        (
            Coord.interval("z", -1.0, 1.0),
            Coord.circle("q", 1.0),
            Coord.interval("p", -1.0, 1.0),
        )
    )
    affine = Affine((0.5, 0.5), ((1,),), ((1,),))
    return ContactModel(
        name="jet_space",
        chart=chart,
        alpha=OneForm(_alpha_1_mx3, "dz - p dq"),
        phi=_affine_map(chart, affine),
        section=Section(1, affine.rates),
        affine=affine,
    )


def _solenoid_model() -> ContactModel:
    chart = Chart(
        (
            Coord.circle("theta", TWO_PI),
            Coord.interval("x", -1.0, 1.0),
            Coord.interval("y", -1.0, 1.0),
        )
    )

    def forward(p):
        th = p[:, 0]
        return np.column_stack(
            [2.0 * th, p[:, 1] / 10.0 + np.cos(th) / 2.0, p[:, 2] / 20.0 + np.sin(th) / 4.0]
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
        alpha=OneForm(_alpha_x3_1, "dx + y dtheta"),
        phi=SmoothMap(forward, jacobian, inverse),
        section=Section(2, (0.1, 0.05)),
    )


def _transverse_knot_model(c=0.1, delta=1e-3, eps=0.5) -> ContactModel:
    c, delta, eps = float(c), float(delta), float(eps)
    if not all(math.isfinite(v) and v > 0 for v in (c, delta, eps)):
        raise ValueError("transverse_knot parameters must be finite and positive")
    # The map and its Jacobian take c*delta, c/delta and c*delta**2; one that
    # overflows or underflows to 0 leaves NaN and infinite margins and factors
    # (and delta**2 raises in Python floats once it overflows).
    if not all(math.isfinite(v) and v > 0 for v in (c * delta, c / delta, c * (delta * delta))):
        raise ValueError(f"transverse_knot c = {c:g}, delta = {delta:g} are out of range: "
                         "c*delta, c/delta and c*delta**2 must be finite and nonzero")
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
        alpha=OneForm(_alpha_1_mx3, "dtheta - y dx"),
        phi=SmoothMap(forward, jacobian, inverse),
        target_chart=target,
        target_alpha=OneForm(_alpha_x3_1, "dx_bar + y_bar dtheta_bar"),
        g_extension=g_ext,
    )


_BUILDERS = {
    "jet_space": _jet_space_model,
    "solenoid": _solenoid_model,
    "transverse_knot": _transverse_knot_model,
}
BUILTIN_MODELS = tuple(_BUILDERS)


def builtin_model(name: str, params: dict | None = None) -> ContactModel:
    """Construct a built-in model with hard-coded analytic Jacobians; ``params``
    other than the knot's ``c``, ``delta`` and ``eps`` raise ``TypeError``."""
    builder = _BUILDERS.get(name.replace("-", "_"))
    if builder is None:
        raise UnknownModel(f"unknown model {name!r}")
    return builder(**(params or {}))


# -- hyperbolic torus model ---------------------------------------------------

def _left_eigenvector(poly: IntPolynomial, ms: list, interval: tuple, lam: float) -> np.ndarray:
    """Unit left eigenvector, first nonzero entry positive, for the root in
    ``interval``: the largest row of b^(n-1) adj(a/b I - A) = sum_k
    a^(n-k) b^(k-1) M_k in exact integers at the midpoint a/b of the interval
    refined to width |lam| 2^-60, divided by its largest |entry| in
    correctly rounded int/int division.  ``lam`` is not passed as a guess:
    it is the midpoint of an interval already narrower than 1e-12, no
    nearer the root than that, so a gallop from it would take about twice
    the 20 or so sign tests of bisection."""
    lo, hi = refine_root(poly, tuple(map(Fraction, interval)), Fraction(abs(lam)) / 2**60)
    mid = (lo + hi) / 2
    a, b, n = mid.numerator, mid.denominator, len(ms)
    w = [a ** (n - k) * b ** (k - 1) for k in range(1, n + 1)]
    adj = [[sum(wk * m[i][j] for wk, m in zip(w, ms)) for j in range(n)] for i in range(n)]
    row = max(adj, key=lambda r: sum(v * v for v in r))
    top = max(abs(v) for v in row)
    v = np.array([x / top for x in row])
    v /= np.linalg.norm(v)
    return -v if v[np.flatnonzero(np.abs(v) > 1e-9)[0]] < 0 else v


def anosov_model(A: IntMatrix, cert: SpectrumCertificate) -> ContactModel:
    """Contact model on disk x torus from a certified all-real-spectrum
    unit-determinant matrix whose smallest-magnitude eigenvalue is positive.

    The form coefficients are exact left eigenvectors, rows of the trace
    recursion's adj(lam I - A) rounded once to unit floats.  The map
    contracts each disk coordinate by lambda_n / lambda_i and acts on the
    torus by A, its inverse by A^-1 = (-1)^(n+1) M_n from the same recursion.
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
    poly, ms = trace_recursion(A)
    if poly.coeffs[0] != (-1) ** n:
        raise ValueError("matrix determinant must be exactly 1")
    idx = [int(i) for i in order[1:]][::-1] + [int(order[0])]  # beta_1..beta_n, descending
    B = np.vstack([_left_eigenvector(poly, ms, cert.root_intervals[i], roots[i]) for i in idx])
    inverse = tuple(tuple((-1) ** (n + 1) * v for v in row) for row in ms[-1])
    affine = Affine(tuple(float(lam_n / roots[i]) for i in idx[:-1]), A.entries, inverse)

    coords = tuple(
        Coord.interval(f"y{i + 1}", -1.0, 1.0) for i in range(n - 1)
    ) + tuple(Coord.circle(f"x{i + 1}", 1.0) for i in range(n))
    chart = Chart(coords)

    def alpha(p):
        out = np.zeros_like(p)
        out[:, n - 1 :] = B[n - 1][None, :] + p[:, : n - 1] @ B[: n - 1]
        return out

    return ContactModel(
        name="anosov",
        chart=chart,
        alpha=OneForm(alpha, "beta_n + sum y_i beta_i"),
        phi=_affine_map(chart, affine),
        affine=affine,
    )
