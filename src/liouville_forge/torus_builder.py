"""Partial mapping torus assembly and attractor exploration.

Builds the suspension-with-varying-roof model over a certified contraction,
checks that the rescaled contact form survives the gluing, verifies boundary
transversality after the collar tilt, and measures the skeleton attractor
by box and cluster counting on one grid.  A model with a section is measured
exactly, on the multiplier^depth boxes that make up the depth-d image's
fiber; an affine model (anosov) exactly, on its depth-d image, a box times
the torus; any other model through a cloud of iterated seeds.
``section_cloud`` places a seed cloud on the section boxes in closed form,
for export.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .contact_kernel import (
    Chart,
    ContactModel,
    ModelError,
    _BLOCK_ROWS,
    _row_blocks,
    halton,
    model_conformal_factors,
    pullback,
)

__all__ = [
    "GExtension",
    "MappingTorusModel",
    "SkeletonSample",
    "BoxCountResult",
    "SkeletonAnalysis",
    "EmptySection",
    "DegenerateCloud",
    "constant_roof",
    "extend_G",
    "build_mapping_torus",
    "descent_check",
    "boundary_transversality_check",
    "iterate_attractor",
    "section_cloud",
    "cross_section",
    "count_clusters",
    "suggested_section_gap",
    "box_counting_dimension",
    "skeleton_analysis",
    "export_cloud_csv",
]


class EmptySection(Exception):
    """No sample points fell inside the requested cross-section slab."""


class DegenerateCloud(ValueError):
    """All cloud points coincide; box counting is meaningless."""


@dataclass(frozen=True)
class GExtension:
    """Positive roof function on the map's codomain chart, read at points
    already reduced into it: the roof over x is G(phi(x)).

    ``constant`` is set when the function is a single value (the usual case
    for the built-in models, whose conformal factor is constant).
    """

    evaluate: Callable[[np.ndarray], np.ndarray]
    mode: str
    constant: float | None = None
    meta: dict = field(default_factory=dict)

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        return np.asarray(self.evaluate(pts), float)


@dataclass(frozen=True)
class MappingTorusModel:
    """Contraction model plus roof extension plus collar tilt width."""

    base: ContactModel
    G: GExtension
    tilt_eps: float = 0.1

    def __post_init__(self) -> None:
        if self.base.phi is None:
            raise ModelError("model has no map")
        # The collar radius 1 - tilt_eps*t must stay positive: a tilt of 1
        # puts a collar point at the chart's centre, a wider one reflects it.
        if not 0.0 <= self.tilt_eps < 1.0:
            raise ValueError("tilt_eps must be at least 0 and below 1")
        g0 = self.G.constant
        if g0 is not None and not (math.isfinite(g0) and g0 > 0):
            raise ValueError("a constant roof must be finite and positive")
        # descent_check takes e^(s+G) for s up to G, which overflows from here.
        if g0 is not None and 2.0 * g0 >= math.log(sys.float_info.max):
            raise ValueError(f"a constant roof G = {g0:g} is too large to check: "
                             "2G must stay below log(DBL_MAX) = 709.78")


@dataclass(frozen=True)
class SkeletonSample:
    """Point cloud approximating the attractor, and the chart it lives on."""

    points: np.ndarray
    chart: Chart


@dataclass(frozen=True)
class BoxCountResult:
    scales: tuple[float, ...]
    counts: tuple[int, ...]
    slope: float
    r2: float

    def to_dict(self) -> dict:
        return {
            "scales": list(self.scales),
            "counts": list(self.counts),
            "slope": self.slope,
            "r2": self.r2,
        }


@dataclass(frozen=True)
class SkeletonAnalysis:
    estimate: float
    route: str
    box: BoxCountResult
    section_clusters: int | None
    depth: int
    seeds: int
    evidence: str  # a key of contact_kernel.EVIDENCE
    centres: np.ndarray | None = None  # the section route's box centres; not reported
    resolved_scales: int | None = None  # the affine route's scales >= the image's half-width
    note: str | None = None

    def to_dict(self) -> dict:
        out = {
            "estimate": self.estimate,
            "route": self.route,
            "evidence": self.evidence,
            "box_counting": self.box.to_dict(),
            "section_clusters": self.section_clusters,
            "depth": self.depth,
            "seeds": self.seeds,
        }
        for key in ("resolved_scales", "note"):
            if getattr(self, key) is not None:
                out[key] = getattr(self, key)
        return out


# -- roof extension -----------------------------------------------------------

def constant_roof(g0: float) -> Callable[[np.ndarray], np.ndarray]:
    """Roof evaluator with the value ``g0`` at every point."""
    return lambda pts: np.full(len(pts), g0)


# Chart samples, besides the corner probes, at which extend_G reads the exponent.
_ROOF_SAMPLES = 2048


def extend_G(base: ContactModel, rng_seed: int = 0) -> GExtension:
    """Extend the contraction exponent off the image of the map.

    Uses the model's own exact extension when it supplies one, checked
    against the sampled exponent on the image, and returns it as it is: it
    is read only at points already reduced into the codomain chart.
    Otherwise the constant median of the sampled exponent, exact only for a
    constant conformal factor.  ``meta["spread"]`` records how far the
    samples vary; ``descent_check`` decides whether the constant roof works.
    """
    x = np.vstack([base.chart.sample(_ROOF_SAMPLES, rng_seed), base.chart.probe_points(cap=512)])
    f, fit_resid, scale, q = model_conformal_factors(base, x)
    valid = np.isfinite(f) & (f > 0.0) & (f < 1.0) & (fit_resid <= 1e-6 * scale)
    if not valid.any():
        raise ModelError("no valid conformal factors; is the model a contraction?")
    g = -np.log(f[valid])
    if base.g_extension is not None:
        resid = float(np.max(np.abs(np.asarray(base.g_extension(q[valid]), float) - g)))
        if resid > 1e-8:
            raise ModelError(f"model extension fails on the image: {resid:.3e}")
        return GExtension(base.g_extension, "model", None, {"extension_residual": resid})

    g0 = float(np.median(g))
    return GExtension(constant_roof(g0), "constant", g0, {"spread": float(np.ptp(g))})


def build_mapping_torus(
    base: ContactModel, tilt_eps: float = 0.1, rng_seed: int = 0, force_G: float | None = None
) -> MappingTorusModel:
    """The mapping torus over ``base`` with the roof ``extend_G`` reads off
    it, or, given ``force_G``, the constant roof of that value (mode
    ``"forced"``), which samples nothing.  ``descent_check`` tells whether
    the roof glues."""
    if force_G is None:
        G = extend_G(base, rng_seed=rng_seed)
    else:
        G = GExtension(constant_roof(force_G), "forced", force_G)
    return MappingTorusModel(base=base, G=G, tilt_eps=tilt_eps)


# -- descent of the rescaled form ---------------------------------------------

def descent_check(model: MappingTorusModel, samples: int = 1000, rng_seed: int = 0) -> float:
    """Max descent residual |e^(s+G(phi x)) phi^*alpha - e^s alpha| over
    sampled (s, x) with s in [0, G(phi x)], the fiber over x, returned for
    the caller to judge, NaN included, as ``boundary_transversality_check``
    returns its margin.  The form e^s alpha has no ds term, so dG never
    enters its pullback through the gluing map and only the Jacobian of phi
    does.  One pass over row blocks maps each block, reads the roof at
    its images and keeps the block's largest defect only."""
    if samples < 1:
        raise ValueError("samples must be positive")
    base = model.base
    chart = base.chart
    lo, hi = chart.lows(), chart.highs()

    def defect(ub: np.ndarray) -> np.float64:
        x = lo + ub[:, : chart.dim] * (hi - lo)
        pb, q, _ = pullback(base.phi, base.codomain_alpha, x, base.codomain)
        g = model.G(q)
        s = ub[:, chart.dim] * g
        d = np.exp(s + g)[:, None] * pb - np.exp(s)[:, None] * base.alpha(x)
        return np.max(np.abs(d))

    u = halton(samples, chart.dim + 1, rng_seed)
    return float(np.max([defect(block) for block in _row_blocks(u)]))


# -- boundary -----------------------------------------------------------------

def boundary_transversality_check(
    model: MappingTorusModel, samples: int = 256, rng_seed: int = 0
) -> float:
    """Minimum pairing of the flow direction with outward conormals.

    Tilted collar faces contribute eps/G, with the roof read over each
    collar point x as G(phi(x)), as ``descent_check`` reads it; roof faces
    contribute exactly 1 (the flow component of ds - dG).  A zero tilt
    gives a tangency and a zero margin.
    """
    base = model.base
    chart = base.chart
    pts = chart.sample(samples, rng_seed)
    # Push the interval coordinates out into the collar shell.
    r = np.maximum(chart.normalized_radius(pts), 1e-12)
    target = 1.0 - model.tilt_eps * np.linspace(0.0, 1.0, len(pts))
    scale = target / r
    collar = pts.copy()
    for i in chart.interval_idx:
        c = chart.coords[i]
        mid = 0.5 * (c.lo + c.hi)
        collar[:, i] = mid + (collar[:, i] - mid) * scale
    g_vals = model.G(base.codomain.reduce(base.phi(collar)))
    with np.errstate(over="ignore"):  # a roof near 0 pairs at inf, capped at 1
        return min(float(np.min(model.tilt_eps / g_vals)), 1.0)


# -- attractor iteration ------------------------------------------------------

def _require_self_map(model: ContactModel, depth: int) -> None:
    if model.phi is None or not model.is_self_map:
        raise ModelError("attractor iteration needs a self-map model")
    if depth < 0:
        raise ValueError("depth must be nonnegative")


# _iterate takes _BLOCK_ROWS rows through every step while they sit in cache;
# export_cloud_csv formats _CSV_ROWS rows per write, with about twenty uint64
# temporaries per value: 2048 rows keep them near 1 MiB at three columns, and
# twice as many rows write no faster.
_CSV_ROWS = 2048
# export_cloud_csv keeps at most this many rows, taking every k-th point above it.
_CSV_MAX_ROWS = 10_000_000


def _iterate(model: ContactModel, pts: np.ndarray, depth: int) -> np.ndarray:
    """``pts`` pushed through the map ``depth`` times in place, block by block;
    rows never mix, so the block size does not change them."""
    for start in range(0, len(pts), _BLOCK_ROWS):
        block = pts[start : start + _BLOCK_ROWS]
        for _ in range(depth):
            block = model.chart.reduce(model.phi(block))
        pts[start : start + _BLOCK_ROWS] = block
    return pts


def _row_keys(cells: np.ndarray) -> np.ndarray:
    """One key per row of a non-empty integer array, equal exactly when the
    rows are equal: a ``void`` view of the rows (byte order is not numeric
    order, equality is exact)."""
    rows = np.ascontiguousarray(cells)
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()


def iterate_attractor(
    model: ContactModel,
    depth: int,
    seeds: int,
    rng_seed: int = 0,
) -> SkeletonSample:
    """Push a quasi-random cloud through the map ``depth`` times.

    The image cloud lies in the depth-fold image of the chart, which
    contains the attractor and converges to it in Hausdorff distance.  It
    holds one image row per seed, in seed order; rows that coincide stay,
    since a box count counts distinct cells.
    """
    _require_self_map(model, depth)
    pts = _iterate(model, model.chart.sample(seeds, rng_seed), depth)
    return SkeletonSample(points=pts, chart=model.chart)


def _section_boxes(model: ContactModel, depth: int,
                   theta0: float) -> tuple[np.ndarray, np.ndarray]:
    """Centres (a row per branch) and half-widths of the interval boxes that
    make up the depth-d image's fiber at ``theta0``: the chart's box pushed d
    times through the map, branch k's angle at step j taken from the integer
    k·m^j mod m^d.  ``ModelError`` for a section record that does not fit the
    chart, or unless the map is affine as ``Section`` states, to 1e-9 of the
    chart's half-widths on its probe points, and ``DegenerateCloud`` for
    boxes of zero width, before the map runs on a centre."""
    _require_self_map(model, depth)
    chart, section, iv = model.chart, model.section, list(model.chart.interval_idx)
    if len(chart.periodic_idx) != 1:
        raise ModelError("section seeding needs exactly one circle factor")
    if section is None or not (isinstance(section.multiplier, int) and section.multiplier >= 1):
        raise ModelError("model does not declare a section with an integer multiplier >= 1")
    if len(section.rates) != len(iv):
        raise ModelError("a section needs one rate per interval coordinate")
    mid, half = (chart.lows() + chart.highs()) / 2, (chart.highs() - chart.lows())[iv] / 2
    probe = chart.probe_points()
    at_mid = np.where(np.isin(np.arange(chart.dim), iv), mid, probe)
    with np.errstate(all="ignore"):
        shift = model.phi(probe)[:, iv] - model.phi(at_mid)[:, iv]
    if not np.all(np.abs(shift - (probe - at_mid)[:, iv] * section.rates) <= 1e-9 * half):
        raise ModelError("the section's map is not diag(rates)·x + t(theta) on the probe points")
    half = half * np.abs(np.array(section.rates)) ** depth
    if not np.all(half > 0):
        raise DegenerateCloud(f"the depth-{depth} boxes have zero width: all points coincide")
    pi_idx, m = chart.periodic_idx[0], section.multiplier
    period, branches = chart.coords[pi_idx].period, m**depth
    index, pts = np.arange(branches), np.tile(mid, (branches, 1))
    for j in range(depth):
        pts[:, pi_idx] = (theta0 % period * m**j + period * index) / branches
        pts = model.phi(pts)
        index = index * m % branches
    return pts[:, iv], half


def section_cloud(
    model: ContactModel,
    depth: int,
    seeds_per_branch: int,
    theta0: float = 0.0,
    rng_seed: int = 0,
    centres: np.ndarray | None = None,
) -> SkeletonSample:
    """Depth-d image cloud restricted exactly to the fiber at ``theta0``,
    placed on the boxes of ``_section_boxes`` (and refused as they are):
    as ``Section`` states, d steps from branch k's preimage of ``theta0``
    send a seed x of the chart's interval box to centre_k + diag(rates)^d·
    (x − mid), signs kept, and its angle to ``theta0 % period``.  So every
    point lies on the fiber at any finite angle, and the map runs only on the
    box centres.  Rows run branch by branch, the Halton seeds in order.
    ``centres``, when given, are those boxes' centres as the section route of
    ``skeleton_analysis`` keeps them for the same model, depth and angle, so
    the boxes are not built again."""
    if centres is None:
        centres, _ = _section_boxes(model, depth, theta0)
    chart = model.chart
    pi_idx = chart.periodic_idx[0]
    u = halton(seeds_per_branch, len(chart.interval_idx), rng_seed)
    pts = np.empty((len(centres), seeds_per_branch, chart.dim))
    pts[:, :, pi_idx] = theta0 % chart.coords[pi_idx].period
    for col, (i, rate) in enumerate(zip(chart.interval_idx, model.section.rates)):
        c = chart.coords[i]
        step = (c.lo + u[:, col] * (c.hi - c.lo) - (c.lo + c.hi) / 2) * rate**depth
        np.add(centres[:, col, None], step, out=pts[:, :, i])
    return SkeletonSample(points=pts.reshape(-1, chart.dim), chart=chart)


def cross_section(
    sample: SkeletonSample, theta0: float, thickness: float
) -> np.ndarray:
    """Interval-coordinate projection of sample points near a fiber angle."""
    chart = sample.chart
    if len(chart.periodic_idx) != 1:
        raise ModelError("cross sections need exactly one circle factor")
    pi_idx = chart.periodic_idx[0]
    period = chart.coords[pi_idx].period
    ang = np.mod(sample.points[:, pi_idx] - theta0, period)
    dist = np.minimum(ang, period - ang)
    mask = dist < thickness
    if not mask.any():
        raise EmptySection(f"no points within {thickness} of the fiber angle")
    return sample.points[mask][:, chart.interval_idx]


def _column_extremes(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column minima and maxima of an (N, d) array, else ``ValueError`` for a non-finite
    point; one reduction per column, as an axis-0 one over row-major rows is 10x slower."""
    cols = [pts[:, j] for j in range(pts.shape[1])]
    lo, hi = np.array([c.min() for c in cols]), np.array([c.max() for c in cols])
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise ValueError("points must be finite")
    return lo, hi


def _grid(lo: np.ndarray, hi: np.ndarray, org: np.ndarray,
          size: float) -> tuple[np.ndarray, list[int]]:
    """First cells and cell spans per column of a cloud with column extremes
    ``lo`` and ``hi`` on the grid of side ``size`` from ``org``; the extremes
    bound every cell index, and one outside int64 raises ``ValueError``."""
    with np.errstate(over="ignore"):
        first, last = np.floor((lo - org) / size), np.floor((hi - org) / size)
    if not (np.all(first >= -(2.0**63)) and np.all(last < 2.0**63)):
        raise ValueError(f"a cell index at scale {size:g} does not fit in int64")
    return first, [int(b) - int(a) + 1 for a, b in zip(first, last)]


def _cell_keys(pts: np.ndarray, org: np.ndarray, size: float, first: np.ndarray,
               radices: Sequence[int], out: np.ndarray) -> np.ndarray:
    """``out`` filled with each row's cell, floor((x - org) / size) - first,
    in mixed radix over ``radices``, ``_BLOCK_ROWS`` rows and then one column
    at a time; a uint64 ``out`` wraps mod 2^64, an int64 one must hold the product."""
    x = np.empty(min(len(pts), _BLOCK_ROWS))
    cell = np.empty(len(x), out.dtype)
    for start in range(0, len(pts), _BLOCK_ROWS):
        rows = pts[start : start + _BLOCK_ROWS]
        keys, xb, c = out[start : start + len(rows)], x[: len(rows)], cell[: len(rows)]
        keys.fill(0)
        for j, (low, radix) in enumerate(zip(first, radices)):
            np.subtract(rows[:, j], org[j], out=xb)
            xb /= size
            np.floor(xb, out=xb)
            c[:] = xb
            c -= int(low)
            keys *= radix
            keys += c
    return out


def _cloud(points: np.ndarray) -> np.ndarray:
    """``points`` as a float (N, d) array with N >= 1, else ``ValueError``."""
    pts = np.asarray(points, float)
    if pts.ndim != 2 or len(pts) == 0:
        raise ValueError(f"points must be a non-empty (N, d) array, got shape {pts.shape}")
    return pts


def _link(parent: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """Merge the edges ``(a, b)`` into ``parent``, a forest in which every
    entry holds its root.  Each round hooks the larger root of every edge
    whose ends differ onto the smallest root it meets, then compresses
    paths by pointer jumping over the entries whose parent was hooked, so
    that every entry again holds its root."""
    while True:
        ra, rb = parent[a], parent[b]
        apart = ra != rb
        if not apart.any():
            return
        a, b, ra, rb = a[apart], b[apart], ra[apart], rb[apart]
        np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
        moved = np.flatnonzero(parent[parent] != parent)
        while len(moved):
            parent[moved] = parent[parent[moved]]
            moved = moved[parent[parent[moved]] != parent[moved]]


def count_clusters(points: np.ndarray, gap: float) -> int:
    """Single-linkage component count at the given gap threshold.

    Two points link when ``Σ dx² <= gap²``, summed over the columns in
    order: the ``d <= r`` rule of ``scipy.spatial.cKDTree.query_pairs``.
    Points are binned on the shared grid (side ``gap``, from the column
    minima), so a linked pair lies in one cell or two adjacent ones.  For
    ``_BLOCK_ROWS`` points at a time, the candidates are the later points of
    a point's own cell and every point of half of its 3^d - 1 neighbouring
    cells (one of each pair of opposite offsets); those that pass the exact
    test become edges.  Each block's edges are merged into one parent array
    by hooking roots and compressing paths (``_link``), and the count is the
    number of roots.

    Raises ``ValueError`` for a gap that is not finite and positive, a
    non-finite point, or a cell index outside int64.
    """
    pts = _cloud(points)
    return _components(pts, np.zeros(pts.shape[1]), gap)


def _components(pts: np.ndarray, half: np.ndarray, gap: float) -> int:
    """``count_clusters`` of the boxes of half-widths ``half`` around the
    rows of ``pts``: two link when ``Σ max(0, |dc| - 2h)² <= gap²``, and the
    grid's side is gap + 2 max h."""
    if not (math.isfinite(gap) and gap > 0):
        raise ValueError(f"gap must be finite and positive, got {gap}")
    n, d = pts.shape
    size = gap + 2.0 * float(np.max(half, initial=0.0))
    lo, hi = _column_extremes(pts)
    base, spans = _grid(lo, hi, lo, size)
    # Cells pack into uint64 keys in mixed radix with a spare digit value per
    # column, so neighbour keys are the cell's key plus a fixed offset and an
    # out-of-range neighbour matches no cell.  Past 2^64 the packing wraps
    # into a hash that is still linear: neighbour keys still match, and a
    # collision only adds candidates that the exact test drops.  Odd radices
    # keep every stride odd, so no stride vanishes mod 2^64.
    radices = [(span + 1) | 1 for span in spans]
    strides = [math.prod(radices[j + 1 :]) % 2**64 for j in range(d)]
    keys = _cell_keys(pts, lo, size, base, radices, np.empty(n, np.uint64))
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    cols = [pts[order, j] for j in range(d)]
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    ends = np.r_[starts[1:], n]
    cell = np.repeat(np.arange(len(starts)), ends - starts)
    cell_keys = keys[starts]
    # The offsets after the centre of {-1, 0, 1}^d in lexicographic order
    # are those whose first non-zero entry is +1.
    steps = np.indices((3,) * d).reshape(d, 3**d).T[3**d // 2 + 1 :] - 1
    shifts = [np.uint64(sum(int(o) * s for o, s in zip(row, strides)) % 2**64) for row in steps]

    limit = gap * gap
    parent = np.arange(n)
    for b in range(0, n, _BLOCK_ROWS):
        src = np.arange(b, min(b + _BLOCK_ROWS, n))
        first, last = [src + 1], [ends[cell[src]]]
        src_keys = keys[src]
        for shift in shifts:
            want = src_keys + shift
            at = np.minimum(np.searchsorted(cell_keys, want), len(cell_keys) - 1)
            hit = cell_keys[at] == want
            first.append(np.where(hit, starts[at], 0))
            last.append(np.where(hit, ends[at], 0))
        first, last = np.concatenate(first), np.concatenate(last)
        take = last - first
        i = np.repeat(np.tile(src, len(shifts) + 1), take)
        k = np.repeat(first - (np.cumsum(take) - take), take) + np.arange(len(i))
        d2 = np.zeros(len(i))
        for c, h in zip(cols, half):
            dx = np.abs(c[i] - c[k]) - 2.0 * h
            np.maximum(dx, 0.0, out=dx)
            d2 += dx * dx
        near = d2 <= limit
        _link(parent, i[near], k[near])
    return int(np.count_nonzero(parent == np.arange(n)))


def suggested_section_gap(model: ContactModel, depth: int) -> float:
    """Linkage threshold between sibling-cluster spacing and in-cluster
    spacing, from the slowest rate of the model's section."""
    if model.section is None:
        raise ModelError("model does not declare a section")
    return 0.25 * min(model.section.rates) ** max(depth - 1, 0)


# -- box counting -------------------------------------------------------------

def _sorted_scales(scales: Sequence[float]) -> list[float]:
    """``scales`` as floats from coarsest to finest; raises ``ValueError``
    for fewer than two, for a repeated, non-finite or non-positive one, for
    one below 1/DBL_MAX (its log(1 / scale) overflows), and for scales so
    close that ``_fit``'s line through their log(1 / scale) values is
    undetermined (``np.polyfit`` finds its system rank-deficient,
    as it does for 0.1 and 0.1000000000000001)."""
    scales = sorted((float(s) for s in scales), reverse=True)
    if len(scales) < 2:
        raise ValueError("need at least two scales")
    if not all(math.isfinite(s) for s in scales):
        raise ValueError("scales must be finite")
    if any(s <= 0 for s in scales):
        raise ValueError("scales must be positive")
    if len(set(scales)) < len(scales):
        raise ValueError("scales must be distinct")
    with np.errstate(over="ignore"):
        xs = _log_inverse(scales)
    if not np.isfinite(xs).all():
        raise ValueError("scales must be at least 1/DBL_MAX: log(1/scale) is not finite")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        np.polyfit(xs, xs, 1)  # the rank test depends on xs alone
    if caught:
        raise ValueError("scales are too close together: no line can be fitted "
                         "through their log(1/scale) values")
    return scales


def _log_inverse(scales: list[float]) -> np.ndarray:
    """log(1 / scale), the abscissae of the box-counting fit."""
    return np.log(1.0 / np.asarray(scales))


def box_counting_dimension(
    points: np.ndarray,
    scales: Sequence[float],
    origin: Sequence[float] | None = None,
) -> BoxCountResult:
    """Occupied-box counts on origin-anchored grids and the log-log slope.

    Raises ``ValueError`` for fewer than two scales, a repeated, non-finite
    or non-positive scale, a non-finite point or origin, a cell index at the
    finest scale outside int64, and (as ``DegenerateCloud``) two or more
    points that all coincide."""
    pts = _cloud(points)
    scales = _sorted_scales(scales)
    lo, hi = _column_extremes(pts)
    if len(pts) > 1 and float(np.max(hi - lo)) == 0.0:
        raise DegenerateCloud("all points coincide")
    org = np.broadcast_to(np.asarray(0.0 if origin is None else origin, float).reshape(-1),
                          pts.shape[1:])
    if not np.isfinite(org).all():
        raise ValueError("origin must be finite")
    grids = [_grid(lo, hi, org, s) for s in scales]
    # Exact int64 cell keys; only spans whose product passes int64 take the row view.
    packed = np.empty(len(pts), np.int64)
    counts = []
    for s, (first, spans) in zip(scales, grids):
        if math.prod(spans) > np.iinfo(np.int64).max:
            keys = np.sort(_row_keys(np.floor((pts - org) / s).astype(np.int64)))
        else:
            keys = _cell_keys(pts, org, s, first, spans, packed)
            keys.sort()
        counts.append(1 + int(np.count_nonzero(keys[1:] != keys[:-1])))
    return _fit(scales, counts)


def _fit(scales: list[float], counts: list[int]) -> BoxCountResult:
    """The least-squares line through log count against log(1 / scale)."""
    xs = _log_inverse(scales)
    ys = np.log(np.asarray(counts, float))
    slope, intercept = np.polyfit(xs, ys, 1)
    fitted = slope * xs + intercept
    ss_res = float(np.sum((ys - fitted) ** 2))
    ss_tot = float(np.sum((ys - np.mean(ys)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return BoxCountResult(
        scales=tuple(scales), counts=tuple(counts), slope=float(slope), r2=float(r2)
    )


# A box meets a cell it covers by more than _EDGE of its side in every coordinate
# (a narrower box meets one cell): an edge rounded onto or a hair past a grid
# line counts no further cell.  A scale lists at most _BOX_CELLS box-cell
# pairs, or 2^k per box for k interval coordinates.
_EDGE, _BOX_CELLS = 1e-9, 1 << 22


def _box_counts(centres: np.ndarray, half: np.ndarray, scales: list[float],
                org: np.ndarray) -> list[int]:
    """Distinct cells of each scale's grid from ``org`` that the open boxes
    meet; ``ValueError`` for a cell index outside int64 or too many cells."""
    lo, hi = _column_extremes(centres)
    counts = []
    for s in scales:
        _grid(lo - half, hi + half, org, s)
        first = np.floor((centres - half - org) / s + _EDGE)
        spans = np.maximum(np.ceil((centres + half - org) / s - _EDGE) - first, 1).astype(int)
        widest = tuple(int(w) for w in spans.max(axis=0))
        if len(centres) * math.prod(widest) > max(_BOX_CELLS, len(centres) << len(half)):
            raise ValueError(f"at scale {s:g} a box meets up to {math.prod(widest)} cells")
        offsets = np.indices(widest).reshape(len(half), -1).T
        cells = first.astype(np.int64)[:, None] + offsets
        keys = np.sort(_row_keys(cells[np.all(offsets < spans[:, None], axis=2)]))
        counts.append(1 + int(np.count_nonzero(keys[1:] != keys[:-1])))
    return counts


def _default_section_scales(rate: float, depth: int) -> tuple[float, ...]:
    if depth < 2:
        return (0.25, 0.125, 0.0625)
    top = max(2, min(depth - 1, 7))
    return tuple(0.5 * rate**j for j in range(1, top + 1))


_DEFAULT_CLOUD_SCALES = (0.25, 0.125, 0.0625, 0.03125)

# An interval count below changes where (end ± h) / s crosses an integer, at
# h = ±(s·k - end) for a float scale s and a float chart end: a multiple of
# 2^-1074.  So every half-width below 2^-1074 counts as _TINY does.
_TINY = Fraction(1, 2**1075)
# Bits of the first bounds on |rate|^d that _affine_counts tries; each retry
# takes four times as many.
_BOUND_BITS = 64


def _power_bounds(x: Fraction, d: int, bits: int) -> tuple[Fraction, Fraction]:
    """Bounds lo <= x**d <= hi for a float 0 < x <= 1: square-and-multiply
    on the integer mantissa, cut to ``bits`` bits after each step, rounding
    lo down and hi up; both are exact once ``bits`` holds x**d's mantissa.
    A bound below 2^-2200 (times a chart end below 2^1024, below _TINY)
    reads as 2^-2200, so that no power builds a denominator past it."""
    m, e = x.numerator, x.denominator.bit_length() - 1  # x = m / 2^e
    bounds = []
    for up in (False, True):
        p, shift = 1, 0
        for bit in bin(d)[2:]:
            p, shift = p * p, 2 * shift
            if bit == "1":
                p *= m
            cut = max(p.bit_length() - bits, 0)
            p, shift = (-(-p >> cut) if up else p >> cut), shift + cut
        exp = shift - e * d
        bounds.append(Fraction(1, 2**2200) if exp + p.bit_length() < -2200
                      else p * Fraction(2) ** exp)
    return bounds[0], bounds[1]


def _affine_counts(model: ContactModel, depth: int, scales: list[float] | None
                   ) -> tuple[list[float], list[int], int, float]:
    """Scales, their exact box counts of the depth-d image, how many scales
    are at least its largest half-width, and that half-width.

    An affine model sends the chart's interval box (centred on 0) to the box
    of half-widths h = end·|rate|^d, and the torus onto itself, so the open
    interval (-h, h) meets ceil((end + h)/s) - floor((end - h)/s) cells of
    the grid from -end, and a circle of period P ceil(P/s).  The counts are
    exact rationals on the float ends, rates and scales.  Each count rises
    with h, so bounds on |rate|^d that give the same results give the exact
    ones; ``_power_bounds`` tightens them until they do.  ``scales`` None
    reads the dyadic 2^-j from 1/2 down to the largest h, at least 1/2 and
    1/4, while every chart point's cell index fits in int64 and the count
    in a float.  Given scales that break either raise ``ValueError``."""
    chart, rates = model.chart, model.affine.rates
    iv, lows, highs = chart.interval_idx, chart.lows(), chart.highs()
    if len(rates) != len(iv):
        raise ModelError("an affine record needs one rate per interval coordinate")
    if not all(0 < abs(r) <= 1 for r in rates):
        raise ModelError("the affine route needs every rate in 0 < |rate| <= 1")
    if not all(lows[i] == -highs[i] for i in iv):
        raise ModelError("the affine route needs interval coordinates centred on 0")
    ends = [Fraction(highs[i]) for i in iv]
    periods = [Fraction(chart.coords[i].period) for i in chart.periodic_idx]

    def fits(s: float) -> bool:
        try:
            _grid(lows, highs, lows, s)
        except ValueError:
            return False
        return True

    def count(s: float, hs: list[Fraction]) -> int:
        s = Fraction(s)
        c = math.prod(math.ceil(p / s) for p in periods)
        for end, h in zip(ends, hs):
            c *= math.ceil((end + h) / s) - math.floor((end - h) / s)
        return c

    def answer(hs: list[Fraction]) -> tuple[list[float], list[int], int]:
        top, found, counts = max(hs), [], []
        for s in scales or (2.0**-j for j in range(1, 1075)):
            c = count(s, hs)
            if scales is None and ((len(found) >= 2 and s < top) or not fits(s)
                                   or c > sys.float_info.max):
                break
            found.append(s)
            counts.append(c)
        return found, counts, sum(s >= top for s in found)

    for s in scales or ():
        _grid(lows, highs, lows, s)
    bits = _BOUND_BITS
    while True:
        bounds = [_power_bounds(Fraction(abs(r)), depth, bits) for r in rates]
        hs = [[max(end * p, _TINY) for end, p in zip(ends, side)] for side in zip(*bounds)]
        low = answer(hs[0])
        if low == answer(hs[1]):
            break
        bits *= 4
    found, counts, resolved = low
    if len(found) < 2:
        raise ValueError("fewer than two dyadic scales fit the chart's grid")
    for s, c in zip(found, counts):
        if c > sys.float_info.max:
            raise ValueError(f"the box count at scale {s:g} passes the float range")
    return found, counts, resolved, float(max(hs[1]))


def skeleton_analysis(
    model: ContactModel,
    depth: int,
    seeds: int,
    scales: Sequence[float] | None = None,
    rng_seed: int = 0,
    theta0: float | None = None,
) -> SkeletonAnalysis:
    """Dimension estimate for the skeleton of the associated mapping torus.

    The suspension direction contributes exactly 1.  Models that declare a
    ``section`` are measured through the fiber cross-section at angle
    ``theta0`` (0 when it is ``None``; the circle direction contributes
    another 1) on its multiplier^depth boxes, with no sampling: ``rng_seed``
    is unused, and ``seeds >= multiplier**depth`` bounds the box count.
    Clusters are counted when the multiplier is above 1 and the gap is above
    the rounding of the box centres.  Otherwise the whole image is counted
    (route ``"cloud"``), and a section angle, which that route cannot
    honour, raises ``ModelError`` before any point is iterated.  A model
    with an ``affine`` record (anosov) has it counted in closed form by
    ``_affine_counts``, with no sampling: ``rng_seed`` and ``seeds`` are
    unused but reported, the default scales are the dyadic ones down to the
    image's largest half-width (never fewer than 1/2 and 1/4), and
    ``resolved_scales`` counts the scales at or above it, with a ``note``
    when some lie below.  Any other model has ``seeds`` iterated and their
    cloud box-counted.  Given ``scales`` are checked before any point is
    seeded.
    """
    if seeds < 1:
        raise ValueError("seeds must be positive")
    if theta0 is not None and not math.isfinite(theta0):
        raise ValueError("theta0 must be finite")
    if scales is not None:
        scales = _sorted_scales(scales)
    chart, section = model.chart, model.section
    if section is None and theta0 is not None:
        raise ModelError("a section angle needs a model that declares a section; "
                         "this model is measured through its whole image")
    if section is None and model.affine is not None:
        _require_self_map(model, depth)
        found, counts, resolved, top = _affine_counts(model, depth, scales)
        note = None
        if resolved < len(found):
            note = (f"{len(found) - resolved} of {len(found)} scales are below {top:.3g}, the "
                    f"largest half-width of the depth-{depth} image: they count the image, "
                    "not the attractor")
        box = _fit(found, counts)
        return SkeletonAnalysis(1.0 + box.slope, "cloud", box, None, depth, seeds, "exact",
                                resolved_scales=resolved, note=note)
    if section is None:
        box = box_counting_dimension(iterate_attractor(model, depth, seeds, rng_seed).points,
                                     scales or _DEFAULT_CLOUD_SCALES, origin=chart.lows())
        return SkeletonAnalysis(1.0 + box.slope, "cloud", box, None, depth, seeds, "sampled")
    # For m >= 2, m**d > seeds once d >= seeds.bit_length(): a deep refusal
    # builds no m**d.
    m = section.multiplier
    if m > 1 and (depth >= int(seeds).bit_length() or seeds < m**depth):
        raise ValueError("the section route needs seeds >= multiplier**depth")
    if seeds * chart.dim * 8 > 2**47:  # their cloud passes a 48-bit address space
        raise MemoryError(f"{seeds} seeds make a section cloud too large to allocate")
    centres, half = _section_boxes(model, depth, theta0 or 0.0)
    if scales is None:
        scales = _sorted_scales(_default_section_scales(section.rates[0], depth))
    box = _fit(scales, _box_counts(centres, half, scales, chart.lows()[list(chart.interval_idx)]))
    gap = suggested_section_gap(model, depth)
    # Centres are good to 8 ulps per step of their largest coordinate (or of 1).
    exact = gap > 8 * depth * np.finfo(float).eps * max(1.0, float(np.max(np.abs(centres))))
    clusters = _components(centres, half, gap) if section.multiplier > 1 and exact else None
    return SkeletonAnalysis(2.0 + box.slope, "section", box, clusters, depth, seeds, "exact",
                            centres=centres)


def _least_double_at_least(j: int) -> float:
    """The least double >= 10^j, for j <= 0."""
    t = float(f"1e{j}")
    n, d = t.as_integer_ratio()
    return t if n * 10**-j >= d else float(np.nextafter(t, 1.0))


def _word(text: str) -> int:
    """``text`` as a little-endian integer: its first byte lowest."""
    return int.from_bytes(text.encode(), "little")


# export_cloud_csv writes each x with 10^-16 <= |x| < 10, k = floor(log10|x|)
# in [-16, 0], through uint64 columns; these tables run over k + 16.  The least
# doubles >= 10^-16 ... 10^0, and 5^(16-k) in 32-bit limbs, low limb first
# (5^32 < 2^75):
_POW10 = np.array([_least_double_at_least(j) for j in range(-16, 1)])
_POW5 = np.array([[5**q & 0xFFFFFFFF, 5**q >> 32 & 0xFFFFFFFF, 5**q >> 64]
                  for q in range(32, 15, -1)], np.uint64)
# A cell's first word: "0." and leading zeros (fixed notation, k < 0), a NUL
# where the first digit goes, and the point after it (k = 0, or exponent form
# from k = -5 on); its last word: "e-NN" (exponent form), then "," or "\n".
_HEADS = ["0." + "0" * (-k - 1) if -4 <= k < 0 else "" for k in range(-16, 1)]
_W0 = np.array([_word(h + ("\0" if h else "\0.")) for h in _HEADS], np.uint64)
_LEAD_SHIFT = np.array([8 * len(h) for h in _HEADS], np.uint64)
_POINT = np.array([0 if h else _word("\0.") for h in _HEADS], np.uint64)
_W3 = np.array([[_word((f"e-{-k:02d}" if k < -4 else "") + sep) for k in range(-16, 1)]
                for sep in ",\n"], np.uint64)


def _digit_bytes(n: np.ndarray) -> np.ndarray:
    """The eight decimal digits of each uint64 n < 10^8 as bytes 0..9, the
    most significant in the lowest byte.  n splits into two 4-digit lanes of
    32 bits, each lane into two 2-digit lanes of 16 bits, and each of those
    into two digits; each split is one multiply-shift on all lanes at once
    (x // 100 = x·5243 >> 19 for x < 43699, x // 10 = x·103 >> 10 for x < 179)."""
    v = n // 10_000 | (n % 10_000) << 32
    q = v * 5243 >> 19 & 0x0000007F0000007F
    v = q | (v - q * 100) << 16
    q = v * 103 >> 10 & 0x000F000F000F000F
    return q | (v - q * 10) << 8


def _kept_bytes(x: np.ndarray) -> np.ndarray:
    """0xFF in each byte of ``x`` up to its highest nonzero byte and 0 above
    it, for uint64 ``x`` whose every byte is at most 15."""
    x = x | x >> 8
    x |= x >> 16
    x |= x >> 32
    return ((x + 0x7F7F7F7F7F7F7F7F) >> 7 & 0x0101010101010101) * 0xFF


def _csv_cells(block: np.ndarray) -> np.ndarray:
    """Each value of an (n, d) block as the bytes of ``'%.17g'``, then a comma
    (a newline in the last column), NUL-padded to four little-endian words.

    For 10^-16 <= |x| < 10 the digits come from integers: x = m·2^(e-53)
    with m < 2^53 from ``np.frexp``, k from ``_POW10``, and the 17 significant
    digits D = m·5^(16-k)·2^(e-37-k) rounded half to even, a 128-bit product
    (32-bit limbs) shifted right by t + 1 bits, t in [32, 73].  As k is exact,
    the floored quotient lies in [10^16, 10^17); a D that rounds up to 10^17
    is 10^16 at k + 1.  SWAR steps turn D into ASCII, and a byte mask drops
    trailing zeros (and a point left last).  Every other value (±0, |x| >= 10,
    smaller ones, subnormals, nan, ±inf) takes Python's '%.17g' in its cell."""
    a = np.abs(block)
    fast = (a >= _POW10[0]) & (a < 10.0)
    a = np.where(fast, a, 1.0)
    k = np.searchsorted(_POW10[1:], a, side="right")  # k + 16
    f, e = np.frexp(a)
    m = (f * 2.0**53).astype(np.uint64)
    c0, c1, c2 = np.moveaxis(_POW5[k], -1, 0)
    a0, a1 = m & 0xFFFFFFFF, m >> 32
    p0, p1, p2 = a0 * c0, a0 * c1, a1 * c0
    mid = (p0 >> 32) + (p1 & 0xFFFFFFFF) + (p2 & 0xFFFFFFFF)
    lo = p0 & 0xFFFFFFFF | mid << 32
    hi = (mid >> 32) + (p1 >> 32) + (p2 >> 32) + a0 * c2 + a1 * c1 + (a1 * c2 << 32)
    # P >> t, and whether any bit of P below t is set: P's lowest set bit is
    # m's, below bit 53, so lo alone answers that.  numpy shifts by 64 or
    # more give 0.
    t = (20 - e + k).astype(np.uint64)  # 36 - e + k, as k holds k + 16
    left = np.maximum(64 - t.astype(np.int64), 0).astype(np.uint64)
    q2 = hi << left >> (t + left - 64) | lo >> t
    sticky = lo << left != 0
    d = (q2 >> 1) + (q2 & (sticky | q2 >> 1) & 1)  # half to even
    up = d == 10**17
    d[up] = 10**16
    k += up
    r = d % 10**16
    x1, x2 = _digit_bytes(r // 10**8), _digit_bytes(r % 10**8)
    w0 = _W0[k] | (d // 10**16 + ord("0")) << _LEAD_SHIFT[k]
    w0 -= np.where(r == 0, _POINT[k], 0)
    neg = np.signbit(block).astype(np.uint64)
    cells = np.empty(block.shape + (4,), "<u8")
    cells[..., 0] = w0 << 8 * neg | neg * ord("-")
    cells[..., 1] = x1 + 0x3030303030303030 & np.where(x2 != 0, ~np.uint64(0), _kept_bytes(x1))
    cells[..., 2] = x2 + 0x3030303030303030 & _kept_bytes(x2)
    cells[..., 3] = _W3[(np.arange(block.shape[1]) == block.shape[1] - 1).astype(int), k]
    if not fast.all():
        seps = [","] * (block.shape[1] - 1) + ["\n"]
        _, cols = np.nonzero(~fast)
        text = ["%.17g%s" % (v, seps[c]) for v, c in zip(block[~fast].tolist(), cols.tolist())]
        cells[~fast] = np.array(text, "S32").view("<u8").reshape(-1, 4)
    return cells


def export_cloud_csv(points: np.ndarray, names: Sequence[str], path: str) -> int:
    """Write a cloud as CSV, one point per row with values as ``%.17g`` (the
    bytes of ``np.savetxt``); uniform stride subsampling keeps the file at or
    below ``_CSV_MAX_ROWS`` rows.  Returns rows written.

    ``_CSV_ROWS`` rows at a time are formatted on uint64 columns: each value
    with 10^-16 <= |x| < 10 gets its correctly rounded 17 digits from exact
    integer arithmetic (``_csv_cells``), every other value (±0, larger or
    smaller magnitudes, subnormals, nan, ±inf) from Python's ``'%.17g'``, in
    the same buffer, and the NUL padding is dropped before the write."""
    pts = _cloud(points)
    if pts.shape[1] != len(names):
        raise ValueError("column names do not match point dimension")
    if len(pts) > _CSV_MAX_ROWS:
        stride = int(math.ceil(len(pts) / _CSV_MAX_ROWS))
        pts = pts[::stride]
    with open(path, "wb") as fh:
        fh.write((",".join(names) + "\n").encode())
        for start in range(0, len(pts), _CSV_ROWS):
            text = _csv_cells(pts[start : start + _CSV_ROWS]).view(np.uint8)
            fh.write(text[text != 0])
    return len(pts)
