"""Partial mapping torus assembly and attractor exploration.

Builds the suspension-with-varying-roof model over a certified contraction,
checks that the rescaled contact form survives the gluing, verifies boundary
transversality after the collar tilt, iterates the map to approximate the
skeleton attractor, and estimates fractal dimension by box counting.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .contact_kernel import (
    Chart,
    ContactModel,
    ModelError,
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
    "DescentViolation",
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


class DescentViolation(Exception):
    """The rescaled form does not survive the gluing within tolerance."""

    def __init__(self, residual: float, tol: float):
        super().__init__(f"descent residual {residual:.6e} >= tol {tol:.1e}")
        self.residual = residual
        self.tol = tol


class EmptySection(Exception):
    """No sample points fell inside the requested cross-section slab."""


class DegenerateCloud(Exception):
    """All cloud points coincide; box counting is meaningless."""


@dataclass(frozen=True)
class GExtension:
    """Positive roof function on the map's codomain chart.

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
        if self.tilt_eps < 0:
            raise ValueError("tilt_eps must be nonnegative")


@dataclass(frozen=True)
class SkeletonSample:
    """Point cloud approximating the attractor at a given iteration depth."""

    points: np.ndarray
    depth: int
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
    sample: SkeletonSample  # the cloud that was box-counted; not reported

    def to_dict(self) -> dict:
        return {
            "estimate": self.estimate,
            "route": self.route,
            "box_counting": self.box.to_dict(),
            "section_clusters": self.section_clusters,
            "depth": self.depth,
            "seeds": self.seeds,
        }


# -- roof extension -----------------------------------------------------------

def constant_roof(g0: float) -> Callable[[np.ndarray], np.ndarray]:
    """Roof evaluator with the value ``g0`` at every point."""
    return lambda pts: np.full(len(pts), g0)


def _sampled_g(base: ContactModel, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Image points, reduced into the codomain chart, and exponents -log f
    at the samples with a valid conformal factor f."""
    f, resid, scale, q = model_conformal_factors(base, pts)
    valid = np.isfinite(f) & (f > 0.0) & (f < 1.0) & (resid <= 1e-6 * scale)
    if not valid.any():
        raise ModelError("no valid conformal factors; is the model a contraction?")
    return q[valid], -np.log(f[valid])


def extend_G(
    base: ContactModel,
    samples: int = 2048,
    rng_seed: int = 0,
    tilt_eps: float = 0.1,
) -> GExtension:
    """Extend the contraction exponent off the image of the map.

    Uses the model's own exact extension when it supplies one; otherwise
    the constant when the sampled exponent varies by at most 1e-9, which is
    exact for a constant conformal factor; otherwise the blend, which
    interpolates sampled values over the image and feathers to the mean
    value outside, clamped to half the minimum.
    """
    img_pts, g = _sampled_g(
        base, np.vstack([base.chart.sample(samples, rng_seed), base.chart.probe_points(cap=512)])
    )
    codomain = base.codomain
    if base.g_extension is not None:
        ext = base.g_extension

        def evaluate_model(pts: np.ndarray) -> np.ndarray:
            return np.asarray(ext(codomain.reduce(pts)), float)

        resid = float(np.max(np.abs(evaluate_model(img_pts) - g)))
        if resid > 1e-8:
            raise ModelError(f"model extension fails on the image: {resid:.3e}")
        return GExtension(evaluate_model, "model", None, {"extension_residual": resid})

    spread = float(np.ptp(g))
    if spread <= 1e-9:
        g0 = float(np.median(g))
        return GExtension(constant_roof(g0), "constant", g0, {"spread": spread})

    from scipy.interpolate import RBFInterpolator
    from scipy.spatial import cKDTree

    emb = codomain.embed_periodic(img_pts)
    neighbors = min(128, len(emb) - 1)
    rbf = RBFInterpolator(emb, g, kernel="thin_plate_spline", neighbors=neighbors)
    tree = cKDTree(emb)
    # Dead zone: inside twice the typical sample spacing we trust the
    # interpolant outright; the feather to the mean starts beyond it.
    nn_d, _ = tree.query(emb, k=2)
    dead = 2.0 * float(np.median(nn_d[:, 1]))
    g_bar = float(np.mean(g))
    g_floor = float(np.min(g)) / 2.0

    def evaluate_blend(pts: np.ndarray) -> np.ndarray:
        e = codomain.embed_periodic(codomain.reduce(pts))
        val = rbf(e)
        dist, _ = tree.query(e)
        t = np.maximum(dist - dead, 0.0) / max(tilt_eps, 1e-9)
        w = np.exp(-(t**2))
        return np.maximum(w * val + (1.0 - w) * g_bar, g_floor)

    q_h, g_h = _sampled_g(base, base.chart.sample(256, rng_seed + 101))
    resid = float(np.max(np.abs(evaluate_blend(q_h) - g_h)))
    return GExtension(evaluate_blend, "blend", None, {"extension_residual": resid})


def build_mapping_torus(
    base: ContactModel,
    tilt_eps: float = 0.1,
    samples: int = 2048,
    rng_seed: int = 0,
) -> MappingTorusModel:
    return MappingTorusModel(
        base=base,
        G=extend_G(base, samples=samples, rng_seed=rng_seed, tilt_eps=tilt_eps),
        tilt_eps=tilt_eps,
    )


# -- descent of the rescaled form ---------------------------------------------

def descent_check(
    model: MappingTorusModel,
    samples: int = 1000,
    tol: float = 1e-9,
    rng_seed: int = 0,
) -> float:
    """Max descent residual |e^(s+G(phi x)) phi^*alpha - e^s alpha| over
    sampled (s, x); raises unless it is below tolerance (so a NaN residual or
    tolerance fails).  The form e^s alpha has no ds term, so dG never enters
    its pullback through the gluing map and only the Jacobian of phi does."""
    if samples < 1:
        raise ValueError("samples must be positive")
    base = model.base
    if base.phi is None:
        raise ModelError("model has no map")
    chart = base.chart
    u = halton(samples, chart.dim + 1, rng_seed)
    lo, hi = chart.lows(), chart.highs()
    x = lo + u[:, : chart.dim] * (hi - lo)
    pb, q, _ = pullback(base.phi, base.codomain_alpha, x, base.codomain)
    g = model.G(q)
    s_ref = model.G.constant if model.G.constant is not None else float(np.mean(g))
    s = u[:, chart.dim] * s_ref
    defect = np.exp(s + g)[:, None] * pb - np.exp(s)[:, None] * base.alpha(x)
    residual = float(np.max(np.abs(defect)))
    if not residual < tol:
        raise DescentViolation(residual, tol)
    return residual


# -- boundary -----------------------------------------------------------------

def boundary_transversality_check(
    model: MappingTorusModel, samples: int = 256, rng_seed: int = 0
) -> float:
    """Minimum pairing of the flow direction with outward conormals.

    Tilted collar faces contribute eps/G; roof faces contribute exactly 1
    (the flow component of ds - dG).  A zero tilt gives a tangency and a
    zero margin.
    """
    if model.tilt_eps == 0.0:
        return 0.0
    chart = model.base.chart
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
    g_vals = model.G(collar)
    tilted = float(np.min(model.tilt_eps / g_vals))
    return min(tilted, 1.0)


# -- attractor iteration ------------------------------------------------------

def _require_self_map(model: ContactModel, depth: int) -> None:
    if model.phi is None or not model.is_self_map:
        raise ModelError("attractor iteration needs a self-map model")
    if depth < 0:
        raise ValueError("depth must be nonnegative")


def _apply_map(model: ContactModel, pts: np.ndarray, threads: int) -> np.ndarray:
    if threads <= 1 or len(pts) < 65_536:
        return model.chart.reduce(model.phi(pts))
    chunks = np.array_split(pts, threads)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        outs = list(
            pool.map(lambda c: model.chart.reduce(model.phi(c)), chunks)
        )
    return np.vstack(outs)


# Image points whose coordinates round to the same multiple of this are
# merged: they are copies of one point, not a finer level of the attractor.
DEDUP_THRESHOLD = 1e-9


def _row_keys(cells: np.ndarray) -> np.ndarray:
    """One key per row of a non-empty integer array, equal exactly when the
    rows are equal.

    Columns offset by their minimum pack into one int64 in mixed radix; when
    the product of the column spans does not fit, the keys are a ``void``
    view of the rows (byte order is not numeric order, equality is exact).
    """
    lo = cells.min(axis=0)
    spans = [int(h) - int(l) + 1 for h, l in zip(cells.max(axis=0), lo)]
    if math.prod(spans) > np.iinfo(np.int64).max:
        rows = np.ascontiguousarray(cells)
        return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    keys = cells[:, 0] - lo[0]
    for j in range(1, len(spans)):
        keys = keys * spans[j] + (cells[:, j] - lo[j])
    return keys


def _dedup(pts: np.ndarray, threshold: float) -> np.ndarray:
    if threshold <= 0 or len(pts) == 0:
        return pts
    keys = _row_keys(np.round(pts / threshold).astype(np.int64))
    _, idx = np.unique(keys, return_index=True)
    return pts[np.sort(idx)]


def iterate_attractor(
    model: ContactModel,
    depth: int,
    seeds: int,
    rng_seed: int = 0,
    threads: int = 1,
) -> SkeletonSample:
    """Push a quasi-random cloud through the map ``depth`` times.

    The image cloud lies in the depth-fold image of the chart, which
    contains the attractor and converges to it in Hausdorff distance.
    """
    _require_self_map(model, depth)
    pts = model.chart.sample(seeds, rng_seed)
    for _ in range(depth):
        pts = _apply_map(model, pts, threads)
    pts = _dedup(pts, DEDUP_THRESHOLD)
    return SkeletonSample(points=pts, depth=depth, chart=model.chart)


def section_cloud(
    model: ContactModel,
    depth: int,
    seeds_per_branch: int,
    theta0: float = 0.0,
    rng_seed: int = 0,
    threads: int = 1,
) -> SkeletonSample:
    """Depth-m image cloud restricted exactly to a circle-factor fiber.

    Seeds the angle coordinate at the multiplier^depth preimages of
    ``theta0``, so the iterated cloud is the full cross-section of the
    depth-m image, free of slab-thickness smearing.
    """
    _require_self_map(model, depth)
    chart = model.chart
    if len(chart.periodic_idx) != 1:
        raise ModelError("section seeding needs exactly one circle factor")
    mult = int(model.params.get("angle_multiplier", 0))
    if mult < 1:
        raise ModelError("model does not expose an angle multiplier")
    pi_idx = chart.periodic_idx[0]
    period = chart.coords[pi_idx].period
    branches = mult**depth
    angles = (theta0 + period * np.arange(branches)) / branches

    u = halton(seeds_per_branch, len(chart.interval_idx), rng_seed)
    block = np.empty((seeds_per_branch, chart.dim))
    for col, i in enumerate(chart.interval_idx):
        c = chart.coords[i]
        block[:, i] = c.lo + u[:, col] * (c.hi - c.lo)

    pts = np.tile(block, (branches, 1))
    pts[:, pi_idx] = np.repeat(angles, seeds_per_branch)
    for _ in range(depth):
        pts = _apply_map(model, pts, threads)
    return SkeletonSample(points=pts, depth=depth, chart=chart)


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


def _cloud(points: np.ndarray) -> np.ndarray:
    """``points`` as a float (N, d) array with N >= 1, else ``ValueError``."""
    pts = np.asarray(points, float)
    if pts.ndim != 2 or len(pts) == 0:
        raise ValueError(f"points must be a non-empty (N, d) array, got shape {pts.shape}")
    return pts


def count_clusters(points: np.ndarray, gap: float) -> int:
    """Single-linkage component count at the given gap threshold."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components
    from scipy.spatial import cKDTree

    pts = _cloud(points)
    n = len(pts)
    pairs = cKDTree(pts).query_pairs(r=gap, output_type="ndarray")
    if len(pairs) == 0:
        return n
    adj = coo_matrix(
        (np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(n, n)
    )
    ncomp, _ = connected_components(adj, directed=False)
    return int(ncomp)


def suggested_section_gap(model: ContactModel, depth: int) -> float:
    """Linkage threshold between sibling-cluster spacing and in-cluster
    spacing, from the model's slower contraction rate."""
    rate = model.params.get("rate_y")
    if rate is None:
        raise ModelError("model does not expose per-coordinate contraction rates")
    return 0.25 * float(rate) ** max(depth - 1, 0)


# -- box counting -------------------------------------------------------------

def box_counting_dimension(
    points: np.ndarray,
    scales: Sequence[float],
    origin: Sequence[float] | None = None,
) -> BoxCountResult:
    """Occupied-box counts on origin-anchored grids and the log-log slope."""
    pts = _cloud(points)
    scales = sorted((float(s) for s in scales), reverse=True)
    if len(scales) < 2:
        raise ValueError("need at least two scales")
    if not all(math.isfinite(s) for s in scales):
        raise ValueError("scales must be finite")
    if any(s <= 0 for s in scales):
        raise ValueError("scales must be positive")
    if len(pts) > 1 and float(np.max(np.ptp(pts, axis=0))) == 0.0:
        raise DegenerateCloud("all points coincide")
    org = (
        np.zeros(pts.shape[1])
        if origin is None
        else np.asarray(origin, float).reshape(-1)
    )
    counts = []
    for s in scales:
        keys = np.sort(_row_keys(np.floor((pts - org) / s).astype(np.int64)))
        counts.append(1 + int(np.count_nonzero(keys[1:] != keys[:-1])))
    xs = np.log(1.0 / np.asarray(scales))
    ys = np.log(np.asarray(counts, float))
    slope, intercept = np.polyfit(xs, ys, 1)
    fitted = slope * xs + intercept
    ss_res = float(np.sum((ys - fitted) ** 2))
    ss_tot = float(np.sum((ys - np.mean(ys)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return BoxCountResult(
        scales=tuple(scales), counts=tuple(counts), slope=float(slope), r2=float(r2)
    )


def _default_section_scales(rate: float, depth: int) -> tuple[float, ...]:
    if depth < 2:
        return (0.25, 0.125, 0.0625)
    top = max(2, min(depth - 1, 7))
    return tuple(0.5 * rate**j for j in range(1, top + 1))


_DEFAULT_CLOUD_SCALES = (0.25, 0.125, 0.0625, 0.03125)


def skeleton_analysis(
    model: ContactModel,
    depth: int,
    seeds: int,
    scales: Sequence[float] | None = None,
    rng_seed: int = 0,
    theta0: float = 0.0,
    threads: int = 1,
) -> SkeletonAnalysis:
    """Dimension estimate for the skeleton of the associated mapping torus.

    The suspension direction contributes exactly 1.  Models with a single
    circle factor are measured through the fiber cross-section (the circle
    direction contributes another 1), which needs at least one seed per
    branch, ``seeds >= angle_multiplier**depth``; otherwise the full
    attractor cloud is box-counted.
    """
    if seeds < 1:
        raise ValueError("seeds must be positive")
    chart = model.chart
    solenoid_like = len(chart.periodic_idx) == 1 and model.params.get("angle_multiplier")
    if solenoid_like:
        mult = int(model.params["angle_multiplier"])
        branches = max(1, mult**depth)
        if seeds < branches:
            raise ValueError("the section route needs seeds >= angle_multiplier**depth")
        per_branch = max(8, seeds // branches)
        sample = section_cloud(
            model, depth, per_branch, theta0=theta0, rng_seed=rng_seed, threads=threads
        )
        pts2 = sample.points[:, chart.interval_idx]
        rate = float(model.params.get("rate_x", model.params.get("rate", 0.5)))
        use_scales = tuple(scales) if scales else _default_section_scales(rate, depth)
        lows = np.array([chart.coords[i].lo for i in chart.interval_idx])
        box = box_counting_dimension(pts2, use_scales, origin=lows)
        clusters = None
        if "rate_y" in model.params:
            # A branch is the seed box shrunk by rate**depth per coordinate;
            # it links up at the gap only with about 3 points per gap-sized
            # cell of that box.  With fewer, the count is left unclaimed.
            gap = suggested_section_gap(model, depth)
            rates = (rate, float(model.params["rate_y"]))
            need = math.ceil(3 * math.prod(
                max(1.0, (chart.coords[i].hi - chart.coords[i].lo) * r**depth / gap)
                for i, r in zip(chart.interval_idx, rates)
            ))
            if per_branch >= need:
                clusters = count_clusters(pts2[:: max(1, per_branch // need)], gap)
        return SkeletonAnalysis(
            estimate=2.0 + box.slope,
            route="section",
            box=box,
            section_clusters=clusters,
            depth=depth,
            seeds=seeds,
            sample=sample,
        )

    sample = iterate_attractor(model, depth, seeds, rng_seed=rng_seed, threads=threads)
    use_scales = tuple(scales) if scales else _DEFAULT_CLOUD_SCALES
    box = box_counting_dimension(sample.points, use_scales, origin=chart.lows())
    return SkeletonAnalysis(
        estimate=1.0 + box.slope,
        route="cloud",
        box=box,
        section_clusters=None,
        depth=depth,
        seeds=seeds,
        sample=sample,
    )


def export_cloud_csv(
    points: np.ndarray,
    names: Sequence[str],
    path: str,
    max_rows: int = 10_000_000,
) -> int:
    """Write a cloud as CSV (one point per row); uniform stride subsampling
    keeps the file at or below ``max_rows`` rows.  Returns rows written."""
    pts = _cloud(points)
    if pts.shape[1] != len(names):
        raise ValueError("column names do not match point dimension")
    if len(pts) > max_rows:
        stride = int(math.ceil(len(pts) / max_rows))
        pts = pts[::stride]
    header = ",".join(names)
    np.savetxt(path, pts, delimiter=",", header=header, comments="", fmt="%.17g")
    return len(pts)
