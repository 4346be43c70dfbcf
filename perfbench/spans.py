"""Spans around the calls into each liouville_forge module, timed from outside.

``Tracer.install`` replaces each public function listed in ``TARGETS`` with
a timing wrapper in every module namespace that holds it (so
``spectrum_search.char_poly`` is wrapped as well as ``exactlin.char_poly``),
and each listed class method on its class.  Private helpers are not
wrapped: dedup, for example, shows up as ``iterate_attractor`` self time.

A span records its name, start, end, parent span, op id, the exception
class it raised (if any) and the work quantities of ``_QUANTITIES``.  Spans
stay in memory; ``layer_metrics`` derives the per-layer numbers from them.
Nothing is recorded while ``Tracer.op`` is None, so the benchmark's own
correctness checks (which call ``exactlin.determinant``) stay out of the
numbers.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

import numpy as np

# (module, attribute or (class, method), span name) per wrapped callable.
TARGETS = (
    ("cli", "main", "cli.main"),
    ("exactlin", "char_poly", "exactlin.char_poly"),
    ("exactlin", "sturm_isolate", "exactlin.sturm_isolate"),
    ("exactlin", "refine_root", "exactlin.refine_root"),
    ("exactlin", "determinant", "exactlin.determinant"),
    ("spectrum_search", "find_matrix", "spectrum_search.find_matrix"),
    ("spectrum_search", "ergodic_scan", "spectrum_search.ergodic_scan"),
    ("spectrum_search", "newton_refine", "spectrum_search.newton_refine"),
    ("spectrum_search", "solve_tail", "spectrum_search.solve_tail"),
    ("contact_kernel", ("Chart", "sample"), "contact_kernel.chart_sample"),
    ("contact_kernel", ("Chart", "reduce"), "contact_kernel.chart_reduce"),
    ("contact_kernel", ("SmoothMap", "__call__"), "contact_kernel.map_eval"),
    ("contact_kernel", ("SmoothMap", "jac"), "contact_kernel.jacobian"),
    ("contact_kernel", "model_conformal_factors", "contact_kernel.model_conformal_factors"),
    ("contact_kernel", "certify_contraction", "contact_kernel.certify_contraction"),
    ("torus_builder", "skeleton_analysis", "torus_builder.skeleton_analysis"),
    ("torus_builder", "section_cloud", "torus_builder.section_cloud"),
    ("torus_builder", "iterate_attractor", "torus_builder.iterate_attractor"),
    ("torus_builder", "box_counting_dimension", "torus_builder.box_counting_dimension"),
    ("torus_builder", "count_clusters", "torus_builder.count_clusters"),
    ("torus_builder", "cross_section", "torus_builder.cross_section"),
    ("torus_builder", "export_cloud_csv", "torus_builder.export_cloud_csv"),
    ("torus_builder", "build_mapping_torus", "torus_builder.build_mapping_torus"),
    ("torus_builder", "descent_check", "torus_builder.descent_check"),
    ("torus_builder", "boundary_transversality_check",
     "torus_builder.boundary_transversality_check"),
)


def _rows(pts) -> int:
    shape = np.shape(pts)
    return int(shape[0]) if len(shape) > 1 else 1


# Work quantities per span name, from the bound arguments and the result.
_QUANTITIES = {
    "contact_kernel.chart_sample": lambda a, r: {"points": _rows(r)},
    "contact_kernel.map_eval": lambda a, r: {"points": _rows(a["pts"])},
    "contact_kernel.jacobian": lambda a, r: {"points": _rows(a["pts"])},
    "torus_builder.section_cloud": lambda a, r: {"points": len(r.points)},
    "torus_builder.iterate_attractor": lambda a, r: {"kept": len(r.points),
                                                     "seeds": a["seeds"]},
    "torus_builder.box_counting_dimension": lambda a, r: {
        "point_scales": _rows(a["points"]) * len(a["scales"])},
    "torus_builder.count_clusters": lambda a, r: {"points": _rows(a["points"])},
    "torus_builder.export_cloud_csv": lambda a, r: {"rows": int(r)},
}

# Per-layer metric names and units, in report order.
LAYER_METRICS = (
    ("cli.main.calls", "count"), ("cli.main.self_s", "s"), ("cli.report_bytes", "bytes"),
    ("cli.import.total_s", "s"), ("cli.import.scipy_stats_s", "s"),
    *((f"exactlin.{f}.{q}", u) for f in ("char_poly", "sturm_isolate", "refine_root",
                                         "determinant")
      for q, u in (("calls", "count"), ("s", "s"))),
    ("spectrum_search.find_matrix.calls", "count"), ("spectrum_search.find_matrix.s", "s"),
    ("spectrum_search.ergodic_scan.calls", "count"), ("spectrum_search.ergodic_scan.s", "s"),
    ("spectrum_search.ergodic_scan.hit_ratio", "ratio"),
    ("spectrum_search.newton_refine.calls", "count"),
    ("spectrum_search.newton_refine.s", "s"),
    ("spectrum_search.newton_refine.ok_ratio", "ratio"),
    ("spectrum_search.newton_refine.fail.SingularJacobian", "count"),
    ("spectrum_search.newton_refine.fail.NoConvergence", "count"),
    ("spectrum_search.solve_tail.fail.ComplexTail", "count"),
    ("spectrum_search.exact_rejects", "count"),
    ("contact_kernel.chart_sample.calls", "count"), ("contact_kernel.chart_sample.s", "s"),
    ("contact_kernel.chart_sample.points", "count"),
    ("contact_kernel.chart_reduce.calls", "count"), ("contact_kernel.chart_reduce.s", "s"),
    ("contact_kernel.map_eval.calls", "count"), ("contact_kernel.map_eval.s", "s"),
    ("contact_kernel.map_eval.points", "count"),
    ("contact_kernel.jacobian.calls", "count"), ("contact_kernel.jacobian.s", "s"),
    ("contact_kernel.jacobian.points", "count"),
    ("contact_kernel.model_conformal_factors.calls", "count"),
    ("contact_kernel.model_conformal_factors.s", "s"),
    ("contact_kernel.certify_contraction.calls", "count"),
    ("contact_kernel.certify_contraction.s", "s"),
    ("contact_kernel.certify_contraction.self_s", "s"),
    ("torus_builder.skeleton_analysis.calls", "count"),
    ("torus_builder.skeleton_analysis.self_s", "s"),
    ("torus_builder.section_cloud.calls", "count"), ("torus_builder.section_cloud.s", "s"),
    ("torus_builder.section_cloud.points", "count"),
    ("torus_builder.iterate_attractor.calls", "count"),
    ("torus_builder.iterate_attractor.s", "s"),
    ("torus_builder.iterate_attractor.self_s", "s"),
    ("torus_builder.iterate_attractor.keep_ratio", "ratio"),
    ("torus_builder.box_counting_dimension.calls", "count"),
    ("torus_builder.box_counting_dimension.s", "s"),
    ("torus_builder.box_counting_dimension.point_scales", "count"),
    ("torus_builder.box_counting_dimension.ns_per_point_scale", "ns"),
    ("torus_builder.count_clusters.calls", "count"), ("torus_builder.count_clusters.s", "s"),
    ("torus_builder.count_clusters.points", "count"),
    ("torus_builder.cross_section.s", "s"),
    ("torus_builder.export_cloud_csv.calls", "count"),
    ("torus_builder.export_cloud_csv.s", "s"),
    ("torus_builder.export_cloud_csv.rows", "count"),
    ("torus_builder.build_mapping_torus.s", "s"),
    ("torus_builder.descent_check.calls", "count"), ("torus_builder.descent_check.s", "s"),
    ("torus_builder.boundary_transversality_check.s", "s"),
)

NAME, OP, PARENT, START, END, EXC, QTY = range(7)


class Tracer:
    """Collects spans for the op currently set in ``op``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items()
                   if k == "liouville_forge" or k.startswith("liouville_forge.")]
        for module, attr, name in TARGETS:
            owner = sys.modules[f"liouville_forge.{module}"]
            if isinstance(attr, tuple):
                cls = getattr(owner, attr[0])
                self._replace(cls, attr[1], self._wrap(name, vars(cls)[attr[1]]))
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(name, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._replace(mod, key, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            obj, key, orig = self._undo.pop()
            setattr(obj, key, orig)

    def _replace(self, obj, key: str, new) -> None:
        self._undo.append((obj, key, vars(obj)[key]))
        setattr(obj, key, new)

    def _wrap(self, name: str, fn):
        quantities = _QUANTITIES.get(name)
        signature = inspect.signature(fn) if quantities else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            stack = tracer._stack
            rec = [name, tracer.op, stack[-1] if stack else -1, perf_counter(), 0.0, None, None]
            stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[EXC] = type(exc).__name__
                raise
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if quantities:
                rec[QTY] = quantities(signature.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper


def layer_metrics(spans: list[list], report_bytes: int) -> dict[str, float]:
    """Per-layer numbers for one pass over the op list."""
    child_s = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child_s[rec[PARENT]] += rec[END] - rec[START]

    def ancestors(i: int):
        p = spans[i][PARENT]
        while p >= 0:
            yield spans[p]
            p = spans[p][PARENT]

    agg: dict[str, dict[str, float]] = {}
    for i, rec in enumerate(spans):
        a = agg.setdefault(rec[NAME], {"calls": 0, "s": 0.0, "self_s": 0.0, "raised": 0})
        dur = rec[END] - rec[START]
        a["calls"] += 1
        a["self_s"] += dur - child_s[i]
        # Summed time counts only the outermost span of a name, so a
        # callable that re-enters itself is not counted twice.
        if all(anc[NAME] != rec[NAME] for anc in ancestors(i)):
            a["s"] += dur
        if rec[EXC]:
            a["raised"] += 1
            key = f"fail.{rec[EXC]}"
            a[key] = a.get(key, 0) + 1
        for key, value in (rec[QTY] or {}).items():
            a[key] = a.get(key, 0) + value

    def get(name: str, key: str) -> float:
        return agg.get(name, {}).get(key, 0)

    def ok_ratio(name: str) -> float:
        calls = get(name, "calls")
        return (calls - get(name, "raised")) / calls if calls else 0.0

    exact_in_search = sum(1 for i, rec in enumerate(spans)
                          if rec[NAME] == "exactlin.sturm_isolate"
                          and any(a[NAME] == "spectrum_search.find_matrix"
                                  for a in ancestors(i)))
    found = get("spectrum_search.find_matrix", "calls") - get(
        "spectrum_search.find_matrix", "raised")
    box_ps = get("torus_builder.box_counting_dimension", "point_scales")
    seeds = get("torus_builder.iterate_attractor", "seeds")

    # cli.import.* come from a separate -X importtime launch; run.py fills them.
    out: dict[str, float] = {"cli.report_bytes": report_bytes,
                             "cli.import.total_s": 0.0, "cli.import.scipy_stats_s": 0.0}
    for name, unit in LAYER_METRICS:
        module, rest = name.split(".", 1)
        if name in out or "." not in rest:
            continue
        func, key = rest.split(".", 1)
        out[name] = get(f"{module}.{func}", key)
    out.update({
        "spectrum_search.ergodic_scan.hit_ratio": ok_ratio("spectrum_search.ergodic_scan"),
        "spectrum_search.newton_refine.ok_ratio": ok_ratio("spectrum_search.newton_refine"),
        "spectrum_search.exact_rejects": exact_in_search - found,
        "torus_builder.iterate_attractor.keep_ratio": (
            get("torus_builder.iterate_attractor", "kept") / seeds if seeds else 0.0),
        "torus_builder.box_counting_dimension.ns_per_point_scale": (
            get("torus_builder.box_counting_dimension", "s") * 1e9 / box_ps
            if box_ps else 0.0),
    })
    return out
