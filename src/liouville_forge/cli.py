"""Command-line front end.

Four subcommands (find-matrix, certify, skeleton, descent) that run the
library and emit deterministic JSON reports: sorted keys, floats in Python's
shortest round-trip repr, and enough echoed inputs to re-run the command.
Exit codes: 0 success/pass, 1 verification failure, 2 usage error, 3 search
exhausted.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .contact_kernel import (
    ContactModel,
    EigenFailure,
    ModelError,
    UnknownModel,
    anosov_model,
    builtin_model,
    certify_contraction,
)
from .spectrum_search import SearchExhausted, SpectrumRequest, find_matrix
from .torus_builder import (
    DescentViolation,
    EmptySection,
    GExtension,
    MappingTorusModel,
    boundary_transversality_check,
    build_mapping_torus,
    constant_roof,
    cross_section,
    descent_check,
    export_cloud_csv,
    iterate_attractor,
    skeleton_analysis,
)

__all__ = ["build_parser", "main", "resolve_threads"]

SCHEMA_VERSION = 1
THREADS_ENV = "LIOUVILLE_FORGE_THREADS"
# Inputs the library rejects, and sizes too large to allocate; each ends the
# command with exit code 2.
_USAGE_ERRORS = (
    ValueError, UnknownModel, ModelError, EigenFailure, EmptySection, MemoryError
)
_K1_MAX_HELP = ("largest k1 tried; the search doubles k1 from its floor and "
               "rounds once at each value")
# Half-width of the slab that --section cuts from the section cloud, whose
# points are seeded on the fiber itself.
SECTION_THICKNESS = 1e-6


def resolve_threads(value: int | None) -> int:
    if value is not None:
        return max(1, int(value))
    env = os.environ.get(THREADS_ENV)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return os.cpu_count() or 1


def _write_report(args: argparse.Namespace, command: str, status: str, results: dict) -> None:
    inputs = {
        k: v for k, v in vars(args).items() if k not in ("func",) and v is not argparse.SUPPRESS
    }
    report = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "command": command,
        "inputs": inputs,
        "rng_seed": getattr(args, "seed", None),
        "threads": resolve_threads(getattr(args, "threads", None)),
        "status": status,
        "results": results,
    }
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    out = getattr(args, "out", None)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _spectrum_request(args: argparse.Namespace) -> SpectrumRequest:
    return SpectrumRequest(
        n=args.n,
        mu=tuple(args.mu or ()),
        eps=args.eps,
        k1_max=args.k1_max,
        seed=args.seed,
    )


def _build_model(args: argparse.Namespace) -> tuple[ContactModel, dict]:
    """The requested model and the report entries its construction adds."""
    name = args.model.replace("-", "_")
    if name == "anosov":
        cert = find_matrix(_spectrum_request(args))
        return anosov_model(cert.matrix, cert), {
            "spectrum_certificate": cert.to_dict(),
            "search": cert.search.to_dict(),
        }
    params = {}
    if name == "transverse_knot":
        params = {"c": args.c, "delta": args.delta, "eps": args.knot_eps}
    return builtin_model(name, params), {}


# -- subcommands ----------------------------------------------------------------

def cmd_find_matrix(args: argparse.Namespace) -> int:
    cert = find_matrix(_spectrum_request(args))
    _write_report(args, "find-matrix", "pass",
                  {"certificate": cert.to_dict(), "search": cert.search.to_dict()})
    return 0


def cmd_certify(args: argparse.Namespace) -> int:
    model, extra = _build_model(args)
    cert = certify_contraction(
        model, samples=args.samples, tol=args.tol, rng_seed=args.seed
    )
    results = {"contraction_certificate": cert.to_dict(), **extra}
    status = "pass" if cert.passed else "fail"
    _write_report(args, "certify", status, results)
    return 0 if cert.passed else 1


def cmd_skeleton(args: argparse.Namespace) -> int:
    model, extra = _build_model(args)
    threads = resolve_threads(args.threads)
    theta0 = args.section if args.section is not None else 0.0
    analysis = skeleton_analysis(
        model,
        args.depth,
        args.seeds,
        scales=args.scales,
        rng_seed=args.seed,
        theta0=theta0,
        threads=threads,
    )
    results = {"skeleton": analysis.to_dict(), **extra}
    if args.section is not None:
        pts2 = cross_section(analysis.sample, args.section, SECTION_THICKNESS)
        section_info: dict = {"theta0": args.section, "points": len(pts2)}
        if analysis.section_clusters is not None:
            section_info["clusters"] = analysis.section_clusters
        results["section"] = section_info
        csv_points = pts2
        csv_names = [model.chart.names[i] for i in model.chart.interval_idx]
    elif args.csv_out:
        sample = analysis.sample
        if analysis.route != "cloud":
            sample = iterate_attractor(
                model, args.depth, args.seeds, rng_seed=args.seed, threads=threads
            )
        csv_points = sample.points
        csv_names = list(model.chart.names)

    if args.csv_out:
        rows = export_cloud_csv(csv_points, csv_names, args.csv_out)
        results["csv"] = {"path": args.csv_out, "rows": rows}

    _write_report(args, "skeleton", "pass", results)
    return 0


def cmd_descent(args: argparse.Namespace) -> int:
    model, extra = _build_model(args)
    if args.force_G is not None:
        g0 = float(args.force_G)
        torus = MappingTorusModel(
            base=model, G=GExtension(constant_roof(g0), "forced", g0), tilt_eps=args.tilt_eps
        )
    else:
        torus = build_mapping_torus(model, tilt_eps=args.tilt_eps, rng_seed=args.seed)
    margin = boundary_transversality_check(torus, rng_seed=args.seed)
    try:
        residual = descent_check(torus, samples=args.samples, tol=args.tol, rng_seed=args.seed)
        ok = margin > 0.0
    except DescentViolation as exc:
        residual = exc.residual
        ok = False
    results = {
        "descent": {
            "max_residual": residual,
            "tol": args.tol,
            "transversality_margin": margin,
            "g_mode": torus.G.mode,
            "g_constant": torus.G.constant,
            "g_meta": dict(torus.G.meta),
        },
        **extra,
    }
    _write_report(args, "descent", "pass" if ok else "fail", results)
    return 0 if ok else 1


# -- parser -----------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="RNG seed (determinism contract)")
    p.add_argument("--threads", type=int, default=None,
                   help=f"worker cap (default: {THREADS_ENV} or CPU count)")
    p.add_argument("--out", type=str, default=None, help="JSON report path (default stdout)")


def _add_model_args(p: argparse.ArgumentParser, models: tuple[str, ...]) -> None:
    p.add_argument("--model", required=True, choices=models)
    if "transverse-knot" in models:
        p.add_argument("--c", type=float, default=0.1, help="transverse-knot slope parameter")
        p.add_argument("--delta", type=float, default=1e-3, help="transverse-knot push-off size")
        p.add_argument("--knot-eps", type=float, default=0.5, dest="knot_eps",
                       help="transverse-knot neighborhood radius")
    p.add_argument("--n", type=int, default=2, help="anosov: torus dimension")
    p.add_argument("--mu", type=float, nargs="*", default=[],
                   help="anosov: prescribed middle eigenvalues (n-2 values)")
    p.add_argument("--eps", type=float, default=0.4, help="anosov: spectrum tolerance")
    p.add_argument("--k1-max", type=int, default=200_000, dest="k1_max",
                   help=f"anosov: {_K1_MAX_HELP}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liouville-forge",
        description=(
            "Verification and search toolkit: certify contraction maps on "
            "contact charts, check descent of the rescaled form on partial "
            "mapping tori, explore skeleton attractors, and search integer "
            "companion matrices with prescribed real spectrum."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    # Whole option names only: skeleton would read an unknown "--c" as "--csv-out".
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("find-matrix", allow_abbrev=False, help="search for a "
                       "unit-determinant matrix with prescribed real spectrum")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mu", type=float, nargs="*", default=[])
    p.add_argument("--eps", type=float, default=0.5)
    p.add_argument("--k1-max", type=int, default=200_000, dest="k1_max", help=_K1_MAX_HELP)
    _add_common(p)
    p.set_defaults(func=cmd_find_matrix)

    p = sub.add_parser("certify", allow_abbrev=False,
                       help="certify the contraction axioms for a model")
    _add_model_args(p, ("solenoid", "jet-space", "transverse-knot", "anosov"))
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--tol", type=float, default=1e-8)
    _add_common(p)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("skeleton", allow_abbrev=False, help="attractor iteration, "
                       "cross-sections, and box-counting dimension")
    _add_model_args(p, ("solenoid", "jet-space", "anosov"))
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--seeds", type=int, default=100_000)
    p.add_argument("--scales", type=float, nargs="*", default=None)
    p.add_argument("--section", type=float, default=None,
                   help="fiber angle for a structured cross-section")
    p.add_argument("--csv-out", type=str, default=None, dest="csv_out")
    _add_common(p)
    p.set_defaults(func=cmd_skeleton)

    p = sub.add_parser("descent", allow_abbrev=False, help="check that the rescaled "
                       "form survives the mapping-torus gluing")
    _add_model_args(p, ("solenoid", "jet-space", "transverse-knot", "anosov"))
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--force-G", type=float, default=None, dest="force_G",
                   help="override the roof function with a constant")
    p.add_argument("--tilt-eps", type=float, default=0.1, dest="tilt_eps")
    _add_common(p)
    p.set_defaults(func=cmd_descent)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SearchExhausted as exc:
        _write_report(args, args.command, "not-found",
                      {"error": str(exc), "search": exc.search.to_dict()})
        return 3
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
