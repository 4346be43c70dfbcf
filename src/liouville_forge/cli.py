"""Command-line front end.

Four subcommands (find-matrix, certify, skeleton, descent) that run the
library and emit deterministic JSON reports: sorted keys, floats in Python's
shortest round-trip repr, and enough echoed inputs to re-run the command.
Exit codes: 0 success/pass, 1 verification failure, 2 usage error, 3 search
exhausted, 4 a report that strict JSON cannot hold (a non-finite number, which
is a bug; nothing is written).  ``skeleton --section`` reports the size of
the section cloud and builds that cloud, all on the fiber, only for
``--csv-out``; a cloud-route model refuses it before iterating.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
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
    boundary_transversality_check,
    build_mapping_torus,
    descent_check,
    export_cloud_csv,
    iterate_attractor,
    section_cloud,
    skeleton_analysis,
)

__all__ = ["build_parser", "main"]

SCHEMA_VERSION = 2
# Inputs the library rejects, sizes too large to allocate, and output paths
# that cannot be written (OSError); each ends the command with exit code 2.
_USAGE_ERRORS = (ValueError, UnknownModel, ModelError, EigenFailure, MemoryError, OSError)
_K1_MAX_HELP = ("largest k1 tried; the search doubles k1 from its floor and "
               "rounds once at each value")


class _Parser(argparse.ArgumentParser):
    """An argument parser that reads a token such as -1e-1 or -inf as a
    negative number, not as an unknown option: argparse's own pattern covers
    only -digits and -digits.digits, so list options such as ``--mu`` and
    ``--scales`` refused exponent notation.  Subparsers take this class too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(inf|infinity|nan|(\d+\.?\d*|\.\d+)(e[-+]?\d+)?)$", re.IGNORECASE)


class ReportError(Exception):
    """A report holds a number that strict JSON cannot: a bug, not a usage error."""


def _non_finite(value, path: str = "") -> str | None:
    """The path of the first non-finite float in nested dicts and lists, else None."""
    if isinstance(value, float):
        return None if math.isfinite(value) else path
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, (list, tuple)) else ())
    for key, item in items:
        found = _non_finite(item, f"{path}.{key}" if path else str(key))
        if found:
            return found
    return None


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
        "status": status,
        "results": results,
    }
    try:
        text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError:
        raise ReportError(f"report not written: {_non_finite(report)} is not a finite "
                          "number, which strict JSON cannot hold (a bug)") from None
    out = getattr(args, "out", None)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _check_output_paths(args: argparse.Namespace) -> None:
    """Refuse ``--out`` or ``--csv-out`` that names a directory or lies in a
    missing or unwritable one, before any work, so a refused command leaves
    no file behind."""
    for path in (getattr(args, "out", None), getattr(args, "csv_out", None)):
        if path and (
            os.path.isdir(path) or not os.access(os.path.dirname(os.path.abspath(path)), os.W_OK)
        ):
            raise OSError(f"cannot write {path}: not a file in a writable directory")


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
    analysis = skeleton_analysis(
        model,
        args.depth,
        args.seeds,
        scales=args.scales,
        rng_seed=args.seed,
        theta0=args.section,
    )
    results = {"skeleton": analysis.to_dict(), **extra}
    chart = model.chart
    if args.section is not None:
        # The section cloud is seeded on the fiber: every point is in the section.
        branches = model.section.multiplier**args.depth
        per_branch = max(8, args.seeds // branches)
        section_info: dict = {"theta0": args.section, "points": branches * per_branch}
        if analysis.section_clusters is not None:
            section_info["clusters"] = analysis.section_clusters
        results["section"] = section_info
        if args.csv_out:
            sample = section_cloud(model, args.depth, per_branch, args.section, args.seed,
                                   centres=analysis.centres)
            csv_points = sample.points[:, chart.interval_idx]
            csv_names = [chart.names[i] for i in chart.interval_idx]
    elif args.csv_out:
        csv_points = iterate_attractor(model, args.depth, args.seeds, rng_seed=args.seed).points
        csv_names = list(chart.names)

    if args.csv_out:
        rows = export_cloud_csv(csv_points, csv_names, args.csv_out)
        results["csv"] = {"path": args.csv_out, "rows": rows}

    _write_report(args, "skeleton", "pass", results)
    return 0


def cmd_descent(args: argparse.Namespace) -> int:
    if not args.tol > 0.0:
        raise ValueError(f"tol must be finite and positive, got {args.tol}")
    model, extra = _build_model(args)
    torus = build_mapping_torus(model, args.tilt_eps, args.seed, args.force_G)
    margin = boundary_transversality_check(torus, rng_seed=args.seed)
    residual = descent_check(torus, samples=args.samples, rng_seed=args.seed)
    ok = residual < args.tol and margin > 0.0  # a NaN residual fails
    results = {
        "descent": {
            # A residual with no finite value is reported as null, as certify does.
            "max_residual": residual if math.isfinite(residual) else None,
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
                   help="no effect: iteration runs on one thread; kept so that "
                   "existing command lines still run")
    p.add_argument("--out", type=str, default=None, help="JSON report path (default stdout)")


def _add_model_args(p: argparse.ArgumentParser, models: tuple[str, ...]) -> None:
    p.add_argument("--model", required=True, choices=models)
    if "transverse-knot" in models:
        p.add_argument("--c", type=float, default=0.1, help="transverse-knot slope parameter")
        p.add_argument("--delta", type=float, default=1e-3, help="transverse-knot push-off size")
        p.add_argument("--knot-eps", type=float, default=0.5, dest="knot_eps",
                       help="transverse-knot neighborhood radius")
    p.add_argument("--n", type=int, default=2, help="anosov: torus dimension")
    p.add_argument("--mu", type=float, nargs="*", default=(),
                   help="anosov: prescribed middle eigenvalues (n-2 values)")
    p.add_argument("--eps", type=float, default=0.4, help="anosov: spectrum tolerance")
    p.add_argument("--k1-max", type=int, default=200_000, dest="k1_max",
                   help=f"anosov: {_K1_MAX_HELP}")


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser for the four subcommands.  Its defaults are immutable,
    so ``main`` can parse every command line of a process with one parser."""
    parser = _Parser(
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
    p.add_argument("--mu", type=float, nargs="*", default=())
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        try:
            _check_output_paths(args)
            # The report echoes every input, so one the command never reads counts too.
            bad = _non_finite(vars(args))
            if bad:
                raise ValueError(f"--{bad.split('.')[0].replace('_', '-')} must be finite")
            if args.seed < 0:
                raise ValueError("--seed must be non-negative")
            return args.func(args)
        except SearchExhausted as exc:
            _write_report(args, args.command, "not-found",
                          {"error": str(exc), "search": exc.search.to_dict()})
            return 3
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ReportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
