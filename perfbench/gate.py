"""Correctness gate: checks one op's exit code, report and side files.

``check`` returns the list of problems found; an empty list means the op's
output is correct.  Reference values come from the repository's test suite
(criteria 2, 5, 6 and 7 of the acceptance suite, and the skeleton tests).
Every matrix certificate is re-verified here, outside the search: exact
determinant through ``exactlin``, spectrum through ``numpy.linalg.eigvals``.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

EXIT_CODES = {"pass": 0, "fail": 1, "not-found": 3}
FIND_MATRIX_EPS = 0.5  # CLI default of find-matrix --eps
MODEL_EPS = 0.4  # CLI default of the anosov --eps


def flag_values(argv: tuple[str, ...], flag: str) -> list[str]:
    """The values following ``flag`` up to the next ``--`` option."""
    if flag not in argv:
        return []
    out = []
    for tok in argv[argv.index(flag) + 1:]:
        if tok.startswith("--"):
            break
        out.append(tok)
    return out


def check(argv: tuple[str, ...], expect: dict, code: int, report: dict | None,
          workdir: Path) -> list[str]:
    """Problems with one op's outcome; ``argv`` is the full argument list run."""
    if report is None:
        return [f"no report (exit {code})"]
    status = report.get("status")
    problems = []
    if status not in expect["status"]:
        problems.append(f"status {status!r}, expected one of {expect['status']}")
    if EXIT_CODES.get(status) != code:
        problems.append(f"exit {code} does not match status {status!r}")
    results = report.get("results", {})
    command = argv[0]
    if command == "skeleton" and status == "pass":
        problems += _check_skeleton(results, expect, workdir)
    elif command == "certify" and "contraction_certificate" in results:
        passed = results["contraction_certificate"]["passed"]
        if passed != (status == "pass"):
            problems.append("certificate verdict disagrees with report status")
    elif command == "descent" and "descent" in results:
        problems += _check_descent(results["descent"], status, expect)

    cert = results.get("certificate") or results.get("spectrum_certificate")
    if cert is not None:
        default_eps = FIND_MATRIX_EPS if command == "find-matrix" else MODEL_EPS
        eps_flag = flag_values(argv, "--eps")
        eps = float(eps_flag[0]) if eps_flag else default_eps
        mu = [float(v) for v in flag_values(argv, "--mu")]
        problems += recheck_certificate(cert, mu, eps)
    elif command == "find-matrix" and status == "pass":
        problems.append("pass without a certificate")
    return problems


def _check_skeleton(results: dict, expect: dict, workdir: Path) -> list[str]:
    problems = []
    sk = results["skeleton"]
    if sk["route"] != expect["route"]:
        problems.append(f"route {sk['route']!r}, expected {expect['route']!r}")
    scales, counts = sk["box_counting"]["scales"], sk["box_counting"]["counts"]
    order = np.argsort(scales)[::-1]
    if np.any(np.diff(np.asarray(counts)[order]) < 0):
        problems.append(f"box counts {counts} decrease as the scale shrinks")
    est = sk["estimate"]
    if not math.isfinite(est):
        problems.append(f"estimate {est} not finite")
    elif "estimate" in expect:
        lo, hi, closed = expect["estimate"]
        inside = lo <= est <= hi if closed else lo < est < hi
        if not inside:
            problems.append(f"estimate {est} outside {'[' if closed else '('}{lo}, {hi}"
                            f"{']' if closed else ')'}")
    if "clusters" in expect:
        found = [sk["section_clusters"]]
        if "section" in results:
            found.append(results["section"].get("clusters"))
        if any(c != expect["clusters"] for c in found):
            problems.append(f"section clusters {found}, expected {expect['clusters']}")
    if expect.get("csv"):
        csv = results.get("csv")
        if csv is None:
            problems.append("no csv block in report")
        else:
            with open(workdir / csv["path"], "rb") as fh:
                rows = sum(1 for _ in fh) - 1  # header line
            if rows != csv["rows"]:
                problems.append(f"csv has {rows} rows, report says {csv['rows']}")
    return problems


def _check_descent(d: dict, status: str, expect: dict) -> list[str]:
    if status == "pass" and not d["max_residual"] < d["tol"]:
        return [f"descent residual {d['max_residual']} not below tol {d['tol']}"]
    if "residual_above" in expect and not d["max_residual"] > expect["residual_above"]:
        return [f"descent residual {d['max_residual']} not above {expect['residual_above']}"]
    return []


def recheck_certificate(cert: dict, mu: list[float], eps: float) -> list[str]:
    """Re-verify a spectrum certificate independently of the search."""
    from liouville_forge.exactlin import IntMatrix, determinant

    problems = []
    rows = cert["matrix"]
    n = len(rows)
    if determinant(IntMatrix.from_rows(rows)) != 1:
        problems.append("matrix determinant is not 1")
    roots = np.asarray(cert["roots"], dtype=float)
    if roots.size != n:
        return problems + [f"{roots.size} roots for an {n}x{n} matrix"]
    eig = np.linalg.eigvals(np.asarray(rows, dtype=float))
    scale = 1e-6 * np.maximum(1.0, np.abs(eig))
    if np.any(np.abs(eig.imag) > scale):
        problems.append("numpy finds non-real eigenvalues")
    if not np.allclose(np.sort(eig.real), np.sort(roots), rtol=1e-6, atol=1e-9):
        problems.append("certified roots disagree with numpy.linalg.eigvals")
    if np.min(np.diff(np.sort(roots)), initial=np.inf) <= 0.0:
        problems.append("certified roots are not simple")
    if len(mu) != n - 2 or np.any(np.abs(roots[: n - 2] - np.asarray(mu)) >= eps):
        problems.append(f"middle roots {roots[: n - 2].tolist()} not within {eps} of {mu}")
    if not (abs(roots[n - 2]) > 1.0 / eps and abs(roots[n - 1]) < eps):
        problems.append(f"tail roots {roots[n - 2:].tolist()} not beyond 1/{eps} and {eps}")
    return problems
