"""liouville-forge benchmark: runs one workload against the CLI and reports metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload skeleton-section --seed 1 --seconds 20 --trace 0

Closed loop, one client: ops run one at a time as in-process calls to
``liouville_forge.cli.main(argv)`` with ``--threads 1`` and ``--out`` in a
scratch directory under ``.perfbench_tmp/``.  Whole passes over the op list
repeat while another pass still fits in ``--seconds`` (at least one pass).

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates an
untraced and a traced pass and reports the per-layer metrics of
``spans.py`` plus the tracing overhead.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full record (provenance, per-op exit codes, report
digests and timings) is written to ``.perfbench_out/``.  A non-zero exit
without the JSON line means the program under test could not be found or
imported.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# One worker, as every op's --threads 1 asks; BLAS pools would otherwise
# compete for the two shared CPUs.  Must be set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import gate  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SETUP_LAUNCHES = 3
# Figures printed and recorded beside the benchmark line.  They are not in
# BENCHMARK.json: op_p50_s jumps between the fast and slow ops of a mixed op
# list from one seed to the next, failed_ratio is 0 when all is well,
# op_tail_s needs 20 ops and found_ratio exists only on spectrum-sweep.
EXTRA_UNITS = {"op_p50_s": "s", "failed_ratio": "ratio", "found_ratio": "ratio", "op_tail_s": "s",
               "op_tail_percentile": "%", "op_tail_samples": "count"}


def _median(values: list[float]) -> float:
    return float(statistics.median(values))


def _fresh_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(launches: int) -> list[float]:
    """Wall times of ``python -m liouville_forge.cli --version`` in fresh interpreters."""
    times = []
    for _ in range(launches):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-m", "liouville_forge.cli", "--version"],
                       cwd=ROOT, env=_fresh_env(), check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def import_times() -> dict[str, float]:
    """Cumulative import times of ``liouville_forge.cli`` and ``scipy.stats``."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import liouville_forge.cli"],
                          cwd=ROOT, env=_fresh_env(), check=True, capture_output=True, text=True)
    cumulative = {}
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+\d+\s+\|\s+(\d+)\s+\|\s+(.*)$", line)
        if m:
            cumulative[m.group(2).strip()] = int(m.group(1)) * 1e-6
    return {"cli.import.total_s": cumulative.get("liouville_forge.cli", 0.0),
            "cli.import.scipy_stats_s": cumulative.get("scipy.stats", 0.0)}


def run_op(cli, index: int, op: workloads.Op, workdir: Path, tracer=None) -> dict:
    """Run one op in ``workdir`` and check its output."""
    name = f"op{index:02d}"
    argv = tuple(a.replace("{csv}", f"{name}.csv") for a in op.argv)
    argv += ("--threads", "1", "--out", f"{name}.json")
    error = None
    if tracer is not None:
        tracer.op = index
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    except Exception as exc:  # an op that raises counts as failed
        code, error = None, repr(exc)
    seconds, cpu_s = time.perf_counter() - t0, time.process_time() - c0
    if tracer is not None:
        tracer.op = None
    report_path = workdir / f"{name}.json"
    raw = report_path.read_bytes() if report_path.exists() else b""
    report = json.loads(raw) if raw else None
    problems = [f"raised {error}"] if error else gate.check(argv, op.expect, code, report,
                                                            workdir)
    for path in workdir.iterdir():
        path.unlink()
    return {"op": index, "exit": code, "status": report and report.get("status"),
            "seconds": seconds, "cpu_s": cpu_s, "report_bytes": len(raw),
            "sha256": hashlib.sha256(raw).hexdigest(), "problems": problems}


def run_pass(cli, ops: list[workloads.Op], workdir: Path, tracer=None) -> list[dict]:
    return [run_op(cli, i, op, workdir, tracer) for i, op in enumerate(ops)]


def run_passes(cli, ops, workdir: Path, seconds: float, tracer=None):
    """Untraced passes, each followed by a traced one when ``tracer`` is given,
    while the next round still fits in ``seconds``; at least one round.

    Returns the untraced passes and the traced (results, spans) passes.
    """
    untraced: list[list[dict]] = []
    traced: list[tuple[list[dict], list]] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        untraced.append(run_pass(cli, ops, workdir))
        if tracer is not None:
            tracer.spans = []
            traced.append((run_pass(cli, ops, workdir, tracer), tracer.spans))
        step = time.perf_counter() - t0
        if time.perf_counter() - start + step > seconds:
            return untraced, traced


def tail(values: list[float]) -> tuple[float, int] | None:
    """Value at the highest whole percentile with at least ten values beyond it."""
    n = len(values)
    if n < 20:
        return None
    pct = (100 * (n - 10)) // n
    rank = -(-pct * n // 100)  # nearest rank, ceil(pct * n / 100)
    return sorted(values)[rank - 1], pct


def pass_wall(passes: list[list[dict]]) -> float:
    """Time to result of the op list: each op at its median over the passes."""
    return sum(_median([p[i]["seconds"] for p in passes]) for i in range(len(passes[0])))


def e2e_metrics(passes: list[list[dict]], setup: list[float], workload: str) -> tuple[dict, dict]:
    """End-to-end metrics for the benchmark line, and the extra figures for the record."""
    results = [r for p in passes for r in p]
    times = [r["seconds"] for r in results]
    metrics = {
        "setup_s": _median(setup),
        "wall_s": pass_wall(passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {"op_p50_s": _median(times),
             "failed_ratio": sum(1 for r in results if r["problems"]) / len(results)}
    t = tail(times)
    if t is not None:
        extra.update(op_tail_s=t[0], op_tail_percentile=t[1], op_tail_samples=len(times))
    if workload == "spectrum-sweep":
        extra["found_ratio"] = sum(1 for r in results if r["status"] == "pass") / len(results)
    return metrics, extra


def layer_report(untraced: list[list[dict]], traced: list, imports: dict) -> dict:
    """Per-layer metrics (medians over traced passes) and the tracing overhead."""
    per_pass = [spans.layer_metrics(sp, sum(r["report_bytes"] for r in res))
                for res, sp in traced]
    metrics = {name: _median([m[name] for m in per_pass]) for name in per_pass[0]}
    metrics.update(imports)
    untraced_wall = pass_wall(untraced)
    traced_wall = pass_wall([res for res, _ in traced])
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    metrics["trace.spans"] = _median([len(sp) for _, sp in traced])
    return metrics


def _read_text(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def git_commit() -> str | None:
    """HEAD of the checkout's own .git directory, if it has one."""
    head = _read_text(str(ROOT / ".git" / "HEAD"))
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    commit = _read_text(str(ROOT / ".git" / ref))
    if commit is None:
        packed = _read_text(str(ROOT / ".git" / "packed-refs")) or ""
        commit = next((ln.split()[0] for ln in packed.splitlines() if ln.endswith(" " + ref)),
                      None)
    return commit


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    cpuinfo = _read_text("/proc/cpuinfo") or ""
    model = re.search(r"^model name\s*:\s*(.*)$", cpuinfo, re.M)
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read_text(str(idx / f)) for f in ("level", "type", "size"))
        caches[f"L{level} {kind}"] = size
    src_digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model.group(1) if model else platform.processor(),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "src_sha256": src_digest.hexdigest(),
        "workload_seed": seed,
        "threads": 1,
        "blas_threads": {v: os.environ[v] for v in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def import_program():
    """Import the CLI from this checkout's ``src``; exit non-zero if it is not there."""
    if not (SRC / "liouville_forge" / "cli.py").is_file():
        sys.exit(f"error: {SRC / 'liouville_forge'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    from liouville_forge import cli

    if Path(cli.__file__).resolve().parent != SRC / "liouville_forge":
        sys.exit(f"error: imported liouville_forge from {cli.__file__}, not from {SRC}")
    return cli


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny op sizes and one set-up launch, for the benchmark's tests")
    args = parser.parse_args(argv)

    cli = import_program()
    ops = workloads.build(args.workload, args.seed, smoke=args.smoke)
    (ROOT / ".perfbench_tmp").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".perfbench_tmp"))
    cwd = os.getcwd()
    os.chdir(workdir)  # reports then echo relative paths, so digests are stable
    tracer = spans.Tracer() if args.trace else None
    extra: dict = {}
    try:
        if tracer is None:
            setup = measure_setup(1 if args.smoke else SETUP_LAUNCHES)
            passes, _ = run_passes(cli, ops, workdir, args.seconds)
            metrics, extra = e2e_metrics(passes, setup, args.workload)
            extra["setup_launches_s"] = setup
        else:
            imports = import_times()
            tracer.install()
            try:
                passes, traced = run_passes(cli, ops, workdir, args.seconds, tracer)
            finally:
                tracer.uninstall()
            metrics = layer_report(passes, traced, imports)
            passes += [res for res, _ in traced]
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)

    flat = [r for p in passes for r in p]
    digests: dict[int, set[str]] = {}
    for r in flat:
        digests.setdefault(r["op"], set()).add(r["sha256"])
    for r in passes[0]:
        if len(digests[r["op"]]) > 1:  # determinism contract: same argv, same bytes
            r["problems"].append("report bytes differ between passes")
    failed = sum(1 for r in flat if r["problems"])

    key = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in BENCHMARK[key]}
    line_metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    record = {
        "workload": args.workload, "why": workloads.WHY[args.workload],
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
        "provenance": {**provenance(args.seed), "tracing_overhead_s":
                       metrics.get("trace.overhead_s")},
        "ops": [{"argv": list(op.argv), "expect": op.expect} for op in ops],
        "passes": passes,
        "metrics": metrics, "extra": extra,
    }
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    out_path = out_dir / (f"{args.workload}-seed{args.seed}-trace{args.trace}"
                          f"{'-smoke' if args.smoke else ''}.json")
    out_path.write_text(json.dumps(record, indent=1, default=str) + "\n")

    for r in flat:
        for problem in r["problems"]:
            print(f"FAILED op{r['op']:02d} {' '.join(ops[r['op']].argv)}: {problem}")
    units.update(EXTRA_UNITS)
    for name, value in {**metrics, **extra}.items():
        if not isinstance(value, list):
            print(f"{name:58s} {value:>16.6g} {units[name]}")
    print(f"record: {out_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(flat),
        "failed": failed,
        "metrics": line_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
