"""The four benchmark workloads: fixed op lists for the ``liouville-forge`` CLI.

Each op is one CLI invocation.  The workload seed only picks each op's
``--seed`` and ``--mu`` values; the op shapes (subcommand, model, sizes,
flags) are fixed per workload, so two seeds run the same amount of work on
different inputs.  The runner appends ``--threads 1`` and ``--out``.

``expect`` holds what the correctness gate (``gate.py``) checks on the
op's report; the reference values come from the repository's test suite.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

# Why each workload exists, and which layer an optimisation of it must move.
WHY = {
    "skeleton-section": (
        "Box counting is 8.4 s of the 9.0 s solenoid depth-8 op, so packed keys "
        "and nested-scale counting (ROADMAP item 2) must show here. The jet-space "
        "op gives a smooth cloud with far fewer occupied boxes per point than the "
        "fractal solenoid; the --section op builds the section cloud twice inside "
        "cmd_skeleton. No dedup and no spectrum search run here."
    ),
    "skeleton-cloud": (
        "The cloud route uses torus_builder differently from the section route: "
        "unstructured 3-D and 5-D clouds go through iterate_attractor, dedup and "
        "the CSV writer, which the section route bypasses. A box-counting or "
        "dedup change that helps 2-D sections but costs higher-dimensional cells "
        "(a packed-key fallback) shows here. The --csv-out op iterates the cloud "
        "twice."
    ),
    "contraction": (
        "contact_kernel does nearly all the work: sampling, map and Jacobian, "
        "KD-tree injectivity and conformal factors. The anosov n=4 certify runs "
        "its KD-tree in an 11-D embedding and is the tail. torus_builder appears "
        "only in the cheap descent check, find_matrix only as one small search "
        "per anosov op."
    ),
    "spectrum-sweep": (
        "Only spectrum_search and exactlin run. Found searches at n <= 7 spend "
        "30-50 % of their time in Sturm isolation and refinement; not-found "
        "searches at n >= 8 spend >= 93 % in the lattice scan, so an exact-layer "
        "change and a scan change move different metrics. The n >= 9 inputs stay "
        "although they all exhaust today (ROADMAP item 5). n = 6..8 are left out: "
        "there a seed decides between a find in 0.05 s and exhaustion after up to "
        "2 s, which moved wall_s from 9 s to 17 s between workload seeds."
    ),
}

WORKLOADS = tuple(WHY)

# Anosov inputs (--mu values, --seed) on which `certify` and, for n = 3,
# `descent` pass at the commit that defined this benchmark.  They were drawn
# with mu uniform in (0.75, 2) and kept when both verdicts were `pass`.  An
# unrestricted draw fails in two ways that are not what this benchmark
# measures: a search that lands at k1 in the thousands gives a map with
# |det D phi| below tol, which `certify` rightly fails, and a negative or
# undominated smallest eigenvalue makes `anosov_model` raise EigenFailure,
# which the CLI does not catch (a traceback, not exit code 2).
ANOSOV_INPUTS = {
    3: (
        (('1.10',), 7173),
        (('1.92',), 8545),
        (('1.48',), 7825),
        (('1.45',), 2923),
        (('1.88',), 9253),
        (('1.97',), 204),
        (('1.23',), 5611),
        (('1.05',), 5285),
        (('1.13',), 1154),
        (('1.80',), 5773),
        (('1.53',), 5026),
        (('1.71',), 7584),
    ),
    4: (
        (('0.98', '0.90'), 8577),
        (('1.64', '0.95'), 5160),
        (('0.92', '1.81'), 5355),
        (('1.19', '1.75'), 7031),
        (('1.11', '1.71'), 5790),
        (('0.91', '1.71'), 6289),
        (('0.97', '0.87'), 7987),
        (('1.85', '1.53'), 3468),
        (('0.87', '1.47'), 2003),
        (('1.14', '1.39'), 8158),
        (('1.21', '1.25'), 7197),
        (('1.62', '1.21'), 9708),
    ),
}


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what its report must satisfy."""

    argv: tuple[str, ...]
    expect: dict = field(default_factory=dict)


def _op(rng: random.Random, argv: list[str], **expect) -> Op:
    return Op(tuple(argv) + ("--seed", str(rng.randrange(1_000_000))), expect)


def _anosov(rng: random.Random, command: str, n: int, samples: str) -> Op:
    """An anosov op; for n > 2 its --mu and --seed come from ANOSOV_INPUTS."""
    if n == 2:
        return _op(rng, [command, "--model", "anosov", "--n", "2", "--samples", samples],
                   status=("pass",))
    mu, seed = rng.choice(ANOSOV_INPUTS[n])
    return Op((command, "--model", "anosov", "--n", str(n), "--mu", *mu,
               "--samples", samples, "--seed", str(seed)), {"status": ("pass",)})


def _skeleton_section(rng: random.Random, smoke: bool) -> list[Op]:
    if smoke:
        return [
            _op(rng, ["skeleton", "--model", "solenoid", "--depth", "3", "--seeds", "20000"],
                status=("pass",), route="section", clusters=8),
            _op(rng, ["skeleton", "--model", "jet-space", "--depth", "3", "--seeds", "20000"],
                status=("pass",), route="section"),
            _op(rng, ["skeleton", "--model", "solenoid", "--depth", "3", "--seeds", "4000",
                      "--section", "0.0", "--csv-out", "{csv}"],
                status=("pass",), route="section", clusters=8, csv=True),
        ]
    return [
        _op(rng, ["skeleton", "--model", "solenoid", "--depth", "8", "--seeds", "1000000"],
            status=("pass",), route="section", estimate=(2.2, 2.35, True), clusters=256),
        _op(rng, ["skeleton", "--model", "jet-space", "--depth", "6", "--seeds", "1000000"],
            status=("pass",), route="section", estimate=(1.8, 2.2, False)),
        _op(rng, ["skeleton", "--model", "solenoid", "--depth", "6", "--seeds", "200000",
                  "--section", "0.0", "--csv-out", "{csv}"],
            status=("pass",), route="section", estimate=(2.1, 2.4, False), clusters=64,
            csv=True),
    ]


def _skeleton_cloud(rng: random.Random, smoke: bool) -> list[Op]:
    d4, d3, seeds, csv_seeds = ("2", "1", "5000", "5000") if smoke else (
        "4", "3", "150000", "100000")
    near_3 = {} if smoke else {"estimate": (2.85, 3.15, False)}
    return [
        _op(rng, ["skeleton", "--model", "anosov", "--n", "2", "--depth", d4,
                  "--seeds", seeds], status=("pass",), route="cloud", **near_3),
        _op(rng, ["skeleton", "--model", "anosov", "--n", "3", "--mu", "1.0", "--depth", d3,
                  "--seeds", seeds], status=("pass",), route="cloud"),
        _op(rng, ["skeleton", "--model", "anosov", "--n", "2", "--depth", d3,
                  "--seeds", csv_seeds, "--csv-out", "{csv}"],
            status=("pass",), route="cloud", csv=True, **near_3),
    ]


def _contraction(rng: random.Random, smoke: bool) -> list[Op]:
    samples = "2000" if smoke else "100000"
    ops = []
    for model in (["--model", "solenoid"], ["--model", "jet-space"],
                  ["--model", "transverse-knot"]):
        ops.append(_op(rng, ["certify", *model, "--samples", samples], status=("pass",)))
    ops.append(_op(rng, ["certify", "--model", "transverse-knot", "--delta", "0.1",
                         "--samples", samples], status=("fail",)))
    ops += [_anosov(rng, "certify", n, samples) for n in (2, 3, 4)]
    for model in (["--model", "solenoid"], ["--model", "jet-space"],
                  ["--model", "transverse-knot"]):
        ops.append(_op(rng, ["descent", *model, "--samples", samples], status=("pass",)))
    ops.append(_anosov(rng, "descent", 3, samples))
    ops.append(_op(rng, ["descent", "--model", "solenoid", "--force-G", "2.1972",
                         "--samples", samples], status=("fail",), residual_above=1e-2))
    return ops


def _spectrum_sweep(rng: random.Random, smoke: bool) -> list[Op]:
    # Smoke keeps one exhausting search, made cheap by a small scan budget.
    dims, repeats, budget = ((2, 3, 4, 9), 1, ["--k1-max", "2000"]) if smoke else (
        (2, 3, 4, 5, 9, 10), 3, [])
    ops = []
    for n in dims:
        for eps in (0.5, 0.3):
            for _ in range(repeats):
                mu = [f"{rng.uniform(-2.0, 2.0):.4f}" for _ in range(n - 2)]
                ops.append(_op(rng, ["find-matrix", "--n", str(n), "--mu", *mu,
                                     "--eps", str(eps), *budget],
                               status=("pass", "not-found")))
    return ops


_BUILDERS = {
    "skeleton-section": _skeleton_section,
    "skeleton-cloud": _skeleton_cloud,
    "contraction": _contraction,
    "spectrum-sweep": _spectrum_sweep,
}


def build(workload: str, seed: int, smoke: bool = False) -> list[Op]:
    """The op list of ``workload`` for workload seed ``seed``.

    ``smoke`` keeps every op shape but shrinks depths, seed counts and
    sample counts so the whole list runs in seconds.
    """
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}/{seed}")
    return _BUILDERS[workload](rng, smoke)
