#!/usr/bin/env python
"""Kernel construction cost by scoring path: scalar vs batch vs vectorized.

PR 3 made every selection loop kernel-native, so at scale the dominant
cost is *building* the kernel — historically n(n−1)/2 interpreter-bound
``δ_dis`` calls.  This bench times ``ScoringKernel`` construction on the
websearch workload across answer-pool sizes for the three provider
paths:

* **scalar-adapter** — the objective carries plain scalar callables;
  the kernel wraps them in a :class:`ScalarCallableProvider` (the
  pre-provider behaviour, call for call);
* **batch-loop** — the native provider with vectorization disabled:
  blocked ``distance_block`` calls whose bodies are scalar metric loops
  (isolates the per-call wrapper overhead from the vectorization win);
* **feature-space** — the vectorized fast path: one feature-matrix
  computation per tile.

Every run re-verifies correctness: all three kernels must be
element-wise identical.  The acceptance target (ISSUE 4): feature-space
construction beats the scalar adapter by >= 5x on websearch at n >= 500
on the NumPy backend.

Usage::

    python benchmarks/bench_kernel_build.py              # full run (n up to 800)
    python benchmarks/bench_kernel_build.py --smoke      # CI-sized, sub-2s
    python benchmarks/bench_kernel_build.py --check      # exit non-zero unless >=5x
    python benchmarks/bench_kernel_build.py --no-numpy   # pure-Python kernels
    python benchmarks/bench_kernel_build.py --json out.json
"""

import argparse
import sys
import time
from pathlib import Path

try:
    import repro  # noqa: F401
except ImportError:  # running as a script without PYTHONPATH/pip install
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.core.instance import DiversificationInstance
from repro.core.objectives import Objective, ObjectiveKind
from repro.engine import ScoringKernel, numpy_available
from repro.workloads import websearch

import common

SMOKE_BUDGET_SECONDS = 2.0
SPEEDUP_TARGET = 5.0
TARGET_N = 500


def build_instances(n, k=10, lam=0.5, seed=17):
    """The three same-data instances, one per construction mode.

    All share one database and one materialized answer set (primed
    before timing), so the measurements isolate kernel construction.
    Each mode gets its *own* provider instance: the feature cache is
    per-provider, so timing one mode never pre-warms another (only
    best-of-``repeat`` within a mode sees its own warm cache).
    """
    db = websearch.generate(num_docs=n, num_intents=6, seed=seed)
    query = websearch.documents_query()
    scalar = websearch.scoring_provider(db)
    batch_loop = websearch.scoring_provider(db, vectorize=False)
    vectorized = websearch.scoring_provider(db)
    modes = {
        "scalar-adapter": Objective.max_sum(
            scalar.relevance_function(), scalar.distance_function(), lam=lam
        ),
        "batch-loop": Objective.from_provider(ObjectiveKind.MAX_SUM, batch_loop, lam=lam),
        "feature-space": Objective.from_provider(ObjectiveKind.MAX_SUM, vectorized, lam=lam),
    }
    instances = {}
    for mode, objective in modes.items():
        instance = DiversificationInstance(query, db, k=k, objective=objective)
        instance.answers()  # prime the Q(D) cache; not part of the build
        instances[mode] = instance
    return instances


def time_build(instance, use_numpy, repeat):
    best = float("inf")
    kernel = None
    for _ in range(repeat):
        start = time.perf_counter()
        kernel = ScoringKernel(instance, use_numpy=use_numpy)
        kernel.materialize_all()  # storage is allocated on first read
        best = min(best, time.perf_counter() - start)
    return best, kernel


def assert_kernels_identical(kernels):
    """The whole point of the fast paths is that nobody can tell."""
    baseline_mode, baseline = next(iter(kernels.items()))
    base_rel = [baseline.relevance_of(i) for i in range(baseline.n)]
    base_dist = baseline.distance_rows()
    for mode, kernel in kernels.items():
        if mode == baseline_mode:
            continue
        assert kernel.n == baseline.n, f"{mode}: size diverged"
        rel = [kernel.relevance_of(i) for i in range(kernel.n)]
        assert rel == base_rel, f"{mode}: relevance diverged"
        assert kernel.distance_rows() == base_dist, f"{mode}: distances diverged"


def run_sizes(sizes, use_numpy, repeat):
    records = []
    for n in sizes:
        instances = build_instances(n)
        timings = {}
        kernels = {}
        for mode, instance in instances.items():
            timings[mode], kernels[mode] = time_build(instance, use_numpy, repeat)
        assert_kernels_identical(kernels)
        scalar_seconds = timings["scalar-adapter"]
        for mode in ("scalar-adapter", "batch-loop", "feature-space"):
            seconds = timings[mode]
            records.append(
                common.KernelBuildRecord(
                    scenario="websearch",
                    mode=mode,
                    n=kernels[mode].n,
                    backend=kernels[mode].backend,
                    build_seconds=seconds,
                    speedup=scalar_seconds / seconds if seconds > 0 else float("inf"),
                )
            )
    return records


def acceptance_speedup(records):
    """Best feature-space speedup at n >= TARGET_N on the numpy backend."""
    eligible = [
        r.speedup
        for r in records
        if r.mode == "feature-space" and r.n >= TARGET_N and r.backend == "numpy"
    ]
    return max(eligible) if eligible else None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=f"small sizes with a {SMOKE_BUDGET_SECONDS:g}s budget (CI rot check)",
    )
    parser.add_argument(
        "--sizes",
        type=int,
        nargs="+",
        default=None,
        help="answer-pool sizes to measure (default 100 200 500 800)",
    )
    parser.add_argument(
        "--repeat", type=int, default=3, help="best-of repetitions per mode"
    )
    parser.add_argument(
        "--no-numpy",
        action="store_true",
        help="force the pure-Python kernel backend",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help=(
            f"exit non-zero unless feature-space construction is >= "
            f"{SPEEDUP_TARGET:g}x the scalar adapter at n >= {TARGET_N}"
        ),
    )
    parser.add_argument(
        "--json",
        type=Path,
        default=None,
        metavar="PATH",
        help="write results as JSON (perf-trajectory artifact)",
    )
    args = parser.parse_args(argv)

    use_numpy = False if args.no_numpy else None
    start = time.perf_counter()
    if args.smoke:
        sizes, repeat = (60, 150), 1
    else:
        sizes = tuple(args.sizes) if args.sizes else (100, 200, TARGET_N, 800)
        repeat = args.repeat

    records = run_sizes(sizes, use_numpy, repeat)
    elapsed = time.perf_counter() - start

    print(
        common.render_kernel_build_report(
            records, title=f"kernel construction (websearch, sizes {list(sizes)})"
        )
    )
    speedup = acceptance_speedup(records)
    if speedup is not None:
        print(
            f"\nfeature-space vs scalar-adapter at n>={TARGET_N} (numpy): "
            f"{speedup:.1f}x (target >= {SPEEDUP_TARGET:g}x)"
        )

    if args.json is not None:
        payload = {
            "bench": "kernel_build",
            "sizes": list(sizes),
            "numpy": numpy_available() and not args.no_numpy,
            "host": common.host_info(),
            "records": [r.as_dict() for r in records],
            "acceptance_speedup": speedup,
            "wall_seconds": elapsed,
        }
        common.write_json(args.json, payload)
        print(f"wrote {args.json}")

    if args.smoke:
        print(f"smoke wall time: {elapsed:.3f}s (budget {SMOKE_BUDGET_SECONDS}s)")
        if elapsed > SMOKE_BUDGET_SECONDS:
            print("SMOKE BUDGET EXCEEDED", file=sys.stderr)
            return 1
        return 0

    if speedup is None:
        print(
            f"acceptance target needs the numpy backend and n >= {TARGET_N} "
            "(not measured in this run)"
        )
        return 1 if args.check else 0
    verdict = "PASS" if speedup >= SPEEDUP_TARGET else "FAIL"
    print(f"kernel-build speedup target -> {verdict}")
    if args.check and speedup < SPEEDUP_TARGET:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
