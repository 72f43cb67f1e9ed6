#!/usr/bin/env python
"""Sketched selection bake-off: sub-quadratic picks vs the O(n²) wall.

The capability-negotiated kernel contract (ISSUE 7) lets selectors that
declare ``SAMPLED_COLUMNS`` access run on a :class:`SketchedStorage`
plan — m exact landmark distance columns, m ≪ n — instead of any full
distance matrix.  This bench measures, per kernel plan, what that buys
on the websearch workload:

* ``dense-f64`` — the historical eager contiguous matrix (baseline);
* ``tiled-f64`` — lazy tile grid; the exact marginal greedy touches
  only its k chosen tile-rows (bit-identical selection to dense);
* ``sketched``  — the landmark-column plan driving the sketched
  marginal greedy; no matrix, no tile, ever materializes.

Each config is timed over **build + greedy F_MS selection** with the
tracemalloc peak over that cold pass, plus the selection's quality as a
fraction of the exact marginal-greedy objective.

In-bench assertions (these gate CI in smoke mode, and full runs at
n ≥ 10,000 additionally gate the memory target):

* the sketched kernel never materializes a distance matrix;
* the certificate brackets the exact value (lower ≤ F ≤ upper);
* sketched F_MS quality ≥ 0.9× the exact marginal greedy;
* at n = 10,000 (full runs): sketched peak ≤ 15% of the dense-f64 peak.

``--stream-smoke`` instead drives the one-pass bounded-memory streaming
selector over a :class:`StreamingWebSearch` trace at n beyond the
tiled-smoke size and asserts its state never exceeds the documented
k + reservoir bound.

Usage::

    python benchmarks/bench_sketch.py                 # full (2k, 10k, 50k)
    python benchmarks/bench_sketch.py --smoke         # CI-sized, sub-5s
    python benchmarks/bench_sketch.py --stream-smoke  # streaming CI check
    python benchmarks/bench_sketch.py --no-numpy      # pure-Python kernels
    python benchmarks/bench_sketch.py --json BENCH_sketch.json
"""

import argparse
import math
import sys
import time
import tracemalloc
from pathlib import Path

try:
    import repro  # noqa: F401
except ImportError:  # running as a script without PYTHONPATH/pip install
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.algorithms.greedy import select_greedy_marginal_max_sum
from repro.algorithms.sketched import select_sketched_marginal_max_sum
from repro.algorithms.streaming import StreamingGreedySelector
from repro.api import EngineConfig
from repro.core.instance import DiversificationInstance
from repro.core.objectives import Objective, ObjectiveKind
from repro.engine import ScoringKernel, numpy_available
from repro.workloads import websearch
from repro.workloads.streaming import StreamingWebSearch

import common

SMOKE_BUDGET_SECONDS = 5.0
QUALITY_TARGET = 0.9     # sketched F_MS vs exact marginal greedy
MEMORY_TARGET_RATIO = 0.15  # sketched peak vs dense-f64 peak at n >= 10k
MEMORY_GATE_N = 10_000
#: Dense needs one contiguous n² float64 allocation; past this it is the
#: very ceiling the sketch removes, so larger sizes skip the baseline.
DENSE_CAP = 12_000

CONFIGS = ("dense-f64", "tiled-f64", "sketched")


def build_instance(n, k=10, lam=0.5, seed=17):
    db = websearch.generate(num_docs=n, num_intents=8, seed=seed)
    objective = Objective.from_provider(
        ObjectiveKind.MAX_SUM, websearch.scoring_provider(db), lam=lam
    )
    instance = DiversificationInstance(
        websearch.documents_query(), db, k=k, objective=objective
    )
    instance.answers()  # prime the Q(D) cache; not part of the build
    return instance


def build_and_select(config, instance, use_numpy):
    """(kernel, selection value, certificate|None) for one cold pass."""
    if config == "sketched":
        kernel = ScoringKernel(
            instance, use_numpy=use_numpy, config=EngineConfig(storage="sketched")
        )
        selection = select_sketched_marginal_max_sum(
            kernel, instance.objective, instance.k
        )
        assert selection is not None, "sketched selection infeasible"
        return kernel, selection.value, selection.certificate
    knobs = {} if config == "dense-f64" else {"storage": "tiled"}
    kernel = ScoringKernel(
        instance, use_numpy=use_numpy, config=EngineConfig(**knobs)
    )
    indices = select_greedy_marginal_max_sum(
        kernel, instance.objective, instance.k
    )
    assert indices is not None, f"{config}: selection infeasible"
    return kernel, kernel.value(indices, instance.objective), None


def measure_config(config, instance, use_numpy, repeat):
    """(best-of seconds, tracemalloc peak bytes, value, certificate)."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        build_and_select(config, instance, use_numpy)
        best = min(best, time.perf_counter() - start)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        kernel, value, certificate = build_and_select(
            config, instance, use_numpy
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    if config == "sketched":
        assert not kernel.distances_materialized, (
            "the sketched plan materialized a distance matrix"
        )
        assert certificate.lower <= value + 1e-9, (
            f"certificate lower bound above exact value: {certificate}"
        )
        assert value <= certificate.upper + 1e-9, (
            f"certificate upper bound below exact value: {certificate}"
        )
    return best, peak, value, certificate


def run_sizes(sizes, use_numpy, repeat):
    records = []
    failures = []
    for n in sizes:
        # One instance per config: a shared provider's feature cache
        # would pre-warm later configs and flatter their build times.
        results = {}
        for config in CONFIGS:
            if config == "dense-f64" and n > DENSE_CAP:
                continue
            instance = build_instance(n)
            results[config] = measure_config(
                config, instance, use_numpy, repeat
            )
        exact_value = results.get("tiled-f64", results.get("dense-f64"))[2]
        dense_peak = results["dense-f64"][1] if "dense-f64" in results else None
        for config in CONFIGS:
            if config not in results:
                continue
            seconds, peak, value, certificate = results[config]
            quality = value / exact_value if exact_value else 1.0
            records.append(
                common.SketchBenchRecord(
                    scenario="websearch",
                    config=config,
                    n=n,
                    backend="numpy" if use_numpy else "python",
                    columns=certificate.columns if certificate else 0,
                    seconds=seconds,
                    peak_bytes=peak,
                    peak_ratio=(
                        peak / dense_peak if dense_peak else float("nan")
                    ),
                    quality=quality,
                )
            )
            if config == "sketched" and quality < QUALITY_TARGET:
                failures.append(
                    f"n={n}: sketched quality {quality:.4f} < {QUALITY_TARGET}"
                )
            if (
                config == "sketched"
                and dense_peak is not None
                and n >= MEMORY_GATE_N
                and peak / dense_peak > MEMORY_TARGET_RATIO
            ):
                failures.append(
                    f"n={n}: sketched peak {peak / dense_peak:.3f} of dense "
                    f"> {MEMORY_TARGET_RATIO}"
                )
    return records, failures


def run_stream_smoke(use_numpy):
    """The streaming-selector CI check: one pass over a live update
    trace at n beyond the tiled-smoke size, state bounded by
    k + reservoir regardless of pool size."""
    num_docs, events, k = (4000, 200, 10) if use_numpy else (800, 120, 8)
    stream = StreamingWebSearch(num_docs=num_docs, num_intents=8, seed=29)
    instance = stream.make_instance(k=k, lam=0.5)
    selector = StreamingGreedySelector(
        stream.provider, stream.query, instance.objective, k
    )
    answer_attributes = None
    offered = 0
    for row in instance.answers():
        answer_attributes = row.schema.attributes
        selector.offer(row)
        offered += 1
    for _ in range(events):
        event = stream.step()
        for row in event.rows:
            if row.schema.attributes != answer_attributes:
                continue
            if event.op == "insert":
                selector.offer(row)
                offered += 1
            else:
                selector.retire(row)
    result = selector.result()
    bound = selector.k + selector.reservoir_size
    assert len(result.rows) == k, f"selected {len(result.rows)} != k={k}"
    assert result.certificate.strategy == "streaming"
    assert result.certificate.lower == result.value == result.certificate.upper
    assert selector.peak_state <= bound, (
        f"streaming state {selector.peak_state} exceeded the documented "
        f"k + reservoir bound {bound}"
    )
    assert selector.peak_state < offered / 10, (
        f"streaming state {selector.peak_state} is not o(n) against "
        f"{offered} offered rows"
    )
    print(
        f"stream smoke ok: {offered} rows offered over {events} events "
        f"(pool n={num_docs}, backend={'numpy' if use_numpy else 'python'}), "
        f"peak state {selector.peak_state} <= {bound}, "
        f"{selector.swaps} swaps, F = {result.value:.4f}"
    )
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=f"small sizes with a {SMOKE_BUDGET_SECONDS:g}s budget (CI rot check)",
    )
    parser.add_argument(
        "--stream-smoke",
        action="store_true",
        help="CI check: bounded-memory streaming selection over a live "
        "StreamingWebSearch trace",
    )
    parser.add_argument(
        "--sizes",
        type=int,
        nargs="+",
        default=None,
        help="answer-pool sizes to measure (default 2000 10000 50000)",
    )
    parser.add_argument(
        "--repeat", type=int, default=1, help="best-of repetitions per config"
    )
    parser.add_argument(
        "--no-numpy",
        action="store_true",
        help="force the pure-Python kernel backend",
    )
    parser.add_argument(
        "--json",
        type=Path,
        default=None,
        metavar="PATH",
        help="write results as JSON (perf-trajectory artifact)",
    )
    args = parser.parse_args(argv)

    use_numpy = False if args.no_numpy else (True if numpy_available() else False)

    if args.stream_smoke:
        return run_stream_smoke(use_numpy)

    start = time.perf_counter()
    if args.smoke:
        sizes = (300, 800) if use_numpy else (150, 300)
    else:
        sizes = tuple(args.sizes) if args.sizes else (2000, 10_000, 50_000)

    records, failures = run_sizes(sizes, use_numpy, args.repeat)
    elapsed = time.perf_counter() - start

    print(
        common.render_sketch_report(
            records, title=f"sketched selection (websearch, sizes {list(sizes)})"
        )
    )
    sketched = [r for r in records if r.config == "sketched"]
    gated = [r for r in sketched if r.n >= MEMORY_GATE_N]
    if gated:
        top = max(gated, key=lambda r: r.n)
        if not math.isnan(top.peak_ratio):
            print(
                f"\nsketched peak at n={top.n}: {top.peak_ratio:.1%} of "
                f"dense-f64 (target <= {MEMORY_TARGET_RATIO:.0%})"
            )
    worst = min(sketched, key=lambda r: r.quality) if sketched else None
    if worst is not None:
        print(
            f"worst sketched quality: {worst.quality:.4f} at n={worst.n} "
            f"(target >= {QUALITY_TARGET:g})"
        )

    if args.json is not None:
        payload = {
            "bench": "sketch",
            "sizes": list(sizes),
            "numpy": use_numpy,
            "host": common.host_info(),
            "records": [r.as_dict() for r in records],
            "targets": {
                "quality": QUALITY_TARGET,
                "memory_ratio": MEMORY_TARGET_RATIO,
                "memory_gate_n": MEMORY_GATE_N,
            },
            "failures": failures,
            "wall_seconds": elapsed,
        }
        common.write_json(args.json, payload)
        print(f"wrote {args.json}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1

    if args.smoke:
        print(f"smoke wall time: {elapsed:.3f}s (budget {SMOKE_BUDGET_SECONDS}s)")
        if elapsed > SMOKE_BUDGET_SECONDS:
            print("SMOKE BUDGET EXCEEDED", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
