#!/usr/bin/env python
"""Kernel delta-patching vs full rebuild under database updates.

Two measurements over the :class:`repro.workloads.streaming`
insert/delete trace:

* **single-delta micro**: at n≈200 websearch rows, the wall time of
  ``ScoringKernel.apply_delta`` on a one-row delta vs a full kernel
  rebuild — the acceptance target is a >= 5x speedup;
* **serving-loop regimes**: a
  :class:`~repro.engine.DiversificationEngine` serving MMR requests
  while the database mutates, with ``updates_per_solve`` updates
  landing between consecutive solves.  The patching engine
  (default ``patch_threshold``) is timed against an identical engine
  with patching disabled (``patch_threshold=0``, every stale kernel
  rebuilt), both driven by identical traces.

Every run also re-verifies correctness: the patched kernel must be
element-wise equal to a freshly built one after the whole trace.

Usage::

    python benchmarks/bench_updates.py               # full run (n=200)
    python benchmarks/bench_updates.py --smoke       # sub-second CI check
    python benchmarks/bench_updates.py --check       # exit non-zero unless >=5x
    python benchmarks/bench_updates.py --no-numpy    # pure-Python kernels
    python benchmarks/bench_updates.py --json out.json
"""

import argparse
import sys
import time
from pathlib import Path

try:
    import repro  # noqa: F401
except ImportError:  # running as a script without PYTHONPATH/pip install
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.api import EngineConfig
from repro.engine import (
    DiversificationEngine,
    ScoringKernel,
    compute_delta,
    numpy_available,
)
from repro.workloads.streaming import StreamingWebSearch

import common

SMOKE_BUDGET_SECONDS = 2.0
SPEEDUP_TARGET = 5.0


def _assert_kernel_parity(kernel, instance, use_numpy):
    """The whole point of patching is that nobody can tell: compare the
    maintained kernel element-wise against a fresh rebuild."""
    fresh = ScoringKernel(instance, use_numpy=use_numpy)
    assert kernel.snapshot_equals(list(fresh.answers)), "answers diverged"
    for i in range(fresh.n):
        assert kernel.relevance_of(i) == fresh.relevance_of(i), "relevance diverged"
        for j in range(fresh.n):
            assert kernel.distance_between(i, j) == fresh.distance_between(
                i, j
            ), "distance diverged"
    maintained = [float(v) for v in kernel.row_distance_sums()]
    rebuilt = [float(v) for v in fresh.row_distance_sums()]
    assert maintained == rebuilt, "row sums diverged"


def single_delta_micro(
    n, use_numpy, repeat=5, k=10, lam=0.5, seed=17, use_provider=True
):
    """Best-of-``repeat`` timings of a one-row patch vs a full rebuild.

    Alternates one insert event and one delete event per round, so each
    ``apply_delta`` call is a single-row delta and the corpus size stays
    ~n throughout.  ``use_provider=False`` drops the workload's
    batch-native provider from the objective, so patches and rebuilds
    run through the scalar-adapter path (the pre-provider behaviour) —
    the main() report compares the two.
    """
    workload = StreamingWebSearch(
        num_docs=n, num_intents=6, seed=seed, insert_fraction=1.0
    )
    instance = workload.make_instance(k=k, lam=lam, use_provider=use_provider)
    kernel = ScoringKernel(instance, use_numpy=use_numpy)
    kernel.materialize_all()  # time patches of built storage

    best_patch = float("inf")
    best_rebuild = float("inf")
    patched_rows = 0
    for _ in range(repeat):
        event = workload.step()  # insert_fraction=1.0 -> always an arrival
        instance.invalidate_cache()
        rows = instance.answers()
        delta = compute_delta(kernel, rows)
        start = time.perf_counter()
        kernel.apply_delta(delta.inserted, delta.deleted)
        best_patch = min(best_patch, time.perf_counter() - start)
        patched_rows += delta.size

        start = time.perf_counter()
        ScoringKernel(instance, use_numpy=use_numpy).materialize_all()
        best_rebuild = min(best_rebuild, time.perf_counter() - start)

        # Retire the document again so n stays put; time this single-row
        # deletion patch too (a delta is a delta).
        workload.retire(event.doc)
        instance.invalidate_cache()
        delta = compute_delta(kernel, instance.answers())
        start = time.perf_counter()
        kernel.apply_delta(delta.inserted, delta.deleted)
        best_patch = min(best_patch, time.perf_counter() - start)
        patched_rows += delta.size

    _assert_kernel_parity(kernel, instance, use_numpy)
    return {
        "n": kernel.n,
        "backend": kernel.backend,
        "patch_seconds": best_patch,
        "rebuild_seconds": best_rebuild,
        "speedup": best_rebuild / best_patch if best_patch > 0 else float("inf"),
        "patched_rows": patched_rows,
    }


def provider_patch_micro(n, delta_size, use_numpy, repeat=3, k=10, lam=0.5, seed=29):
    """Before/after for ISSUE 4: ``apply_delta`` scoring inserted rows
    through the provider's batch methods (one ``distance_block`` call
    per delta) vs the scalar-adapter path (O(n·|Δ|) scalar calls).

    Two kernels over the same live database — one provider-backed, one
    scalar — are patched with identical |Δ|=``delta_size`` insert
    batches and timed; parity between them is re-asserted afterwards.
    """
    workload = StreamingWebSearch(
        num_docs=n, num_intents=6, seed=seed, insert_fraction=1.0
    )
    fast_instance = workload.make_instance(k=k, lam=lam, use_provider=True)
    slow_instance = workload.make_instance(k=k, lam=lam, use_provider=False)
    fast = ScoringKernel(fast_instance, use_numpy=use_numpy)
    slow = ScoringKernel(slow_instance, use_numpy=use_numpy)
    for kernel in (fast, slow):
        kernel.materialize_all()  # time patches of built storage

    best_fast = float("inf")
    best_slow = float("inf")
    for _ in range(repeat):
        inserted = [workload.step().doc for _ in range(delta_size)]
        fast_instance.invalidate_cache()
        rows = fast_instance.answers()
        for kernel, best_attr in ((fast, "fast"), (slow, "slow")):
            delta = compute_delta(kernel, rows)
            start = time.perf_counter()
            kernel.apply_delta(delta.inserted, delta.deleted)
            elapsed = time.perf_counter() - start
            if best_attr == "fast":
                best_fast = min(best_fast, elapsed)
            else:
                best_slow = min(best_slow, elapsed)
        # Retire the batch so n stays put; patch both kernels back.
        for doc in inserted:
            workload.retire(doc)
        fast_instance.invalidate_cache()
        rows = fast_instance.answers()
        for kernel in (fast, slow):
            delta = compute_delta(kernel, rows)
            kernel.apply_delta(delta.inserted, delta.deleted)

    _assert_kernel_parity(fast, fast_instance, use_numpy)
    for i in range(fast.n):
        assert slow.relevance_of(i) == fast.relevance_of(i)
        for j in range(fast.n):
            assert slow.distance_between(i, j) == fast.distance_between(i, j)
    return {
        "n": fast.n,
        "delta_size": delta_size,
        "backend": fast.backend,
        "provider_patch_seconds": best_fast,
        "scalar_patch_seconds": best_slow,
        "speedup": best_slow / best_fast if best_fast > 0 else float("inf"),
    }


def _serve_loop(n, events, updates_per_solve, use_numpy, patch_threshold, seed, k, lam):
    # The serve loop compares the *maintenance strategies* (patch vs
    # rebuild) under scalar scoring, where maintenance dominates; the
    # provider fast paths are measured by provider_patch_micro and
    # benchmarks/bench_kernel_build.py.
    workload = StreamingWebSearch(num_docs=n, num_intents=6, seed=seed)
    instance = workload.make_instance(k=k, lam=lam, use_provider=False)
    engine = DiversificationEngine(
        algorithm="mmr",
        use_numpy=use_numpy,
        config=EngineConfig(patch_threshold=patch_threshold),
    )
    engine.run(instance)  # initial materialization (untimed warm-up)
    applied = 0
    start = time.perf_counter()
    while applied < events:
        for _ in range(min(updates_per_solve, events - applied)):
            workload.step()
            applied += 1
        instance.invalidate_cache()
        result = engine.run(instance)
        assert result is not None
    elapsed = time.perf_counter() - start
    kernel = engine.kernel_for(instance)
    _assert_kernel_parity(kernel, instance, use_numpy)
    return elapsed, engine.stats, kernel.backend


def run_regimes(n, events, regimes, use_numpy, seed=17, k=10, lam=0.5):
    records = []
    for updates_per_solve in regimes:
        patch_time, patch_stats, backend = _serve_loop(
            n, events, updates_per_solve, use_numpy, 0.5, seed, k, lam
        )
        rebuild_time, _, _ = _serve_loop(
            n, events, updates_per_solve, use_numpy, 0.0, seed, k, lam
        )
        records.append(
            common.UpdateBenchRecord(
                scenario="websearch-stream",
                n=n,
                events=events,
                updates_per_solve=updates_per_solve,
                backend=backend,
                patch_seconds=patch_time,
                rebuild_seconds=rebuild_time,
                # Both counters describe the *patching* engine's run: how
                # often it patched, and how often the delta exceeded the
                # threshold and fell back to a rebuild.
                patches=patch_stats.patches,
                stale_rebuilds=patch_stats.stale_rebuilds,
            )
        )
    return records


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=f"tiny sizes with a {SMOKE_BUDGET_SECONDS:g}s budget (CI rot check)",
    )
    parser.add_argument("--n", type=int, default=200, help="answer-pool size")
    parser.add_argument("--events", type=int, default=60, help="trace length")
    parser.add_argument(
        "--repeat", type=int, default=5, help="micro-bench repetitions"
    )
    parser.add_argument(
        "--no-numpy",
        action="store_true",
        help="force the pure-Python kernel backend",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help=f"exit non-zero unless the single-delta speedup is >= {SPEEDUP_TARGET:g}x",
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
    budget = time.perf_counter()
    if args.smoke:
        n, events, repeat, regimes, batch_delta = 40, 16, 2, (1, 4), 6
    else:
        n, events, repeat, regimes, batch_delta = (
            args.n,
            args.events,
            args.repeat,
            (1, 4, 16),
            16,
        )

    # The headline patch-vs-rebuild target is measured under scalar
    # scoring — the regime where a rebuild re-pays n(n-1)/2 Python calls
    # and maintenance is the difference between serving and stalling.
    micro = single_delta_micro(n, use_numpy, repeat=repeat, use_provider=False)
    batch_micro = provider_patch_micro(
        n, delta_size=batch_delta, use_numpy=use_numpy, repeat=repeat
    )
    records = run_regimes(n, events, regimes, use_numpy)
    elapsed = time.perf_counter() - budget

    print(
        common.render_update_report(
            records, title=f"kernel patch vs rebuild (n={n}, events={events})"
        )
    )
    print(
        f"\nsingle-row delta at n={micro['n']} ({micro['backend']}): "
        f"patch {micro['patch_seconds'] * 1e3:.3f}ms vs rebuild "
        f"{micro['rebuild_seconds'] * 1e3:.3f}ms -> {micro['speedup']:.1f}x "
        f"(target >= {SPEEDUP_TARGET:g}x)"
    )
    # The ISSUE-4 before/after: apply_delta scores an inserted batch
    # with one provider distance_block call instead of O(n·|Δ|) scalar
    # calls.
    print(
        f"batch delta |Δ|={batch_micro['delta_size']} at n={batch_micro['n']}: "
        f"provider patch {batch_micro['provider_patch_seconds'] * 1e3:.3f}ms vs "
        f"scalar patch {batch_micro['scalar_patch_seconds'] * 1e3:.3f}ms "
        f"-> {batch_micro['speedup']:.1f}x"
    )

    if args.json is not None:
        payload = {
            "bench": "updates",
            "n": n,
            "events": events,
            "numpy": numpy_available() and not args.no_numpy,
            "host": common.host_info(),
            "single_delta": micro,
            "provider_batch_delta": batch_micro,
            "regimes": [r.as_dict() for r in records],
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

    verdict = "PASS" if micro["speedup"] >= SPEEDUP_TARGET else "FAIL"
    print(f"single-delta speedup target -> {verdict}")
    if args.check and micro["speedup"] < SPEEDUP_TARGET:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
