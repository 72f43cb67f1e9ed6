#!/usr/bin/env python
"""Kernel storage bake-off: dense vs tiled vs float32 vs parallel builds.

The pluggable storage layer (ISSUE 5) exists to remove the single
contiguous O(n²) float64 allocation as the ceiling on answer-pool size.
This bench measures, per storage policy, the two costs that justify it —
**peak memory** (tracemalloc, over one cold full materialization) and
**build time** (kernel construction + every tile built) — on the
websearch workload:

* ``dense-f64``   — the historical contiguous matrix (the baseline);
* ``tiled-f64``   — lazy tile grid, float64 at rest (bit-identical);
* ``tiled-f32``   — tiles narrowed to float32 at rest (≈half the matrix
  bytes; reductions stay float64);
* ``tiled-parallel`` — tiled-f64 built with ``workers=4``, fanned out
  the way the backend picks: a thread pool on NumPy (which releases the
  GIL inside the jaccard matmuls), a warm process pool on pure Python;
* ``tiled-procpool`` (pure Python only) — tiled-f64 built with
  ``workers="auto"`` through a **process pool**: tiles score in worker
  processes and return as pickled float lists — the true-multicore path
  (the warm-pool registry is cleared before every measured build, so
  this cell keeps pricing the cold spawn-and-ship path);
* ``tiled-warmpool`` (pure Python only) — the same process-pool build
  served from a **warm pool**: the registry is primed once, every
  measured build leases the already-spawned workers (the amortized
  serving path);
* ``tiled-spill`` — tiled-f64 under an LRU tile budget
  (``max_resident_tiles``): bounded resident memory, evicted tiles
  rebuilt on touch;
* ``tiled-spill-dir`` — the same tile budget with ``spill_dir`` set:
  evicted tiles go to an append-only segment file, and row reads come
  back from it one positioned read per row instead of whole-tile
  rebuilds.

Every run re-verifies correctness in-bench (these assertions gate CI):
float64 configs must be element-wise *equal* to dense on a sampled
index grid, tiled-f32 must stay inside the documented relative-error
envelope, and the MMR selection must be identical across all configs.
With NumPy, every smoke mode also runs the NumPy fan-out check in place
of process cells: a ``workers=2`` build starts no process and stores
the serial floats.

Acceptance targets (ISSUE 5, measured at full sizes, reported in the
JSON): tiled-f32 peak < 60% of dense-f64 peak at n=10,000, and the
parallel tiled build ≥ 2× faster than the serial tiled build at
n ≥ 2000 with 4 workers.

``--multicore-smoke`` is the CI process-pool gate: pure-Python tiles
built through worker processes must be element-wise identical to the
serial build, and on hosts with ≥ 2 CPUs the GIL-bound pure-Python
build must run ≥ 1.5× faster through a cold pool.  ``--bounded-smoke`` is
the CI memory gate: a spilling kernel materializes all of n = 20,000
(dense-f64 equivalent: ~3.2 GB) with a tracemalloc peak under 35% of
that, selecting float-for-float identically to an unbounded kernel.
``--warm-smoke`` is the CI warm-path gate: pure-Python warm-pool builds
and spill-segment builds on both backends must be float-identical to
serial, and on hosts with ≥ 2 CPUs the second (warm) pure-Python
process-pool build must run ≥ 2× faster than the cold one.

Usage::

    python benchmarks/bench_storage.py                # full run (2k, 10k)
    python benchmarks/bench_storage.py --smoke        # CI-sized, sub-5s
    python benchmarks/bench_storage.py --lazy-smoke   # lazy-path CI check
    python benchmarks/bench_storage.py --multicore-smoke  # process-pool gate
    python benchmarks/bench_storage.py --bounded-smoke    # n=20k memory gate
    python benchmarks/bench_storage.py --warm-smoke       # warm-pool + segment gate
    python benchmarks/bench_storage.py --check        # fail unless targets met
    python benchmarks/bench_storage.py --no-numpy     # pure-Python kernels
    python benchmarks/bench_storage.py --json BENCH_storage.json
"""

import argparse
import multiprocessing
import os
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

try:
    import repro  # noqa: F401
except ImportError:  # running as a script without PYTHONPATH/pip install
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.algorithms.mmr import mmr_select
from repro.api import EngineConfig
from repro.core.instance import DiversificationInstance
from repro.core.objectives import Objective, ObjectiveKind
from repro.engine import (
    ScoringKernel,
    TiledStorage,
    available_cpus,
    numpy_available,
    resolve_workers,
    warm_pool_registry,
)
from repro.workloads import websearch

import common

SMOKE_BUDGET_SECONDS = 5.0
PARALLEL_WORKERS = 4
MEMORY_TARGET_RATIO = 0.60   # tiled-f32 peak vs dense-f64 peak
PARALLEL_TARGET_SPEEDUP = 2.0  # serial tiled vs parallel tiled build
#: Process-pool gate (``--multicore-smoke``): the GIL-bound pure-Python
#: build must improve at least this much on hosts with ≥ 2 CPUs.
MULTICORE_TARGET_SPEEDUP = 1.5
#: Bounded-memory gate (``--bounded-smoke``): spilling-kernel peak vs
#: what the dense float64 matrix alone would allocate (n² × 8 bytes).
BOUNDED_TARGET_RATIO = 0.35
BOUNDED_SMOKE_N = 20_000
#: Warm-path gate (``--warm-smoke``): a warm-pool process build must
#: beat the cold spawn-and-ship build at least this much on ≥ 2 CPUs
#: (worker spawn + snapshot ship is exactly the cost the registry
#: amortizes away).
WARM_TARGET_SPEEDUP = 2.0
#: Documented float32 storage envelope: one binary32 rounding per entry
#: (≤ 2⁻²⁴ ≈ 6e-8 relative), with slack for the zero-vs-tiny edge.
F32_REL_ENVELOPE = 1e-6

CONFIGS = (
    ("dense-f64", dict(storage="dense")),
    ("tiled-f64", dict(storage="tiled")),
    ("tiled-f32", dict(storage="tiled", dtype="float32")),
    ("tiled-parallel", dict(storage="tiled", workers=PARALLEL_WORKERS)),
    ("tiled-procpool", dict(storage="tiled", workers="auto")),
    ("tiled-warmpool", dict(storage="tiled", workers="auto")),
    ("tiled-spill", dict(storage="tiled", block_size=64, max_resident_tiles=4)),
    # spill_dir is injected at run time (a per-run tempdir).
    ("tiled-spill-dir", dict(storage="tiled", block_size=64,
                             max_resident_tiles=4)),
)

#: Cold/warm process-pool cells: only pure-Python builds fan out over
#: processes, so on NumPy :func:`assert_numpy_starts_no_process` runs
#: in their place.
PROCESS_CELLS = ("tiled-procpool", "tiled-warmpool")


def configs_for(use_numpy):
    return [
        (config, knobs) for config, knobs in CONFIGS
        if not (use_numpy and config in PROCESS_CELLS)
    ]


def build_instances(n, k=10, lam=0.5, seed=17):
    """One same-data instance per storage config.

    All configs share one database and one materialized answer set
    (primed before timing); each gets its own provider instance so the
    per-provider feature cache of one config never pre-warms another.
    """
    db = websearch.generate(num_docs=n, num_intents=8, seed=seed)
    query = websearch.documents_query()
    instances = {}
    for config, _ in CONFIGS:
        objective = Objective.from_provider(
            ObjectiveKind.MAX_SUM, websearch.scoring_provider(db), lam=lam
        )
        instance = DiversificationInstance(query, db, k=k, objective=objective)
        instance.answers()  # prime the Q(D) cache; not part of the build
        instances[config] = instance
    return instances


def full_build(instance, knobs, use_numpy):
    kernel = ScoringKernel(
        instance, use_numpy=use_numpy, config=EngineConfig(**knobs)
    )
    kernel.materialize_all()
    return kernel


def dtype_of(kernel):
    return kernel.config.dtype or "float64"


def measure_config(instance, knobs, use_numpy, repeat, prepare=None):
    """(best-of build seconds, tracemalloc peak bytes, kernel).

    ``prepare`` runs before every timed build — the hook the warm-pool
    cells use to pin the registry state each measurement starts from
    (cleared for the cold cell, primed for the warm one).
    """
    best = float("inf")
    for _ in range(repeat):
        if prepare is not None:
            prepare()
        start = time.perf_counter()
        full_build(instance, knobs, use_numpy)
        best = min(best, time.perf_counter() - start)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        if prepare is not None:
            prepare()
        kernel = full_build(instance, knobs, use_numpy)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return best, peak, kernel


def sample_indices(n, limit=48):
    step = max(1, n // limit)
    idx = list(range(0, n, step))
    if idx[-1] != n - 1:
        idx.append(n - 1)
    return idx


def assert_storage_parity(config, kernel, dense_vals, dense_sums, idx):
    """The in-bench correctness gate (CI fails when these trip)."""
    exact = dtype_of(kernel) == "float64"
    for i in idx:
        for j in idx:
            value = kernel.distance_between(i, j)
            base = dense_vals[(i, j)]
            if exact:
                assert value == base, (
                    f"{config}: dist[{i}][{j}] diverged: {value!r} != {base!r}"
                )
            else:
                err = abs(value - base) / (abs(base) or 1.0)
                assert err <= F32_REL_ENVELOPE, (
                    f"{config}: dist[{i}][{j}] outside float32 envelope: "
                    f"rel err {err:.3e}"
                )
    if exact:
        assert kernel.row_distance_sums() == dense_sums, (
            f"{config}: row sums diverged"
        )


def _cell_setup(config, knobs, instance, use_numpy, spill_root):
    """Per-config run-time knob injection and pre-build hook.

    ``tiled-spill-dir`` gets the run's spill tempdir; ``tiled-procpool``
    clears the warm-pool registry before every build so it keeps
    pricing the cold path; ``tiled-warmpool`` primes the registry once
    so every measured build leases already-spawned workers.
    """
    knobs = dict(knobs)
    prepare = None
    if config == "tiled-spill-dir":
        knobs["spill_dir"] = spill_root
    elif config == "tiled-procpool":
        prepare = warm_pool_registry().clear
    elif config == "tiled-warmpool":
        warm_pool_registry().clear()
        full_build(instance, knobs, use_numpy)  # prime, not measured
    return knobs, prepare


def run_sizes(sizes, use_numpy, repeat):
    configs = configs_for(use_numpy)
    records = []
    with tempfile.TemporaryDirectory(prefix="bench-storage-spill-") as spill_root:
        for n in sizes:
            instances = build_instances(n)
            # The dense baseline is built once and kept; every other config
            # is measured, parity- and selection-checked against it, then
            # dropped — so at most two O(n²) kernels are resident at a time
            # (the bench must not itself need 4× the dense footprint).
            results = {}
            base_seconds, base_peak, dense = measure_config(
                instances["dense-f64"], dict(CONFIGS[0][1]), use_numpy, repeat
            )
            results["dense-f64"] = (base_seconds, base_peak, dtype_of(dense))
            idx = sample_indices(dense.n)
            dense_vals = {
                (i, j): dense.distance_between(i, j) for i in idx for j in idx
            }
            dense_sums = dense.row_distance_sums()
            dense_pick = mmr_select(instances["dense-f64"], kernel=dense)
            assert dense_pick is not None, "dense-f64: MMR returned no selection"
            dense_rows = [list(row.values) for row in dense_pick[1]]
            for config, knobs in configs[1:]:
                knobs, prepare = _cell_setup(
                    config, knobs, instances[config], use_numpy, spill_root
                )
                seconds, peak, kernel = measure_config(
                    instances[config], knobs, use_numpy, repeat, prepare=prepare
                )
                assert_storage_parity(config, kernel, dense_vals, dense_sums, idx)
                result = mmr_select(instances[config], kernel=kernel)
                assert result is not None, f"{config}: MMR returned no selection"
                rows = [list(row.values) for row in result[1]]
                assert rows == dense_rows, (
                    f"selection diverged: {config} != dense-f64"
                )
                results[config] = (seconds, peak, dtype_of(kernel))
                del kernel
            for config, knobs in configs:
                seconds, peak, dtype = results[config]
                records.append(
                    common.StorageBenchRecord(
                        scenario="websearch",
                        config=config,
                        n=dense.n,
                        backend=dense.backend,
                        dtype=dtype,
                        workers=resolve_workers(knobs.get("workers")),
                        build_seconds=seconds,
                        peak_bytes=peak,
                        peak_ratio=peak / base_peak if base_peak else 1.0,
                        build_speedup=(
                            base_seconds / seconds if seconds > 0 else float("inf")
                        ),
                    )
                )
        warm_pool_registry().clear()  # don't hold worker processes after
    return records


def acceptance(records):
    """The ISSUE 5 targets, from the largest measured size."""
    by = {}
    for r in records:
        by.setdefault(r.n, {})[r.config] = r
    top_n = max(by) if by else 0
    top = by.get(top_n, {})
    memory_ratio = None
    parallel_speedup = None
    if "tiled-f32" in top and "dense-f64" in top:
        memory_ratio = top["tiled-f32"].peak_ratio
    eligible = [
        by[n] for n in by if n >= 2000
        and "tiled-f64" in by[n] and "tiled-parallel" in by[n]
    ]
    if eligible:
        parallel_speedup = max(
            cell["tiled-f64"].build_seconds / cell["tiled-parallel"].build_seconds
            for cell in eligible
            if cell["tiled-parallel"].build_seconds > 0
        )
    procpool_speedup = None
    pool_cells = [
        by[n] for n in by if n >= 2000
        and "tiled-f64" in by[n] and "tiled-procpool" in by[n]
    ]
    if pool_cells:
        procpool_speedup = max(
            cell["tiled-f64"].build_seconds / cell["tiled-procpool"].build_seconds
            for cell in pool_cells
            if cell["tiled-procpool"].build_seconds > 0
        )
    warm_speedup = None
    warm_cells = [
        by[n] for n in by
        if "tiled-procpool" in by[n] and "tiled-warmpool" in by[n]
    ]
    if warm_cells:
        warm_speedup = max(
            cell["tiled-procpool"].build_seconds
            / cell["tiled-warmpool"].build_seconds
            for cell in warm_cells
            if cell["tiled-warmpool"].build_seconds > 0
        )
    return {
        "n": top_n,
        "memory_ratio_f32": memory_ratio,
        "memory_target": MEMORY_TARGET_RATIO,
        "parallel_speedup": parallel_speedup,
        "parallel_target": PARALLEL_TARGET_SPEEDUP,
        "procpool_speedup": procpool_speedup,
        "multicore_target": MULTICORE_TARGET_SPEEDUP,
        "warm_speedup": warm_speedup,
        "warm_target": WARM_TARGET_SPEEDUP,
    }


def run_lazy_smoke(use_numpy):
    """The CI lazy-path check: selectors run on a tiled kernel without
    forcing full materialization, and select identically to dense."""
    n, block = (2000, 128) if use_numpy else (300, 32)
    instances = build_instances(n, k=5)
    dense = ScoringKernel(instances["dense-f64"], use_numpy=use_numpy)
    tiled = ScoringKernel(
        instances["tiled-f64"],
        use_numpy=use_numpy,
        config=EngineConfig(storage="tiled", block_size=block),
    )
    assert not tiled.distances_materialized, (
        "tiled kernel allocated distance storage at construction"
    )
    direct = mmr_select(instances["dense-f64"], kernel=dense)
    routed = mmr_select(instances["tiled-f64"], kernel=tiled)
    assert routed is not None and direct is not None
    assert [list(r.values) for r in routed[1]] == [
        list(r.values) for r in direct[1]
    ], "lazy tiled MMR selection diverged from dense"
    storage = tiled._storage
    assert isinstance(storage, TiledStorage)
    built, total = storage.tiles_built, storage.total_tiles
    assert 0 < built < total, (
        f"MMR on n={n} should touch some but not all tiles, built {built}/{total}"
    )
    print(
        f"lazy smoke ok: n={n}, backend={'numpy' if use_numpy else 'python'}, "
        f"MMR touched {built}/{total} tiles, selection identical to dense"
    )
    return 0


def _instance_pair(n, k, seed=17, lam=0.5):
    """Two same-data instances (shared db, separate providers) so one
    config's per-provider feature cache never pre-warms the other."""
    db = websearch.generate(num_docs=n, num_intents=8, seed=seed)
    query = websearch.documents_query()
    pair = []
    for _ in range(2):
        objective = Objective.from_provider(
            ObjectiveKind.MAX_SUM, websearch.scoring_provider(db), lam=lam
        )
        instance = DiversificationInstance(query, db, k=k, objective=objective)
        instance.answers()
        pair.append(instance)
    return pair


def _build_kernel(instance, use_numpy, **knobs):
    return full_build(instance, knobs, use_numpy)


def _assert_same_kernel(label, serial, pooled, serial_inst, pooled_inst, n):
    """Float-for-float identity between two float64 kernels: sampled
    grid, row sums, and the MMR selection they induce."""
    idx = sample_indices(n)
    for i in idx:
        for j in idx:
            a = serial.distance_between(i, j)
            b = pooled.distance_between(i, j)
            assert a == b, f"{label}: dist[{i}][{j}] diverged: {b!r} != {a!r}"
    assert serial.row_distance_sums() == pooled.row_distance_sums(), (
        f"{label}: row sums diverged"
    )
    base = mmr_select(serial_inst, kernel=serial)
    other = mmr_select(pooled_inst, kernel=pooled)
    assert base is not None and other is not None, (
        f"{label}: MMR returned no selection"
    )
    assert [list(r.values) for r in other[1]] == [
        list(r.values) for r in base[1]
    ], f"{label}: MMR selection diverged"


def assert_numpy_starts_no_process(n=1200, block=128):
    """The NumPy fan-out check: a ``workers=2`` build fans out over
    threads — it starts no child process and leaves the warm-pool
    registry untouched — and stores exactly the serial floats."""
    registry = warm_pool_registry()
    before = registry.stats()
    children = set(multiprocessing.active_children())
    serial_inst, threaded_inst = _instance_pair(n, k=5)
    serial = _build_kernel(serial_inst, True, storage="tiled", block_size=block)
    threaded = _build_kernel(
        threaded_inst, True, storage="tiled", block_size=block, workers=2
    )
    started = set(multiprocessing.active_children()) - children
    assert not started, f"numpy: a workers=2 build started {len(started)} process(es)"
    assert registry.stats() == before, (
        "numpy: a workers=2 build went through the process-pool registry"
    )
    _assert_same_kernel(
        "threads/numpy", serial, threaded, serial_inst, threaded_inst, n
    )
    print(
        f"numpy check ok: n={n}, workers=2 build started no process, "
        "tiles identical to serial"
    )


def run_multicore_smoke(use_numpy, json_path=None):
    """The CI process-pool gate.

    Parity cell (pure Python, pool forced with ``workers=2`` so it
    exercises worker processes even on single-CPU hosts): process-built
    tiles must be element-wise identical to the serial build; with NumPy
    the NumPy fan-out check runs too.  The speedup cell runs the
    GIL-bound pure-Python build with ``workers="auto"`` through a cold
    pool and must clear ``MULTICORE_TARGET_SPEEDUP`` — enforced only
    when ≥ 2 CPUs are visible (a 1-worker pool resolves to the serial
    path by design).
    """
    start = time.perf_counter()
    cpus = available_cpus()
    workers = resolve_workers("auto")
    print(f"multicore smoke: {cpus} CPU(s) visible, workers='auto' -> {workers}")
    if use_numpy:
        assert_numpy_starts_no_process()
    n, block = 300, 32
    serial_inst, pooled_inst = _instance_pair(n, k=5)
    serial = _build_kernel(serial_inst, False, storage="tiled", block_size=block)
    pooled = _build_kernel(
        pooled_inst, False, storage="tiled", block_size=block, workers=2
    )
    _assert_same_kernel(
        "procpool/python", serial, pooled, serial_inst, pooled_inst, n
    )
    print(f"parity ok: python backend, n={n}, process-built tiles identical to serial")
    warm_pool_registry().clear()  # the gate prices a cold pool
    n, block = 2200, 64
    serial_inst, pooled_inst = _instance_pair(n, k=5)
    t = time.perf_counter()
    serial = _build_kernel(serial_inst, False, storage="tiled", block_size=block)
    serial_seconds = time.perf_counter() - t
    t = time.perf_counter()
    pooled = _build_kernel(
        pooled_inst, False, storage="tiled", block_size=block, workers="auto"
    )
    pooled_seconds = time.perf_counter() - t
    _assert_same_kernel(
        "procpool/gate", serial, pooled, serial_inst, pooled_inst, n
    )
    speedup = (
        serial_seconds / pooled_seconds if pooled_seconds > 0 else float("inf")
    )
    print(
        f"pure-python n={n}: serial {serial_seconds:.2f}s, "
        f"process pool ({workers} workers) {pooled_seconds:.2f}s "
        f"-> {speedup:.2f}x"
    )
    if cpus >= 2:
        assert speedup >= MULTICORE_TARGET_SPEEDUP, (
            f"process pool {speedup:.2f}x under the "
            f"{MULTICORE_TARGET_SPEEDUP:g}x gate with {cpus} CPUs"
        )
        print(
            f"multicore gate PASS: {speedup:.2f}x >= "
            f"{MULTICORE_TARGET_SPEEDUP:g}x"
        )
    else:
        print("single CPU visible - speedup gate skipped (parity still enforced)")
    if json_path is not None:
        payload = {
            "bench": "storage-multicore-smoke",
            "numpy": use_numpy,
            "host": common.host_info(
                resolved_workers=workers, parallel_speedup=speedup
            ),
            "gate": {
                "n": n,
                "serial_seconds": serial_seconds,
                "pooled_seconds": pooled_seconds,
                "speedup": speedup,
                "target": MULTICORE_TARGET_SPEEDUP,
                "enforced": cpus >= 2,
            },
            "wall_seconds": time.perf_counter() - start,
        }
        common.write_json(json_path, payload)
        print(f"wrote {json_path}")
    return 0


def run_warm_smoke(use_numpy, json_path=None):
    """The CI warm-path gate.

    Parity cells: a pure-Python build served from a warm pool, and a
    budgeted ``spill_dir`` kernel on both backends, must be
    float-identical to the serial build — sampled grid, row sums, and
    MMR selection; with NumPy the NumPy fan-out check runs too.
    The speedup cell times the GIL-bound pure-Python process build cold
    (registry cleared: worker spawn + snapshot ship on the clock) and
    then warm (same snapshot, pool leased from the registry) and must
    clear ``WARM_TARGET_SPEEDUP`` — enforced only on ≥ 2 CPUs.
    """
    start = time.perf_counter()
    registry = warm_pool_registry()
    cpus = available_cpus()
    print(f"warm smoke: {cpus} CPU(s) visible")
    if use_numpy:
        assert_numpy_starts_no_process()
    backends = [("python", False, 300, 32)]
    if use_numpy:
        backends.insert(0, ("numpy", True, 1200, 128))
    segment_stats = {}
    with tempfile.TemporaryDirectory(prefix="warm-smoke-spill-") as spill_root:
        for name, flag, n, block in backends:
            serial_inst, pooled_inst = _instance_pair(n, k=5)
            serial = _build_kernel(
                serial_inst, flag, storage="tiled", block_size=block
            )
            if not flag:
                # Cold process build primes the registry; the warm build
                # leases the pool it left behind.
                registry.clear()
                _build_kernel(
                    pooled_inst, False, storage="tiled", block_size=block,
                    workers=2,
                )
                warm = _build_kernel(
                    pooled_inst, False, storage="tiled", block_size=block,
                    workers=2,
                )
                assert registry.stats()["hits"] >= 1, (
                    f"warm/{name}: second build missed the warm pool"
                )
                _assert_same_kernel(
                    f"warm/{name}", serial, warm, serial_inst, pooled_inst, n
                )
                print(
                    f"parity ok: {name} backend, n={n}, "
                    "warm-pool build identical to serial"
                )
            mapped_inst = _instance_pair(n, k=5)[0]
            mapped = _build_kernel(
                mapped_inst, flag, storage="tiled", block_size=block,
                max_resident_tiles=2,
                spill_dir=os.path.join(spill_root, name),
            )
            _assert_same_kernel(
                f"segment/{name}", serial, mapped, serial_inst, mapped_inst, n
            )
            stats = mapped.storage_stats()
            assert stats["mmap_reads"] > 0, (
                f"segment/{name}: no row reads came back from the segment"
            )
            segment_stats[name] = {
                key: stats[key]
                for key in ("spills", "mmap_reads", "bytes_mapped")
            }
            print(
                f"parity ok: {name} backend, n={n}, spill-segment reads "
                f"identical to serial ({stats['mmap_reads']} row reads, "
                f"{stats['bytes_mapped']} bytes)"
            )
        n, block = 300, 32
        registry.clear()
        serial_inst, pooled_inst = _instance_pair(n, k=5)
        # Cold and warm builds share one instance: the warm hit keys on
        # the snapshot digest, so the payload must pickle byte-identically.
        t = time.perf_counter()
        _build_kernel(
            pooled_inst, False, storage="tiled", block_size=block, workers=2
        )
        cold_seconds = time.perf_counter() - t
        t = time.perf_counter()
        warm = _build_kernel(
            pooled_inst, False, storage="tiled", block_size=block, workers=2
        )
        warm_seconds = time.perf_counter() - t
        _assert_same_kernel(
            "warm/gate",
            _build_kernel(serial_inst, False, storage="tiled", block_size=block),
            warm, serial_inst, pooled_inst, n,
        )
    registry.clear()
    speedup = cold_seconds / warm_seconds if warm_seconds > 0 else float("inf")
    print(
        f"pure-python n={n}: cold pool {cold_seconds:.3f}s, "
        f"warm pool {warm_seconds:.3f}s -> {speedup:.2f}x"
    )
    if cpus >= 2:
        assert speedup >= WARM_TARGET_SPEEDUP, (
            f"warm pool {speedup:.2f}x under the {WARM_TARGET_SPEEDUP:g}x "
            f"gate with {cpus} CPUs"
        )
        print(f"warm gate PASS: {speedup:.2f}x >= {WARM_TARGET_SPEEDUP:g}x")
    else:
        print("single CPU visible - speedup gate skipped (parity still enforced)")
    if json_path is not None:
        payload = {
            "bench": "storage-warm-smoke",
            "numpy": use_numpy,
            "host": common.host_info(
                resolved_workers=resolve_workers("auto"),
                warm_speedup=speedup,
            ),
            "gate": {
                "n": n,
                "cold_seconds": cold_seconds,
                "warm_seconds": warm_seconds,
                "speedup": speedup,
                "target": WARM_TARGET_SPEEDUP,
                "enforced": cpus >= 2,
            },
            "segment": segment_stats,
            "wall_seconds": time.perf_counter() - start,
        }
        common.write_json(json_path, payload)
        print(f"wrote {json_path}")
    return 0


def run_bounded_smoke(use_numpy, json_path=None):
    """The CI bounded-memory gate: a spilling kernel materializes every
    tile of an answer pool whose dense float64 matrix would not fit the
    budget, with a tracemalloc peak under ``BOUNDED_TARGET_RATIO`` of
    that matrix — and selects float-for-float like an unbounded kernel.
    """
    start = time.perf_counter()
    n, block = (BOUNDED_SMOKE_N, 256) if use_numpy else (2000, 64)
    dense_bytes = n * n * 8
    bound = BOUNDED_TARGET_RATIO * dense_bytes
    lazy_inst, bounded_inst = _instance_pair(n, k=10)
    # The selection reference: an unbounded lazy tiled kernel (MMR only
    # touches the tiles it needs; nothing here is O(n²)-resident either).
    reference = ScoringKernel(
        lazy_inst,
        use_numpy=use_numpy,
        config=EngineConfig(storage="tiled", block_size=block),
    )
    ref_pick = mmr_select(lazy_inst, kernel=reference)
    assert ref_pick is not None, "bounded smoke: reference MMR returned nothing"
    ref_rows = [list(r.values) for r in ref_pick[1]]
    del reference
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        kernel = _build_kernel(
            bounded_inst,
            use_numpy,
            storage="tiled",
            block_size=block,
            max_resident_tiles=4,
        )
        pick = mmr_select(bounded_inst, kernel=kernel)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert pick is not None, "bounded smoke: MMR returned no selection"
    assert [list(r.values) for r in pick[1]] == ref_rows, (
        "bounded smoke: spilling-kernel MMR selection diverged from unbounded"
    )
    stats = kernel.storage_stats() or {}
    try:
        import resource

        rss_peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    except ImportError:  # pragma: no cover - non-Unix
        rss_peak = None
    print(
        f"bounded smoke: n={n}, backend="
        f"{'numpy' if use_numpy else 'python'}, full materialization + MMR"
    )
    print(
        f"  traced peak {peak / 1e6:.1f} MB vs dense-f64 matrix "
        f"{dense_bytes / 1e6:.1f} MB -> {peak / dense_bytes:.1%} "
        f"(gate < {BOUNDED_TARGET_RATIO:.0%})"
    )
    if rss_peak is not None:
        print(f"  process RSS peak {rss_peak / 1e6:.1f} MB (whole run)")
    print(f"  storage counters: {stats}")
    assert peak < bound, (
        f"bounded smoke: traced peak {peak} >= {BOUNDED_TARGET_RATIO:.0%} "
        f"of the dense matrix ({dense_bytes} bytes)"
    )
    print("bounded-memory gate PASS: selection identical to unbounded kernel")
    if json_path is not None:
        payload = {
            "bench": "storage-bounded-smoke",
            "n": n,
            "numpy": use_numpy,
            "host": common.host_info(
                resolved_workers=resolve_workers("auto")
            ),
            "peak_bytes": peak,
            "dense_bytes": dense_bytes,
            "peak_ratio": peak / dense_bytes,
            "target_ratio": BOUNDED_TARGET_RATIO,
            "rss_peak_bytes": rss_peak,
            "storage": stats,
            "wall_seconds": time.perf_counter() - start,
        }
        common.write_json(json_path, payload)
        print(f"wrote {json_path}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=f"small sizes with a {SMOKE_BUDGET_SECONDS:g}s budget (CI rot check)",
    )
    parser.add_argument(
        "--lazy-smoke",
        action="store_true",
        help="CI check that selectors run lazily on tiled storage "
        "(partial tile builds) with dense-identical selections",
    )
    parser.add_argument(
        "--multicore-smoke",
        action="store_true",
        help="CI process-pool gate: worker-built tiles identical to serial; "
        f">={MULTICORE_TARGET_SPEEDUP:g}x pure-Python speedup on >=2 CPUs",
    )
    parser.add_argument(
        "--bounded-smoke",
        action="store_true",
        help=f"CI memory gate: n={BOUNDED_SMOKE_N} spilling kernel, peak "
        f"< {BOUNDED_TARGET_RATIO:.0%} of the dense-f64 matrix",
    )
    parser.add_argument(
        "--warm-smoke",
        action="store_true",
        help="CI warm-path gate: warm-pool and spill-segment builds identical "
        f"to serial; >={WARM_TARGET_SPEEDUP:g}x warm-vs-cold pool speedup "
        "on >=2 CPUs",
    )
    parser.add_argument(
        "--sizes",
        type=int,
        nargs="+",
        default=None,
        help="answer-pool sizes to measure (default 2000 10000)",
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
        "--check",
        action="store_true",
        help=(
            f"exit non-zero unless tiled-f32 peak < {MEMORY_TARGET_RATIO:.0%} of "
            f"dense and parallel build >= {PARALLEL_TARGET_SPEEDUP:g}x serial tiled"
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
    smoke_modes = (
        args.smoke or args.lazy_smoke or args.multicore_smoke
        or args.bounded_smoke or args.warm_smoke
    )
    if args.check and smoke_modes:
        # The acceptance targets are meaningless at smoke sizes; refuse
        # rather than silently skipping the gate.
        parser.error("--check requires a full-size run; drop the smoke flags")

    use_numpy = False if args.no_numpy else (True if numpy_available() else False)

    if args.lazy_smoke:
        return run_lazy_smoke(use_numpy)
    if args.multicore_smoke:
        return run_multicore_smoke(use_numpy, args.json)
    if args.bounded_smoke:
        return run_bounded_smoke(use_numpy, args.json)
    if args.warm_smoke:
        return run_warm_smoke(use_numpy, args.json)

    start = time.perf_counter()
    if args.smoke:
        sizes = (150, 300)
    else:
        sizes = tuple(args.sizes) if args.sizes else (2000, 10000)

    records = run_sizes(sizes, use_numpy, args.repeat)
    if use_numpy:
        assert_numpy_starts_no_process()
    elapsed = time.perf_counter() - start

    print(
        common.render_storage_report(
            records, title=f"kernel storage (websearch, sizes {list(sizes)})"
        )
    )
    summary = acceptance(records)
    if summary["memory_ratio_f32"] is not None:
        print(
            f"\ntiled-f32 peak at n={summary['n']}: "
            f"{summary['memory_ratio_f32']:.0%} of dense-f64 "
            f"(target < {MEMORY_TARGET_RATIO:.0%})"
        )
    if summary["parallel_speedup"] is not None:
        print(
            f"parallel tiled build at n>=2000/{PARALLEL_WORKERS} workers: "
            f"{summary['parallel_speedup']:.2f}x serial tiled "
            f"(target >= {PARALLEL_TARGET_SPEEDUP:g}x)"
        )
    if summary["procpool_speedup"] is not None:
        print(
            f"process-pool tiled build at n>=2000 "
            f"(workers auto -> {resolve_workers('auto')}): "
            f"{summary['procpool_speedup']:.2f}x serial tiled "
            f"(gate >= {MULTICORE_TARGET_SPEEDUP:g}x on multi-core hosts)"
        )
    if summary["warm_speedup"] is not None:
        print(
            f"warm-pool build vs cold process build: "
            f"{summary['warm_speedup']:.2f}x "
            f"(gate >= {WARM_TARGET_SPEEDUP:g}x on multi-core hosts)"
        )
    cpus = os.cpu_count() or 1
    if cpus < PARALLEL_WORKERS:
        print(
            f"note: only {cpus} CPU(s) visible — a {PARALLEL_WORKERS}-worker "
            "pool cannot beat the serial build on this machine; "
            "interpret the parallel row accordingly"
        )

    if args.json is not None:
        payload = {
            "bench": "storage",
            "sizes": list(sizes),
            "numpy": use_numpy,
            "host": common.host_info(
                resolved_workers=resolve_workers("auto"),
                parallel_speedup=summary["procpool_speedup"],
                warm_speedup=summary["warm_speedup"],
            ),
            "records": [r.as_dict() for r in records],
            "acceptance": summary,
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

    if args.check:
        failed = []
        if (
            summary["memory_ratio_f32"] is None
            or summary["memory_ratio_f32"] >= MEMORY_TARGET_RATIO
        ):
            failed.append("memory")
        if (
            summary["parallel_speedup"] is None
            or summary["parallel_speedup"] < PARALLEL_TARGET_SPEEDUP
        ):
            failed.append("parallel")
        print(f"storage acceptance -> {'FAIL: ' + ', '.join(failed) if failed else 'PASS'}")
        return 1 if failed else 0
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
