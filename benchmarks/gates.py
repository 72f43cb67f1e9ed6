#!/usr/bin/env python
"""Performance gates: every speed, memory and quality limit CI holds the engine to.

Each case runs one workload at fixed sizes and returns flat records::

    {"case": ..., "metric": ..., "value": ..., "unit": ..., "limit": ..., "passed": ...}

``limit`` is the bound the value is held to (``"<= 5"``, ``">= 0.9"``,
``"== 1"``), or null for a number that is only reported.  Metric names
carry the answer-pool size where it matters (``n=300.recall``).  The
default sizes are the CI smoke sizes, wall-time budgets included;
``--full`` runs the sizes the acceptance targets apply at (a case without
such a target runs its smoke size).  The kernel backend is whichever is
importable: stub NumPy out to gate the pure-Python kernels.  The tier-1
tests pin exactness (parity, certificates, counters) at test sizes; a
case records such a check only where it belongs to what the case times.

The exit status is non-zero when any record misses its limit.

Usage::

    python benchmarks/gates.py                               # every case, smoke sizes
    python benchmarks/gates.py --case storage --case sketch  # chosen cases
    python benchmarks/gates.py --full --case engine          # acceptance sizes
    python benchmarks/gates.py --json gates.jsonl            # also append JSON lines
"""

import argparse
import asyncio
import json
import multiprocessing
import operator
import statistics
import sys
import tempfile
import threading
import time
import tracemalloc
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

try:
    import repro  # noqa: F401
except ImportError:  # running as a script without PYTHONPATH/pip install
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.algorithms.greedy import select_greedy_marginal_max_sum
from repro.algorithms.mmr import mmr_select
from repro.algorithms.sketched import select_sketched_marginal_max_sum
from repro.algorithms.streaming import StreamingGreedySelector
from repro.api import DiversifyRequest, EngineConfig
from repro.core.instance import DiversificationInstance
from repro.core.objectives import Objective, ObjectiveKind
from repro.engine import (
    ALGORITHMS,
    DiversificationEngine,
    ScoringKernel,
    compute_delta,
    numpy_available,
    variants_grid,
)
from repro.retrieval import recall
from repro.service.core import DiversificationService, ServiceConfig
from repro.service.http import ServiceServer
from repro.workloads import corpus, courses, synthetic, teams, websearch
from repro.workloads.streaming import StreamingWebSearch

import common

NUMPY = numpy_available()
MAX_SUM, MAX_MIN = ObjectiveKind.MAX_SUM, ObjectiveKind.MAX_MIN
#: Documented float32 storage envelope: one binary32 rounding per entry
#: (≤ 2⁻²⁴ ≈ 6e-8 relative), with slack for the zero-vs-tiny edge.
F32_REL_ENVELOPE = 1e-6
#: Alternating scalar-loop / block-native samples behind the pure-Python
#: build ratio: one busy moment on a shared host decides a single pair.
BUILD_SAMPLES = 3

OPS = {
    "<": operator.lt,
    "<=": operator.le,
    "==": operator.eq,
    ">=": operator.ge,
    ">": operator.gt,
}


def record(metric, value, unit, limit=None):
    """One measured number.  ``limit`` is an ``(op, bound)`` pair such as
    ``("<=", 5.0)``, or None for a number that is only reported; a
    ``None`` value (not measurable on this backend) misses any limit."""
    if limit is None:
        return {"metric": metric, "value": value, "unit": unit, "limit": None, "passed": True}
    op, bound = limit
    return {
        "metric": metric,
        "value": value,
        "unit": unit,
        "limit": f"{op} {bound:.10g}",
        "passed": value is not None and OPS[op](value, bound),
    }


def check(metric, holds):
    """A yes/no record that must hold."""
    return record(metric, int(holds), "bool", ("==", 1))


def wall(start, budget):
    """The wall-time record of a smoke run that began at ``start``."""
    return record("wall_s", time.perf_counter() - start, "s", ("<=", budget))


def best_of(repeat, func):
    """(best wall seconds, last result) over ``repeat`` calls of ``func``."""
    best, result = float("inf"), None
    for _ in range(repeat):
        start = time.perf_counter()
        result = func()
        best = min(best, time.perf_counter() - start)
    return best, result


def timed_and_traced(func):
    """(wall seconds of one call, tracemalloc peak bytes of a second call,
    that call's result)."""
    seconds, _ = best_of(1, func)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        result = func()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return seconds, peak, result


def websearch_instances(count, n, k=10, vectorize=True):
    """``count`` same-data F_MS instances over one websearch database, each
    with its own provider (a provider's feature cache would pre-warm the
    next build) and with Q(D) evaluated, so timings cover kernel work."""
    db = websearch.generate(num_docs=n, num_intents=8, seed=17)
    instances = []
    for _ in range(count):
        provider = websearch.scoring_provider(db, vectorize=vectorize)
        objective = Objective.from_provider(MAX_SUM, provider, lam=0.5)
        instance = DiversificationInstance(
            websearch.documents_query(), db, k=k, objective=objective
        )
        instance.answers()
        instances.append(instance)
    return instances


def full_build(instance, use_numpy=NUMPY, **knobs):
    kernel = ScoringKernel(instance, use_numpy=use_numpy, config=EngineConfig(**knobs))
    kernel.materialize_all()
    return kernel


def picked_rows(instance, kernel):
    """The MMR selection over ``kernel``, as plain value lists."""
    result = mmr_select(instance, kernel=kernel)
    return None if result is None else [list(row.values) for row in result[1]]


def kernels_equal(a, b):
    """Float-for-float: snapshot, relevance, every distance and row sums."""
    return (
        list(a.answers) == list(b.answers)
        and [a.relevance_of(i) for i in range(a.n)] == [b.relevance_of(i) for i in range(b.n)]
        and a.distance_rows() == b.distance_rows()
        and [float(v) for v in a.row_distance_sums()] == [float(v) for v in b.row_distance_sums()]
    )


def grid_error(a, b):
    """Largest relative distance error of kernel ``b`` against ``a`` on a
    sampled ~48 × 48 index grid, last index included."""
    idx = list(range(0, a.n, max(1, a.n // 48)))
    if idx[-1] != a.n - 1:
        idx.append(a.n - 1)
    error = 0.0
    for i in idx:
        for j in idx:
            base = a.distance_between(i, j)
            error = max(error, abs(b.distance_between(i, j) - base) / (abs(base) or 1.0))
    return error


# -- engine ----------------------------------------------------------------


def engine_batches(n, ks, lams):
    """One k × λ batch per workload, each sharing one materialization."""
    web = websearch.generate(num_docs=n, num_intents=6)
    sources = {
        "websearch": (
            websearch.documents_query(),
            web,
            websearch.authority_relevance(),
            websearch.intent_distance(web),
        ),
        "courses": (
            courses.catalog_query(),
            courses.generate(extra_courses=max(0, n - 12)),
            courses.rating_relevance(),
            courses.area_distance(),
        ),
        "teams": (
            teams.roster_query(),
            teams.generate(num_players=n),
            teams.skill_relevance(),
            teams.position_distance(),
        ),
    }
    bases = {
        name: DiversificationInstance(
            query, db, k=ks[0], objective=Objective.max_sum(rel, dis, lam=lams[0])
        )
        for name, (query, db, rel, dis) in sources.items()
    }
    bases["synthetic"] = synthetic.random_instance(n=n, k=ks[0], lam=lams[0], seed=9)
    return {
        name: [variant for _, _, variant in variants_grid(base, ks, lams)]
        for name, base in bases.items()
    }


def case_engine(full):
    """The kernel-backed engine against the per-call direct path (one
    heuristic call per instance, scoring callables invoked per pair)."""
    if full:
        n, ks, lams = 200, [5, 10], [0.2, 0.5, 0.8]
        algorithms = ["mmr", "greedy_max_sum", "greedy_marginal_max_sum"]
    else:
        n, ks, lams, algorithms = 40, [4], [0.5, 0.8], ["mmr"]
    start = time.perf_counter()
    records = []
    for name, batch in engine_batches(n, ks, lams).items():
        direct = served = 0.0
        for algorithm in algorithms:
            solve = ALGORITHMS[algorithm]
            direct += best_of(1, lambda: [solve(instance, None) for instance in batch])[0]
            engine = DiversificationEngine(
                algorithm=algorithm, use_numpy=NUMPY, config=EngineConfig(cache_size=4)
            )
            served += best_of(1, lambda: engine.run_batch(batch))[0]
        limit = (">=", 2.0) if full and name == "websearch" else None
        records.append(record(f"n={n}.{name}.speedup", direct / served, "x", limit))
    return records if full else records + [wall(start, 1.0)]


# -- updates ---------------------------------------------------------------


def timed_patch(kernel, instance):
    """Wall seconds of patching ``kernel`` up to the instance's fresh Q(D)."""
    instance.invalidate_cache()
    delta = compute_delta(kernel, instance.answers())
    start = time.perf_counter()
    kernel.apply_delta(delta.inserted, delta.deleted)
    return time.perf_counter() - start


def single_delta_micro(n, repeat):
    """(best one-row patch, best rebuild, patched == rebuilt) under scalar
    scoring, where a rebuild re-pays n(n−1)/2 Python calls.  Each round
    patches in one arrival and then its retirement, so n stays put."""
    workload = StreamingWebSearch(num_docs=n, num_intents=6, seed=17, insert_fraction=1.0)
    instance = workload.make_instance(k=10, lam=0.5, use_provider=False)
    kernel = full_build(instance)
    patch = rebuild = float("inf")
    for _ in range(repeat):
        event = workload.step()
        patch = min(patch, timed_patch(kernel, instance))
        rebuild = min(rebuild, best_of(1, lambda: full_build(instance))[0])
        workload.retire(event.doc)
        patch = min(patch, timed_patch(kernel, instance))
    return patch, rebuild, kernels_equal(kernel, full_build(instance))


def provider_patch_micro(n, delta_size, repeat):
    """(best provider patch, best scalar patch, exact) of one |Δ|-row insert
    batch: the provider scores it in one ``distance_block`` call, its
    scalar twin in O(n·|Δ|) calls.  Each round retires the batch again."""
    workload = StreamingWebSearch(num_docs=n, num_intents=6, seed=29, insert_fraction=1.0)
    instance = workload.make_instance(k=10, lam=0.5, use_provider=True)
    twin = workload.make_instance(k=10, lam=0.5, use_provider=False)
    kernels = [full_build(instance), full_build(twin)]
    best = [float("inf"), float("inf")]
    for _ in range(repeat):
        inserted = [workload.step().doc for _ in range(delta_size)]
        for slot, kernel in enumerate(kernels):
            best[slot] = min(best[slot], timed_patch(kernel, instance))
        for doc in inserted:
            workload.retire(doc)
        for kernel in kernels:
            timed_patch(kernel, instance)
    fast, slow = kernels
    exact = kernels_equal(fast, full_build(instance)) and kernels_equal(fast, slow)
    return best[0], best[1], exact


def serve_loop(n, events, per_solve, patch_threshold):
    """(seconds, kernel exact) of an MMR engine serving while
    ``per_solve`` updates land between solves; ``patch_threshold=0``
    rebuilds every stale kernel instead of patching it."""
    workload = StreamingWebSearch(num_docs=n, num_intents=6, seed=17)
    instance = workload.make_instance(k=10, lam=0.5, use_provider=False)
    engine = DiversificationEngine(
        algorithm="mmr", use_numpy=NUMPY, config=EngineConfig(patch_threshold=patch_threshold)
    )
    engine.run(instance)
    applied = 0
    start = time.perf_counter()
    while applied < events:
        for _ in range(min(per_solve, events - applied)):
            workload.step()
            applied += 1
        instance.invalidate_cache()
        engine.run(instance)
    seconds = time.perf_counter() - start
    return seconds, kernels_equal(engine.kernel_for(instance), full_build(instance))


def case_updates(full):
    """Kernel delta patching against full rebuilds on the streaming
    websearch trace: one-row and batched deltas, and serving regimes."""
    if full:
        n, events, repeat, regimes, batch = 200, 60, 5, (1, 4, 16), 16
    else:
        n, events, repeat, regimes, batch = 40, 16, 2, (1, 4), 6
    start = time.perf_counter()
    patch, rebuild, exact = single_delta_micro(n, repeat)
    provider, scalar, provider_exact = provider_patch_micro(n, batch, repeat)
    records = [
        record(f"n={n}.single_delta.speedup", rebuild / patch, "x", (">=", 5.0) if full else None),
        record(f"n={n}.delta={batch}.provider_speedup", scalar / provider, "x"),
    ]
    for per_solve in regimes:
        patched, patched_exact = serve_loop(n, events, per_solve, patch_threshold=0.5)
        rebuilt, rebuilt_exact = serve_loop(n, events, per_solve, patch_threshold=0.0)
        exact = exact and patched_exact and rebuilt_exact
        metric = f"n={n}.updates_per_solve={per_solve}.speedup"
        records.append(record(metric, rebuilt / patched, "x"))
    records.append(check("patched_equals_rebuilt", exact and provider_exact))
    return records if full else records + [wall(start, 2.0)]


# -- heuristics ------------------------------------------------------------

#: Heuristics per objective, and the exact optimizer they are scored against.
HEURISTICS = {
    MAX_SUM: (
        ["greedy_max_sum", "greedy_marginal_max_sum", "mmr", "local_search"],
        "branch_and_bound_max_sum",
    ),
    MAX_MIN: (["greedy_max_min", "mmr", "local_search"], "exhaustive"),
}
#: The metric greedy heuristics keep the dispersion 2-approximation bound.
TWO_APPROXIMATIONS = ("greedy_max_sum", "greedy_max_min")


def bakeoff(kind, n, k, lam, seed, exact=True):
    """Every heuristic for ``kind`` on one data instance through one engine
    (one shared kernel): its seconds and, when the optimum is in exact
    reach, its share of the optimum."""
    instance = common.data_instance(n=n, k=k, kind=kind, lam=lam, seed=seed)
    instance.answers()
    engine = DiversificationEngine(use_numpy=NUMPY)
    heuristics, optimizer = HEURISTICS[kind]
    optimum = engine.run(instance, algorithm=optimizer).value if exact else None
    records = []
    for algorithm in heuristics:
        seconds, result = best_of(1, lambda: engine.run(instance, algorithm=algorithm))
        name = f"{kind.value}.n={n}.{algorithm}"
        records.append(record(f"{name}.seconds", seconds, "s"))
        if exact:
            floor = (">=", 0.5 - 1e-9) if algorithm in TWO_APPROXIMATIONS else None
            quality = result.value / optimum if optimum else 1.0
            records.append(record(f"{name}.quality", quality, "ratio", floor))
    return records


def case_heuristics(full):
    """Greedy, MMR and local search against the exact optimizers."""
    start = time.perf_counter()
    if full:
        records = bakeoff(MAX_SUM, 16, 5, 0.7, 2) + bakeoff(MAX_MIN, 14, 4, 1.0, 2)
        for n in (30, 60, 120):
            records += bakeoff(MAX_SUM, n, 6, 0.7, 4, exact=False)
        return records
    records = bakeoff(MAX_SUM, 12, 4, 0.7, 2) + bakeoff(MAX_MIN, 10, 3, 1.0, 2)
    return records + [wall(start, 2.0)]


# -- kernel construction ---------------------------------------------------


def case_kernel_build(full):
    """Kernel construction through the scalar adapter, the provider's
    blocked scalar loops (vectorization off), and its feature-space path."""
    sizes, repeat = ((100, 200, 500, 800), 3) if full else ((60, 150), 1)
    start = time.perf_counter()
    records, best = [], None
    for n in sizes:
        db = websearch.generate(num_docs=n, num_intents=6, seed=17)
        scalar = websearch.scoring_provider(db)
        objectives = {
            "scalar-adapter": Objective.max_sum(
                scalar.relevance_function(), scalar.distance_function(), lam=0.5
            ),
            "batch-loop": Objective.from_provider(
                MAX_SUM, websearch.scoring_provider(db, vectorize=False), lam=0.5
            ),
            "feature-space": Objective.from_provider(
                MAX_SUM, websearch.scoring_provider(db), lam=0.5
            ),
        }
        seconds, kernels = {}, {}
        for mode, objective in objectives.items():
            instance = DiversificationInstance(
                websearch.documents_query(), db, k=10, objective=objective
            )
            instance.answers()
            seconds[mode], kernels[mode] = best_of(repeat, lambda: full_build(instance))
        base = kernels["scalar-adapter"]
        fast = ("batch-loop", "feature-space")
        same = all(kernels_equal(base, kernels[mode]) for mode in fast)
        records.append(check(f"n={n}.modes_identical", same))
        for mode in fast:
            speedup = seconds["scalar-adapter"] / seconds[mode]
            records.append(record(f"n={n}.{mode}.speedup", speedup, "x"))
        if NUMPY and n >= 500:
            best = max(best or 0.0, seconds["scalar-adapter"] / seconds["feature-space"])
    if not full:
        return records + [wall(start, 2.0)]
    # The target is the NumPy feature-space path; pure Python cannot meet it.
    return records + [record("n>=500.feature-space.speedup", best, "x", (">=", 5.0))]


# -- storage ---------------------------------------------------------------

STORAGE_CONFIGS = (
    ("dense-f64", dict(storage="dense")),
    ("tiled-f64", dict(storage="tiled")),
    ("tiled-f32", dict(storage="tiled", dtype="float32")),
    ("tiled-parallel", dict(storage="tiled", workers=4)),
    ("tiled-spill", dict(storage="tiled", block_size=64, max_resident_tiles=4)),
    ("tiled-spill-dir", dict(storage="tiled", block_size=64, max_resident_tiles=4)),
)


def numpy_fanout_records(n=1200, block=128):
    """A NumPy ``workers=2`` build fans out over threads: it starts no
    process and stores the serial floats."""
    children = set(multiprocessing.active_children())
    serial_inst, threaded_inst = websearch_instances(2, n, k=5)
    serial = full_build(serial_inst, storage="tiled", block_size=block)
    threaded = full_build(threaded_inst, storage="tiled", block_size=block, workers=2)
    started = len(set(multiprocessing.active_children()) - children)
    same = (
        grid_error(serial, threaded) == 0.0
        and serial.row_distance_sums() == threaded.row_distance_sums()
        and picked_rows(serial_inst, serial) == picked_rows(threaded_inst, threaded)
    )
    return [
        record("numpy_workers=2.processes", started, "count", ("==", 0)),
        check("numpy_workers=2.matches_serial", same),
    ]


def case_storage(full):
    """Build time and tracemalloc peak of every storage policy on
    websearch, each read back and selected against dense float64."""
    sizes = (2000, 10_000) if full else (150, 300)
    start = time.perf_counter()
    records, results = [], {}
    with tempfile.TemporaryDirectory(prefix="gates-spill-") as spill_root:
        for n in sizes:
            instances = websearch_instances(len(STORAGE_CONFIGS), n)
            for (config, knobs), instance in zip(STORAGE_CONFIGS, instances):
                if config == "tiled-spill-dir":
                    knobs = {**knobs, "spill_dir": spill_root}
                seconds, peak, kernel = timed_and_traced(lambda: full_build(instance, **knobs))
                results[n, config] = seconds, peak
                name = f"n={n}.{config}"
                records += [
                    record(f"{name}.build_s", seconds, "s"),
                    record(f"{name}.peak_mb", peak / 1e6, "MB"),
                ]
                pick = picked_rows(instance, kernel)
                if config == "dense-f64":
                    dense, dense_pick = kernel, pick
                    continue
                if knobs.get("dtype") == "float32":
                    error_limit = ("<=", F32_REL_ENVELOPE)
                else:
                    error_limit = ("==", 0.0)
                    sums = kernel.row_distance_sums() == dense.row_distance_sums()
                    records.append(check(f"{name}.row_sums_match", sums))
                error = grid_error(dense, kernel)
                records += [
                    record(f"{name}.max_rel_error", error, "ratio", error_limit),
                    check(f"{name}.selection_matches_dense", pick == dense_pick),
                ]
                del kernel  # at most two O(n²) kernels resident: dense and one other
            del dense
    if NUMPY:
        records += numpy_fanout_records()
    if not full:
        return records + [wall(start, 5.0)]
    top = sizes[-1]
    f32_ratio = results[top, "tiled-f32"][1] / results[top, "dense-f64"][1]
    parallel = max(results[n, "tiled-f64"][0] / results[n, "tiled-parallel"][0] for n in sizes)
    return records + [
        record(f"n={top}.tiled-f32.peak_share_of_dense", f32_ratio, "ratio", ("<", 0.60)),
        record("n>=2000.tiled-parallel.speedup", parallel, "x", (">=", 2.0)),
    ]


def case_lazy_tiles(full):
    """MMR on a lazy tiled kernel scores some but not all tiles and picks
    what dense storage picks."""
    n, block = (2000, 128) if NUMPY else (300, 32)
    dense_inst, tiled_inst = websearch_instances(2, n, k=5)
    dense = ScoringKernel(dense_inst, use_numpy=NUMPY)
    tiled = ScoringKernel(
        tiled_inst, use_numpy=NUMPY, config=EngineConfig(storage="tiled", block_size=block)
    )
    unallocated = not tiled.distances_materialized
    same = picked_rows(dense_inst, dense) == picked_rows(tiled_inst, tiled)
    built, total = tiled._storage.tiles_built, tiled._storage.total_tiles
    return [
        check("unallocated_at_construction", unallocated),
        check("selection_matches_dense", same),
        record(f"n={n}.tiles_built", built, "count", (">", 0)),
        record(f"n={n}.tiles_built_share", built / total, "ratio", ("<", 1.0)),
    ]


def case_python_build(full):
    """A pure-Python tiled build scored pair by pair through the
    provider's scalar loop (``vectorize=False``) against the same build
    through its metric's block form.  The two alternate, each on fresh
    instances; the gate is the ratio of the median times."""
    n, block = 2200, 64
    loops = websearch_instances(BUILD_SAMPLES, n, k=5, vectorize=False)
    blocks = websearch_instances(BUILD_SAMPLES, n, k=5)

    def build(instance):
        return full_build(instance, False, storage="tiled", block_size=block)

    loop_s, block_s, records = [], [], []
    for sample in range(BUILD_SAMPLES):
        loop_s.append(best_of(1, lambda: build(loops[sample]))[0])
        block_s.append(best_of(1, lambda: build(blocks[sample]))[0])
        records += [
            record(f"n={n}.scalar_loop_s.{sample}", loop_s[-1], "s"),
            record(f"n={n}.block_s.{sample}", block_s[-1], "s"),
        ]
    speedup = statistics.median(loop_s) / statistics.median(block_s)
    return records + [record(f"n={n}.median_speedup", speedup, "x", (">=", 1.5))]


def case_bounded_memory(full):
    """A spilling kernel (4 resident tiles) materializes every tile of a
    pool whose dense float64 matrix would take n² × 8 bytes, under 35% of
    that, and picks what an unbounded lazy kernel picks."""
    n, block = (20_000, 256) if NUMPY else (2000, 64)
    reference_inst, bounded_inst = websearch_instances(2, n)
    reference = ScoringKernel(
        reference_inst, use_numpy=NUMPY, config=EngineConfig(storage="tiled", block_size=block)
    )
    expected = picked_rows(reference_inst, reference)
    del reference
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        kernel = full_build(bounded_inst, storage="tiled", block_size=block, max_resident_tiles=4)
        picked = picked_rows(bounded_inst, kernel)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return [
        record(f"n={n}.peak_mb", peak / 1e6, "MB"),
        record(f"n={n}.peak_share_of_dense", peak / (n * n * 8), "ratio", ("<", 0.35)),
        check("selection_matches_unbounded", picked == expected),
    ]


# -- sketch and streaming --------------------------------------------------


def sketch_and_select(config, instance):
    """A cold kernel build plus greedy F_MS selection; the pick's exact value."""
    storage = {"dense-f64": "dense", "tiled-f64": "tiled"}.get(config)
    engine_config = EngineConfig(storage=storage, approx=storage is None)
    kernel = ScoringKernel(instance, use_numpy=NUMPY, config=engine_config)
    if storage is None:
        return select_sketched_marginal_max_sum(kernel, instance.objective, instance.k).value
    indices = select_greedy_marginal_max_sum(kernel, instance.objective, instance.k)
    return kernel.value(indices, instance.objective)


def case_sketch(full):
    """Greedy F_MS over dense, lazy tiled and sketched (landmark-column)
    kernels: build + select time, tracemalloc peak, and the sketched
    pick's share of the exact marginal greedy."""
    if full:
        sizes = (2000, 10_000, 50_000)
    else:
        sizes = (300, 800) if NUMPY else (150, 300)
    start = time.perf_counter()
    records = []
    for n in sizes:
        results = {}
        for config in ("dense-f64", "tiled-f64", "sketched"):
            if config == "dense-f64" and n > 12_000:
                continue  # one n² allocation: the very ceiling the sketch removes
            (instance,) = websearch_instances(1, n)
            results[config] = timed_and_traced(lambda: sketch_and_select(config, instance))
            seconds, peak, _ = results[config]
            records += [
                record(f"n={n}.{config}.seconds", seconds, "s"),
                record(f"n={n}.{config}.peak_mb", peak / 1e6, "MB"),
            ]
        exact = results["tiled-f64"][2]
        quality = results["sketched"][2] / exact if exact else 1.0
        records.append(record(f"n={n}.sketched.quality", quality, "ratio", (">=", 0.9)))
        if full and n >= 10_000 and "dense-f64" in results:
            share = results["sketched"][1] / results["dense-f64"][1]
            metric = f"n={n}.sketched.peak_share_of_dense"
            records.append(record(metric, share, "ratio", ("<=", 0.15)))
    return records if full else records + [wall(start, 5.0)]


def case_streaming(full):
    """The one-pass streaming selector over a live insert/delete trace: its
    state stays within k + reservoir rows and under a tenth of the offers."""
    num_docs, events, k = (4000, 200, 10) if NUMPY else (800, 120, 8)
    stream = StreamingWebSearch(num_docs=num_docs, num_intents=8, seed=29)
    instance = stream.make_instance(k=k, lam=0.5)
    selector = StreamingGreedySelector(stream.provider, stream.query, instance.objective, k)
    answers = instance.answers()
    for row in answers:
        selector.offer(row)
    for _ in range(events):
        event = stream.step()
        for row in event.rows:
            if row.schema.attributes != answers[0].schema.attributes:
                continue
            if event.op == "insert":
                selector.offer(row)
            else:
                selector.retire(row)
    bound = selector.k + selector.reservoir_size
    return [
        record(f"n={num_docs}.peak_state", selector.peak_state, "rows", ("<=", bound)),
        record(
            f"n={num_docs}.peak_state_share_of_offered",
            selector.peak_state / selector.offered,
            "ratio",
            ("<", 0.1),
        ),
    ]


# -- serving ---------------------------------------------------------------


def serve_trace(trace, waves, coalesce, ttl):
    """(seconds, service) of ``waves`` concurrent rounds of ``trace``."""
    service = DiversificationService(
        ServiceConfig(
            engine=EngineConfig(),
            coalesce=coalesce,
            result_ttl=ttl,
            max_concurrent=len(trace) * waves + 1,
        )
    )

    async def drive():
        for _ in range(waves):
            await asyncio.gather(*[service.diversify(request) for request in trace])

    start = time.perf_counter()
    asyncio.run(drive())
    return time.perf_counter() - start, service


def case_service(full):
    """Coalescing plus the TTL cache against naive serving (every request
    runs the selector) on a duplicate-heavy trace: each wave fires every
    distinct (k, λ) request ``duplication`` times, round-robin."""
    scenarios = [(80, 5, 8, 1)]
    if full:
        scenarios += [(150, 5, 8, 2), (150, 10, 16, 2)]
    records = []
    for n, distinct, duplication, waves in scenarios:
        unique = [
            DiversifyRequest(
                workload="synthetic",
                params={"n": n},
                k=4 + 2 * i,
                lam=round(0.2 + 0.6 * i / max(1, distinct - 1), 3),
                algorithm="mmr",
            )
            for i in range(distinct)
        ]
        trace = [unique[i % distinct] for i in range(distinct * duplication)]
        total = len(trace) * waves
        naive_s, naive = serve_trace(trace, waves, coalesce=False, ttl=0.0)
        served_s, served = serve_trace(trace, waves, coalesce=True, ttl=300.0)
        name = f"n={n}.distinct={distinct}.x{duplication}.waves={waves}"
        hits = served.coalesced + served.results.stats.hits
        records += [
            record(f"{name}.speedup", naive_s / served_s, "x", (">=", 3.0)),
            record(f"{name}.naive.computed", naive.computed, "count", ("==", total)),
            record(f"{name}.computed", served.computed, "count", ("==", distinct)),
            record(f"{name}.coalesced_or_cached", hits, "count", ("==", total - distinct)),
        ]
        # the speedup is only the service's if neither side rebuilds
        for side, service in (("naive", naive), ("served", served)):
            builds = service.engine_for("default").stats.misses
            records.append(record(f"{name}.{side}.kernel_builds", builds, "count", ("==", 1)))
    return records


def case_http(full):
    """Eight concurrent duplicate POSTs to the stdlib HTTP server from
    urllib threads: one computation, the rest coalesced or TTL-served."""
    duplication = 8
    server = ServiceServer(DiversificationService(ServiceConfig()), port=0)
    loop = asyncio.new_event_loop()
    started = threading.Event()

    def serve():
        asyncio.set_event_loop(loop)
        loop.run_until_complete(server.start())
        started.set()
        loop.run_forever()

    async def shutdown():
        await server.stop()
        handlers = [task for task in asyncio.all_tasks() if task is not asyncio.current_task()]
        await asyncio.gather(*handlers, return_exceptions=True)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    if not started.wait(10.0):
        raise RuntimeError("the HTTP server did not start")
    body = {"workload": "synthetic", "params": {"n": 60}, "k": 5, "algorithm": "mmr"}

    def fetch(path, payload=None):
        request = urllib.request.Request(
            f"http://127.0.0.1:{server.port}{path}",
            data=None if payload is None else json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            return json.load(response)

    try:
        with ThreadPoolExecutor(max_workers=duplication) as pool:
            list(pool.map(lambda _: fetch("/diversify", body), range(duplication)))
        stats = fetch("/stats")
    finally:
        asyncio.run_coroutine_threadsafe(shutdown(), loop).result(timeout=10.0)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10.0)
        loop.close()
    served = stats["requests"]["coalesced"] + stats["result_cache"]["hits"]
    builds = stats["tenants"]["default"]["kernel_cache"]["misses"]
    latency = stats["latency"]["diversify"]
    return [
        record("computed", stats["requests"]["computed"], "count", ("==", 1)),
        record("coalesced_or_cached", served, "count", ("==", duplication - 1)),
        record("kernel_builds", builds, "count", ("==", 1)),
        record("latency_count", latency["count"], "count", ("==", duplication)),
        record("p95_ms", latency["p95_ms"], "ms"),
    ]


# -- retrieval -------------------------------------------------------------


def case_retrieval(full):
    """BM25 + ANN + fusion cut a synthetic corpus down to a kernel-sized
    pool: recall against exact scoring, the pool bound and, at full size,
    the cut's latency at 10⁶ rows and retrieve → diversify against greedy
    F_MS over an uncut 10,000-row answer set."""
    if full:
        sizes, pool_size = (100_000, 1_000_000), 2000
    else:
        sizes, pool_size = ((20_000, 50_000), 2000) if NUMPY else ((2_000, 5_000), 200)
    start = time.perf_counter()
    records, dense = [], None
    if full:
        instance = corpus.generate(num_docs=10_000, use_numpy=NUMPY).full_instance(k=10)
        instance.answers()
        engine = DiversificationEngine(use_numpy=NUMPY)
        dense, _ = best_of(1, lambda: engine.run(instance, "greedy_max_sum"))
        records.append(record("n=10000.uncut_diversify_s", dense, "s"))
    for n in sizes:
        documents = corpus.generate(num_docs=n, use_numpy=NUMPY)
        query = documents.query_text(1)
        index_seconds, retriever = best_of(1, documents.retriever)
        cut_seconds, cut = best_of(
            1, lambda: retriever.retrieve(query, pool_size=pool_size, retriever="hybrid")
        )
        truth = retriever.retrieve(query, pool_size=pool_size, retriever="hybrid", exact=True)
        pool_instance = documents.instance(cut.indices, k=10)
        engine = DiversificationEngine(use_numpy=NUMPY)
        pool_seconds, _ = best_of(1, lambda: engine.run(pool_instance, "greedy_max_sum"))
        cut_limit = ("<=", 1.0) if n >= 1_000_000 else None
        records += [
            record(f"n={n}.index_s", index_seconds, "s"),
            record(f"n={n}.pool_rows", len(cut), "count", ("<=", pool_size)),
            record(f"n={n}.recall", recall(cut.indices, truth.indices), "ratio", (">=", 0.9)),
            record(f"n={n}.retrieve_s", cut_seconds, "s", cut_limit),
            record(f"n={n}.diversify_pool_s", pool_seconds, "s"),
        ]
        if dense is not None and n >= 500_000:
            share = (cut_seconds + pool_seconds) / dense
            records.append(record(f"n={n}.e2e_share_of_uncut", share, "ratio", ("<=", 0.10)))
    return records if full else records + [wall(start, 30.0)]


CASES = {
    "engine": case_engine,
    "updates": case_updates,
    "heuristics": case_heuristics,
    "kernel_build": case_kernel_build,
    "storage": case_storage,
    "lazy_tiles": case_lazy_tiles,
    "python_build": case_python_build,
    "bounded_memory": case_bounded_memory,
    "sketch": case_sketch,
    "streaming": case_streaming,
    "service": case_service,
    "http": case_http,
    "retrieval": case_retrieval,
}


def run(cases, full=False, json_path=None):
    """Run ``cases`` (name → case function), print one line per record and,
    with ``json_path``, append each record to it as one JSON line.
    Returns the exit status: 1 when any record misses its limit."""
    failed = total = 0
    for name, case in cases.items():
        records = [{"case": name, **rec} for rec in case(full)]
        for rec in records:
            value = rec["value"]
            shown = f"{value:.4g}" if isinstance(value, float) else str(value)
            verdict = "ok" if rec["passed"] else "FAIL"
            limit = rec["limit"] or ""
            metric = rec["metric"]
            print(f"{name:<14} {metric:<52} {shown:>10} {rec['unit']:<6} {limit:<14} {verdict}")
        if json_path is not None:
            with open(json_path, "a") as out:
                out.writelines(json.dumps(rec) + "\n" for rec in records)
        failed += sum(not rec["passed"] for rec in records)
        total += len(records)
        sys.stdout.flush()
    print(f"{total} records, {failed} outside their limit")
    return 1 if failed else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--case",
        action="append",
        choices=sorted(CASES),
        help="run this case (repeatable; default: every case)",
    )
    parser.add_argument(
        "--full", action="store_true", help="run the sizes the acceptance targets apply at"
    )
    parser.add_argument(
        "--json", type=Path, metavar="PATH", help="append one JSON line per record to PATH"
    )
    args = parser.parse_args(argv)
    names = args.case or list(CASES)
    return run({name: CASES[name] for name in names}, args.full, args.json)


if __name__ == "__main__":
    raise SystemExit(main())
