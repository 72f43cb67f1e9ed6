#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload hot_http --seed 1 --seconds 10 --trace 0

Run from the repository root; the program is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics: the workload is set up
``setup_repeats`` times (``setup_s`` is the median), then one client
runs a closed loop for ``--seconds`` and every response is checked
against an exact reference outside the timed window.  ``--trace 1``
first runs the same window untraced on a fresh set-up (the reference
for ``trace.overhead_ratio``), then sets up again with every layer's
entry points wrapped and reports the per-layer metrics; counts come
from the first ``count_ops`` ops, which every traced run completes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Spans of the
traced run are written to ``.perfbench-out/`` at the end.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import glob
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback
from concurrent.futures import ThreadPoolExecutor

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Per-run scratch (spill directories); removed at the end of each run.
TMP_ROOT = os.path.join(ROOT, ".perfbench-tmp")
SPAN_DIR = os.path.join(ROOT, ".perfbench-out")
#: A run that has not finished by then exits with status 124.
RUN_LIMIT_S = 170
METRICS_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "metrics.json")


def load_dictionary() -> dict:
    with open(METRICS_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


async def window(workload, seconds, tracer=None, count_ops=0, on_prefix=None):
    """One client, closed loop: the next request goes out when the
    previous one completed.  Runs for ``seconds`` and at least
    ``count_ops`` ops; an op that raises ends the window."""
    records, latencies = [], []
    error = None
    clock = time.perf_counter
    cpu_start = time.process_time()
    start = clock()
    deadline = start + seconds
    op = 0
    while op < count_ops or clock() < deadline:
        spec = workload.next_op()
        try:
            if tracer is None:
                began = clock()
                record = await workload.execute(spec)
                latencies.append(clock() - began)
            else:
                span, token = tracer.open("op", "op", op=op)
                try:
                    record = await workload.execute(spec)
                finally:
                    tracer.close(span, token)
                latencies.append(span.duration)
        except Exception:
            error = traceback.format_exc()
            break
        records.append(record)
        op += 1
        if op == count_ops and on_prefix is not None:
            on_prefix()
    elapsed = clock() - start
    cpu = time.process_time() - cpu_start
    return records, latencies, elapsed, cpu, error


async def start_worker_thread() -> None:
    """Give the loop a one-thread default executor and start its thread
    before any timed set-up.  One client and one tenant never compute
    two requests at once, so one thread serves every ``to_thread`` hop,
    always the same one (a spare thread per hop would shift memory
    between allocator arenas from run to run)."""
    asyncio.get_running_loop().set_default_executor(ThreadPoolExecutor(max_workers=1))
    await asyncio.to_thread(int)


def verdict(workload, records, error) -> tuple[int, int, list[str]]:
    """``(attempted, failed, notes)`` for one window's records."""
    began = time.perf_counter()
    checks = workload.check(records)
    failed = sum(1 for ok in checks if not ok)
    notes = [f"checked {len(records)} ops in {time.perf_counter() - began:.1f} s"]
    if failed:
        notes.append(f"{failed} response(s) differ from the exact reference")
    attempted = len(records)
    if error is not None:
        attempted += 1
        failed += 1
        notes.append("an op raised:\n" + error)
    return attempted, failed, notes


def leftover_spill_dirs(workdir: str) -> int:
    return len(glob.glob(os.path.join(workdir, "**", "tiles-*"), recursive=True))


async def end_to_end(cls, seed: int, seconds: float, workdir: str):
    from perfbench.stats import tail

    await start_worker_thread()

    async def set_up():
        began = time.perf_counter()
        workload = cls(seed, workdir)
        await workload.setup()
        setups.append(time.perf_counter() - began)
        return workload

    setups = []
    workload = await set_up()
    gc.collect()
    records, latencies, elapsed, cpu, error = await window(workload, seconds)
    # Read before the check and the extra set-ups, so the peak is that
    # of one set-up plus the window.
    rss = peak_rss_mb()
    attempted, failed, notes = verdict(workload, records, error)
    await workload.close()
    workload = records = None
    for _ in range(cls.setup_repeats - 1):
        gc.collect()
        await (await set_up()).close()
    ops = max(len(latencies), 1)
    tail_value, tail_pct = tail(latencies) if latencies else (0.0, 0.0)
    values = {
        "throughput_ops_s": len(latencies) / elapsed,
        "latency_p50_ms": 1000.0 * statistics.median(latencies) if latencies else 0.0,
        "latency_tail_ms": 1000.0 * tail_value,
        "success_rate": (attempted - failed) / max(attempted, 1),
        "cpu_ms_per_op": 1000.0 * cpu / ops,
        "peak_rss_mb": rss,
        "setup_s": statistics.median(setups),
    }
    info = {
        "tail_percentile": round(tail_pct, 3),
        "samples": len(latencies),
        "setups_s": [round(s, 4) for s in setups],
    }
    return attempted, failed, notes, values, info


async def traced(cls, seed: int, seconds: float, workdir: str):
    from perfbench import layers
    from perfbench.tracing import Tracer

    await start_worker_thread()
    # The untraced reference window, on its own fresh set-up.
    reference = cls(seed, workdir)
    await reference.setup()
    gc.collect()
    records, _, elapsed, _, reference_error = await window(reference, seconds)
    untraced_rate = max(len(records), 1) / elapsed
    await reference.close()
    reference = records = None
    gc.collect()

    tracer = Tracer()
    ledger = layers.install(tracer)
    monitor = layers.GcMonitor()
    gc.callbacks.append(monitor)
    try:
        workload = cls(seed, workdir, tracer=tracer)
        await workload.setup()
        gc.collect()
        start = layers.snapshot(workload, monitor)
        prefix = {}
        pause_start = monitor.pause

        def on_prefix():
            prefix.update(layers.snapshot(workload, monitor))

        records, latencies, elapsed, _, error = await window(
            workload, seconds, tracer, workload.count_ops, on_prefix
        )
        pause = monitor.pause - pause_start
    finally:
        gc.callbacks.remove(monitor)
        tracer.uninstall()
    ops = max(len(latencies), 1)
    counted_ops = cls.count_ops
    if not prefix:  # an op raised before the counted prefix completed
        prefix = layers.snapshot(workload, monitor)
        counted_ops = ops
    values = layers.counted_metrics(tracer.spans, start, prefix, counted_ops)
    values.update(layers.timed_metrics(tracer.spans, ops))
    values["retrieval.index_build_s"] = layers.index_build_seconds(tracer.spans)
    values["gc.pause_ms_per_op"] = 1000.0 * pause / ops
    values["trace.overhead_ratio"] = (len(latencies) / elapsed) / untraced_rate - 1.0
    attempted, failed, notes = verdict(workload, records, error)
    if reference_error is not None:
        attempted += 1
        failed += 1
        notes.append("an op of the untraced reference window raised:\n" + reference_error)
    await workload.close()
    workload = records = None
    gc.collect()
    values["storage.leaked_spill_dirs"] = leftover_spill_dirs(workdir) + ledger.leaked
    os.makedirs(SPAN_DIR, exist_ok=True)
    tracer.write(os.path.join(SPAN_DIR, f"spans-{cls.name}-seed{seed}.jsonl.gz"))
    info = {
        "samples": len(latencies),
        "counted_ops": counted_ops,
        "layer_sum_ms": round(
            sum(values[f"{layer}.self_ms_per_op"] for layer in layers.LAYERS)
            + values["unattributed_ms_per_op"], 4),
        "op_ms": round(values["trace.op_ms_per_op"], 4),
    }
    return attempted, failed, notes, values, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    from repro.engine import numpy_available

    if not numpy_available():
        print("perfbench: the benchmark runs on the NumPy backend", file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    cls = WORKLOADS[args.workload]
    dictionary = load_dictionary()
    section = "per_layer" if args.trace else "end_to_end"
    units = {entry["name"]: entry["unit"] for entry in dictionary[section]}

    # A terminated run still removes its scratch directory, and a run
    # that hangs ends well inside the 180 s a run may take.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    signal.signal(signal.SIGALRM, lambda *_: sys.exit(124))
    signal.alarm(RUN_LIMIT_S)
    os.makedirs(TMP_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{cls.name}-", dir=TMP_ROOT)
    try:
        measure = traced if args.trace else end_to_end
        attempted, failed, notes, values, info = asyncio.run(
            measure(cls, args.seed, args.seconds, workdir)
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(TMP_ROOT)
        except OSError:
            pass
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 1
    for note in notes:
        print(f"perfbench: {cls.name}: {note}", file=sys.stderr)
    print(json.dumps({"workload": cls.name, "seed": args.seed, **info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
