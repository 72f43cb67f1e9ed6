"""Tests of the benchmark itself: the tail rule, span arithmetic, seeded
traces and the exact repeat of counted per-layer metrics."""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import subprocess
import sys
import threading

import pytest

from perfbench.stats import tail
from perfbench.tracing import Span, Tracer, covered_length, layer_self_times, self_times

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")


def _dictionary() -> dict:
    with open(os.path.join(ROOT, "perfbench", "metrics.json"), encoding="utf-8") as fh:
        return json.load(fh)


# -- the tail-percentile rule --------------------------------------------------


def test_tail_leaves_exactly_ten_samples_beyond():
    samples = [float(v) for v in range(100, 0, -1)]
    value, percentile = tail(samples)
    assert value == 90.0
    assert percentile == 90.0
    assert sum(1 for v in samples if v > value) == 10


def test_tail_percentile_follows_the_sample_count():
    value, percentile = tail([float(v) for v in range(1, 1001)])
    assert (value, percentile) == (990.0, 99.0)
    value, percentile = tail([float(v) for v in range(1, 51)])
    assert (value, percentile) == (40.0, 80.0)


def test_tail_without_enough_samples_falls_back_to_the_median():
    assert tail([3.0, 1.0, 2.0]) == (2.0, 50.0)
    assert tail([float(v) for v in range(10)]) == (4.5, 50.0)
    with pytest.raises(ValueError):
        tail([])


# -- span self-time arithmetic -------------------------------------------------


def _span(sid, parent, start, end, layer="x", thread=1):
    span = Span(sid, parent, 0, layer, layer, start, thread)
    span.end = end
    return span


def test_self_time_subtracts_the_union_of_clipped_children():
    parent = _span(1, None, 0.0, 10.0, "op")
    children = [
        _span(2, 1, 1.0, 3.0), _span(3, 1, 2.0, 5.0),  # overlap: [1, 5]
        _span(4, 1, 8.0, 12.0),                        # clipped to [8, 10]
    ]
    own = self_times([parent, *children])
    assert own[1] == pytest.approx(4.0)
    assert own[2] == pytest.approx(2.0)
    assert covered_length([(1.0, 3.0), (2.0, 5.0), (8.0, 10.0)]) == pytest.approx(6.0)


def test_layer_self_times_add_up_to_the_root_across_threads():
    parent = _span(1, None, 0.0, 10.0, "op", thread=1)
    service = _span(2, 1, 1.0, 9.0, "service", thread=1)
    engine = _span(3, 2, 2.0, 8.0, "engine", thread=2)   # in the worker thread
    select = _span(4, 3, 3.0, 6.0, "select", thread=2)
    totals = layer_self_times([parent, service, engine, select])
    assert totals == pytest.approx(
        {"op": 2.0, "service": 2.0, "engine": 3.0, "select": 3.0}
    )
    assert sum(totals.values()) == pytest.approx(parent.duration)


def test_spans_follow_the_request_into_the_worker_thread():
    ticks = iter(range(1000))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    main_thread = threading.get_ident()

    def engine_call():
        span, token = tracer.open("engine", "engine.run")
        tracer.close(span, token)

    async def service_call():
        span, token = tracer.open("service", "service.diversify")
        try:
            await asyncio.to_thread(engine_call)
        finally:
            tracer.close(span, token)

    async def client():
        root, token = tracer.open("op", "op", op=7)
        try:
            await service_call()
        finally:
            tracer.close(root, token)

    asyncio.run(client())
    root, service, engine = tracer.spans
    assert [s.op for s in tracer.spans] == [7, 7, 7]
    assert (service.parent, engine.parent) == (root.sid, service.sid)
    assert service.thread == main_thread and engine.thread != main_thread
    totals = layer_self_times(tracer.spans)
    assert sum(totals.values()) == pytest.approx(root.duration)
    assert totals["engine"] == pytest.approx(engine.duration)


def test_wrappers_record_spans_and_uninstall_cleanly():
    class Owner:
        def method(self, value):
            return value * 2

        @classmethod
        def build(cls, value):
            return cls().method(value)

    table = {"algo": lambda value: value + 1}
    table["algo"].kernel_access = "rows"
    tracer = Tracer()
    tracer.wrap(Owner, "method", "kernel", "Owner.method",
                after=lambda span, args, kwargs, result: setattr(span, "count", result))
    tracer.wrap(Owner, "build", "api", "Owner.build")
    tracer.wrap_item(table, "algo", "select", "select.algo")
    assert Owner.build(3) == 6
    assert table["algo"](1) == 2
    assert table["algo"].kernel_access == "rows"
    names = [(s.name, s.count) for s in tracer.spans]
    assert names == [("Owner.build", 0), ("Owner.method", 6), ("select.algo", 0)]
    assert tracer.spans[1].parent == tracer.spans[0].sid
    tracer.uninstall()
    assert "method" in vars(Owner) and not hasattr(Owner.method, "__wrapped__")
    assert not hasattr(table["algo"], "__wrapped__")


# -- seeded traces --------------------------------------------------------------


def _trace(name: str, seed: int, ops: int) -> list:
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[name](seed, "unused")
    trace = []
    for _ in range(ops):
        op = workload.next_op()
        if name == "hot_http":
            op = workload.bodies[op]
        trace.append(op)
    trace.append(repr(getattr(workload, "params", None)))
    trace.append(repr(getattr(workload, "corpora", None)))
    return trace


@pytest.mark.parametrize("name", ["hot_http", "cold_cut", "live_delta", "tiled_sweep"])
def test_traces_repeat_for_one_seed_and_differ_across_seeds(name):
    first = _trace(name, 5, 200)
    assert _trace(name, 5, 200) == first
    assert _trace(name, 6, 200) != first


def test_hot_http_miss_share_is_exact():
    from perfbench.workloads import HotHttp

    workload = HotHttp(3, "unused")
    ops = [workload.next_op() for _ in range(1000)]
    unique = [op for op in ops if op >= workload.popular]
    assert len(unique) == 80 and len(set(unique)) == 80


# -- the runner -------------------------------------------------------------------


def test_benchmark_spec_matches_the_metric_dictionary():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    dictionary = _dictionary()
    for section in ("end_to_end", "per_layer"):
        expected = [
            {key: entry[key] for key in spec[section][0]} for entry in dictionary[section]
        ]
        assert spec[section] == expected
    from perfbench.workloads import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_runner_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hot_http", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_counted_metrics_repeat_exactly_across_runs_of_one_seed():
    pytest.importorskip("numpy")
    command = [sys.executable, RUN, "--workload", "live_delta", "--seed", "4",
               "--seconds", "0.5", "--trace", "1"]
    runs = [subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            for _ in range(2)]
    outputs = []
    for run in runs:
        stdout, _ = run.communicate(timeout=170)
        assert run.returncode == 0
        outputs.append(json.loads(stdout.strip().splitlines()[-1]))
    counted = [
        entry["name"] for entry in _dictionary()["per_layer"]
        if entry["scope"] in ("prefix", "run")
        and entry["name"] != "http.response_bytes_per_op"
    ]
    first, second = (run["metrics"] for run in outputs)
    assert all(run["correct"] for run in outputs)
    assert {n: first[n]["value"] for n in counted} == {n: second[n]["value"] for n in counted}
    assert first["engine.kernel_patches"]["value"] > 0
    assert first["updates.rows_changed_per_delta"]["value"] > 0
