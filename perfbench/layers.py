"""The layer map of the traced run and the per-layer metrics it yields.

:func:`install` wraps the public entry points of every module on a
request path, layer by layer:

=============  ==========================================================
layer          entry points
=============  ==========================================================
``http``       the client's HTTP exchange (the server task adopts the
               client's op through ``ServiceServer._dispatch``)
``service``    ``DiversificationService.diversify`` / ``sweep`` / ``delta``
``api``        ``DiversifyRequest.from_dict``, ``DiversifyResponse.
               from_result`` / ``to_dict``
``relational`` cold ``DiversificationInstance.answers`` (Q(D) evaluation),
               ``StreamingWorkload.apply_updates`` (database updates)
``retrieval``  ``CandidateRetriever.retrieve`` / ``from_rows``
``engine``     ``DiversificationEngine.run`` / ``sweep`` / ``kernel_for`` /
               ``pool_for``
``kernel``     ``kernel_for_instance``, the kernel's row reads
               (``copy_distance_row``, ``minimum_inplace``,
               ``add_row_inplace``, ``best_pair``) and the providers'
               ``relevance_batch`` / ``distance_block``
``storage``    the row and bulk reads of ``DenseStorage`` / ``TiledStorage``
``updates``    ``compute_delta``, ``ScoringKernel.apply_delta``,
               ``repair_after_delta``
``select``     every ``ALGORITHMS`` entry
=============  ==========================================================

Root spans (layer ``op``) are opened by the benchmark's client loop;
their self time is the op latency no layer covers.
"""

from __future__ import annotations

import time
from multiprocessing import shared_memory

import repro.algorithms.incremental as incremental
import repro.engine.engine as engine_module
import repro.engine.kernel as kernel_module
import repro.engine.updates as updates_module
from repro.api import DiversifyRequest, DiversifyResponse
from repro.core.instance import DiversificationInstance
from repro.core.providers import FeatureSpaceProvider, ScoringProvider
from repro.engine.kernel import ScoringKernel
from repro.engine.parallel import warm_pool_registry
from repro.engine.storage import DenseStorage, TiledStorage
from repro.retrieval.retriever import CandidateRetriever
from repro.service.core import DiversificationService
from repro.service.http import ServiceServer
from repro.service.registry import StreamingWorkload

from .tracing import (
    Tracer,
    children_of,
    first_foreign_start,
    layer_self_times,
    outermost,
    self_times,
)

#: Layers in request-path order (the ``op`` root is not a layer).
LAYERS = (
    "http", "service", "api", "relational", "retrieval", "engine",
    "kernel", "storage", "updates", "select",
)

API_CALLS = {
    "DiversifyRequest.from_dict", "DiversifyResponse.from_result",
    "DiversifyResponse.to_dict",
}
KERNEL_READS = {
    "ScoringKernel.copy_distance_row", "ScoringKernel.minimum_inplace",
    "ScoringKernel.add_row_inplace", "ScoringKernel.best_pair",
}
DISTANCE_BLOCKS = {"ScoringProvider.distance_block",
                   "FeatureSpaceProvider.distance_block"}
STORAGE_READS = ("copy_row64", "minimum_into", "add_into", "gather64",
                 "row64", "row_sums64", "ensure_all", "remap")


def _rows(span, args, kwargs, result) -> None:
    span.count = len(result)


def _pairs(span, args, kwargs, result) -> None:
    span.count = len(args[1]) * len(args[2])


def _timings(span, args, kwargs, result) -> None:
    span.extra = dict(result.timings)


def _delta_rows(span, args, kwargs, result) -> None:
    inserted = args[1] if len(args) > 1 else kwargs.get("inserted", ())
    deleted = args[2] if len(args) > 2 else kwargs.get("deleted", ())
    span.count = len(inserted) + len(deleted)


def _repair(span, args, kwargs, result) -> None:
    span.extra = {"reran": bool(result is not None and result.reran)}


def _cold(args) -> bool:
    return getattr(args[0], "_result_cache", None) is None


class SharedMemoryLedger:
    """Shared-memory segments this process created and never unlinked."""

    def __init__(self):
        self.created = 0
        self.unlinked = 0

    @property
    def leaked(self) -> int:
        return self.created - self.unlinked


class GcMonitor:
    """Collector pauses and full collections, via ``gc.callbacks``."""

    def __init__(self):
        self.pause = 0.0
        self.gen2 = 0
        self._start = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter()
            return
        self.pause += time.perf_counter() - self._start
        if info.get("generation") == 2:
            self.gen2 += 1


def install(tracer: Tracer) -> SharedMemoryLedger:
    """Wrap every layer's entry points; ``tracer.uninstall()`` undoes it."""
    wrap = tracer.wrap
    for method in ("diversify", "sweep", "delta"):
        wrap(DiversificationService, method, "service",
             f"DiversificationService.{method}")
    wrap(DiversifyRequest, "from_dict", "api", "DiversifyRequest.from_dict")
    wrap(DiversifyResponse, "from_result", "api", "DiversifyResponse.from_result")
    wrap(DiversifyResponse, "to_dict", "api", "DiversifyResponse.to_dict")
    wrap(DiversificationInstance, "answers", "relational",
         "DiversificationInstance.answers", after=_rows, cold=_cold)
    wrap(StreamingWorkload, "apply_updates", "relational",
         "StreamingWorkload.apply_updates")
    wrap(CandidateRetriever, "retrieve", "retrieval", "CandidateRetriever.retrieve",
         after=_timings)
    wrap(CandidateRetriever, "from_rows", "retrieval", "CandidateRetriever.from_rows")
    for method in ("run", "sweep", "kernel_for", "pool_for"):
        wrap(engine_module.DiversificationEngine, method, "engine",
             f"DiversificationEngine.{method}")
    # The engine holds its own reference to kernel_for_instance and
    # compute_delta; wrap the name in each module that calls it.
    for module in (engine_module, kernel_module):
        wrap(module, "kernel_for_instance", "kernel", "kernel_for_instance")
    for name in sorted(KERNEL_READS):
        wrap(ScoringKernel, name.split(".")[1], "kernel", name)
    wrap(ScoringProvider, "relevance_batch", "kernel", "ScoringProvider.relevance_batch")
    for owner in (ScoringProvider, FeatureSpaceProvider):
        wrap(owner, "distance_block", "kernel", f"{owner.__name__}.distance_block",
             after=_pairs)
    for owner in (DenseStorage, TiledStorage):
        for method in STORAGE_READS:
            wrap(owner, method, "storage", f"{owner.__name__}.{method}")
    for module in (engine_module, updates_module):
        wrap(module, "compute_delta", "updates", "compute_delta")
    wrap(ScoringKernel, "apply_delta", "updates", "ScoringKernel.apply_delta",
         after=_delta_rows)
    wrap(incremental, "repair_after_delta", "updates", "repair_after_delta",
         after=_repair)
    for name in sorted(engine_module.ALGORITHMS):
        tracer.wrap_item(engine_module.ALGORITHMS, name, "select", f"select.{name}")

    dispatch = ServiceServer._dispatch

    async def adopting_dispatch(self, method, path, body):
        token = tracer.adopt(tracer.active)
        try:
            return await dispatch(self, method, path, body)
        finally:
            tracer.release(token)

    tracer.patch(ServiceServer, "_dispatch", adopting_dispatch)

    ledger = SharedMemoryLedger()
    segment_init = shared_memory.SharedMemory.__init__
    segment_unlink = shared_memory.SharedMemory.unlink

    def counting_init(self, name=None, create=False, size=0, **kwargs):
        segment_init(self, name, create, size, **kwargs)
        if create:
            ledger.created += 1

    def counting_unlink(self):
        segment_unlink(self)
        ledger.unlinked += 1

    tracer.patch(shared_memory.SharedMemory, "__init__", counting_init)
    tracer.patch(shared_memory.SharedMemory, "unlink", counting_unlink)
    return ledger


# -- counters read off the program -------------------------------------------


def snapshot(workload, gc_monitor: GcMonitor) -> dict[str, float]:
    """Cumulative program counters at one instant of the traced window."""
    service = workload.service
    counts: dict[str, float] = {
        "ttl_hits": service.results.stats.hits,
        "ttl_lookups": service.results.stats.lookups,
        "ttl_invalidations": service.results.stats.invalidations,
        "computed": service.computed,
        "deltas": workload.deltas(),
        "gen2": gc_monitor.gen2,
    }
    engine = service.engine_for("default")  # one tenant, one shard
    for name in ("hits", "misses", "patches", "stale_rebuilds", "evictions"):
        counts[f"kernel_{name}"] = getattr(engine.stats, name)
    for name in ("pool_hits", "pool_misses"):
        counts[f"retrieval_{name}"] = engine.retrieval_stats[name]
    for name, value in engine.storage_stats().items():
        counts[f"storage_{name}"] = value
    pools = warm_pool_registry().stats()
    counts["pool_hits"] = pools.get("hits", 0)
    counts["pool_misses"] = pools.get("misses", 0)
    return counts


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def counted_metrics(spans, start: dict, end: dict, ops: int) -> dict[str, float]:
    """The per-layer counts over the counted prefix of ``ops`` ops: exact
    integers and ratios that repeat across runs of one seed."""
    diff = {name: end[name] - start[name] for name in start}
    prefix = [span for span in spans if span.op is not None and span.op < ops]
    deltas = diff["deltas"]

    def total(names: set[str]) -> int:
        return sum(span.count for span in outermost(prefix, names))

    repairs = [span for span in prefix if span.name == "repair_after_delta"]
    return {
        "http.response_bytes_per_op": total({"http.exchange"}) / ops,
        "service.ttl_hit_ratio": _ratio(diff["ttl_hits"], diff["ttl_lookups"]),
        "service.computed_ops": diff["computed"],
        "service.invalidations_per_delta": _ratio(diff["ttl_invalidations"], deltas),
        "relational.rows_per_op": total({"DiversificationInstance.answers"}) / ops,
        "retrieval.pool_hit_ratio": _ratio(
            diff["retrieval_pool_hits"],
            diff["retrieval_pool_hits"] + diff["retrieval_pool_misses"],
        ),
        "engine.kernel_hit_ratio": _ratio(
            diff["kernel_hits"],
            diff["kernel_hits"] + diff["kernel_misses"] + diff["kernel_patches"],
        ),
        "engine.kernel_builds": diff["kernel_misses"],
        "engine.kernel_patches": diff["kernel_patches"],
        "engine.stale_rebuilds": diff["kernel_stale_rebuilds"],
        "engine.kernel_evictions": diff["kernel_evictions"],
        "kernel.pairs_scored_per_op": total(DISTANCE_BLOCKS) / ops,
        "storage.evictions": diff["storage_evictions"],
        "storage.spills": diff["storage_spills"],
        "storage.spill_loads": diff["storage_spill_loads"],
        "storage.rebuilds": diff["storage_rebuilds"],
        "storage.mmap_reads": diff["storage_mmap_reads"],
        "storage.bytes_mapped": diff["storage_bytes_mapped"],
        "storage.resident_bytes": end["storage_resident_bytes"],
        "updates.repair_rerun_ratio": _ratio(
            sum(1 for span in repairs if span.extra and span.extra["reran"]),
            len(repairs),
        ),
        "updates.rows_changed_per_delta": _ratio(
            total({"ScoringKernel.apply_delta"}), deltas
        ),
        "select.calls_per_op": len(
            outermost(prefix, {s.name for s in prefix if s.layer == "select"})
        ) / ops,
        "parallel.pool_hits": diff["pool_hits"],
        "parallel.pool_misses": diff["pool_misses"],
        "gc.gen2_collections": diff["gen2"],
    }


def timed_metrics(spans, ops: int) -> dict[str, float]:
    """Per-op times over every op of the traced window, in ms."""
    op_spans = [span for span in spans if span.op is not None]
    own = self_times(op_spans)
    per_layer = layer_self_times(op_spans)

    def ms(seconds: float) -> float:
        return 1000.0 * seconds / ops

    def inclusive(names: set[str]) -> float:
        return ms(sum(span.duration for span in outermost(op_spans, names)))

    def stage(name: str) -> float:
        return ms(sum(
            (span.extra or {}).get(name, 0.0)
            for span in op_spans if span.name == "CandidateRetriever.retrieve"
        ))

    children = children_of(op_spans)
    waits = []
    for span in op_spans:
        if span.layer == "service":
            started = first_foreign_start(children, span)
            if started is not None:
                waits.append(started - span.start)
    metrics = {
        f"{layer}.self_ms_per_op": ms(per_layer.get(layer, 0.0)) for layer in LAYERS
    }
    metrics.update({
        "unattributed_ms_per_op": ms(per_layer.get("op", 0.0)),
        "trace.op_ms_per_op": inclusive({"op"}),
        "service.wait_ms_per_op": 1000.0 * sum(waits) / len(waits) if waits else 0.0,
        "api.wire_ms_per_op": inclusive(API_CALLS),
        "relational.eval_ms_per_op": inclusive({"DiversificationInstance.answers"}),
        "retrieval.cut_ms_per_op": inclusive({"CandidateRetriever.retrieve"}),
        "retrieval.bm25_ms_per_op": stage("bm25"),
        "retrieval.ann_ms_per_op": stage("ann"),
        "retrieval.fusion_ms_per_op": stage("fusion"),
        "engine.lookup_ms_per_op": ms(sum(
            own[span.sid] for span in op_spans
            if span.name == "DiversificationEngine.kernel_for"
        )),
        "kernel.build_ms_per_op": inclusive({"kernel_for_instance"}),
        "kernel.read_ms_per_op": inclusive(KERNEL_READS),
        "updates.diff_ms_per_op": inclusive({"compute_delta"}),
        "updates.patch_ms_per_op": inclusive({"ScoringKernel.apply_delta"}),
        "updates.repair_ms_per_op": inclusive({"repair_after_delta"}),
        "select.ms_per_op": inclusive(
            {span.name for span in op_spans if span.layer == "select"}
        ),
    })
    return metrics


def index_build_seconds(spans) -> float:
    """Seconds spent building retrieval indexes, set-up included."""
    return sum(
        span.duration for span in spans if span.name == "CandidateRetriever.from_rows"
    )
