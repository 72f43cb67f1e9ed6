"""Diversification-as-a-service: the transport-agnostic async core.

:class:`DiversificationService` wraps per-tenant
:class:`~repro.engine.engine.DiversificationEngine` instances behind an
asyncio façade, adding the serving concerns the engine deliberately
does not know about:

* **request coalescing** — identical in-flight requests (equal
  :meth:`~repro.api.DiversifyRequest.key`: same tenant, corpus, k, λ,
  algorithm) await one computation instead of racing N; λ/k-sweep
  members over one corpus additionally share a kernel through the
  engine's LRU;
* a **TTL result cache** (:class:`~repro.service.cache.TTLCache`) in
  front of the kernel LRU, so repeats within the TTL window never touch
  the engine;
* **quotas** — a per-tenant ceiling on concurrently *computing*
  requests (coalesced followers are free) and per-request ``k``/answer
  -set ceilings, rejected with :class:`QuotaError` (HTTP 429);
* **telemetry** — per-endpoint latency histograms and the counters
  surfaced by :meth:`stats` (the ``/stats`` payload);
* the **delta path** — :meth:`delta` drives a streaming workload's
  update feed through the engine's ``apply_delta`` kernel patching and
  :func:`~repro.algorithms.incremental.repair_after_delta` selection
  repair, and explicitly invalidates the workload's retrieval index so
  post-update pools are cut from the mutated corpus;
* the **retrieval front end** — a request carrying ``query_text``
  routes through the engine's per-tenant retrieval caches
  (:meth:`~repro.engine.engine.DiversificationEngine.pool_for`): the
  corpus is cut to a ``pool_size`` candidate pool *before* any O(n²)
  kernel work, quotas are assessed against the pool (not the corpus),
  and the per-cut retrieval latency lands in the ``retrieve``
  telemetry histogram.

Engine work is CPU-bound and the engine is not thread-safe, so each
tenant's engine runs under an :class:`asyncio.Lock` and executes in a
worker thread (``asyncio.to_thread``) — the event loop stays responsive
while kernels build, and one tenant's work never interleaves.

The core is transport-agnostic: :mod:`repro.service.http` adapts it to
HTTP; tests and benchmarks drive it in-process.
"""

from __future__ import annotations

import asyncio
import contextlib
import time
import zlib
from collections.abc import Callable, Iterable, Mapping
from dataclasses import asdict, dataclass, field, replace
from typing import Any

from ..api import DiversifyRequest, DiversifyResponse, EngineConfig
from ..engine.engine import DiversificationEngine
from ..engine.storage import STORAGE_COUNTERS
from ..retrieval import DEFAULT_POOL_SIZE
from .cache import TTLCache
from .registry import WorkloadRegistry, default_registry
from .telemetry import EndpointTelemetry


class ServiceError(ValueError):
    """Raised on malformed service requests (HTTP 400)."""


class QuotaError(RuntimeError):
    """Raised when a tenant exceeds its serving quota (HTTP 429)."""


@dataclass(frozen=True)
class ServiceConfig:
    """The serving layer's policy bundle.

    ``engine`` is the per-tenant :class:`~repro.api.EngineConfig` (every
    tenant's engine is built from the same policy); ``algorithm`` is the
    engines' default algorithm.  ``result_ttl``/``result_cache_size``
    shape the TTL result cache (``ttl <= 0`` disables it);
    ``coalesce=False`` disables in-flight request coalescing (the
    benchmark baseline).  ``max_concurrent`` caps each tenant's
    simultaneously *computing* requests; ``max_k`` and ``max_answer_set``
    bound request size (``None`` = unlimited); ``max_sweep_cells`` caps
    a sweep's k × λ grid.

    ``engine_shards`` partitions each tenant's serving across N engines
    (consistent hash on the request key): corpora land on a stable
    shard, kernel LRUs partition instead of thrashing one cache, and
    requests hitting different shards of one tenant compute
    concurrently (each shard has its own lock).  ``1`` (default) is the
    historical single-engine layout, byte-identical in behavior.

    ``approx_over`` admits large answer sets to the **sketched** path
    instead of rejecting them: a request whose materialized answer set
    exceeds it runs on a per-tenant approximate engine (``approx=True``
    layered over ``engine``) and its response carries the approximation
    certificate.  Requests routed
    this way are exempt from ``max_answer_set`` — the quota exists to
    keep O(n²) kernels out of the serving path, and the sketched plan
    is O(n·m).  ``None`` (default) disables approximate admission;
    exact serving behavior is unchanged.
    """

    engine: EngineConfig = field(default_factory=EngineConfig)
    algorithm: str = "auto"
    result_ttl: float = 30.0
    result_cache_size: int = 256
    coalesce: bool = True
    max_concurrent: int = 8
    max_k: int | None = 1000
    max_answer_set: int | None = None
    max_sweep_cells: int = 64
    approx_over: int | None = None
    engine_shards: int = 1

    def __post_init__(self):
        if self.engine_shards < 1:
            raise ServiceError(
                f"engine_shards must be >= 1, got {self.engine_shards}"
            )

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


class DiversificationService:
    """The async serving core (see module docstring)."""

    def __init__(
        self,
        config: ServiceConfig | None = None,
        registry: WorkloadRegistry | None = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.config = config if config is not None else ServiceConfig()
        self.registry = registry if registry is not None else default_registry()
        self._clock = clock
        self.results = TTLCache(
            ttl=self.config.result_ttl,
            max_entries=self.config.result_cache_size,
            clock=clock,
        )
        self.telemetry = EndpointTelemetry()
        # One engine, and one lock, per (tenant, shard).
        self._engines: dict[tuple[str, int], DiversificationEngine] = {}
        self._locks: dict[tuple[str, int], asyncio.Lock] = {}
        self._approx_engines: dict[str, DiversificationEngine] = {}
        self._active: dict[str, int] = {}
        self._inflight: dict[tuple, asyncio.Future] = {}
        # Last computed selection per request key — the `previous` that
        # the delta path's repair_after_delta picks up.
        self._selections: dict[tuple, tuple] = {}
        self.coalesced = 0
        self.computed = 0
        self.quota_rejections = 0
        self.served_exact = 0
        self.served_approx = 0
        # Requests whose corpus-affinity shard differs from where a hash
        # of the full request key would have sent them — i.e. k/λ/
        # algorithm variants that corpus placement kept together.
        self.shard_rebalance = 0
        self._started = clock()

    # -- tenants and shards ------------------------------------------------

    def shard_of(self, key: tuple) -> int:
        """A consistent hash of ``key`` onto the configured shard count.
        Placement decisions go through :meth:`shard_for`, which hashes
        the request's *corpus* identity rather than its full key."""
        shards = self.config.engine_shards
        if shards <= 1:
            return 0
        return zlib.crc32(repr(key).encode("utf-8")) % shards

    def shard_for(self, request: DiversifyRequest) -> int:
        """The engine shard serving this request: a consistent hash of
        :meth:`~repro.api.DiversifyRequest.corpus_key` — the
        materialization identity *without* k/λ/algorithm/retrieval — so
        every variant of one corpus lands on one shard and shares its
        cached kernel.  ``shard_rebalance`` counts the requests a
        full-key hash would have scattered to a different shard."""
        shard = self.shard_of(request.corpus_key())
        if self.config.engine_shards > 1 and self.shard_of(request.key()) != shard:
            self.shard_rebalance += 1
        return shard

    def engine_for(self, tenant: str, shard: int = 0) -> DiversificationEngine:
        """The tenant's engine for ``shard``, created lazily from the
        shared config together with its lock.  A tenant's first request
        creates its shard-0 engine too, the one ``engine_for(tenant)``
        names."""
        for key in ((tenant, 0), (tenant, shard)):
            if key not in self._engines:
                self._engines[key] = DiversificationEngine(
                    algorithm=self.config.algorithm, config=self.config.engine
                )
                self._locks[key] = asyncio.Lock()
        self._active.setdefault(tenant, 0)
        return self._engines[(tenant, shard)]

    def _tenant_shards(self, tenant: str) -> list[tuple[str, int]]:
        """The ``(tenant, shard)`` keys of a tenant's live engines, in
        ascending shard order."""
        return sorted(key for key in self._engines if key[0] == tenant)

    def _tenant_engines(self, tenant: str) -> list[DiversificationEngine]:
        """Every live engine shard of a tenant, shard 0 first."""
        return [self._engines[key] for key in self._tenant_shards(tenant)]

    def approx_engine_for(self, tenant: str) -> DiversificationEngine:
        """The tenant's sketched-path engine for ``approx_over``
        admissions: the shared engine config with ``approx=True`` layered
        on, over lazy float64 tiles (``storage="tiled"``, dtype dropped),
        so the exact fallbacks of λ = 0 and constrained requests build
        only the tiles they read.  A configured already-approximate
        engine is reused as-is."""
        base = self.config.engine
        if base.approx:
            return self.engine_for(tenant)
        engine = self._approx_engines.get(tenant)
        if engine is None:
            self.engine_for(tenant)  # register the tenant
            engine = DiversificationEngine(
                algorithm=self.config.algorithm,
                config=replace(base, storage="tiled", approx=True, dtype=None),
            )
            self._approx_engines[tenant] = engine
        return engine

    # -- request validation / resolution ----------------------------------

    def _check_quota(self, request: DiversifyRequest) -> None:
        if self.config.max_k is not None and request.k > self.config.max_k:
            self.quota_rejections += 1
            raise QuotaError(
                f"tenant {request.tenant!r}: k={request.k} exceeds the "
                f"per-request ceiling max_k={self.config.max_k}"
            )
        if self._active.get(request.tenant, 0) >= self.config.max_concurrent:
            self.quota_rejections += 1
            raise QuotaError(
                f"tenant {request.tenant!r}: {self.config.max_concurrent} "
                "concurrent requests already computing"
            )

    def _resolve(self, request: DiversifyRequest):
        """The concrete instance plus its serving path: ``(instance,
        approx)`` where ``approx`` is True when the answer set crossed
        ``approx_over`` and the request is admitted to the sketched
        engine (exempt from ``max_answer_set``)."""
        if request.instance is not None:
            instance = request.resolve()
        else:
            handle = self.registry.handle(request.workload, request.params)
            instance = request.resolve(handle.base_instance())
        count = instance.answer_count
        if request.wants_retrieval:
            # The kernel only ever sees the retrieved pool, so serving
            # quotas and approximate admission are assessed against the
            # pool size — the retrieval cut is what keeps million-row
            # corpora inside the O(n²) ceiling.
            count = min(count, request.pool_size or DEFAULT_POOL_SIZE)
        approx = (
            self.config.approx_over is not None
            and count > self.config.approx_over
        )
        if (
            not approx
            and self.config.max_answer_set is not None
            and count > self.config.max_answer_set
        ):
            self.quota_rejections += 1
            raise QuotaError(
                f"tenant {request.tenant!r}: answer set of "
                f"{count} rows exceeds "
                f"max_answer_set={self.config.max_answer_set}"
            )
        return instance, approx

    def _count_serve(self, result) -> None:
        """Tally one solved instance as exact or approximate.  Keyed on
        the result's certificate, not the engine it ran on: a sketched
        engine still solves λ = 0 / constrained instances exactly."""
        if result is None:
            return
        if getattr(result, "certificate", None) is not None:
            self.served_approx += 1
        else:
            self.served_exact += 1

    # -- the serving spine -------------------------------------------------

    async def _serve(
        self,
        endpoint: str,
        request: DiversifyRequest,
        key: tuple,
        compute: Callable[[], Any],
        stamp: Callable[[Any, str, float], Any],
        shard: int = 0,
    ) -> Any:
        """TTL lookup → coalesce → quota → locked compute, shared by
        ``diversify`` and ``sweep``.  ``shard`` selects the tenant's
        engine-shard lock, so requests landing on different shards of
        one tenant compute concurrently.

        ``compute`` runs synchronously in a worker thread under the
        tenant lock; ``stamp(payload, provenance, elapsed_ms)`` attaches
        cache provenance to the (immutable) payload for this caller.
        The in-flight registration happens before the first ``await``,
        so every follower task scheduled while the leader computes
        observes the future and coalesces deterministically.
        """
        start = self._clock()

        def _finish(payload: Any, provenance: str) -> Any:
            elapsed = (self._clock() - start) * 1000.0
            self.telemetry.record(endpoint, (self._clock() - start))
            return stamp(payload, provenance, elapsed)

        cached = self.results.get(key)
        if cached is not None:
            return _finish(cached, "cached")
        future = self._inflight.get(key) if self.config.coalesce else None
        if future is not None:
            self.coalesced += 1
            payload = await asyncio.shield(future)
            return _finish(payload, "coalesced")
        self._check_quota(request)
        self.engine_for(request.tenant, shard)
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        if self.config.coalesce:
            self._inflight[key] = future
        self._active[request.tenant] += 1
        try:
            async with self._locks[(request.tenant, shard)]:
                payload = await asyncio.to_thread(compute)
            self.computed += 1
            future.set_result(payload)
        except BaseException as exc:
            if not future.done():
                future.set_exception(exc)
                future.exception()  # mark retrieved: followers re-raise their copy
            raise
        finally:
            self._active[request.tenant] -= 1
            if self.config.coalesce:
                self._inflight.pop(key, None)
        self.results.put(key, payload)
        return _finish(payload, "computed")

    # -- endpoints ---------------------------------------------------------

    async def diversify(self, request: DiversifyRequest) -> DiversifyResponse:
        """Serve one diversification request (``POST /diversify``).

        A request carrying ``query_text`` takes the retrieve → diversify
        path: the engine cuts the corpus to the request's candidate pool
        (cached per materialization × query, invalidated by ``/delta``)
        and diversifies the pool; the response's ``retrieval`` block
        reports the cut and its latency feeds the ``retrieve``
        histogram."""
        key = request.key()
        shard = self.shard_for(request)
        engine = self.engine_for(request.tenant, shard)

        def compute() -> DiversifyResponse:
            instance, approx = self._resolve(request)
            eng = self.approx_engine_for(request.tenant) if approx else engine
            result = eng.run(instance, request.algorithm, request=request)
            self._count_serve(result)
            if result is not None:
                self._selections[key] = result.rows
            return DiversifyResponse.from_result(result)

        def stamp(
            payload: DiversifyResponse, provenance: str, elapsed_ms: float
        ) -> DiversifyResponse:
            return replace(payload, cache=provenance, elapsed_ms=elapsed_ms)

        response = await self._serve(
            "diversify", request, key, compute, stamp, shard=shard
        )
        if response.cache == "computed" and response.retrieval is not None:
            # Loop-thread only: EndpointTelemetry is not thread-safe.
            self.telemetry.record(
                "retrieve",
                float(response.retrieval.get("elapsed_ms", 0.0)) / 1000.0,
            )
        return response

    async def sweep(
        self,
        request: DiversifyRequest,
        ks: Iterable[int] | None = None,
        lams: Iterable[float] | None = None,
    ) -> dict[str, Any]:
        """Serve a k × λ grid over one corpus (``POST /sweep``).

        The grid runs as one coalescable unit: identical concurrent
        sweeps await one computation, and the member cells share one
        kernel through the engine's LRU (the λ-sweep case the engine was
        built for).  The result cache keeps the cells as ``(k, λ,
        DiversifyResponse)`` triples, as ``diversify`` keeps its
        response; every caller gets a freshly rendered wire payload.
        """
        k_grid = [int(k) for k in ks] if ks is not None else [request.k]
        lam_grid = (
            [float(lam) for lam in lams] if lams is not None else [request.lam]
        )
        if not k_grid or not lam_grid:
            raise ServiceError("sweep needs at least one k and one λ")
        cells = len(k_grid) * len(lam_grid)
        if cells > self.config.max_sweep_cells:
            raise ServiceError(
                f"sweep of {cells} cells exceeds "
                f"max_sweep_cells={self.config.max_sweep_cells}"
            )
        # Shard on the corpus (not the sweep key): a sweep lands on the
        # same shard engine as plain requests over its corpus, so they
        # share kernels.
        shard = self.shard_for(request)
        key = ("sweep", request.key(), tuple(k_grid), tuple(lam_grid))
        engine = self.engine_for(request.tenant, shard)

        def compute() -> tuple:
            instance, approx = self._resolve(request)
            eng = self.approx_engine_for(request.tenant) if approx else engine
            grid = eng.sweep(
                instance, ks=k_grid, lams=lam_grid, algorithm=request.algorithm
            )
            for _, _, result in grid:
                self._count_serve(result)
            return tuple(
                (k, lam, DiversifyResponse.from_result(result))
                for k, lam, result in grid
            )

        def stamp(
            cells: tuple, provenance: str, elapsed_ms: float
        ) -> dict[str, Any]:
            return {
                "workload": request.workload,
                "cells": [
                    {"k": k, "lam": lam, **response.to_dict()}
                    for k, lam, response in cells
                ],
                "cache": provenance,
                "elapsed_ms": round(elapsed_ms, 3),
            }

        return await self._serve(
            "sweep", request, key, compute, stamp, shard=shard
        )

    async def delta(
        self,
        workload: str,
        params: Mapping[str, Any] | None = None,
        events: int = 1,
        tenant: str = "default",
        k: int | None = None,
        lam: float = 0.5,
        algorithm: str | None = None,
    ) -> dict[str, Any]:
        """Apply update-feed events and repair (``POST /delta``).

        Steps the workload's stream ``events`` times (insert/delete
        against the live database), evicts the workload's TTL-cached
        results *and* its retrieval index/pools, and — when ``k`` is
        given — refreshes the selection:
        the engine's :meth:`~repro.engine.engine.DiversificationEngine.
        kernel_for` patches the cached kernel in place
        (``apply_delta``, O(n·|Δ|)) and
        :func:`~repro.algorithms.incremental.repair_after_delta` decides
        whether the previous selection survives or must be re-run.
        """
        start = self._clock()
        handle = self.registry.handle(workload, params)
        if not getattr(handle, "supports_updates", False):
            raise ServiceError(
                f"workload {workload!r} has no update feed; use a "
                "streaming workload for /delta"
            )
        request = (
            DiversifyRequest(
                workload=workload,
                params=params,
                k=k,
                lam=lam,
                algorithm=algorithm,
                tenant=tenant,
            )
            if k is not None
            else None
        )
        # The selection repair must run on the shard engine that serves
        # this corpus's requests — that is where the cached kernel and
        # the previous selection live.
        shard = self.shard_for(request) if request is not None else 0
        engine = self.engine_for(tenant, shard)

        def compute() -> dict[str, Any]:
            applied = handle.apply_updates(int(events))
            # The corpus moved: drop its retrieval index and pools on
            # *every* live shard engine so the next query_text request
            # re-indexes the mutated answer set (the index's own
            # snapshot check would catch it too — this frees the memory
            # now and makes the invalidation observable).
            stale_index = any(
                [
                    eng.invalidate_retrieval(handle.base_instance())
                    for eng in self._tenant_engines(tenant)
                ]
            )
            payload: dict[str, Any] = {
                "workload": workload,
                "events": [
                    {"op": event.op, "doc": event.doc, "rows": len(event.rows)}
                    for event in applied
                ],
                "retrieval_invalidated": stale_index,
            }
            if request is None:
                return payload
            # The delta path repairs an *exact* cached kernel in place;
            # approximate admission never applies here.
            instance, _ = self._resolve(request)
            key = request.key()
            previous = self._selections.get(key)
            before = (engine.stats.patches, engine.stats.stale_rebuilds)
            kernel = delta = None
            if previous is not None:
                # Patches or rebuilds the cached kernel; the delta it
                # diffed is what the repair needs.  (None, None): nothing
                # was cached, and the run below builds the kernel.
                kernel, delta = engine.kernel_for(instance, with_delta=True)
            if delta is not None:
                from ..algorithms.incremental import repair_after_delta

                repair = repair_after_delta(
                    instance,
                    kernel,
                    previous,
                    delta,
                    algorithm=algorithm or "auto",
                )
                if repair is None:
                    payload["selection"] = DiversifyResponse.from_result(
                        None
                    ).to_dict()
                else:
                    self._selections[key] = repair.rows
                    payload["selection"] = DiversifyResponse(
                        feasible=True,
                        value=repair.value,
                        indices=tuple(kernel.index_of(r) for r in repair.rows),
                        rows=repair.rows,
                        algorithm=algorithm or "auto",
                        backend=kernel.backend,
                        kernel_reused=not repair.reran,
                    ).to_dict()
                    payload["repair"] = {
                        "reran": repair.reran,
                        "reason": repair.reason,
                    }
            else:
                result = engine.run(instance, algorithm)
                self._count_serve(result)
                if result is not None:
                    self._selections[key] = result.rows
                payload["selection"] = DiversifyResponse.from_result(result).to_dict()
            after = (engine.stats.patches, engine.stats.stale_rebuilds)
            payload["kernel"] = {
                "patches": after[0] - before[0],
                "stale_rebuilds": after[1] - before[1],
            }
            return payload

        # The update mutates the workload's shared database, which every
        # shard's kernels snapshot — hold all of the tenant's live shard
        # locks (in ascending shard order) for the duration.
        async with contextlib.AsyncExitStack() as stack:
            for key in self._tenant_shards(tenant):
                await stack.enter_async_context(self._locks[key])
            payload = await asyncio.to_thread(compute)

        # The database moved: every cached result naming this workload is
        # stale.  Request keys nest the ("workload", name, params) source
        # tuple (sweep keys nest a whole request key), so scan recursively.
        def mentions_workload(key: Any) -> bool:
            if not isinstance(key, tuple):
                return False
            if len(key) >= 2 and key[0] == "workload" and key[1] == workload:
                return True
            return any(mentions_workload(part) for part in key)

        self.results.invalidate(mentions_workload)
        self.telemetry.record("delta", self._clock() - start)
        payload["elapsed_ms"] = round((self._clock() - start) * 1000.0, 3)
        return payload

    # -- telemetry endpoints ----------------------------------------------

    def healthz(self) -> dict[str, Any]:
        """Liveness payload (``GET /healthz``)."""
        return {
            "status": "ok",
            "uptime_s": round(self._clock() - self._started, 3),
            "workloads": self.registry.names(),
        }

    def stats(self) -> dict[str, Any]:
        """The telemetry payload (``GET /stats``): request counters,
        result-cache and per-tenant kernel-cache stats, and per-endpoint
        latency percentiles."""
        tenants = {}
        for tenant in sorted({tenant for tenant, _ in self._engines}):
            engines = self._tenant_engines(tenant)
            # Counters aggregate over the tenant's shard engines; at
            # engine_shards=1 this is exactly the historical payload
            # (one engine) plus the "shards"/"storage" blocks.
            kernel_cache = {
                "hits": 0,
                "misses": 0,
                "patches": 0,
                "stale_rebuilds": 0,
                "evictions": 0,
                "lookups": 0,
            }
            retrieval = {
                "cached_indexes": 0,
                "indexes_built": 0,
                "pool_hits": 0,
                "pool_misses": 0,
                "invalidations": 0,
            }
            storage = dict.fromkeys(STORAGE_COUNTERS, 0)
            cached_kernels = 0
            for engine in engines:
                stats = engine.stats
                for name in ("hits", "misses", "patches",
                             "stale_rebuilds", "evictions", "lookups"):
                    kernel_cache[name] += getattr(stats, name)
                retrieval["cached_indexes"] += engine.cached_retrievers
                for name in ("indexes_built", "pool_hits",
                             "pool_misses", "invalidations"):
                    retrieval[name] += engine.retrieval_stats[name]
                for name, value in engine.storage_stats().items():
                    storage[name] += value
                cached_kernels += engine.cached_kernels
            lookups = kernel_cache["lookups"]
            kernel_cache["hit_rate"] = round(
                kernel_cache["hits"] / lookups if lookups else 0.0, 4
            )
            tenants[tenant] = {
                "active": self._active.get(tenant, 0),
                "cached_kernels": cached_kernels,
                "kernel_cache": kernel_cache,
                "retrieval": retrieval,
                "shards": len(engines),
                "storage": storage,
            }
            approx_engine = self._approx_engines.get(tenant)
            if approx_engine is not None:
                tenants[tenant]["approx_cached_kernels"] = (
                    approx_engine.cached_kernels
                )
        return {
            "uptime_s": round(self._clock() - self._started, 3),
            "config": self.config.to_dict(),
            "requests": {
                "computed": self.computed,
                "coalesced": self.coalesced,
                "inflight": len(self._inflight),
                "quota_rejections": self.quota_rejections,
                "served_exact": self.served_exact,
                "served_approx": self.served_approx,
                "shard_rebalance": self.shard_rebalance,
            },
            "result_cache": {
                "entries": len(self.results),
                "ttl_s": self.results.ttl,
                **self.results.stats.to_dict(),
            },
            "tenants": tenants,
            "latency": self.telemetry.to_dict(),
        }
