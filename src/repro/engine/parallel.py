"""Multicore block builds: one fan-out per backend.

``workers`` is the only parallelism knob.  :func:`build_blocks` — the
one entry point :class:`~repro.engine.storage.TiledStorage` and
:class:`~repro.engine.storage.SketchedStorage` build through — derives
*how* independent block builds spread from the kernel backend:

* **NumPy → threads.**  The vectorized block kernels release the GIL,
  so a thread pool scales; shipping the snapshot to worker processes
  and copying blocks back never beats it.
* **Pure Python → a warm process pool.**  The interpreter lock
  serializes threads there, so only processes scale.  The scoring
  *snapshot* (provider + answer rows) ships to a ``ProcessPoolExecutor``
  once, and scored blocks come back as pickled nested float lists
  (floats round-trip pickle exactly, so tiles stay bit-identical).
* **Serial** when ``workers`` resolves to 1, when the snapshot does not
  pickle (closure-based scalar callables), or when the pool breaks — a
  worker that dies or cannot bootstrap.  A broken pool is counted as
  ``pool_failures`` in :meth:`WarmPoolRegistry.stats` (and so in the
  service ``/stats`` under ``warm_pools``), and the blocks it did not
  deliver are built serially.

Exactness contract: a worker reproduces
``ScoringKernel._build_distance_block`` operation for operation — tuple
slices of the same answer snapshot, ``rows_a is rows_b`` identity for
diagonal blocks (providers score the triangle once), the same
``distance_block`` call — so every fan-out stores the floats a serial
build would.

**Warm pools**: repeated builds over the *same* snapshot (λ/k sweeps,
TTL-cache misses re-materializing a kernel, sketched landmark columns
after the tiled grid) would otherwise pay the spawn + initializer cost
every time.  :class:`WarmPoolRegistry` keeps executors alive between
builds, keyed on the digest of the pickled snapshot payload — the same
bytes the initializer ships — so "same digest" *is* "workers hold
exactly this snapshot", and a patched kernel (new answers → new payload
→ new digest) can never hit a stale pool.  The registry keeps at most
:data:`DEFAULT_MAX_WARM_POOLS` pools, idle pools expire after
:data:`DEFAULT_WARM_POOL_TTL` seconds, and
:meth:`WarmPoolRegistry.invalidate` / :meth:`WarmPoolRegistry.clear`
drop pools eagerly on ``apply_delta`` / engine reset.
"""

from __future__ import annotations

import hashlib
import logging
import math
import multiprocessing
import os
import pickle
import threading
import time
from collections import OrderedDict
from collections.abc import Callable
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)

__all__ = [
    "DEFAULT_MAX_WARM_POOLS",
    "DEFAULT_WARM_POOL_TTL",
    "available_cpus",
    "validate_workers",
    "resolve_workers",
    "build_blocks",
    "ProcessTileBuilder",
    "WarmPoolRegistry",
    "warm_pool_registry",
]

_LOG = logging.getLogger(__name__)

#: Upper bound on blocks per worker task (amortizes IPC without starving
#: the pool of work items on small grids).
_MAX_BATCH_TILES = 16

#: Warm pools kept alive process-wide (LRU).
DEFAULT_MAX_WARM_POOLS = 4

#: Seconds an unleased warm pool may sit idle before it is shut down.
DEFAULT_WARM_POOL_TTL = 300.0

#: Start method for worker processes.  ``spawn`` gives every worker a
#: clean interpreter whose only inherited state is the explicitly
#: shipped snapshot payload — ``fork`` would duplicate the parent's
#: whole heap, including the serving layer's live threads and locks
#: (unsafe enough that CPython deprecates fork-after-threads and moves
#: the Linux default away from it in 3.14).  Spawn startup is the cost
#: :class:`WarmPoolRegistry` amortizes: it is paid once per snapshot,
#: not once per build.
_START_METHOD = "spawn"


def _make_executor(payload: bytes, workers: int) -> ProcessPoolExecutor:
    """The one place worker pools are created: ``workers`` spawn-context
    processes, each running :func:`_init_worker` over ``payload``."""
    return ProcessPoolExecutor(
        max_workers=workers,
        mp_context=multiprocessing.get_context(_START_METHOD),
        initializer=_init_worker,
        initargs=(payload,),
    )


def available_cpus() -> int:
    """CPUs this process may use: ``os.process_cpu_count()`` (3.13+,
    affinity-aware) with the ``os.cpu_count()`` fallback for 3.11/3.12."""
    counter = getattr(os, "process_cpu_count", None) or os.cpu_count
    return max(1, counter() or 1)


def validate_workers(workers, error=ValueError):
    """Validate a ``workers`` knob: ``None``, an int ≥ 1, or ``"auto"``.

    Returns the knob *unresolved* — ``"auto"`` stays symbolic (hashable
    config keys, host-independent canonical forms) until a build actually
    needs a pool size, at which point :func:`resolve_workers` pins it.
    ``error`` is the exception class to raise
    (:meth:`~repro.api.EngineConfig.validate` raises ``ApiError``).
    """
    if workers is None or workers == "auto":
        return workers
    if isinstance(workers, bool) or not isinstance(workers, int):
        raise error(f"workers must be an int >= 1 or 'auto', got {workers!r}")
    if workers < 1:
        raise error(f"workers must be >= 1, got {workers}")
    return workers


def resolve_workers(workers) -> int:
    """The concrete pool size for a validated ``workers`` knob."""
    if workers is None:
        return 1
    if workers == "auto":
        return available_cpus()
    return int(workers)


# -- the fan-out --------------------------------------------------------------


def build_blocks(
    jobs: list,
    build: Callable,
    store: Callable,
    workers,
    use_numpy: bool,
    pool_source: Callable[[], tuple] | None = None,
    prime: Callable | None = None,
) -> None:
    """Build every job, fanned out the one way the backend allows.

    ``jobs`` is a list of ``(key, spec)`` pairs.  ``build(spec)`` scores
    one block in this process and returns the raw provider block;
    ``store(key, block)`` receives every block on the *calling* thread,
    so storage writes stay single-threaded whatever the fan-out.
    ``spec`` is the worker form of the same block: ``("tile", a0, a1,
    b0, b1)`` or ``("cols", a0, a1, landmark_positions)``.

    NumPy builds go through a thread pool (jobs matching ``prime`` are
    built serially first, so per-row provider caches warm without
    threads racing to fill them); pure-Python builds go through a warm
    process pool over the ``pool_source()`` snapshot.  Everything else
    — one worker, one job, no or an unpicklable snapshot, a broken pool
    — builds serially, in ``jobs`` order.
    """
    workers = resolve_workers(workers)
    if workers > 1 and len(jobs) > 1:
        if use_numpy:
            _build_threaded(jobs, build, store, workers, prime)
            return
        if pool_source is not None:
            jobs = _build_pooled(jobs, store, workers, pool_source)
    for key, spec in jobs:
        store(key, build(spec))


def _build_threaded(jobs, build, store, workers: int, prime) -> None:
    if prime is not None:
        for key, spec in jobs:
            if prime(key):
                store(key, build(spec))
        jobs = [job for job in jobs if not prime(job[0])]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for (key, _spec), block in zip(jobs, pool.map(lambda job: build(job[1]), jobs)):
            store(key, block)


def _build_pooled(jobs, store, workers: int, pool_source) -> list:
    """Score ``jobs`` in a warm process pool; returns the jobs left for
    the serial path — all of them when the snapshot cannot pickle, the
    undelivered rest when the pool breaks or cannot start, none on
    success."""
    registry = warm_pool_registry()
    provider, answers = pool_source()
    stored = set()

    def keep(key, block) -> None:
        store(key, block)
        stored.add(key)

    try:
        pool = registry.acquire(provider, answers, workers)
        if pool is None:
            return jobs
        try:
            pool.build(jobs, keep)
        finally:
            pool.close()
    except (BrokenExecutor, OSError) as exc:
        registry.record_failure()
        _LOG.warning(
            "process pool failed (%s: %s); building %d of %d blocks serially",
            type(exc).__name__,
            exc,
            len(jobs) - len(stored),
            len(jobs),
        )
        return [job for job in jobs if job[0] not in stored]
    return []


# -- worker side ------------------------------------------------------------

#: Per-worker scoring snapshot, set once by the pool initializer.
_WORKER_STATE: tuple | None = None


def _init_worker(payload: bytes) -> None:
    global _WORKER_STATE
    _WORKER_STATE = pickle.loads(payload)


def _worker_score(spec):
    """Score one block spec against the worker's snapshot.

    ``("tile", a0, a1, b0, b1)`` mirrors
    ``ScoringKernel._build_distance_block`` exactly (including the
    ``rows_a is rows_b`` diagonal identity); ``("cols", a0, a1, cols)``
    mirrors the sketched-storage columns builder (row block × landmark
    rows).
    """
    provider, answers = _WORKER_STATE
    if spec[0] == "cols":
        _, a0, a1, cols = spec
        rows_a = answers[a0:a1]
        rows_b = [answers[p] for p in cols]
    else:
        _, a0, a1, b0, b1 = spec
        rows_a = answers[a0:a1]
        rows_b = rows_a if (a0, a1) == (b0, b1) else answers[b0:b1]
    return provider.distance_block(rows_a, rows_b, use_numpy=False)


def _score_specs(specs) -> list:
    """Score a batch of specs (nested float lists, pickled on the way
    back)."""
    return [_worker_score(spec) for spec in specs]


# -- parent side ------------------------------------------------------------


class ProcessTileBuilder:
    """One process pool bound to one scoring snapshot, leased from
    :class:`WarmPoolRegistry`.

    Feed it block jobs via :meth:`build` and :meth:`close` it when the
    build is done.  A warm lease carries a ``release`` callback, so
    :meth:`close` hands the still-warm executor back to the registry; a
    one-shot (cold) builder owns its pool and :meth:`close` shuts it
    down.  Staleness is impossible either way: the snapshot is pinned at
    pool creation, and warm reuse is keyed on the digest of those exact
    payload bytes.
    """

    def __init__(self, executor: ProcessPoolExecutor, workers: int, release=None):
        self._executor = executor
        self._release = release
        self.workers = workers

    def close(self) -> None:
        """Finish with the pool: shut an owned one down, lease a warm
        one back to its registry (idempotent either way)."""
        release, self._release = self._release, None
        if release is not None:
            release()
        else:
            self._executor.shutdown(wait=True, cancel_futures=True)

    def build(self, jobs, store) -> None:
        """Score every ``(key, spec)`` job, calling ``store(key, block)``
        in *this* thread as results land.  In-flight work is bounded to
        a few batches so a memory-budgeted storage never sees O(n²)
        transient allocation."""
        jobs = list(jobs)
        per = max(1, math.ceil(len(jobs) / (self.workers * 4)))
        per = min(per, _MAX_BATCH_TILES)
        inflight: dict = {}
        try:
            for i in range(0, len(jobs), per):
                batch = jobs[i : i + per]
                specs = [spec for _key, spec in batch]
                inflight[self._executor.submit(_score_specs, specs)] = batch
                if len(inflight) >= self.workers + 2:
                    self._drain(inflight, store)
            while inflight:
                self._drain(inflight, store)
        finally:
            for future in inflight:
                future.cancel()

    @staticmethod
    def _drain(inflight, store) -> None:
        done, _ = wait(list(inflight), return_when=FIRST_COMPLETED)
        for future in done:
            batch = inflight.pop(future)
            for (key, _spec), block in zip(batch, future.result()):
                store(key, block)


# -- warm pools -------------------------------------------------------------


class _WarmPool:
    """One registered executor: which snapshot its workers hold, who may
    have created it, and whether a build currently leases it."""

    __slots__ = ("executor", "provider_id", "last_used", "leased")

    def __init__(self, executor: ProcessPoolExecutor, provider_id: int, now: float):
        self.executor = executor
        self.provider_id = provider_id
        self.last_used = now
        self.leased = True


class WarmPoolRegistry:
    """Process-wide cache of warm :class:`ProcessPoolExecutor`s, keyed
    on ``(snapshot-payload digest, workers)``.

    The digest is taken over the *pickled initializer payload* —
    ``(provider, answers)`` — so a hit guarantees the warm workers hold
    byte-for-byte the snapshot this build would have shipped, and the
    floats they score are exactly the cold-pool floats.  ``apply_delta``
    produces a new answers tuple, hence new payload bytes, hence a
    digest miss: stale reuse cannot happen even without the explicit
    :meth:`invalidate` hook (which exists to free the dead pool's
    processes eagerly rather than waiting out LRU/TTL).

    Concurrency: one lease per pool at a time.  A second concurrent
    build over the same snapshot gets a cold per-build pool (counted as
    a ``bypass``) rather than contending for the warm executor; pools
    evicted or invalidated while leased are shut down when the lease is
    released.  Broken executors (a killed worker) are discarded on
    release instead of being re-warmed.  ``max_pools=0`` turns every
    acquire into a cold per-build pool.
    """

    def __init__(
        self,
        max_pools: int = DEFAULT_MAX_WARM_POOLS,
        ttl: float = DEFAULT_WARM_POOL_TTL,
        clock=time.monotonic,
    ):
        self.max_pools = max_pools
        self.ttl = ttl
        self._clock = clock
        self._lock = threading.Lock()
        self._pools: OrderedDict[tuple, _WarmPool] = OrderedDict()
        self._counters = {
            "hits": 0,
            "misses": 0,
            "bypasses": 0,
            "evictions": 0,
            "expirations": 0,
            "invalidations": 0,
            "pool_failures": 0,
        }

    # -- internals ---------------------------------------------------------

    @staticmethod
    def _shutdown_all(executors) -> None:
        for executor in executors:
            executor.shutdown(wait=False, cancel_futures=True)

    def _reap_locked(self, doomed: list) -> None:
        now = self._clock()
        for key in list(self._pools):
            entry = self._pools[key]
            if not entry.leased and now - entry.last_used > self.ttl:
                del self._pools[key]
                doomed.append(entry.executor)
                self._counters["expirations"] += 1

    def _evict_over_budget_locked(self, doomed: list) -> None:
        while len(self._pools) > self.max_pools:
            victim = next(
                (k for k, e in self._pools.items() if not e.leased), None
            )
            if victim is None:  # every pool leased: tolerate the overage
                break
            doomed.append(self._pools.pop(victim).executor)
            self._counters["evictions"] += 1

    def _release(self, key: tuple, entry: _WarmPool) -> None:
        doomed = []
        with self._lock:
            if self._pools.get(key) is not entry:
                # Evicted/invalidated while leased: the lease-holder is
                # the last reference, so the shutdown happens here.
                doomed.append(entry.executor)
            elif getattr(entry.executor, "_broken", False):
                del self._pools[key]
                doomed.append(entry.executor)
            else:
                entry.leased = False
                entry.last_used = self._clock()
        self._shutdown_all(doomed)

    # -- the public surface ------------------------------------------------

    def acquire(self, provider, answers, workers: int) -> "ProcessTileBuilder | None":
        """A builder whose workers hold this snapshot: leased warm on a
        digest hit, freshly created (and registered for next time) on a
        miss, or ``None`` when the snapshot cannot pickle — the one
        capability gate for process builds.

        The payload is pickled *here*, in the parent, so unpicklable
        providers fail fast and deterministically instead of surfacing
        as a ``BrokenProcessPool`` from the first worker.
        """
        try:
            payload = pickle.dumps(
                (provider, tuple(answers)), protocol=pickle.HIGHEST_PROTOCOL
            )
        except Exception:
            return None
        if self.max_pools < 1:
            with self._lock:
                self._counters["bypasses"] += 1
            return ProcessTileBuilder(_make_executor(payload, workers), workers)
        key = (hashlib.blake2b(payload, digest_size=16).digest(), workers)
        doomed: list = []
        builder = None
        bypass = False
        with self._lock:
            self._reap_locked(doomed)
            entry = self._pools.get(key)
            if entry is not None and not entry.leased:
                if getattr(entry.executor, "_broken", False):
                    del self._pools[key]
                    doomed.append(entry.executor)
                else:
                    entry.leased = True
                    entry.last_used = self._clock()
                    self._pools.move_to_end(key)
                    self._counters["hits"] += 1
                    builder = ProcessTileBuilder(
                        entry.executor,
                        workers,
                        release=lambda k=key, e=entry: self._release(k, e),
                    )
            elif entry is not None:
                self._counters["bypasses"] += 1
                bypass = True
        self._shutdown_all(doomed)
        if builder is not None:
            return builder
        executor = _make_executor(payload, workers)
        if bypass:
            return ProcessTileBuilder(executor, workers)
        entry = _WarmPool(executor, id(provider), self._clock())
        doomed = []
        with self._lock:
            if key in self._pools:
                # Lost a registration race; serve ours as a one-shot.
                self._counters["bypasses"] += 1
                release = None
            else:
                self._counters["misses"] += 1
                self._pools[key] = entry
                self._evict_over_budget_locked(doomed)
                release = lambda k=key, e=entry: self._release(k, e)  # noqa: E731
        self._shutdown_all(doomed)
        return ProcessTileBuilder(executor, workers, release=release)

    def record_failure(self) -> None:
        """Count one build whose pool broke (its blocks went serial)."""
        with self._lock:
            self._counters["pool_failures"] += 1

    def invalidate(self, provider) -> int:
        """Drop every pool whose snapshot was built around ``provider``
        (the ``apply_delta`` hook: the patched kernel's next build has a
        new digest anyway, so these pools are dead weight — free their
        worker processes now).  Returns the number of pools dropped."""
        doomed = []
        dropped = 0
        target = id(provider)
        with self._lock:
            for key in list(self._pools):
                entry = self._pools[key]
                if entry.provider_id == target:
                    del self._pools[key]
                    if not entry.leased:
                        doomed.append(entry.executor)
                    self._counters["invalidations"] += 1
                    dropped += 1
        self._shutdown_all(doomed)
        return dropped

    def clear(self) -> None:
        """Shut every warm pool down (the engine-reset hook).  Leased
        pools are doomed and shut down when their build releases them."""
        doomed = []
        with self._lock:
            for key in list(self._pools):
                entry = self._pools.pop(key)
                if not entry.leased:
                    doomed.append(entry.executor)
                self._counters["invalidations"] += 1
        self._shutdown_all(doomed)

    def reap(self) -> None:
        """Expire idle pools now (also runs inside every acquire)."""
        doomed: list = []
        with self._lock:
            self._reap_locked(doomed)
        self._shutdown_all(doomed)

    def stats(self) -> dict[str, int]:
        with self._lock:
            stats = dict(self._counters)
            stats["pools"] = len(self._pools)
            stats["leased"] = sum(1 for e in self._pools.values() if e.leased)
        return stats

    def __len__(self) -> int:
        with self._lock:
            return len(self._pools)


_REGISTRY: WarmPoolRegistry | None = None
_REGISTRY_LOCK = threading.Lock()


def warm_pool_registry() -> WarmPoolRegistry:
    """The process-wide registry (created on first use)."""
    global _REGISTRY
    if _REGISTRY is None:
        with _REGISTRY_LOCK:
            if _REGISTRY is None:
                _REGISTRY = WarmPoolRegistry()
    return _REGISTRY
