"""Batch diversification engine with kernel reuse.

The production pattern the ROADMAP aims at is *many* diversification
requests over the same materialized answer set: λ-sweeps for trade-off
tuning, k-sweeps for pagination, algorithm bake-offs, and repeated
queries against a slowly-changing database.  On the direct path every
such request re-pays the per-pair scoring-function overhead; the
:class:`DiversificationEngine` instead routes every request through a
:class:`~repro.engine.kernel.ScoringKernel` held in an LRU cache keyed
on the ``(query, database, δ_rel, δ_dis)`` materialization, so a batch
of ``(Q, D, k, F)`` instances over shared data pays the precomputation
once.

    engine = DiversificationEngine(algorithm="mmr")
    results = engine.run_batch(instances)          # kernels reused
    grid = engine.sweep(instance, ks=[5, 10], lams=[0.2, 0.5, 0.8])

Algorithms are looked up in :data:`ALGORITHMS` by name; ``"auto"``
dispatches on the objective: the PTIME top-k optimum for modular
objectives (Theorem 5.4), pair-greedy for F_MS, GMC-greedy for F_MM,
and constraint-aware local search when Σ is non-empty.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Callable, Iterable
from dataclasses import dataclass, replace

from ..algorithms.exact import (
    best_modular,
    branch_and_bound_max_sum,
    exhaustive_best,
)
from ..algorithms.greedy import (
    greedy_marginal_max_sum,
    greedy_max_min,
    greedy_max_sum,
)
from ..algorithms.local_search import local_search
from ..algorithms.mmr import mmr_select
from ..algorithms.sketched import (
    select_sketched_marginal_max_sum,
    select_sketched_max_min,
    select_sketched_mmr,
)
from ..algorithms.substrate import ApproxCertificate
from ..api import (
    DiversifyRequest,
    EngineConfig,
    float_from_json,
    json_float,
    row_from_dict,
    row_to_dict,
)
from ..core.instance import DiversificationInstance
from ..core.objectives import ObjectiveKind
from ..core.providers import provider_for
from ..relational.queries import identity_query
from ..relational.schema import Database, Relation, Row
from ..retrieval import DEFAULT_POOL_SIZE, CandidateRetriever, RetrievalResult
from .kernel import ScoringKernel, kernel_for_instance
from .storage import STORAGE_COUNTERS
from .updates import KernelDelta, compute_delta

SearchResult = tuple[float, tuple[Row, ...]]


class EngineError(ValueError):
    """Raised on engine misuse (unknown algorithm, bad configuration)."""


def modular_top_k(
    instance: DiversificationInstance,
    kernel: ScoringKernel | None = None,
) -> SearchResult | None:
    """PTIME optimum for modular objectives: the k best item scores.

    Kept under its engine-facing name; the selection itself is
    :func:`repro.algorithms.exact.select_best_modular` — the same
    selector every other caller runs.
    """
    return best_modular(instance, kernel)


def _mmr(instance, kernel=None):
    return mmr_select(instance, kernel=kernel)


def _local_search(instance, kernel=None):
    return local_search(instance, kernel=kernel)


ALGORITHMS: dict[
    str, Callable[[DiversificationInstance, ScoringKernel | None], SearchResult | None]
] = {
    "greedy_max_sum": greedy_max_sum,
    "greedy_max_min": greedy_max_min,
    "greedy_marginal_max_sum": greedy_marginal_max_sum,
    "mmr": _mmr,
    "local_search": _local_search,
    "modular_top_k": modular_top_k,
    # Exact optimizers — exponential in the worst case, but engine
    # dispatchable so batch/CLI callers can request certified optima
    # through the same cached-kernel path.
    "exhaustive": exhaustive_best,
    "branch_and_bound_max_sum": branch_and_bound_max_sum,
}

#: The sketched (landmark-column) counterpart of each approximable
#: exact selector: the same loop, reading its rows from the kernel's
#: sketch.  ``run()`` dispatches here only when the engine config opted
#: in (``approx=True``), the objective actually reads distances (λ > 0 —
#: at λ = 0 the exact path is already sub-quadratic) and the instance
#: carries no constraints (the loops are unconstrained).  Both greedy
#: F_MS spellings map to the marginal loop: pair-greedy's per-pick pair
#: scan is exactly what the sketch removes.
_SKETCHED_SELECTORS: dict[str, Callable] = {
    "greedy_max_sum": select_sketched_marginal_max_sum,
    "greedy_marginal_max_sum": select_sketched_marginal_max_sum,
    "mmr": select_sketched_mmr,
    "greedy_max_min": select_sketched_max_min,
}


def variants_grid(
    instance: DiversificationInstance,
    ks: Iterable[int] | None = None,
    lams: Iterable[float] | None = None,
) -> list[tuple[int, float, DiversificationInstance]]:
    """The k × λ variant grid of one instance, sharing one materialization.

    Materializes ``instance.answers()`` first so every ``with_k`` /
    ``with_objective`` clone copies the populated answer cache — the
    whole grid then costs a single query evaluation.  Used by
    :meth:`DiversificationEngine.sweep` and the engine benchmark, so
    both always measure the same workload.
    """
    instance.answers()
    k_grid = list(ks) if ks is not None else [instance.k]
    lam_grid = list(lams) if lams is not None else [instance.objective.lam]
    grid = []
    for lam in lam_grid:
        if lam == instance.objective.lam:
            base = instance
        else:
            base = instance.with_objective(instance.objective.with_lambda(lam))
        for k in k_grid:
            grid.append((k, lam, base if k == instance.k else base.with_k(k)))
    return grid


def auto_algorithm(instance: DiversificationInstance) -> str:
    """The natural heuristic for an instance (see module docstring)."""
    if len(instance.constraints) > 0:
        return "local_search"
    if instance.objective.is_modular:
        return "modular_top_k"
    if instance.objective.kind is ObjectiveKind.MAX_SUM:
        return "greedy_max_sum"
    if instance.objective.kind is ObjectiveKind.MAX_MIN:
        return "greedy_max_min"
    return "local_search"


@dataclass
class CacheStats:
    """Kernel-cache counters (mutated in place by the engine).

    Every :meth:`DiversificationEngine.kernel_for` lookup lands in
    exactly one of ``hits`` (fresh cached kernel served), ``patches``
    (stale cached kernel delta-patched in place) or ``misses`` (kernel
    built from scratch); ``stale_rebuilds`` counts the subset of misses
    that displaced a matching-but-stale kernel whose delta exceeded the
    patch threshold, and ``evictions`` counts LRU displacements — so the
    counters add up under mutation-heavy workloads.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    patches: int = 0
    stale_rebuilds: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses + self.patches

    @property
    def hit_rate(self) -> float:
        total = self.lookups
        return self.hits / total if total else 0.0


@dataclass(frozen=True)
class EngineResult:
    """One solved instance: the score, the rows, and how it was solved.

    ``indices`` are the selection's snapshot positions in the kernel's
    materialized ``Q(D)`` (first occurrence under duplicated rows) —
    the stable, order-preserving identity the serialized form carries
    alongside the rows themselves.

    ``certificate`` is non-None exactly when the result came off an
    approximate (sketched) path: ``value`` is still the exact objective
    of the returned rows, and the certificate brackets it with the
    sketch's lower/upper-bound evaluations.
    """

    value: float
    rows: tuple[Row, ...]
    algorithm: str
    kernel_reused: bool
    backend: str
    indices: tuple[int, ...] | None = None
    certificate: ApproxCertificate | None = None
    #: Present exactly when the solve went through the retrieval front
    #: end: the pool-cut summary (:meth:`RetrievalResult.to_dict`).
    #: ``indices`` are then positions in the *pool* snapshot.
    retrieval: dict | None = None

    def to_dict(self) -> dict:
        """Strict-JSON form (NaN → null); inverse of :meth:`from_dict`."""
        return {
            "value": json_float(self.value),
            "rows": [row_to_dict(row) for row in self.rows],
            "indices": list(self.indices) if self.indices is not None else None,
            "algorithm": self.algorithm,
            "kernel_reused": self.kernel_reused,
            "backend": self.backend,
            "certificate": self.certificate.to_dict()
            if self.certificate is not None
            else None,
            "retrieval": dict(self.retrieval)
            if self.retrieval is not None
            else None,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "EngineResult":
        """Rebuild a result from :meth:`to_dict` output (null → NaN)."""
        indices = data.get("indices")
        certificate = data.get("certificate")
        retrieval = data.get("retrieval")
        return cls(
            value=float_from_json(data["value"]),
            rows=tuple(row_from_dict(row) for row in data["rows"]),
            algorithm=data["algorithm"],
            kernel_reused=bool(data.get("kernel_reused", False)),
            backend=data["backend"],
            indices=tuple(indices) if indices is not None else None,
            certificate=ApproxCertificate.from_dict(certificate)
            if certificate is not None
            else None,
            retrieval=dict(retrieval) if retrieval is not None else None,
        )


class DiversificationEngine:
    """Runs batches of diversification instances with kernel reuse.

    ``use_numpy`` selects the kernel backend (None = auto-detect);
    every other policy knob lives on ``config`` (a
    :class:`~repro.api.EngineConfig`, default ``EngineConfig()``):
    ``cache_size`` bounds the number of live kernels (LRU eviction),
    ``patch_threshold`` is the largest delta, as a fraction of the
    answer-set size, that a stale cached kernel is delta-patched for
    (larger deltas rebuild from scratch — 0 disables patching), and the
    storage knobs (``storage`` / ``dtype`` / ``workers`` / tile budgets
    / ``spill_dir`` / ``block_size`` / ``sketch_columns`` /
    ``landmarks``, see :mod:`repro.engine.storage`) apply to every
    kernel this engine builds.  ``workers`` is the only parallelism
    knob: NumPy builds fan out over that many threads, pure-Python
    builds run serially (:mod:`repro.engine.parallel`).  ``approx=True``
    runs approximable solves over the kernel's landmark sketch.
    """

    def __init__(
        self,
        algorithm: str = "auto",
        *,
        use_numpy: bool | None = None,
        config: EngineConfig | None = None,
    ):
        if algorithm != "auto" and algorithm not in ALGORITHMS:
            raise EngineError(
                f"unknown algorithm {algorithm!r}; "
                f"choose 'auto' or one of {sorted(ALGORITHMS)}"
            )
        if config is None:
            config = EngineConfig()
        try:
            config.validate()
        except ValueError as exc:
            raise EngineError(str(exc)) from None
        self.algorithm = algorithm
        self.use_numpy = use_numpy
        self.config = config
        self._cache: OrderedDict[tuple[int, int, int, int], ScoringKernel] = (
            OrderedDict()
        )
        self.stats = CacheStats()
        # Retrieval front-end caches, LRU-bounded like the kernel cache:
        # one CandidateRetriever per materialization, one pool instance
        # per (materialization, query_text, pool_size, retriever) so
        # repeated cuts reuse one pool kernel.  Entries carry the answer
        # snapshot they indexed and are rebuilt when it changes — the
        # delta-driven invalidation the serving layer counts on.
        self._retrievers: OrderedDict[
            tuple[int, int, int, int], tuple[list[Row], CandidateRetriever]
        ] = OrderedDict()
        self._pools: OrderedDict[
            tuple,
            tuple[list[Row], DiversificationInstance, RetrievalResult],
        ] = OrderedDict()
        self.retrieval_stats = {
            "indexes_built": 0,
            "pool_hits": 0,
            "pool_misses": 0,
            "invalidations": 0,
        }

    def storage_stats(self) -> dict:
        """Aggregated storage counters over the cached kernels — the
        observability hook the service's ``stats()`` surfaces.  Every
        kernel reports the uniform :meth:`ScoringKernel.storage_stats`
        shape, so this sums the numeric counters across all storage
        kinds (dense kernels contribute their resident bytes; kernels
        that have read no distance yet contribute zeros)."""
        totals = dict.fromkeys(STORAGE_COUNTERS, 0)
        for kernel in self._cache.values():
            stats = kernel.storage_stats()
            for name in totals:
                totals[name] += stats[name]
        return totals

    # -- kernel cache -----------------------------------------------------

    @staticmethod
    def _cache_key(instance: DiversificationInstance) -> tuple[int, int, int, int]:
        objective = instance.objective
        return (
            id(instance.query),
            id(instance.db),
            id(objective.relevance),
            id(objective.distance),
        )

    def kernel_for(
        self, instance: DiversificationInstance, *, with_delta: bool = False
    ) -> ScoringKernel | tuple[ScoringKernel | None, KernelDelta | None]:
        """The cached kernel for this instance's materialization, built
        on first use.  Cached kernels hold strong references to their
        query/db/function objects, so the ``id``-based key cannot be
        recycled while the entry is live; :meth:`ScoringKernel.matches`
        re-verifies identity on every hit, and the snapshot is compared
        against the re-materialized Q(D) (the evaluation every
        direct-path algorithm performs anyway) so an in-place database
        mutation is never served stale.  A stale kernel whose delta is
        within ``patch_threshold`` is **patched** in place
        (:meth:`ScoringKernel.apply_delta`, O(n·|Δ|)) rather than
        rebuilt; beyond the threshold it is rebuilt and the displaced
        snapshot is accounted in ``stats.stale_rebuilds``.

        A fresh build holds no distance storage until its first distance
        read, so one cached kernel serves relevance-only and
        distance-reading selectors alike: allocation only shifts *when*
        storage fills, never which floats it holds.

        ``with_delta=True`` returns ``(kernel, delta)``: the
        :class:`~repro.engine.updates.KernelDelta` from the cached
        snapshot to the current Q(D) — empty on a hit, the applied patch,
        or the diff a stale rebuild replaced.  When no cached kernel
        matches there is no snapshot to diff: it returns ``(None, None)``
        and builds nothing."""
        key = self._cache_key(instance)
        kernel = self._cache.get(key)
        delta = None
        if kernel is not None and kernel.matches(instance):
            rows = instance.answers()
            if kernel.snapshot_equals(rows):
                self._cache.move_to_end(key)
                self.stats.hits += 1
                if with_delta:
                    return kernel, KernelDelta((), (), kernel.n, kernel.n)
                return kernel
            delta = compute_delta(kernel, rows)
            if delta.size <= self.config.patch_threshold * max(kernel.n, len(rows), 1):
                kernel.apply_delta(delta.inserted, delta.deleted)
                self._cache.move_to_end(key)
                self.stats.patches += 1
                return (kernel, delta) if with_delta else kernel
            self.stats.stale_rebuilds += 1
        elif with_delta:
            return None, None
        kernel = kernel_for_instance(instance, use_numpy=self.use_numpy, config=self.config)
        self._cache[key] = kernel
        self._cache.move_to_end(key)
        self.stats.misses += 1
        while len(self._cache) > self.config.cache_size:
            self._cache.popitem(last=False)
            self.stats.evictions += 1
        return (kernel, delta) if with_delta else kernel

    def clear_cache(self) -> None:
        """Drop every cached kernel/retriever/pool."""
        self._cache.clear()
        self._retrievers.clear()
        self._pools.clear()

    @property
    def cached_kernels(self) -> int:
        return len(self._cache)

    # -- retrieval front end ----------------------------------------------

    def retriever_for(self, instance: DiversificationInstance) -> CandidateRetriever:
        """The cached :class:`~repro.retrieval.CandidateRetriever` over
        this instance's materialized answer set.

        Indexed once per materialization (BM25 over the rows' text, ANN
        over the provider's feature space when it has one) and rebuilt
        whenever the answer snapshot changes — the same freshness rule
        the kernel cache applies, so a delta-patched corpus never serves
        a stale pool.
        """
        key = self._cache_key(instance)
        rows = instance.answers()
        entry = self._retrievers.get(key)
        if entry is not None:
            cached_rows, retriever = entry
            if cached_rows == rows:
                self._retrievers.move_to_end(key)
                return retriever
            self._drop_pools(key)
        retriever = CandidateRetriever.from_rows(
            rows,
            provider_for(instance.objective),
            use_numpy=self.use_numpy,
        )
        self._retrievers[key] = (rows, retriever)
        self._retrievers.move_to_end(key)
        self.retrieval_stats["indexes_built"] += 1
        while len(self._retrievers) > self.config.cache_size:
            evicted, _entry = self._retrievers.popitem(last=False)
            self._drop_pools(evicted)
        return retriever

    def _drop_pools(self, base_key: tuple) -> None:
        for pool_key in [key for key in self._pools if key[0] == base_key]:
            del self._pools[pool_key]

    def invalidate_retrieval(self, instance: DiversificationInstance) -> bool:
        """Drop the retrieval index and pools for this materialization
        (the serving layer's explicit delta hook).  Returns whether an
        index was live."""
        key = self._cache_key(instance)
        dropped = self._retrievers.pop(key, None) is not None
        self._drop_pools(key)
        if dropped:
            self.retrieval_stats["invalidations"] += 1
        return dropped

    @property
    def cached_retrievers(self) -> int:
        return len(self._retrievers)

    def retrieve(
        self,
        instance: DiversificationInstance,
        query_text: str | None = None,
        *,
        query_features=None,
        pool_size: int | None = None,
        retriever: str | None = None,
        exact: bool = False,
    ) -> RetrievalResult:
        """Cut this instance's answer set to a ranked candidate pool
        (no diversification — the CLI ``retrieve`` surface)."""
        return self.retriever_for(instance).retrieve(
            query_text,
            query_features,
            pool_size=DEFAULT_POOL_SIZE if pool_size is None else int(pool_size),
            retriever=retriever or "hybrid",
            exact=exact,
        )

    def pool_for(
        self,
        instance: DiversificationInstance,
        query_text: str | None,
        pool_size: int | None = None,
        retriever: str | None = None,
    ) -> tuple[DiversificationInstance | None, RetrievalResult]:
        """The pool instance for one retrieval cut, plus the cut itself.

        The pool is a :class:`DiversificationInstance` whose answer set
        *is* the retrieved rows (identity query over a pool relation),
        so everything downstream — kernel, selectors, floats — is the
        unchanged exact path.  Memoized per (materialization,
        query_text, pool_size, retriever): repeated cuts return the same
        instance object and therefore hit the same pool kernel.  ``k``/
        ``λ`` are adapted per request through ``with_k``/
        ``with_objective``, which preserve those identities.  A cut that
        matches nothing returns ``(None, result)``.
        """
        pool_size = DEFAULT_POOL_SIZE if pool_size is None else int(pool_size)
        kind = retriever or "hybrid"
        base_key = self._cache_key(instance)
        pool_key = (base_key, query_text, pool_size, kind)
        rows = instance.answers()
        entry = self._pools.get(pool_key)
        if entry is not None:
            cached_rows, pool, result = entry
            if cached_rows == rows:
                self._pools.move_to_end(pool_key)
                self.retrieval_stats["pool_hits"] += 1
                return self._adapt_pool(pool, instance), result
        result = self.retriever_for(instance).retrieve(
            query_text, pool_size=pool_size, retriever=kind
        )
        if not result.indices:
            return None, result
        pool_rows = [rows[i] for i in result.indices]
        schema = pool_rows[0].schema
        pool = DiversificationInstance(
            identity_query(schema),
            Database([Relation(schema, pool_rows)]),
            k=instance.k,
            objective=instance.objective,
            constraints=instance.constraints,
        )
        self._pools[pool_key] = (rows, pool, result)
        self._pools.move_to_end(pool_key)
        self.retrieval_stats["pool_misses"] += 1
        while len(self._pools) > self.config.cache_size:
            self._pools.popitem(last=False)
        return pool, result

    @staticmethod
    def _adapt_pool(
        pool: DiversificationInstance, instance: DiversificationInstance
    ) -> DiversificationInstance:
        """Apply the request's k/λ onto a memoized pool through the
        identity-preserving variant constructors."""
        if pool.k != instance.k:
            pool = pool.with_k(instance.k)
        if pool.objective is not instance.objective:
            pool = pool.with_objective(instance.objective)
        return pool

    # -- solving ----------------------------------------------------------

    @staticmethod
    def _resolve_request(
        instance: DiversificationInstance | None,
        algorithm: str | None,
        request: DiversifyRequest | None,
    ) -> tuple[DiversificationInstance, str | None]:
        """Fold an optional :class:`~repro.api.DiversifyRequest` into the
        historical ``(instance, algorithm)`` pair.  An explicit
        ``instance`` serves as the request's base (registry-resolved
        callers); an explicit ``algorithm`` wins over the request's."""
        if request is not None:
            instance = request.resolve(instance)
            if algorithm is None:
                algorithm = request.algorithm
        if instance is None:
            raise EngineError("run() needs an instance or a request")
        return instance, algorithm

    def run(
        self,
        instance: DiversificationInstance | None = None,
        algorithm: str | None = None,
        *,
        request: DiversifyRequest | None = None,
    ) -> EngineResult | None:
        """Solve one instance through its (possibly cached) kernel.

        Accepts either the historical ``(instance, algorithm)`` pair or
        a :class:`~repro.api.DiversifyRequest` (``request=``), whose
        ``k``/``λ``/``algorithm`` are applied on top of its carried (or
        explicitly passed) base instance.  Returns None when the
        instance has no candidate set of size k (mirroring the
        underlying algorithms).
        """
        instance, algorithm = self._resolve_request(instance, algorithm, request)
        if request is not None and request.wants_retrieval:
            pool, retrieval = self.pool_for(
                instance,
                request.query_text,
                pool_size=request.pool_size,
                retriever=request.retriever,
            )
            if pool is None:
                return None
            result = self.run(pool, algorithm)
            if result is None:
                return None
            return replace(result, retrieval=retrieval.to_dict())
        name = algorithm if algorithm is not None else self.algorithm
        if name == "auto":
            name = auto_algorithm(instance)
        try:
            func = ALGORITHMS[name]
        except KeyError:
            raise EngineError(
                f"unknown algorithm {name!r}; choose one of {sorted(ALGORITHMS)}"
            ) from None
        reused_before = self.stats.hits + self.stats.patches
        kernel = self.kernel_for(instance)
        if self._use_approx(name, instance):
            selection = _SKETCHED_SELECTORS[name](
                kernel, instance.objective, instance.k
            )
            if selection is None:
                return None
            return EngineResult(
                value=float(selection.value),
                rows=selection.rows,
                algorithm=name,
                kernel_reused=self.stats.hits + self.stats.patches > reused_before,
                backend=kernel.backend,
                indices=selection.indices,
                certificate=selection.certificate,
            )
        result = func(instance, kernel)
        if result is None:
            return None
        value, rows = result
        return EngineResult(
            value=float(value),
            rows=rows,
            algorithm=name,
            kernel_reused=self.stats.hits + self.stats.patches > reused_before,
            backend=kernel.backend,
            indices=tuple(kernel.index_of(row) for row in rows),
        )

    def _use_approx(self, name: str, instance: DiversificationInstance) -> bool:
        """Whether this solve takes the sketched approximate path:
        the config opted in, the algorithm has a sketched counterpart,
        the objective reads distances (λ > 0 — relevance-only solves
        are already matrix-free on the exact path), and the instance is
        unconstrained."""
        return (
            self.config.approx
            and name in _SKETCHED_SELECTORS
            and instance.objective.lam > 0.0
            and len(instance.constraints) == 0
        )

    def run_batch(
        self,
        instances: Iterable[DiversificationInstance] | None = None,
        algorithm: str | None = None,
        *,
        requests: Iterable[DiversifyRequest] | None = None,
    ) -> list[EngineResult | None]:
        """Solve many instances (or requests), reusing kernels across
        shared (Q, D) materializations."""
        if requests is not None:
            if instances is not None:
                raise EngineError("pass instances= or requests=, not both")
            return [self.run(request=req, algorithm=algorithm) for req in requests]
        if instances is None:
            raise EngineError("run_batch() needs instances or requests")
        return [self.run(instance, algorithm) for instance in instances]

    def sweep(
        self,
        instance: DiversificationInstance | None = None,
        ks: Iterable[int] | None = None,
        lams: Iterable[float] | None = None,
        algorithm: str | None = None,
        *,
        request: DiversifyRequest | None = None,
    ) -> list[tuple[int, float, EngineResult | None]]:
        """Solve a k × λ grid of variants of one instance on one kernel.

        The base may come from a :class:`~repro.api.DiversifyRequest`
        (``request=``; its own ``k``/``λ`` seed the grid defaults).
        Variants are built with ``with_k`` / ``with_lambda``, which keep
        the query/db/function identities — every grid cell after the
        first is a kernel-cache hit.
        """
        instance, algorithm = self._resolve_request(instance, algorithm, request)
        return [
            (k, lam, self.run(variant, algorithm))
            for k, lam, variant in variants_grid(instance, ks, lams)
        ]

    def __repr__(self) -> str:
        return (
            f"DiversificationEngine(algorithm={self.algorithm!r}, "
            f"cache={len(self._cache)}/{self.config.cache_size}, "
            f"hits={self.stats.hits}, misses={self.stats.misses})"
        )


_default_engine: DiversificationEngine | None = None


def default_engine() -> DiversificationEngine:
    """The process-wide engine behind the non-batch entry points.

    ``core.diversify.diversify``, ``core.dispersion.from_instance`` and
    the ``python -m repro diversify`` CLI all dispatch through this one
    instance, so its LRU kernel cache, delta patching and ``CacheStats``
    accounting cover every caller — including repeated CLI queries
    within one process.  Callers that want isolated caches or different
    knobs construct their own :class:`DiversificationEngine`.
    """
    global _default_engine
    if _default_engine is None:
        _default_engine = DiversificationEngine()
    return _default_engine


def reset_default_engine() -> DiversificationEngine:
    """Replace the process-wide engine with a fresh one (test isolation,
    or dropping every cached kernel at once) and return it."""
    global _default_engine
    _default_engine = DiversificationEngine()
    return _default_engine
