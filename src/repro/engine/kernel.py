"""Shared scoring kernels: ``Q(D)`` materialized once, scores precomputed.

Every heuristic in :mod:`repro.algorithms` scores candidates through
``objective.relevance`` / ``objective.distance``, which on the direct
path means re-invoking Python callables per candidate pair on every
greedy step — the hot path is quadratic in *call overhead*, not just in
arithmetic.  A :class:`ScoringKernel` materializes the answer set once
and precomputes

* the relevance vector ``rel[i] = δ_rel(t_i, Q)``, and
* the symmetric pairwise-distance matrix ``dist[i][j] = δ_dis(t_i, t_j)``
  (zero diagonal),

so each ``(Q, D, δ_rel, δ_dis)`` combination pays the function-call cost
exactly once, after which every algorithm — and every ``k``/``λ``
variant of the same instance — reuses the arrays.

Construction is **batch-native**: all scoring goes through a
:class:`~repro.core.providers.ScoringProvider` — the objective's own
when it carries one, else a :class:`ScalarCallableProvider` adapting the
scalar callables with identical floats and call counts.  The distance
matrix is assembled from tiled ``distance_block`` calls (``block_size``
rows per tile, symmetric tiles computed once and mirrored), so a
vectorizing provider fills it with a handful of array operations instead
of n(n−1)/2 interpreter-bound calls.

*Where* the matrix lives is pluggable (:mod:`repro.engine.storage`),
planned by the kernel's :class:`~repro.api.EngineConfig`:
``storage="dense"`` (default) keeps the historical single contiguous
float64 allocation; ``storage="tiled"`` keeps the matrix as a lazy grid
of tiles — built on first touch, optionally over NumPy threads
(``workers``), optionally narrowed to float32 at rest (``dtype``) —
which removes the O(n²)-contiguous-allocation ceiling on pool size.
Every matrix read/write below delegates through the storage object, and
reductions always run in float64 regardless of the storage dtype.  The
storage object itself is allocated on the first distance read, for
every storage kind: construction scores the relevance vector only, so a
selection that never reads a distance (modular top-k, F_MS at λ = 0)
never allocates the matrix, and no selector has to say so in advance.

The kernel is NumPy-backed when NumPy is importable and falls back to a
pure-Python implementation with identical semantics otherwise (the
fallback can also be forced with ``use_numpy=False``, which the parity
tests exercise).  All scalar reads go through ``float(...)``, and the
aggregation loops mirror :mod:`repro.core.objectives` operation by
operation, so a kernel-backed algorithm selects the same tuples and
reports the same objective values as the direct path.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from typing import TYPE_CHECKING

from ..api import ApiError, EngineConfig
from ..core.evaluator import (
    max_min_value,
    max_sum_value,
    modular_value,
    mono_item_score,
)
from ..core.objectives import Objective, ObjectiveError, ObjectiveKind
from ..core.providers import provider_for
from ..relational.schema import Row, row_sort_key
from .storage import (
    STORAGE_COUNTERS,
    KernelStorage,
    SketchedStorage,
    TiledStorage,
    make_storage,
)

if TYPE_CHECKING:
    from ..core.instance import DiversificationInstance

try:
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI cell
    _np = None

def numpy_available() -> bool:
    """True when the NumPy backend can be used in this interpreter."""
    return _np is not None


class KernelError(ValueError):
    """Raised on kernel misuse (backend unavailable, instance mismatch)."""


def _first_occurrence_index(answers: Sequence[Row]) -> dict[Row, int]:
    """Row → first snapshot position (the duplicate-row contract of
    :meth:`ScoringKernel.index_of`)."""
    index: dict[Row, int] = {}
    for i, row in enumerate(answers):
        index.setdefault(row, i)
    return index


class ScoringKernel:
    """Precomputed relevance vector + distance matrix for one ``(Q, D)``.

    The kernel is a *snapshot*: it captures ``Q(D)`` at construction
    time and is keyed (see :meth:`matches`) on the identity of the
    query, database, relevance function and distance function — the
    trade-off λ and the result size k are deliberately **not** part of
    the key, so ``with_k`` / ``with_lambda`` variants of an instance all
    share one kernel.

    The snapshot is *maintainable*: :meth:`apply_delta` patches the
    arrays in place after database updates at O(n·|Δ|) scoring-call
    cost, keeping the kernel element-wise equal to a fresh rebuild.

    The distance matrix lives behind a
    :class:`~repro.engine.storage.KernelStorage` planned by ``config``
    (a :class:`~repro.api.EngineConfig`, default ``EngineConfig()``),
    validated once here and then held by reference; selectors only ever
    touch the accessor methods below, so the storage layout is
    invisible to them.
    """

    __slots__ = (
        "query",
        "db",
        "relevance",
        "distance",
        "provider",
        "config",
        "answers",
        "n",
        "backend",
        "_index",
        "_rel",
        "_storage",
        "_sketch",
        "_row_sums",
        "_item_scores_cache",
    )

    def __init__(
        self,
        instance: "DiversificationInstance",
        use_numpy: bool | None = None,
        config: EngineConfig | None = None,
    ):
        if use_numpy is None:
            use_numpy = _np is not None
        elif use_numpy and _np is None:
            raise KernelError(
                "use_numpy=True requested but numpy is not installed; "
                "pass use_numpy=None (auto) or False for the pure-Python backend"
            )
        if config is None:
            config = EngineConfig()
        try:
            config.validate()
        except ApiError as exc:
            raise KernelError(str(exc)) from None
        objective = instance.objective
        self.query = instance.query
        self.db = instance.db
        self.relevance = objective.relevance
        self.distance = objective.distance
        self.provider = provider_for(objective)
        self.config = config
        self.answers: tuple[Row, ...] = tuple(instance.answers())
        self.n = len(self.answers)
        self._index = _first_occurrence_index(self.answers)
        self.backend = "numpy" if use_numpy else "python"

        rel = self.provider.relevance_batch(
            self.answers, self.query, use_numpy=use_numpy
        )
        if use_numpy:
            self._rel = _np.asarray(rel, dtype=_np.float64)
        else:
            self._rel = [float(v) for v in rel]
        # Distance storage is allocated by the first distance read, in
        # _require_dist, never here: a selection that reads no distance
        # (modular top-k, F_MS at λ = 0) never pays for it.
        self._storage: KernelStorage | None = None
        self._sketch: SketchedStorage | None = None
        self._row_sums = None
        self._item_scores_cache = {}

    def _build_distance_block(self, a0: int, a1: int, b0: int, b1: int):
        """The storage-facing block builder: provider distances for
        answer rows ``[a0:a1] × [b0:b1]``.

        Reads ``self.answers`` at call time (not at storage-construction
        time), so lazily-built tiles of a delta-patched kernel score
        against the updated snapshot.  Equal ranges pass ``rows_a is
        rows_b`` so providers score symmetric diagonal blocks
        triangle-once — a scalar provider pays exactly n(n−1)/2 distance
        calls for the full matrix, a vectorizing provider one array op
        per tile.
        """
        answers = self.answers
        rows_a = answers[a0:a1]
        rows_b = rows_a if (a0, a1) == (b0, b1) else answers[b0:b1]
        return self.provider.distance_block(
            rows_a, rows_b, use_numpy=self.backend == "numpy"
        )

    def _require_dist(self) -> KernelStorage:
        """The distance storage, allocated on the first distance read —
        the one place that decides when storage exists.

        Dense storage fills the whole matrix here; tiled storage
        allocates an empty grid and scores tiles on first touch —
        :meth:`materialize_all` forces the full build (threaded on NumPy
        when ``workers`` > 1).  The landmark columns of the approximate
        selectors live apart, in :meth:`sketch`, and never allocate it.
        """
        if self._storage is None:
            self._storage = make_storage(
                self.n,
                self._build_distance_block,
                self.backend == "numpy",
                self.config,
            )
        return self._storage

    @property
    def distances_materialized(self) -> bool:
        """False until the first distance read allocates distance
        storage.  Note that tiled storage is lazy internally: see
        :attr:`distances_fully_built` for "every pair scored"."""
        return self._storage is not None

    @property
    def distances_fully_built(self) -> bool:
        """Has every pairwise distance actually been scored and stored?
        (Dense storage: equal to :attr:`distances_materialized`; tiled
        storage: only after every tile has been touched or
        :meth:`materialize_all` ran.)"""
        return self._storage is not None and self._storage.is_fully_built

    def materialize_all(self) -> None:
        """Force the full O(n²) distance materialization now — tiled
        kernels build every remaining tile, over ``workers`` threads on
        NumPy and serially on pure Python (see
        :mod:`repro.engine.parallel`)."""
        self._require_dist().ensure_all()

    def storage_stats(self) -> dict:
        """Uniform storage accounting for the distance storage.

        Every storage kind reports the same shape — ``kind`` plus the
        full :data:`~repro.engine.storage.STORAGE_COUNTERS` set — so
        aggregators (`/stats`, benches) never special-case.  Dense
        storage is one resident "tile" of n² float64s.  A built landmark
        sketch adds its n × m float64 columns to ``resident_bytes``; a
        kernel whose only distance data is the sketch (after approximate
        solves) reports ``kind='sketched'``, and one that holds neither
        reports ``kind='deferred'`` with zero counters.
        """
        stats = {"kind": "deferred", **dict.fromkeys(STORAGE_COUNTERS, 0)}
        storage = self._storage
        if isinstance(storage, TiledStorage):
            stats["kind"] = "tiled"
            stats.update(storage.spill_stats)
        elif storage is not None:
            stats["kind"] = "dense"
            stats["resident_tiles"] = 1
            stats["resident_bytes"] = self.n * self.n * 8
        if self._sketch is not None:
            if storage is None:
                stats["kind"] = "sketched"
            stats["resident_bytes"] += self._sketch.nbytes
        return stats

    # -- sketched (landmark-column) access ---------------------------------

    @property
    def effective_sketch_columns(self) -> int:
        """The landmark count m the sketch will use: the config's
        ``sketch_columns``, else ``max(16, ⌊√n⌋)`` — O(n^1.5) total
        sketch memory/scoring, ~1% of the dense matrix at n = 10,000 —
        clamped to ``[min(2, n), n]`` so m ≥ n snapshots fall back to
        exact dense semantics (every row a landmark)."""
        m = self.config.sketch_columns
        if m is None:
            m = max(16, math.isqrt(max(self.n, 1)))
        return min(self.n, max(2, m))

    def sketch(self) -> SketchedStorage:
        """The landmark-column distance sketch, built on first use.

        Landmark positions come from the provider's
        :meth:`~repro.core.providers.ScoringProvider.select_landmarks`
        hook (strategy = the config's ``landmarks`` knob, default
        ``uniform``), and the n×m columns are scored exactly through the
        same ``distance_block`` calls a full build would make — just m
        columns of them.  With ``approx=True`` the approximate selectors
        read their rows from it, over either ``storage`` kind, and never
        allocate the exact distance storage.
        """
        if self._sketch is None:
            use_numpy = self.backend == "numpy"
            strategy = self.config.landmarks or "uniform"
            positions = self.provider.select_landmarks(
                self.answers,
                [float(v) for v in self._rel],
                self.effective_sketch_columns,
                strategy=strategy,
                use_numpy=use_numpy,
            )
            answers = self.answers
            provider = self.provider

            def columns_builder(a0: int, a1: int, landmark_positions):
                return provider.distance_block(
                    answers[a0:a1],
                    [answers[p] for p in landmark_positions],
                    use_numpy=use_numpy,
                )

            self._sketch = SketchedStorage.build(
                self.n,
                positions,
                columns_builder,
                use_numpy,
                self.config,
                strategy,
            )
        return self._sketch

    def selected_value(self, indices: Sequence[int], objective: Objective) -> float:
        """Exact ``F(U)`` for a small selected set **without touching the
        full matrix**: the ≤ k chosen rows are re-scored through one
        provider ``distance_block`` call (same floats the matrix holds),
        so approximate selectors can report exact values at O(k²)
        provider cost.  Falls back to :meth:`value` for modular
        objectives, whose item scores may need full row sums anyway.
        """
        indices = list(indices)
        if objective.kind not in (ObjectiveKind.MAX_SUM, ObjectiveKind.MAX_MIN):
            return self.value(indices, objective)
        lam = objective.lam
        rows = [self.answers[i] for i in indices]
        block = None
        if lam > 0.0 and len(rows) > 1:
            block = self.provider.distance_block(
                rows, rows, use_numpy=self.backend == "numpy"
            )

        def rel_at(p: int) -> float:
            return float(self._rel[indices[p]])

        def dist_at(p: int, q: int) -> float:
            if self.backend == "numpy":
                return float(block[p, q])
            return float(block[p][q])

        local = list(range(len(indices)))
        if objective.kind is ObjectiveKind.MAX_SUM:
            return max_sum_value(local, lam, rel_at, dist_at)
        return max_min_value(local, lam, rel_at, dist_at)

    def sketch_value(
        self,
        indices: Sequence[int],
        objective: Objective,
        bound: str = "lower",
    ) -> float:
        """``F(U)`` evaluated with every pairwise distance replaced by
        the sketch's ``bound`` ("lower" / "upper") — since F_MS and F_MM
        are monotone non-decreasing in distances, these bracket the
        exact value for any metric distance."""
        indices = list(indices)
        if objective.kind not in (ObjectiveKind.MAX_SUM, ObjectiveKind.MAX_MIN):
            raise ObjectiveError(
                f"sketch bounds are defined for max-sum/max-min, not "
                f"{objective.kind.value}"
            )
        sketch = self.sketch()
        bound_at = (
            sketch.lower_bound if bound == "lower" else sketch.upper_bound
        )

        def dist_at(i: int, j: int) -> float:
            return bound_at(i, j)

        if objective.kind is ObjectiveKind.MAX_SUM:
            return max_sum_value(indices, objective.lam, self.relevance_of, dist_at)
        return max_min_value(indices, objective.lam, self.relevance_of, dist_at)

    # -- identity ---------------------------------------------------------

    def matches(self, instance: "DiversificationInstance") -> bool:
        """Is this kernel valid for ``instance``?

        True when the instance shares the *same objects* for query,
        database, relevance and distance — the contract under which the
        precomputed arrays are guaranteed to agree with direct calls.
        """
        objective = instance.objective
        return (
            self.query is instance.query
            and self.db is instance.db
            and self.relevance is objective.relevance
            and self.distance is objective.distance
        )

    def ensure_matches(self, instance: "DiversificationInstance") -> None:
        if not self.matches(instance):
            raise KernelError(
                "kernel was built for a different (query, db, δ_rel, δ_dis); "
                "build one with ScoringKernel(instance)"
            )

    def is_fresh_for(self, instance: "DiversificationInstance") -> bool:
        """Does the snapshot still agree with ``instance.answers()``?

        The kernel captures Q(D) at construction; if the database was
        mutated in place (and ``invalidate_cache()`` called), the arrays
        are stale.  This re-materializes the instance's answer set — the
        same evaluation cost every direct-path algorithm pays — and
        compares row-by-row.  A stale kernel is not dead weight: compute
        the :func:`~repro.engine.updates.delta_for_instance` and
        :meth:`apply_delta` it (the engine's cache does exactly that).
        """
        return self.snapshot_equals(instance.answers())

    def snapshot_equals(self, rows: Sequence[Row]) -> bool:
        """Element-wise comparison of the snapshot against ``rows``."""
        return len(rows) == self.n and all(
            a == b for a, b in zip(self.answers, rows)
        )

    def index_of(self, row: Row) -> int:
        """The snapshot position of ``row``.

        Duplicate-row contract: when equal rows occur several times in
        the materialized answer set, the index of the **first**
        occurrence is returned — matching the candidate every
        first-wins selection loop prefers, so index round-trips agree
        with a row's position in ``answers`` for all first occurrences.
        """
        try:
            return self._index[row]
        except KeyError:
            raise KernelError(f"row {row!r} is not in the materialized Q(D)") from None

    # -- delta maintenance -------------------------------------------------

    def apply_delta(
        self,
        inserted: Sequence[Row] = (),
        deleted: Sequence[Row] = (),
    ) -> "ScoringKernel":
        """Patch the snapshot in place to reflect ``Q(D)`` after updates.

        ``deleted`` rows are removed from the snapshot (consuming one
        occurrence per deletion, earliest occurrence first), and
        ``inserted`` rows are merged into the value-sorted answer order —
        the order ``Relation.sorted_rows`` produces — so a patched kernel
        is element-wise equal (answers, relevance vector, distance
        matrix, row sums, index) to one freshly built from the updated
        database.  Only entries involving inserted rows invoke
        ``δ_rel``/``δ_dis``: O(n·|Δ|) scoring calls instead of the O(n²)
        of a rebuild; surviving entries are copied from the old storage
        (dense: one contiguous remap; tiled: per-tile patches, so no
        O(n²) scratch allocation appears even transiently).

        Raises :class:`KernelError` when a deleted row is not in the
        snapshot (the delta does not describe this kernel's state).
        """
        inserted = list(inserted)
        deleted = list(deleted)
        if not inserted and not deleted:
            return self

        remove: dict[Row, int] = {}
        for row in deleted:
            remove[row] = remove.get(row, 0) + 1
        kept: list[int] = []
        for i, row in enumerate(self.answers):
            pending = remove.get(row, 0)
            if pending:
                remove[row] = pending - 1
            else:
                kept.append(i)
        missing = [row for row, count in remove.items() if count > 0]
        if missing:
            raise KernelError(
                f"cannot delete rows missing from the snapshot: {missing[:3]!r}"
            )

        # Merge inserted rows into the kept (already sorted) order at the
        # position a fresh sorted_rows() materialization would give them.
        incoming = sorted(inserted, key=row_sort_key)
        incoming_keys = [row_sort_key(row) for row in incoming]
        merged: list[tuple[Row, int]] = []  # (row, old index or -1)
        pos = 0
        for i in kept:
            row = self.answers[i]
            key = row_sort_key(row)
            while pos < len(incoming) and incoming_keys[pos] < key:
                merged.append((incoming[pos], -1))
                pos += 1
            merged.append((row, i))
        merged.extend((row, -1) for row in incoming[pos:])

        new_answers = tuple(row for row, _ in merged)
        old_of_new = [old for _, old in merged]
        m = len(new_answers)
        new_positions = [p for p, old in enumerate(old_of_new) if old < 0]
        new_rows = [new_answers[p] for p in new_positions]
        use_numpy = self.backend == "numpy"

        # Inserted rows are scored through the provider's batch methods:
        # one relevance_batch call and one distance_block call per delta
        # instead of O(n·|Δ|) scalar invocations.
        inserted_rel = (
            self.provider.relevance_batch(new_rows, self.query, use_numpy=use_numpy)
            if new_rows
            else None
        )
        if use_numpy:
            new_rel = _np.empty(m, dtype=_np.float64)
            for p, old in enumerate(old_of_new):
                if old >= 0:
                    new_rel[p] = self._rel[old]
            if new_rows:
                new_rel[_np.asarray(new_positions, dtype=_np.intp)] = _np.asarray(
                    inserted_rel, dtype=_np.float64
                )
        else:
            new_rel = [0.0] * m
            for p, old in enumerate(old_of_new):
                if old >= 0:
                    new_rel[p] = self._rel[old]
            for value, p in zip(inserted_rel or (), new_positions):
                new_rel[p] = float(value)

        # Unallocated distance storage stays unallocated: there is
        # nothing to patch, and the next distance read materializes
        # against the updated snapshot.  An allocated storage is asked to
        # remap itself — a fully-built tiled grid patches tile by tile,
        # a partially-built one is re-derived lazily.
        new_storage = None
        if self._storage is not None:
            block = None
            if new_rows and self._storage.is_fully_built:
                # One |Δ| × m block covers every entry touching an
                # inserted row; the provider's symmetry contract makes
                # the row/column mirror writes consistent (including
                # inserted-inserted pairs, which the block scores twice
                # with equal values, and the zero diagonal).
                block = self.provider.distance_block(
                    new_rows, list(new_answers), use_numpy=use_numpy
                )
            new_storage = self._storage.remap(
                old_of_new, new_positions, block, self._build_distance_block
            )

        # A built sketch is patched the same way: surviving rows keep
        # their landmark columns, deleted-landmark columns are dropped,
        # and inserted rows are scored against the surviving landmarks
        # (|Δ| × m provider calls).  If the delete leaves too few
        # columns, remap returns None and the next sketch() rebuilds.
        new_sketch = None
        if self._sketch is not None:
            provider = self.provider

            def sketch_rows_builder(
                row_positions, landmark_positions, _answers=new_answers
            ):
                return provider.distance_block(
                    [_answers[p] for p in row_positions],
                    [_answers[p] for p in landmark_positions],
                    use_numpy=use_numpy,
                )

            new_sketch = self._sketch.remap(
                old_of_new, new_positions, sketch_rows_builder
            )

        self.answers = new_answers
        self.n = m
        self._rel = new_rel
        self._storage = new_storage
        self._sketch = new_sketch
        self._index = _first_occurrence_index(new_answers)
        self._row_sums = None
        self._item_scores_cache = {}
        return self

    # -- scalar access ----------------------------------------------------

    def relevance_of(self, i: int) -> float:
        return float(self._rel[i])

    def distance_between(self, i: int, j: int) -> float:
        return self._require_dist().get(i, j)

    def distance_rows(self) -> list[list[float]]:
        """The full distance matrix as plain float lists (one copy) —
        for consumers that transform it wholesale.  Forces the full
        build on lazy storage; per-row consumers should prefer
        :meth:`copy_distance_row`, which touches one tile-row only."""
        return self._require_dist().to_lists()

    def row_distance_sums(self) -> list[float]:
        """``Σ_j dist[i][j]`` per row (the F_mono diversity numerator).

        Computed on first use (forcing the full matrix build) and cached
        until the next :meth:`apply_delta`; always float64 arithmetic in
        the same left-to-right order on every storage kind and backend.
        """
        if self._row_sums is None:
            self._row_sums = self._require_dist().row_sums64()
        return self._row_sums

    def distinct_indices(self) -> list[int]:
        """First-occurrence index of each distinct row value, ascending.

        This is the index-space image of the value-distinct candidate
        enumeration of ``DiversificationInstance.candidate_sets``:
        k-combinations of these indices visit every candidate set
        exactly once even when the snapshot carries duplicated rows.
        """
        return list(self._index.values())

    # -- vector primitives (backend-generic) ------------------------------

    def relevance_scores(self):
        """The relevance vector (backend array; treat as read-only)."""
        return self._rel

    def zeros_vector(self):
        if self.backend == "numpy":
            return _np.zeros(self.n, dtype=_np.float64)
        return [0.0] * self.n

    def copy_distance_row(self, i: int):
        return self._require_dist().copy_row64(i)

    def minimum_inplace(self, vec, i: int):
        """Elementwise ``vec = min(vec, dist[i])`` (novelty tracking)."""
        return self._require_dist().minimum_into(vec, i)

    def add_row_inplace(self, vec, i: int):
        """Elementwise ``vec += dist[i]`` (marginal-gain tracking)."""
        return self._require_dist().add_into(vec, i)

    def affine_scores(self, alpha: float, beta: float, vec, out=None):
        """Elementwise ``alpha * rel + beta * vec`` — the shape of every
        incremental selection rule (MMR, GMC, marginal greedy).

        ``out`` is an optional reusable buffer (from
        :meth:`zeros_vector`): selector inner loops call this once per
        pick, and writing into a scratch vector avoids allocating two
        fresh arrays per round.  The element-wise operations (and hence
        the floats) are identical either way.
        """
        if self.backend == "numpy":
            if out is None:
                return alpha * self._rel + beta * vec
            _np.multiply(self._rel, alpha, out=out)
            out += beta * vec
            return out
        rel = self._rel
        if out is None:
            return [alpha * rel[j] + beta * vec[j] for j in range(self.n)]
        for j in range(self.n):
            out[j] = alpha * rel[j] + beta * vec[j]
        return out

    def argmax(
        self,
        vec,
        excluded: set[int] | frozenset[int] = frozenset(),
        within: Sequence[int] | None = None,
    ) -> int:
        """Index of the first maximum of ``vec``, skipping ``excluded``
        (or restricted to ``within``), replicating the strict-``>`` /
        first-wins tie-breaking of the direct-path loops."""
        if within is not None:
            if self.backend == "numpy":
                idx = _np.asarray(within, dtype=_np.intp)
                return int(within[int(_np.argmax(vec[idx]))])
            best = -float("inf")
            best_i = -1
            for j in within:
                if vec[j] > best:
                    best = vec[j]
                    best_i = j
            return best_i
        if self.backend == "numpy":
            if excluded:
                masked = vec.copy()
                masked[list(excluded)] = -_np.inf
                return int(_np.argmax(masked))
            return int(_np.argmax(vec))
        best = -float("inf")
        best_i = -1
        for j in range(self.n):
            if j in excluded:
                continue
            if vec[j] > best:
                best = vec[j]
                best_i = j
        return best_i

    def best_pair(
        self, available: Sequence[int], lam: float, k: int
    ) -> tuple[int, int]:
        """The max-weight pair of the dispersion-graph view of F_MS:

            w(i, j) = (1−λ)(rel_i + rel_j) + (2λ/(k−1)) · dist[i][j]

        scanning pairs of ``available`` in (i asc, j asc) order with
        strict improvement — the same scan order and tie-breaking as the
        direct pair-greedy loop.
        """
        coef_rel = 1.0 - lam
        coef_dist = 2.0 * lam / (k - 1)
        # λ = 0 weighs pairs by relevance alone — leave unallocated
        # distance storage unallocated (and lazy tiles unbuilt).
        storage = self._require_dist() if coef_dist != 0.0 else None
        if self.backend == "numpy":
            idx = _np.asarray(available, dtype=_np.intp)
            sub_rel = self._rel[idx]
            weights = coef_rel * (sub_rel[:, None] + sub_rel[None, :])
            if coef_dist != 0.0:
                weights = weights + coef_dist * storage.gather64(available, available)
            upper_i, upper_j = _np.triu_indices(len(available), k=1)
            best = int(_np.argmax(weights[upper_i, upper_j]))
            return available[int(upper_i[best])], available[int(upper_j[best])]
        rel = self._rel
        best_weight = -float("inf")
        best_pair = (-1, -1)
        for pos, i in enumerate(available):
            rel_i = rel[i]
            dist_i = storage.row64(i) if coef_dist != 0.0 else None
            for j in available[pos + 1 :]:
                weight = coef_rel * (rel_i + rel[j])
                if coef_dist != 0.0:
                    weight += coef_dist * dist_i[j]
                if weight > best_weight:
                    best_weight = weight
                    best_pair = (i, j)
        return best_pair

    # -- objective evaluation ---------------------------------------------

    def item_scores(self, objective: Objective) -> list[float]:
        """Per-item scores ``v(t)`` for modular objectives, mirroring
        :meth:`repro.core.objectives.Objective.item_score`.

        Memoized per ``(kind, λ)``: the scores are index-independent, so
        repeated :meth:`value` calls (local-search swap scans) reuse one
        list instead of rebuilding it per evaluation.
        """
        key = (objective.kind, objective.lam)
        cached = self._item_scores_cache.get(key)
        if cached is not None:
            return cached
        scores = self._compute_item_scores(objective)
        self._item_scores_cache[key] = scores
        return scores

    def _compute_item_scores(self, objective: Objective) -> list[float]:
        lam = objective.lam
        n = self.n
        if objective.kind is ObjectiveKind.MONO:
            if self.backend == "numpy":
                # Array arithmetic with the same operation order as
                # mono_item_score: (1−λ)·rel, then + (λ·sums)/(n−1) —
                # element-wise identical to the scalar fold below.
                scores = (1.0 - lam) * self._rel if lam < 1.0 else _np.zeros(n, dtype=_np.float64)
                if lam > 0.0 and n > 1:
                    sums = _np.asarray(self.row_distance_sums(), dtype=_np.float64)
                    scores = scores + lam * sums / (n - 1)
                return scores.tolist()
            sums = self.row_distance_sums() if lam > 0.0 else [0.0] * n
            return [
                mono_item_score(
                    lam,
                    self.relevance_of(i) if lam < 1.0 else 0.0,
                    float(sums[i]),
                    n,
                )
                for i in range(n)
            ]
        if objective.kind is ObjectiveKind.MAX_SUM and objective.relevance_only:
            if self.backend == "numpy":
                return self._rel.tolist()
            return [self.relevance_of(i) for i in range(n)]
        raise ObjectiveError(
            f"{objective.kind.value} with λ={objective.lam} has no per-item decomposition"
        )

    def value(self, indices: Sequence[int], objective: Objective) -> float:
        """``F(U)`` over answer indices.

        Delegates to the shared :mod:`repro.core.evaluator` arithmetic —
        the same functions :meth:`repro.core.objectives.Objective.value`
        folds through — with the kernel's array reads as accessors, so
        index-based and row-based evaluation agree float for float.
        """
        indices = list(indices)
        if objective.kind is ObjectiveKind.MAX_SUM:
            return max_sum_value(
                indices, objective.lam, self.relevance_of, self.distance_between
            )
        if objective.kind is ObjectiveKind.MAX_MIN:
            return max_min_value(
                indices, objective.lam, self.relevance_of, self.distance_between
            )
        scores = self.item_scores(objective)
        return modular_value(indices, scores.__getitem__)

    def __repr__(self) -> str:
        dtype = self.config.dtype
        return (
            f"ScoringKernel(Q={self.query.name}, n={self.n}, "
            f"backend={self.backend}, storage={self.config.storage or 'dense'}"
            + (f":{dtype}" if dtype not in (None, "float64") else "")
            + ")"
        )


def kernel_for_instance(
    instance: "DiversificationInstance",
    use_numpy: bool | None = None,
    config: EngineConfig | None = None,
) -> ScoringKernel:
    """Build the kernel for ``instance`` — the one construction call
    every non-engine entry point (the legacy row-based algorithm
    signatures, the dispersion view) and the engine's cache share.

    ``config`` (a :class:`repro.api.EngineConfig`) is the storage
    policy, handed to the kernel as is — the engine passes its own.
    Distance storage is not built here: the kernel allocates it on the
    first distance read, so relevance-only selections (Theorems 5.4 and
    8.2) never pay for it.
    """
    return ScoringKernel(instance, use_numpy=use_numpy, config=config)
