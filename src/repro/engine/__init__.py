"""Shared scoring kernel + batch diversification engine.

The scalability layer the paper's Section 10 motivates: heuristics for
the intractable QRD/DRP/RDC cases need to run at data scale, and the
dominant cost on the direct path is re-invoking the Python-level
``δ_rel`` / ``δ_dis`` callables per candidate pair on every step.

* :class:`ScoringKernel` materializes ``Q(D)`` once and precomputes the
  relevance vector and pairwise-distance matrix (NumPy-backed when
  available, pure-Python fallback with identical semantics);
* :class:`DiversificationEngine` runs batches of ``(Q, D, k, F)``
  instances through a chosen algorithm with kernel reuse and an LRU
  cache keyed on the ``(query, db, δ_rel, δ_dis)`` materialization;
* :mod:`repro.engine.updates` diffs a kernel snapshot against a freshly
  materialized ``Q(D)`` (:class:`KernelDelta`), and
  :meth:`ScoringKernel.apply_delta` patches the arrays in O(n·|Δ|) so
  in-place database updates do not re-pay the O(n²) precomputation.

Every algorithm in :mod:`repro.algorithms` is an index-based selector
over a kernel; the row-based signatures accept an optional ``kernel``
and build a fresh one (via :func:`kernel_for_instance`) when none is
passed — there is no separate non-kernel scoring path.

Kernel construction itself is batch-native: all scoring routes through
a :class:`~repro.core.providers.ScoringProvider` (the objective's own
vectorized provider, or a :class:`ScalarCallableProvider` adapter for
plain callables), and the distance matrix is assembled from tiled
``distance_block`` calls of :data:`DEFAULT_BLOCK_SIZE` rows.

Where the matrix *lives* is pluggable (:mod:`repro.engine.storage`):
:class:`DenseStorage` is the historical single contiguous float64
allocation, :class:`TiledStorage` keeps it as a lazy grid of tiles —
built on first touch, optionally over NumPy threads (``workers``; see
:mod:`repro.engine.parallel` — pure-Python builds run serially),
optionally float32 at rest (``dtype``), optionally LRU-bounded in
memory (``max_resident_tiles`` / ``max_resident_bytes``, with
rebuild-on-touch, or with ``spill_dir`` an append-only spill segment
that row reads are served from).  One
:class:`~repro.api.EngineConfig` selects all of it: pass it as
``config=`` to :class:`ScoringKernel`, :func:`kernel_for_instance` or
:class:`DiversificationEngine`; it is validated once and held by
reference.

Whether a matrix is needed *at all* is observed, not declared: a
kernel allocates its distance storage on the first distance read, so a
selection that reads none (modular top-k, any F_MS at λ = 0) never
allocates it.  ``approx=True`` is the one switch into the approximate
selectors, over either storage kind: they run the exact selection loops
over a :class:`SketchedStorage` of m landmark distance columns, the
sub-quadratic plan, and never allocate the exact storage.  Nothing is
ever approximated without opting in.
"""

from .engine import (
    ALGORITHMS,
    CacheStats,
    DiversificationEngine,
    EngineError,
    EngineResult,
    auto_algorithm,
    default_engine,
    modular_top_k,
    reset_default_engine,
    variants_grid,
)
from .kernel import (
    KernelError,
    ScoringKernel,
    kernel_for_instance,
    numpy_available,
)
from .parallel import available_cpus, resolve_workers
from .storage import (
    DEFAULT_BLOCK_SIZE,
    STORAGE_DTYPES,
    STORAGE_KINDS,
    DenseStorage,
    KernelStorage,
    SketchedStorage,
    StorageError,
    TiledStorage,
)
from .updates import KernelDelta, compute_delta, delta_for_instance

__all__ = [
    "ALGORITHMS",
    "CacheStats",
    "DEFAULT_BLOCK_SIZE",
    "DenseStorage",
    "DiversificationEngine",
    "EngineError",
    "EngineResult",
    "KernelDelta",
    "KernelError",
    "KernelStorage",
    "STORAGE_DTYPES",
    "STORAGE_KINDS",
    "ScoringKernel",
    "available_cpus",
    "SketchedStorage",
    "StorageError",
    "TiledStorage",
    "auto_algorithm",
    "compute_delta",
    "default_engine",
    "delta_for_instance",
    "kernel_for_instance",
    "modular_top_k",
    "numpy_available",
    "reset_default_engine",
    "resolve_workers",
    "variants_grid",
]
