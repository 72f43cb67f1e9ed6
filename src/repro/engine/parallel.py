"""Block builds: threads on NumPy, serial on pure Python.

``workers`` is the only parallelism knob.  :func:`build_blocks` — the
one entry point :class:`~repro.engine.storage.TiledStorage` and
:class:`~repro.engine.storage.SketchedStorage` build through — fans
independent block builds out over a thread pool when the kernel runs on
NumPy and ``workers`` resolves above 1: the vectorized block kernels
release the GIL, so threads scale.  Pure-Python builds run serially
whatever ``workers`` says; the interpreter lock serializes threads
there, and their speed comes from the metrics' block forms
(:meth:`~repro.core.providers.Metric.python_block`) instead.

Exactness contract: every block is scored by the same builder call a
serial build makes and stored on the calling thread, so a threaded build
stores exactly the serial floats.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor

__all__ = [
    "available_cpus",
    "validate_workers",
    "resolve_workers",
    "build_blocks",
]


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


def build_blocks(
    keys: list,
    build: Callable,
    store: Callable,
    workers,
    use_numpy: bool,
    prime: Callable | None = None,
) -> None:
    """``store(key, build(key))`` for every key, on the calling thread.

    NumPy builds with more than one key, where ``workers`` resolves
    above 1, score over a thread pool; keys matching ``prime`` are built
    serially first, so per-row provider caches warm without threads
    racing to fill them.  Everything else builds serially, in ``keys``
    order.
    """
    workers = resolve_workers(workers)
    if not use_numpy or workers < 2 or len(keys) < 2:
        for key in keys:
            store(key, build(key))
        return
    if prime is not None:
        for key in keys:
            if prime(key):
                store(key, build(key))
        keys = [key for key in keys if not prime(key)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for key, block in zip(keys, pool.map(build, keys)):
            store(key, block)


class _NoPools:
    """Zero process-pool counters: no build starts a process.  The only
    reader is perfbench; the ledger revision of ROADMAP item 6 drops it."""

    def stats(self) -> dict[str, int]:
        return {"hits": 0, "misses": 0}


def warm_pool_registry() -> _NoPools:
    return _NoPools()
