"""TTL result cache: the layer in front of the engine's kernel LRU.

The kernel LRU (:class:`~repro.engine.engine.DiversificationEngine`)
deduplicates the O(n²) *precomputation*; identical requests still re-run
the selector on every hit.  The serving layer adds this second layer so
a repeated ``(tenant, workload, k, λ, algorithm)`` request within the
TTL window is answered without touching the engine at all — the cache
stores whole :class:`~repro.api.DiversifyResponse` objects keyed on
:meth:`~repro.api.DiversifyRequest.key`.

The clock is injectable (default :func:`time.monotonic`) so expiry is
deterministic under test, and every lookup lands in exactly one stats
bucket (``hits`` / ``misses``, with ``expired`` counting the misses
caused by TTL lapse) — the counters surface verbatim in ``/stats``.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from collections.abc import Callable, Hashable
from dataclasses import dataclass
from typing import Any


@dataclass
class ResultCacheStats:
    """TTL-cache counters (mutated in place; reported by ``/stats``).

    ``hits + misses`` is the lookup count; ``expired`` is the subset of
    misses where a stored entry existed but had outlived the TTL, and
    ``evictions`` counts capacity displacements (LRU order).
    """

    hits: int = 0
    misses: int = 0
    expired: int = 0
    evictions: int = 0
    stores: int = 0
    invalidations: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.lookups
        return self.hits / total if total else 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "expired": self.expired,
            "evictions": self.evictions,
            "stores": self.stores,
            "invalidations": self.invalidations,
            "lookups": self.lookups,
            "hit_rate": round(self.hit_rate, 4),
        }


class TTLCache:
    """A bounded mapping whose entries expire ``ttl`` seconds after the
    store.  ``ttl <= 0`` disables the cache entirely (every lookup is a
    miss, stores are dropped) — the serving layer's no-cache baseline.
    """

    def __init__(
        self,
        ttl: float,
        max_entries: int = 256,
        clock: Callable[[], float] = time.monotonic,
    ):
        if max_entries < 0:
            raise ValueError(f"max_entries must be >= 0, got {max_entries}")
        self.ttl = float(ttl)
        self.max_entries = max_entries
        self._clock = clock
        self._entries: OrderedDict[Hashable, tuple[float, Any]] = OrderedDict()
        self.stats = ResultCacheStats()

    @property
    def enabled(self) -> bool:
        return self.ttl > 0.0 and self.max_entries > 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable, default: Any = None) -> Any:
        if not self.enabled:
            self.stats.misses += 1
            return default
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return default
        deadline, value = entry
        if self._clock() >= deadline:
            del self._entries[key]
            self.stats.expired += 1
            self.stats.misses += 1
            return default
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return value

    def put(self, key: Hashable, value: Any) -> None:
        if not self.enabled:
            return
        self._entries[key] = (self._clock() + self.ttl, value)
        self._entries.move_to_end(key)
        self.stats.stores += 1
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def invalidate(
        self, predicate: Callable[[Hashable], bool] | None = None
    ) -> int:
        """Drop entries whose key satisfies ``predicate`` (all entries
        when None) and return how many were dropped.  The delta endpoint
        uses this to evict a mutated workload's results eagerly instead
        of waiting out the TTL."""
        if predicate is None:
            dropped = len(self._entries)
            self._entries.clear()
        else:
            doomed = [key for key in self._entries if predicate(key)]
            for key in doomed:
                del self._entries[key]
            dropped = len(doomed)
        self.stats.invalidations += dropped
        return dropped
