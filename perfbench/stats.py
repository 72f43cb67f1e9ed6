"""The tail-latency rule shared by the runner and the benchmark's tests."""

from __future__ import annotations

import statistics
from collections.abc import Sequence

#: Samples a reported tail percentile must leave beyond it.
TAIL_BEYOND = 10


def tail(samples: Sequence[float], beyond: int = TAIL_BEYOND) -> tuple[float, float]:
    """The highest percentile with at least ``beyond`` samples above it.

    Returns ``(value, percentile)``: with n samples sorted ascending the
    value is the ``(n - beyond)``-th one (nearest rank), which leaves
    exactly ``beyond`` samples beyond it, at percentile
    ``100 * (n - beyond) / n``.  With ``beyond`` or fewer samples no
    percentile qualifies and the median is returned at percentile 50.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    if n <= beyond:
        return statistics.median(ordered), 50.0
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n
