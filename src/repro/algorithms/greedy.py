"""Greedy heuristics for max-sum and max-min diversification.

The paper's conclusion (Section 10) calls for heuristic/approximation
algorithms for the intractable cases; for identity queries these
problems are the (Max-Sum / Max-Min) *Dispersion* problems of operations
research (Prokopyev et al. 2009), for which classic greedy algorithms
carry approximation guarantees:

* :func:`greedy_max_sum` — the pairwise greedy of Gollapudi & Sharma
  (via Hassin, Rubinstein & Tamir): repeatedly take the pair maximizing
  the marginal (relevance + distance) weight.  2-approximation for
  metric distances.
* :func:`greedy_max_min` — GMC-style: seed with the most relevant
  tuple, then repeatedly add the tuple maximizing the minimum combined
  score to the chosen set.  2-approximation for metric max-min
  dispersion (λ = 1).
* :func:`greedy_marginal_max_sum` — simple one-at-a-time marginal-gain
  greedy (the baseline most systems ship).

Each heuristic is an index-based selector over a
:class:`~repro.engine.kernel.ScoringKernel` (``select_*``); the
row-returning signatures are adapters that build — or accept — a kernel
and delegate, so there is exactly one scoring loop per rule.  The
one-at-a-time loops read distance rows from ``rows``, the kernel by
default; the approximate selectors of :mod:`repro.algorithms.sketched`
are these loops over the kernel's landmark sketch.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..core.instance import DiversificationInstance
from ..core.objectives import Objective, ObjectiveKind
from .substrate import SearchResult, ensure_kernel, selection_result

if TYPE_CHECKING:
    from ..engine.kernel import ScoringKernel

__all__ = [
    "greedy_max_sum",
    "greedy_max_min",
    "greedy_marginal_max_sum",
    "select_greedy_max_sum",
    "select_greedy_max_min",
    "select_greedy_marginal_max_sum",
]


def select_greedy_max_sum(
    kernel: "ScoringKernel", objective: Objective, k: int
) -> list[int] | None:
    """Pair-greedy 2-approximation for F_MS (Gollapudi & Sharma 2009).

    Picks ⌊k/2⌋ disjoint pairs of maximum dispersion-graph weight

        w(i, j) = (1−λ)(rel_i + rel_j) + (2λ/(k−1)) · dist[i][j]

    plus the most relevant remaining singleton when k is odd.  Returns
    None when the snapshot holds fewer than k rows.
    """
    if objective.kind is not ObjectiveKind.MAX_SUM:
        raise ValueError("greedy_max_sum requires F_MS")
    if kernel.n < k:
        return None
    if k == 1:
        return [kernel.argmax(kernel.relevance_scores())]
    chosen: list[int] = []
    available = list(range(kernel.n))
    while len(chosen) + 1 < k:
        i, j = kernel.best_pair(available, objective.lam, k)
        chosen.extend((i, j))
        available = [t for t in available if t != i and t != j]
    if len(chosen) < k:
        # k odd: add the best remaining singleton by relevance.
        chosen.append(kernel.argmax(kernel.relevance_scores(), within=available))
    return chosen


def greedy_max_sum(
    instance: DiversificationInstance,
    kernel: "ScoringKernel | None" = None,
) -> SearchResult | None:
    """Row-based adapter for :func:`select_greedy_max_sum`."""
    if instance.objective.kind is not ObjectiveKind.MAX_SUM:
        raise ValueError("greedy_max_sum requires F_MS")
    kernel = ensure_kernel(instance, kernel)
    indices = select_greedy_max_sum(kernel, instance.objective, instance.k)
    return selection_result(kernel, instance.objective, indices)


def select_greedy_max_min(
    kernel: "ScoringKernel", objective: Objective, k: int, *, rows=None
) -> list[int] | None:
    """Greedy 2-approximation for max-min dispersion, adapted to F_MM.

    Seeds with the most relevant row, then repeatedly adds the row ``i``
    maximizing ``(1−λ)·rel_i + λ·min_{s∈chosen} dist[i][s]``.  At λ = 1
    relevance is treated as 0.0 everywhere, so the seed degenerates to
    the first snapshot row.  ``rows`` answers the distance-row reads
    (``copy_distance_row`` / ``minimum_inplace``); the kernel by default.
    """
    if objective.kind is not ObjectiveKind.MAX_MIN:
        raise ValueError("greedy_max_min requires F_MM")
    if kernel.n < k:
        return None
    rows = kernel if rows is None else rows
    lam = objective.lam
    seed = kernel.argmax(kernel.relevance_scores()) if lam < 1.0 else 0
    chosen = [seed]
    excluded = {seed}
    min_dist = rows.copy_distance_row(seed)
    scratch = kernel.zeros_vector()  # reused per round; scored in place
    while len(chosen) < k:
        scores = kernel.affine_scores(1.0 - lam, lam, min_dist, out=scratch)
        nxt = kernel.argmax(scores, excluded=excluded)
        chosen.append(nxt)
        excluded.add(nxt)
        rows.minimum_inplace(min_dist, nxt)
    return chosen


def greedy_max_min(
    instance: DiversificationInstance,
    kernel: "ScoringKernel | None" = None,
) -> SearchResult | None:
    """Row-based adapter for :func:`select_greedy_max_min`."""
    if instance.objective.kind is not ObjectiveKind.MAX_MIN:
        raise ValueError("greedy_max_min requires F_MM")
    kernel = ensure_kernel(instance, kernel)
    indices = select_greedy_max_min(kernel, instance.objective, instance.k)
    return selection_result(kernel, instance.objective, indices)


def select_greedy_marginal_max_sum(
    kernel: "ScoringKernel", objective: Objective, k: int, *, rows=None
) -> list[int] | None:
    """One-at-a-time marginal-gain greedy for F_MS (baseline heuristic).

    Each round adds the row maximizing the marginal F_MS gain

        (k−1)(1−λ)·rel_i + 2λ·Σ_{s∈chosen} dist[i][s]

    ``rows`` answers the distance-row reads (``add_row_inplace``); the
    kernel by default.
    """
    if objective.kind is not ObjectiveKind.MAX_SUM:
        raise ValueError("greedy_marginal_max_sum requires F_MS")
    if kernel.n < k:
        return None
    rows = kernel if rows is None else rows
    lam = objective.lam
    rel_coef = (k - 1) * (1.0 - lam)
    dist_coef = 2.0 * lam
    chosen: list[int] = []
    excluded: set[int] = set()
    sum_dist = kernel.zeros_vector()
    scratch = kernel.zeros_vector()  # reused per round; scored in place
    while len(chosen) < k:
        gains = kernel.affine_scores(rel_coef, dist_coef, sum_dist, out=scratch)
        nxt = kernel.argmax(gains, excluded=excluded)
        chosen.append(nxt)
        excluded.add(nxt)
        if lam > 0.0:  # λ = 0 gains never read the distance matrix
            rows.add_row_inplace(sum_dist, nxt)
    return chosen


def greedy_marginal_max_sum(
    instance: DiversificationInstance,
    kernel: "ScoringKernel | None" = None,
) -> SearchResult | None:
    """Row-based adapter for :func:`select_greedy_marginal_max_sum`."""
    if instance.objective.kind is not ObjectiveKind.MAX_SUM:
        raise ValueError("greedy_marginal_max_sum requires F_MS")
    kernel = ensure_kernel(instance, kernel)
    indices = select_greedy_marginal_max_sum(kernel, instance.objective, instance.k)
    return selection_result(kernel, instance.objective, indices)
