"""Maximal Marginal Relevance (Carbonell & Goldstein 1998).

The most widely deployed diversification heuristic, included as the
practical baseline the paper's related-work section situates itself
against.  MMR incrementally selects

    argmax_t  (1−λ)·δ_rel(t, Q)  +  λ·min_{s∈chosen} δ_dis(t, s)

(with the first pick by pure relevance).  MMR carries no approximation
guarantee for F_MS/F_MM but is fast — the benchmarks measure the quality
gap against the exact optimizers.

:func:`select_mmr` is the index-based selector over a
:class:`~repro.engine.kernel.ScoringKernel` (the per-candidate novelty
minimum is one vector update per selection); :func:`mmr_select` is the
row-based adapter.  :func:`~repro.algorithms.sketched.select_sketched_mmr`
runs the same loop over the kernel's landmark sketch.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..core.instance import DiversificationInstance
from ..core.objectives import Objective
from .substrate import SearchResult, ensure_kernel, selection_result

if TYPE_CHECKING:
    from ..engine.kernel import ScoringKernel

__all__ = ["mmr_select", "select_mmr"]


def select_mmr(
    kernel: "ScoringKernel",
    objective: Objective,
    k: int,
    lam: float | None = None,
    *,
    rows=None,
) -> list[int] | None:
    """MMR as an index selector; ``lam`` defaults to the objective's λ.
    ``rows`` answers the distance-row reads (``copy_distance_row`` /
    ``minimum_inplace``); the kernel by default."""
    if kernel.n < k:
        return None
    trade_off = objective.lam if lam is None else lam
    if not 0.0 <= trade_off <= 1.0:
        raise ValueError(f"λ must be in [0,1], got {trade_off}")
    rows = kernel if rows is None else rows
    first = kernel.argmax(kernel.relevance_scores())
    chosen = [first]
    excluded = {first}
    novelty = rows.copy_distance_row(first)
    scratch = kernel.zeros_vector()  # reused per round; scored in place
    while len(chosen) < k:
        scores = kernel.affine_scores(1.0 - trade_off, trade_off, novelty, out=scratch)
        nxt = kernel.argmax(scores, excluded=excluded)
        chosen.append(nxt)
        excluded.add(nxt)
        rows.minimum_inplace(novelty, nxt)
    return chosen


def mmr_select(
    instance: DiversificationInstance,
    lam: float | None = None,
    kernel: "ScoringKernel | None" = None,
) -> SearchResult | None:
    """Select k tuples by MMR; ``lam`` defaults to the objective's λ.

    Returns (F(U), U) where F is the instance's own objective — so the
    score is directly comparable with the exact optimum.
    """
    kernel = ensure_kernel(instance, kernel)
    indices = select_mmr(kernel, instance.objective, instance.k, lam)
    return selection_result(kernel, instance.objective, indices)
