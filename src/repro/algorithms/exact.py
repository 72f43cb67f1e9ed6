"""Exact optimizers for the diversification function problem.

``argmax_{U ⊆ Q(D), |U|=k, U|=Σ} F(U)``.  These are the (worst-case
exponential) oracles used to verify reductions, ground the QRD/DRP/RDC
solvers and measure heuristic quality.

* :func:`exhaustive_best` — plain enumeration; handles every objective
  and constraint set.
* :func:`branch_and_bound_max_sum` — for F_MS without constraints: an
  admissible upper bound prunes partial sets, typically exploring far
  fewer than C(n, k) nodes while returning the same optimum.
* :func:`best_modular` — the PTIME optimum for modular objectives
  (F_mono; F_MS with λ = 0): the k best item scores.

All three are index-based selectors over a
:class:`~repro.engine.kernel.ScoringKernel` (``select_*``): enumeration
reads precomputed arrays instead of re-invoking ``δ_rel``/``δ_dis`` per
candidate subset, and the branch-and-bound bound arrays are scaled
views of the kernel's relevance vector and distance matrix.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING

from ..core.instance import DiversificationInstance
from ..core.objectives import Objective, ObjectiveKind
from .substrate import SearchResult, ensure_kernel, selection_result

if TYPE_CHECKING:
    from ..core.constraints import ConstraintSet
    from ..engine.kernel import ScoringKernel

__all__ = [
    "exhaustive_best",
    "best_modular",
    "branch_and_bound_max_sum",
    "optimal_value",
    "select_exhaustive",
    "select_best_modular",
    "select_branch_and_bound_max_sum",
]


def select_exhaustive(
    kernel: "ScoringKernel",
    objective: Objective,
    k: int,
    constraints: "ConstraintSet | None" = None,
) -> list[int] | None:
    """The maximum-F candidate selection by enumeration, or None.

    Enumerates k-combinations of the kernel's distinct first-occurrence
    indices — the index-space image of
    ``DiversificationInstance.candidate_sets`` (value-distinct subsets,
    each visited once even under duplicated rows), in the same order, so
    ties resolve to the same selection.
    """
    check_constraints = constraints is not None and len(constraints) > 0
    best_value = -math.inf
    best: tuple[int, ...] | None = None
    for combo in itertools.combinations(kernel.distinct_indices(), k):
        if check_constraints and not constraints.satisfied_by(
            [kernel.answers[i] for i in combo]
        ):
            continue
        value = kernel.value(combo, objective)
        if best is None or value > best_value:
            best_value = value
            best = combo
    return None if best is None else list(best)


def exhaustive_best(
    instance: DiversificationInstance,
    kernel: "ScoringKernel | None" = None,
) -> SearchResult | None:
    """The maximum-F candidate set, or None if no candidate set exists."""
    kernel = ensure_kernel(instance, kernel)
    indices = select_exhaustive(
        kernel, instance.objective, instance.k, instance.constraints
    )
    return selection_result(kernel, instance.objective, indices)


def select_best_modular(
    kernel: "ScoringKernel", objective: Objective, k: int
) -> list[int] | None:
    """PTIME optimum for modular objectives: the k best item scores
    (Theorem 5.4), stable on ties.

    Ranks the distinct first-occurrence indices: a position-based top-k
    over a duplicate-bearing snapshot would return the same row several
    times — a multiset, not a candidate set — and overstate the optimum.
    """
    if not objective.is_modular:
        raise ValueError("best_modular requires a modular objective")
    candidates = kernel.distinct_indices()
    if len(candidates) < k:
        return None
    scores = kernel.item_scores(objective)
    return sorted(candidates, key=lambda i: scores[i], reverse=True)[:k]


def best_modular(
    instance: DiversificationInstance,
    kernel: "ScoringKernel | None" = None,
) -> SearchResult | None:
    """PTIME optimum for modular objectives (no constraints)."""
    if not instance.objective.is_modular:
        raise ValueError("best_modular requires a modular objective")
    if len(instance.constraints) > 0:
        raise ValueError("best_modular does not support constraints")
    kernel = ensure_kernel(instance, kernel)
    indices = select_best_modular(kernel, instance.objective, instance.k)
    return selection_result(kernel, instance.objective, indices)


def select_branch_and_bound_max_sum(
    kernel: "ScoringKernel", objective: Objective, k: int
) -> list[int] | None:
    """Exact F_MS optimum with admissible pruning (no constraints).

    Works on the expanded form

        F_MS(U) = Σ_{t∈U} (k−1)(1−λ)·δ_rel(t) + λ·Σ_{ordered pairs} δ_dis

    over scaled views of the kernel arrays: ``rel[i]`` carries the
    (k−1)(1−λ) relevance coefficient and ``dis[i][j]`` the ordered-pair
    contribution ``2λ·dist[i][j]`` of the unordered pair {i, j}.  The
    bound for a partial set P with ``m = k − |P|`` items missing adds,
    for the best possible completion: the m largest remaining relevance
    gains, each item's m largest possible cross distances, and the top
    intra-candidate distances — all over-approximations, so pruning
    never removes the optimum.
    """
    if objective.kind is not ObjectiveKind.MAX_SUM:
        raise ValueError("branch_and_bound_max_sum requires F_MS")
    # Candidate sets are value-distinct (U is a *set* of tuples), so the
    # search space is the distinct first-occurrence indices — a
    # position-based scan over a duplicate-bearing snapshot would
    # happily select the same high-relevance row k times at λ = 0.
    candidates = kernel.distinct_indices()
    n = len(candidates)
    if n < k:
        return None
    lam = objective.lam

    rel = [
        (k - 1) * (1.0 - lam) * kernel.relevance_of(i) if lam < 1.0 else 0.0
        for i in candidates
    ]
    if lam > 0.0:
        # Per-row accessor reads, not distance_rows(): no O(n²) list
        # copy of the whole matrix is made, and under lazy tiled
        # storage only the candidates' tile-rows are built — tile-rows
        # holding nothing but duplicate positions stay unbuilt (with an
        # all-distinct snapshot every tile-row is still touched).
        dis = []
        for i in candidates:
            row = kernel.copy_distance_row(i)
            dis.append([2.0 * lam * float(row[j]) for j in candidates])
    else:
        dis = [[0.0] * n for _ in range(n)]

    # Per-item optimistic bonus: relevance + the k−1 largest distances.
    bonus = []
    for i in range(n):
        top = sorted((dis[i][j] for j in range(n) if j != i), reverse=True)[: k - 1]
        bonus.append(rel[i] + sum(top))

    order = sorted(range(n), key=lambda i: bonus[i], reverse=True)

    best_value = -math.inf
    best_set: tuple[int, ...] = ()

    def upper_bound(chosen: list[int], value: float, start: int) -> float:
        missing = k - len(chosen)
        if missing == 0:
            return value
        # For each remaining candidate: optimistic gain if added =
        # relevance + distances to the chosen set + the (missing−1)
        # largest distances to other remaining candidates.
        gains = []
        remaining = order[start:]
        for i in remaining:
            gain = rel[i] + sum(dis[i][j] for j in chosen)
            if missing > 1:
                cross = sorted(
                    (dis[i][j] for j in remaining if j != i), reverse=True
                )[: missing - 1]
                gain += sum(cross)
            gains.append(gain)
        gains.sort(reverse=True)
        return value + sum(gains[:missing])

    def recurse(start: int, chosen: list[int], value: float) -> None:
        nonlocal best_value, best_set
        if len(chosen) == k:
            if value > best_value:
                best_value = value
                best_set = tuple(chosen)
            return
        remaining_slots = k - len(chosen)
        for idx in range(start, n - remaining_slots + 1):
            i = order[idx]
            gain = rel[i] + sum(dis[i][j] for j in chosen)
            new_value = value + gain
            chosen.append(i)
            if upper_bound(chosen, new_value, idx + 1) > best_value:
                recurse(idx + 1, chosen, new_value)
            chosen.pop()

    recurse(0, [], 0.0)
    if best_value == -math.inf:
        return None
    return [candidates[i] for i in best_set]


def branch_and_bound_max_sum(
    instance: DiversificationInstance,
    kernel: "ScoringKernel | None" = None,
) -> SearchResult | None:
    """Row-based adapter for :func:`select_branch_and_bound_max_sum`."""
    if instance.objective.kind is not ObjectiveKind.MAX_SUM:
        raise ValueError("branch_and_bound_max_sum requires F_MS")
    if len(instance.constraints) > 0:
        raise ValueError("branch and bound does not support constraints")
    kernel = ensure_kernel(instance, kernel)
    indices = select_branch_and_bound_max_sum(kernel, instance.objective, instance.k)
    return selection_result(kernel, instance.objective, indices)


def optimal_value(
    instance: DiversificationInstance,
    kernel: "ScoringKernel | None" = None,
) -> float | None:
    """max F over candidate sets (auto-dispatching), or None if none."""
    kernel = ensure_kernel(instance, kernel)
    if len(instance.constraints) == 0:
        if instance.objective.is_modular:
            result = best_modular(instance, kernel)
            return None if result is None else result[0]
        if instance.objective.kind is ObjectiveKind.MAX_SUM:
            result = branch_and_bound_max_sum(instance, kernel)
            return None if result is None else result[0]
    result = exhaustive_best(instance, kernel)
    return None if result is None else result[0]
