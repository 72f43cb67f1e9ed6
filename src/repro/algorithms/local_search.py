"""Swap-based local search for diversification objectives.

Starts from any candidate set (by default a greedy/MMR seed) and
repeatedly applies the best improving single-tuple swap until a local
optimum is reached.  Handles all three objectives and, unlike the greedy
heuristics, also respects compatibility constraints (a swap is admitted
only if the resulting set still satisfies Σ — the natural heuristic for
the constrained cases the paper proves hard, Theorem 9.3).

:func:`select_local_search` is the index-based selector: trial values
during the swap scan come from the kernel's cached distance matrix (one
memoized item-score list for modular objectives).  Constraints are the
one place rows re-enter mid-selection — ``Σ`` predicates are defined
over tuples, so trial sets are mapped back through ``kernel.answers``
for the satisfaction check.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

from ..core.instance import DiversificationInstance
from ..core.objectives import Objective
from ..relational.schema import Row
from .substrate import SearchResult, ensure_kernel, selection_result

if TYPE_CHECKING:
    from ..core.constraints import ConstraintSet
    from ..engine.kernel import ScoringKernel

__all__ = ["local_search", "select_local_search"]


def select_local_search(
    kernel: "ScoringKernel",
    objective: Objective,
    seed_indices: Sequence[int],
    constraints: "ConstraintSet | None" = None,
    max_rounds: int = 1000,
) -> list[int]:
    """Best-improvement local search over single-index swaps.

    ``seed_indices`` is the starting selection (the adapter validates it
    as a candidate set); the result is a local optimum: no single swap
    improves F while keeping Σ satisfied.
    """
    answers = kernel.answers
    constrained = constraints is not None and len(constraints) > 0
    current = list(seed_indices)
    current_value = kernel.value(current, objective)

    for _ in range(max_rounds):
        best_swap: tuple[int, int, float] | None = None
        chosen_set = set(current)
        # Value-based skip: a swap may not introduce a row equal to a
        # current member (candidate sets are value-distinct), even when
        # duplicated answer positions exist.
        chosen_rows = {answers[i] for i in current}
        for position in range(len(current)):
            for new in range(kernel.n):
                if new in chosen_set or answers[new] in chosen_rows:
                    continue
                trial = list(current)
                trial[position] = new
                if constrained and not constraints.satisfied_by(
                    [answers[i] for i in trial]
                ):
                    continue
                value = kernel.value(trial, objective)
                if value > current_value + 1e-12 and (
                    best_swap is None or value > best_swap[2]
                ):
                    best_swap = (position, new, value)
        if best_swap is None:
            break
        position, new, value = best_swap
        current[position] = new
        current_value = value
    return current


def local_search(
    instance: DiversificationInstance,
    seed: Sequence[Row] | None = None,
    max_rounds: int = 1000,
    kernel: "ScoringKernel | None" = None,
) -> SearchResult | None:
    """Row-based adapter for :func:`select_local_search`.

    ``seed`` defaults to the first candidate set found (constraint-aware).
    Returns None when no candidate set exists.
    """
    kernel = ensure_kernel(instance, kernel)
    if kernel.n < instance.k:
        return None
    if seed is None:
        seed = _initial_set(instance)
        if seed is None:
            return None
    seed_rows = list(seed)
    if not instance.is_candidate_set(seed_rows):
        raise ValueError("seed is not a candidate set for the instance")
    indices = select_local_search(
        kernel,
        instance.objective,
        [kernel.index_of(row) for row in seed_rows],
        instance.constraints,
        max_rounds,
    )
    return selection_result(kernel, instance.objective, indices)


def _initial_set(instance: DiversificationInstance) -> tuple[Row, ...] | None:
    """A constraint-satisfying starting point: first candidate set."""
    for subset in instance.candidate_sets():
        return subset
    return None
