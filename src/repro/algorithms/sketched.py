"""Sketched (landmark-column) approximate selectors — O(k·n·m) picks.

The exact incremental selectors (marginal greedy, MMR, GMC) read one
full distance row per pick; under any full-matrix storage that is the
O(n²) scoring wall.  These variants run the *same selection loops* over
the kernel's :meth:`~repro.engine.kernel.ScoringKernel.sketch` — m
exact landmark distance columns, m ≪ n — substituting each row read
with the sketch's triangle-inequality **lower-bound row**
(`max_l |C[i][l] − C[j][l]|`).  The lower bound is an admissible
surrogate: F_MS/F_MM are monotone non-decreasing in distances, so
greedily maximizing the bounded objective chases a certified
underestimate of every candidate's true gain.

Every selector here returns a rich
:class:`~repro.algorithms.substrate.SelectionResult` whose ``value`` is
the **exact** objective value of the chosen set (rescored through the
provider at O(k²)) and whose :class:`ApproxCertificate` records the
sketch's lower/upper bound evaluations around it — the quality evidence
the serving layer and benchmarks surface.  Nothing here is ever invoked
unless the caller opted into approximation (``EngineConfig.approx`` /
``--approx``); exact paths never route through this module.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..core.objectives import Objective, ObjectiveKind
from .substrate import ApproxCertificate, SelectionResult

if TYPE_CHECKING:
    from ..engine.kernel import ScoringKernel

try:
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI cells
    _np = None

__all__ = [
    "select_sketched_marginal_max_sum",
    "select_sketched_mmr",
    "select_sketched_max_min",
    "certified_result",
]


def _add_inplace(kernel: "ScoringKernel", vec, row):
    """``vec += row`` for backend-native float64 vectors."""
    if kernel.backend == "numpy":
        vec += row
        return vec
    for j in range(kernel.n):
        vec[j] = vec[j] + row[j]
    return vec


def _min_inplace(kernel: "ScoringKernel", vec, row):
    """``vec = min(vec, row)`` for backend-native float64 vectors."""
    if kernel.backend == "numpy":
        _np.minimum(vec, row, out=vec)
        return vec
    for j in range(kernel.n):
        if row[j] < vec[j]:
            vec[j] = row[j]
    return vec


def certified_result(
    kernel: "ScoringKernel",
    objective: Objective,
    indices: list[int] | None,
) -> SelectionResult | None:
    """Fold sketched-selector indices into a :class:`SelectionResult`
    carrying the exact value and its sketch-bound certificate."""
    if indices is None:
        return None
    sketch = kernel.sketch()
    value = kernel.selected_value(indices, objective)
    return SelectionResult(
        value=value,
        rows=tuple(kernel.answers[i] for i in indices),
        indices=tuple(indices),
        certificate=ApproxCertificate(
            lower=kernel.sketch_value(indices, objective, "lower"),
            value=value,
            upper=kernel.sketch_value(indices, objective, "upper"),
            columns=sketch.columns,
            strategy=sketch.strategy,
        ),
    )


def select_sketched_marginal_max_sum(
    kernel: "ScoringKernel", objective: Objective, k: int
) -> SelectionResult | None:
    """Marginal-gain greedy for F_MS over sketch lower bounds.

    The loop is :func:`~repro.algorithms.greedy.select_greedy_marginal_max_sum`
    verbatim, with ``add_row_inplace`` replaced by the sketch's
    lower-bound row — so no full distance row is ever materialized.
    """
    if objective.kind is not ObjectiveKind.MAX_SUM:
        raise ValueError("sketched_marginal_max_sum requires F_MS")
    if kernel.n < k:
        return None
    lam = objective.lam
    sketch = kernel.sketch() if lam > 0.0 else None
    rel_coef = (k - 1) * (1.0 - lam)
    dist_coef = 2.0 * lam
    chosen: list[int] = []
    excluded: set[int] = set()
    sum_dist = kernel.zeros_vector()
    scratch = kernel.zeros_vector()
    while len(chosen) < k:
        gains = kernel.affine_scores(rel_coef, dist_coef, sum_dist, out=scratch)
        nxt = kernel.argmax(gains, excluded=excluded)
        chosen.append(nxt)
        excluded.add(nxt)
        if lam > 0.0:
            _add_inplace(kernel, sum_dist, sketch.lower_bound_row(nxt))
    return certified_result(kernel, objective, chosen)


def select_sketched_mmr(
    kernel: "ScoringKernel",
    objective: Objective,
    k: int,
    lam: float | None = None,
) -> SelectionResult | None:
    """MMR over sketch lower bounds (novelty = bounded min distance)."""
    if kernel.n < k:
        return None
    trade_off = objective.lam if lam is None else lam
    if not 0.0 <= trade_off <= 1.0:
        raise ValueError(f"λ must be in [0,1], got {trade_off}")
    sketch = kernel.sketch()
    first = kernel.argmax(kernel.relevance_scores())
    chosen = [first]
    excluded = {first}
    novelty = sketch.lower_bound_row(first)
    scratch = kernel.zeros_vector()
    while len(chosen) < k:
        scores = kernel.affine_scores(
            1.0 - trade_off, trade_off, novelty, out=scratch
        )
        nxt = kernel.argmax(scores, excluded=excluded)
        chosen.append(nxt)
        excluded.add(nxt)
        _min_inplace(kernel, novelty, sketch.lower_bound_row(nxt))
    return certified_result(kernel, objective, chosen)


def select_sketched_max_min(
    kernel: "ScoringKernel", objective: Objective, k: int
) -> SelectionResult | None:
    """GMC-style greedy for F_MM over sketch lower bounds."""
    if objective.kind is not ObjectiveKind.MAX_MIN:
        raise ValueError("sketched_max_min requires F_MM")
    if kernel.n < k:
        return None
    lam = objective.lam
    sketch = kernel.sketch()
    seed = kernel.argmax(kernel.relevance_scores()) if lam < 1.0 else 0
    chosen = [seed]
    excluded = {seed}
    min_dist = sketch.lower_bound_row(seed)
    scratch = kernel.zeros_vector()
    while len(chosen) < k:
        scores = kernel.affine_scores(1.0 - lam, lam, min_dist, out=scratch)
        nxt = kernel.argmax(scores, excluded=excluded)
        chosen.append(nxt)
        excluded.add(nxt)
        _min_inplace(kernel, min_dist, sketch.lower_bound_row(nxt))
    return certified_result(kernel, objective, chosen)
