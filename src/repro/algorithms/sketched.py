"""Sketched (landmark-column) approximate selectors — O(k·n·m) picks.

The exact incremental selectors (marginal greedy, MMR, GMC) read one
full distance row per pick; under any full-matrix storage that is the
O(n²) scoring wall.  The selectors here *are* those loops, run over the
kernel's :meth:`~repro.engine.kernel.ScoringKernel.sketch` — m exact
landmark distance columns, m ≪ n — which answers each row read with the
sketch's triangle-inequality **lower-bound row**
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

from ..core.objectives import Objective
from .greedy import select_greedy_marginal_max_sum, select_greedy_max_min
from .mmr import select_mmr
from .substrate import ApproxCertificate, SelectionResult

if TYPE_CHECKING:
    from ..engine.kernel import ScoringKernel

__all__ = [
    "select_sketched_marginal_max_sum",
    "select_sketched_mmr",
    "select_sketched_max_min",
    "certified_result",
]


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
    """Marginal-gain greedy for F_MS over sketch lower bounds."""
    indices = select_greedy_marginal_max_sum(kernel, objective, k, rows=kernel.sketch())
    return certified_result(kernel, objective, indices)


def select_sketched_mmr(
    kernel: "ScoringKernel",
    objective: Objective,
    k: int,
    lam: float | None = None,
) -> SelectionResult | None:
    """MMR over sketch lower bounds (novelty = bounded min distance)."""
    indices = select_mmr(kernel, objective, k, lam, rows=kernel.sketch())
    return certified_result(kernel, objective, indices)


def select_sketched_max_min(
    kernel: "ScoringKernel", objective: Objective, k: int
) -> SelectionResult | None:
    """GMC-style greedy for F_MM over sketch lower bounds."""
    indices = select_greedy_max_min(kernel, objective, k, rows=kernel.sketch())
    return certified_result(kernel, objective, indices)
