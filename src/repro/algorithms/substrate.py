"""The kernel-native selection substrate.

Every algorithm in :mod:`repro.algorithms` is an *index-based selector*

    select_<name>(kernel, objective, k, ...) -> list[int] | None

over a :class:`~repro.engine.kernel.ScoringKernel`: it reads the
precomputed relevance vector / distance matrix and returns snapshot
indices (None when no size-k selection exists).  Rows only re-enter at
the edges — the legacy row-returning signatures
(``greedy_max_sum(instance, kernel=None)`` etc.) are thin adapters that
:func:`ensure_kernel` and wrap the selector's indices back into
``(F(U), rows)`` via :func:`selection_result`.

There is deliberately no non-kernel scoring loop left anywhere: the
pure-Python kernel backend *is* the no-NumPy path, so one loop per
algorithm serves both backends and every caller (engine, facade, CLI).

Selectors declare nothing about which distances they read: the kernel
allocates its distance storage on the first distance read
(:meth:`~repro.engine.kernel.ScoringKernel.distance_between` and every
other distance accessor), so a selection that reads none — modular
top-k, any F_MS at λ = 0 — never allocates it.  On tiled storage a
selection that reads a few rows also builds only the tiles they touch.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..relational.schema import Row

if TYPE_CHECKING:
    from ..core.instance import DiversificationInstance
    from ..core.objectives import Objective
    from ..engine.kernel import ScoringKernel

SearchResult = tuple[float, tuple[Row, ...]]


@dataclass(frozen=True)
class ApproxCertificate:
    """The recorded guarantee of one approximate selection.

    ``value`` is the **exact** objective value of the selected set
    (scored through the provider on the ≤ k chosen rows — the reported
    number is never an estimate); ``lower``/``upper`` bracket it by
    evaluating the same objective under the sketch's triangle-inequality
    lower/upper distance bounds, so ``lower <= value <= upper`` holds
    for every metric distance.  ``columns`` is the landmark count m and
    ``strategy`` the landmark-selection rule that produced the sketch.
    """

    lower: float
    value: float
    upper: float
    columns: int
    strategy: str

    def to_dict(self) -> dict:
        return {
            "lower": self.lower,
            "value": self.value,
            "upper": self.upper,
            "columns": self.columns,
            "strategy": self.strategy,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ApproxCertificate":
        return cls(
            lower=float(data["lower"]),
            value=float(data["value"]),
            upper=float(data["upper"]),
            columns=int(data["columns"]),
            strategy=str(data["strategy"]),
        )


@dataclass(frozen=True)
class SelectionResult:
    """A selection with full provenance: exact value, rows, snapshot
    indices, and — for approximate (sketched/streamed) selectors — the
    :class:`ApproxCertificate` bracketing the value they optimized.

    Exact selectors keep returning bare index lists; this richer shape
    is produced where the certificate exists and by
    :func:`rich_selection_result` at the adapter edges.
    """

    value: float
    rows: tuple[Row, ...]
    indices: tuple[int, ...]
    certificate: "ApproxCertificate | None" = None

    @property
    def legacy(self) -> SearchResult:
        """The historical ``(F(U), rows)`` pair."""
        return (self.value, self.rows)


def ensure_kernel(
    instance: "DiversificationInstance",
    kernel: "ScoringKernel | None",
) -> "ScoringKernel":
    """The kernel an adapter runs on: the caller's (identity-checked)
    or a fresh per-call build.

    A fresh build is deliberate — batch callers that want kernel reuse
    go through :class:`~repro.engine.engine.DiversificationEngine`,
    whose LRU cache hands the same kernel back; the legacy signatures
    stay honest one-shot costs (and the engine benchmark's "direct"
    column stays meaningful).
    """
    if kernel is None:
        # Imported lazily: repro.engine.engine imports the algorithm
        # modules, so a module-level import here would be circular.
        from ..engine.kernel import kernel_for_instance

        return kernel_for_instance(instance)
    kernel.ensure_matches(instance)
    return kernel


def selection_result(
    kernel: "ScoringKernel",
    objective: "Objective",
    indices: Sequence[int] | None,
) -> SearchResult | None:
    """Fold selector indices back into the legacy ``(F(U), rows)`` shape."""
    if indices is None:
        return None
    return (
        kernel.value(indices, objective),
        tuple(kernel.answers[i] for i in indices),
    )
