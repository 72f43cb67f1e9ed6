"""Relevance and distance functions (Section 3.1).

The paper treats ``δ_rel(·,·)`` and ``δ_dis(·,·)`` as generic PTIME
computable functions:

* ``δ_rel(t, Q)`` — a non-negative real, larger = more relevant;
* ``δ_dis(t, s)`` — a non-negative real, symmetric, with
  ``δ_dis(t, t) = 0``; larger = more diverse.

:class:`RelevanceFunction` and :class:`DistanceFunction` wrap arbitrary
callables and enforce/provide those properties, plus a small library of
constructors covering everything the proofs and the workloads need
(constant functions, table-driven gadget functions, attribute-based
similarity).
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Mapping, Sequence
from typing import Any

from ..relational.queries import Query
from ..relational.schema import Row


class FunctionPropertyError(ValueError):
    """Raised when a relevance/distance function violates its contract."""


def _check_non_negative(value: float, what: str) -> float:
    value = float(value)
    if value < 0 or math.isnan(value):
        raise FunctionPropertyError(f"{what} must be a non-negative real, got {value}")
    return value


# -- picklable scoring kernels ---------------------------------------------
#
# The constructor library's kernels are module-level callable classes,
# not closures, so every constructed function — and any provider
# carrying one — stays picklable; the float behavior is op-for-op
# identical to the lambdas they replaced.


class _ConstantValue:
    """A constant kernel, usable at either arity (δ_rel or δ_dis)."""

    __slots__ = ("value",)

    def __init__(self, value: float):
        self.value = value

    def __call__(self, *args: Any) -> float:
        return self.value


class _TableRelevance:
    """Table-driven δ_rel keyed on the tuple's values."""

    __slots__ = ("frozen", "default")

    def __init__(self, frozen: dict[tuple[Any, ...], float], default: float):
        self.frozen = frozen
        self.default = default

    def __call__(self, row: Row, query: Query | None) -> float:
        return self.frozen.get(row.values, self.default)


class _AttributeRelevance:
    """δ_rel read directly from a numeric attribute."""

    __slots__ = ("attribute", "default")

    def __init__(self, attribute: str, default: float):
        self.attribute = attribute
        self.default = default

    def __call__(self, row: Row, query: Query | None) -> float:
        if not row.schema.has_attribute(self.attribute):
            return self.default
        value = row[self.attribute]
        return float(value) if isinstance(value, (int, float)) else self.default


class _CallableAdapter:
    """Adapt a ``(row,)`` or ``(row, query)`` callable to the canonical
    two-argument δ_rel arity (picklable iff the wrapped callable is)."""

    __slots__ = ("func",)

    def __init__(self, func: Callable[..., float]):
        self.func = func

    def __call__(self, row: Row, query: Query | None) -> float:
        try:
            return self.func(row, query)
        except TypeError:
            return self.func(row)


class _TableDistance:
    """Table-driven δ_dis keyed on unordered value pairs."""

    __slots__ = ("frozen", "default")

    def __init__(
        self,
        frozen: dict[tuple[tuple[Any, ...], tuple[Any, ...]], float],
        default: float,
    ):
        self.frozen = frozen
        self.default = default

    def __call__(self, left: Row, right: Row) -> float:
        key = (left.values, right.values)
        if key in self.frozen:
            return self.frozen[key]
        return self.frozen.get((right.values, left.values), self.default)


class _AttributeMismatch:
    """Count of attributes on which two tuples differ."""

    __slots__ = ("attributes",)

    def __init__(self, attributes: tuple[str, ...] | None):
        self.attributes = attributes

    def __call__(self, left: Row, right: Row) -> float:
        attrs: Iterable[str]
        if self.attributes is None:
            attrs = [
                a for a in left.schema.attributes if right.schema.has_attribute(a)
            ]
        else:
            attrs = self.attributes
        return float(sum(1 for a in attrs if left[a] != right[a]))


class _NumericGap:
    """``scale * |left.attr − right.attr|`` for a numeric attribute."""

    __slots__ = ("attribute", "scale")

    def __init__(self, attribute: str, scale: float):
        self.attribute = attribute
        self.scale = scale

    def __call__(self, left: Row, right: Row) -> float:
        return self.scale * abs(float(left[self.attribute]) - float(right[self.attribute]))


class RelevanceFunction:
    """Wraps ``δ_rel``: a map (tuple, query) → non-negative real."""

    def __init__(self, func: Callable[[Row, Query | None], float], name: str = "δ_rel"):
        self._func = func
        self.name = name

    def __call__(self, row: Row, query: Query | None = None) -> float:
        return _check_non_negative(self._func(row, query), self.name)

    def __repr__(self) -> str:
        return f"RelevanceFunction({self.name})"

    # -- constructors ---------------------------------------------------

    @classmethod
    def constant(cls, value: float = 1.0) -> "RelevanceFunction":
        """The constant relevance used throughout the lower-bound proofs."""
        value = _check_non_negative(value, "constant relevance")
        return cls(_ConstantValue(value), name=f"const({value})")

    @classmethod
    def from_table(
        cls,
        table: Mapping[tuple[Any, ...], float],
        default: float = 0.0,
    ) -> "RelevanceFunction":
        """Table-driven relevance keyed on the tuple's values.

        This is how the reductions define δ_rel for specific gadget
        tuples (e.g. ``δ_rel((s,1), Q') = 1`` in Theorem 5.1).
        """
        frozen = {tuple(k): float(v) for k, v in table.items()}
        return cls(_TableRelevance(frozen, default), name="table")

    @classmethod
    def from_attribute(cls, attribute: str, default: float = 0.0) -> "RelevanceFunction":
        """Read relevance directly from a numeric attribute of the tuple."""
        return cls(_AttributeRelevance(attribute, default), name=f"attr({attribute})")

    @classmethod
    def from_callable(
        cls, func: Callable[..., float], name: str = "custom"
    ) -> "RelevanceFunction":
        """Wrap a callable taking (row,) or (row, query)."""
        return cls(_CallableAdapter(func), name=name)


class DistanceFunction:
    """Wraps ``δ_dis``: symmetric, zero on the diagonal, non-negative.

    Symmetry and the zero diagonal are *enforced* at call time: the
    wrapper returns 0 for identical tuples and evaluates pairs in a
    canonical order so any asymmetric callable is symmetrized.
    """

    def __init__(
        self,
        func: Callable[[Row, Row], float],
        name: str = "δ_dis",
        symmetrize: bool = True,
    ):
        self._func = func
        self.name = name
        self._symmetrize = symmetrize

    def __call__(self, left: Row, right: Row) -> float:
        if left.values == right.values:
            return 0.0
        if self._symmetrize and right.values < left.values:
            left, right = right, left
        return _check_non_negative(self._func(left, right), self.name)

    def __repr__(self) -> str:
        return f"DistanceFunction({self.name})"

    # -- constructors ---------------------------------------------------

    @classmethod
    def constant(cls, value: float = 0.0) -> "DistanceFunction":
        """Constant distance between any two *distinct* tuples.

        ``DistanceFunction.constant(0)`` is the "δ_dis absent" function
        of the λ = 0 special cases (Theorem 8.2).
        """
        value = _check_non_negative(value, "constant distance")
        return cls(_ConstantValue(value), name=f"const({value})")

    @classmethod
    def from_table(
        cls,
        table: Mapping[tuple[tuple[Any, ...], tuple[Any, ...]], float],
        default: float = 0.0,
    ) -> "DistanceFunction":
        """Table-driven distance keyed on unordered value pairs.

        Keys may be given in either order; lookups try both.
        """
        frozen: dict[tuple[tuple[Any, ...], tuple[Any, ...]], float] = {}
        for (a, b), v in table.items():
            frozen[(tuple(a), tuple(b))] = float(v)
        return cls(_TableDistance(frozen, default), name="table", symmetrize=False)

    @classmethod
    def attribute_mismatch(
        cls, attributes: Sequence[str] | None = None
    ) -> "DistanceFunction":
        """Number of attributes on which the two tuples differ.

        With ``attributes=None`` all shared attributes are compared.
        This is the "difference between their types" style distance of
        Example 3.1.
        """
        attrs = None if attributes is None else tuple(attributes)
        label = "all" if attributes is None else ",".join(attributes)
        return cls(_AttributeMismatch(attrs), name=f"mismatch({label})")

    @classmethod
    def numeric_gap(cls, attribute: str, scale: float = 1.0) -> "DistanceFunction":
        """``scale * |left.attr − right.attr|`` for a numeric attribute."""
        return cls(_NumericGap(attribute, scale), name=f"gap({attribute})")

    @classmethod
    def from_callable(
        cls, func: Callable[[Row, Row], float], name: str = "custom"
    ) -> "DistanceFunction":
        return cls(func, name=name)


def pairwise_distance_sum(rows: Sequence[Row], distance: DistanceFunction) -> float:
    """``Σ_{t,t'∈U} δ_dis(t,t')`` over **ordered** pairs of distinct rows.

    The paper's F_MS sums over ordered pairs: l pairwise-distance-1
    tuples give l(l−1), which is the bound B used in the 3SAT reduction
    (Theorem 5.1).
    """
    rows = list(rows)
    total = 0.0
    for i, left in enumerate(rows):
        for right in rows[i + 1 :]:
            total += distance(left, right)
    return 2.0 * total


def min_pairwise_distance(rows: Sequence[Row], distance: DistanceFunction) -> float:
    """``min_{t≠t'∈U} δ_dis``; 0 by convention when |U| < 2."""
    rows = list(rows)
    if len(rows) < 2:
        return 0.0
    best = math.inf
    for i, left in enumerate(rows):
        for right in rows[i + 1 :]:
            value = distance(left, right)
            if value < best:
                best = value
    return best
