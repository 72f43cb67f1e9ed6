"""Batch-native scoring providers: the vectorized ``δ_rel`` / ``δ_dis`` contract.

The paper treats relevance and distance as opaque PTIME *scalar*
functions, and the original kernel construction honored that literally:
``ScoringKernel`` invoked the Python callables n(n−1)/2 times to fill
the distance matrix.  Once every selection loop became kernel-native,
that interpreter-bound construction is the dominant cost at scale — the
barrier Capannini et al. and the big-data diversification literature
identify for large answer sets.

A :class:`ScoringProvider` turns the scoring contract batch-native:

* ``relevance_batch(rows, query) -> vector`` scores a whole row batch
  with one call, and
* ``distance_block(rows_a, rows_b) -> matrix`` scores a whole block of
  row pairs with one call,

so the kernel pays O(n²/B²) provider calls instead of O(n²) scalar
calls, and a vectorizing provider turns each block into a handful of
NumPy array operations.  Three layers are provided:

* :class:`ScalarCallableProvider` adapts any existing
  ``(RelevanceFunction, DistanceFunction)`` pair — the batch methods
  loop over the scalar callables, so every legacy objective keeps
  working unchanged (same floats, same call count);
* :class:`FeatureSpaceProvider` is the fast path: a workload exposes a
  per-row *feature vector* plus a named :class:`Metric`, and the whole
  block becomes one vectorized computation on the feature matrices;
* every provider *derives* scalar callables from itself
  (:meth:`ScoringProvider.relevance_function` /
  :meth:`ScoringProvider.distance_function`), so the scalar and batch
  views share one definition and can never drift.

Exactness contract (load-bearing for the kernel parity suites): a
provider's vectorized block must be **bit-for-bit equal** to its scalar
kernel — the bundled metrics are written op-for-op against their scalar
forms (correctly-rounded ``sqrt``, exact small-integer set arithmetic,
pure comparisons), so NumPy-backed and pure-Python kernels stay
element-wise identical.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from typing import TYPE_CHECKING, Any

from ..relational.schema import Row
from .functions import DistanceFunction, RelevanceFunction

if TYPE_CHECKING:
    from ..relational.queries import Query
    from .objectives import Objective, ObjectiveKind

try:
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI cell
    _np = None

__all__ = [
    "ProviderError",
    "ScoringProvider",
    "ScalarCallableProvider",
    "FeatureSpaceProvider",
    "Metric",
    "EuclideanMetric",
    "JaccardMetric",
    "HierarchyMetric",
    "MismatchMetric",
    "provider_for",
    "resolve_metric",
    "LANDMARK_STRATEGIES",
]

#: Recognized landmark-selection strategies for distance sketches.
LANDMARK_STRATEGIES = ("uniform", "relevance", "farthest")


class ProviderError(ValueError):
    """Raised on scoring-provider misuse (unknown metric, bad weights)."""


class ScoringProvider:
    """The batch-native scoring contract (protocol + default loops).

    Concrete providers implement the scalar kernels
    (:meth:`relevance_at`, :meth:`distance_at`) and may override the
    batch methods with vectorized implementations; the defaults here are
    scalar loops, so *any* provider — including the pure-Python kernel
    backend — routes through the same interface.

    Scalar-kernel contract (mirrors :class:`DistanceFunction`):
    ``distance_at`` is symmetric, non-negative, and returns exactly
    ``0.0`` for value-equal rows; ``relevance_at`` is non-negative.
    Batch methods must return the same floats the scalar kernels would
    (the provider property suite asserts exact equality).
    """

    name: str = "provider"

    def __init__(self) -> None:
        self._derived_relevance: RelevanceFunction | None = None
        self._derived_distance: DistanceFunction | None = None

    # -- scalar kernels ---------------------------------------------------

    def relevance_at(self, row: Row, query: "Query | None" = None) -> float:
        raise NotImplementedError

    def distance_at(self, left: Row, right: Row) -> float:
        raise NotImplementedError

    # -- batch methods ----------------------------------------------------

    def relevance_batch(
        self,
        rows: Sequence[Row],
        query: "Query | None" = None,
        use_numpy: bool = False,
    ):
        """``[δ_rel(t, Q) for t in rows]`` as one call.

        Returns a float list (or a float64 array when ``use_numpy``);
        either way the values equal per-row :meth:`relevance_at` calls.
        """
        values = [self.relevance_at(row, query) for row in rows]
        if use_numpy:
            return _np.asarray(values, dtype=_np.float64)
        return values

    def distance_block(
        self,
        rows_a: Sequence[Row],
        rows_b: Sequence[Row],
        use_numpy: bool = False,
    ):
        """The ``len(rows_a) × len(rows_b)`` distance block as one call.

        When ``rows_a is rows_b`` (a symmetric diagonal block) only the
        upper triangle is scored and mirrored — the same n(n−1)/2 call
        count the scalar construction paid.  Returns nested float lists
        (or a float64 array when ``use_numpy``).
        """
        if rows_a is rows_b:
            n = len(rows_a)
            block = [[0.0] * n for _ in range(n)]
            for i in range(n):
                left = rows_a[i]
                row_i = block[i]
                for j in range(i + 1, n):
                    value = self.distance_at(left, rows_a[j])
                    row_i[j] = value
                    block[j][i] = value
        else:
            block = [[self.distance_at(left, right) for right in rows_b] for left in rows_a]
        if use_numpy:
            return _np.asarray(block, dtype=_np.float64).reshape(len(rows_a), len(rows_b))
        return block

    # -- landmark sampling -------------------------------------------------

    def select_landmarks(
        self,
        rows: Sequence[Row],
        relevance: Sequence[float],
        m: int,
        strategy: str = "uniform",
        use_numpy: bool = False,
    ) -> list[int]:
        """``m`` landmark row positions for a distance sketch.

        The hook providers may override (e.g. a feature-space provider
        could cluster its feature matrix); the default implements the
        three named strategies, all deterministic (no RNG — repeated
        builds of the same snapshot pick the same landmarks):

        * ``uniform`` — evenly spaced snapshot positions;
        * ``relevance`` — evenly spaced *ranks* of the relevance
          ordering, so landmarks stratify the relevance range instead of
          the storage order;
        * ``farthest`` — greedy k-center: seed at the most relevant row,
          then repeatedly add the row farthest (by min distance) from
          the chosen set.  O(m·n) provider distance calls.
        """
        n = len(rows)
        if strategy not in LANDMARK_STRATEGIES:
            raise ProviderError(
                f"unknown landmark strategy {strategy!r}; choose one of "
                f"{LANDMARK_STRATEGIES}"
            )
        if m >= n:
            # Every row is a landmark: the sketch is exact regardless of
            # strategy, and tiny snapshots (n < 2) stay legal.
            return list(range(n))
        if m < 2:
            raise ProviderError(f"need at least 2 landmarks, got {m}")
        if strategy == "uniform":
            return [(i * n) // m for i in range(m)]
        if strategy == "relevance":
            ranked = sorted(range(n), key=lambda i: (-relevance[i], i))
            return sorted(ranked[(i * n) // m] for i in range(m))
        # farthest: greedy k-center, seeded at the most relevant row.
        seed = max(range(n), key=lambda i: (relevance[i], -i))
        chosen = [seed]
        column = self.distance_block(rows, [rows[seed]], use_numpy=use_numpy)
        if use_numpy:
            min_dist = _np.asarray(column, dtype=_np.float64).reshape(n)
        else:
            min_dist = [float(row[0]) for row in column]
        while len(chosen) < m:
            if use_numpy:
                nxt = int(_np.argmax(min_dist))
            else:
                nxt = max(range(n), key=lambda i: (min_dist[i], -i))
            chosen.append(nxt)
            column = self.distance_block(rows, [rows[nxt]], use_numpy=use_numpy)
            if use_numpy:
                _np.minimum(
                    min_dist,
                    _np.asarray(column, dtype=_np.float64).reshape(n),
                    out=min_dist,
                )
            else:
                for i, row in enumerate(column):
                    value = float(row[0])
                    if value < min_dist[i]:
                        min_dist[i] = value
        return chosen

    # -- derived scalar callables -----------------------------------------

    def relevance_function(self) -> RelevanceFunction:
        """``δ_rel`` as a :class:`RelevanceFunction` derived from this
        provider (cached, so the identity is stable — engine cache keys
        and ``ScoringKernel.matches`` rely on object identity)."""
        if self._derived_relevance is None:
            self._derived_relevance = RelevanceFunction(
                self.relevance_at, name=f"{self.name}.rel"
            )
        return self._derived_relevance

    def distance_function(self) -> DistanceFunction:
        """``δ_dis`` as a :class:`DistanceFunction` derived from this
        provider (cached; see :meth:`relevance_function`)."""
        if self._derived_distance is None:
            self._derived_distance = DistanceFunction(
                self.distance_at, name=f"{self.name}.dis", symmetrize=False
            )
        return self._derived_distance

    # -- objective construction -------------------------------------------

    def objective(self, kind: "ObjectiveKind", lam: float = 0.5) -> "Objective":
        """An :class:`Objective` of ``kind`` carrying this provider and
        its derived scalar callables."""
        from .objectives import Objective

        return Objective.from_provider(kind, self, lam=lam)

    def max_sum(self, lam: float = 0.5) -> "Objective":
        from .objectives import ObjectiveKind

        return self.objective(ObjectiveKind.MAX_SUM, lam)

    def max_min(self, lam: float = 0.5) -> "Objective":
        from .objectives import ObjectiveKind

        return self.objective(ObjectiveKind.MAX_MIN, lam)

    def mono(self, lam: float = 0.5) -> "Objective":
        from .objectives import ObjectiveKind

        return self.objective(ObjectiveKind.MONO, lam)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name})"


class ScalarCallableProvider(ScoringProvider):
    """Adapter: any ``(δ_rel, δ_dis)`` callable pair as a provider.

    This is the compatibility layer that keeps every existing objective
    working unchanged: the batch methods loop over the wrapped
    callables (same floats, same call count as the pre-provider kernel
    construction), and the derived scalar callables *are* the originals.
    """

    def __init__(self, relevance: RelevanceFunction, distance: DistanceFunction):
        super().__init__()
        self.relevance = relevance
        self.distance = distance
        self.name = f"scalar({relevance.name},{distance.name})"
        self._derived_relevance = relevance
        self._derived_distance = distance

    def relevance_at(self, row: Row, query: "Query | None" = None) -> float:
        return self.relevance(row, query)

    def distance_at(self, left: Row, right: Row) -> float:
        return self.distance(left, right)


# -- metrics ---------------------------------------------------------------


class Metric:
    """A named distance metric over feature vectors.

    ``scalar(fa, fb)`` scores one feature pair; ``block(A, B)`` scores
    the full cross block over float64 feature matrices, and
    ``python_block(A, B)`` over lists of feature tuples.  All three must
    be bit-for-bit equal — implementations keep the float operation
    order identical (see the module docstring).
    """

    name: str = "metric"

    def scalar(self, fa: tuple, fb: tuple) -> float:
        raise NotImplementedError

    def block(self, features_a, features_b):
        raise NotImplementedError

    def python_block(
        self, features_a: Sequence[tuple], features_b: Sequence[tuple]
    ) -> list[list[float]]:
        """The cross block as nested float lists: :meth:`scalar` per pair.

        When ``features_a is features_b`` (a symmetric diagonal block)
        the upper triangle is scored once and mirrored, over a zero
        diagonal — the pair set a scalar loop over the rows scores.
        """
        scalar = self.scalar
        if features_a is features_b:
            n = len(features_a)
            block = [[0.0] * n for _ in range(n)]
            for i, fa in enumerate(features_a):
                row_i = block[i]
                for j in range(i + 1, n):
                    value = scalar(fa, features_a[j])
                    row_i[j] = value
                    block[j][i] = value
            return block
        return [[scalar(fa, fb) for fb in features_b] for fa in features_a]

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name})"


class EuclideanMetric(Metric):
    """L2 distance.  Scalar and block paths both accumulate squared
    per-coordinate differences left to right and take a correctly-rounded
    square root (``math.sqrt`` / ``np.sqrt``), so they agree exactly."""

    name = "euclidean"

    def scalar(self, fa: tuple, fb: tuple) -> float:
        total = 0.0
        for xa, xb in zip(fa, fb):
            d = xa - xb
            total = total + d * d
        return math.sqrt(total)

    def block(self, features_a, features_b):
        if features_a.shape[1] == 0:
            return _np.zeros((features_a.shape[0], features_b.shape[0]))
        acc = None
        for c in range(features_a.shape[1]):
            d = features_a[:, c][:, None] - features_b[:, c][None, :]
            sq = d * d
            acc = sq if acc is None else acc + sq
        return _np.sqrt(acc)


class JaccardMetric(Metric):
    """``1 − |a∩b| / |a∪b|`` over binary (0/1) feature vectors, with the
    empty-vs-empty convention of 0.  Set sizes are exact small integers
    in float64, so the matmul-based block path is exact; the pure-Python
    block counts them with one int bitmask per row, and ``int / int``
    is correctly rounded, so every path yields the same floats."""

    name = "jaccard"

    def scalar(self, fa: tuple, fb: tuple) -> float:
        inter = 0
        size_a = 0
        size_b = 0
        for xa, xb in zip(fa, fb):
            if xa:
                size_a += 1
            if xb:
                size_b += 1
            if xa and xb:
                inter += 1
        union = size_a + size_b - inter
        if union == 0:
            return 0.0
        return 1.0 - inter / union

    def block(self, features_a, features_b):
        inter = features_a @ features_b.T
        size_a = features_a.sum(axis=1)
        size_b = features_b.sum(axis=1)
        union = size_a[:, None] + size_b[None, :] - inter
        with _np.errstate(divide="ignore", invalid="ignore"):
            out = 1.0 - inter / union
        return _np.where(union == 0.0, 0.0, out)

    def python_block(self, features_a, features_b):
        if len({len(f) for f in features_a} | {len(f) for f in features_b}) > 1:
            # Ragged vectors: the scalar's zip() drops the longer tails.
            return super().python_block(features_a, features_b)
        masks_a = [_bitmask(f) for f in features_a]
        masks_b = (
            masks_a if features_b is features_a else [_bitmask(f) for f in features_b]
        )
        sized_b = [(mb, mb.bit_count()) for mb in masks_b]
        block = []
        for ma in masks_a:
            size_a = ma.bit_count()
            row = []
            for mb, size_b in sized_b:
                inter = (ma & mb).bit_count()
                union = size_a + size_b - inter
                row.append(1.0 - inter / union if union else 0.0)
            block.append(row)
        return block


def _bitmask(features: tuple) -> int:
    """Bit ``c`` set where feature ``c`` is truthy — the scalar's test."""
    mask = 0
    for c, x in enumerate(features):
        if x:
            mask |= 1 << c
    return mask


class HierarchyMetric(Metric):
    """The weight of the first differing feature column, else 0.

    This is the shape of every "2 across categories, 1 within" style
    distance in the paper's examples (gift types, course areas, player
    positions): order the feature columns coarsest-first and weight each
    level.  Weights must be non-negative.
    """

    def __init__(self, weights: Sequence[float], name: str = "hierarchy"):
        weights = tuple(float(w) for w in weights)
        if not weights:
            raise ProviderError("hierarchy metric needs at least one weight")
        if any(w < 0 or math.isnan(w) for w in weights):
            raise ProviderError(f"hierarchy weights must be non-negative: {weights}")
        self.weights = weights
        self.name = name

    def scalar(self, fa: tuple, fb: tuple) -> float:
        for w, xa, xb in zip(self.weights, fa, fb):
            if xa != xb:
                return w
        return 0.0

    def block(self, features_a, features_b):
        out = _np.zeros((features_a.shape[0], features_b.shape[0]))
        undecided = _np.ones_like(out, dtype=bool)
        for c, w in enumerate(self.weights):
            neq = features_a[:, c][:, None] != features_b[:, c][None, :]
            out[undecided & neq] = w
            undecided &= ~neq
        return out


class MismatchMetric(Metric):
    """Weighted count of differing feature columns (the
    ``attribute_mismatch`` family).  ``weights=None`` counts 1 per
    column; sums accumulate left to right in both paths."""

    def __init__(self, weights: Sequence[float] | None = None, name: str = "mismatch"):
        self.weights = None if weights is None else tuple(float(w) for w in weights)
        if self.weights is not None and any(w < 0 or math.isnan(w) for w in self.weights):
            raise ProviderError(f"mismatch weights must be non-negative: {self.weights}")
        self.name = name

    def _weight(self, column: int) -> float:
        return 1.0 if self.weights is None else self.weights[column]

    def scalar(self, fa: tuple, fb: tuple) -> float:
        total = 0.0
        for c, (xa, xb) in enumerate(zip(fa, fb)):
            if xa != xb:
                total = total + self._weight(c)
        return total

    def block(self, features_a, features_b):
        acc = _np.zeros((features_a.shape[0], features_b.shape[0]))
        for c in range(features_a.shape[1]):
            neq = features_a[:, c][:, None] != features_b[:, c][None, :]
            acc = acc + _np.where(neq, self._weight(c), 0.0)
        return acc


_NAMED_METRICS: dict[str, Callable[[], Metric]] = {
    "euclidean": EuclideanMetric,
    "jaccard": JaccardMetric,
    "mismatch": MismatchMetric,
}


def resolve_metric(metric: "str | Metric") -> Metric:
    """A :class:`Metric` from a name or an instance.

    Parameterized metrics (:class:`HierarchyMetric`, weighted
    :class:`MismatchMetric`) must be passed as instances.
    """
    if isinstance(metric, Metric):
        return metric
    try:
        return _NAMED_METRICS[metric]()
    except KeyError:
        raise ProviderError(
            f"unknown metric {metric!r}; named metrics are "
            f"{sorted(_NAMED_METRICS)} (parameterized metrics are passed "
            f"as instances, e.g. HierarchyMetric(weights))"
        ) from None


class FeatureSpaceProvider(ScoringProvider):
    """The vectorized fast path: rows → feature vectors → one block op.

    ``features(row)`` maps a row to a tuple of floats (categorical
    attributes should be encoded to numeric codes by the workload);
    ``metric`` names or instantiates the geometry over those vectors.
    ``relevance`` is a :class:`RelevanceFunction` (or a bare callable,
    wrapped) — relevance is O(n), so a scalar loop is batch enough.

    Feature vectors are cached per row by default (rows hash by value),
    which assumes a row's features never change while the provider is
    alive; live workloads that mutate a row's features in place must
    pass ``cache_features=False``.  Blocks are scored by the metric's
    ``block`` on NumPy and its ``python_block`` on pure Python;
    ``vectorize=False`` forces the pair-by-pair scalar loop on either
    backend (benchmark baseline / debugging).
    """

    def __init__(
        self,
        features: Callable[[Row], tuple],
        metric: "str | Metric",
        relevance: RelevanceFunction | Callable[..., float],
        name: str = "feature-space",
        distance_name: str | None = None,
        cache_features: bool = True,
        vectorize: bool = True,
    ):
        super().__init__()
        if not isinstance(relevance, RelevanceFunction):
            relevance = RelevanceFunction.from_callable(relevance)
        self._features = features
        self.metric = resolve_metric(metric)
        self._relevance = relevance
        self.name = name
        self._distance_name = (
            distance_name if distance_name is not None else f"{name}/{self.metric.name}"
        )
        self._cache: dict[Row, tuple] | None = {} if cache_features else None
        self.vectorize = vectorize

    # -- features ---------------------------------------------------------

    def features_of(self, row: Row) -> tuple:
        """The (cached) feature vector of one row."""
        if self._cache is None:
            return self._features(row)
        cached = self._cache.get(row)
        if cached is None:
            cached = self._cache[row] = tuple(self._features(row))
        return cached

    def feature_matrix(self, rows: Sequence[Row]):
        """The float64 feature matrix of a row batch (NumPy path)."""
        return _np.asarray(
            [self.features_of(row) for row in rows], dtype=_np.float64
        ).reshape(len(rows), -1)

    # -- scoring ----------------------------------------------------------

    def relevance_at(self, row: Row, query: "Query | None" = None) -> float:
        return self._relevance(row, query)

    def relevance_function(self) -> RelevanceFunction:
        return self._relevance

    def distance_at(self, left: Row, right: Row) -> float:
        return self.metric.scalar(self.features_of(left), self.features_of(right))

    def distance_block(
        self,
        rows_a: Sequence[Row],
        rows_b: Sequence[Row],
        use_numpy: bool = False,
    ):
        if not self.vectorize:
            return super().distance_block(rows_a, rows_b, use_numpy=use_numpy)
        if not use_numpy:
            # Each row's features are looked up once per block, not once
            # per pair.
            features_a = [self.features_of(row) for row in rows_a]
            features_b = (
                features_a
                if rows_a is rows_b
                else [self.features_of(row) for row in rows_b]
            )
            return self.metric.python_block(features_a, features_b)
        if not rows_a or not rows_b:
            return _np.zeros((len(rows_a), len(rows_b)))
        features_a = self.feature_matrix(rows_a)
        features_b = features_a if rows_a is rows_b else self.feature_matrix(rows_b)
        return self.metric.block(features_a, features_b)

    def distance_function(self) -> DistanceFunction:
        if self._derived_distance is None:
            self._derived_distance = DistanceFunction(
                self.distance_at, name=self._distance_name, symmetrize=False
            )
        return self._derived_distance


def provider_for(objective: Any) -> ScoringProvider:
    """The provider behind an objective: its own, or a scalar adapter.

    This is the single resolution point the kernel uses, so an objective
    built from plain ``(δ_rel, δ_dis)`` callables transparently scores
    through a :class:`ScalarCallableProvider` with identical floats.
    """
    provider = getattr(objective, "provider", None)
    if provider is not None:
        return provider
    return ScalarCallableProvider(objective.relevance, objective.distance)
