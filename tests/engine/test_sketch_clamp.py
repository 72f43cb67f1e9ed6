"""Sketch clamping at m >= n: exact dense semantics, never an error.

Regression suite for the edge where the configured (or derived)
landmark count reaches the snapshot size.  The contract: every row
becomes a landmark, the triangle-inequality bounds collapse to the
exact distances (lower == upper == d via the l = j column), and no
snapshot is too small to sketch.
"""

import pytest

from repro.api import EngineConfig
from repro.core.providers import LANDMARK_STRATEGIES
from repro.engine import ScoringKernel, SketchedStorage, numpy_available
from repro.engine.storage import StorageError
from repro.workloads.synthetic import random_instance, scoring_provider

BACKENDS = [False] + ([True] if numpy_available() else [])


def sketched_kernel(instance, use_numpy, **knobs):
    config = EngineConfig(approx=True, **knobs)
    return ScoringKernel(instance, use_numpy=use_numpy, config=config)


@pytest.mark.parametrize("strategy", sorted(LANDMARK_STRATEGIES))
def test_select_landmarks_clamps_to_every_row(strategy):
    instance = random_instance(n=6, seed=3)
    provider = scoring_provider()
    rows = instance.answers()
    relevance = [0.0] * len(rows)
    for m in (6, 7, 100):
        positions = provider.select_landmarks(rows, relevance, m, strategy=strategy)
        assert positions == list(range(6))


@pytest.mark.parametrize("use_numpy", BACKENDS)
def test_effective_sketch_columns_clamps_to_n(use_numpy):
    instance = random_instance(n=8, seed=1)
    kernel = sketched_kernel(instance, use_numpy, sketch_columns=50)
    assert kernel.effective_sketch_columns == 8
    derived = sketched_kernel(random_instance(n=5, seed=2), use_numpy)
    # The derived default max(16, isqrt(n)) exceeds tiny n: clamped too.
    assert derived.effective_sketch_columns == 5


@pytest.mark.parametrize("use_numpy", BACKENDS)
def test_bounds_are_exact_when_every_row_is_a_landmark(use_numpy):
    instance = random_instance(n=7, k=3, seed=11)
    kernel = sketched_kernel(instance, use_numpy, sketch_columns=7)
    sketch = kernel.sketch()
    assert sketch.columns == 7
    assert sketch.landmark_positions == tuple(range(7))
    dense = ScoringKernel(instance, use_numpy=use_numpy)
    for i in range(7):
        for j in range(7):
            true = dense.distance_between(i, j)
            assert sketch.lower_bound(i, j) == pytest.approx(true, abs=1e-12)
            assert sketch.upper_bound(i, j) == pytest.approx(true, abs=1e-12)


@pytest.mark.parametrize("use_numpy", BACKENDS)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_tiny_snapshots_sketch_without_error(use_numpy, n):
    instance = random_instance(n=n, k=min(n, 2), seed=n)
    kernel = sketched_kernel(instance, use_numpy)
    sketch = kernel.sketch()
    assert sketch.columns == n
    if n >= 2:
        dense = ScoringKernel(instance, use_numpy=use_numpy)
        assert sketch.lower_bound(0, 1) == pytest.approx(
            dense.distance_between(0, 1), abs=1e-12
        )


@pytest.mark.parametrize("use_numpy", BACKENDS)
def test_oversized_sketch_collapses_the_certificate(use_numpy):
    """With every row a landmark the surrogate bounds ARE the
    distances, so the approximation certificate collapses onto the
    exact value: lower == value == upper."""
    from repro.algorithms.sketched import select_sketched_marginal_max_sum

    instance = random_instance(n=9, k=3, seed=5)
    kernel = sketched_kernel(instance, use_numpy, sketch_columns=9)
    selection = select_sketched_marginal_max_sum(
        kernel, instance.objective, instance.k
    )
    assert len(selection.rows) == 3
    certificate = selection.certificate
    assert certificate.lower == pytest.approx(selection.value, rel=1e-12)
    assert certificate.upper == pytest.approx(selection.value, rel=1e-12)


def test_constructor_still_rejects_degenerate_sketches():
    """m < 2 stays an error unless m == n (the clamp's exact case)."""
    with pytest.raises(StorageError):
        SketchedStorage(5, [0], [[0.0]] * 5, use_numpy=False, strategy="uniform")
    # m == n == 1 is the legitimate single-row corner.
    single = SketchedStorage(1, [0], [[0.0]], use_numpy=False, strategy="uniform")
    assert single.columns == 1
