"""Provider-built kernels are indistinguishable from scalar-built ones.

The tentpole guarantee of the batch-native refactor: routing kernel
construction through a workload's vectorized provider — at any tile
size, on either backend, and across delta patches — produces arrays
that are element-wise equal (exact float equality) to the
scalar-adapter construction over the derived callables.
"""

import pytest

from repro.api import EngineConfig
from repro.core.instance import DiversificationInstance
from repro.core.objectives import Objective, ObjectiveKind
from repro.engine import (
    DiversificationEngine,
    KernelError,
    ScoringKernel,
    compute_delta,
    numpy_available,
)
from repro.workloads import courses, gifts, teams, websearch
from repro.workloads.streaming import StreamingWebSearch

BACKENDS = [False] + ([True] if numpy_available() else [])


def provider_instances():
    """(name, provider instance, scalar twin) pairs per workload.

    The scalar twin shares the provider's derived callables but drops
    the provider itself, so its kernel takes the scalar-adapter path.
    """
    cases = []

    db = websearch.generate(num_docs=26, num_intents=5, seed=3)
    provider = websearch.scoring_provider(db)
    query = websearch.documents_query()
    cases.append(("websearch", query, db, provider, 5))
    # Blocked scalar loops through the provider interface, vectorization off.
    loops = websearch.scoring_provider(db, vectorize=False)
    cases.append(("websearch-loops", query, db, loops, 5))

    db = courses.generate(extra_courses=14, seed=1)
    cases.append(("courses", courses.catalog_query(), db, courses.scoring_provider(), 4))

    db = teams.generate(num_players=21, seed=6)
    cases.append(("teams", teams.roster_query(), db, teams.scoring_provider(), 4))

    db = gifts.generate(num_items=30, num_history=80, seed=2)
    cases.append(("gifts", gifts.peter_query_cq(low=5, high=95), db, gifts.scoring_provider(db), 4))

    out = []
    for name, query, db, provider, k in cases:
        with_provider = DiversificationInstance(
            query,
            db,
            k=k,
            objective=Objective.from_provider(ObjectiveKind.MAX_SUM, provider),
        )
        without_provider = DiversificationInstance(
            query,
            db,
            k=k,
            objective=Objective.max_sum(
                provider.relevance_function(), provider.distance_function()
            ),
        )
        out.append((name, with_provider, without_provider))
    return out


CASES = provider_instances()


def assert_kernels_equal(left: ScoringKernel, right: ScoringKernel):
    assert left.n == right.n
    assert list(left.answers) == list(right.answers)
    for i in range(left.n):
        assert left.relevance_of(i) == right.relevance_of(i)
        for j in range(left.n):
            assert left.distance_between(i, j) == right.distance_between(i, j)
    assert [float(v) for v in left.row_distance_sums()] == [
        float(v) for v in right.row_distance_sums()
    ]


@pytest.mark.parametrize("use_numpy", BACKENDS)
@pytest.mark.parametrize("case", CASES, ids=[name for name, _, _ in CASES])
def test_provider_kernel_equals_scalar_kernel(case, use_numpy):
    _, with_provider, without_provider = case
    fast = ScoringKernel(with_provider, use_numpy=use_numpy)
    slow = ScoringKernel(without_provider, use_numpy=use_numpy)
    assert_kernels_equal(fast, slow)


@pytest.mark.parametrize("case", CASES, ids=[name for name, _, _ in CASES])
def test_block_size_does_not_change_the_matrix(case):
    _, with_provider, _ = case
    baseline = ScoringKernel(with_provider, use_numpy=False)
    for use_numpy in BACKENDS:
        for block_size in (1, 3, 7, 4096):
            tiled = ScoringKernel(
                with_provider,
                use_numpy=use_numpy,
                config=EngineConfig(block_size=block_size),
            )
            assert_kernels_equal(tiled, baseline)


def test_block_size_validated():
    _, with_provider, _ = CASES[0]
    with pytest.raises(KernelError):
        ScoringKernel(
            with_provider, use_numpy=False, config=EngineConfig(block_size=0)
        )


@pytest.mark.skipif(not numpy_available(), reason="requires numpy")
@pytest.mark.parametrize("case", CASES, ids=[name for name, _, _ in CASES])
def test_backends_are_bit_identical(case):
    # The vectorized metrics are written op-for-op against their scalar
    # forms, so the two backends agree exactly — not just approximately.
    _, with_provider, _ = case
    assert_kernels_equal(
        ScoringKernel(with_provider, use_numpy=True),
        ScoringKernel(with_provider, use_numpy=False),
    )


@pytest.mark.parametrize("use_numpy", BACKENDS)
def test_apply_delta_via_provider_matches_rebuild(use_numpy):
    workload = StreamingWebSearch(num_docs=20, num_intents=5, seed=13)
    instance = workload.make_instance(k=5)
    kernel = ScoringKernel(instance, use_numpy=use_numpy)
    assert kernel.provider is workload.provider
    kernel.materialize_all()  # the patch, not a lazy rebuild, is under test
    assert kernel.distances_materialized
    for _ in range(8):
        workload.step()
        instance.invalidate_cache()
        delta = compute_delta(kernel, instance.answers())
        kernel.apply_delta(delta.inserted, delta.deleted)
        assert_kernels_equal(kernel, ScoringKernel(instance, use_numpy=use_numpy))


@pytest.mark.parametrize("use_numpy", BACKENDS)
def test_apply_delta_provider_equals_scalar_patch(use_numpy):
    """Patching through batch calls and through the scalar adapter must
    land on identical arrays, event by event."""
    fast_workload = StreamingWebSearch(num_docs=16, num_intents=4, seed=21)
    slow_workload = StreamingWebSearch(num_docs=16, num_intents=4, seed=21)
    fast_instance = fast_workload.make_instance(k=4, use_provider=True)
    slow_instance = slow_workload.make_instance(k=4, use_provider=False)
    fast = ScoringKernel(fast_instance, use_numpy=use_numpy)
    slow = ScoringKernel(slow_instance, use_numpy=use_numpy)
    for kernel in (fast, slow):
        kernel.materialize_all()  # patch built storage, event by event
        assert kernel.distances_materialized
    for _ in range(6):
        fast_workload.step()
        slow_workload.step()
        for instance, kernel in (
            (fast_instance, fast),
            (slow_instance, slow),
        ):
            instance.invalidate_cache()
            delta = compute_delta(kernel, instance.answers())
            kernel.apply_delta(delta.inserted, delta.deleted)
        assert_kernels_equal(fast, slow)


@pytest.mark.parametrize("use_numpy", BACKENDS)
def test_engine_serving_loop_on_provider_instances(use_numpy):
    """End to end: the engine patches provider-backed kernels in place
    and keeps returning the same selections a fresh engine would."""
    workload = StreamingWebSearch(num_docs=18, num_intents=4, seed=8)
    instance = workload.make_instance(k=4)
    engine = DiversificationEngine(algorithm="mmr", use_numpy=use_numpy)
    assert engine.run(instance) is not None
    for _ in range(5):
        workload.step()
        instance.invalidate_cache()
        served = engine.run(instance)
        fresh = DiversificationEngine(algorithm="mmr", use_numpy=use_numpy).run(instance)
        assert served.rows == fresh.rows
        assert served.value == fresh.value
    assert engine.stats.patches > 0


@pytest.mark.parametrize("case", CASES, ids=[name for name, _, _ in CASES])
def test_engine_results_identical_with_and_without_provider(case):
    _, with_provider, without_provider = case
    for algorithm in ("greedy_max_sum", "mmr", "greedy_marginal_max_sum"):
        fast = DiversificationEngine(algorithm=algorithm).run(with_provider)
        slow = DiversificationEngine(algorithm=algorithm).run(without_provider)
        assert fast.rows == slow.rows
        assert fast.value == slow.value
