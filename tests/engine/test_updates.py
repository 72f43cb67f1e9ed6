"""Delta maintenance: compute_delta, apply_delta parity, engine patching.

The tentpole guarantee (ISSUE 2): after any insert/delete sequence, a
patched kernel must be element-wise equal — answers, relevance vector,
distance matrix, row sums, index — to a kernel freshly built from the
updated database, on both backends; and the engine must route stale
cached kernels through the patch path with honest accounting.
"""

import pytest

from repro.core.instance import DiversificationInstance
from repro.core.objectives import Objective
from repro.engine import (
    DiversificationEngine,
    KernelDelta,
    KernelError,
    ScoringKernel,
    compute_delta,
    delta_for_instance,
    numpy_available,
)
from repro.workloads.streaming import StreamingWebSearch
from repro.workloads.synthetic import random_instance

BACKENDS = [False] + ([True] if numpy_available() else [])


def built_kernel(instance, use_numpy: bool = False) -> ScoringKernel:
    """A kernel whose distance storage exists, so a delta remaps it: a
    kernel that has read no distance has no storage to patch."""
    kernel = ScoringKernel(instance, use_numpy=use_numpy)
    kernel.materialize_all()
    assert kernel.distances_materialized
    return kernel


def assert_kernels_equal(patched: ScoringKernel, fresh: ScoringKernel):
    assert patched.n == fresh.n
    assert patched.answers == fresh.answers
    for i in range(fresh.n):
        assert patched.relevance_of(i) == fresh.relevance_of(i)
        for j in range(fresh.n):
            assert patched.distance_between(i, j) == fresh.distance_between(i, j)
    assert [float(v) for v in patched.row_distance_sums()] == [
        float(v) for v in fresh.row_distance_sums()
    ]
    assert patched._index == fresh._index


class TestComputeDelta:
    def test_empty_delta_on_fresh_kernel(self):
        instance = random_instance(n=8, k=3)
        kernel = ScoringKernel(instance, use_numpy=False)
        assert kernel.is_fresh_for(instance)
        delta = delta_for_instance(kernel, instance)
        assert delta.is_empty
        assert delta.size == 0
        assert delta.old_size == delta.new_size == 8

    def test_stale_kernel_freshened_by_patch(self):
        workload = StreamingWebSearch(num_docs=10, seed=19)
        instance = workload.make_instance(k=3)
        kernel = built_kernel(instance)
        workload.step()
        instance.invalidate_cache()
        assert not kernel.is_fresh_for(instance)
        delta = delta_for_instance(kernel, instance)
        kernel.apply_delta(delta.inserted, delta.deleted)
        assert kernel.is_fresh_for(instance)

    def test_insert_and_delete_detected(self):
        workload = StreamingWebSearch(num_docs=12, seed=3)
        instance = workload.make_instance(k=4)
        kernel = ScoringKernel(instance, use_numpy=False)
        inserted_event = workload.step()  # may insert or delete
        instance.invalidate_cache()
        delta = compute_delta(kernel, instance.answers())
        assert delta.size == 1
        if inserted_event.op == "insert":
            assert len(delta.inserted) == 1 and not delta.deleted
        else:
            assert len(delta.deleted) == 1 and not delta.inserted
        assert delta.new_size == delta.old_size + (
            1 if inserted_event.op == "insert" else -1
        )

    def test_multiset_semantics(self):
        instance = random_instance(n=6, k=2)
        kernel = ScoringKernel(instance, use_numpy=False)
        answers = list(kernel.answers)
        # Duplicate one row three times, drop another entirely.
        new_rows = answers[:1] * 3 + answers[2:]
        delta = compute_delta(kernel, new_rows)
        assert delta.inserted == (answers[0], answers[0])
        assert delta.deleted == (answers[1],)

    def test_touches(self):
        instance = random_instance(n=6, k=2)
        kernel = ScoringKernel(instance, use_numpy=False)
        answers = list(kernel.answers)
        delta = KernelDelta(
            inserted=(), deleted=(answers[2],), old_size=6, new_size=5
        )
        assert delta.touches([answers[2], answers[3]])
        assert not delta.touches([answers[0], answers[1]])


class TestApplyDelta:
    @pytest.mark.parametrize("use_numpy", BACKENDS)
    def test_randomized_trace_parity(self, use_numpy):
        workload = StreamingWebSearch(num_docs=25, num_intents=5, seed=11)
        instance = workload.make_instance(k=5)
        kernel = built_kernel(instance, use_numpy)
        for _ in range(30):
            workload.step()
            instance.invalidate_cache()
            delta = delta_for_instance(kernel, instance)
            kernel.apply_delta(delta.inserted, delta.deleted)
            assert_kernels_equal(
                kernel, ScoringKernel(instance, use_numpy=use_numpy)
            )

    @pytest.mark.parametrize("use_numpy", BACKENDS)
    def test_batched_delta_parity(self, use_numpy):
        workload = StreamingWebSearch(num_docs=20, num_intents=4, seed=23)
        instance = workload.make_instance(k=4)
        kernel = built_kernel(instance, use_numpy)
        for _ in range(5):  # several updates folded into one delta
            for _ in range(6):
                workload.step()
            instance.invalidate_cache()
            delta = delta_for_instance(kernel, instance)
            kernel.apply_delta(delta.inserted, delta.deleted)
            assert_kernels_equal(
                kernel, ScoringKernel(instance, use_numpy=use_numpy)
            )

    def test_empty_delta_is_noop(self):
        instance = random_instance(n=7, k=3)
        kernel = ScoringKernel(instance, use_numpy=False)
        before = kernel.answers
        assert kernel.apply_delta((), ()) is kernel
        assert kernel.answers is before

    def test_delete_unknown_row_raises(self):
        instance = random_instance(n=6, k=2)
        other = random_instance(n=10, k=2, seed=99)
        kernel = ScoringKernel(instance, use_numpy=False)
        with pytest.raises(KernelError):
            kernel.apply_delta((), (other.answers()[-1],))

    def test_patched_kernel_serves_algorithms(self):
        from repro.algorithms.mmr import mmr_select

        workload = StreamingWebSearch(num_docs=15, seed=5)
        instance = workload.make_instance(k=4)
        kernel = built_kernel(instance)
        for _ in range(8):
            workload.step()
        instance.invalidate_cache()
        delta = delta_for_instance(kernel, instance)
        kernel.apply_delta(delta.inserted, delta.deleted)
        assert mmr_select(instance, kernel=kernel) == mmr_select(instance)

    def test_item_scores_cache_invalidated(self):
        workload = StreamingWebSearch(num_docs=10, seed=7)
        instance = workload.make_instance(k=3, lam=0.0)
        kernel = built_kernel(instance)
        stale_scores = kernel.item_scores(instance.objective)
        workload.step()
        instance.invalidate_cache()
        delta = delta_for_instance(kernel, instance)
        kernel.apply_delta(delta.inserted, delta.deleted)
        fresh = ScoringKernel(instance, use_numpy=False)
        assert kernel.item_scores(instance.objective) == fresh.item_scores(
            instance.objective
        )
        assert len(stale_scores) != kernel.n or stale_scores is not kernel.item_scores(
            instance.objective
        )

    @pytest.mark.parametrize("use_numpy", BACKENDS)
    def test_duplicate_rows_in_snapshot(self, use_numpy):
        instance = random_instance(n=8, k=3)
        answers = instance.answers()
        # Inject duplicates (evaluation itself is set-semantics, but the
        # kernel contract must survive snapshots that carry them).
        instance._result_cache = answers[:3] + answers[2:3] + answers[3:]
        kernel = built_kernel(instance, use_numpy)
        assert kernel.n == 9
        # Deleting one occurrence of the duplicated row keeps the other.
        kernel.apply_delta((), (answers[2],))
        assert kernel.n == 8
        assert kernel.answers.count(answers[2]) == 1


class TestEnginePatching:
    def test_streaming_workload_patches_not_rebuilds(self):
        workload = StreamingWebSearch(num_docs=20, seed=9)
        instance = workload.make_instance(k=5)
        engine = DiversificationEngine(algorithm="mmr")
        engine.run(instance)
        for _ in range(10):
            workload.step()
            instance.invalidate_cache()
            result = engine.run(instance)
            assert result is not None
            assert result.kernel_reused
        assert engine.stats.misses == 1
        assert engine.stats.patches == 10
        assert engine.stats.stale_rebuilds == 0
        assert engine.stats.lookups == 11

    def test_patched_engine_results_match_direct(self):
        from repro.algorithms.mmr import mmr_select

        workload = StreamingWebSearch(num_docs=18, seed=13)
        instance = workload.make_instance(k=4)
        engine = DiversificationEngine(algorithm="mmr")
        engine.run(instance)
        for _ in range(6):
            workload.step()
            instance.invalidate_cache()
            result = engine.run(instance)
            direct = mmr_select(instance)
            assert result.rows == direct[1]
            assert result.value == pytest.approx(direct[0], rel=1e-12)

    def test_hit_rate_accounts_for_patches(self):
        workload = StreamingWebSearch(num_docs=10, seed=1)
        instance = workload.make_instance(k=3)
        engine = DiversificationEngine(algorithm="mmr")
        engine.run(instance)  # miss
        engine.run(instance)  # hit
        workload.step()
        instance.invalidate_cache()
        engine.run(instance)  # patch
        stats = engine.stats
        assert (stats.hits, stats.misses, stats.patches) == (1, 1, 1)
        assert stats.hit_rate == pytest.approx(1 / 3)


def test_mono_instance_patch_parity():
    """F_mono item scores read row sums — they must track deltas too."""
    workload = StreamingWebSearch(num_docs=14, seed=21)
    objective = Objective.mono(workload.relevance, workload.distance, lam=0.6)
    instance = DiversificationInstance(
        workload.query, workload.db, k=4, objective=objective
    )
    kernel = built_kernel(instance)
    for _ in range(6):
        workload.step()
        instance.invalidate_cache()
        delta = delta_for_instance(kernel, instance)
        kernel.apply_delta(delta.inserted, delta.deleted)
        direct = [instance.item_score(t) for t in instance.answers()]
        assert kernel.item_scores(objective) == pytest.approx(direct, rel=1e-12)
