"""Solution maintenance: repair_after_delta parity with from-scratch.

The guarantee: whatever repair_after_delta returns — kept or re-run —
must equal running the algorithm from scratch on the post-delta
instance, across randomized insert/delete traces; and the fast path
must actually fire (the point of maintenance is skipping re-runs).
"""

import pytest

from repro.algorithms.incremental import RepairResult, repair_after_delta
from repro.core.instance import DiversificationInstance
from repro.core.objectives import Objective
from repro.engine import (
    ALGORITHMS,
    EngineError,
    KernelDelta,
    ScoringKernel,
    delta_for_instance,
    numpy_available,
)
from repro.workloads.streaming import StreamingWebSearch

BACKENDS = [False] + ([True] if numpy_available() else [])


def drive(algorithm, use_numpy, events=40, num_docs=30, k=5, lam=0.5, seed=29):
    """Random trace; after each event, repair and solve from scratch."""
    workload = StreamingWebSearch(num_docs=num_docs, num_intents=5, seed=seed)
    instance = workload.make_instance(k=k, lam=lam)
    kernel = ScoringKernel(instance, use_numpy=use_numpy)
    solver = ALGORITHMS[algorithm]
    previous = solver(instance, kernel)[1]
    kept = reran = 0
    for _ in range(events):
        workload.step()
        instance.invalidate_cache()
        delta = delta_for_instance(kernel, instance)
        kernel.apply_delta(delta.inserted, delta.deleted)
        repaired = repair_after_delta(
            instance, kernel, previous, delta, algorithm=algorithm
        )
        scratch = solver(instance, kernel)
        assert repaired.rows == scratch[1], repaired.reason
        assert repaired.value == pytest.approx(scratch[0], rel=1e-12, abs=1e-12)
        kept += not repaired.reran
        reran += repaired.reran
        previous = repaired.rows
    return kept, reran


class TestParity:
    @pytest.mark.parametrize("use_numpy", BACKENDS)
    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
    def test_mmr_trace_parity(self, lam, use_numpy):
        kept, reran = drive("mmr", use_numpy, lam=lam)
        assert kept + reran == 40

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_mmr_fast_path_fires(self, seed):
        kept, _ = drive("mmr", False, seed=seed)
        assert kept > 0  # maintenance must actually save re-runs

    def test_greedy_max_min_trace_parity(self):
        workload = StreamingWebSearch(num_docs=25, num_intents=5, seed=31)
        objective = Objective.max_min(workload.relevance, workload.distance, lam=0.5)
        instance = DiversificationInstance(
            workload.query, workload.db, k=4, objective=objective
        )
        kernel = ScoringKernel(instance, use_numpy=False)
        solver = ALGORITHMS["greedy_max_min"]
        previous = solver(instance, kernel)[1]
        for _ in range(30):
            workload.step()
            instance.invalidate_cache()
            delta = delta_for_instance(kernel, instance)
            kernel.apply_delta(delta.inserted, delta.deleted)
            repaired = repair_after_delta(
                instance, kernel, previous, delta, algorithm="greedy_max_min"
            )
            scratch = solver(instance, kernel)
            assert repaired.rows == scratch[1], repaired.reason
            previous = repaired.rows

    def test_modular_top_k_trace_parity(self):
        workload = StreamingWebSearch(num_docs=25, num_intents=5, seed=37)
        instance = workload.make_instance(k=5, lam=0.0)  # modular F_MS
        kernel = ScoringKernel(instance, use_numpy=False)
        # λ = 0 reads no distance; build the storage anyway so every
        # delta of the trace patches it too.
        kernel.materialize_all()
        assert kernel.distances_materialized
        solver = ALGORITHMS["modular_top_k"]
        previous = solver(instance, kernel)[1]
        kept = 0
        for _ in range(30):
            workload.step()
            instance.invalidate_cache()
            delta = delta_for_instance(kernel, instance)
            kernel.apply_delta(delta.inserted, delta.deleted)
            repaired = repair_after_delta(
                instance, kernel, previous, delta, algorithm="modular_top_k"
            )
            scratch = solver(instance, kernel)
            assert repaired.rows == scratch[1], repaired.reason
            kept += not repaired.reran
            previous = repaired.rows
        assert kept > 0

    def test_pair_greedy_reruns_on_insertions(self):
        """No sound insertion bound for pair-greedy: parity comes from
        re-running, and deletions of never-selected rows are kept."""
        workload = StreamingWebSearch(num_docs=25, num_intents=5, seed=41)
        instance = workload.make_instance(k=4)
        kernel = ScoringKernel(instance, use_numpy=False)
        solver = ALGORITHMS["greedy_max_sum"]
        previous = solver(instance, kernel)[1]
        for _ in range(25):
            workload.step()
            instance.invalidate_cache()
            delta = delta_for_instance(kernel, instance)
            kernel.apply_delta(delta.inserted, delta.deleted)
            repaired = repair_after_delta(
                instance, kernel, previous, delta, algorithm="greedy_max_sum"
            )
            scratch = solver(instance, kernel)
            assert repaired.rows == scratch[1], repaired.reason
            if delta.inserted:
                assert repaired.reran
            previous = repaired.rows


class TestDecisions:
    def make(self, k=4, lam=0.5, seed=43):
        workload = StreamingWebSearch(num_docs=20, num_intents=4, seed=seed)
        instance = workload.make_instance(k=k, lam=lam)
        kernel = ScoringKernel(instance, use_numpy=False)
        previous = ALGORITHMS["mmr"](instance, kernel)[1]
        return workload, instance, kernel, previous

    def test_empty_delta_keeps(self):
        _, instance, kernel, previous = self.make()
        delta = KernelDelta((), (), kernel.n, kernel.n)
        repaired = repair_after_delta(instance, kernel, previous, delta, "mmr")
        assert not repaired.reran
        assert repaired.rows == previous

    def test_deleted_selected_row_reruns(self):
        workload, instance, kernel, previous = self.make()
        event = workload.retire(previous[0]["doc"])
        assert event.op == "delete"
        instance.invalidate_cache()
        delta = delta_for_instance(kernel, instance)
        kernel.apply_delta(delta.inserted, delta.deleted)
        repaired = repair_after_delta(instance, kernel, previous, delta, "mmr")
        assert repaired.reran
        assert repaired.reason == "a deleted row was selected"

    def test_local_search_reruns_on_any_delta(self):
        """Local search's seed-and-swap trajectory shifts when any row
        order changes — even deletion of a never-selected row — so no
        keep path is sound (parity with from-scratch over a trace)."""
        workload = StreamingWebSearch(num_docs=14, num_intents=5, seed=8)
        instance = workload.make_instance(k=4, lam=0.9)
        kernel = ScoringKernel(instance, use_numpy=False)
        solver = ALGORITHMS["local_search"]
        previous = solver(instance, kernel)[1]
        for _ in range(12):
            workload.step()
            instance.invalidate_cache()
            delta = delta_for_instance(kernel, instance)
            kernel.apply_delta(delta.inserted, delta.deleted)
            repaired = repair_after_delta(
                instance, kernel, previous, delta, "local_search"
            )
            assert repaired.reran
            scratch = solver(instance, kernel)
            assert repaired.rows == scratch[1]
            previous = repaired.rows

    def test_mono_always_reruns_on_delta(self):
        workload = StreamingWebSearch(num_docs=15, num_intents=4, seed=47)
        objective = Objective.mono(workload.relevance, workload.distance, lam=0.5)
        instance = DiversificationInstance(
            workload.query, workload.db, k=3, objective=objective
        )
        kernel = ScoringKernel(instance, use_numpy=False)
        previous = ALGORITHMS["modular_top_k"](instance, kernel)[1]
        workload.step()
        instance.invalidate_cache()
        delta = delta_for_instance(kernel, instance)
        kernel.apply_delta(delta.inserted, delta.deleted)
        repaired = repair_after_delta(
            instance, kernel, previous, delta, "modular_top_k"
        )
        assert repaired.reran
        scratch = ALGORITHMS["modular_top_k"](instance, kernel)
        assert repaired.rows == scratch[1]

    def test_stale_kernel_rejected(self):
        _, instance, kernel, previous = self.make()
        delta = KernelDelta((), (), kernel.n, kernel.n + 1)
        with pytest.raises(ValueError):
            repair_after_delta(instance, kernel, previous, delta, "mmr")

    def test_unknown_algorithm_rejected(self):
        _, instance, kernel, previous = self.make()
        delta = KernelDelta((), (), kernel.n, kernel.n)
        with pytest.raises(EngineError):
            repair_after_delta(instance, kernel, previous, delta, "nope")

    def test_returns_none_when_k_exceeds_pool(self):
        workload, instance, kernel, previous = self.make(k=4)
        while len(workload.live_docs) > 3:
            workload.retire(workload.live_docs[0])
        instance.invalidate_cache()
        delta = delta_for_instance(kernel, instance)
        kernel.apply_delta(delta.inserted, delta.deleted)
        assert repair_after_delta(instance, kernel, previous, delta, "mmr") is None

    def test_repr(self):
        result = RepairResult(1.5, (), False, "empty delta")
        assert "kept" in repr(result)

    def test_duplicate_selection_marginal_not_inflated(self):
        """A duplicate-bearing selection maps twin picks to one kernel
        index; the marginal must exclude members by *position* so the
        0-distance to a twin is seen (novelty 0), otherwise an inserted
        row landing under the inflated marginal is wrongly kept."""
        import statistics

        from repro.core.objectives import ObjectiveKind
        from repro.relational.schema import Row
        from repro.workloads.synthetic import random_instance

        instance = random_instance(
            n=3, k=4, kind=ObjectiveKind.MAX_SUM, lam=0.5, seed=8
        )
        answers = instance.answers()
        instance._result_cache = answers + answers  # duplicate-heavy pool
        kernel = ScoringKernel(instance, use_numpy=False)
        previous = ALGORITHMS["mmr"](instance, kernel)[1]
        prev_idx = [kernel.index_of(r) for r in previous]
        assert len(set(prev_idx)) < len(prev_idx)  # a twin was picked
        # Insert a mid-pool row at the centroid: its bound sits between
        # the correct (twin-aware) marginal and the inflated one, so
        # only position-based exclusion triggers the re-run.
        cx = statistics.mean(a["x"] for a in answers)
        cy = statistics.mean(a["y"] for a in answers)
        new_row = Row(answers[0].schema, (99, "zz", 0.5, cx, cy))
        kernel.apply_delta((new_row,), ())
        instance._result_cache = list(kernel.answers)
        delta = KernelDelta((new_row,), (), 6, 7)
        repaired = repair_after_delta(instance, kernel, previous, delta, "mmr")
        assert repaired.reran
        assert repaired.reason == "an inserted row's bound beats the current marginal"
        scratch = ALGORITHMS["mmr"](instance, kernel)
        assert repaired.rows == scratch[1]
