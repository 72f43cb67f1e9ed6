"""Distance storage is allocated on the first distance read.

No selector declares what it reads; the kernel observes it.  The
observable contract tested here:

* a fresh kernel of any storage kind, on either backend, holds no
  distance storage; the first distance read allocates it exactly once,
  and the floats equal a fully materialized kernel's;
* engine runs that read no distance (modular top-k, F_MS at λ = 0, the
  sketched ``approx`` selectors) never build distance storage at all (a
  counting ``make_storage`` spy sees zero calls), while runs that read
  distances build it as before;
* relevance-only (λ = 0) kernels stay unallocated through build *and*
  through delta patching;
* opting in to ``approx`` reroutes sketch-capable algorithms through
  the sketched selectors with a certificate, while ``approx=False`` —
  sketch knobs or not — and every λ = 0 solve stays exact,
  float-for-float.
"""

import pytest

import repro.engine.kernel as kernel_module
from repro.api import EngineConfig
from repro.core.instance import DiversificationInstance
from repro.core.objectives import Objective, ObjectiveKind
from repro.engine import (
    DiversificationEngine,
    EngineResult,
    ScoringKernel,
    numpy_available,
)
from repro.workloads import websearch
from repro.workloads.streaming import StreamingWebSearch
from repro.workloads.synthetic import random_instance

BACKENDS = [False] + ([True] if numpy_available() else [])

STORAGE_CONFIGS = {
    "dense": EngineConfig(),
    "tiled": EngineConfig(storage="tiled", block_size=4),
    "approx": EngineConfig(approx=True),
}


def distance_matrix(kernel):
    return [[kernel.distance_between(i, j) for j in range(kernel.n)] for i in range(kernel.n)]


@pytest.fixture
def storage_spy(monkeypatch):
    """Counts every distance-storage build the kernel layer performs."""
    calls = []
    real = kernel_module.make_storage

    def spy(n, *args, **kwargs):
        calls.append(n)
        return real(n, *args, **kwargs)

    monkeypatch.setattr(kernel_module, "make_storage", spy)
    return calls


class TestFirstReadAllocates:
    @pytest.mark.parametrize("use_numpy", BACKENDS)
    @pytest.mark.parametrize("storage", sorted(STORAGE_CONFIGS))
    def test_first_distance_read_allocates_once(self, storage_spy, storage, use_numpy):
        config = STORAGE_CONFIGS[storage]
        instance = random_instance(n=10, k=3, lam=0.5, seed=2)
        kernel = ScoringKernel(instance, use_numpy=use_numpy, config=config)
        # The engine's cached kernel for a λ > 0 F_MS instance, which
        # pair greedy reads pair by pair, starts without storage too.
        cached = DiversificationEngine(use_numpy=use_numpy, config=config).kernel_for(instance)
        for fresh in (kernel, cached):
            assert fresh.distances_materialized is False
            assert fresh.storage_stats()["kind"] == "deferred"
        assert storage_spy == []

        first = kernel.distance_between(1, 7)
        assert storage_spy == [kernel.n]
        assert kernel.distances_materialized
        reads = distance_matrix(kernel)
        assert len(storage_spy) == 1
        assert not cached.distances_materialized

        reference = ScoringKernel(instance, use_numpy=use_numpy, config=config)
        reference.materialize_all()
        assert reference.distances_fully_built
        assert first == reference.distance_between(1, 7)
        assert reads == distance_matrix(reference)


class TestStoragePlanning:
    @pytest.mark.parametrize("use_numpy", BACKENDS)
    @pytest.mark.parametrize(
        "kind, lam, algorithm",
        [
            (ObjectiveKind.MONO, 0.0, "modular_top_k"),
            (ObjectiveKind.MAX_SUM, 0.0, "greedy_max_sum"),
            (ObjectiveKind.MAX_SUM, 0.0, "greedy_marginal_max_sum"),
        ],
    )
    def test_rows_only_runs_build_no_storage(
        self, storage_spy, use_numpy, kind, lam, algorithm
    ):
        instance = random_instance(n=30, k=4, kind=kind, lam=lam, seed=1)
        engine = DiversificationEngine(use_numpy=use_numpy)
        result = engine.run(instance, algorithm)
        assert result is not None
        assert storage_spy == []

    @pytest.mark.parametrize("use_numpy", BACKENDS)
    def test_sampled_columns_runs_build_no_storage(self, storage_spy, use_numpy):
        instance = random_instance(n=30, k=4, lam=0.5, seed=1)
        engine = DiversificationEngine(use_numpy=use_numpy, config=EngineConfig(approx=True))
        result = engine.run(instance, "greedy_max_sum")
        assert result is not None
        assert result.certificate is not None
        assert storage_spy == []

    @pytest.mark.parametrize("algorithm", ["greedy_max_sum", "local_search"])
    def test_full_matrix_runs_still_build_storage(self, storage_spy, algorithm):
        instance = random_instance(n=20, k=4, lam=0.5, seed=1)
        engine = DiversificationEngine()
        result = engine.run(instance, algorithm)
        assert result is not None
        assert len(storage_spy) >= 1

    def test_selected_rows_defers_until_first_distance_read(self, storage_spy):
        """mmr reads only the rows it picks: the build itself allocates
        no storage — only the first actual distance read does."""
        instance = random_instance(n=20, k=4, lam=0.5, seed=1)
        engine = DiversificationEngine()
        kernel = engine.kernel_for(instance)
        assert storage_spy == []
        assert not kernel.distances_materialized
        engine.run(instance, "mmr")
        assert len(storage_spy) >= 1


class TestDeferredDeltaRegression:
    """A λ = 0 relevance-only kernel must stay matrix-free through its
    whole lifecycle, including delta patching."""

    @pytest.mark.parametrize("use_numpy", BACKENDS)
    def test_lam0_kernel_stays_deferred_across_updates(self, use_numpy):
        workload = StreamingWebSearch(num_docs=30, seed=3)
        instance = workload.make_instance(k=4, lam=0.0)
        engine = DiversificationEngine(use_numpy=use_numpy)
        first = engine.run(instance, "greedy_max_sum")
        assert first is not None
        [kernel] = engine._cache.values()
        assert not kernel.distances_materialized

        for _ in range(3):
            workload.step()
        instance.invalidate_cache()
        second = engine.run(instance, "greedy_max_sum")
        assert second is not None
        assert engine.stats.patches >= 1
        [kernel] = engine._cache.values()
        assert not kernel.distances_materialized

    def test_deferred_kernel_materializes_for_full_matrix_consumer(self):
        """Sharing across selectors is safe: the same cached kernel
        allocates storage when a distance-reading algorithm arrives, and
        its floats match a fresh engine's run."""
        instance = random_instance(n=20, k=4, lam=0.0, seed=4)
        engine = DiversificationEngine()
        engine.run(instance, "greedy_max_sum")
        [kernel] = engine._cache.values()
        assert not kernel.distances_materialized

        shifted = instance.with_objective(instance.objective.with_lambda(0.7))
        full = engine.run(shifted, "greedy_max_sum")
        assert full.kernel_reused and kernel.distances_materialized
        fresh = DiversificationEngine().run(shifted, "greedy_max_sum")
        assert (full.value, full.rows) == (fresh.value, fresh.rows)


class TestApproxDispatch:
    def test_approx_requires_opt_in(self):
        instance = random_instance(n=25, k=4, lam=0.5, seed=5)
        engine = DiversificationEngine(
            config=EngineConfig(sketch_columns=8, landmarks="farthest")
        )
        exact = DiversificationEngine()
        result = engine.run(instance, "greedy_max_sum")
        baseline = exact.run(instance, "greedy_max_sum")
        # approx off: sketch knobs alone still solve exactly, bit-equal.
        assert result.certificate is None
        assert result.value == baseline.value
        assert result.rows == baseline.rows

    @pytest.mark.parametrize("workload", ["synthetic", "websearch"])
    def test_approx_run_carries_certificate(self, workload):
        if workload == "synthetic":
            instance = random_instance(n=40, k=5, lam=0.5, seed=6)
        else:
            db = websearch.generate(num_docs=150, num_intents=8, seed=17)
            objective = Objective.from_provider(
                ObjectiveKind.MAX_SUM, websearch.scoring_provider(db), lam=0.5
            )
            instance = DiversificationInstance(
                websearch.documents_query(), db, k=10, objective=objective
            )
        engine = DiversificationEngine(config=EngineConfig(approx=True))
        exact = DiversificationEngine()
        result = engine.run(instance, "greedy_max_sum")
        cert = result.certificate
        assert cert is not None
        assert cert.lower <= result.value <= cert.upper + 1e-9
        baseline = exact.run(instance, "greedy_marginal_max_sum")
        assert result.value >= 0.9 * baseline.value

    @pytest.mark.parametrize("use_numpy", BACKENDS)
    def test_sketch_counts_in_storage_stats(self, use_numpy):
        """A sketched run's only distance data is the landmark sketch:
        the kernel and the engine totals report its n × m float64s."""
        instance = random_instance(n=100, k=4, lam=0.5, seed=6)
        engine = DiversificationEngine(use_numpy=use_numpy, config=EngineConfig(approx=True))
        kernel = engine.kernel_for(instance)
        assert kernel.storage_stats()["kind"] == "deferred"
        engine.run(instance, "greedy_max_sum")
        assert not kernel.distances_materialized
        stats = kernel.storage_stats()
        assert stats["kind"] == "sketched"
        assert stats["resident_bytes"] == 100 * kernel.sketch().columns * 8 > 0
        assert engine.storage_stats()["resident_bytes"] == stats["resident_bytes"]

    def test_approx_skips_relevance_only(self):
        instance = random_instance(n=25, k=4, lam=0.0, seed=7)
        engine = DiversificationEngine(config=EngineConfig(approx=True))
        exact = DiversificationEngine()
        result = engine.run(instance, "greedy_max_sum")
        assert result.certificate is None
        assert result.value == exact.run(instance, "greedy_max_sum").value

    def test_approx_reuses_cached_kernel(self):
        instance = random_instance(n=30, k=4, lam=0.5, seed=8)
        engine = DiversificationEngine(config=EngineConfig(approx=True))
        first = engine.run(instance, "greedy_max_sum")
        second = engine.run(instance, "mmr")
        assert not first.kernel_reused
        assert second.kernel_reused
        assert second.certificate is not None

    def test_approx_result_roundtrips(self):
        instance = random_instance(n=30, k=4, lam=0.5, seed=9)
        engine = DiversificationEngine(config=EngineConfig(approx=True))
        result = engine.run(instance, "greedy_max_sum")
        revived = EngineResult.from_dict(result.to_dict())
        assert revived.certificate == result.certificate
        assert revived.value == result.value
