"""Tests for the DiversificationEngine: batching, caching, dispatch."""

import pytest

from repro.algorithms.exact import best_modular, branch_and_bound_max_sum
from repro.api import EngineConfig
from repro.core.objectives import ObjectiveKind
from repro.engine import (
    ALGORITHMS,
    DiversificationEngine,
    EngineError,
    modular_top_k,
    ScoringKernel,
    auto_algorithm,
)
from repro.workloads import teams
from repro.workloads.synthetic import random_instance
from repro.core.instance import DiversificationInstance
from repro.core.objectives import Objective


def teams_instance(k=4, lam=0.5, num_players=12):
    db = teams.generate(num_players=num_players)
    objective = Objective.max_sum(
        teams.skill_relevance(), teams.position_distance(), lam=lam
    )
    return DiversificationInstance(teams.roster_query(), db, k=k, objective=objective)


class TestConfiguration:
    def test_unknown_algorithm_rejected_up_front(self):
        with pytest.raises(EngineError):
            DiversificationEngine(algorithm="definitely-not-real")

    def test_unknown_algorithm_rejected_at_run(self):
        engine = DiversificationEngine()
        with pytest.raises(EngineError):
            engine.run(random_instance(n=5, k=2), algorithm="nope")

    def test_bad_cache_size(self):
        with pytest.raises(EngineError):
            DiversificationEngine(config=EngineConfig(cache_size=0))


class TestRun:
    def test_run_matches_direct_algorithm(self):
        instance = random_instance(n=12, k=4, kind=ObjectiveKind.MAX_SUM, lam=0.6)
        engine = DiversificationEngine(algorithm="greedy_max_sum")
        result = engine.run(instance)
        from repro.algorithms.greedy import greedy_max_sum

        direct = greedy_max_sum(instance)
        assert result.value == pytest.approx(direct[0], rel=1e-9)
        assert result.rows == direct[1]
        assert result.algorithm == "greedy_max_sum"
        assert not result.kernel_reused  # first run builds the kernel

    def test_run_returns_none_when_k_exceeds_answers(self):
        instance = random_instance(n=3, k=5)
        engine = DiversificationEngine(algorithm="greedy_max_sum")
        assert engine.run(instance) is None

    def test_every_registered_algorithm_runs(self):
        for name in ALGORITHMS:
            if name == "greedy_max_min":
                instance = random_instance(
                    n=10, k=3, kind=ObjectiveKind.MAX_MIN, lam=0.5
                )
            elif name == "modular_top_k":
                instance = random_instance(
                    n=10, k=3, kind=ObjectiveKind.MONO, lam=0.5
                )
            else:
                instance = random_instance(
                    n=10, k=3, kind=ObjectiveKind.MAX_SUM, lam=0.5
                )
            engine = DiversificationEngine(algorithm=name)
            result = engine.run(instance)
            assert result is not None
            assert result.algorithm == name
            assert len(result.rows) == 3


class TestAutoDispatch:
    def test_auto_by_objective(self):
        assert (
            auto_algorithm(random_instance(n=6, k=2, kind=ObjectiveKind.MAX_SUM))
            == "greedy_max_sum"
        )
        assert (
            auto_algorithm(
                random_instance(n=6, k=2, kind=ObjectiveKind.MAX_MIN, lam=0.5)
            )
            == "greedy_max_min"
        )
        assert (
            auto_algorithm(random_instance(n=6, k=2, kind=ObjectiveKind.MONO))
            == "modular_top_k"
        )
        # λ = 0 F_MS is modular → the PTIME exact path
        assert (
            auto_algorithm(
                random_instance(n=6, k=2, kind=ObjectiveKind.MAX_SUM, lam=0.0)
            )
            == "modular_top_k"
        )

    def test_auto_with_constraints_uses_local_search(self):
        instance = teams_instance(k=4)
        constrained = instance.with_constraints(teams.quota_constraints())
        assert auto_algorithm(constrained) == "local_search"
        engine = DiversificationEngine(algorithm="auto")
        result = engine.run(constrained)
        assert result.algorithm == "local_search"
        assert constrained.constraints.satisfied_by(list(result.rows))

    def test_auto_modular_is_exact(self):
        instance = random_instance(n=12, k=4, kind=ObjectiveKind.MONO, lam=0.7)
        engine = DiversificationEngine(algorithm="auto")
        result = engine.run(instance)
        assert result.algorithm == "modular_top_k"
        assert result.value == pytest.approx(best_modular(instance)[0], rel=1e-9)

    def test_auto_greedy_respects_approximation_bound(self):
        instance = random_instance(n=12, k=4, kind=ObjectiveKind.MAX_SUM, lam=0.7)
        engine = DiversificationEngine()
        result = engine.run(instance)
        optimum = branch_and_bound_max_sum(instance)[0]
        assert result.value >= 0.5 * optimum - 1e-9


class TestModularTopK:
    def test_direct_fallback_equals_best_modular(self):
        instance = random_instance(n=10, k=3, kind=ObjectiveKind.MONO, lam=0.4)
        direct = modular_top_k(instance)
        kernel = ScoringKernel(instance, use_numpy=False)
        routed = modular_top_k(instance, kernel)
        reference = best_modular(instance)
        assert direct[1] == reference[1]
        assert routed[1] == reference[1]
        assert routed[0] == pytest.approx(reference[0], rel=1e-9)

    def test_rejects_non_modular(self):
        instance = random_instance(n=8, k=3, kind=ObjectiveKind.MAX_SUM, lam=0.5)
        kernel = ScoringKernel(instance, use_numpy=False)
        with pytest.raises(ValueError):
            modular_top_k(instance, kernel)


class TestCaching:
    def test_sweep_reuses_one_kernel(self):
        engine = DiversificationEngine(algorithm="mmr")
        instance = teams_instance(k=4)
        grid = engine.sweep(instance, ks=[2, 4], lams=[0.2, 0.5, 0.9])
        assert len(grid) == 6
        assert engine.stats.misses == 1
        assert engine.stats.hits == 5
        assert engine.cached_kernels == 1
        reused = [result.kernel_reused for _, _, result in grid]
        assert reused == [False, True, True, True, True, True]

    def test_distinct_materializations_get_distinct_kernels(self):
        engine = DiversificationEngine(algorithm="greedy_max_sum")
        a = teams_instance(k=3)
        b = random_instance(n=10, k=3, kind=ObjectiveKind.MAX_SUM, lam=0.5)
        engine.run(a)
        engine.run(b)
        engine.run(a)  # still cached
        assert engine.stats.misses == 2
        assert engine.stats.hits == 1
        assert engine.cached_kernels == 2

    def test_lru_eviction(self):
        engine = DiversificationEngine(
            algorithm="greedy_max_sum", config=EngineConfig(cache_size=2)
        )
        instances = [
            random_instance(n=8, k=2, kind=ObjectiveKind.MAX_SUM, seed=s)
            for s in range(3)
        ]
        for instance in instances:
            engine.run(instance)
        assert engine.cached_kernels == 2
        assert engine.stats.evictions == 1
        # Oldest (seed 0) was evicted: running it again is a miss.
        engine.run(instances[0])
        assert engine.stats.misses == 4

    def test_run_batch_over_shared_data(self):
        engine = DiversificationEngine(algorithm="mmr")
        base = teams_instance(k=3)
        batch = [base, base.with_k(5), base.with_objective(
            base.objective.with_lambda(0.8)
        )]
        results = engine.run_batch(batch)
        assert all(r is not None for r in results)
        assert engine.stats.misses == 1 and engine.stats.hits == 2
        assert engine.stats.hit_rate == pytest.approx(2 / 3)

    def test_clear_cache(self):
        engine = DiversificationEngine(algorithm="mmr")
        engine.run(teams_instance())
        assert engine.cached_kernels == 1
        engine.clear_cache()
        assert engine.cached_kernels == 0

    def test_in_place_db_mutation_patches_kernel(self):
        from repro.algorithms.mmr import mmr_select

        instance = teams_instance(k=3, num_players=9)
        engine = DiversificationEngine(algorithm="mmr")
        engine.run(instance)
        # Mutate the database in place: a new star player appears.
        relation = instance.db.relation(teams.PLAYERS.name)
        relation.add(("p99", "Star Player", "guard", 99, 20))
        instance.invalidate_cache()
        result = engine.run(instance)
        # The stale kernel (without p99) must not be served as-is: the
        # single-row delta is patched in place, not rebuilt.
        assert engine.stats.misses == 1
        assert engine.stats.patches == 1
        assert result.kernel_reused
        direct = mmr_select(instance)
        assert result.rows == direct[1]
        assert result.value == pytest.approx(direct[0], rel=1e-9)
        assert any(row["id"] == "p99" for row in result.rows)

    def test_large_mutation_rebuilds_instead_of_patching(self):
        instance = teams_instance(k=3, num_players=8)
        engine = DiversificationEngine(algorithm="mmr")
        engine.run(instance)
        # Replace most of the roster: the delta exceeds the patch
        # threshold, so the stale kernel is displaced and rebuilt.
        relation = instance.db.relation(teams.PLAYERS.name)
        for row in list(relation.rows)[:6]:
            relation.discard(row)
        for i in range(6):
            relation.add((f"n{i:02d}", f"New Player {i}", "center", 50 + i, 10))
        instance.invalidate_cache()
        result = engine.run(instance)
        assert engine.stats.misses == 2
        assert engine.stats.stale_rebuilds == 1
        assert engine.stats.patches == 0
        assert not result.kernel_reused

    def test_patch_threshold_zero_disables_patching(self):
        instance = teams_instance(k=3, num_players=9)
        engine = DiversificationEngine(
            algorithm="mmr", config=EngineConfig(patch_threshold=0.0)
        )
        engine.run(instance)
        instance.db.relation(teams.PLAYERS.name).add(
            ("p98", "Another Player", "guard", 42, 15)
        )
        instance.invalidate_cache()
        engine.run(instance)
        assert engine.stats.patches == 0
        assert engine.stats.misses == 2
        assert engine.stats.stale_rebuilds == 1

    def test_negative_patch_threshold_rejected(self):
        with pytest.raises(EngineError):
            DiversificationEngine(config=EngineConfig(patch_threshold=-0.1))
