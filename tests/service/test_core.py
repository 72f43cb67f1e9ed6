"""Tests for the async serving core (:mod:`repro.service.core`).

No pytest-asyncio in the toolchain: every async scenario runs under
``asyncio.run`` inside a sync test.  Coalescing assertions rely on the
service registering the in-flight future *before* its first await, so
followers gathered in the same loop tick observe it deterministically.
"""

import asyncio
import copy

import pytest

from repro.api import ApiError, DiversifyRequest, EngineConfig
from repro.service.cache import TTLCache
from repro.service.core import (
    DiversificationService,
    QuotaError,
    ServiceConfig,
    ServiceError,
)
from repro.service.registry import RegistryError
from repro.service.telemetry import LatencyHistogram


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def run(coro):
    return asyncio.run(coro)


def make_service(**overrides):
    defaults = dict(engine=EngineConfig(), result_ttl=30.0)
    defaults.update(overrides)
    return DiversificationService(ServiceConfig(**defaults))


REQ = DiversifyRequest(workload="synthetic", params={"n": 40}, k=5)


class TestCoalescing:
    def test_eight_identical_requests_one_build(self):
        service = make_service()

        async def scenario():
            return await asyncio.gather(*[service.diversify(REQ) for _ in range(8)])

        responses = run(scenario())
        assert len({r.value for r in responses}) == 1
        assert sorted(r.cache for r in responses).count("coalesced") == 7
        assert sorted(r.cache for r in responses).count("computed") == 1
        # exactly one kernel build and one selector run
        assert service.computed == 1
        assert service.coalesced == 7
        engine = service.engine_for(REQ.tenant)
        assert engine.stats.misses == 1
        assert engine.stats.hits == 0

    def test_distinct_requests_do_not_coalesce(self):
        service = make_service()

        async def scenario():
            return await asyncio.gather(
                service.diversify(REQ),
                service.diversify(DiversifyRequest(workload="synthetic",
                                                   params={"n": 40}, k=6)),
            )

        run(scenario())
        assert service.computed == 2
        assert service.coalesced == 0
        # ...but the two k-variants share one kernel
        assert service.engine_for("default").stats.misses == 1
        assert service.engine_for("default").stats.hits == 1

    def test_coalesce_disabled(self):
        service = make_service(coalesce=False)

        async def scenario():
            return await asyncio.gather(*[service.diversify(REQ) for _ in range(4)])

        responses = run(scenario())
        assert service.coalesced == 0
        # the first compute populates the TTL cache; later requests in the
        # gather may hit it or recompute, but none coalesce
        assert all(r.cache in ("computed", "cached") for r in responses)

    def test_duplicate_trace_counters_naive_and_served(self):
        """The serving gate's trace, small: 3 distinct (k, λ) keys fired 4
        times each, two waves.  Naive serving computes every request,
        coalescing plus the TTL cache computes each key once, and both
        build the kernel once."""
        unique = [
            DiversifyRequest(workload="synthetic", params={"n": 40}, k=k, lam=lam, algorithm="mmr")
            for k, lam in [(4, 0.2), (6, 0.5), (8, 0.8)]
        ]
        trace = [unique[i % 3] for i in range(12)]
        total = 2 * len(trace)

        def serve(**config):
            service = make_service(max_concurrent=total + 1, **config)

            async def scenario():
                for _ in range(2):
                    await asyncio.gather(*[service.diversify(r) for r in trace])

            run(scenario())
            return service

        naive = serve(coalesce=False, result_ttl=0.0)
        assert naive.computed == total
        assert naive.coalesced == 0
        assert naive.results.stats.hits == 0
        served = serve()
        assert served.computed == 3
        assert served.coalesced + served.results.stats.hits == total - 3
        for service in (naive, served):
            assert service.engine_for("default").stats.misses == 1

    def test_leader_failure_propagates_to_followers(self):
        service = make_service()
        bad = DiversifyRequest(
            workload="synthetic", params={"objective": "bogus"}, k=2
        )

        async def scenario():
            return await asyncio.gather(
                *[service.diversify(bad) for _ in range(3)],
                return_exceptions=True,
            )

        results = run(scenario())
        assert all(isinstance(r, Exception) for r in results)
        # nothing cached, nothing left in flight
        assert len(service.results) == 0
        assert len(service._inflight) == 0


class TestTTLCache:
    def test_expiry(self):
        clock = FakeClock()
        cache = TTLCache(ttl=10.0, clock=clock)
        cache.put("a", 1)
        assert cache.get("a") == 1
        clock.advance(9.999)
        assert cache.get("a") == 1
        clock.advance(0.001)
        assert cache.get("a") is None
        assert cache.stats.expired == 1
        assert cache.stats.hits == 2
        assert cache.stats.misses == 1

    def test_lru_eviction(self):
        cache = TTLCache(ttl=100.0, max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a
        cache.put("c", 3)  # evicts b
        assert cache.get("a") == 1
        assert cache.get("b") is None
        assert cache.get("c") == 3
        assert cache.stats.evictions == 1

    def test_disabled_when_ttl_zero(self):
        cache = TTLCache(ttl=0.0)
        assert not cache.enabled
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0

    def test_invalidate_predicate(self):
        cache = TTLCache(ttl=100.0)
        cache.put(("w", 1), "x")
        cache.put(("w", 2), "y")
        cache.put(("v", 1), "z")
        assert cache.invalidate(lambda key: key[0] == "w") == 2
        assert cache.get(("v", 1)) == "z"
        assert cache.stats.invalidations == 2

    def test_service_ttl_expiry_recomputes(self):
        clock = FakeClock()
        service = DiversificationService(
            ServiceConfig(result_ttl=10.0), clock=clock
        )

        async def scenario():
            first = await service.diversify(REQ)
            clock.advance(1.0)
            warm = await service.diversify(REQ)
            clock.advance(15.0)
            expired = await service.diversify(REQ)
            return first, warm, expired

        first, warm, expired = run(scenario())
        assert first.cache == "computed"
        assert warm.cache == "cached"
        assert expired.cache == "computed"
        assert service.results.stats.expired == 1
        assert first.value == warm.value == expired.value
        # the recompute after expiry still reuses the kernel
        assert service.engine_for("default").stats.misses == 1
        assert service.engine_for("default").stats.hits == 1


class TestQuotas:
    def test_max_k_rejected(self):
        service = make_service(max_k=10)
        with pytest.raises(QuotaError, match="max_k"):
            run(service.diversify(DiversifyRequest(workload="synthetic", k=11)))
        assert service.quota_rejections == 1

    def test_max_concurrent_rejected(self):
        service = make_service(max_concurrent=2, result_ttl=0.0, coalesce=False)
        reqs = [
            DiversifyRequest(workload="synthetic", params={"n": 40}, k=2 + i)
            for i in range(4)
        ]

        async def scenario():
            return await asyncio.gather(
                *[service.diversify(r) for r in reqs], return_exceptions=True
            )

        results = run(scenario())
        rejected = [r for r in results if isinstance(r, QuotaError)]
        served = [r for r in results if not isinstance(r, Exception)]
        assert len(rejected) == 2
        assert len(served) == 2
        assert service.quota_rejections == 2

    def test_coalesced_followers_are_quota_free(self):
        service = make_service(max_concurrent=1)

        async def scenario():
            return await asyncio.gather(*[service.diversify(REQ) for _ in range(6)])

        responses = run(scenario())
        assert all(not isinstance(r, Exception) for r in responses)
        assert service.quota_rejections == 0

    def test_max_answer_set(self):
        service = make_service(max_answer_set=10)
        with pytest.raises(QuotaError, match="max_answer_set"):
            run(service.diversify(REQ))  # synthetic n=40 > 10


class TestTenants:
    def test_tenants_get_separate_engines(self):
        service = make_service()

        async def scenario():
            await service.diversify(REQ)
            await service.diversify(
                DiversifyRequest(workload="synthetic", params={"n": 40}, k=5,
                                 tenant="other")
            )

        run(scenario())
        assert service.engine_for("default") is not service.engine_for("other")
        assert service.engine_for("default").stats.misses == 1
        assert service.engine_for("other").stats.misses == 1
        stats = service.stats()
        assert set(stats["tenants"]) == {"default", "other"}


class TestSweep:
    def test_sweep_shares_one_kernel(self):
        service = make_service()

        async def scenario():
            return await service.sweep(REQ, ks=[2, 3], lams=[0.2, 0.8])

        payload = run(scenario())
        assert len(payload["cells"]) == 4
        assert payload["cache"] == "computed"
        assert {(c["k"], c["lam"]) for c in payload["cells"]} == {
            (2, 0.2), (2, 0.8), (3, 0.2), (3, 0.8)
        }
        assert service.engine_for("default").stats.misses == 1

    def test_sweep_coalesces(self):
        service = make_service()

        async def scenario():
            return await asyncio.gather(
                *[service.sweep(REQ, ks=[2, 3], lams=[0.5]) for _ in range(3)]
            )

        payloads = run(scenario())
        assert sorted(p["cache"] for p in payloads) == [
            "coalesced", "coalesced", "computed"
        ]
        assert service.computed == 1

    def test_cached_and_coalesced_sweeps_render_fresh_payloads(self):
        """The cache keeps the cells, not wire dicts: a coalesced and a
        TTL-hit sweep equal the computed payload cell for cell (bar the
        provenance fields), and no caller's edits reach the next hit."""
        service = make_service()

        def without_provenance(payload):
            return {
                key: value for key, value in payload.items()
                if key not in ("cache", "elapsed_ms")
            }

        async def scenario():
            first, follower = await asyncio.gather(
                service.sweep(REQ, ks=[2, 3], lams=[0.2, 0.8]),
                service.sweep(REQ, ks=[2, 3], lams=[0.2, 0.8]),
            )
            computed = copy.deepcopy(first)
            first["cells"][0]["indices"].append(-1)
            first["cells"].pop()
            hit = await service.sweep(REQ, ks=[2, 3], lams=[0.2, 0.8])
            computed_hit = copy.deepcopy(hit)
            hit["cells"][1]["rows"].clear()
            again = await service.sweep(REQ, ks=[2, 3], lams=[0.2, 0.8])
            return computed, follower, computed_hit, again

        computed, follower, hit, again = run(scenario())
        assert [p["cache"] for p in (computed, follower, hit, again)] == [
            "computed", "coalesced", "cached", "cached"
        ]
        assert list(computed) == ["workload", "cells", "cache", "elapsed_ms"]
        assert len(computed["cells"]) == 4
        assert list(computed["cells"][0])[:2] == ["k", "lam"]
        for payload in (follower, hit, again):
            assert list(payload) == list(computed)
            assert without_provenance(payload) == without_provenance(computed)
        assert service.computed == 1

    def test_sweep_cell_limit(self):
        service = make_service(max_sweep_cells=4)
        with pytest.raises(ServiceError, match="max_sweep_cells"):
            run(service.sweep(REQ, ks=[1, 2, 3], lams=[0.1, 0.5]))


class TestDelta:
    def test_delta_patches_and_repairs(self):
        service = make_service()
        req = DiversifyRequest(workload="streaming", k=5)

        async def scenario():
            first = await service.diversify(req)
            moved = await service.delta("streaming", events=2, k=5)
            return first, moved

        first, moved = run(scenario())
        assert first.cache == "computed"
        assert len(moved["events"]) == 2
        assert moved["selection"]["feasible"] is True
        assert "repair" in moved or moved["selection"]["algorithm"] is not None
        # the stale kernel was patched, not rebuilt
        assert moved["kernel"]["patches"] == 1
        assert moved["kernel"]["stale_rebuilds"] == 0

    @pytest.mark.parametrize("patch_threshold", [0.5, 0.0])
    @pytest.mark.parametrize(
        "algorithm, events, reason, indices, value",
        [
            ("mmr", 2, "deletions never selected", [36, 22, 23, 4, 11], 17.254),
            (
                "mmr",
                3,
                "an inserted row's bound beats the current marginal",
                [36, 22, 23, 4, 11],
                17.254,
            ),
            (
                "greedy_max_sum",
                3,
                "no sound insertion bound for 'greedy_max_sum'",
                [22, 36, 4, 44, 11],
                17.466,
            ),
        ],
    )
    def test_delta_diffs_once(
        self, monkeypatch, patch_threshold, algorithm, events, reason, indices, value
    ):
        """One /delta diffs the answer set once — the engine's diff feeds
        the repair — and answers as the double-diff path did."""
        import repro.engine.engine as engine_module
        import repro.engine.updates as updates_module

        diffs = []
        original = updates_module.compute_delta

        def counting(kernel, rows):
            diffs.append(kernel.n)
            return original(kernel, rows)

        for module in (engine_module, updates_module):
            monkeypatch.setattr(module, "compute_delta", counting)
        service = make_service(engine=EngineConfig(patch_threshold=patch_threshold))
        req = DiversifyRequest(workload="streaming", k=5, algorithm=algorithm)

        async def scenario():
            await service.diversify(req)
            return await service.delta("streaming", events=events, k=5, algorithm=algorithm)

        moved = run(scenario())
        assert len(diffs) == 1
        rebuilt = patch_threshold == 0.0
        assert moved["kernel"] == {"patches": int(not rebuilt), "stale_rebuilds": int(rebuilt)}
        reran = events == 3
        assert moved["repair"] == {"reran": reran, "reason": reason}
        selection = moved["selection"]
        assert selection["indices"] == indices
        assert selection["value"] == pytest.approx(value)
        assert selection["kernel_reused"] is not reran

    def test_delta_after_eviction_builds_in_the_run(self):
        """A /delta whose kernel left the cache has no snapshot to diff:
        the run builds the kernel, so nothing is reused, repaired or hit."""
        service = make_service()
        req = DiversifyRequest(workload="streaming", k=5)
        engine = service.engine_for(req.tenant, service.shard_for(req))

        async def scenario():
            await service.diversify(req)
            engine.clear_cache()
            before = (engine.stats.hits, engine.stats.misses)
            moved = await service.delta("streaming", events=2, k=5)
            return moved, before

        moved, (hits, misses) = run(scenario())
        assert "repair" not in moved
        assert moved["selection"]["feasible"] is True
        assert moved["selection"]["kernel_reused"] is False
        assert moved["kernel"] == {"patches": 0, "stale_rebuilds": 0}
        assert engine.stats.hits == hits
        assert engine.stats.misses == misses + 1

    def test_delta_invalidates_cached_results(self):
        service = make_service()
        req = DiversifyRequest(workload="streaming", k=5)

        async def scenario():
            await service.diversify(req)
            warm = await service.diversify(req)
            await service.delta("streaming", events=1, k=5)
            after = await service.diversify(req)
            return warm, after

        warm, after = run(scenario())
        assert warm.cache == "cached"
        # the delta evicted the stale entry: this is a fresh computation
        assert after.cache == "computed"
        assert service.results.stats.invalidations >= 1

    def test_delta_on_static_workload_rejected(self):
        service = make_service()
        with pytest.raises(ServiceError, match="update feed"):
            run(service.delta("synthetic", events=1))

    def test_delta_without_k_only_steps(self):
        service = make_service()
        payload = run(service.delta("streaming", events=3))
        assert len(payload["events"]) == 3
        assert "selection" not in payload


class TestApproxAdmission:
    """``approx_over``: answer sets beyond the threshold run on the
    per-tenant sketched engine and report their certificate; everything
    else (and every delta repair) stays exact."""

    BIG = DiversifyRequest(workload="synthetic", params={"n": 400}, k=5)

    def make_approx_service(self, **overrides):
        return make_service(max_answer_set=100, approx_over=150, **overrides)

    def test_small_requests_stay_exact(self):
        service = self.make_approx_service()
        response = run(service.diversify(REQ))  # n=40
        assert response.certificate is None
        assert service.served_exact == 1
        assert service.served_approx == 0

    def test_midsize_requests_still_hit_quota(self):
        service = self.make_approx_service()
        with pytest.raises(QuotaError, match="max_answer_set"):
            run(service.diversify(
                DiversifyRequest(workload="synthetic", params={"n": 120}, k=5)
            ))

    def test_large_requests_route_to_sketched_engine(self):
        service = self.make_approx_service()
        response = run(service.diversify(self.BIG))
        assert response.feasible
        cert = response.certificate
        assert cert is not None
        assert cert["lower"] <= response.value <= cert["upper"] + 1e-9
        assert service.served_approx == 1
        stats = service.stats()
        assert stats["requests"]["served_approx"] == 1
        assert stats["requests"]["served_exact"] == 0
        assert stats["tenants"]["default"]["approx_cached_kernels"] == 1
        assert stats["config"]["approx_over"] == 150
        # Its exact fallbacks (λ = 0, constraints) read lazy float64 tiles.
        config = service.approx_engine_for("default").config
        assert (config.storage, config.approx, config.dtype) == ("tiled", True, None)

    def test_approx_admission_disabled_by_default(self):
        service = make_service(max_answer_set=100)
        with pytest.raises(QuotaError, match="max_answer_set"):
            run(service.diversify(self.BIG))

    def test_relevance_only_admission_is_exact(self):
        """The sketched engine only approximates λ > 0 solves; a λ = 0
        request over the threshold is admitted but served exactly."""
        service = self.make_approx_service()
        request = DiversifyRequest(
            workload="synthetic", params={"n": 400}, k=5, lam=0.0
        )
        response = run(service.diversify(request))
        assert response.certificate is None
        assert service.served_exact == 1
        assert service.served_approx == 0

    def test_sweep_cells_carry_certificates(self):
        service = self.make_approx_service(max_sweep_cells=16)
        request = DiversifyRequest(workload="synthetic", params={"n": 400})
        payload = run(service.sweep(request, ks=[3, 5], lams=[0.3, 0.7]))
        cells = payload["cells"]
        assert len(cells) == 4
        assert all(cell["certificate"] is not None for cell in cells)
        assert service.served_approx == 4


class TestErrorsAndStats:
    def test_unknown_workload(self):
        service = make_service()
        with pytest.raises(RegistryError, match="unknown workload"):
            run(service.diversify(DiversifyRequest(workload="nope")))

    def test_unknown_params(self):
        service = make_service()
        with pytest.raises(ApiError, match="unknown parameter"):
            run(service.diversify(
                DiversifyRequest(workload="synthetic", params={"zap": 1})
            ))

    def test_stats_shape(self):
        service = make_service()

        async def scenario():
            await asyncio.gather(*[service.diversify(REQ) for _ in range(3)])
            await service.diversify(REQ)

        run(scenario())
        stats = service.stats()
        assert stats["requests"]["computed"] == 1
        assert stats["requests"]["coalesced"] == 2
        assert stats["requests"]["inflight"] == 0
        assert stats["result_cache"]["hits"] == 1
        assert stats["result_cache"]["stores"] == 1
        diversify = stats["latency"]["diversify"]
        assert diversify["count"] == 4
        assert diversify["p50_ms"] is not None
        assert diversify["p50_ms"] <= diversify["p99_ms"]
        tenant = stats["tenants"]["default"]
        assert tenant["kernel_cache"]["misses"] == 1
        assert tenant["cached_kernels"] == 1
        assert stats["config"]["coalesce"] is True
        assert "warm_pools" not in stats  # no build starts a process pool

    def test_healthz(self):
        service = make_service()
        payload = service.healthz()
        assert payload["status"] == "ok"
        assert "synthetic" in payload["workloads"]


class TestLatencyHistogram:
    def test_nearest_rank_percentiles(self):
        histogram = LatencyHistogram(window=100)
        for ms in range(1, 101):  # 1..100 ms
            histogram.record(ms / 1000.0)
        assert histogram.percentile(50) == pytest.approx(50.0)
        assert histogram.percentile(95) == pytest.approx(95.0)
        assert histogram.percentile(99) == pytest.approx(99.0)
        assert histogram.percentile(100) == pytest.approx(100.0)
        assert histogram.mean_ms == pytest.approx(50.5)

    def test_window_bounds_memory(self):
        histogram = LatencyHistogram(window=10)
        for _ in range(1000):
            histogram.record(0.001)
        assert len(histogram._samples_ms) == 10
        assert histogram.count == 1000

    def test_empty(self):
        histogram = LatencyHistogram()
        assert histogram.percentile(50) is None
        summary = histogram.summary()
        assert summary["count"] == 0
        assert summary["p50_ms"] is None
