"""Per-tenant engine sharding (:mod:`repro.service.core`).

``engine_shards`` consistent-hashes each request's **corpus key** —
the materialization identity without k/λ/algorithm — onto one of N
engines per tenant, so kernel LRUs partition instead of thrashing one
cache while every variant of one corpus still shares a shard (and so
its cached kernel).  These tests pin the contract: deterministic
placement, corpus variants co-locating (with ``shard_rebalance``
counting the ones a full-key hash would have scattered), sweep
requests landing on the same shard as plain requests over their corpus
(kernel sharing), delta invalidation reaching every live shard, and
``stats()`` aggregating counters across shards while keeping the
historical payload shape at ``engine_shards=1``.
"""

import asyncio

import pytest

from repro.api import DiversifyRequest, EngineConfig
from repro.service.core import (
    DiversificationService,
    ServiceConfig,
    ServiceError,
)


def run(coro):
    return asyncio.run(coro)


def make_service(**overrides):
    defaults = dict(engine=EngineConfig(), result_ttl=30.0)
    defaults.update(overrides)
    return DiversificationService(ServiceConfig(**defaults))


def request_for(n, k=5):
    return DiversifyRequest(workload="synthetic", params={"n": n}, k=k)


def requests_on_distinct_shards(service, count=2, k=5):
    """Synthetic requests guaranteed to land on ``count`` different
    shards (placement is a deterministic hash, so probe for them)."""
    picked, seen = [], set()
    for n in range(20, 200):
        request = request_for(n, k=k)
        shard = service.shard_of(request.corpus_key())
        if shard not in seen:
            seen.add(shard)
            picked.append(request)
            if len(picked) == count:
                return picked
    raise AssertionError(f"could not find {count} distinct shards")


class TestPlacement:
    def test_config_rejects_bad_shards(self):
        with pytest.raises(ServiceError, match="engine_shards"):
            ServiceConfig(engine=EngineConfig(), engine_shards=0)

    def test_shard_of_is_deterministic_and_bounded(self):
        service = make_service(engine_shards=4)
        request = request_for(40)
        first = service.shard_of(request.key())
        assert 0 <= first < 4
        assert all(
            service.shard_of(request.key()) == first for _ in range(5)
        )

    def test_single_shard_config_pins_everything_to_zero(self):
        service = make_service()  # engine_shards=1 default
        assert all(
            service.shard_of(request_for(n).key()) == 0 for n in range(20, 60)
        )

    def test_shard_engines_are_created_lazily(self):
        service = make_service(engine_shards=4)
        assert len(service._engines) == 0
        requests = requests_on_distinct_shards(service, count=2)

        async def scenario():
            for request in requests:
                await service.diversify(request)

        run(scenario())
        # The tenant's shard-0 engine plus one per shard that served.
        live = {0} | {service.shard_of(r.corpus_key()) for r in requests}
        assert set(service._engines) == {("default", s) for s in live}
        assert set(service._locks) == set(service._engines)


class TestCorpusAffinity:
    def test_variants_of_one_corpus_share_a_shard_and_kernel(self):
        """k/λ/algorithm variants differ in ``key()`` but not
        ``corpus_key()`` — all land on one shard and reuse one kernel."""
        service = make_service(engine_shards=4)
        variants = [
            DiversifyRequest(workload="synthetic", params={"n": 40}, k=k,
                             lam=lam, algorithm=algorithm)
            for k, lam, algorithm in [
                (3, 0.3, None),
                (5, 0.5, None),
                (7, 0.7, "greedy_max_sum"),
            ]
        ]
        corpus_shards = {service.shard_for(r) for r in variants}
        assert len(corpus_shards) == 1
        shard = corpus_shards.pop()

        async def scenario():
            for request in variants:
                await service.diversify(request)

        run(scenario())
        engine = service.engine_for("default", shard)
        assert engine.stats.misses == 1  # one corpus, one kernel
        assert engine.stats.hits >= len(variants) - 1

    def test_shard_rebalance_counts_full_key_divergence(self):
        """Whenever a full-key hash disagrees with corpus placement the
        service counts the request it kept on-corpus."""
        service = make_service(engine_shards=4)
        diverged = 0
        for k in range(3, 40):
            request = request_for(40, k=k)
            full = service.shard_of(request.key())
            assert service.shard_for(request) == service.shard_of(
                request.corpus_key()
            )
            if full != service.shard_of(request.corpus_key()):
                diverged += 1
        assert diverged > 0  # the probe range must exercise divergence
        assert service.shard_rebalance == diverged
        stats = service.stats()
        assert stats["requests"]["shard_rebalance"] == diverged

    def test_single_shard_never_counts_rebalance(self):
        service = make_service()  # engine_shards=1
        for k in range(3, 10):
            assert service.shard_for(request_for(40, k=k)) == 0
        assert service.shard_rebalance == 0


class TestKernelPartitioning:
    def test_requests_partition_across_shard_engines(self):
        service = make_service(engine_shards=4)
        requests = requests_on_distinct_shards(service, count=2)

        async def scenario():
            for request in requests:
                await service.diversify(request)

        run(scenario())
        for request in requests:
            shard = service.shard_of(request.corpus_key())
            engine = service.engine_for(request.tenant, shard)
            assert engine.stats.misses == 1  # exactly its own kernel
        total = sum(
            e.stats.misses for e in service._tenant_engines("default")
        )
        assert total == len(requests)

    def test_sweep_lands_on_the_plain_request_shard(self):
        """A sweep must shard on the corpus key (not the sweep key) so
        it reuses the kernel a plain request over the corpus built."""
        service = make_service(engine_shards=4)
        request = request_for(40)
        shard = service.shard_of(request.corpus_key())

        async def scenario():
            await service.diversify(request)
            return await service.sweep(request, ks=[3, 5], lams=[0.3, 0.7])

        payload = run(scenario())
        assert len(payload["cells"]) == 4
        engine = service.engine_for(request.tenant, shard)
        assert engine.stats.misses == 1  # one corpus, one kernel
        assert engine.stats.hits >= 1  # sweep cells reused it
        for other in range(4):
            if other == shard:
                continue
            if other == 0:
                assert service.engine_for("default").stats.lookups == (
                    0 if shard != 0 else engine.stats.lookups
                )


class TestDeltaAcrossShards:
    def test_delta_reaches_every_live_shard(self):
        service = make_service(engine_shards=3)
        stream = DiversifyRequest(workload="streaming", k=5)
        shard = service.shard_of(stream.corpus_key())

        async def scenario():
            await service.diversify(stream)
            # populate another shard so the exit-stack path holds >1 lock
            for request in requests_on_distinct_shards(service, count=2):
                await service.diversify(request)
            return await service.delta("streaming", events=2, k=5)

        payload = run(scenario())
        assert payload["events"]
        assert "selection" in payload
        # the repair ran on the stream's shard engine
        engine = service.engine_for("default", shard)
        kernel = payload["kernel"]
        assert kernel["patches"] + kernel["stale_rebuilds"] >= 0
        assert engine.stats.lookups >= 1

    def test_delta_with_no_live_shards_still_works(self):
        service = make_service(engine_shards=3)
        payload = run(service.delta("streaming", events=1))
        assert payload["events"]


class TestStats:
    def test_single_shard_payload_keeps_historical_shape(self):
        service = make_service()
        run(service.diversify(request_for(40)))
        tenant = service.stats()["tenants"]["default"]
        assert tenant["shards"] == 1
        assert tenant["kernel_cache"]["misses"] == 1
        assert tenant["kernel_cache"]["hit_rate"] == 0.0
        assert set(tenant["storage"]) == {
            "evictions",
            "spills",
            "spill_failures",
            "spill_loads",
            "rebuilds",
            "mmap_reads",
            "bytes_mapped",
            "resident_tiles",
            "resident_bytes",
        }

    def test_counters_aggregate_across_shards(self):
        service = make_service(engine_shards=4)
        requests = requests_on_distinct_shards(service, count=2)

        async def scenario():
            for request in requests:
                await service.diversify(request)
                await service.diversify(request)  # cached; no new kernel

        run(scenario())
        tenant = service.stats()["tenants"]["default"]
        assert tenant["shards"] == len(service._tenant_engines("default"))
        assert tenant["kernel_cache"]["misses"] == len(requests)
        assert tenant["cached_kernels"] == len(requests)

    def test_spill_counters_surface_in_stats(self):
        service = make_service(
            engine=EngineConfig(
                storage="tiled", block_size=8, max_resident_tiles=2
            ),
            engine_shards=2,
        )
        run(service.diversify(request_for(48)))
        storage = service.stats()["tenants"]["default"]["storage"]
        assert storage["resident_tiles"] <= 2
        assert storage["evictions"] > 0
        assert storage["spills"] == 0  # no spill_dir configured

    def test_spill_failures_surface_in_stats(self, tmp_path):
        """A spill directory that cannot be created fails no request:
        the evicted tiles rebuild on touch, and the failed spills are
        counted in ``/stats``."""
        blocker = tmp_path / "spill"
        blocker.write_text("")
        service = make_service(
            engine=EngineConfig(
                storage="tiled",
                block_size=8,
                max_resident_tiles=2,
                spill_dir=str(blocker),
            ),
        )
        response = run(service.diversify(request_for(48)))
        assert response.feasible
        storage = service.stats()["tenants"]["default"]["storage"]
        assert storage["evictions"] > 0
        assert storage["spill_failures"] > 0
        assert storage["spills"] == 0
