"""Tests for the unified request/config API (:mod:`repro.api`)."""

import argparse
import json
import math
import re

import pytest

from repro.api import (
    ApiError,
    DiversifyRequest,
    DiversifyResponse,
    EngineConfig,
    add_engine_config_args,
    canonical_params,
    float_from_json,
    json_float,
)
from repro.core.diversify import diversify
from repro.engine.engine import DiversificationEngine, EngineError, EngineResult
from repro.workloads import synthetic


@pytest.fixture
def instance():
    return synthetic.random_instance(n=25, k=4, seed=3)


class TestScalars:
    def test_nan_round_trip(self):
        assert json_float(float("nan")) is None
        assert math.isnan(float_from_json(None))
        assert json_float(1.5) == 1.5
        assert float_from_json(1.5) == 1.5
        assert json_float(None) is None

    def test_canonical_params_order_insensitive(self):
        assert canonical_params({"b": 2, "a": 1}) == canonical_params({"a": 1, "b": 2})
        assert canonical_params(None) == canonical_params({})


class TestEngineConfig:
    def test_defaults_validate(self):
        config = EngineConfig().validate()
        assert config.cache_size == 8
        assert config.patch_threshold == 0.5

    def test_round_trip(self):
        config = EngineConfig(storage="tiled", dtype="float32", workers=2)
        assert EngineConfig.from_dict(config.to_dict()) == config
        # to_dict is strict JSON
        assert EngineConfig.from_dict(json.loads(json.dumps(config.to_dict()))) == config

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ApiError, match="unknown"):
            EngineConfig.from_dict({"storage": "tiled", "zap": 1})

    def test_invalid_combinations(self):
        with pytest.raises(ApiError, match="float64-only"):
            EngineConfig(dtype="float32").validate()
        with pytest.raises(ApiError, match="serially"):
            EngineConfig(workers=4).validate()
        with pytest.raises(ApiError, match="cache_size"):
            EngineConfig(cache_size=0).validate()
        with pytest.raises(ApiError, match="unknown storage"):
            EngineConfig(storage="sparse").validate()

    def test_from_args_layers_over_base(self):
        parser = argparse.ArgumentParser()
        add_engine_config_args(parser)
        args = parser.parse_args(["--storage", "tiled", "--workers", "3"])
        base = EngineConfig(dtype="float32", cache_size=4)
        config = EngineConfig.from_args(args, base=base)
        assert config == EngineConfig(
            storage="tiled", dtype="float32", workers=3, cache_size=4
        )
        # unset flags keep dataclass defaults without a base
        assert EngineConfig.from_args(parser.parse_args([])) == EngineConfig()

    def test_from_env(self):
        env = {
            "REPRO_STORAGE": "tiled",
            "REPRO_WORKERS": "2",
            "REPRO_PATCH_THRESHOLD": "0.25",
            "REPRO_CACHE_SIZE": "3",
        }
        config = EngineConfig.from_env(env)
        assert config == EngineConfig(
            storage="tiled", workers=2, patch_threshold=0.25, cache_size=3
        )
        assert EngineConfig.from_env({}) == EngineConfig()
        with pytest.raises(ApiError, match="REPRO_WORKERS"):
            EngineConfig.from_env({"REPRO_WORKERS": "many"})


class TestSketchedConfig:
    """The sketched/approx knobs, and the canonical keying the CLI +
    service share."""

    def test_sketched_validation(self):
        # approx is the one switch, on either storage kind and dtype.
        EngineConfig(approx=True).validate()
        EngineConfig(storage="tiled", dtype="float32", approx=True).validate()
        EngineConfig(sketch_columns=8, landmarks="farthest", approx=True).validate()
        # The sketch knobs' values are checked with or without approx.
        EngineConfig(storage="tiled", sketch_columns=8).validate()
        EngineConfig(landmarks="uniform").validate()
        with pytest.raises(ApiError, match="sketch_columns"):
            EngineConfig(sketch_columns=1).validate()
        with pytest.raises(ApiError, match="landmark"):
            EngineConfig(approx=True, landmarks="grid").validate()

    def test_sketched_storage_is_refused(self):
        choices = re.escape("choose one of ('dense', 'tiled')")
        with pytest.raises(ApiError, match=choices):
            EngineConfig(storage="sketched", approx=True).validate()
        with pytest.raises(ApiError, match=choices):
            EngineConfig.from_env({"REPRO_STORAGE": "sketched"}).validate()
        parser = argparse.ArgumentParser()
        add_engine_config_args(parser)
        with pytest.raises(SystemExit):
            parser.parse_args(["--storage", "sketched", "--approx"])

    def test_canonical_collapses_spelled_out_defaults(self):
        spelled = EngineConfig(
            storage="dense", dtype="float64", workers=1, block_size=256,
        )
        assert spelled.canonical() == EngineConfig()
        sketched = EngineConfig(approx=True, landmarks="uniform")
        assert sketched.canonical() == EngineConfig(approx=True)
        # non-defaults survive canonicalization
        kept = EngineConfig(storage="tiled", dtype="float32", workers=2)
        assert kept.canonical() == kept

    def test_sketched_round_trip(self):
        config = EngineConfig(sketch_columns=12, landmarks="relevance", approx=True)
        assert EngineConfig.from_dict(config.to_dict()) == config

    def test_from_args_and_env(self):
        parser = argparse.ArgumentParser()
        add_engine_config_args(parser)
        args = parser.parse_args(
            ["--storage", "tiled", "--sketch-columns", "16",
             "--landmarks", "farthest", "--approx"]
        )
        assert EngineConfig.from_args(args) == EngineConfig(
            storage="tiled", sketch_columns=16, landmarks="farthest",
            approx=True,
        )
        env = {
            "REPRO_STORAGE": "tiled",
            "REPRO_SKETCH_COLUMNS": "16",
            "REPRO_LANDMARKS": "farthest",
            "REPRO_APPROX": "yes",
        }
        assert EngineConfig.from_env(env) == EngineConfig(
            storage="tiled", sketch_columns=16, landmarks="farthest",
            approx=True,
        )
        with pytest.raises(ApiError, match="REPRO_APPROX"):
            EngineConfig.from_env({"REPRO_APPROX": "maybe"})

    def test_approx_response_carries_certificate(self, instance):
        engine = DiversificationEngine(config=EngineConfig(approx=True))
        response = DiversifyResponse.from_result(engine.run(instance))
        assert response.certificate is not None
        assert response.certificate["strategy"] == "uniform"
        clone = DiversifyResponse.from_dict(
            json.loads(json.dumps(response.to_dict()))
        )
        assert clone == response
        assert clone.certificate == response.certificate


class TestMulticoreConfig:
    """The multicore/memory-bounding knobs: ``workers="auto"``, the
    resident-tile budgets, and ``spill_dir``."""

    def test_validation(self):
        EngineConfig(workers="auto").validate()  # symbolic; dense-safe
        EngineConfig(storage="tiled", workers="auto").validate()
        EngineConfig(
            storage="tiled",
            max_resident_tiles=4,
            max_resident_bytes=1 << 20,
            spill_dir="/tmp/tiles",
        ).validate()
        # the exact reads of an approx engine are budgeted like any other
        EngineConfig(storage="tiled", approx=True, max_resident_tiles=4).validate()
        with pytest.raises(ApiError, match="max_resident_tiles"):
            EngineConfig(storage="tiled", max_resident_tiles=0).validate()
        with pytest.raises(ApiError, match="cannot spill"):
            EngineConfig(max_resident_bytes=1 << 20).validate()
        with pytest.raises(ApiError, match="cannot spill"):
            EngineConfig(spill_dir="/tmp/tiles").validate()

    def test_round_trip(self):
        config = EngineConfig(
            storage="tiled",
            workers="auto",
            max_resident_tiles=4,
            max_resident_bytes=1 << 20,
            spill_dir="/tmp/tiles",
        )
        assert EngineConfig.from_dict(config.to_dict()) == config
        assert EngineConfig.from_dict(
            json.loads(json.dumps(config.to_dict()))
        ) == config

    def test_from_args_and_env(self):
        parser = argparse.ArgumentParser()
        add_engine_config_args(parser)
        args = parser.parse_args(
            ["--storage", "tiled", "--workers", "auto",
             "--max-resident-tiles", "4",
             "--max-resident-bytes", "1048576", "--spill-dir", "/tmp/tiles"]
        )
        expected = EngineConfig(
            storage="tiled", workers="auto",
            max_resident_tiles=4, max_resident_bytes=1048576,
            spill_dir="/tmp/tiles",
        )
        assert EngineConfig.from_args(args) == expected
        env = {
            "REPRO_STORAGE": "tiled",
            "REPRO_WORKERS": "auto",
            "REPRO_MAX_RESIDENT_TILES": "4",
            "REPRO_MAX_RESIDENT_BYTES": "1048576",
            "REPRO_SPILL_DIR": "/tmp/tiles",
        }
        assert EngineConfig.from_env(env) == expected

    def test_workers_flag_rejects_garbage(self):
        parser = argparse.ArgumentParser()
        add_engine_config_args(parser)
        with pytest.raises(SystemExit):
            parser.parse_args(["--workers", "many"])

    def test_removed_knobs_rejected_on_the_wire(self):
        """``workers`` is the one parallelism knob and ``spill_dir``
        alone selects the one spill format: a wire form still carrying
        the old ``parallel``, warm-pool or ``spill_mode`` fields fails
        loudly instead of being silently dropped."""
        for field, value in (
            ("parallel", "process"),
            ("max_warm_pools", 2),
            ("warm_pool_ttl", 60.0),
            ("spill_mode", "mmap"),
        ):
            with pytest.raises(ApiError, match=rf"unknown .*'{field}'"):
                EngineConfig.from_dict({"storage": "tiled", field: value})

    def test_removed_flags_rejected_by_the_cli(self):
        parser = argparse.ArgumentParser()
        add_engine_config_args(parser)
        for flag in ("--parallel", "--max-warm-pools", "--warm-pool-ttl",
                     "--spill-mode"):
            with pytest.raises(SystemExit):
                parser.parse_args(["--storage", "tiled", flag, "1"])


class TestEngineConfigErrors:
    def test_invalid_config_raises_engine_error(self):
        with pytest.raises(EngineError, match="float64-only"):
            DiversificationEngine(config=EngineConfig(dtype="float32"))

    def test_loose_kwargs_rejected(self):
        """Policy knobs travel only in ``config``: the old loose kwargs
        are gone, and ``use_numpy`` is keyword-only."""
        with pytest.raises(TypeError):
            DiversificationEngine(storage="tiled", workers=2)
        with pytest.raises(TypeError):
            DiversificationEngine("auto", False)

    def test_config_path_does_not_warn(self, recwarn):
        engine = DiversificationEngine(
            config=EngineConfig(storage="tiled", workers=2)
        )
        assert engine.config.storage == "tiled"
        assert engine.config.workers == 2
        assert not [w for w in recwarn if w.category is DeprecationWarning]


class TestDiversifyRequest:
    def test_needs_a_source(self):
        with pytest.raises(ApiError, match="source"):
            DiversifyRequest()

    def test_validates_bounds(self):
        with pytest.raises(ApiError, match="k must be"):
            DiversifyRequest(workload="synthetic", k=0)
        with pytest.raises(ApiError, match="λ"):
            DiversifyRequest(workload="synthetic", lam=1.5)

    def test_key_identity(self, instance):
        a = DiversifyRequest(workload="w", params={"n": 5}, k=3, lam=0.5)
        b = DiversifyRequest(workload="w", params={"n": 5}, k=3, lam=0.5)
        assert a.key() == b.key()
        assert a.key() != DiversifyRequest(workload="w", k=4).key()
        assert a.key() != DiversifyRequest(workload="w", params={"n": 5}, k=3,
                                           lam=0.5, tenant="other").key()
        # instance-backed keys are identity-based
        r1 = DiversifyRequest(instance=instance, k=3)
        r2 = DiversifyRequest(instance=instance, k=3)
        assert r1.key() == r2.key()

    def test_wire_round_trip(self):
        request = DiversifyRequest(
            workload="synthetic", params={"n": 30}, k=5, lam=0.25,
            algorithm="mmr", tenant="t1",
        )
        clone = DiversifyRequest.from_dict(json.loads(json.dumps(request.to_dict())))
        assert clone == request
        assert clone.key() == request.key()

    def test_instance_backed_is_not_serializable(self, instance):
        with pytest.raises(ApiError, match="in-process only"):
            DiversifyRequest(instance=instance).to_dict()

    def test_from_dict_strictness(self):
        with pytest.raises(ApiError, match="workload"):
            DiversifyRequest.from_dict({})
        with pytest.raises(ApiError, match="unknown"):
            DiversifyRequest.from_dict({"workload": "w", "zap": 1})
        with pytest.raises(ApiError, match="'k' must be"):
            DiversifyRequest.from_dict({"workload": "w", "k": "three"})
        with pytest.raises(ApiError, match="'k' must be"):
            DiversifyRequest.from_dict({"workload": "w", "k": True})

    def test_resolve_preserves_identities(self, instance):
        request = DiversifyRequest(instance=instance, k=2, lam=0.9)
        resolved = request.resolve()
        assert resolved.k == 2
        assert resolved.objective.lam == 0.9
        assert resolved.query is instance.query
        assert resolved.db is instance.db
        assert resolved.objective.relevance is instance.objective.relevance
        assert resolved.objective.distance is instance.objective.distance


class TestRequestExecution:
    def test_engine_run_request(self, instance):
        engine = DiversificationEngine()
        request = DiversifyRequest(instance=instance, k=3, algorithm="mmr")
        result = engine.run(request=request)
        direct = engine.run(instance.with_k(3), algorithm="mmr")
        assert result.value == direct.value
        assert result.rows == direct.rows

    def test_engine_run_instance_is_request_base(self, instance):
        """An explicit instance serves as the request's base (the
        registry-resolved path the service uses)."""
        engine = DiversificationEngine()
        request = DiversifyRequest(workload="any", k=3)
        result = engine.run(instance, request=request)
        assert result.value == engine.run(instance.with_k(3)).value
        with pytest.raises(EngineError, match="needs"):
            engine.run()

    def test_engine_request_shares_kernel(self, instance):
        engine = DiversificationEngine()
        engine.run(request=DiversifyRequest(instance=instance, k=3))
        engine.run(request=DiversifyRequest(instance=instance, k=4, lam=0.8))
        assert engine.stats.misses == 1
        assert engine.stats.hits == 1

    def test_diversify_accepts_request(self, instance):
        value, rows = diversify(DiversifyRequest(instance=instance, k=3))
        direct_value, direct_rows = diversify(instance.with_k(3))
        assert value == direct_value
        assert rows == direct_rows

    def test_sweep_request(self, instance):
        engine = DiversificationEngine()
        grid = engine.sweep(
            request=DiversifyRequest(instance=instance), ks=[2, 3], lams=[0.1, 0.9]
        )
        assert len(grid) == 4
        assert engine.stats.misses == 1


class TestResultSerialization:
    def test_engine_result_round_trip(self, instance):
        engine = DiversificationEngine()
        result = engine.run(instance)
        clone = EngineResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert clone.value == result.value
        assert clone.rows == result.rows
        assert clone.indices == result.indices
        assert clone.algorithm == result.algorithm
        assert clone.backend == result.backend

    def test_indices_point_into_kernel_snapshot(self, instance):
        engine = DiversificationEngine()
        result = engine.run(instance)
        kernel = engine.kernel_for(instance)
        assert tuple(kernel.answers[i] for i in result.indices) == result.rows

    def test_response_round_trip(self, instance):
        engine = DiversificationEngine()
        response = DiversifyResponse.from_result(
            engine.run(instance), cache="coalesced", elapsed_ms=1.25
        )
        clone = DiversifyResponse.from_dict(
            json.loads(json.dumps(response.to_dict()))
        )
        assert clone == response

    def test_infeasible_response(self):
        response = DiversifyResponse.from_result(None)
        assert response.feasible is False
        data = response.to_dict()
        assert data["value"] is None and data["rows"] is None
        assert DiversifyResponse.from_dict(data) == response

    def test_response_rejects_bad_cache(self):
        with pytest.raises(ApiError, match="cache"):
            DiversifyResponse.from_dict(
                {**DiversifyResponse.from_result(None).to_dict(), "cache": "psychic"}
            )
