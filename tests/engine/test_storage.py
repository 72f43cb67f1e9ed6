"""Storage parity suite: the matrix layout must be invisible.

The kernel-storage refactor (ISSUE 5) swaps the contiguous O(n²)
distance matrix for a pluggable backend (:mod:`repro.engine.storage`)
beneath the accessor methods every selector consumes.  These tests pin
the contract:

* dense float64 and tiled float64 are **element-wise equal** — every
  entry, every row copy, every row sum, on both kernel backends, through
  ``apply_delta`` patches, under duplicated rows, and at adversarial
  ``block_size`` values (1, n−1, > n);
* tiled float32 stays inside the documented relative-error envelope and
  still reproduces the pinned selections of every registered algorithm;
* tiled storage is actually lazy (tiles appear on first touch, never at
  construction) and the ``workers`` build produces the identical grid.
"""

import json
import math
from pathlib import Path

import pytest

import repro.engine.storage as storage_module
from repro.algorithms.incremental import early_termination_top_k
from repro.api import EngineConfig
from repro.core.objectives import ObjectiveKind
from repro.engine import (
    ALGORITHMS,
    DiversificationEngine,
    EngineError,
    KernelError,
    ScoringKernel,
    TiledStorage,
    numpy_available,
)
from repro.workloads.synthetic import random_instance

BACKENDS = [False] + ([True] if numpy_available() else [])

#: One binary32 rounding per stored entry (≤ 2⁻²⁴ relative), with slack.
F32_REL_ENVELOPE = 1e-6

PINS = json.loads(
    (Path(__file__).parent.parent / "data" / "unified_path_pins.json").read_text()
)

KINDS = {
    "max_sum": ObjectiveKind.MAX_SUM,
    "max_min": ObjectiveKind.MAX_MIN,
    "mono": ObjectiveKind.MONO,
}


def tiled_kernel(instance, use_numpy, block_size=5, dtype=None, workers=None):
    config = EngineConfig(
        storage="tiled", block_size=block_size, dtype=dtype, workers=workers
    )
    return ScoringKernel(instance, use_numpy=use_numpy, config=config)


def left_fold(values):
    total = 0.0
    for value in values:
        total = total + value
    return total


def neumaier_sum(values, start=0):
    """The compensated float ``sum()`` of Python 3.12+."""
    total, compensation = float(start), 0.0
    for value in values:
        t = total + value
        if abs(total) >= abs(value):
            compensation += (total - t) + value
        else:
            compensation += (value - t) + total
        total = t
    if compensation and math.isfinite(compensation):
        total += compensation
    return total


def assert_matrices_equal(dense, tiled):
    assert tiled.n == dense.n
    assert tiled.distance_rows() == dense.distance_rows()
    assert tiled.row_distance_sums() == dense.row_distance_sums()
    for i in range(dense.n):
        assert list(tiled.copy_distance_row(i)) == list(dense.copy_distance_row(i))
        for j in range(dense.n):
            assert tiled.distance_between(i, j) == dense.distance_between(i, j)


class TestElementWiseParity:
    @pytest.mark.parametrize("use_numpy", BACKENDS)
    @pytest.mark.parametrize("block_size", [1, 5, 16, 17, 1000])
    def test_dense_vs_tiled_equal(self, use_numpy, block_size):
        # n=17 makes block_size=16 the n−1 case and 1000 the > n case.
        instance = random_instance(
            n=17, k=4, kind=ObjectiveKind.MAX_SUM, lam=0.5, seed=2
        )
        dense = ScoringKernel(instance, use_numpy=use_numpy)
        tiled = tiled_kernel(instance, use_numpy, block_size=block_size)
        assert_matrices_equal(dense, tiled)

    @pytest.mark.parametrize("use_numpy", BACKENDS)
    def test_duplicate_rows(self, use_numpy):
        instance = random_instance(
            n=10, k=3, kind=ObjectiveKind.MAX_SUM, lam=0.5, seed=4
        )
        answers = instance.answers()
        instance._result_cache = answers + [answers[i] for i in (0, 3, 3)]
        dense = ScoringKernel(instance, use_numpy=use_numpy)
        tiled = tiled_kernel(instance, use_numpy, block_size=4)
        assert_matrices_equal(dense, tiled)

    @pytest.mark.skipif(not numpy_available(), reason="requires numpy")
    def test_backends_agree_on_tiled(self):
        instance = random_instance(
            n=13, k=4, kind=ObjectiveKind.MAX_SUM, lam=0.5, seed=7
        )
        py = tiled_kernel(instance, use_numpy=False, block_size=4)
        np_ = tiled_kernel(instance, use_numpy=True, block_size=4)
        assert py.distance_rows() == np_.distance_rows()
        assert py.row_distance_sums() == np_.row_distance_sums()

    def test_row_sums_fold_left_to_right(self, monkeypatch):
        """Pure-Python row sums are an explicit left fold, so a float
        ``sum()`` that compensates (Python 3.12+) cannot move them off
        the NumPy backend's."""
        monkeypatch.setattr(storage_module, "sum", neumaier_sum, raising=False)
        instance = random_instance(
            n=13, k=4, kind=ObjectiveKind.MAX_SUM, lam=0.5, seed=7
        )
        dense = ScoringKernel(instance, use_numpy=False)
        rows = dense.distance_rows()
        folds = [left_fold(row) for row in rows]
        assert [neumaier_sum(row) for row in rows] != folds  # the patch bites
        assert dense.row_distance_sums() == folds
        tiled = tiled_kernel(instance, use_numpy=False, block_size=4)
        assert tiled.row_distance_sums() == folds
        if numpy_available():
            assert ScoringKernel(instance, use_numpy=True).row_distance_sums() == folds


class TestLaziness:
    @pytest.mark.parametrize("use_numpy", BACKENDS)
    def test_tiles_build_on_touch(self, use_numpy):
        instance = random_instance(
            n=20, k=4, kind=ObjectiveKind.MAX_SUM, lam=0.5, seed=1
        )
        kernel = tiled_kernel(instance, use_numpy, block_size=5)
        assert not kernel.distances_materialized
        assert not kernel.distances_fully_built
        # The first read allocates the grid and builds one off-diagonal
        # tile — allocating builds none.
        kernel.distance_between(0, 19)
        storage = kernel._storage
        assert isinstance(storage, TiledStorage)
        assert storage.tiles_built == 1
        assert not kernel.distances_fully_built
        kernel.copy_distance_row(0)  # the rest of tile-row 0
        assert storage.tiles_built == storage._nb
        kernel.materialize_all()
        assert storage.is_fully_built
        assert kernel.distances_fully_built

    @pytest.mark.parametrize("use_numpy", BACKENDS)
    def test_mirror_tiles_are_shared(self, use_numpy):
        """Reading (i, j) and (j, i) must build one scored tile, not two."""
        instance = random_instance(
            n=12, k=3, kind=ObjectiveKind.MAX_SUM, lam=0.5, seed=3
        )
        kernel = tiled_kernel(instance, use_numpy, block_size=4)
        a = kernel.distance_between(1, 10)
        b = kernel.distance_between(10, 1)
        assert a == b
        assert kernel._storage.tiles_built == 1

    @pytest.mark.parametrize("read", ["row_distance_sums", "distance_rows"])
    def test_budgeted_row_sums_touch_each_tile_once_per_tile_row(self, read):
        """Row sums and the whole matrix, under a tile budget smaller
        than a tile-row, are read one tile-row at a time: pure Python
        rebuilds no more evicted tiles than NumPy, at most one per tile
        of each tile-row."""
        instance = random_instance(
            n=300, k=5, kind=ObjectiveKind.MAX_SUM, lam=0.5, seed=11
        )
        config = EngineConfig(storage="tiled", block_size=64, max_resident_tiles=4)

        def rebuilds_and_sums(use_numpy):
            kernel = ScoringKernel(instance, use_numpy=use_numpy, config=config)
            kernel.materialize_all()
            before = kernel.storage_stats()["rebuilds"]
            sums = getattr(kernel, read)()
            return kernel.storage_stats()["rebuilds"] - before, sums

        rebuilds, sums = rebuilds_and_sums(False)
        blocks = -(-300 // 64)
        assert rebuilds <= blocks * blocks
        if numpy_available():
            numpy_rebuilds, numpy_sums = rebuilds_and_sums(True)
            assert rebuilds <= numpy_rebuilds
            assert sums == numpy_sums

    @pytest.mark.parametrize("use_numpy", BACKENDS)
    def test_parallel_build_identical(self, use_numpy):
        instance = random_instance(
            n=19, k=4, kind=ObjectiveKind.MAX_SUM, lam=0.5, seed=6
        )
        serial = tiled_kernel(instance, use_numpy, block_size=4)
        parallel = tiled_kernel(instance, use_numpy, block_size=4, workers=3)
        serial.materialize_all()
        parallel.materialize_all()
        assert parallel._storage.is_fully_built
        assert serial.distance_rows() == parallel.distance_rows()


class TestDeltaParity:
    def mutate(self, kernel, instance):
        # The patch is the subject: storage must exist to be remapped.
        assert kernel.distances_materialized
        rows = list(instance.answers())
        kernel.apply_delta(inserted=[rows[3], rows[5]], deleted=[rows[1], rows[8]])

    @pytest.mark.parametrize("use_numpy", BACKENDS)
    @pytest.mark.parametrize("block_size", [1, 4, 30])
    def test_patched_tiled_equals_patched_dense(self, use_numpy, block_size):
        instance = random_instance(
            n=14, k=4, kind=ObjectiveKind.MAX_SUM, lam=0.5, seed=5
        )
        dense = ScoringKernel(instance, use_numpy=use_numpy)
        dense.materialize_all()
        tiled = tiled_kernel(instance, use_numpy, block_size=block_size)
        tiled.materialize_all()
        self.mutate(dense, instance)
        self.mutate(tiled, instance)
        assert tiled.answers == dense.answers
        assert_matrices_equal(dense, tiled)

    @pytest.mark.parametrize("use_numpy", BACKENDS)
    def test_partially_built_tiled_survives_delta(self, use_numpy):
        """A lazily part-built grid is re-derived against the patched
        snapshot — later reads must match a patched dense kernel."""
        instance = random_instance(
            n=14, k=4, kind=ObjectiveKind.MAX_SUM, lam=0.5, seed=5
        )
        dense = ScoringKernel(instance, use_numpy=use_numpy)
        dense.materialize_all()
        tiled = tiled_kernel(instance, use_numpy, block_size=4)
        tiled.distance_between(0, 13)  # partial touch only
        self.mutate(dense, instance)
        self.mutate(tiled, instance)
        assert tiled.answers == dense.answers
        assert_matrices_equal(dense, tiled)

    @pytest.mark.parametrize("use_numpy", BACKENDS)
    def test_patched_f32_equals_fresh_f32(self, use_numpy):
        """The float32 patch must re-narrow exactly as a fresh build."""
        instance = random_instance(
            n=12, k=3, kind=ObjectiveKind.MAX_SUM, lam=0.5, seed=8
        )
        patched = tiled_kernel(instance, use_numpy, block_size=4, dtype="float32")
        patched.materialize_all()
        self.mutate(patched, instance)
        # A fresh kernel over the patched answer set (injected into the
        # materialization cache) is the rebuild the patch must match.
        instance._result_cache = list(patched.answers)
        fresh = tiled_kernel(instance, use_numpy, block_size=4, dtype="float32")
        assert fresh.distance_rows() == patched.distance_rows()


class TestFloat32:
    @pytest.mark.parametrize("use_numpy", BACKENDS)
    def test_envelope(self, use_numpy):
        instance = random_instance(
            n=15, k=4, kind=ObjectiveKind.MAX_SUM, lam=0.5, seed=0
        )
        dense = ScoringKernel(instance, use_numpy=use_numpy)
        narrow = tiled_kernel(instance, use_numpy, block_size=4, dtype="float32")
        saw_nonzero = False
        for i in range(dense.n):
            for j in range(dense.n):
                base = dense.distance_between(i, j)
                value = narrow.distance_between(i, j)
                if base:
                    saw_nonzero = True
                    assert abs(value - base) / abs(base) <= F32_REL_ENVELOPE
                else:
                    assert value == 0.0
        assert saw_nonzero

    @pytest.mark.parametrize("use_numpy", BACKENDS)
    def test_backends_store_identical_float32(self, use_numpy):
        """The pure-Python binary32 round-trip must equal NumPy's cast."""
        if not numpy_available():
            pytest.skip("requires numpy for the cross-check")
        instance = random_instance(
            n=11, k=3, kind=ObjectiveKind.MAX_SUM, lam=0.5, seed=9
        )
        py = tiled_kernel(instance, use_numpy=False, block_size=4, dtype="float32")
        np_ = tiled_kernel(instance, use_numpy=True, block_size=4, dtype="float32")
        assert py.distance_rows() == np_.distance_rows()


def pin_instance(pin):
    return random_instance(
        n=pin["n"],
        k=pin["k"],
        kind=KINDS[pin["kind"]],
        lam=pin["lam"],
        seed=pin["seed"],
    )


def pin_id(pin):
    return f"{pin['algorithm']}-{pin['kind']}-lam{pin['lam']}-s{pin['seed']}"


def run_pin(pin, kernel, instance):
    if pin["algorithm"] == "early_termination_top_k":
        result = early_termination_top_k(instance, kernel=kernel)
        return None if result is None else (result.value, result.selected)
    return ALGORITHMS[pin["algorithm"]](instance, kernel)


@pytest.mark.parametrize("use_numpy", BACKENDS)
@pytest.mark.parametrize("pin", PINS, ids=pin_id)
def test_tiled_kernel_matches_pins(pin, use_numpy):
    """Acceptance: all selectors produce identical selections on dense
    vs tiled storage for the full pinned parity suite (float64 exact)."""
    instance = pin_instance(pin)
    kernel = tiled_kernel(instance, use_numpy, block_size=5)
    result = run_pin(pin, kernel, instance)
    assert result is not None
    assert result[0] == pytest.approx(pin["value"], rel=1e-9, abs=1e-9)
    assert [list(row.values) for row in result[1]] == pin["rows"]


@pytest.mark.parametrize("use_numpy", BACKENDS)
@pytest.mark.parametrize("pin", PINS, ids=pin_id)
def test_tiled_float32_matches_pinned_selections(pin, use_numpy):
    """The float32 carve-out: values may drift inside the envelope, but
    the selected index sets stay identical on the pinned suite."""
    instance = pin_instance(pin)
    kernel = tiled_kernel(instance, use_numpy, block_size=5, dtype="float32")
    result = run_pin(pin, kernel, instance)
    assert result is not None
    assert result[0] == pytest.approx(pin["value"], rel=1e-5, abs=1e-5)
    assert [list(row.values) for row in result[1]] == pin["rows"]


def config_kernel(instance, **knobs):
    return ScoringKernel(instance, use_numpy=False, config=EngineConfig(**knobs))


class TestValidation:
    """The kernel validates its config once and re-raises the config's
    error as ``KernelError``."""

    def test_dense_rejects_float32(self):
        instance = random_instance(n=5, k=2)
        with pytest.raises(KernelError, match="float64-only"):
            config_kernel(instance, dtype="float32")

    def test_unknown_storage_and_dtype(self):
        instance = random_instance(n=5, k=2)
        with pytest.raises(KernelError, match="unknown storage"):
            config_kernel(instance, storage="sparse")
        with pytest.raises(KernelError, match="unknown dtype"):
            config_kernel(instance, storage="tiled", dtype="float16")

    def test_bad_workers(self):
        instance = random_instance(n=5, k=2)
        with pytest.raises(KernelError, match="workers"):
            config_kernel(instance, storage="tiled", workers=0)

    def test_dense_rejects_parallel_workers(self):
        """workers>1 on dense would be silently serial — reject it like
        the dtype knob instead (workers=1 is the harmless default)."""
        instance = random_instance(n=5, k=2)
        with pytest.raises(KernelError, match="serially"):
            config_kernel(instance, workers=4)
        kernel = config_kernel(instance, workers=1)
        kernel.distance_between(0, 1)
        assert kernel.storage_stats()["kind"] == "dense"

    def test_policy_travels_only_in_config(self):
        instance = random_instance(n=5, k=2)
        for knob, value in (("storage", "tiled"), ("block_size", 4),
                            ("spill_dir", "/tmp"), ("spill_mode", "mmap")):
            with pytest.raises(TypeError, match=knob):
                ScoringKernel(instance, use_numpy=False, **{knob: value})

    def test_engine_knob_validation(self):
        with pytest.raises(EngineError):
            DiversificationEngine(config=EngineConfig(storage="sparse"))
        with pytest.raises(EngineError):
            DiversificationEngine(config=EngineConfig(dtype="float16"))
        with pytest.raises(EngineError):
            # dense default
            DiversificationEngine(config=EngineConfig(dtype="float32"))
        with pytest.raises(EngineError):
            DiversificationEngine(config=EngineConfig(storage="tiled", workers=0))
        with pytest.raises(EngineError):
            # dense default, silent no-op
            DiversificationEngine(config=EngineConfig(workers=4))


class TestEngineThreading:
    @pytest.mark.parametrize("use_numpy", BACKENDS)
    def test_engine_builds_tiled_kernels(self, use_numpy):
        instance = random_instance(
            n=12, k=4, kind=ObjectiveKind.MAX_SUM, lam=0.5, seed=2
        )
        dense_engine = DiversificationEngine(use_numpy=use_numpy)
        tiled_engine = DiversificationEngine(
            use_numpy=use_numpy,
            config=EngineConfig(
                storage="tiled", dtype="float32", workers=2, block_size=4
            ),
        )
        dense_result = dense_engine.run(instance)
        tiled_result = tiled_engine.run(instance)
        kernel = tiled_engine.kernel_for(instance)
        assert kernel.config is tiled_engine.config
        assert isinstance(kernel._storage, TiledStorage)
        assert kernel._storage.dtype == "float32"
        assert tiled_result.rows == dense_result.rows
        assert tiled_result.value == pytest.approx(dense_result.value, rel=1e-5)
