"""Threaded builds and bounded-memory spilling: exactness first.

The fan-out layer (:mod:`repro.engine.parallel`) and the tile-budget
layer in :class:`~repro.engine.storage.TiledStorage` are pure
performance features — neither may move a float.  These tests pin that:

* the fan-out rule: with ``workers`` above 1 a NumPy build fans out over
  threads and a pure-Python build runs serially; neither starts a
  process, and both store exactly the serial floats, also through
  ``apply_delta`` patches;
* :func:`~repro.engine.parallel.build_blocks` itself: serial (in key
  order) for one worker, one key or pure Python, diagonal priming
  before the NumPy thread pool, and every block stored on the calling
  thread;
* a spilling grid (``max_resident_tiles`` / ``max_resident_bytes``,
  with or without ``spill_dir``) answers every read exactly like an
  unbounded one, while actually holding resident tiles at the budget;
* with ``spill_dir``, scalar and row reads of spilled upper and mirror
  tiles come straight out of the segment, byte-identical to resident
  reads on both backends and dtypes, and a spill directory that cannot
  be written degrades to rebuild-on-touch with a counter;
* the sketched landmark columns built with ``workers=2`` equal the
  serially built sketch.
"""

import errno
import logging
import multiprocessing
import os
import threading

import pytest

from repro.api import EngineConfig
from repro.core.objectives import ObjectiveKind
import repro.engine.parallel as parallel
from repro.engine import (
    KernelError,
    ScoringKernel,
    TiledStorage,
    available_cpus,
    numpy_available,
    resolve_workers,
)
from repro.engine.parallel import build_blocks, validate_workers
from repro.engine.storage import STORAGE_COUNTERS
from repro.workloads.synthetic import random_instance

BACKENDS = [False] + ([True] if numpy_available() else [])


def tiled_kernel(instance, use_numpy, **knobs):
    knobs.setdefault("storage", "tiled")
    return ScoringKernel(
        instance, use_numpy=use_numpy, config=EngineConfig(**knobs)
    )


def assert_matrices_equal(expected, actual):
    assert actual.n == expected.n
    assert actual.distance_rows() == expected.distance_rows()
    assert actual.row_distance_sums() == expected.row_distance_sums()
    for i in range(expected.n):
        for j in range(expected.n):
            assert actual.distance_between(i, j) == expected.distance_between(
                i, j
            )


def child_processes():
    return set(multiprocessing.active_children())


def no_threads(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("this build must not start a thread pool")

    monkeypatch.setattr(parallel, "ThreadPoolExecutor", refuse)


class TestKnobs:
    def test_validate_workers_passthrough(self):
        assert validate_workers(None) is None
        assert validate_workers("auto") == "auto"
        assert validate_workers(3) == 3

    @pytest.mark.parametrize("bad", [0, -1, True, 2.5, "many"])
    def test_validate_workers_rejects(self, bad):
        with pytest.raises(ValueError):
            validate_workers(bad)

    def test_validate_workers_custom_error(self):
        with pytest.raises(KernelError):
            validate_workers(0, KernelError)

    def test_resolve_workers(self):
        assert resolve_workers(None) == 1
        assert resolve_workers(5) == 5
        assert resolve_workers("auto") == available_cpus()
        assert available_cpus() >= 1

    def test_kernel_accepts_auto_workers(self):
        instance = random_instance(n=8, k=3, seed=1)
        kernel = tiled_kernel(instance, False, workers="auto")
        assert kernel.config.workers == "auto"

    def test_kernel_rejects_removed_knobs(self):
        instance = random_instance(n=8, k=3, seed=1)
        for knob, value in (
            ("parallel", "process"),
            ("max_warm_pools", 2),
            ("warm_pool_ttl", 60.0),
            ("spill_mode", "mmap"),
        ):
            with pytest.raises(TypeError, match=knob):
                tiled_kernel(instance, False, workers=2, **{knob: value})


class TestFanOut:
    """``workers`` is the only knob; the backend picks the fan-out, and
    every fan-out stores the floats a serial build would."""

    @pytest.mark.skipif(not numpy_available(), reason="needs numpy")
    @pytest.mark.parametrize("dtype", [None, "float32"])
    @pytest.mark.parametrize("block_size", [3, 7, 12])
    def test_numpy_fans_out_over_threads(self, dtype, block_size):
        instance = random_instance(
            n=23, k=4, kind=ObjectiveKind.MAX_SUM, lam=0.5, seed=2
        )
        serial = tiled_kernel(instance, True, block_size=block_size, dtype=dtype)
        serial.materialize_all()
        children = child_processes()
        threaded = tiled_kernel(
            instance, True, block_size=block_size, dtype=dtype, workers=2
        )
        threaded.materialize_all()
        assert child_processes() == children
        assert threaded._storage.is_fully_built
        assert_matrices_equal(serial, threaded)

    @pytest.mark.parametrize("dtype", [None, "float32"])
    @pytest.mark.parametrize("block_size", [3, 7, 12])
    def test_pure_python_builds_serially(self, monkeypatch, dtype, block_size):
        """``workers="auto"`` changes nothing on pure Python: no thread
        pool, no child process, the serial floats."""
        instance = random_instance(
            n=23, k=4, kind=ObjectiveKind.MAX_SUM, lam=0.5, seed=2
        )
        serial = tiled_kernel(instance, False, block_size=block_size, dtype=dtype)
        serial.materialize_all()
        children = child_processes()
        no_threads(monkeypatch)
        built = tiled_kernel(
            instance, False, block_size=block_size, dtype=dtype, workers="auto"
        )
        built.materialize_all()
        assert child_processes() == children
        assert built._storage.is_fully_built
        assert_matrices_equal(serial, built)

    @pytest.mark.parametrize("use_numpy", BACKENDS)
    def test_identical_through_apply_delta(self, use_numpy):
        instance = random_instance(
            n=19, k=4, kind=ObjectiveKind.MAX_SUM, lam=0.5, seed=6
        )
        serial = tiled_kernel(instance, use_numpy, block_size=5)
        pooled = tiled_kernel(instance, use_numpy, block_size=5, workers=2)
        serial.materialize_all()
        pooled.materialize_all()
        rows = list(instance.answers())
        for kernel in (serial, pooled):
            kernel.apply_delta(
                inserted=[rows[3], rows[7]], deleted=[rows[1], rows[10]]
            )
        assert pooled.answers == serial.answers
        assert_matrices_equal(serial, pooled)


def grid_keys(blocks=3):
    """``build_blocks`` keys over the upper triangle of a block grid."""
    return [(a, b) for a in range(blocks) for b in range(a, blocks)]


def serial_build(key):
    return ("serial", key)


class Recorder:
    """A ``store`` callback that records blocks and the storing thread."""

    def __init__(self):
        self.stored = []
        self.threads = set()

    def __call__(self, key, block):
        self.stored.append((key, block))
        self.threads.add(threading.get_ident())


class TestBuildBlocks:
    """The fan-out rule on stand-in blocks, without scoring anything."""

    @pytest.mark.parametrize("use_numpy", [False, True])
    def test_one_worker_builds_serially_in_order(self, monkeypatch, use_numpy):
        no_threads(monkeypatch)
        keys = grid_keys()
        for workers in (None, 1):
            record = Recorder()
            build_blocks(keys, serial_build, record, workers, use_numpy)
            assert record.stored == [(key, serial_build(key)) for key in keys]

    @pytest.mark.parametrize("use_numpy", [False, True])
    def test_single_job_builds_serially(self, monkeypatch, use_numpy):
        no_threads(monkeypatch)
        record = Recorder()
        build_blocks(grid_keys(blocks=1), serial_build, record, 2, use_numpy)
        assert record.stored == [((0, 0), serial_build((0, 0)))]

    def test_pure_python_builds_serially_with_workers(self, monkeypatch):
        no_threads(monkeypatch)
        keys = grid_keys()
        record = Recorder()
        build_blocks(keys, serial_build, record, 2, False)
        assert record.stored == [(key, serial_build(key)) for key in keys]

    def test_numpy_primes_diagonal_before_threads(self, monkeypatch):
        """Diagonal keys build serially before the thread pool starts,
        and every block is stored on the calling thread."""
        record = Recorder()
        stored_when_pool_started = []
        real = parallel.ThreadPoolExecutor

        def spy(*args, **kwargs):
            stored_when_pool_started.append([key for key, _ in record.stored])
            return real(*args, **kwargs)

        monkeypatch.setattr(parallel, "ThreadPoolExecutor", spy)
        build_blocks(
            grid_keys(), serial_build, record, 2, True,
            prime=lambda key: key[0] == key[1],
        )
        assert stored_when_pool_started == [[(0, 0), (1, 1), (2, 2)]]
        order = [(0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)]
        assert record.stored == [(key, serial_build(key)) for key in order]
        assert record.threads == {threading.get_ident()}


class TestSpilling:
    @pytest.mark.parametrize("use_numpy", BACKENDS)
    @pytest.mark.parametrize("budget", [dict(max_resident_tiles=2),
                                        dict(max_resident_bytes=1024)])
    def test_bounded_grid_reads_exactly(self, use_numpy, budget):
        instance = random_instance(
            n=17, k=4, kind=ObjectiveKind.MAX_SUM, lam=0.5, seed=2
        )
        dense = ScoringKernel(instance, use_numpy=use_numpy)
        bounded = tiled_kernel(instance, use_numpy, block_size=4, **budget)
        bounded.materialize_all()
        storage = bounded._storage
        assert isinstance(storage, TiledStorage)
        stats = storage.spill_stats
        assert stats["evictions"] > 0
        assert stats["rebuilds"] == 0  # materialize evicts; no re-read yet
        assert_matrices_equal(dense, bounded)
        assert storage.spill_stats["rebuilds"] > 0

    @pytest.mark.parametrize("use_numpy", BACKENDS)
    def test_budget_holds_during_full_materialization(self, use_numpy):
        instance = random_instance(n=20, k=4, seed=3)
        kernel = tiled_kernel(
            instance, use_numpy, block_size=4, max_resident_tiles=3
        )
        kernel.materialize_all()
        stats = kernel.storage_stats()
        assert stats is not None
        assert 1 <= stats["resident_tiles"] <= 3

    @pytest.mark.parametrize("use_numpy", BACKENDS)
    @pytest.mark.parametrize("dtype", [None, "float32"])
    def test_spilled_reads_equal_resident_reads(self, use_numpy, dtype, tmp_path):
        """With ``spill_dir`` alone, scalar and row reads of spilled
        upper and mirror tiles come straight out of the segment — one
        read per row, no tile rehydrated — and equal an unbounded
        grid's reads byte for byte."""
        instance = random_instance(
            n=17, k=4, kind=ObjectiveKind.MAX_SUM, lam=0.5, seed=2
        )
        plain = tiled_kernel(instance, use_numpy, block_size=4, dtype=dtype)
        spilled = tiled_kernel(
            instance,
            use_numpy,
            block_size=4,
            dtype=dtype,
            max_resident_tiles=2,
            spill_dir=str(tmp_path),
        )
        plain.materialize_all()
        spilled.materialize_all()
        offsets = spilled._storage._segment_offsets
        assert any(bi < bj for bi, bj in offsets)  # upper tiles spilled
        assert any(bi > bj for bi, bj in offsets)  # ...with their mirrors
        for i in range(plain.n):
            assert list(spilled.copy_distance_row(i)) == list(
                plain.copy_distance_row(i)
            )
            for j in range(plain.n):
                assert spilled.distance_between(i, j) == plain.distance_between(
                    i, j
                )
        stats = spilled.storage_stats()
        assert stats["spills"] > 0
        assert stats["mmap_reads"] > 0 and stats["bytes_mapped"] > 0
        assert stats["spill_loads"] == 0 and stats["rebuilds"] == 0
        # One segment file in one tiles-* directory is the only artifact.
        (tiles_dir,) = tmp_path.iterdir()
        assert tiles_dir.name.startswith("tiles-")
        assert [p.name for p in tiles_dir.iterdir()] == ["segment.bin"]

    @pytest.mark.parametrize("use_numpy", BACKENDS)
    def test_spill_dir_round_trips_exactly(self, use_numpy, tmp_path):
        """Whole-matrix consumers (row sums, to_lists, gathers) and a
        delta patch over a spilled grid equal the dense baseline float
        for float: spilled tiles load, never rescore."""
        instance = random_instance(
            n=17, k=4, kind=ObjectiveKind.MAX_SUM, lam=0.5, seed=2
        )
        dense = ScoringKernel(instance, use_numpy=use_numpy)
        spilled = tiled_kernel(
            instance,
            use_numpy,
            block_size=4,
            max_resident_tiles=2,
            spill_dir=str(tmp_path),
        )
        spilled.materialize_all()
        assert_matrices_equal(dense, spilled)
        everything = list(range(dense.n))
        gathered = spilled._storage.gather64(everything, everything)
        if use_numpy:
            gathered = gathered.tolist()
        assert gathered == dense.distance_rows()
        stats = spilled.storage_stats()
        assert stats["spills"] > 0
        assert stats["spill_loads"] > 0  # gathers load whole upper copies
        assert stats["rebuilds"] == 0
        rows = list(instance.answers())
        for kernel in (dense, spilled):
            kernel.apply_delta(inserted=[rows[3]], deleted=[rows[1], rows[10]])
        assert_matrices_equal(dense, spilled)
        assert spilled.storage_stats()["spills"] > 0

    @pytest.mark.parametrize("use_numpy", BACKENDS)
    @pytest.mark.parametrize("built", ["fully", "partially"])
    def test_counters_survive_a_delta(self, use_numpy, built, tmp_path):
        """A patched grid carries the cumulative counters on, and the
        reads the patch itself makes of the spilled old grid count."""
        instance = random_instance(n=60, k=4, kind=ObjectiveKind.MAX_SUM, lam=0.5, seed=4)
        kernel = tiled_kernel(
            instance,
            use_numpy,
            block_size=8,
            max_resident_tiles=4,
            spill_dir=str(tmp_path),
        )
        if built == "fully":
            kernel.materialize_all()
        for i in range(0, 16, 3):  # rows of tile-rows 0 and 1 only
            kernel.copy_distance_row(i)
        assert kernel.distances_fully_built == (built == "fully")
        before = kernel.storage_stats()
        assert before["spills"] > 0 and before["mmap_reads"] > 0
        rows = list(instance.answers())
        kernel.apply_delta(inserted=[rows[3]], deleted=[rows[1], rows[10]])
        after = kernel.storage_stats()
        cumulative = set(STORAGE_COUNTERS) - {"resident_tiles", "resident_bytes"}
        assert all(after[name] >= before[name] for name in cumulative), after
        if built == "fully":
            # Patching tile by tile loads every spilled old tile back.
            assert after["spill_loads"] > before["spill_loads"]
            assert after["bytes_mapped"] > before["bytes_mapped"]

    @pytest.mark.parametrize("use_numpy", BACKENDS)
    @pytest.mark.parametrize("failure", ["not_a_directory", "disk_full"])
    def test_failed_spills_degrade_to_rebuilds(
        self, use_numpy, failure, tmp_path, monkeypatch, caplog
    ):
        """A spill directory that cannot take a tile — a regular file in
        its place, or a disk that fills part-way through a write — fails
        no read: the tile stays evicted and rebuilds on touch, tiles
        spilled before the failure still read back exactly, and the
        failure is counted and logged once."""
        spill_dir = tmp_path / "spill"
        if failure == "not_a_directory":
            spill_dir.write_text("")
        else:
            real_pwrite = os.pwrite

            def small_disk(fd, data, offset):
                room = 600 - offset  # bytes left on the disk
                if room <= 0:
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                return real_pwrite(fd, bytes(data[:room]), offset)

            monkeypatch.setattr(os, "pwrite", small_disk)
        instance = random_instance(
            n=17, k=4, kind=ObjectiveKind.MAX_SUM, lam=0.5, seed=2
        )
        dense = ScoringKernel(instance, use_numpy=use_numpy)
        kernel = tiled_kernel(
            instance,
            use_numpy,
            block_size=4,
            max_resident_tiles=2,
            spill_dir=str(spill_dir),
        )
        with caplog.at_level(logging.WARNING, logger="repro.engine.storage"):
            kernel.materialize_all()
            assert_matrices_equal(dense, kernel)
        stats = kernel.storage_stats()
        assert stats["spill_failures"] > 0
        assert stats["rebuilds"] > 0
        # On the small disk, tiles that fit still spill — also after a
        # failed write, whose partial bytes they overwrite.
        assert (stats["spills"] > 0) == (failure == "disk_full")
        assert caplog.text.count("tile spill to") == 1

    def test_storage_stats_surface(self):
        instance = random_instance(n=10, k=3, seed=1)
        dense = ScoringKernel(instance, use_numpy=False)
        stats = dense.storage_stats()
        assert stats["kind"] == "deferred"  # no distance read yet
        assert stats["resident_bytes"] == 0
        dense.distance_between(0, 1)
        stats = dense.storage_stats()
        assert stats["kind"] == "dense"
        assert stats["resident_tiles"] == 1
        assert stats["resident_bytes"] == dense.n * dense.n * 8
        assert stats["evictions"] == 0 and stats["mmap_reads"] == 0
        unbudgeted = tiled_kernel(instance, False, block_size=4)
        unbudgeted.materialize_all()
        stats = unbudgeted.storage_stats()
        assert stats["evictions"] == 0 and stats["spills"] == 0
        assert stats["resident_tiles"] == unbudgeted._storage.tiles_built
        budgeted = tiled_kernel(
            instance, False, block_size=4, max_resident_tiles=2
        )
        budgeted.materialize_all()
        stats = budgeted.storage_stats()
        assert stats["kind"] == "tiled"
        assert stats["evictions"] > 0
        # Every kind reports the same keys — aggregators never branch.
        assert set(stats) == set(dense.storage_stats())

    @pytest.mark.parametrize("use_numpy", BACKENDS)
    def test_pooled_build_into_spilling_grid(self, use_numpy):
        """The two features compose: a ``workers=2`` build (threaded on
        NumPy) lands in a budgeted grid, evicts, rebuilds on touch — and
        every read stays exact."""
        instance = random_instance(
            n=18, k=4, kind=ObjectiveKind.MAX_SUM, lam=0.5, seed=8
        )
        dense = ScoringKernel(instance, use_numpy=use_numpy)
        kernel = tiled_kernel(
            instance,
            use_numpy,
            block_size=4,
            workers=2,
            max_resident_tiles=2,
        )
        kernel.materialize_all()
        assert kernel.storage_stats()["evictions"] > 0
        assert_matrices_equal(dense, kernel)

    def test_dense_rejects_spill_mode(self, tmp_path):
        """Dense storage is one eager allocation: it rejects a spill
        directory."""
        instance = random_instance(n=8, k=3, seed=1)
        with pytest.raises(KernelError, match="dense"):
            ScoringKernel(
                instance,
                use_numpy=False,
                config=EngineConfig(spill_dir=str(tmp_path)),
            )


class TestSketchPooled:
    @staticmethod
    def columns(sketch):
        c = sketch._c
        return c.tolist() if sketch.backend == "numpy" else c

    @pytest.mark.parametrize("use_numpy", BACKENDS)
    def test_sketch_fans_out_like_the_grid(self, monkeypatch, use_numpy):
        """Landmark columns follow the grid's rule at ``workers=2``:
        threads on NumPy, serial on pure Python, no process on either —
        and the columns equal the serial sketch's."""
        instance = random_instance(
            n=23, k=4, kind=ObjectiveKind.MAX_SUM, lam=0.5, seed=3
        )
        knobs = dict(storage="tiled", approx=True, sketch_columns=5, block_size=4)
        serial = tiled_kernel(instance, use_numpy, **knobs).sketch()
        children = child_processes()
        if not use_numpy:
            no_threads(monkeypatch)
        pooled = tiled_kernel(instance, use_numpy, workers=2, **knobs).sketch()
        assert child_processes() == children
        assert pooled.landmark_positions == serial.landmark_positions
        assert self.columns(pooled) == self.columns(serial)
