"""Pluggable kernel storage: how the pairwise-distance matrix is held.

:class:`~repro.engine.kernel.ScoringKernel` used to own a single
contiguous O(n²) float64 allocation.  That layout is the binding
constraint on answer-pool size — the scaling wall the blocked/partitioned
processing literature (Zhang et al.; Capannini et al.) attacks — and
since PR 3 every selector consumes the matrix exclusively through kernel
accessor methods, the layout can change beneath them.  This module is
that seam: a :class:`KernelStorage` contract plus two implementations.

* :class:`DenseStorage` — the previous behaviour, verbatim: one
  contiguous float64 matrix (NumPy 2-D array or list-of-lists), filled
  in full from blocked provider calls when it is created.  The default.
* :class:`TiledStorage` — the matrix stays a grid of ``block_size``-square
  tiles.  Tiles are built **lazily** on first touch (a selector that
  reads only some rows never pays for the rest), only on-or-above the
  diagonal (below-diagonal tiles are transpose mirrors — views on the
  NumPy backend, so they cost no memory), optionally **in parallel** on
  NumPy (:meth:`TiledStorage.ensure_all` fans independent tile builds
  out over threads through :func:`~repro.engine.parallel.build_blocks`;
  pure-Python builds run serially), optionally **narrowed** to
  float32 (``dtype="float32"`` halves storage; every read widens back
  to float64 so reductions and selector arithmetic stay in double
  precision), and optionally **bounded** (an LRU tile budget whose
  evicted tiles rebuild on touch, or with ``spill_dir`` go to one
  append-only segment file that spilled row reads are served from).

A kernel creates its storage on its first distance read, whatever the
kind, so a kernel that never reads a distance holds none.

Storage reads its knobs off the kernel's :class:`~repro.api.EngineConfig`,
held by reference; :meth:`~repro.api.EngineConfig.validate` is the one
place a storage knob is checked.

Exactness contract: with ``dtype="float64"`` a tiled matrix is
element-wise identical to the dense one — tiles are filled from the same
``distance_block`` provider calls (whose values are block-shape
independent by the provider exactness contract), row sums accumulate in
the same left-to-right IEEE order, and delta patches copy the same
floats — so selections cannot differ across storage kinds.
``dtype="float32"`` deliberately steps outside that contract: stored
values are the correctly-rounded float32 neighbours of the float64
distances (a ≤ 2⁻²⁴ relative perturbation per entry), which the parity
suite bounds and the pinned-selection tests show is selection-preserving
on the reference workloads.

Every method that *reads* matrix content returns float64 (Python floats,
float64 rows, float64 gathers) regardless of the storage dtype; the
narrow dtype exists only at rest.
"""

from __future__ import annotations

import logging
import math
import os
import shutil
import struct
import tempfile
import weakref
from collections import OrderedDict
from collections.abc import Callable, Sequence
from typing import TYPE_CHECKING

from .parallel import build_blocks

if TYPE_CHECKING:
    from ..api import EngineConfig

try:
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI cells
    _np = None

__all__ = [
    "StorageError",
    "KernelStorage",
    "DenseStorage",
    "TiledStorage",
    "SketchedStorage",
    "DEFAULT_BLOCK_SIZE",
    "STORAGE_KINDS",
    "STORAGE_DTYPES",
    "STORAGE_COUNTERS",
    "make_storage",
]

_LOG = logging.getLogger(__name__)

#: Rows per tile of the blocked distance-matrix construction.  Large
#: enough that NumPy per-call overhead amortizes, small enough that a
#: tile's feature matrices stay cache-friendly.
DEFAULT_BLOCK_SIZE = 256

#: Recognized ``storage=`` spellings.  The landmark-column
#: :class:`SketchedStorage` is not one of them: ``approx=True`` decides
#: when selection reads it, whatever the exact storage kind.
STORAGE_KINDS = ("dense", "tiled")

#: Recognized ``dtype=`` spellings (float32 is tiled-only).
STORAGE_DTYPES = ("float64", "float32")

#: The counters every storage kind reports through
#: :meth:`~repro.engine.kernel.ScoringKernel.storage_stats`, summed by
#: the engine and ``/stats``.  ``mmap_reads`` counts positioned reads of
#: one row (or one value) out of the spill segment; ``bytes_mapped``
#: counts every byte read back from it, whole-tile ``spill_loads``
#: included; ``spill_failures`` counts evicted tiles that could not be
#: written (they rebuild on touch instead).
STORAGE_COUNTERS = (
    "evictions",
    "spills",
    "spill_failures",
    "spill_loads",
    "rebuilds",
    "mmap_reads",
    "bytes_mapped",
    "resident_tiles",
    "resident_bytes",
)

#: ``BlockBuilder(a0, a1, b0, b1)`` returns the provider distance block
#: for answer rows ``[a0:a1] × [b0:b1]`` — a float64 NumPy array on the
#: numpy backend, nested float lists on the pure-Python backend.  Equal
#: ranges mark a symmetric diagonal block (providers score the triangle
#: once).  The kernel owns the builder; storage owns when it runs.
BlockBuilder = Callable[[int, int, int, int], object]


class StorageError(ValueError):
    """Raised on kernel-storage misuse (a sketch without enough
    landmark columns)."""


def _float32_round(value: float) -> float:
    """``value`` rounded to its nearest float32 and widened back — the
    pure-Python spelling of ``np.float64(np.float32(value))``, including
    the overflow-to-infinity behaviour of the NumPy cast (``struct``
    refuses to pack finite doubles beyond float32 range)."""
    try:
        return struct.unpack("<f", struct.pack("<f", value))[0]
    except OverflowError:
        return math.inf if value > 0 else -math.inf


class KernelStorage:
    """The matrix contract :class:`ScoringKernel` delegates through.

    Implementations own layout, laziness and dtype; the kernel owns the
    snapshot, the relevance vector and all objective arithmetic.  All
    reads return float64 values.  Instances are not safe for concurrent
    readers — parallelism lives inside :meth:`ensure_all` only.
    """

    #: Empty so subclass ``__slots__`` actually take effect (a slotted
    #: subclass of a dict-bearing base still gets a ``__dict__``).
    __slots__ = ()

    kind: str = "storage"
    n: int
    backend: str  # "numpy" | "python"
    dtype: str

    # -- build state ------------------------------------------------------

    @property
    def is_fully_built(self) -> bool:
        """Has every matrix entry been scored/stored?"""
        raise NotImplementedError

    def ensure_all(self) -> None:
        """Force every entry to be built (lazy storages pay the full
        O(n²) scoring here; threaded on NumPy when ``workers`` > 1)."""
        raise NotImplementedError

    # -- element / row reads ----------------------------------------------

    def get(self, i: int, j: int) -> float:
        raise NotImplementedError

    def row64(self, i: int):
        """Row ``i`` as a float64 backend vector.  May be a live view —
        callers must treat it as read-only."""
        raise NotImplementedError

    def copy_row64(self, i: int):
        """Row ``i`` as a fresh, caller-owned float64 vector."""
        raise NotImplementedError

    def minimum_into(self, vec, i: int):
        """Elementwise ``vec = min(vec, row_i)`` into a float64 vector."""
        raise NotImplementedError

    def add_into(self, vec, i: int):
        """Elementwise ``vec += row_i`` into a float64 vector."""
        raise NotImplementedError

    # -- aggregate reads --------------------------------------------------

    def row_sums64(self) -> list[float]:
        """Left-to-right per-row sums (float list, float64 arithmetic)."""
        raise NotImplementedError

    def gather64(self, rows: Sequence[int], cols: Sequence[int]):
        """The ``rows × cols`` submatrix as float64 (2-D array / lists)."""
        raise NotImplementedError

    def to_lists(self) -> list[list[float]]:
        """The full matrix as plain float lists (one copy)."""
        raise NotImplementedError

    # -- delta maintenance ------------------------------------------------

    def remap(
        self,
        old_of_new: Sequence[int],
        new_positions: Sequence[int],
        inserted_block,
        builder: BlockBuilder,
    ) -> "KernelStorage":
        """A storage for the patched snapshot of ``len(old_of_new)`` rows.

        ``old_of_new[p]`` is the old index of new position ``p`` (−1 for
        inserted rows); ``new_positions`` lists the inserted positions in
        the order of ``inserted_block``'s rows, which hold the provider
        distances of each inserted row against the *entire new* snapshot
        (``None`` when nothing was inserted).  ``builder`` scores blocks
        of the new snapshot — lazy storages keep it for tiles the patch
        does not cover.
        """
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n}, backend={self.backend}, dtype={self.dtype})"


class DenseStorage(KernelStorage):
    """One contiguous float64 matrix — the historical kernel layout.

    Construction is eager: the full matrix is assembled at ``__init__``
    from blocked builder calls (tiles on/above the diagonal scored,
    below-diagonal mirrored), exactly as the pre-storage kernel did.
    """

    kind = "dense"
    dtype = "float64"

    __slots__ = ("n", "backend", "_m")

    def __init__(
        self,
        n: int,
        builder: BlockBuilder | None,
        use_numpy: bool,
        block_size: int,
    ):
        self.n = n
        self.backend = "numpy" if use_numpy else "python"
        if builder is None:
            self._m = None  # filled by _from_matrix
            return
        step = block_size
        if use_numpy:
            dist = _np.zeros((n, n), dtype=_np.float64)
            for a0 in range(0, n, step):
                a1 = min(a0 + step, n)
                for b0 in range(a0, n, step):
                    b1 = min(b0 + step, n)
                    block = _np.asarray(builder(a0, a1, b0, b1), dtype=_np.float64)
                    dist[a0:a1, b0:b1] = block
                    if b0 != a0:
                        dist[b0:b1, a0:a1] = block.T
        else:
            dist = [[0.0] * n for _ in range(n)]
            for a0 in range(0, n, step):
                a1 = min(a0 + step, n)
                for b0 in range(a0, n, step):
                    b1 = min(b0 + step, n)
                    block = builder(a0, a1, b0, b1)
                    for i, block_row in enumerate(block):
                        dist_row = dist[a0 + i]
                        for j, value in enumerate(block_row):
                            dist_row[b0 + j] = value
                    if b0 != a0:
                        for i, block_row in enumerate(block):
                            for j, value in enumerate(block_row):
                                dist[b0 + j][a0 + i] = value
        self._m = dist

    @classmethod
    def _from_matrix(cls, matrix, n: int, use_numpy: bool) -> "DenseStorage":
        storage = cls(n, None, use_numpy, block_size=1)
        storage._m = matrix
        return storage

    # -- build state ------------------------------------------------------

    @property
    def is_fully_built(self) -> bool:
        return True

    def ensure_all(self) -> None:
        pass

    # -- reads ------------------------------------------------------------

    def get(self, i: int, j: int) -> float:
        if self.backend == "numpy":
            return float(self._m[i, j])
        return self._m[i][j]

    def row64(self, i: int):
        return self._m[i]

    def copy_row64(self, i: int):
        if self.backend == "numpy":
            return self._m[i].copy()
        return list(self._m[i])

    def minimum_into(self, vec, i: int):
        return _minimum_into(vec, self._m[i], self.backend == "numpy")

    def add_into(self, vec, i: int):
        return _add_into(vec, self._m[i], self.backend == "numpy")

    def row_sums64(self) -> list[float]:
        # Sequential left-to-right sums (neither numpy's pairwise
        # summation nor the compensated float ``sum()`` of Python 3.12+),
        # so item-score orderings never diverge between backends or
        # storage kinds.  The numpy path accumulates column by column —
        # the same IEEE additions from the same 0.0 seed, vectorized
        # across rows.
        if self.backend == "numpy":
            acc = _np.zeros(self.n, dtype=_np.float64)
            for j in range(self.n):
                acc = acc + self._m[:, j]
            return acc.tolist()
        return [_fold(0.0, row) for row in self._m]

    def gather64(self, rows: Sequence[int], cols: Sequence[int]):
        if self.backend == "numpy":
            return self._m[
                _np.ix_(
                    _np.asarray(rows, dtype=_np.intp),
                    _np.asarray(cols, dtype=_np.intp),
                )
            ]
        return [[self._m[i][j] for j in cols] for i in rows]

    def to_lists(self) -> list[list[float]]:
        if self.backend == "numpy":
            return self._m.tolist()
        return [list(row) for row in self._m]

    # -- delta maintenance ------------------------------------------------

    def remap(
        self,
        old_of_new: Sequence[int],
        new_positions: Sequence[int],
        inserted_block,
        builder: BlockBuilder,
    ) -> "DenseStorage":
        m = len(old_of_new)
        use_numpy = self.backend == "numpy"
        kept = [old for old in old_of_new if old >= 0]
        if use_numpy:
            new_dist = _np.zeros((m, m), dtype=_np.float64)
            if kept:
                kept_pos = _np.asarray(
                    [p for p, old in enumerate(old_of_new) if old >= 0],
                    dtype=_np.intp,
                )
                old_idx = _np.asarray(kept, dtype=_np.intp)
                new_dist[_np.ix_(kept_pos, kept_pos)] = self._m[
                    _np.ix_(old_idx, old_idx)
                ]
            if new_positions:
                block = _np.asarray(inserted_block, dtype=_np.float64)
                pos = _np.asarray(new_positions, dtype=_np.intp)
                new_dist[pos, :] = block
                new_dist[:, pos] = block.T
        else:
            new_dist = []
            for old in old_of_new:
                if old >= 0:
                    old_row = self._m[old]
                    new_dist.append(
                        [old_row[q] if q >= 0 else 0.0 for q in old_of_new]
                    )
                else:
                    new_dist.append([0.0] * m)
            if new_positions:
                for block_row, p in zip(inserted_block, new_positions):
                    new_dist[p] = [float(v) for v in block_row]
                    for q in range(m):
                        new_dist[q][p] = new_dist[p][q]
        return DenseStorage._from_matrix(new_dist, m, use_numpy)


def _fold(total: float, values) -> float:
    """``total`` plus ``values``, added one at a time, left to right."""
    for value in values:
        total = total + value
    return total


def _minimum_into(vec, row, use_numpy: bool):
    """Elementwise ``vec = min(vec, row)`` in place; returns ``vec``."""
    if use_numpy:
        _np.minimum(vec, row, out=vec)
        return vec
    for j, value in enumerate(row):
        if value < vec[j]:
            vec[j] = value
    return vec


def _add_into(vec, row, use_numpy: bool):
    """Elementwise ``vec += row`` in place; returns ``vec``."""
    if use_numpy:
        vec += row
        return vec
    for j, value in enumerate(row):
        vec[j] = vec[j] + value
    return vec


def _close_segment(fd: int, path: str) -> None:
    """The spill segment's finalizer: close its descriptor and remove
    its ``tiles-*`` directory."""
    os.close(fd)
    shutil.rmtree(path, ignore_errors=True)


class TiledStorage(KernelStorage):
    """A lazy grid of ``block_size``-square tiles.

    Only tiles on/above the diagonal are scored (each exactly once, on
    first touch); a below-diagonal tile is the transpose of its mirror —
    a zero-copy view on the NumPy backend.  ``dtype="float32"`` stores
    tiles narrowed (reads widen back to float64); on the pure-Python
    backend float32 values are emulated by round-tripping each float
    through IEEE binary32, so both backends store the same numbers.
    ``workers`` > 1 (or ``"auto"``) parallelizes :meth:`ensure_all` over
    independent tile builds on NumPy threads; pure-Python builds run
    serially (see :func:`~repro.engine.parallel.build_blocks`).

    **Tile spilling** bounds resident memory below O(n²): with
    ``max_resident_tiles`` and/or ``max_resident_bytes`` set, built upper
    tiles live in an LRU, and an evicted tile is rebuilt on next touch
    from the same provider calls (identical floats by the provider
    exactness contract) — unless ``spill_dir`` is set.  Then its first
    eviction appends it to one segment file per storage, in a
    ``tiles-*`` directory under ``spill_dir``, as fixed-width
    little-endian IEEE values on both backends: the upper tile row by
    row and, off the diagonal, its transpose — the rows of the mirror
    tile.  Every spilled row read (``row64`` and ``get``, beneath the
    kernel's row reads) is then one ``os.pread`` of at most
    ``block_size`` values, for upper and mirror tiles alike, without
    rehydrating the tile or disturbing the LRU; whole-tile consumers
    (gathers, ``remap``, ``row_sums64`` and ``to_lists``) load the
    upper copy back into the LRU.  Reads round-trip IEEE-exactly.  A
    spill that fails (an unusable directory, a full disk) is logged once
    and counted in ``spill_failures``; the tile stays evicted and
    rebuilds on touch.
    ``tiles_built`` / ``is_fully_built`` track *ever-built* tiles, so
    laziness observability and remap semantics are unchanged by
    eviction.
    """

    kind = "tiled"

    __slots__ = (
        "n",
        "backend",
        "config",
        "dtype",
        "block_size",
        "_builder",
        "_nb",
        "_tiles",
        "_built_upper",
        "_lru",
        "_resident_bytes",
        "_itemsize",
        "_segment_fd",
        "_segment_offsets",
        "_segment_size",
        "_counters",
        "__weakref__",
    )

    def __init__(
        self,
        n: int,
        builder: BlockBuilder,
        use_numpy: bool,
        config: "EngineConfig",
    ):
        self.n = n
        self.backend = "numpy" if use_numpy else "python"
        self.config = config
        self.dtype = config.dtype or "float64"
        self.block_size = config.block_size or DEFAULT_BLOCK_SIZE
        self._builder = builder
        self._nb = -(-n // self.block_size) if n else 0
        self._tiles: dict[tuple[int, int], object] = {}
        self._built_upper: set[tuple[int, int]] = set()
        budgeted = (
            config.max_resident_tiles is not None
            or config.max_resident_bytes is not None
        )
        self._lru: OrderedDict[tuple[int, int], int] | None = (
            OrderedDict() if budgeted else None
        )
        self._resident_bytes = 0
        # Bytes per stored value, on disk as at rest.
        self._itemsize = 4 if self.dtype == "float32" else 8
        self._segment_fd: int | None = None
        # Byte offset of every spilled logical tile, upper and mirror.
        self._segment_offsets: dict[tuple[int, int], int] = {}
        self._segment_size = 0
        self._counters = dict.fromkeys(STORAGE_COUNTERS, 0)

    # -- tile plumbing ----------------------------------------------------

    def _bounds(self, b: int) -> tuple[int, int]:
        lo = b * self.block_size
        return lo, min(lo + self.block_size, self.n)

    def _tile_shape(self, bi: int, bj: int) -> tuple[int, int]:
        a0, a1 = self._bounds(bi)
        b0, b1 = self._bounds(bj)
        return a1 - a0, b1 - b0

    def _narrow(self, block):
        """A provider block converted to the storage dtype."""
        if self.backend == "numpy":
            target = _np.float32 if self.dtype == "float32" else _np.float64
            return _np.asarray(block, dtype=target)
        if self.dtype == "float32":
            return [[_float32_round(v) for v in row] for row in block]
        return [[float(v) for v in row] for row in block]

    def _score(self, bi: int, bj: int):
        """The raw provider block of tile ``(bi, bj)``."""
        return self._builder(*self._bounds(bi), *self._bounds(bj))

    def _store_upper(self, bi: int, bj: int, tile) -> None:
        self._tiles[(bi, bj)] = tile
        if bi != bj and self.backend == "numpy":
            self._tiles[(bj, bi)] = tile.T  # zero-copy view
        self._built_upper.add((bi, bj))
        if self._lru is not None:
            key = (bi, bj)
            nbytes = self._tile_nbytes(tile)
            if key not in self._lru:
                self._resident_bytes += nbytes
            self._lru[key] = nbytes
            self._lru.move_to_end(key)
            self._evict_over_budget()

    def _tile(self, bi: int, bj: int):
        tile = self._tiles.get((bi, bj))
        if tile is not None:
            if self._lru is not None:
                key = (bi, bj) if bi <= bj else (bj, bi)
                if key in self._lru:
                    self._lru.move_to_end(key)
            return tile
        ui, uj = (bi, bj) if bi <= bj else (bj, bi)
        upper = self._tiles.get((ui, uj))
        if upper is None:
            upper = self._revive_upper(ui, uj)
            self._store_upper(ui, uj, upper)
            if (bi, bj) in self._tiles:  # numpy mirrors appear with the build
                return self._tiles[(bi, bj)]
        if (bi, bj) == (ui, uj):
            return upper
        # Pure-Python mirror: transposed on first touch only (the float
        # objects are shared with the upper tile; only the list skeleton
        # is new), so never-read mirror sides cost nothing.
        mirror = [list(col) for col in zip(*upper)]
        self._tiles[(bi, bj)] = mirror
        return mirror

    def _revive_upper(self, ui: int, uj: int):
        """A missing upper tile: load it back from the segment, rebuild
        an evicted one from the provider, or build it for the first
        time."""
        if (ui, uj) in self._built_upper:
            offset = self._segment_offsets.get((ui, uj))
            if offset is not None:
                self._counters["spill_loads"] += 1
                rows, cols = self._tile_shape(ui, uj)
                flat = self._segment_read(offset, rows * cols)
                if self.backend == "numpy":
                    return flat.reshape(rows, cols)
                return [list(flat[r * cols : (r + 1) * cols]) for r in range(rows)]
            self._counters["rebuilds"] += 1
        return self._narrow(self._score(ui, uj))

    # -- tile budget / spilling --------------------------------------------

    def _tile_nbytes(self, tile) -> int:
        if self.backend == "numpy":
            return int(tile.nbytes)
        # Pure-Python float objects cost far more than 8 bytes each; the
        # budget tracks matrix *payload* so both backends account alike.
        return len(tile) * (len(tile[0]) if tile else 0) * 8

    def _over_budget(self) -> bool:
        max_tiles = self.config.max_resident_tiles
        if max_tiles is not None and len(self._lru) > max_tiles:
            return True
        max_bytes = self.config.max_resident_bytes
        return max_bytes is not None and self._resident_bytes > max_bytes

    def _evict_over_budget(self) -> None:
        # The newest tile always stays resident (its caller holds it),
        # so a budget below one tile degrades to "one tile at a time".
        while len(self._lru) > 1 and self._over_budget():
            (bi, bj), nbytes = self._lru.popitem(last=False)
            tile = self._tiles.pop((bi, bj))
            self._tiles.pop((bj, bi), None)
            self._resident_bytes -= nbytes
            self._counters["evictions"] += 1
            if (
                self.config.spill_dir is not None
                and (bi, bj) not in self._segment_offsets
            ):
                self._spill(bi, bj, tile)

    # -- the spill segment -------------------------------------------------

    @property
    def _pack_fmt(self) -> str:
        return "f" if self.dtype == "float32" else "d"

    def _encode(self, tile) -> bytes:
        """A tile's values, row by row, as little-endian IEEE bytes."""
        if self.backend == "numpy":
            return _np.asarray(tile, dtype=f"<f{self._itemsize}").tobytes()
        flat = [v for row in tile for v in row]
        return struct.pack(f"<{len(flat)}{self._pack_fmt}", *flat)

    def _open_segment(self) -> None:
        os.makedirs(self.config.spill_dir, exist_ok=True)
        path = tempfile.mkdtemp(dir=self.config.spill_dir, prefix="tiles-")
        try:
            fd = os.open(
                os.path.join(path, "segment.bin"),
                os.O_RDWR | os.O_CREAT | os.O_EXCL,
                0o600,
            )
        except OSError:
            shutil.rmtree(path, ignore_errors=True)
            raise
        self._segment_fd = fd
        weakref.finalize(self, _close_segment, fd, path)

    def _spill(self, bi: int, bj: int, tile) -> None:
        """Append evicted upper tile ``(bi, bj)`` to the segment: its
        rows, then — off the diagonal — the rows of mirror ``(bj, bi)``.

        Offsets are recorded only once the whole write has landed, so a
        write that fails part-way leaves the tile evicted (it rebuilds
        on touch), and the next append overwrites its partial bytes."""
        upper = self._encode(tile)
        data = upper
        if bi != bj:
            mirror = tile.T if self.backend == "numpy" else list(zip(*tile))
            data += self._encode(mirror)
        offset = self._segment_size
        try:
            if self._segment_fd is None:
                self._open_segment()
            view = memoryview(data)
            written = 0
            while written < len(view):
                written += os.pwrite(
                    self._segment_fd, view[written:], offset + written
                )
        except OSError as exc:
            self._counters["spill_failures"] += 1
            if self._counters["spill_failures"] == 1:
                _LOG.warning(
                    "tile spill to %s failed (%s: %s); evicted tiles "
                    "rebuild on touch",
                    self.config.spill_dir,
                    type(exc).__name__,
                    exc,
                )
            return
        self._segment_offsets[(bi, bj)] = offset
        if bi != bj:
            self._segment_offsets[(bj, bi)] = offset + len(upper)
        self._segment_size = offset + len(data)
        self._counters["spills"] += 1

    def _segment_read(self, offset: int, count: int):
        """``count`` stored values at byte ``offset`` of the segment, in
        one positioned read: a little-endian NumPy vector, or a tuple of
        floats on pure Python."""
        nbytes = count * self._itemsize
        data = os.pread(self._segment_fd, nbytes, offset)
        self._counters["bytes_mapped"] += nbytes
        if self.backend == "numpy":
            return _np.frombuffer(data, dtype=f"<f{self._itemsize}")
        return struct.unpack(f"<{count}{self._pack_fmt}", data)

    def _spilled_row(
        self, bi: int, bj: int, local: int, lo: int = 0, hi: int | None = None
    ):
        """Values ``[lo:hi)`` of row ``local`` of logical tile
        ``(bi, bj)``, read straight out of the segment — or ``None``
        when the tile's upper copy is resident or was never spilled, and
        the caller takes the tile path.  The segment holds mirror tiles
        in row order too, so upper and mirror rows alike are one read of
        the exact IEEE bytes the tile spilled with."""
        upper = (bi, bj) if bi <= bj else (bj, bi)
        offset = self._segment_offsets.get((bi, bj))
        if offset is None or upper in self._tiles:
            return None
        b0, b1 = self._bounds(bj)
        cols = b1 - b0
        if hi is None:
            hi = cols
        self._counters["mmap_reads"] += 1
        return self._segment_read(
            offset + (local * cols + lo) * self._itemsize, hi - lo
        )

    @property
    def spill_stats(self) -> dict[str, int]:
        """Eviction/spill observability: cumulative counters plus the
        current residency (tracked per-tile only under a budget)."""
        stats = dict(self._counters)
        stats["resident_tiles"] = (
            len(self._lru) if self._lru is not None else self.tiles_built
        )
        stats["resident_bytes"] = self._resident_bytes
        return stats

    def _tile64(self, bi: int, bj: int):
        """Tile as float64 (numpy backend only; may copy to widen)."""
        return self._tile(bi, bj).astype(_np.float64, copy=False)

    @property
    def tiles_built(self) -> int:
        """Scored (on/above-diagonal) tiles built so far — the lazy-path
        observability hook the tests and the storage bench assert on."""
        return len(self._built_upper)

    @property
    def total_tiles(self) -> int:
        return self._nb * (self._nb + 1) // 2

    @property
    def is_fully_built(self) -> bool:
        return len(self._built_upper) >= self.total_tiles

    def ensure_all(self) -> None:
        keys = [
            (bi, bj)
            for bi in range(self._nb)
            for bj in range(bi, self._nb)
            if (bi, bj) not in self._built_upper
        ]
        # Diagonal tiles prime a threaded build: they touch every row
        # range once, so providers with per-row caches (feature vectors)
        # warm them without threads racing to duplicate the GIL-bound
        # cache fills.  Every block is narrowed and stored on this thread.
        build_blocks(
            keys,
            lambda key: self._score(*key),
            lambda key, block: self._store_upper(*key, self._narrow(block)),
            self.config.workers,
            self.backend == "numpy",
            prime=lambda key: key[0] == key[1],
        )

    # -- reads ------------------------------------------------------------

    def get(self, i: int, j: int) -> float:
        bi, li = divmod(i, self.block_size)
        bj, lj = divmod(j, self.block_size)
        spilled = self._spilled_row(bi, bj, li, lj, lj + 1)
        if spilled is not None:
            return float(spilled[0])
        tile = self._tile(bi, bj)
        if self.backend == "numpy":
            return float(tile[li, lj])
        return tile[li][lj]

    def _tile_value(self, i: int, j: int) -> float:
        """Entry ``(i, j)`` read through its whole tile (pure Python):
        whole-tile consumers load a spilled upper copy back once instead
        of reading the segment value by value."""
        bi, li = divmod(i, self.block_size)
        bj, lj = divmod(j, self.block_size)
        return self._tile(bi, bj)[li][lj]

    def _row_parts(self, i: int):
        bi, local = divmod(i, self.block_size)
        parts = []
        for b in range(self._nb):
            part = self._spilled_row(bi, b, local)
            if part is None:
                part = self._tile(bi, b)[local]
            parts.append(part)
        return parts

    def row64(self, i: int):
        if self.backend == "numpy":
            parts = self._row_parts(i)
            if len(parts) == 1:
                return parts[0].astype(_np.float64)  # always a fresh copy
            return _np.concatenate(parts).astype(_np.float64, copy=False)
        row: list[float] = []
        for part in self._row_parts(i):
            row.extend(part)
        return row

    def copy_row64(self, i: int):
        return self.row64(i)  # assembly always yields a fresh vector

    def minimum_into(self, vec, i: int):
        return _minimum_into(vec, self.row64(i), self.backend == "numpy")

    def add_into(self, vec, i: int):
        return _add_into(vec, self.row64(i), self.backend == "numpy")

    def _tile_rows64(self):
        """Every row of the matrix, one tile-row at a time: a float64
        2-D array per tile-row on NumPy, a list of row lists on pure
        Python.  Each tile of a tile-row is touched once — read row by
        row, a tile budget smaller than a tile-row would rebuild every
        tile the previous row evicted."""
        self.ensure_all()
        for bi in range(self._nb):
            if self.backend == "numpy":
                yield _np.concatenate(
                    [self._tile64(bi, b) for b in range(self._nb)], axis=1
                )
                continue
            a0, a1 = self._bounds(bi)
            rows = [[] for _ in range(a1 - a0)]
            for b in range(self._nb):
                for row, part in zip(rows, self._tile(bi, b)):
                    row.extend(part)
            yield rows

    def row_sums64(self) -> list[float]:
        # Same left-to-right accumulation as DenseStorage, so each row's
        # additions happen in the identical IEEE order and float64 tiled
        # row sums are bitwise-equal to dense ones.
        if self.backend != "numpy":
            return [_fold(0.0, row) for rows in self._tile_rows64() for row in rows]
        sums: list[float] = []
        for rows in self._tile_rows64():
            acc = _np.zeros(len(rows), dtype=_np.float64)
            for j in range(self.n):
                acc = acc + rows[:, j]
            sums.extend(acc.tolist())
        return sums

    def gather64(self, rows: Sequence[int], cols: Sequence[int]):
        if self.backend != "numpy":
            return [[self._tile_value(i, j) for j in cols] for i in rows]
        # Widening float32 → float64 is exact, so gathering in the
        # storage dtype first loses nothing.
        return self._gather_raw(rows, cols).astype(_np.float64, copy=False)

    def to_lists(self) -> list[list[float]]:
        if self.backend != "numpy":
            return [row for rows in self._tile_rows64() for row in rows]
        return [row for rows in self._tile_rows64() for row in rows.tolist()]

    # -- delta maintenance ------------------------------------------------

    def remap(
        self,
        old_of_new: Sequence[int],
        new_positions: Sequence[int],
        inserted_block,
        builder: BlockBuilder,
    ) -> "TiledStorage":
        m = len(old_of_new)
        new = TiledStorage(m, builder, self.backend == "numpy", self.config)
        # One counter set across patches: the patched grid reports the
        # cumulative counts, the old grid's reads during this patch too.
        new._counters = self._counters
        if not self.is_fully_built:
            # A partially-built grid is cheaper to re-derive lazily from
            # the new snapshot than to patch: untouched tiles were never
            # scored, so there is nothing to salvage tile-for-tile.
            return new
        delta_of = {p: d for d, p in enumerate(new_positions)}
        use_numpy = self.backend == "numpy"
        if use_numpy and new_positions:
            inserted_block = _np.asarray(inserted_block, dtype=_np.float64)
        for bi in range(new._nb):
            r0, r1 = new._bounds(bi)
            for bj in range(bi, new._nb):
                c0, c1 = new._bounds(bj)
                tile = self._remap_tile(
                    old_of_new, delta_of, inserted_block, r0, r1, c0, c1
                )
                new._store_upper(bi, bj, tile)
        return new

    def _remap_tile(self, old_of_new, delta_of, block, r0, r1, c0, c1):
        """One patched tile: kept×kept entries gathered from the old
        grid (dtype-to-dtype, no re-rounding), entries touching an
        inserted row overlaid from the provider's Δ×m block (narrowed
        exactly as a fresh build would narrow them)."""
        if self.backend == "numpy":
            kept_r = [
                (p - r0, old_of_new[p])
                for p in range(r0, r1)
                if old_of_new[p] >= 0
            ]
            kept_c = [
                (q - c0, old_of_new[q])
                for q in range(c0, c1)
                if old_of_new[q] >= 0
            ]
            target = _np.float32 if self.dtype == "float32" else _np.float64
            tile = _np.zeros((r1 - r0, c1 - c0), dtype=target)
            if kept_r and kept_c:
                sub = self._gather_raw([o for _, o in kept_r], [o for _, o in kept_c])
                tile[_np.ix_([p for p, _ in kept_r], [q for q, _ in kept_c])] = sub
            for p in range(r0, r1):
                d = delta_of.get(p)
                if d is not None:
                    tile[p - r0, :] = block[d, c0:c1].astype(target)
            for q in range(c0, c1):
                d = delta_of.get(q)
                if d is not None:
                    tile[:, q - c0] = block[d, r0:r1].astype(target)
            return tile
        tile = []
        for p in range(r0, r1):
            old_r = old_of_new[p]
            d_r = delta_of.get(p)
            row = []
            for q in range(c0, c1):
                old_c = old_of_new[q]
                if d_r is not None:
                    value = self._narrow_scalar(float(block[d_r][q]))
                elif old_c < 0:
                    value = self._narrow_scalar(float(block[delta_of[q]][p]))
                else:
                    value = self._tile_value(old_r, old_c)
                row.append(value)
            tile.append(row)
        return tile

    def _narrow_scalar(self, value: float) -> float:
        if self.dtype == "float32":
            return _float32_round(value)
        return value

    def _gather_raw(self, rows: Sequence[int], cols: Sequence[int]):
        """``rows × cols`` submatrix in the storage dtype (numpy only)."""
        target = _np.float32 if self.dtype == "float32" else _np.float64
        out = _np.empty((len(rows), len(cols)), dtype=target)
        row_groups: dict[int, list[int]] = {}
        for p, i in enumerate(rows):
            row_groups.setdefault(i // self.block_size, []).append(p)
        col_groups: dict[int, list[int]] = {}
        for q, j in enumerate(cols):
            col_groups.setdefault(j // self.block_size, []).append(q)
        for bi, rp in row_groups.items():
            li = [rows[p] - bi * self.block_size for p in rp]
            for bj, cq in col_groups.items():
                lj = [cols[q] - bj * self.block_size for q in cq]
                tile = self._tile(bi, bj)
                out[_np.ix_(rp, cq)] = tile[_np.ix_(li, lj)]
        return out

    def __repr__(self) -> str:
        return (
            f"TiledStorage(n={self.n}, backend={self.backend}, dtype={self.dtype}, "
            f"block={self.block_size}, tiles={self.tiles_built}/{self.total_tiles}, "
            f"workers={self.config.workers or 1})"
        )


class SketchedStorage:
    """m exact landmark distance columns (m ≪ n) — an O(n·m) sketch.

    Not a :class:`KernelStorage`: it cannot answer arbitrary pairwise
    reads exactly, so it lives *beside* the kernel's exact storage
    rather than behind the same contract.  What it stores is the n×m
    matrix ``C`` with ``C[i][l] = d(answers[i], answers[landmark_l])``
    scored exactly through the provider.  For any metric distance the
    triangle inequality then brackets every pairwise distance:

        max_l |C[i][l] − C[j][l]|  ≤  d(i, j)  ≤  min_l (C[i][l] + C[j][l])

    The approximate selectors are the exact selection loops reading
    their rows from here: :meth:`copy_distance_row`,
    :meth:`minimum_inplace` and :meth:`add_row_inplace` answer the
    kernel's three row calls with *lower*-bound rows (an admissible
    surrogate for max-sum/max-min style objectives, which are monotone
    in distances).  The chosen ≤ k rows are then scored exactly, so the
    reported value is never an estimate and the bound evaluations become
    the recorded :class:`~repro.algorithms.substrate.ApproxCertificate`.

    A landmark column is exact by construction: if ``j`` is landmark
    ``l`` then the lower and upper bounds at column ``l`` both collapse
    to ``C[i][l]`` itself.
    """

    kind = "sketched"
    dtype = "float64"

    __slots__ = ("n", "backend", "strategy", "landmark_positions", "_c")

    def __init__(
        self,
        n: int,
        landmark_positions: Sequence[int],
        columns,
        use_numpy: bool,
        strategy: str,
    ):
        if len(landmark_positions) < 2 and len(landmark_positions) != n:
            # m == n means every row is a landmark: each bound collapses
            # to the exact distance (the l = j column), so tiny snapshots
            # degrade to exact dense semantics instead of erroring.
            raise StorageError(
                "a distance sketch needs at least 2 landmark columns, "
                f"got {len(landmark_positions)}"
            )
        self.n = n
        self.backend = "numpy" if use_numpy else "python"
        self.strategy = strategy
        self.landmark_positions = tuple(landmark_positions)
        if use_numpy:
            self._c = _np.asarray(columns, dtype=_np.float64)
        else:
            self._c = [[float(v) for v in row] for row in columns]

    @classmethod
    def build(
        cls,
        n: int,
        landmark_positions: Sequence[int],
        columns_builder: Callable[[int, int, Sequence[int]], object],
        use_numpy: bool,
        config: "EngineConfig",
        strategy: str,
    ) -> "SketchedStorage":
        """Score the n×m landmark columns in row blocks of the config's
        ``block_size``.

        ``columns_builder(a0, a1, landmarks)`` returns the provider
        distance block of answer rows ``[a0:a1]`` against the landmark
        rows — the kernel closes it over its snapshot.  ``workers`` > 1
        fans the independent row blocks out exactly like the tiled grid's
        build (:func:`~repro.engine.parallel.build_blocks`) — block
        values are row-range-local, so assembly order cannot change a
        float.
        """
        block_size = config.block_size or DEFAULT_BLOCK_SIZE
        landmarks = list(landmark_positions)
        if len(landmarks) >= n:
            # Clamp m >= n to "every row is a landmark": the sketch then
            # holds the full exact matrix and the bounds are exact, so
            # oversized sketch_columns never over-allocates or errors.
            landmarks = list(range(n))
        spans = [
            (a0, min(a0 + block_size, n)) for a0 in range(0, n, block_size)
        ]
        c = _np.empty((n, len(landmarks)), dtype=_np.float64) if use_numpy else [None] * n

        def store(span, block) -> None:
            a0, a1 = span
            if use_numpy:
                c[a0:a1, :] = _np.asarray(block, dtype=_np.float64)
            else:
                c[a0:a1] = [[float(v) for v in row] for row in block]

        build_blocks(
            spans,
            lambda span: columns_builder(*span, landmarks),
            store,
            config.workers,
            use_numpy,
        )
        return cls(n, landmarks, c, use_numpy, strategy)

    # -- shape ------------------------------------------------------------

    @property
    def columns(self) -> int:
        return len(self.landmark_positions)

    @property
    def nbytes(self) -> int:
        """The n × m float64 columns' size, on either backend."""
        return self.n * self.columns * 8

    # -- bound reads (all O(m) per pair, O(n·m) per row) -------------------

    def lower_bound(self, i: int, j: int) -> float:
        if self.backend == "numpy":
            return float(_np.max(_np.abs(self._c[i] - self._c[j])))
        ci, cj = self._c[i], self._c[j]
        return max(abs(a - b) for a, b in zip(ci, cj))

    def upper_bound(self, i: int, j: int) -> float:
        if self.backend == "numpy":
            return float(_np.min(self._c[i] + self._c[j]))
        ci, cj = self._c[i], self._c[j]
        return min(a + b for a, b in zip(ci, cj))

    # -- the kernel's row calls, over lower bounds ------------------------

    def copy_distance_row(self, j: int):
        """``lb[i] = max_l |C[i][l] − C[j][l]|`` for every i, as a fresh
        float64 backend vector."""
        if self.backend == "numpy":
            return _np.max(_np.abs(self._c - self._c[j]), axis=1)
        cj = self._c[j]
        return [
            max(abs(a - b) for a, b in zip(ci, cj)) for ci in self._c
        ]

    def minimum_inplace(self, vec, j: int):
        """Elementwise ``vec = min(vec, lb_j)``."""
        return _minimum_into(vec, self.copy_distance_row(j), self.backend == "numpy")

    def add_row_inplace(self, vec, j: int):
        """Elementwise ``vec += lb_j``."""
        return _add_into(vec, self.copy_distance_row(j), self.backend == "numpy")

    # -- delta maintenance ------------------------------------------------

    def remap(
        self,
        old_of_new: Sequence[int],
        new_positions: Sequence[int],
        rows_builder: Callable[[Sequence[int], Sequence[int]], object],
    ) -> "SketchedStorage | None":
        """The sketch for a patched snapshot, or ``None`` when too few
        landmark columns survive the delete (caller rebuilds lazily).

        Kept rows keep their scored columns; columns whose landmark row
        was deleted are dropped; inserted rows are scored against the
        surviving landmarks via ``rows_builder(row_positions,
        landmark_positions)`` over the *new* snapshot.
        """
        m = len(old_of_new)
        new_pos_of_old = {
            old: p for p, old in enumerate(old_of_new) if old >= 0
        }
        kept_cols = []
        new_landmarks = []
        for col, old_landmark in enumerate(self.landmark_positions):
            new_pos = new_pos_of_old.get(old_landmark)
            if new_pos is not None:
                kept_cols.append(col)
                new_landmarks.append(new_pos)
        if len(kept_cols) < 2:
            return None
        use_numpy = self.backend == "numpy"
        inserted = (
            rows_builder(list(new_positions), new_landmarks)
            if new_positions
            else None
        )
        if use_numpy:
            c = _np.zeros((m, len(kept_cols)), dtype=_np.float64)
            kept_pos = [p for p, old in enumerate(old_of_new) if old >= 0]
            if kept_pos:
                old_idx = _np.asarray(
                    [old_of_new[p] for p in kept_pos], dtype=_np.intp
                )
                c[_np.asarray(kept_pos, dtype=_np.intp), :] = self._c[
                    _np.ix_(old_idx, _np.asarray(kept_cols, dtype=_np.intp))
                ]
            if new_positions:
                c[_np.asarray(list(new_positions), dtype=_np.intp), :] = (
                    _np.asarray(inserted, dtype=_np.float64)
                )
        else:
            c = [[0.0] * len(kept_cols) for _ in range(m)]
            for p, old in enumerate(old_of_new):
                if old >= 0:
                    old_row = self._c[old]
                    c[p] = [old_row[col] for col in kept_cols]
            if new_positions:
                for block_row, p in zip(inserted, new_positions):
                    c[p] = [float(v) for v in block_row]
        return SketchedStorage(m, new_landmarks, c, use_numpy, self.strategy)

    def __repr__(self) -> str:
        return (
            f"SketchedStorage(n={self.n}, columns={self.columns}, "
            f"backend={self.backend}, strategy={self.strategy})"
        )


def make_storage(
    n: int,
    builder: BlockBuilder,
    use_numpy: bool,
    config: "EngineConfig",
) -> KernelStorage:
    """The storage object behind one kernel's distance matrix, as the
    validated ``config`` plans it.

    ``dense`` (the default) is eager, contiguous and float64-only — the
    historical layout and the bit-exact reference every parity suite
    compares against; ``tiled`` is lazy, blocked, dtype-aware,
    optionally threaded on NumPy (``workers``) and optionally
    memory-bounded (LRU tile budget + spill directory).
    """
    if (config.storage or "dense") == "dense":
        block_size = config.block_size or DEFAULT_BLOCK_SIZE
        return DenseStorage(n, builder, use_numpy, block_size)
    return TiledStorage(n, builder, use_numpy, config)
