"""The unified request/config object model shared by the engine, the CLI
and the serving layer.

Before this module, every entry point grew its own copy of the engine's
policy knobs — ``storage=/dtype=/workers=/block_size=/patch_threshold=``
duplicated across :class:`~repro.engine.engine.DiversificationEngine`,
:func:`~repro.engine.kernel.kernel_for_instance` and the CLI's argparse
wiring.  This module collapses that sprawl into three value objects:

* :class:`EngineConfig` — the frozen engine policy bundle.  Constructed
  directly, from parsed CLI args (:meth:`EngineConfig.from_args`, with
  the flags added by :func:`add_engine_config_args`), or from
  ``REPRO_*`` environment variables (:meth:`EngineConfig.from_env`).
  ``DiversificationEngine(config=...)``, ``ScoringKernel(...,
  config=...)`` and ``kernel_for_instance(..., config=...)`` consume
  it; it is the only way to pass engine policy (the engine's loose
  kwargs were removed in 1.3.0, the kernel's in 1.4.0), and
  :meth:`EngineConfig.validate` is the only place a knob is checked.
* :class:`DiversifyRequest` — one diversification request: either an
  in-process :class:`~repro.core.instance.DiversificationInstance` or a
  wire-friendly ``(workload, params)`` pair resolved through the
  serving layer's registry, plus ``k``/``λ``/``algorithm``/``tenant``.
  :meth:`DiversifyRequest.key` is the coalescing identity the service
  uses to detect duplicate in-flight work.
* :class:`DiversifyResponse` — the serving-facing result: objective
  value, snapshot index list, rows, and cache provenance (computed /
  coalesced / cached), with a stable JSON round-trip
  (:meth:`DiversifyResponse.to_dict` / ``from_dict``, NaN → null).

Deprecation policy: a deprecated surface keeps working, with a
``DeprecationWarning``, for at least one minor release before it is
removed; new knobs are added to :class:`EngineConfig` only.
"""

from __future__ import annotations

import math
import os
from collections.abc import Mapping
from dataclasses import asdict, dataclass, field, fields, replace
from typing import TYPE_CHECKING, Any

from .relational.schema import RelationSchema, Row

if TYPE_CHECKING:
    import argparse

    from .core.instance import DiversificationInstance
    from .engine.engine import EngineResult


class ApiError(ValueError):
    """Raised on malformed configs, requests, or serialized payloads."""


# -- JSON scalar helpers ---------------------------------------------------


def json_float(value: float | None) -> float | None:
    """A float made safe for strict JSON parsers: NaN → None (null)."""
    if value is None:
        return None
    value = float(value)
    return None if math.isnan(value) else value


def float_from_json(value: float | None) -> float:
    """Inverse of :func:`json_float` for required floats: null → NaN."""
    return float("nan") if value is None else float(value)


def _json_scalar(value: Any) -> Any:
    if isinstance(value, float) and math.isnan(value):
        return None
    return value


def row_to_dict(row: Row) -> dict[str, Any]:
    """A JSON-ready form of one answer tuple (schema + values)."""
    return {
        "relation": row.schema.name,
        "attributes": list(row.schema.attributes),
        "values": [_json_scalar(v) for v in row.values],
    }


def row_from_dict(data: Mapping[str, Any]) -> Row:
    """Rebuild a :class:`Row` from :func:`row_to_dict` output.

    Rows compare by attributes + values, so the round-trip is
    equality-stable even though the schema object is rebuilt.
    """
    schema = RelationSchema(data["relation"], tuple(data["attributes"]))
    return Row(schema, tuple(data["values"]))


def _check_keys(data: Mapping[str, Any], allowed: set[str], what: str) -> None:
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ApiError(
            f"unknown {what} field(s) {unknown}; allowed: {sorted(allowed)}"
        )


def canonical_params(params: Mapping[str, Any] | None) -> tuple:
    """A hashable, order-independent identity for a params mapping."""
    if not params:
        return ()
    return tuple(sorted((str(k), repr(v)) for k, v in params.items()))


# -- EngineConfig ----------------------------------------------------------


def _workers_value(raw: str, label: str = "workers") -> int | str:
    """Parse a ``--workers`` / ``REPRO_WORKERS`` value: an int or
    ``"auto"`` (the host CPU count, resolved at build time)."""
    if raw.strip().lower() == "auto":
        return "auto"
    try:
        return int(raw)
    except ValueError:
        raise ApiError(
            f"{label} must be an integer or 'auto', got {raw!r}"
        ) from None


@dataclass(frozen=True)
class EngineConfig:
    """The engine's policy knobs as one frozen, hashable value.

    * ``storage`` — kernel distance-matrix layout (``"dense"`` default /
      ``"tiled"``); ``dtype`` — at-rest tile dtype
      (tiled only); ``workers`` — the one parallelism knob: thread pool
      width for NumPy tile builds (an int, or ``"auto"`` for the host
      CPU count resolved at build time).  Builds run serially when
      ``workers`` resolves to 1, and pure-Python builds always do;
      ``block_size`` — rows per tile of the blocked construction;
    * ``max_resident_tiles`` / ``max_resident_bytes`` — LRU bound on
      tiles resident in memory (tiled only; evicted tiles rebuild on
      touch); ``spill_dir`` — spill evicted tiles to one append-only
      segment file per kernel under this directory instead of
      rebuilding them: spilled row reads are one positioned read each,
      byte-exact, and a spill that fails degrades to rebuild-on-touch;
    * ``patch_threshold`` — largest stale-kernel delta (fraction of n)
      that is patched in place rather than rebuilt;
    * ``cache_size`` — LRU bound on live kernels per engine;
    * ``approx`` — the one switch into the sketched approximate
      selectors, over either storage kind: they read landmark-column
      lower bounds and never allocate the exact distance storage.  Exact
      paths never route through approximation without this flag;
    * ``sketch_columns`` / ``landmarks`` — the landmark sketch's column
      count and placement strategy.

    ``None`` means "engine default" for the storage-policy knobs, so
    ``EngineConfig()`` is the historical default engine.
    """

    storage: str | None = None
    dtype: str | None = None
    workers: int | str | None = None
    max_resident_tiles: int | None = None
    max_resident_bytes: int | None = None
    spill_dir: str | None = None
    block_size: int | None = None
    patch_threshold: float = 0.5
    cache_size: int = 8
    sketch_columns: int | None = None
    landmarks: str | None = None
    approx: bool = False

    def validate(self) -> "EngineConfig":
        """Check the knob combination; raises :class:`ApiError`.

        The one place a policy knob is checked: the engine re-raises
        these errors as ``EngineError`` and the kernel as
        ``KernelError``; storage reads the validated knobs as they are.
        """
        from .engine.storage import STORAGE_DTYPES, STORAGE_KINDS

        if self.cache_size < 1:
            raise ApiError(f"cache_size must be >= 1, got {self.cache_size}")
        if self.patch_threshold < 0.0:
            raise ApiError(
                f"patch_threshold must be >= 0, got {self.patch_threshold}"
            )
        if self.block_size is not None and self.block_size < 1:
            raise ApiError(f"block_size must be >= 1, got {self.block_size}")
        if self.storage is not None and self.storage not in STORAGE_KINDS:
            raise ApiError(
                f"unknown storage {self.storage!r}; choose one of {STORAGE_KINDS}"
            )
        if self.dtype is not None and self.dtype not in STORAGE_DTYPES:
            raise ApiError(
                f"unknown dtype {self.dtype!r}; choose one of {STORAGE_DTYPES}"
            )
        if (self.dtype or "float64") != "float64" and (
            self.storage or "dense"
        ) == "dense":
            raise ApiError(
                "dense storage is float64-only; pass storage='tiled' with "
                f"dtype={self.dtype!r}"
            )
        from .engine.parallel import validate_workers

        validate_workers(self.workers, ApiError)
        if (
            isinstance(self.workers, int)
            and self.workers > 1
            and (self.storage or "dense") == "dense"
        ):
            raise ApiError(
                "dense storage builds serially; pass storage='tiled' with "
                f"workers={self.workers}"
            )
        for name in ("max_resident_tiles", "max_resident_bytes"):
            budget = getattr(self, name)
            if budget is not None and budget < 1:
                raise ApiError(f"{name} must be >= 1, got {budget}")
        if (self.storage or "dense") == "dense" and (
            self.max_resident_tiles is not None
            or self.max_resident_bytes is not None
            or self.spill_dir is not None
        ):
            raise ApiError(
                "dense storage is one eager allocation and cannot spill; "
                "pass storage='tiled' for tile budgets / spill_dir"
            )
        # Checked whatever ``approx`` says: a service's non-approx config
        # also shapes the sketch of its ``approx_over`` engine.
        if self.sketch_columns is not None and self.sketch_columns < 2:
            raise ApiError(
                f"sketch_columns must be >= 2, got {self.sketch_columns}"
            )
        if self.landmarks is not None:
            from .core.providers import LANDMARK_STRATEGIES

            if self.landmarks not in LANDMARK_STRATEGIES:
                raise ApiError(
                    f"unknown landmark strategy {self.landmarks!r}; "
                    f"choose one of {LANDMARK_STRATEGIES}"
                )
        return self

    def canonical(self) -> "EngineConfig":
        """This config with default-equivalent knobs normalized away.

        ``storage="dense"``, ``dtype="float64"``, ``workers=1``,
        ``block_size=DEFAULT_BLOCK_SIZE`` and ``landmarks="uniform"``
        each spell the engine default explicitly; the engine treats them
        identically to ``None``.  Canonicalizing maps both spellings to
        one frozen value, so every memo keyed on a config — the CLI's
        per-config engine table, equality against ``EngineConfig()`` —
        sees one identity per *behavior* rather than per spelling.
        """
        from .engine.storage import DEFAULT_BLOCK_SIZE

        overrides: dict[str, Any] = {}
        if self.storage == "dense":
            overrides["storage"] = None
        if self.dtype == "float64":
            overrides["dtype"] = None
        if self.workers == 1:
            overrides["workers"] = None
        if self.block_size == DEFAULT_BLOCK_SIZE:
            overrides["block_size"] = None
        if self.landmarks == "uniform":
            overrides["landmarks"] = None
        return replace(self, **overrides) if overrides else self

    # -- construction helpers ---------------------------------------------

    @classmethod
    def from_args(
        cls,
        args: "argparse.Namespace",
        base: "EngineConfig | None" = None,
    ) -> "EngineConfig":
        """The config selected by the flags of
        :func:`add_engine_config_args`; flags left unset fall back to
        ``base`` (e.g. :meth:`from_env`) or the dataclass defaults."""
        config = base if base is not None else cls()
        overrides = {
            name: value
            for name in ("storage", "dtype", "workers",
                         "max_resident_tiles", "max_resident_bytes",
                         "spill_dir", "block_size",
                         "patch_threshold", "cache_size",
                         "sketch_columns", "landmarks", "approx")
            if (value := getattr(args, name, None)) is not None
        }
        return replace(config, **overrides)

    @classmethod
    def from_env(
        cls, environ: Mapping[str, str] | None = None
    ) -> "EngineConfig":
        """The config selected by ``REPRO_<FIELD>`` environment
        variables (``REPRO_STORAGE``, ``REPRO_DTYPE``, ``REPRO_WORKERS``
        — an int or ``auto`` —, ``REPRO_MAX_RESIDENT_TILES``,
        ``REPRO_MAX_RESIDENT_BYTES``, ``REPRO_SPILL_DIR``,
        ``REPRO_BLOCK_SIZE``, ``REPRO_PATCH_THRESHOLD``,
        ``REPRO_CACHE_SIZE``, ``REPRO_SKETCH_COLUMNS``,
        ``REPRO_LANDMARKS``, ``REPRO_APPROX``) — the deployment-facing
        twin of :meth:`from_args`."""
        env = os.environ if environ is None else environ
        overrides: dict[str, Any] = {}
        for spec in fields(cls):
            raw = env.get(f"REPRO_{spec.name.upper()}")
            if raw is None or raw == "":
                continue
            if spec.name == "approx":
                lowered = raw.strip().lower()
                if lowered in ("1", "true", "yes", "on"):
                    overrides[spec.name] = True
                elif lowered in ("0", "false", "no", "off"):
                    overrides[spec.name] = False
                else:
                    raise ApiError(
                        f"REPRO_APPROX must be a boolean, got {raw!r}"
                    )
            elif spec.name == "workers":
                overrides[spec.name] = _workers_value(raw, "REPRO_WORKERS")
            elif spec.name in (
                "block_size", "cache_size", "sketch_columns",
                "max_resident_tiles", "max_resident_bytes",
            ):
                try:
                    overrides[spec.name] = int(raw)
                except ValueError:
                    raise ApiError(
                        f"REPRO_{spec.name.upper()} must be an integer, got {raw!r}"
                    ) from None
            elif spec.name == "patch_threshold":
                try:
                    overrides[spec.name] = float(raw)
                except ValueError:
                    raise ApiError(
                        f"REPRO_{spec.name.upper()} must be a float, got {raw!r}"
                    ) from None
            else:
                overrides[spec.name] = raw
        return replace(cls(), **overrides)

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "EngineConfig":
        _check_keys(data, {f.name for f in fields(cls)}, "EngineConfig")
        return cls(**data)


def add_engine_config_args(parser: "argparse.ArgumentParser") -> None:
    """Install the shared :class:`EngineConfig` flags on a subparser.

    One definition serves every subcommand (``diversify``, ``serve``);
    parse results feed :meth:`EngineConfig.from_args`.
    """
    parser.add_argument(
        "--storage",
        choices=["dense", "tiled"],
        default=None,
        help="kernel distance-matrix layout: dense (one contiguous "
        "float64 matrix, default) or tiled (lazy block grid; removes "
        "the O(n^2) contiguous-allocation ceiling)",
    )
    parser.add_argument(
        "--dtype",
        choices=["float64", "float32"],
        default=None,
        help="at-rest dtype of tiled distance tiles (float32 halves "
        "matrix memory; reductions stay float64; tiled-only)",
    )
    parser.add_argument(
        "--workers",
        type=_workers_value,
        default=None,
        metavar="N|auto",
        help="thread pool width for tiled matrix builds (and their "
        "--approx landmark sketch) with NumPy: an int, or 'auto' for the "
        "host CPU count (resolved at build time).  Builds run serially at "
        "1 worker, and pure-Python builds always do",
    )
    parser.add_argument(
        "--max-resident-tiles",
        type=int,
        default=None,
        metavar="N",
        help="LRU bound on distance tiles resident in memory (tiled "
        "storage; evicted tiles rebuild on touch, or reload from "
        "--spill-dir)",
    )
    parser.add_argument(
        "--max-resident-bytes",
        type=int,
        default=None,
        metavar="BYTES",
        help="LRU bound on resident distance-tile bytes (tiled storage)",
    )
    parser.add_argument(
        "--spill-dir",
        default=None,
        metavar="DIR",
        help="spill evicted tiles to one segment file per kernel under "
        "DIR instead of rebuilding them on touch; a spilled row is read "
        "back alone, without its tile (tiled storage with a tile budget)",
    )
    parser.add_argument(
        "--block-size",
        type=int,
        default=None,
        metavar="ROWS",
        help="rows per tile of the blocked kernel construction",
    )
    parser.add_argument(
        "--cache-size",
        type=int,
        default=None,
        metavar="N",
        help="LRU bound on live kernels per engine (default 8)",
    )
    parser.add_argument(
        "--patch-threshold",
        type=float,
        default=None,
        metavar="FRAC",
        help="largest stale-kernel delta (fraction of n) patched in "
        "place instead of rebuilt (default 0.5; 0 disables patching)",
    )
    parser.add_argument(
        "--sketch-columns",
        type=int,
        default=None,
        metavar="M",
        help="landmark distance columns of the --approx sketch "
        "(>= 2; default max(16, sqrt(n)))",
    )
    parser.add_argument(
        "--landmarks",
        choices=["uniform", "relevance", "farthest"],
        default=None,
        help="landmark placement strategy of the --approx sketch "
        "(default uniform)",
    )
    parser.add_argument(
        "--approx",
        action="store_const",
        const=True,
        default=None,
        help="opt into the sketched approximate selectors on either "
        "--storage: m landmark distance columns (m << n) instead of the "
        "O(n^2) matrix; results carry a lower/upper certificate",
    )


# -- DiversifyRequest ------------------------------------------------------

_REQUEST_WIRE_FIELDS = {
    "workload",
    "params",
    "k",
    "lam",
    "algorithm",
    "tenant",
    "query_text",
    "pool_size",
    "retriever",
}


@dataclass(frozen=True)
class DiversifyRequest:
    """One diversification request, in-process or on the wire.

    Exactly one of two source forms:

    * ``instance=`` — an in-process
      :class:`~repro.core.instance.DiversificationInstance`; ``k``/
      ``lam`` overrides are applied via ``with_k``/``with_lambda`` so
      every variant keeps the engine's kernel-cache identity;
    * ``workload=`` (+ optional ``params``) — a registry name the
      serving layer resolves to a shared base instance, so concurrent
      requests naming the same corpus share one kernel.

    ``algorithm=None`` means the engine's own default; ``tenant``
    selects the per-tenant engine (and quota pool) in the service.

    ``query_text`` opts into the retrieval front end: the engine cuts
    the materialized answer set to a ≤ ``pool_size`` candidate pool
    (BM25/ANN/hybrid per ``retriever``, default hybrid) and diversifies
    the pool through the unchanged exact path.  ``pool_size`` and
    ``retriever`` require ``query_text`` — they describe the cut, not
    the corpus.
    """

    workload: str | None = None
    params: Mapping[str, Any] | None = None
    k: int = 10
    lam: float = 0.5
    algorithm: str | None = None
    tenant: str = "default"
    query_text: str | None = None
    pool_size: int | None = None
    retriever: str | None = None
    instance: "DiversificationInstance | None" = field(
        default=None, compare=False
    )

    def __post_init__(self):
        if self.instance is None and self.workload is None:
            raise ApiError(
                "a DiversifyRequest needs a source: pass instance= "
                "(in-process) or workload= (registry name)"
            )
        if self.k < 1:
            raise ApiError(f"k must be a positive integer, got {self.k}")
        if not 0.0 <= float(self.lam) <= 1.0:
            raise ApiError(f"λ must be in [0,1], got {self.lam}")
        if self.query_text is None and (
            self.pool_size is not None or self.retriever is not None
        ):
            raise ApiError(
                "pool_size/retriever describe a retrieval cut and need a "
                "query_text"
            )
        if self.pool_size is not None and self.pool_size < 1:
            raise ApiError(
                f"pool_size must be a positive integer, got {self.pool_size}"
            )
        if self.retriever is not None:
            from .retrieval import RETRIEVERS

            if self.retriever not in RETRIEVERS:
                raise ApiError(
                    f"unknown retriever {self.retriever!r}; "
                    f"choose one of {RETRIEVERS}"
                )
        if self.params is not None:
            object.__setattr__(self, "params", dict(self.params))

    @property
    def wants_retrieval(self) -> bool:
        """True when this request asks for a pool cut before the kernel."""
        return self.query_text is not None

    # -- identity ----------------------------------------------------------

    def _source(self) -> tuple:
        """The materialization identity: ``(workload, params)`` on the
        wire, the ``(query, db, δ_rel, δ_dis)`` object identities in
        process.  k/λ/algorithm/retrieval are deliberately excluded —
        this is exactly the identity kernels are cached on."""
        if self.instance is not None:
            objective = self.instance.objective
            return (
                "instance",
                id(self.instance.query),
                id(self.instance.db),
                id(objective.relevance),
                id(objective.distance),
            )
        return ("workload", self.workload, canonical_params(self.params))

    def key(self) -> tuple:
        """The coalescing/result-cache identity of this request.

        Two requests with equal keys would run the same computation:
        same tenant, same materialization source — ``(workload,
        params)`` on the wire, the ``(query, db, δ_rel, δ_dis)`` object
        identities in process — and same ``(k, λ, algorithm)``.
        """
        source = self._source()
        key = (self.tenant, source, self.k, float(self.lam), self.algorithm or "auto")
        if self.wants_retrieval:
            # Retrieval requests coalesce on the cut as well — a
            # different query or pool is a different computation.  Plain
            # requests keep the historical 5-tuple shape.
            key = key + (
                "retrieve",
                self.query_text,
                self.pool_size,
                self.retriever or "hybrid",
            )
        return key

    def corpus_key(self) -> tuple:
        """The corpus-affinity identity: tenant + materialization source
        only — no k/λ/algorithm/retrieval cut.

        Every variant of one corpus shares this key, so a service that
        places engine shards on it keeps all of a corpus's k/λ/algorithm
        variants on one shard, where they share one cached kernel (the
        hash of the full :meth:`key` would scatter them).
        """
        return (self.tenant, self._source())

    # -- resolution --------------------------------------------------------

    def resolve(
        self, base: "DiversificationInstance | None" = None
    ) -> "DiversificationInstance":
        """The concrete instance this request asks to solve.

        ``base`` (from a workload registry) takes precedence over the
        carried ``instance``.  ``k``/``λ`` are applied through
        ``with_k`` / ``with_objective(with_lambda)``, which preserve the
        query/db/function identities — every variant of one base hits
        the same engine kernel-cache entry.
        """
        source = base if base is not None else self.instance
        if source is None:
            raise ApiError(
                f"request names workload {self.workload!r} but no base "
                "instance was supplied; resolve it through a registry"
            )
        instance = source
        if self.k != instance.k:
            instance = instance.with_k(self.k)
        if float(self.lam) != instance.objective.lam:
            instance = instance.with_objective(
                instance.objective.with_lambda(float(self.lam))
            )
        return instance

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """The wire form.  In-process requests (``instance=``) have no
        stable serialization and raise :class:`ApiError`."""
        if self.instance is not None:
            raise ApiError(
                "an instance-backed DiversifyRequest is in-process only; "
                "name a registered workload to serialize it"
            )
        payload = {
            "workload": self.workload,
            "params": dict(self.params) if self.params else {},
            "k": self.k,
            "lam": float(self.lam),
            "algorithm": self.algorithm,
            "tenant": self.tenant,
        }
        if self.wants_retrieval:
            # Emitted only for retrieval requests: plain payloads keep
            # their historical byte-identical shape.
            payload["query_text"] = self.query_text
            if self.pool_size is not None:
                payload["pool_size"] = self.pool_size
            if self.retriever is not None:
                payload["retriever"] = self.retriever
        return payload

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "DiversifyRequest":
        _check_keys(data, _REQUEST_WIRE_FIELDS, "DiversifyRequest")
        workload = data.get("workload")
        if not isinstance(workload, str) or not workload:
            raise ApiError("DiversifyRequest needs a 'workload' name")
        params = data.get("params") or {}
        if not isinstance(params, Mapping):
            raise ApiError(f"'params' must be an object, got {type(params).__name__}")
        kwargs: dict[str, Any] = {"workload": workload, "params": params}
        if "k" in data:
            if not isinstance(data["k"], int) or isinstance(data["k"], bool):
                raise ApiError(f"'k' must be an integer, got {data['k']!r}")
            kwargs["k"] = data["k"]
        if "lam" in data:
            if not isinstance(data["lam"], (int, float)) or isinstance(
                data["lam"], bool
            ):
                raise ApiError(f"'lam' must be a number, got {data['lam']!r}")
            kwargs["lam"] = float(data["lam"])
        if data.get("algorithm") is not None:
            kwargs["algorithm"] = str(data["algorithm"])
        if data.get("tenant") is not None:
            kwargs["tenant"] = str(data["tenant"])
        if data.get("query_text") is not None:
            if not isinstance(data["query_text"], str):
                raise ApiError(
                    f"'query_text' must be a string, got {data['query_text']!r}"
                )
            kwargs["query_text"] = data["query_text"]
        if data.get("pool_size") is not None:
            if not isinstance(data["pool_size"], int) or isinstance(
                data["pool_size"], bool
            ):
                raise ApiError(
                    f"'pool_size' must be an integer, got {data['pool_size']!r}"
                )
            kwargs["pool_size"] = data["pool_size"]
        if data.get("retriever") is not None:
            if not isinstance(data["retriever"], str):
                raise ApiError(
                    f"'retriever' must be a string, got {data['retriever']!r}"
                )
            kwargs["retriever"] = data["retriever"]
        return cls(**kwargs)


# -- DiversifyResponse -----------------------------------------------------

#: Cache-provenance values a response can carry.
CACHE_PROVENANCE = ("computed", "coalesced", "cached")


@dataclass(frozen=True)
class DiversifyResponse:
    """One served diversification result.

    ``indices`` are snapshot positions in the kernel's materialized
    ``Q(D)`` (first occurrence under duplicated rows); ``rows`` are the
    selected tuples themselves.  ``cache`` records provenance:
    ``"computed"`` (this request ran the engine), ``"coalesced"`` (it
    awaited an identical in-flight request), or ``"cached"`` (served
    from the TTL result cache).  ``feasible`` is False when no size-k
    candidate set exists (value/indices/rows are then None).

    ``certificate`` is the wire form of an
    :class:`~repro.algorithms.substrate.ApproxCertificate` when the
    result came off an approximate (sketched/streamed) path, else None —
    exact serves never carry one.
    """

    feasible: bool
    value: float | None
    indices: tuple[int, ...] | None
    rows: tuple[Row, ...] | None
    algorithm: str | None
    backend: str | None
    kernel_reused: bool = False
    cache: str = "computed"
    elapsed_ms: float | None = None
    certificate: Mapping[str, Any] | None = None
    retrieval: Mapping[str, Any] | None = None

    @classmethod
    def from_result(
        cls,
        result: "EngineResult | None",
        cache: str = "computed",
        elapsed_ms: float | None = None,
    ) -> "DiversifyResponse":
        """Wrap an engine result (None = infeasible) for serving."""
        if result is None:
            return cls(
                feasible=False,
                value=None,
                indices=None,
                rows=None,
                algorithm=None,
                backend=None,
                cache=cache,
                elapsed_ms=elapsed_ms,
            )
        certificate = getattr(result, "certificate", None)
        return cls(
            feasible=True,
            value=result.value,
            indices=result.indices,
            rows=result.rows,
            algorithm=result.algorithm,
            backend=result.backend,
            kernel_reused=result.kernel_reused,
            cache=cache,
            elapsed_ms=elapsed_ms,
            certificate=certificate.to_dict() if certificate is not None else None,
            retrieval=getattr(result, "retrieval", None),
        )

    def to_dict(self) -> dict[str, Any]:
        """Strict-JSON form (NaN → null); inverse of :meth:`from_dict`."""
        return {
            "feasible": self.feasible,
            "value": json_float(self.value),
            "indices": list(self.indices) if self.indices is not None else None,
            "rows": [row_to_dict(r) for r in self.rows]
            if self.rows is not None
            else None,
            "algorithm": self.algorithm,
            "backend": self.backend,
            "kernel_reused": self.kernel_reused,
            "cache": self.cache,
            "elapsed_ms": json_float(self.elapsed_ms),
            "certificate": dict(self.certificate)
            if self.certificate is not None
            else None,
            "retrieval": dict(self.retrieval)
            if self.retrieval is not None
            else None,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "DiversifyResponse":
        _check_keys(
            data,
            {
                "feasible",
                "value",
                "indices",
                "rows",
                "algorithm",
                "backend",
                "kernel_reused",
                "cache",
                "elapsed_ms",
                "certificate",
                "retrieval",
            },
            "DiversifyResponse",
        )
        feasible = bool(data.get("feasible"))
        value = data.get("value")
        if feasible:
            # A feasible response always carries a value; null encodes NaN.
            value = float_from_json(value)
        indices = data.get("indices")
        rows = data.get("rows")
        cache = data.get("cache", "computed")
        if cache not in CACHE_PROVENANCE:
            raise ApiError(
                f"unknown cache provenance {cache!r}; "
                f"expected one of {CACHE_PROVENANCE}"
            )
        return cls(
            feasible=feasible,
            value=value,
            indices=tuple(indices) if indices is not None else None,
            rows=tuple(row_from_dict(r) for r in rows)
            if rows is not None
            else None,
            algorithm=data.get("algorithm"),
            backend=data.get("backend"),
            kernel_reused=bool(data.get("kernel_reused", False)),
            cache=cache,
            elapsed_ms=data.get("elapsed_ms"),
            certificate=data.get("certificate"),
            retrieval=data.get("retrieval"),
        )


__all__ = [
    "ApiError",
    "CACHE_PROVENANCE",
    "DiversifyRequest",
    "DiversifyResponse",
    "EngineConfig",
    "add_engine_config_args",
    "canonical_params",
    "float_from_json",
    "json_float",
    "row_from_dict",
    "row_to_dict",
]
