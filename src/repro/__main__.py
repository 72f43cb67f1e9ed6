"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``tables``    — print Tables I–III regenerated from the classifier;
* ``figures``   — print the Figure 1/3/4 complexity maps and Figure 2;
* ``verify``    — run one verified reduction per hardness theorem and
                  report the outcomes (the live reproduction check);
* ``diversify`` — load a database (JSON, or a directory of CSVs), parse
                  a query, and print the diversified top-k::

      python -m repro diversify --db data.json \\
          --query "Q(X) :- exists Y : items(X, Y)" \\
          -k 5 --objective max-sum --lambda 0.5 \\
          --relevance-attr score

  ``diversify`` dispatches through the process-wide
  :class:`~repro.engine.engine.DiversificationEngine`: ``--algorithm``
  selects any engine algorithm by name (or ``auto``), ``--json`` emits
  the machine-readable :class:`~repro.api.DiversifyResponse` wire form,
  and ``--cache-stats`` prints the kernel-cache counters — repeated
  identical queries within one process reuse the cached ScoringKernel.
  ``--query-text`` (with optional ``--pool-size`` / ``--retriever``)
  routes through the retrieval front end: the answer set is cut to a
  candidate pool *before* the O(n²) kernel, then diversified.

* ``retrieve``  — run the retrieval cut alone (no diversification):
  rank the answer set against ``--query-text`` through BM25 / ANN /
  hybrid fusion and print the pool::

      python -m repro retrieve --db data.json \\
          --query "Q(X) :- docs(X)" \\
          --query-text "solar panels" --pool-size 100

* ``serve``     — boot the diversification service
  (:mod:`repro.service`): an asyncio HTTP server with request
  coalescing, a TTL result cache and per-tenant quotas::

      python -m repro serve --port 8787 --storage tiled --workers 4

Both ``diversify`` and ``serve`` share one engine-policy flag set
(:func:`repro.api.add_engine_config_args`: ``--storage`` / ``--dtype``
/ ``--workers`` (an int or ``auto``) / ``--max-resident-tiles`` /
``--max-resident-bytes`` / ``--spill-dir`` / ``--block-size`` /
``--cache-size`` / ``--patch-threshold`` / ``--sketch-columns`` /
``--landmarks`` / ``--approx``), layered over
``REPRO_*`` environment variables
(:meth:`repro.api.EngineConfig.from_env`).  ``--workers`` is the only
parallelism flag: NumPy builds fan out over that many threads, and
pure-Python builds run serially.  Any non-default policy
routes through a dedicated engine memoized on the
:class:`~repro.api.EngineConfig`, so repeated invocations still reuse
kernels.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def _cmd_tables(_args: argparse.Namespace) -> int:
    from .core.complexity import render_table, table1, table2, table3

    print(render_table(table1(), "Table I — combined and data complexity"))
    print()
    print(render_table(table2(), "Table II — special cases (Section 8)"))
    print()
    print(render_table(table3(), "Table III — with compatibility constraints"))
    return 0


def _cmd_figures(_args: argparse.Namespace) -> int:
    from .core.complexity import Problem, render_figure_map
    from .reductions.q3sat_qrd import figure2_report

    for problem in Problem:
        print(render_figure_map(problem))
        print()
    print(figure2_report())
    return 0


def _cmd_verify(_args: argparse.Namespace) -> int:
    from .logic.cnf import ThreeSatInstance, cnf
    from .reductions import (
        constraints_hardness,
        q3sat_drp,
        q3sat_qrd,
        sat_drp,
        sat_qrd,
        sigma1_rdc,
        ssp,
    )

    phi = ThreeSatInstance(cnf([1, 2, 3], [-1, -2, 3], [1, -2, -3]))
    f = cnf([1, 3], [-1, 2, 4], [-2, -3], num_vars=4)
    q = q3sat_qrd.figure2_instance()
    checks = [
        ("Th. 5.1  3SAT → QRD(CQ,F_MS)", sat_qrd.verify_reduction(phi, "max-sum")),
        ("Th. 5.1  3SAT → QRD(CQ,F_MM)", sat_qrd.verify_reduction(phi, "max-min")),
        ("Lem. 5.3 distance gadget (Fig. 2)", q3sat_qrd.verify_lemma_5_3(q)),
        ("Th. 5.2  Q3SAT → QRD(CQ,F_mono)", q3sat_qrd.verify_reduction(q)),
        ("Th. 6.1  co3SAT → DRP(CQ,F_MM)", sat_drp.verify_reduction(phi, "max-min")),
        ("Th. 6.1  co3SAT → DRP(CQ,F_MS) [repaired]", sat_drp.verify_reduction(phi, "max-sum")),
        ("Th. 6.2  Q3SAT → DRP(CQ,F_mono) [repaired]", q3sat_drp.verify_reduction(q)),
        ("Th. 7.1  #Σ₁SAT → RDC(CQ,F_MS)", sigma1_rdc.verify_reduction(f, [1, 2], [3, 4])),
        (
            "Th. 7.5  #SSPk → RDC (Turing)",
            ssp.verify_turing_reduction(ssp.SspkInstance((3, 5, 2, 7, 5), 10, 2)),
        ),
        ("Th. 9.3  3SAT → QRD(identity,F_mono,Σ)", constraints_hardness.verify_reduction(phi)),
    ]
    failures = 0
    for label, ok in checks:
        print(f"  {'PASS' if ok else 'FAIL'}  {label}")
        failures += 0 if ok else 1
    print(f"\n{len(checks) - failures}/{len(checks)} reductions verified")
    return 1 if failures else 0


# In-process session memo: the engine's kernel cache is keyed on the
# *identity* of (query, db, δ_rel, δ_dis), so repeated CLI invocations
# within one process must hand it the same objects, not equal reloads.
# Keyed on the resolved inputs plus a filesystem fingerprint, so an
# edited database file is reloaded rather than served stale.  Bounded
# (oldest-out) so programmatic callers cycling many databases through
# main() don't pin them all in memory.
_CLI_SESSIONS: dict[tuple, tuple] = {}
_CLI_SESSIONS_MAX = 8


def _db_fingerprint(path: Path) -> tuple:
    if path.is_dir():
        return tuple(
            sorted(
                (entry.name, entry.stat().st_mtime_ns, entry.stat().st_size)
                for entry in path.glob("*.csv")
            )
        )
    stat = path.stat()
    return (stat.st_mtime_ns, stat.st_size)


def _load_session(args: argparse.Namespace):
    """The (db, query, δ_rel, δ_dis) for this invocation, memoized."""
    from .core.functions import DistanceFunction, RelevanceFunction
    from .relational.io import load_database_csv_directory, load_database_json
    from .relational.parser import parse_query

    path = Path(args.db)
    key = (
        str(path.resolve()),
        args.query,
        args.relevance_attr,
        args.distance_attrs,
    )
    fingerprint = _db_fingerprint(path)
    cached = _CLI_SESSIONS.get(key)
    if cached is not None and cached[0] == fingerprint:
        return cached[1]

    if path.is_dir():
        db = load_database_csv_directory(path)
    else:
        db = load_database_json(path)
    query = parse_query(args.query)
    relevance = (
        RelevanceFunction.from_attribute(args.relevance_attr)
        if args.relevance_attr
        else RelevanceFunction.constant(1.0)
    )
    distance = (
        DistanceFunction.attribute_mismatch(args.distance_attrs.split(","))
        if args.distance_attrs
        else DistanceFunction.attribute_mismatch()
    )
    session = (db, query, relevance, distance)
    _CLI_SESSIONS.pop(key, None)  # re-insert at the end (freshest)
    _CLI_SESSIONS[key] = (fingerprint, session)
    while len(_CLI_SESSIONS) > _CLI_SESSIONS_MAX:
        _CLI_SESSIONS.pop(next(iter(_CLI_SESSIONS)))
    return session


# Engines with a non-default EngineConfig, memoized on the (frozen,
# hashable) config so repeated in-process invocations with the same
# policy still reuse cached kernels (the default-config path keeps
# using the shared process-wide engine).  Bounded oldest-out like
# _CLI_SESSIONS: each engine retains up to cache_size O(n²) kernels, so
# a programmatic caller sweeping knob values must not pin every engine
# forever.
_CLI_ENGINES: dict[object, object] = {}
_CLI_ENGINES_MAX = 4


def _config_for(args: argparse.Namespace):
    """The engine policy for this invocation: dataclass defaults,
    layered under ``REPRO_*`` env vars, layered under explicit flags.

    Canonicalized (:meth:`EngineConfig.canonical`) so explicitly-passed
    default-equivalent knobs — e.g. ``--storage dense`` alone — still
    share the process-wide engine (and its kernel cache) instead of
    splitting into a second one keyed on the spelling."""
    from .api import EngineConfig

    return EngineConfig.from_args(args, base=EngineConfig.from_env()).canonical()


def _engine_for(args: argparse.Namespace):
    from .api import EngineConfig
    from .engine.engine import DiversificationEngine, default_engine

    config = _config_for(args)
    if config == EngineConfig():
        return default_engine()
    engine = _CLI_ENGINES.pop(config, None)
    if engine is None:
        engine = DiversificationEngine(config=config)
    _CLI_ENGINES[config] = engine  # re-insert at the end (freshest)
    while len(_CLI_ENGINES) > _CLI_ENGINES_MAX:
        _CLI_ENGINES.pop(next(iter(_CLI_ENGINES)))
    return engine


def _cmd_diversify(args: argparse.Namespace) -> int:
    from .core.diversify import make_instance, method_algorithm
    from .core.objectives import Objective, ObjectiveKind

    db, query, relevance, distance = _load_session(args)
    kind = {
        "max-sum": ObjectiveKind.MAX_SUM,
        "max-min": ObjectiveKind.MAX_MIN,
        "mono": ObjectiveKind.MONO,
    }[args.objective]
    objective = Objective(kind, relevance, distance, args.trade_off)
    instance = make_instance(query, db, args.k, objective)

    try:
        engine = _engine_for(args)
    except ValueError as exc:  # bad storage/dtype/workers combination
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.algorithm is not None:
        name, label = args.algorithm, f"algorithm {args.algorithm}"
    else:
        name, label = method_algorithm(instance, args.method), f"method {args.method}"
    try:
        if args.query_text is not None:
            from .api import DiversifyRequest

            request = DiversifyRequest(
                instance=instance,
                k=args.k,
                lam=args.trade_off,
                algorithm=name,
                query_text=args.query_text,
                pool_size=args.pool_size,
                retriever=args.retriever,
            )
            result = engine.run(request=request)
        elif args.pool_size is not None or args.retriever is not None:
            print(
                "error: --pool-size/--retriever describe a retrieval cut "
                "and need --query-text",
                file=sys.stderr,
            )
            return 2
        else:
            result = engine.run(instance, algorithm=name)
    except ValueError as exc:  # objective/algorithm mismatch, constraints, …
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.json:
        from .api import DiversifyResponse

        payload = DiversifyResponse.from_result(result).to_dict()
        if args.cache_stats:
            stats = engine.stats
            payload["kernel_cache"] = {
                "hits": stats.hits,
                "misses": stats.misses,
                "patches": stats.patches,
                "stale_rebuilds": stats.stale_rebuilds,
                "evictions": stats.evictions,
                "lookups": stats.lookups,
                "hit_rate": round(stats.hit_rate, 4),
            }
        print(json.dumps(payload, indent=2))
        return 0 if result is not None else 1

    code = 0
    if result is None:
        print(f"no {args.k}-subset exists (|Q(D)| = {instance.answer_count})")
        code = 1
    else:
        cut = result.retrieval
        if cut is not None:
            print(
                f"retrieval: {cut['retriever']} cut {cut['corpus_size']} -> "
                f"{cut['pool']} candidates in {cut['elapsed_ms']:.3f} ms "
                f"({'+'.join(cut['stages'])})"
            )
        print(
            f"F = {result.value:.4f}  (objective {kind.value}, "
            f"λ = {args.trade_off}, {label})"
        )
        for row in result.rows:
            print("  " + ", ".join(f"{a}={v!r}" for a, v in row.as_dict().items()))
    if args.cache_stats:
        stats = engine.stats
        print(
            f"kernel cache: hits={stats.hits} misses={stats.misses} "
            f"patches={stats.patches} stale_rebuilds={stats.stale_rebuilds} "
            f"evictions={stats.evictions} lookups={stats.lookups} "
            f"hit_rate={stats.hit_rate:.2f} backend={result.backend if result else 'n/a'}"
        )
    return code


def _cmd_retrieve(args: argparse.Namespace) -> int:
    from .core.diversify import make_instance
    from .core.objectives import Objective, ObjectiveKind

    db, query, relevance, distance = _load_session(args)
    # Retrieval only reads the objective through its provider (feature
    # space, if any) — kind/λ never matter for the cut itself.
    objective = Objective(ObjectiveKind.MAX_SUM, relevance, distance, 0.5)
    instance = make_instance(query, db, 1, objective)
    try:
        engine = _engine_for(args)
        result = engine.retrieve(
            instance,
            args.query_text,
            pool_size=args.pool_size,
            retriever=args.retriever,
            exact=args.exact,
        )
    except ValueError as exc:  # bad knobs, retriever with nothing to run, …
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rows = instance.answers()
    ranked = [
        (rows[index], score) for index, score in zip(result.indices, result.scores)
    ]
    if args.json:
        payload = {
            **result.to_dict(),
            "indices": list(result.indices),
            "results": [
                {"score": score, **row.as_dict()} for row, score in ranked
            ],
        }
        print(json.dumps(payload, indent=2, default=str))
        return 0 if ranked else 1
    print(
        f"retrieved {len(ranked)} / {result.corpus_size} candidates "
        f"({result.retriever}: {'+'.join(result.stages)}, "
        f"{result.to_dict()['elapsed_ms']:.3f} ms)"
    )
    shown = ranked if not args.limit else ranked[: args.limit]
    for rank, (row, score) in enumerate(shown, start=1):
        attrs = ", ".join(f"{a}={v!r}" for a, v in row.as_dict().items())
        print(f"  {rank:4d}. score={score:.6f}  {attrs}")
    if len(shown) < len(ranked):
        print(f"  ... {len(ranked) - len(shown)} more (use --limit 0 to show all)")
    return 0 if ranked else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from .api import ApiError
    from .service.core import DiversificationService, ServiceConfig
    from .service.http import ServiceServer

    try:
        engine_config = _config_for(args).validate()
    except ApiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    service = DiversificationService(
        ServiceConfig(
            engine=engine_config,
            algorithm=args.algorithm,
            result_ttl=args.result_ttl,
            result_cache_size=args.result_cache_size,
            coalesce=not args.no_coalesce,
            max_concurrent=args.max_concurrent,
            max_k=args.max_k,
            approx_over=args.approx_over,
            engine_shards=args.engine_shards,
        )
    )

    async def run() -> None:
        server = ServiceServer(service, host=args.host, port=args.port)
        await server.start()
        # SIGTERM takes Ctrl-C's path: the serving task is cancelled and
        # the interpreter exits normally, so exit-time cleanup (the
        # spill segments' ``tiles-*`` directories) runs.
        asyncio.get_running_loop().add_signal_handler(
            signal.SIGTERM, asyncio.current_task().cancel
        )
        print(
            f"serving on http://{args.host}:{server.port} "
            f"(workloads: {', '.join(service.registry.names())})",
            flush=True,
        )
        await server.serve_forever()

    try:
        asyncio.run(run())
    except (KeyboardInterrupt, asyncio.CancelledError):
        pass
    return 0


def build_parser() -> argparse.ArgumentParser:
    from .api import add_engine_config_args

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Query result diversification (Deng & Fan reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("tables", help="print Tables I–III").set_defaults(func=_cmd_tables)
    sub.add_parser("figures", help="print the figure maps").set_defaults(func=_cmd_figures)
    sub.add_parser("verify", help="run the reduction verifications").set_defaults(func=_cmd_verify)

    d = sub.add_parser("diversify", help="diversify a query result")
    d.add_argument("--db", required=True, help="JSON file or directory of CSVs")
    d.add_argument("--query", required=True, help='e.g. "Q(X) :- r(X, Y), Y > 3"')
    d.add_argument("-k", type=int, required=True, help="result set size")
    d.add_argument(
        "--objective",
        choices=["max-sum", "max-min", "mono"],
        default="max-sum",
    )
    d.add_argument(
        "--lambda",
        dest="trade_off",
        type=float,
        default=0.5,
        help="relevance/diversity trade-off in [0,1]",
    )
    d.add_argument(
        "--relevance-attr",
        default=None,
        help="numeric attribute used as δ_rel (default: constant 1)",
    )
    d.add_argument(
        "--distance-attrs",
        default=None,
        help="comma-separated attributes for the mismatch δ_dis "
        "(default: all shared attributes)",
    )
    d.add_argument(
        "--method",
        choices=["auto", "exact", "greedy", "mmr", "local-search"],
        default="auto",
        help="paper-facing solver family (exact/heuristic)",
    )
    d.add_argument(
        "--algorithm",
        default=None,
        metavar="NAME",
        # Validated in the handler against repro.engine.ALGORITHMS —
        # argparse choices would force importing the engine (and numpy)
        # at parser-build time for every subcommand.
        help="dispatch a specific engine algorithm directly, e.g. mmr, "
        "greedy_max_sum, exhaustive, or 'auto' (overrides --method)",
    )
    d.add_argument(
        "--query-text",
        default=None,
        metavar="TEXT",
        help="retrieval front end: cut the answer set to a candidate "
        "pool ranked against TEXT before diversifying",
    )
    d.add_argument(
        "--pool-size",
        type=int,
        default=None,
        metavar="N",
        help="candidate pool bound for --query-text (default 2000)",
    )
    d.add_argument(
        "--retriever",
        choices=["bm25", "ann", "hybrid"],
        default=None,
        help="retrieval pipeline for --query-text (default hybrid)",
    )
    d.add_argument(
        "--cache-stats",
        action="store_true",
        help="print the process-wide kernel-cache counters after solving",
    )
    d.add_argument(
        "--json",
        action="store_true",
        help="emit the DiversifyResponse wire form (strict JSON, NaN → "
        "null) instead of human-readable text",
    )
    add_engine_config_args(d)
    d.set_defaults(func=_cmd_diversify)

    r = sub.add_parser(
        "retrieve",
        help="rank the answer set against a text query (the retrieval "
        "cut alone, no diversification)",
    )
    r.add_argument("--db", required=True, help="JSON file or directory of CSVs")
    r.add_argument("--query", required=True, help='e.g. "Q(X) :- r(X, Y), Y > 3"')
    r.add_argument(
        "--query-text",
        required=True,
        metavar="TEXT",
        help="free-text query the candidates are ranked against",
    )
    r.add_argument(
        "--pool-size",
        type=int,
        default=None,
        metavar="N",
        help="candidate pool bound (default 2000)",
    )
    r.add_argument(
        "--retriever",
        choices=["bm25", "ann", "hybrid"],
        default=None,
        help="retrieval pipeline (default hybrid; ann needs a feature-"
        "space objective)",
    )
    r.add_argument(
        "--exact",
        action="store_true",
        help="exhaustive scoring instead of the ANN index (ground truth)",
    )
    r.add_argument(
        "--limit",
        type=int,
        default=10,
        metavar="N",
        help="rows to print in human output (0 = all; --json emits all)",
    )
    r.add_argument(
        "--relevance-attr",
        default=None,
        help="numeric attribute used as δ_rel (default: constant 1)",
    )
    r.add_argument(
        "--distance-attrs",
        default=None,
        help="comma-separated attributes for the mismatch δ_dis "
        "(default: all shared attributes)",
    )
    r.add_argument(
        "--json",
        action="store_true",
        help="emit the pool as JSON instead of human-readable text",
    )
    add_engine_config_args(r)
    r.set_defaults(func=_cmd_retrieve)

    s = sub.add_parser(
        "serve",
        help="boot the diversification service (asyncio HTTP, coalescing, "
        "TTL cache)",
    )
    s.add_argument("--host", default="127.0.0.1")
    s.add_argument("--port", type=int, default=8787, help="0 = OS-assigned")
    s.add_argument(
        "--algorithm",
        default="auto",
        metavar="NAME",
        help="default engine algorithm for served requests",
    )
    s.add_argument(
        "--result-ttl",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="TTL of the result cache (0 disables it)",
    )
    s.add_argument(
        "--result-cache-size",
        type=int,
        default=256,
        metavar="N",
        help="entry bound of the TTL result cache",
    )
    s.add_argument(
        "--no-coalesce",
        action="store_true",
        help="disable in-flight request coalescing (benchmark baseline)",
    )
    s.add_argument(
        "--max-concurrent",
        type=int,
        default=8,
        metavar="N",
        help="per-tenant ceiling on concurrently computing requests",
    )
    s.add_argument(
        "--max-k",
        type=int,
        default=1000,
        metavar="K",
        help="per-request k ceiling (quota, HTTP 429)",
    )
    s.add_argument(
        "--approx-over",
        type=int,
        default=None,
        metavar="N",
        help="admit answer sets larger than N to the sketched "
        "approximate path (with certificate) instead of rejecting them",
    )
    s.add_argument(
        "--engine-shards",
        type=int,
        default=1,
        metavar="N",
        help="partition each tenant's serving across N engine shards "
        "(consistent hash on the request key; kernel LRUs partition "
        "and shards compute concurrently; default 1)",
    )
    add_engine_config_args(s)
    s.set_defaults(func=_cmd_serve)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
