#!/usr/bin/env python
"""Kernel-backed engine vs direct objective path, across the workloads.

For each workload scenario (websearch, courses, teams, synthetic) this
bench builds a family of ``(Q, D, k, F)`` instances sharing one
materialization — a k × λ grid, the batch shape of trade-off tuning and
pagination — and times

* the **direct** path: each instance solved by the plain heuristic,
  re-invoking ``δ_rel``/``δ_dis`` per candidate pair, and
* the **engine** path: the same batch through
  :class:`repro.engine.DiversificationEngine`, which precomputes one
  :class:`~repro.engine.kernel.ScoringKernel` per materialization
  (precompute time *included* in the engine timing).

Usage::

    python benchmarks/bench_engine.py              # full run (~200-point pools)
    python benchmarks/bench_engine.py --smoke      # sub-second CI smoke
    python benchmarks/bench_engine.py --no-numpy   # force pure-Python kernels
    python benchmarks/bench_engine.py --check      # assert >=2x on websearch

The acceptance target (ISSUE 1): the kernel-backed path beats the
direct path by >= 2x on the websearch workload at n >= 200.
"""

import argparse
import sys
import time
from pathlib import Path

try:
    import repro  # noqa: F401
except ImportError:  # running as a script without PYTHONPATH/pip install
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.api import EngineConfig
from repro.core.instance import DiversificationInstance
from repro.core.objectives import Objective
from repro.engine import (
    ALGORITHMS,
    DiversificationEngine,
    numpy_available,
    variants_grid,
)
from repro.workloads import courses, synthetic, teams, websearch

import common

# The --smoke mode must stay comfortably sub-second locally; the budget
# leaves headroom for slow CI runners while still catching real rot.
SMOKE_BUDGET_SECONDS = 1.0


def _grid(instance, ks, lams):
    """k x λ variants sharing the base instance's materialization —
    the same grid the engine's sweep() solves."""
    return [variant for _, _, variant in variants_grid(instance, ks, lams)]


def websearch_family(n, ks, lams):
    db = websearch.generate(num_docs=n, num_intents=6)
    objective = Objective.max_sum(
        websearch.authority_relevance(), websearch.intent_distance(db), lam=lams[0]
    )
    base = DiversificationInstance(
        websearch.documents_query(), db, k=ks[0], objective=objective
    )
    return _grid(base, ks, lams)


def synthetic_family(n, ks, lams):
    base = synthetic.random_instance(n=n, k=ks[0], lam=lams[0], seed=9)
    return _grid(base, ks, lams)


def courses_family(n, ks, lams):
    db = courses.generate(extra_courses=max(0, n - 12))
    objective = Objective.max_sum(
        courses.rating_relevance(), courses.area_distance(), lam=lams[0]
    )
    base = DiversificationInstance(
        courses.catalog_query(), db, k=ks[0], objective=objective
    )
    return _grid(base, ks, lams)


def teams_family(n, ks, lams):
    db = teams.generate(num_players=n)
    objective = Objective.max_sum(
        teams.skill_relevance(), teams.position_distance(), lam=lams[0]
    )
    base = DiversificationInstance(
        teams.roster_query(), db, k=ks[0], objective=objective
    )
    return _grid(base, ks, lams)


SCENARIOS = {
    "websearch": websearch_family,
    "courses": courses_family,
    "teams": teams_family,
    "synthetic": synthetic_family,
}


def time_direct(instances, algorithm, repeat):
    func = ALGORITHMS[algorithm]
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        for instance in instances:
            func(instance, None)
        best = min(best, time.perf_counter() - start)
    return best


def time_engine(instances, algorithm, repeat, use_numpy):
    best = float("inf")
    backend = "?"
    for _ in range(repeat):
        engine = DiversificationEngine(
            algorithm=algorithm,
            use_numpy=use_numpy,
            config=EngineConfig(cache_size=4),
        )
        start = time.perf_counter()
        results = engine.run_batch(instances)
        best = min(best, time.perf_counter() - start)
        backend = next((r.backend for r in results if r is not None), "?")
    return best, backend


def run(n, ks, lams, algorithms, repeat, use_numpy, scenarios=None):
    records = []
    names = scenarios if scenarios else list(SCENARIOS)
    for name in names:
        instances = SCENARIOS[name](n, ks, lams)
        for algorithm in algorithms:
            direct = time_direct(instances, algorithm, repeat)
            engine_time, backend = time_engine(instances, algorithm, repeat, use_numpy)
            records.append(
                common.EngineBenchRecord(
                    scenario=name,
                    algorithm=algorithm,
                    n=n,
                    batch=len(instances),
                    backend=backend,
                    direct_seconds=direct,
                    engine_seconds=engine_time,
                )
            )
    return records


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=f"tiny sizes with a {SMOKE_BUDGET_SECONDS:g}s budget (CI rot check)",
    )
    parser.add_argument("--n", type=int, default=200, help="answer-pool size")
    parser.add_argument("--repeat", type=int, default=1, help="best-of repetitions")
    parser.add_argument(
        "--no-numpy",
        action="store_true",
        help="force the pure-Python kernel backend",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero unless websearch speedup >= 2x",
    )
    args = parser.parse_args(argv)

    use_numpy = False if args.no_numpy else None
    if args.smoke:
        budget = time.perf_counter()
        records = run(
            n=40,
            ks=[4],
            lams=[0.5, 0.8],
            algorithms=["mmr"],
            repeat=1,
            use_numpy=use_numpy,
        )
        elapsed = time.perf_counter() - budget
        print(common.render_engine_report(records, title="engine smoke (n=40)"))
        print(f"\nsmoke wall time: {elapsed:.3f}s (budget {SMOKE_BUDGET_SECONDS}s)")
        if elapsed > SMOKE_BUDGET_SECONDS:
            print("SMOKE BUDGET EXCEEDED", file=sys.stderr)
            return 1
        return 0

    records = run(
        n=args.n,
        ks=[5, 10],
        lams=[0.2, 0.5, 0.8],
        algorithms=["mmr", "greedy_max_sum", "greedy_marginal_max_sum"],
        repeat=args.repeat,
        use_numpy=use_numpy,
    )
    print(
        common.render_engine_report(
            records,
            title=(
                f"engine vs direct path "
                f"(n={args.n}, numpy={numpy_available() and not args.no_numpy})"
            ),
        )
    )

    websearch_records = [r for r in records if r.scenario == "websearch"]
    direct_total = sum(r.direct_seconds for r in websearch_records)
    engine_total = sum(r.engine_seconds for r in websearch_records)
    overall = direct_total / engine_total if engine_total else float("inf")
    verdict = "PASS" if overall >= 2.0 else "FAIL"
    print(
        f"\nwebsearch overall speedup at n={args.n}: {overall:.2f}x "
        f"(target >= 2x) -> {verdict}"
    )
    if args.check and overall < 2.0:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
