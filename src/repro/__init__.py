"""repro — a reproduction of Deng & Fan, "On the Complexity of Query
Result Diversification" (VLDB 2013 / ACM TODS 39(2), 2014).

The package implements the paper's full system surface:

* :mod:`repro.relational` — an in-memory relational engine with CQ /
  UCQ / ∃FO⁺ / FO query evaluation under active-domain semantics;
* :mod:`repro.core` — the three objective functions (F_MS, F_MM,
  F_mono), the three analysis problems (QRD, DRP, RDC) with exact and
  PTIME solvers, compatibility constraints C_m, and the complexity
  classifier that regenerates Tables I–III and Figures 1/3/4;
* :mod:`repro.logic` — SAT/#SAT/QBF substrate for verifying reductions;
* :mod:`repro.reductions` — every lower-bound proof as executable,
  machine-checked code (including Figure 2's distance gadget);
* :mod:`repro.algorithms` — exact optimizers and the heuristics the
  paper's conclusion calls for (greedy dispersion, MMR, local search);
* :mod:`repro.workloads` — the motivating scenarios (gifts, courses,
  teams) and random generators;
* :mod:`repro.engine` — the shared scoring kernel (precomputed
  relevance/distance arrays, NumPy-backed when available) and the batch
  diversification engine with LRU kernel caching;
* :mod:`repro.api` — the unified request/config surface
  (:class:`~repro.api.EngineConfig`, :class:`~repro.api.DiversifyRequest`,
  :class:`~repro.api.DiversifyResponse`) shared by the engine, the CLI
  and the serving layer;
* :mod:`repro.service` — diversification-as-a-service: an asyncio
  serving core with request coalescing, a TTL result cache, per-tenant
  quotas/telemetry, and a stdlib HTTP adapter.

Quickstart::

    from repro import core, workloads

    db = workloads.gifts.generate()
    query = workloads.gifts.peter_query_cq()
    objective = core.Objective.max_sum(
        workloads.gifts.relevance_from_history(db),
        workloads.gifts.type_distance(db),
        lam=0.5,
    )
    instance = core.make_instance(query, db, k=5, objective=objective)
    value, picks = core.diversify(instance)
"""

from . import (
    algorithms,
    api,
    core,
    engine,
    logic,
    reductions,
    relational,
    service,
    workloads,
)

__version__ = "1.8.0"

__all__ = [
    "algorithms",
    "api",
    "core",
    "engine",
    "logic",
    "reductions",
    "relational",
    "service",
    "workloads",
    "__version__",
]
