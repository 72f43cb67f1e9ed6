"""Shared instance builders for the benchmark harness.

Every benchmark regenerates part of a table or figure of the paper.  The
absolute timings are machine-dependent; what must reproduce is the
*shape*: cells the paper proves complete for NP/PSPACE/#·C scale
super-polynomially in the hardness parameter, PTIME/FP cells scale
polynomially, and the paper's crossovers (e.g. F_mono tractable until
constraints arrive) appear as order-of-magnitude gaps at equal sizes.
"""

from __future__ import annotations

import random

from repro.core.functions import DistanceFunction, RelevanceFunction
from repro.core.instance import DiversificationInstance
from repro.core.objectives import Objective, ObjectiveKind
from repro.logic.cnf import CNF, ThreeSatInstance, random_3cnf
from repro.logic.qbf import A, E, Q3SatInstance, q3sat
from repro.relational.queries import identity_query
from repro.relational.schema import Database, Relation, RelationSchema
from repro.workloads.synthetic import euclidean_distance, random_database

ITEMS = RelationSchema("items", ("id", "category", "score", "x", "y"))


def three_sat(l: int, num_vars: int = 4, seed: int = 7) -> ThreeSatInstance:
    """A random 3SAT instance with l clauses (hardness parameter l)."""
    return ThreeSatInstance(random_3cnf(num_vars, l, random.Random(seed)))


def narrow_three_sat(l: int, num_vars: int = 3, seed: int = 7) -> ThreeSatInstance:
    """1–2 literals per clause: keeps DRP reduction search spaces small."""
    rng = random.Random(seed)
    clauses = []
    for _ in range(l):
        size = rng.choice((1, 2))
        variables = rng.sample(range(1, num_vars + 1), size)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in variables))
    return ThreeSatInstance(CNF(tuple(clauses), num_vars=num_vars))


def q3sat_instance(m: int, seed: int = 11) -> Q3SatInstance:
    """A random Q3SAT instance with m alternating-ish quantifiers."""
    rng = random.Random(seed)
    matrix = random_3cnf(m, max(2, m - 1), rng)
    quantifiers = [E if i % 2 == 0 else A for i in range(m)]
    return q3sat(quantifiers, matrix)


def data_instance(
    n: int,
    k: int,
    kind: ObjectiveKind,
    lam: float = 0.5,
    seed: int = 3,
) -> DiversificationInstance:
    """Fixed identity query, growing database (data-complexity setting)."""
    db = random_database(n=n, seed=seed)
    objective = Objective(
        kind,
        RelevanceFunction.from_attribute("score"),
        euclidean_distance(),
        lam,
    )
    return DiversificationInstance(identity_query(ITEMS), db, k=k, objective=objective)


def integer_score_instance(
    n: int,
    k: int,
    kind: ObjectiveKind = ObjectiveKind.MONO,
    lam: float = 0.0,
    seed: int = 5,
    max_score: int = 50,
) -> DiversificationInstance:
    """Integer relevance scores (for the pseudo-polynomial DP counter)."""
    rng = random.Random(seed)
    schema = RelationSchema("w", ("id", "s"))
    relation = Relation(schema, [(i, rng.randrange(max_score)) for i in range(n)])
    db = Database([relation])
    objective = Objective(
        kind,
        RelevanceFunction.from_attribute("s"),
        DistanceFunction.constant(0.0),
        lam,
    )
    return DiversificationInstance(identity_query(schema), db, k=k, objective=objective)
