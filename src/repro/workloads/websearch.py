"""Web-search result diversification (the Agrawal et al. setting).

The paper's survey of applications opens with Web search: an ambiguous
query ("jaguar") has several *intents* (car, animal, OS release), each
result covers some intents with some quality, and a diversified page
should cover the probable intents.  This workload generates that
scenario over a relational schema::

    results(doc, intent, quality, authority)

with one row per (document, covered intent); documents may cover
several intents.  Relevance = authority × quality for the primary
intent; distance = intent-coverage dissimilarity (Jaccard on covered
intent sets).  :func:`intent_coverage` scores a selected set by the
probability-weighted number of intents covered — the metric the search
literature reports — so examples/benchmarks can show the coverage gain
of diversification over pure relevance ranking.
"""

from __future__ import annotations

import random
from collections.abc import Sequence

from ..core.functions import DistanceFunction, RelevanceFunction
from ..core.providers import FeatureSpaceProvider
from ..relational.queries import Query, identity_query
from ..relational.schema import Database, Relation, RelationSchema, Row

RESULTS = RelationSchema("results", ("doc", "intent", "quality", "authority"))

DOCS = RelationSchema("docs", ("doc", "primary_intent", "authority"))


def generate(
    num_docs: int = 30,
    num_intents: int = 4,
    seed: int = 17,
    intent_skew: float = 0.55,
) -> Database:
    """A synthetic ambiguous-query result pool.

    ``intent_skew`` is the probability mass of the most popular intent;
    the rest decays geometrically (the head intent dominating is what
    makes pure relevance ranking homogeneous).
    """
    rng = random.Random(seed)
    weights = _intent_weights(num_intents, intent_skew)
    results = Relation(RESULTS)
    docs = Relation(DOCS)
    for d in range(num_docs):
        doc = f"doc{d:03d}"
        primary = rng.choices(range(num_intents), weights=weights)[0]
        authority = round(0.2 + 0.8 * rng.random(), 3)
        covered = {primary}
        for intent in range(num_intents):
            if intent != primary and rng.random() < 0.25:
                covered.add(intent)
        docs.add((doc, f"intent{primary}", authority))
        for intent in covered:
            quality = round(
                (1.0 if intent == primary else 0.3 + 0.4 * rng.random()), 3
            )
            results.add((doc, f"intent{intent}", quality, authority))
    return Database([results, docs])


def _intent_weights(num_intents: int, skew: float) -> list[float]:
    weights = []
    remaining = 1.0
    for i in range(num_intents - 1):
        weights.append(remaining * skew)
        remaining *= 1.0 - skew
    weights.append(remaining)
    return weights


def documents_query() -> Query:
    """The identity query over the per-document relation."""
    return identity_query(DOCS)


def coverage_map(db: Database) -> dict[str, dict[str, float]]:
    """doc → {intent: quality} from the results relation."""
    coverage: dict[str, dict[str, float]] = {}
    for row in db.relation(RESULTS.name).rows:
        coverage.setdefault(row["doc"], {})[row["intent"]] = row["quality"]
    return coverage


def authority_relevance() -> RelevanceFunction:
    """δ_rel = document authority (what a relevance-only ranker uses)."""
    return RelevanceFunction.from_attribute("authority")


class IntentIncidenceFeatures:
    """doc → binary intent-incidence vector over a coverage snapshot."""

    __slots__ = ("coverage", "position")

    def __init__(self, coverage: dict[str, dict[str, float]], position: dict[str, int]):
        self.coverage = coverage
        self.position = position

    def __call__(self, row: Row) -> tuple[float, ...]:
        vector = [0.0] * len(self.position)
        for intent in self.coverage.get(row["doc"], ()):
            vector[self.position[intent]] = 1.0
        return tuple(vector)


def scoring_provider(db: Database, vectorize: bool = True) -> FeatureSpaceProvider:
    """The batch-native scorer over a snapshot of ``db``'s coverage.

    Each document becomes a binary intent-incidence vector; the Jaccard
    distance block is then two matmuls over the 0/1 feature matrices —
    exactly equal, float for float, to the pairwise set computation (set
    sizes are exact small integers in float64).  ``vectorize=False``
    keeps the provider interface but scores blocks with scalar metric
    loops (the benchmark's batch-loop baseline).
    """
    coverage = coverage_map(db)
    intents = sorted({intent for covered in coverage.values() for intent in covered})
    position = {intent: i for i, intent in enumerate(intents)}

    return FeatureSpaceProvider(
        IntentIncidenceFeatures(coverage, position),
        metric="jaccard",
        relevance=authority_relevance(),
        name="websearch-intents",
        distance_name="intent-jaccard",
        vectorize=vectorize,
    )


def intent_distance(db: Database) -> DistanceFunction:
    """δ_dis = 1 − Jaccard similarity of the covered intent sets.

    Derived from :func:`scoring_provider`, so the scalar callable and
    the vectorized block path share one definition.
    """
    return scoring_provider(db).distance_function()


def intent_weights_from(db: Database) -> dict[str, float]:
    """Empirical intent popularity (primary-intent frequencies)."""
    counts: dict[str, int] = {}
    for row in db.relation(DOCS.name).rows:
        counts[row["primary_intent"]] = counts.get(row["primary_intent"], 0) + 1
    total = sum(counts.values())
    return {intent: c / total for intent, c in counts.items()}


def intent_coverage(db: Database, selected: Sequence[Row]) -> float:
    """Probability-weighted intent coverage of a selected set:
    Σ_intent weight(intent) · max_{doc∈U} quality(doc, intent)."""
    coverage = coverage_map(db)
    weights = intent_weights_from(db)
    total = 0.0
    for intent, weight in weights.items():
        best = 0.0
        for row in selected:
            best = max(best, coverage.get(row["doc"], {}).get(intent, 0.0))
        total += weight * best
    return total
