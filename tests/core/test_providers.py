"""Property suite for the batch-native scoring providers (ISSUE 4).

The load-bearing contract: for every workload, the native provider's
batch methods, its *derived* scalar callables, and a
:class:`ScalarCallableProvider` adapter wrapped around those callables
must agree **element-wise with exact float equality on the same
backend** — including duplicate rows in a batch, across the vectorized
and scalar block paths, and after kernels are delta-patched.
"""

import copy

import pytest

from repro.core.instance import DiversificationInstance
from repro.core.objectives import Objective, ObjectiveError, ObjectiveKind
from repro.core.providers import (
    FeatureSpaceProvider,
    HierarchyMetric,
    MismatchMetric,
    ProviderError,
    ScalarCallableProvider,
    resolve_metric,
)
from repro.engine import numpy_available
from repro.workloads import courses, gifts, streaming, synthetic, teams, websearch

BACKENDS = [False] + ([True] if numpy_available() else [])


def websearch_case():
    db = websearch.generate(num_docs=24, num_intents=5, seed=11)
    provider = websearch.scoring_provider(db)
    rows = db.relation(websearch.DOCS.name).sorted_rows()
    return provider, rows, None


def streaming_case():
    workload = streaming.StreamingWebSearch(num_docs=18, num_intents=4, seed=5)
    for _ in range(6):
        workload.step()
    instance = workload.make_instance(k=4)
    return workload.provider, instance.answers(), instance.query


def synthetic_case():
    db = synthetic.random_database(n=20, seed=7)
    provider = synthetic.scoring_provider()
    rows = db.relation("items").sorted_rows()
    return provider, rows, None


def courses_case():
    db = courses.generate(extra_courses=10, seed=2)
    provider = courses.scoring_provider()
    rows = db.relation(courses.COURSES.name).sorted_rows()
    return provider, rows, None


def teams_case():
    db = teams.generate(num_players=15, seed=4)
    provider = teams.scoring_provider()
    rows = db.relation(teams.PLAYERS.name).sorted_rows()
    return provider, rows, None


def gifts_case():
    db = gifts.generate(num_items=25, num_history=60, seed=9)
    provider = gifts.scoring_provider(db)
    instance = DiversificationInstance(
        gifts.peter_query_cq(low=5, high=95),
        db,
        k=4,
        objective=Objective.from_provider(ObjectiveKind.MAX_SUM, provider),
    )
    return provider, instance.answers(), instance.query


def jaccard_empty_case():
    """0/1 vectors from the low bits of ``id``: ids divisible by 8 are
    all-zero rows, and empty against empty is 0.0."""
    db = synthetic.random_database(n=20, seed=7)
    provider = FeatureSpaceProvider(
        lambda row: tuple(float(row["id"] >> bit & 1) for bit in range(3)),
        metric="jaccard",
        relevance=lambda row: row["score"],
    )
    rows = db.relation("items").sorted_rows()
    assert sum(not any(provider.features_of(row)) for row in rows) >= 2
    return provider, rows, None


def weighted_mismatch_case():
    db = synthetic.random_database(n=20, seed=7)
    provider = FeatureSpaceProvider(
        lambda row: (float(row["id"] % 2), float(row["id"] % 3), float(row["category"] == "c2")),
        metric=MismatchMetric((0.5, 2.0, 1.25)),
        relevance=lambda row: row["score"],
    )
    return provider, db.relation("items").sorted_rows(), None


WORKLOAD_CASES = {
    "websearch": websearch_case,
    "streaming": streaming_case,
    "synthetic": synthetic_case,
    "courses": courses_case,
    "teams": teams_case,
    "gifts": gifts_case,
    "jaccard-empty": jaccard_empty_case,
    "weighted-mismatch": weighted_mismatch_case,
}


def as_floats(vector):
    return [float(v) for v in vector]


def as_matrix(block):
    return [[float(v) for v in row] for row in block]


@pytest.fixture(params=sorted(WORKLOAD_CASES), ids=str)
def case(request):
    provider, rows, query = WORKLOAD_CASES[request.param]()
    assert len(rows) >= 8, "case too small to be interesting"
    return provider, rows, query


@pytest.mark.parametrize("use_numpy", BACKENDS)
class TestElementwiseAgreement:
    def test_relevance_three_ways(self, case, use_numpy):
        provider, rows, query = case
        # Duplicate rows in the batch must score like their originals.
        batch = list(rows) + list(rows[:3])
        derived = provider.relevance_function()
        adapter = ScalarCallableProvider(derived, provider.distance_function())
        native = as_floats(provider.relevance_batch(batch, query, use_numpy=use_numpy))
        scalars = [derived(row, query) for row in batch]
        adapted = as_floats(adapter.relevance_batch(batch, query, use_numpy=use_numpy))
        assert native == scalars
        assert native == adapted
        assert [provider.relevance_at(row, query) for row in batch] == scalars

    def test_distance_block_three_ways(self, case, use_numpy):
        provider, rows, _ = case
        rows_a = list(rows[:10]) + [rows[2], rows[2]]  # duplicates
        rows_b = list(rows[4:14]) + [rows[2]]
        derived = provider.distance_function()
        adapter = ScalarCallableProvider(provider.relevance_function(), derived)
        native = as_matrix(provider.distance_block(rows_a, rows_b, use_numpy=use_numpy))
        scalars = [[derived(a, b) for b in rows_b] for a in rows_a]
        adapted = as_matrix(adapter.distance_block(rows_a, rows_b, use_numpy=use_numpy))
        assert native == scalars
        assert native == adapted
        if isinstance(provider, FeatureSpaceProvider):
            loop = copy.copy(provider)
            loop.vectorize = False  # the pair-by-pair baseline
            assert as_matrix(loop.distance_block(rows_a, rows_b, use_numpy=use_numpy)) == native

    def test_symmetric_self_block(self, case, use_numpy):
        provider, rows, _ = case
        batch = list(rows[:8]) + [rows[0], rows[5]]  # duplicated values
        block = as_matrix(provider.distance_block(batch, batch, use_numpy=use_numpy))
        n = len(batch)
        for i in range(n):
            assert block[i][i] == 0.0
            for j in range(n):
                assert block[i][j] == block[j][i]
                assert block[i][j] >= 0.0
                if batch[i].values == batch[j].values:
                    assert block[i][j] == 0.0

    def test_self_block_matches_cross_block(self, case, use_numpy):
        # `rows_a is rows_b` takes the triangle-once (or single feature
        # matrix) path; scoring the same rows as two distinct lists must
        # give the identical matrix.
        provider, rows, _ = case
        batch = list(rows[:9])
        other = list(batch)
        assert other is not batch
        self_block = as_matrix(provider.distance_block(batch, batch, use_numpy=use_numpy))
        cross_block = as_matrix(provider.distance_block(batch, other, use_numpy=use_numpy))
        assert self_block == cross_block


@pytest.mark.skipif(not numpy_available(), reason="requires numpy")
class TestVectorizedScalarParity:
    """The vectorized NumPy block path must equal the scalar-loop path
    bit for bit (this is what keeps the two kernel backends identical)."""

    def test_blocks_agree_across_paths(self, case):
        provider, rows, _ = case
        rows_a = list(rows[:12])
        rows_b = list(rows[6:])
        vectorized = as_matrix(provider.distance_block(rows_a, rows_b, use_numpy=True))
        scalar = as_matrix(provider.distance_block(rows_a, rows_b, use_numpy=False))
        assert vectorized == scalar

    def test_relevance_agrees_across_paths(self, case):
        provider, rows, query = case
        vectorized = as_floats(provider.relevance_batch(rows, query, use_numpy=True))
        scalar = as_floats(provider.relevance_batch(rows, query, use_numpy=False))
        assert vectorized == scalar


class TestObjectiveCarriesProvider:
    def test_from_provider_wires_derived_callables(self):
        provider = courses.scoring_provider()
        objective = Objective.from_provider(ObjectiveKind.MAX_SUM, provider, lam=0.4)
        assert objective.provider is provider
        assert objective.relevance is provider.relevance_function()
        assert objective.distance is provider.distance_function()
        assert objective.with_lambda(0.9).provider is provider

    def test_provider_objective_helpers(self):
        provider = teams.scoring_provider()
        assert provider.max_sum(0.3).kind is ObjectiveKind.MAX_SUM
        assert provider.max_min(0.3).kind is ObjectiveKind.MAX_MIN
        assert provider.mono(0.3).kind is ObjectiveKind.MONO

    def test_mismatched_scalar_callables_rejected(self):
        provider = teams.scoring_provider()
        other = teams.scoring_provider()
        with pytest.raises(ObjectiveError):
            Objective.max_sum(
                other.relevance_function(),
                other.distance_function(),
                provider=provider,
            )

    def test_instance_passthrough(self):
        db = teams.generate(num_players=9)
        provider = teams.scoring_provider()
        instance = DiversificationInstance(
            teams.roster_query(),
            db,
            k=3,
            objective=Objective.from_provider(ObjectiveKind.MAX_SUM, provider),
        )
        assert instance.provider is provider


class TestDerivedCallableContracts:
    def test_derived_callables_are_cached(self):
        provider = websearch.scoring_provider(websearch.generate(num_docs=6))
        assert provider.relevance_function() is provider.relevance_function()
        assert provider.distance_function() is provider.distance_function()

    def test_scalar_adapter_reuses_originals(self):
        relevance = teams.skill_relevance()
        distance = teams.position_distance()
        adapter = ScalarCallableProvider(relevance, distance)
        assert adapter.relevance_function() is relevance
        assert adapter.distance_function() is distance

    def test_distance_names_preserved(self):
        db = websearch.generate(num_docs=6)
        assert websearch.intent_distance(db).name == "intent-jaccard"
        assert courses.area_distance().name == "area-level"
        assert teams.position_distance().name == "position"
        assert gifts.type_distance(gifts.generate(num_items=8)).name == "type-category"
        assert synthetic.euclidean_distance().name == "euclidean"


class TestMetrics:
    def test_resolve_metric_rejects_unknown(self):
        with pytest.raises(ProviderError):
            resolve_metric("cosine-nope")

    def test_resolve_metric_passthrough(self):
        metric = HierarchyMetric((3.0, 1.0))
        assert resolve_metric(metric) is metric
        assert resolve_metric("euclidean").name == "euclidean"

    def test_hierarchy_rejects_bad_weights(self):
        with pytest.raises(ProviderError):
            HierarchyMetric(())
        with pytest.raises(ProviderError):
            HierarchyMetric((1.0, -2.0))

    def test_mismatch_rejects_bad_weights(self):
        with pytest.raises(ProviderError):
            MismatchMetric((-1.0,))

    def test_jaccard_python_block_on_ragged_vectors(self):
        # The scalar's zip() ignores the longer vector's tail; the
        # bitmask block must too.
        metric = resolve_metric("jaccard")
        features = [(1.0, 0.0), (1.0, 0.0, 1.0), (0.0, 0.0, 0.0, 1.0), ()]
        expected = [[metric.scalar(fa, fb) for fb in features] for fa in features]
        assert metric.python_block(features, list(features)) == expected

    @pytest.mark.parametrize("use_numpy", BACKENDS)
    def test_mismatch_metric_counts_differing_columns(self, use_numpy):
        db = synthetic.random_database(n=10, seed=1)
        provider = FeatureSpaceProvider(
            lambda row: (float(row["id"] % 2), float(row["id"] % 3)),
            metric="mismatch",
            relevance=lambda row: 1.0,
        )
        rows = db.relation("items").sorted_rows()
        block = as_matrix(provider.distance_block(rows, rows, use_numpy=use_numpy))
        for i, left in enumerate(rows):
            for j, right in enumerate(rows):
                expected = float(left["id"] % 2 != right["id"] % 2) + float(
                    left["id"] % 3 != right["id"] % 3
                )
                if left.values == right.values:
                    expected = 0.0
                assert block[i][j] == expected
