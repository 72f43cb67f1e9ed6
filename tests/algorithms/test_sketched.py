"""Sketched selection: certificates, landmark strategies, streaming.

The approximation contract (ISSUE 7): a sketched selector's reported
``value`` is the **exact** objective of the set it returns, and its
certificate brackets every sketch-bound evaluation of that set —
``lower ≤ value ≤ upper`` — because the landmark columns are exact
distances and the bounds are triangle-inequality consequences.  These
properties must hold across workloads, backends, landmark strategies
and duplicated answer rows; and the sketched plan must never
materialize a full distance matrix while doing it.
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.sketched import (
    select_sketched_marginal_max_sum,
    select_sketched_max_min,
    select_sketched_mmr,
)
from repro.algorithms.streaming import (
    StreamingGreedySelector,
    select_streaming_greedy,
)
from repro.algorithms.substrate import ApproxCertificate
from repro.api import EngineConfig
from repro.core.instance import DiversificationInstance
from repro.core.objectives import Objective, ObjectiveError, ObjectiveKind
from repro.core.providers import LANDMARK_STRATEGIES, ProviderError
from repro.engine import ScoringKernel, SketchedStorage, numpy_available
from repro.workloads import websearch
from repro.workloads.streaming import StreamingWebSearch
from repro.workloads.synthetic import random_instance

BACKENDS = [False] + ([True] if numpy_available() else [])

SELECTORS = {
    ObjectiveKind.MAX_SUM: select_sketched_marginal_max_sum,
    ObjectiveKind.MAX_MIN: select_sketched_max_min,
}


def sketched_kernel(instance, use_numpy, **knobs):
    config = EngineConfig(approx=True, **knobs)
    return ScoringKernel(instance, use_numpy=use_numpy, config=config)


def with_duplicates(instance, extra=(0, 2, 2)):
    answers = instance.answers()
    instance._result_cache = answers + [answers[i] for i in extra]
    return instance


class TestCertificateBracket:
    """lower ≤ exact F ≤ upper, for every selected set, every plan."""

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 50),
        lam=st.sampled_from([0.2, 0.5, 0.8, 1.0]),
        kind=st.sampled_from([ObjectiveKind.MAX_SUM, ObjectiveKind.MAX_MIN]),
        strategy=st.sampled_from(LANDMARK_STRATEGIES),
        duplicates=st.booleans(),
        use_numpy=st.sampled_from(BACKENDS),
    )
    def test_bracket_property(
        self, seed, lam, kind, strategy, duplicates, use_numpy
    ):
        instance = random_instance(n=18, k=4, kind=kind, lam=lam, seed=seed)
        if duplicates:
            instance = with_duplicates(instance)
        kernel = sketched_kernel(
            instance, use_numpy, sketch_columns=5, landmarks=strategy
        )
        selection = SELECTORS[kind](kernel, instance.objective, instance.k)
        assert selection is not None
        cert = selection.certificate
        assert cert.columns == 5
        assert cert.strategy == strategy
        assert cert.lower <= selection.value + 1e-9
        assert selection.value <= cert.upper + 1e-9
        assert not kernel.distances_materialized
        # The reported value is the exact objective of the returned set
        # (the k×k rescoring path, which never touches a full matrix).
        assert selection.value == pytest.approx(
            kernel.selected_value(list(selection.indices), instance.objective),
            rel=1e-9,
            abs=1e-9,
        )

    @pytest.mark.parametrize("use_numpy", BACKENDS)
    def test_bounds_bracket_true_distance_pairwise(self, use_numpy):
        """The storage-level guarantee behind the certificate: for every
        pair, lower_bound ≤ δ_dis ≤ upper_bound (euclidean is a metric)."""
        instance = random_instance(n=24, k=4, seed=7)
        kernel = sketched_kernel(instance, use_numpy, sketch_columns=6)
        sketch = kernel.sketch()
        assert isinstance(sketch, SketchedStorage)
        provider = instance.objective.provider
        answers = instance.answers()
        for i in range(kernel.n):
            for j in range(kernel.n):
                true = float(provider.distance_at(answers[i], answers[j]))
                assert sketch.lower_bound(i, j) <= true + 1e-9
                assert true <= sketch.upper_bound(i, j) + 1e-9

    @pytest.mark.parametrize("use_numpy", BACKENDS)
    def test_mmr_certificate(self, use_numpy):
        instance = random_instance(n=20, k=5, lam=0.6, seed=13)
        kernel = sketched_kernel(instance, use_numpy)
        selection = select_sketched_mmr(kernel, instance.objective, instance.k)
        cert = selection.certificate
        assert cert.lower <= selection.value <= cert.upper + 1e-9
        assert len(selection.rows) == 5
        assert not kernel.distances_materialized

    def test_backends_agree(self):
        if not numpy_available():
            pytest.skip("needs numpy")
        instance = random_instance(n=30, k=5, lam=0.5, seed=3)
        picks = []
        for use_numpy in (False, True):
            kernel = sketched_kernel(instance, use_numpy, sketch_columns=7)
            selection = select_sketched_marginal_max_sum(
                kernel, instance.objective, instance.k
            )
            picks.append(selection.indices)
        assert picks[0] == picks[1]

    def test_certificate_roundtrip(self):
        cert = ApproxCertificate(
            lower=1.0, value=2.0, upper=3.0, columns=4, strategy="uniform"
        )
        assert ApproxCertificate.from_dict(cert.to_dict()) == cert


#: Recorded by running :func:`pinned_selection` on every case of
#: :func:`pinned_cases` on both backends, while the sketched selectors
#: were still their own copies of the exact loops; both backends gave
#: the same bits, so each case has one pin.  Floats are ``float.hex``.
SKETCHED_PINS = json.loads(
    (Path(__file__).parent.parent / "data" / "sketched_pins.json").read_text()
)

PINNED_SELECTORS = {
    "marginal_max_sum": select_sketched_marginal_max_sum,
    "mmr": select_sketched_mmr,
    "max_min": select_sketched_max_min,
}


def pinned_cases():
    """(workload, selector, objective kind, λ, landmarks) of every pin."""
    pairs = [
        ("marginal_max_sum", ObjectiveKind.MAX_SUM),
        ("mmr", ObjectiveKind.MAX_SUM),
        ("mmr", ObjectiveKind.MAX_MIN),
        ("max_min", ObjectiveKind.MAX_MIN),
    ]
    return [
        (workload, selector, kind.value, lam, landmarks)
        for workload in ("synthetic", "websearch")
        for selector, kind in pairs
        for lam in (0.3, 0.7, 1.0)
        for landmarks in (None, "farthest", "relevance")
    ]


def pinned_selection(pin, use_numpy):
    """The sketched selection of one pinned case, and its kernel."""
    kind = ObjectiveKind(pin["kind"])
    if pin["workload"] == "synthetic":
        instance = random_instance(n=48, k=6, kind=kind, lam=pin["lam"], seed=11)
    else:
        db = websearch.generate(num_docs=60, num_intents=8, seed=17)
        objective = Objective.from_provider(
            kind, websearch.scoring_provider(db), lam=pin["lam"]
        )
        instance = DiversificationInstance(
            websearch.documents_query(), db, k=6, objective=objective
        )
    knobs = {} if pin["landmarks"] is None else {"landmarks": pin["landmarks"]}
    kernel = sketched_kernel(instance, use_numpy, **knobs)
    selector = PINNED_SELECTORS[pin["selector"]]
    return selector(kernel, instance.objective, instance.k), kernel


def sketched_pin_id(pin):
    return (
        f"{pin['workload']}-{pin['selector']}-{pin['kind']}-lam{pin['lam']}"
        f"-{pin['landmarks'] or 'default'}"
    )


class TestPinnedPicks:
    """The approximate picks themselves, not only their properties:
    indices, exact value bits and certificate of every pinned case."""

    def test_pins_cover_every_case(self):
        pinned = [
            (p["workload"], p["selector"], p["kind"], p["lam"], p["landmarks"])
            for p in SKETCHED_PINS
        ]
        assert pinned == pinned_cases()

    @pytest.mark.parametrize("use_numpy", BACKENDS)
    @pytest.mark.parametrize("pin", SKETCHED_PINS, ids=sketched_pin_id)
    def test_picks_match_pins(self, pin, use_numpy):
        selection, kernel = pinned_selection(pin, use_numpy)
        cert = selection.certificate
        assert list(selection.indices) == pin["indices"]
        assert selection.rows == tuple(kernel.answers[i] for i in pin["indices"])
        assert selection.value.hex() == pin["value"]
        assert cert.value.hex() == pin["value"]
        assert cert.lower.hex() == pin["lower"]
        assert cert.upper.hex() == pin["upper"]
        assert (cert.columns, cert.strategy) == (pin["columns"], pin["strategy"])
        assert not kernel.distances_materialized


class TestLandmarks:
    @pytest.mark.parametrize("strategy", LANDMARK_STRATEGIES)
    def test_strategies_deterministic_sorted_distinct(self, strategy):
        instance = random_instance(n=20, k=4, seed=5)
        provider = instance.objective.provider
        rows = instance.answers()
        rel = [provider.relevance_at(r, instance.query) for r in rows]
        first = provider.select_landmarks(rows, rel, 6, strategy=strategy)
        second = provider.select_landmarks(rows, rel, 6, strategy=strategy)
        assert first == second
        assert len(set(first)) == len(first)
        assert len(first) == 6
        assert all(0 <= p < len(rows) for p in first)

    def test_m_at_least_n_returns_all(self):
        instance = random_instance(n=6, k=2, seed=0)
        provider = instance.objective.provider
        rows = instance.answers()
        rel = [1.0] * len(rows)
        assert provider.select_landmarks(rows, rel, 99) == list(range(6))

    def test_too_few_landmarks_rejected(self):
        instance = random_instance(n=6, k=2, seed=0)
        provider = instance.objective.provider
        rows = instance.answers()
        with pytest.raises(ProviderError):
            provider.select_landmarks(rows, [1.0] * len(rows), 1)

    def test_unknown_strategy_rejected(self):
        instance = random_instance(n=6, k=2, seed=0)
        provider = instance.objective.provider
        rows = instance.answers()
        with pytest.raises(ProviderError):
            provider.select_landmarks(rows, [1.0] * 6, 3, strategy="grid")


class TestSketchMaintenance:
    @pytest.mark.parametrize("use_numpy", BACKENDS)
    def test_sketch_survives_delta(self, use_numpy):
        """apply_delta remaps surviving landmark columns in place; the
        patched sketch's bounds still bracket the true distances."""
        workload = StreamingWebSearch(num_docs=25, seed=11)
        instance = workload.make_instance(k=4, lam=0.5)
        kernel = sketched_kernel(instance, use_numpy, sketch_columns=6)
        kernel.sketch()
        for _ in range(4):
            workload.step()
        instance.invalidate_cache()
        from repro.engine import delta_for_instance

        delta = delta_for_instance(kernel, instance)
        kernel.apply_delta(delta.inserted, delta.deleted)
        sketch = kernel.sketch()
        answers = kernel.answers
        provider = instance.objective.provider
        for i in range(0, kernel.n, 3):
            for j in range(0, kernel.n, 3):
                true = float(provider.distance_at(answers[i], answers[j]))
                assert sketch.lower_bound(i, j) <= true + 1e-9
                assert true <= sketch.upper_bound(i, j) + 1e-9
        assert not kernel.distances_materialized


class TestStreamingSelector:
    def _drive(self, num_docs=30, events=40, k=5, lam=0.5, seed=23):
        stream = StreamingWebSearch(num_docs=num_docs, seed=seed)
        result = select_streaming_greedy(stream, k=k, lam=lam, events=events)
        return result

    def test_streaming_selects_k_with_exact_certificate(self):
        result = self._drive()
        assert len(result.rows) == 5
        cert = result.certificate
        assert cert.strategy == "streaming"
        assert cert.lower == result.value == cert.upper

    def test_streaming_state_is_bounded(self):
        stream = StreamingWebSearch(num_docs=60, seed=5)
        instance = stream.make_instance(k=4, lam=0.5)
        selector = StreamingGreedySelector(
            stream.provider, stream.query, instance.objective, 4
        )
        answers = instance.answers()
        for row in answers:
            selector.offer(row)
        assert selector.peak_state <= 4 + selector.reservoir_size
        assert selector.offered == len(answers)
        # ...and stays bounded over a live trace of arrivals and retirements.
        for _ in range(40):
            event = stream.step()
            for row in event.rows:
                if row.schema.attributes != answers[0].schema.attributes:
                    continue
                if event.op == "insert":
                    selector.offer(row)
                else:
                    selector.retire(row)
        assert selector.offered > len(answers)
        assert selector.peak_state <= 4 + selector.reservoir_size

    def test_streaming_value_is_exact(self):
        """The selector's value equals a from-scratch evaluation of its
        selected rows through the provider."""
        stream = StreamingWebSearch(num_docs=20, seed=9)
        instance = stream.make_instance(k=4, lam=0.6)
        selector = StreamingGreedySelector(
            stream.provider, stream.query, instance.objective, 4
        )
        for row in instance.answers():
            selector.offer(row)
        result = selector.result()
        assert result.value == pytest.approx(
            instance.objective.value(result.rows, instance.query), rel=1e-9
        )

    def test_retire_selected_row_refills(self):
        stream = StreamingWebSearch(num_docs=30, seed=2)
        instance = stream.make_instance(k=3, lam=0.5)
        selector = StreamingGreedySelector(
            stream.provider, stream.query, instance.objective, 3
        )
        for row in instance.answers():
            selector.offer(row)
        member = selector.result().rows[0]
        assert selector.retire(member)
        assert member not in selector.result().rows
        # The reservoir refilled the vacancy.
        assert len(selector.result().rows) == 3

    def test_modular_objective_rejected(self):
        stream = StreamingWebSearch(num_docs=10, seed=1)
        instance = stream.make_instance(k=3)
        objective = instance.objective.with_lambda(0.0)
        mono = random_instance(n=5, k=2, kind=ObjectiveKind.MONO, seed=0)
        with pytest.raises(ObjectiveError):
            StreamingGreedySelector(
                stream.provider, stream.query, mono.objective, 3
            )
        # λ = 0 F_MS is fine — still a submodular-style swap objective.
        StreamingGreedySelector(stream.provider, stream.query, objective, 3)
