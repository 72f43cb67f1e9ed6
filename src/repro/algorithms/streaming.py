"""One-pass bounded-memory streaming diversification.

The kernel-based selectors — even the sketched ones — hold state linear
in the answer-set size n.  A long-lived feed (the
:class:`~repro.workloads.streaming.StreamingWebSearch` trace) has no
fixed n at all: documents arrive and expire forever.
:class:`StreamingGreedySelector` is the swap-greedy streaming algorithm
of the web-search diversification literature: it sees each row **once**,
keeps at most k selected rows plus a small reservoir of recent
candidates, and never builds any kernel or matrix.

State per selector, independent of stream length:

* the ≤ k selected rows, their relevance scores, and their exact k×k
  pairwise distances (scored through the provider as rows arrive);
* a bounded FIFO reservoir of recently offered rows (default ``4·k``)
  used to refill the selection when a selected row expires.

``offer`` costs one ``relevance_at`` + ≤ k ``distance_at`` provider
calls and an O(k³) swap scan (k is small); ``retire`` is O(k) plus
refills from the reservoir.  The reported value is always **exact** on
the selected set — the certificate records it with a degenerate
(lower = value = upper) bracket, since the streaming selector holds the
true pairwise distances of everything it selects.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from ..core.evaluator import max_min_value, max_sum_value
from ..core.objectives import Objective, ObjectiveError, ObjectiveKind
from ..relational.schema import Row
from .substrate import ApproxCertificate, SelectionResult

if TYPE_CHECKING:
    from ..workloads.streaming import StreamingWebSearch

__all__ = ["StreamingGreedySelector", "select_streaming_greedy"]

_EPS = 1e-12


class StreamingGreedySelector:
    """Swap-greedy selection over a one-pass row stream.

    ``objective`` must be F_MS or F_MM (the modular objectives are
    already streamable via top-k); ``reservoir_size`` bounds the standby
    pool (``None`` → ``max(4·k, 16)``).
    """

    def __init__(
        self,
        provider,
        query,
        objective: Objective,
        k: int,
        reservoir_size: int | None = None,
    ):
        if objective.kind not in (ObjectiveKind.MAX_SUM, ObjectiveKind.MAX_MIN):
            raise ObjectiveError(
                "streaming greedy handles F_MS/F_MM; modular objectives "
                "stream through top-k directly"
            )
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.provider = provider
        self.query = query
        self.objective = objective
        self.k = k
        self.reservoir_size = (
            max(4 * k, 16) if reservoir_size is None else reservoir_size
        )
        self._rows: list[Row] = []
        self._rel: list[float] = []
        self._dist: list[list[float]] = []  # symmetric |S|×|S|, zero diagonal
        self._reservoir: deque[Row] = deque(maxlen=self.reservoir_size)
        self.offered = 0
        self.swaps = 0
        self.peak_state = 0

    # -- bounded-memory observability --------------------------------------

    @property
    def state_size(self) -> int:
        """Rows held right now (selection + reservoir) — the quantity the
        bounded-memory CI assertion tracks."""
        return len(self._rows) + len(self._reservoir)

    def _note_state(self) -> None:
        if self.state_size > self.peak_state:
            self.peak_state = self.state_size

    # -- value arithmetic ---------------------------------------------------

    def _value_of(self, rel: list[float], dist: list[list[float]]) -> float:
        indices = list(range(len(rel)))
        if self.objective.kind is ObjectiveKind.MAX_SUM:
            return max_sum_value(
                indices,
                self.objective.lam,
                rel.__getitem__,
                lambda i, j: dist[i][j],
            )
        return max_min_value(
            indices,
            self.objective.lam,
            rel.__getitem__,
            lambda i, j: dist[i][j],
        )

    def value(self) -> float:
        """Exact F of the current selection."""
        return self._value_of(self._rel, self._dist)

    # -- the stream interface ----------------------------------------------

    def offer(self, row: Row) -> bool:
        """Consider one arriving row; True when it enters the selection.

        Rows value-equal to a current member are skipped (candidate sets
        are value-distinct).  A rejected candidate parks in the
        reservoir for later refills.
        """
        self.offered += 1
        if any(row == member for member in self._rows):
            self._note_state()
            return False
        rel = float(self.provider.relevance_at(row, self.query))
        dists = [
            float(self.provider.distance_at(row, member))
            for member in self._rows
        ]
        if len(self._rows) < self.k:
            self._admit(row, rel, dists)
            self._note_state()
            return True
        current = self.value()
        best_position = -1
        best_value = current
        for position in range(self.k):
            trial_rel = list(self._rel)
            trial_rel[position] = rel
            trial_dist = [list(r) for r in self._dist]
            for j in range(self.k):
                d = 0.0 if j == position else dists[j]
                trial_dist[position][j] = d
                trial_dist[j][position] = d
            value = self._value_of(trial_rel, trial_dist)
            if value > best_value + _EPS:
                best_value = value
                best_position = position
        if best_position < 0:
            self._reservoir.append(row)
            self._note_state()
            return False
        displaced = self._rows[best_position]
        self._rows[best_position] = row
        self._rel[best_position] = rel
        for j in range(self.k):
            d = 0.0 if j == best_position else dists[j]
            self._dist[best_position][j] = d
            self._dist[j][best_position] = d
        self._reservoir.append(displaced)
        self.swaps += 1
        self._note_state()
        return True

    def _admit(self, row: Row, rel: float, dists: list[float]) -> None:
        for existing_row, d in zip(self._dist, dists):
            existing_row.append(d)
        self._dist.append(dists + [0.0])
        self._rows.append(row)
        self._rel.append(rel)

    def retire(self, row: Row) -> bool:
        """Expire a row; True when it was selected (triggering a refill
        from the reservoir).  Unknown rows are a no-op."""
        try:
            while True:  # reservoir may hold value-equal copies
                self._reservoir.remove(row)
        except ValueError:
            pass
        for position, member in enumerate(self._rows):
            if member == row:
                del self._rows[position]
                del self._rel[position]
                del self._dist[position]
                for remaining in self._dist:
                    del remaining[position]
                self._refill()
                return True
        return False

    def _refill(self) -> None:
        """Re-offer parked candidates until the selection is full again."""
        if len(self._rows) >= self.k:
            return
        parked = list(self._reservoir)
        self._reservoir.clear()
        for row in parked:
            self.offer(row)

    # -- the result ----------------------------------------------------------

    def result(self) -> SelectionResult:
        """The current selection with its (exact, degenerate-bracket)
        certificate.  ``indices`` are positions within the selection —
        there is no global snapshot to index into."""
        value = self.value()
        return SelectionResult(
            value=value,
            rows=tuple(self._rows),
            indices=tuple(range(len(self._rows))),
            certificate=ApproxCertificate(
                lower=value,
                value=value,
                upper=value,
                columns=0,
                strategy="streaming",
            ),
        )


def select_streaming_greedy(
    stream: "StreamingWebSearch",
    k: int,
    lam: float = 0.5,
    events: int = 0,
    reservoir_size: int | None = None,
) -> SelectionResult:
    """Drive a :class:`StreamingGreedySelector` over a
    :class:`~repro.workloads.streaming.StreamingWebSearch` session.

    Seeds the selector with the currently-live answer rows (one pass,
    no kernel), then consumes ``events`` further stream updates —
    offering arriving answer rows, retiring expiring ones.  Total state
    stays O(k) regardless of how large the live pool grows.
    """
    instance = stream.make_instance(k=k, lam=lam)
    selector = StreamingGreedySelector(
        stream.provider,
        stream.query,
        instance.objective,
        k,
        reservoir_size=reservoir_size,
    )
    answer_attributes = None
    for row in instance.answers():
        answer_attributes = row.schema.attributes
        selector.offer(row)
    for _ in range(events):
        event = stream.step()
        for row in event.rows:
            if (
                answer_attributes is not None
                and row.schema.attributes != answer_attributes
            ):
                continue  # side-relation rows never enter the answer set
            if event.op == "insert":
                selector.offer(row)
            else:
                selector.retire(row)
    return selector.result()
