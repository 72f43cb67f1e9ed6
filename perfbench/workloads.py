"""The benchmark's four closed-loop serving workloads.

Each workload owns one :class:`~repro.service.core.DiversificationService`
built from :class:`~repro.service.core.ServiceConfig` plus an
:meth:`~repro.api.EngineConfig.from_env` mapping of ``REPRO_*`` strings
(unknown variables are ignored there, so a later change that removes an
engine knob runs this benchmark unchanged).  A single client sends the
next request only after the previous one completed.  Every request is
drawn from a generator seeded by the run's ``--seed``; the program sees
only the generated requests.

After the timed window each workload checks every recorded response
against an exact reference computed outside the window (``check``).
"""

from __future__ import annotations

import asyncio
import bisect
import json
import os
import random
import struct

from repro.api import DiversifyRequest, EngineConfig
from repro.engine.engine import (
    ALGORITHMS,
    DiversificationEngine,
    auto_algorithm,
)
from repro.service.core import DiversificationService, ServiceConfig
from repro.service.http import ServiceServer
from repro.service.registry import default_registry
from repro.workloads import corpus as corpus_workload
from repro.workloads.streaming import StreamingWebSearch

#: Results never expire inside a run and the cache never evicts, so TTL
#: hits depend only on the request trace.
RESULT_TTL = 3600.0
RESULT_CACHE_SIZE = 1 << 16


def same_bits(a: float | None, b: float | None) -> bool:
    """True when two objective values are the identical IEEE double."""
    if a is None or b is None:
        return a is None and b is None
    return struct.pack("<d", float(a)) == struct.pack("<d", float(b))


class Workload:
    """One traffic mix: set-up, a seeded request trace, one-op execution
    and the exactness check.  Subclasses fill in the hooks."""

    name = ""
    #: Set-ups per end-to-end run; ``setup_s`` is their median.
    setup_repeats = 5
    #: Ops whose counted per-layer metrics the traced run reports (every
    #: traced run completes this prefix, so the counts repeat exactly).
    count_ops = 100

    def __init__(self, seed: int, workdir: str, tracer=None):
        self.workdir = workdir
        self.tracer = tracer
        self.rng = random.Random(f"{self.name}:{seed}")
        self.service: DiversificationService | None = None

    def engine_env(self) -> dict[str, str]:
        """The ``REPRO_*`` settings of this workload's engines."""
        return {}

    def make_service(self) -> DiversificationService:
        return DiversificationService(
            ServiceConfig(
                engine=EngineConfig.from_env(self.engine_env()),
                result_ttl=RESULT_TTL,
                result_cache_size=RESULT_CACHE_SIZE,
            )
        )

    async def setup(self) -> None:
        raise NotImplementedError

    def next_op(self):
        raise NotImplementedError

    async def execute(self, op):
        raise NotImplementedError

    async def close(self) -> None:
        self.service = None

    def check(self, records: list) -> list[bool]:
        raise NotImplementedError

    def deltas(self) -> int:
        """Delta ops in the trace so far (live_delta only)."""
        return 0


# -- hot_http ----------------------------------------------------------------


def _zipf_cumulative(size: int, exponent: float) -> list[float]:
    weights = [1.0 / (rank + 1) ** exponent for rank in range(size)]
    total = sum(weights)
    cumulative, running = [], 0.0
    for weight in weights:
        running += weight
        cumulative.append(running / total)
    cumulative[-1] = 1.0  # no draw may fall past the last rank
    return cumulative


class HotHttp(Workload):
    """Hot traffic over the stdlib HTTP server: Zipf-popular repeats of a
    warmed request set (TTL hits) plus unique long-tail k/λ variants
    (selection on warm kernels), one connection at a time."""

    name = "hot_http"
    setup_repeats = 7
    count_ops = 3000
    popular = 48
    #: Exactly ``tail_per_block`` of every ``block`` ops are unique
    #: variants: an 8% miss share, away from the 1/5/10% boundaries.
    block = 25
    tail_per_block = 2
    algorithms = (None, "mmr", "greedy_marginal_max_sum")

    def __init__(self, seed, workdir, tracer=None):
        super().__init__(seed, workdir, tracer)
        rng = self.rng
        self.corpora = [
            ("synthetic", {"n": 300, "seed": rng.randrange(10**6)}),
            ("synthetic", {"n": 240, "seed": rng.randrange(10**6)}),
            ("websearch", {"num_docs": 320, "num_intents": 6,
                           "seed": rng.randrange(10**6)}),
        ]
        self.requests: list[DiversifyRequest] = []
        self.bodies: list[bytes] = []
        self._keys: set[tuple] = set()
        # Popularity rank j fixes the request's corpus, algorithm and k,
        # so hit cost (response size) is alike across seeds; the seed
        # draws λ, the corpora and the request sequence.
        for rank in range(self.popular):
            while self._add_request(
                rank % len(self.corpora),
                6 + (rank * 7) % 10,
                rng.choice((0.2, 0.35, 0.5, 0.65, 0.8)),
                self.algorithms[(rank // len(self.corpora)) % len(self.algorithms)],
            ) is None:
                pass
        self._cumulative = _zipf_cumulative(self.popular, 1.1)
        self._tail_slots: set[int] = set()
        self._position = 0
        self._unique = 0
        self._records: dict[tuple, tuple] = {}
        self.server: ServiceServer | None = None

    def _add_request(self, corpus: int, k: int, lam: float, algorithm) -> int | None:
        if (corpus, k, lam, algorithm) in self._keys:
            return None
        self._keys.add((corpus, k, lam, algorithm))
        workload, params = self.corpora[corpus]
        request = DiversifyRequest(
            workload=workload, params=params, k=k, lam=lam, algorithm=algorithm
        )
        self.requests.append(request)
        body = json.dumps(request.to_dict()).encode("utf-8")
        self.bodies.append(
            (
                "POST /diversify HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
            ).encode("ascii")
            + body
        )
        return len(self.requests) - 1

    async def setup(self) -> None:
        self.service = self.make_service()
        self.server = ServiceServer(self.service, host="127.0.0.1", port=0)
        await self.server.start()
        # Warm-up: every popular request once, so kernels are built and
        # the window serves popular traffic from the TTL cache.
        for index in range(self.popular):
            status, _ = await self._exchange(index)
            if status != 200:
                raise RuntimeError(f"warm-up request {index} failed: {status}")

    async def close(self) -> None:
        if self.server is not None:
            await self.server.stop()
            self.server = None
        self.service = None

    def next_op(self) -> int:
        rng = self.rng
        slot = self._position % self.block
        if slot == 0:
            self._tail_slots = set(rng.sample(range(self.block), self.tail_per_block))
        self._position += 1
        if slot in self._tail_slots:
            # Unique variants cycle through every (corpus, algorithm, k)
            # class, so each class's share of the misses is fixed; the
            # seed draws a fresh λ for each.
            while True:
                self._unique += 1
                combo, cycle = divmod(self._unique, 9)
                index = self._add_request(
                    cycle % len(self.corpora),
                    8 + 4 * (combo % 3),
                    round(rng.uniform(0.05, 0.95), 6),
                    self.algorithms[cycle // len(self.corpora)],
                )
                if index is not None:
                    return index
        return bisect.bisect_left(self._cumulative, rng.random())

    async def _exchange(self, index: int) -> tuple[int, bytes]:
        reader, writer = await asyncio.open_connection("127.0.0.1", self.server.port)
        try:
            writer.write(self.bodies[index])
            data = await reader.read()
        finally:
            writer.close()
            await writer.wait_closed()
        return int(data[9:12]), data

    async def execute(self, index: int):
        tracer = self.tracer
        if tracer is not None:
            span, token = tracer.open("http", "http.exchange")
            tracer.active = (span.op, span.sid)
            try:
                status, data = await self._exchange(index)
                span.count = len(data)
            finally:
                tracer.active = None
                tracer.close(span, token)
        else:
            status, data = await self._exchange(index)
        if status != 200:
            return (index, status, None)
        payload = json.loads(data[data.index(b"\r\n\r\n") + 4:])
        indices = payload["indices"]
        record = (index, status, (payload["feasible"], payload["value"],
                                  None if indices is None else tuple(indices),
                                  payload["cache"]))
        # Repeats share one record, so memory does not grow with the
        # number of ops served (peak_rss_mb measures the program).
        return self._records.setdefault(record, record)

    def check(self, records: list) -> list[bool]:
        """Every response equals an uncached dense-storage engine's solve:
        same feasibility, same indices, same value bits."""
        engine = DiversificationEngine(config=EngineConfig())
        registry = default_registry()
        expected: dict[int, tuple] = {}
        verdicts = []
        for index, status, answer in records:
            if status != 200 or answer is None:
                verdicts.append(False)
                continue
            if index not in expected:
                request = self.requests[index]
                base = registry.handle(request.workload, request.params).base_instance()
                base.answers()  # variants copy the evaluated answer set
                result = engine.run(request.resolve(base), request.algorithm)
                expected[index] = (
                    (False, None, None)
                    if result is None
                    else (True, result.value, result.indices)
                )
            feasible, value, indices = expected[index]
            verdicts.append(
                feasible is True
                and answer[0] is True
                and answer[2] == indices
                and same_bits(answer[1], value)
            )
        return verdicts


# -- cold_cut ----------------------------------------------------------------


class ColdCut(Workload):
    """Distinct 3-term queries over a 10⁵-document corpus: hybrid
    retrieval to a 1000-row pool, a fresh pool kernel and pair-greedy
    selection on every request; no cache ever hits."""

    name = "cold_cut"
    setup_repeats = 3
    count_ops = 20
    num_docs = 100_000
    num_topics = 8
    pool_size = 1000

    def __init__(self, seed, workdir, tracer=None):
        super().__init__(seed, workdir, tracer)
        self.params = {
            "num_docs": self.num_docs,
            "num_topics": self.num_topics,
            "seed": self.rng.randrange(10**6),
        }
        self._seen: set[str] = set()

    def _query(self) -> str:
        rng = self.rng
        while True:
            topic = rng.randrange(self.num_topics)
            words = rng.sample(range(32), 2)
            terms = [f"t{topic}w{w}" for w in words]
            terms.append(f"common{rng.randrange(16)}")
            text = " ".join(terms)
            if text not in self._seen:
                self._seen.add(text)
                return text

    def _request(self, text: str) -> DiversifyRequest:
        return DiversifyRequest(
            workload="corpus", params=self.params, k=10, lam=0.5,
            query_text=text, pool_size=self.pool_size,
        )

    async def setup(self) -> None:
        self.service = self.make_service()
        # Warm-up through the request path: the first request
        # materializes Q(D) and builds the retrieval index; the second
        # runs the steady-state path once.
        for _ in range(2):
            response = await self.service.diversify(self._request(self._query()))
            if not response.feasible:
                raise RuntimeError("cold_cut warm-up request was infeasible")

    def next_op(self) -> str:
        return self._query()

    async def execute(self, text: str):
        response = await self.service.diversify(self._request(text))
        return (text, response.feasible, response.value, response.indices,
                response.rows, response.cache)

    def check(self, records: list) -> list[bool]:
        """Each selection equals a direct solve (fresh kernel, no engine)
        on the retrieved pool, built independently from a regenerated
        corpus."""
        service = self.service
        instance = service.registry.handle("corpus", self.params).base_instance()
        engine = service.engine_for("default")
        documents = corpus_workload.generate(
            num_docs=self.num_docs, num_topics=self.num_topics,
            seed=self.params["seed"],
        )
        answers = instance.answers()
        verdicts = []
        for text, feasible, value, indices, rows, cache in records:
            cut = engine.retrieve(instance, text, pool_size=self.pool_size)
            docs = [answers[i]["doc"] for i in cut.indices]
            twin = documents.instance(docs, k=10, lam=0.5)
            solved = ALGORITHMS[auto_algorithm(twin)](twin, None)
            if solved is None:
                verdicts.append(False)
                continue
            expected_value, expected_rows = solved
            position: dict = {}
            for i, row in enumerate(twin.answers()):
                position.setdefault(row, i)
            verdicts.append(
                feasible is True
                and cache == "computed"
                and tuple(rows) == tuple(expected_rows)
                and tuple(indices) == tuple(position[r] for r in expected_rows)
                and same_bits(value, expected_value)
            )
        return verdicts


# -- live_delta --------------------------------------------------------------


class LiveDelta(Workload):
    """Reads beside writes on streaming corpora: every two reads (k/λ/
    algorithm variants) are followed by one ``delta`` of 1–2 update
    events carrying ``k``, so the cached kernel is patched and the
    selection repaired."""

    name = "live_delta"
    setup_repeats = 7
    count_ops = 600
    #: Updates random-walk each corpus's size; rotating the read, read,
    #: delta triples over four corpora keeps a run's mean corpus size
    #: within a few percent of ``num_docs``, so runs cost alike.
    corpora = 4
    num_docs = 300
    #: The read variants ``(k, λ, algorithm)``; the seed draws the
    #: corpora, the update streams and the order of reads and deltas.
    #: Row-reading selectors keep reads one cost mode, so the median op
    #: sits inside the read mode rather than on its edge.
    variants = (
        (8, 0.5, "mmr"), (10, 0.3, "mmr"), (12, 0.7, "greedy_marginal_max_sum"),
        (6, 0.5, "mmr"), (10, 0.7, "greedy_marginal_max_sum"),
        (8, 0.3, "greedy_marginal_max_sum"),
    )

    def __init__(self, seed, workdir, tracer=None):
        super().__init__(seed, workdir, tracer)
        self.params = [
            {
                "num_docs": self.num_docs,
                "num_intents": 6,
                "seed": self.rng.randrange(10**6),
                "insert_fraction": 0.5,
            }
            for _ in range(self.corpora)
        ]
        self._position = 0
        self._recent: list[int] = []
        self._deltas = 0

    def _read_request(self, corpus: int, variant: int) -> DiversifyRequest:
        k, lam, algorithm = self.variants[variant]
        return DiversifyRequest(
            workload="streaming", params=self.params[corpus], k=k, lam=lam,
            algorithm=algorithm,
        )

    async def setup(self) -> None:
        self.service = self.make_service()
        # Warm-up: one read per corpus and variant builds the kernels and
        # records a previous selection for every key a delta can repair.
        for corpus in range(self.corpora):
            for variant in range(len(self.variants)):
                response = await self.service.diversify(
                    self._read_request(corpus, variant)
                )
                if not response.feasible:
                    raise RuntimeError("live_delta warm-up read was infeasible")

    def next_op(self) -> tuple:
        rng = self.rng
        triple, slot = divmod(self._position, 3)
        corpus = triple % self.corpora
        self._position += 1
        if slot < 2:
            variant = rng.randrange(len(self.variants))
            self._recent = [variant] if slot == 0 else self._recent + [variant]
            return ("read", corpus, variant, 0)
        self._deltas += 1
        return ("delta", corpus, rng.choice(self._recent), rng.choice((1, 2)))

    def deltas(self) -> int:
        return self._deltas

    async def execute(self, op: tuple):
        kind, corpus, variant, events = op
        if kind == "read":
            response = await self.service.diversify(self._read_request(corpus, variant))
            return (kind, corpus, variant, response.feasible, response.value,
                    response.indices)
        k, lam, algorithm = self.variants[variant]
        payload = await self.service.delta(
            "streaming", self.params[corpus], events=events, k=k, lam=lam,
            algorithm=algorithm,
        )
        selection = payload.get("selection")
        if selection is not None and selection["feasible"]:
            selection = (selection["value"], tuple(selection["indices"]),
                         tuple(tuple(row["values"]) for row in selection["rows"]))
        else:
            selection = None
        return (kind, corpus, variant,
                tuple((e["op"], e["doc"]) for e in payload["events"]), selection)

    def check(self, records: list) -> list[bool]:
        """Replay the trace on twin sessions (same parameters, so the
        same update streams): each read equals the solve of an engine
        created fresh for its corpus's current snapshot; each repaired
        selection holds only live rows and its value equals one
        recomputed on that engine's fresh kernel."""
        twins = [StreamingWebSearch(**params) for params in self.params]
        engines = [DiversificationEngine() for _ in self.params]
        # One evaluated snapshot per corpus, re-made after each of its
        # deltas; k/λ variants copy its answer set.
        snapshots = [twin.make_instance() for twin in twins]
        verdicts = []
        for record in records:
            kind, corpus, variant = record[:3]
            twin = twins[corpus]
            k, lam, algorithm = self.variants[variant]
            if kind == "delta":
                events, selection = record[3:]
                replayed = tuple((e.op, e.doc) for e in (twin.step() for _ in events))
                engines[corpus] = DiversificationEngine()
                snapshots[corpus] = twin.make_instance()
            base = snapshots[corpus]
            base.answers()
            instance = base.with_k(k).with_objective(base.objective.with_lambda(lam))
            if kind == "read":
                result = engines[corpus].run(instance, algorithm)
                feasible, value, indices = record[3:]
                verdicts.append(
                    result is not None
                    and feasible is True
                    and tuple(indices) == result.indices
                    and same_bits(value, result.value)
                )
                continue
            if replayed != events or selection is None:
                verdicts.append(False)
                continue
            value, indices, rows = selection
            positions = {}
            for i, row in enumerate(instance.answers()):
                positions.setdefault(tuple(row.values), i)
            if not all(row in positions for row in rows):
                verdicts.append(False)
                continue
            expected = tuple(positions[row] for row in rows)
            kernel = engines[corpus].kernel_for(instance)
            verdicts.append(
                indices == expected
                and same_bits(value, kernel.value(expected, instance.objective))
            )
        return verdicts


# -- tiled_sweep -------------------------------------------------------------


class TiledSweep(Workload):
    """Analysts' 3×3 k×λ sweeps over three n≈2500 corpora on tiled
    storage with a tile budget under half the tiles and a per-run spill
    directory (the default spill path).  Kernels are built in set-up,
    so selection and tile reads dominate."""

    name = "tiled_sweep"
    setup_repeats = 5
    count_ops = 12
    sizes = (2500, 2450, 2550)
    #: 2500 rows at the default 256-row tiles is a 10×10 grid with 55
    #: scored (upper) tiles; 24 stay resident.
    max_resident_tiles = 24
    algorithms = ("mmr", "greedy_marginal_max_sum")

    def __init__(self, seed, workdir, tracer=None):
        super().__init__(seed, workdir, tracer)
        rng = self.rng
        self.corpora = [
            {"n": n, "seed": rng.randrange(10**6)} for n in self.sizes
        ]
        self.spill_dir = os.path.join(workdir, "spill")
        self._seen: set[tuple] = set()

    def engine_env(self) -> dict[str, str]:
        return {
            "REPRO_STORAGE": "tiled",
            "REPRO_MAX_RESIDENT_TILES": str(self.max_resident_tiles),
            "REPRO_SPILL_DIR": self.spill_dir,
        }

    async def setup(self) -> None:
        self.service = self.make_service()
        engine = self.service.engine_for("default")
        for params in self.corpora:
            instance = self.service.registry.handle("synthetic", params).base_instance()
            # Built on the service's worker thread, where the window's
            # tile reads allocate too.
            await asyncio.to_thread(lambda: engine.kernel_for(instance).materialize_all())
            request = DiversifyRequest(
                workload="synthetic", params=params, k=4, lam=0.5, algorithm="mmr"
            )
            await self.service.sweep(request, ks=[4], lams=[0.5])

    def next_op(self) -> tuple:
        rng = self.rng
        while True:
            corpus = rng.randrange(len(self.corpora))
            # Every grid selects 54 rows in all, so sweeps cost alike.
            low = rng.randrange(6, 13)
            ks = (low, 18, 36 - low)
            lams = tuple(sorted(rng.sample((0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7,
                                            0.8, 0.9), 3)))
            algorithm = rng.choice(self.algorithms)
            op = (corpus, ks, lams, algorithm)
            if op not in self._seen:
                self._seen.add(op)
                return op

    async def execute(self, op: tuple):
        corpus, ks, lams, algorithm = op
        request = DiversifyRequest(
            workload="synthetic", params=self.corpora[corpus], k=ks[0],
            lam=lams[0], algorithm=algorithm,
        )
        payload = await self.service.sweep(request, ks=list(ks), lams=list(lams))
        return (op, [(c["k"], c["lam"], c["feasible"], c["value"], c["indices"])
                     for c in payload["cells"]])

    def check(self, records: list) -> list[bool]:
        """Every cell equals an uncached dense-storage engine's solve:
        same indices and the same value bits."""
        engine = DiversificationEngine(config=EngineConfig())
        registry = default_registry()
        verdicts = []
        for (corpus, ks, lams, algorithm), cells in records:
            params = self.corpora[corpus]
            base = registry.handle("synthetic", params).base_instance()
            base.answers()  # variants copy the evaluated answer set
            ok = len(cells) == len(ks) * len(lams)
            for k, lam, feasible, value, indices in cells:
                request = DiversifyRequest(
                    workload="synthetic", params=params, k=k, lam=lam,
                    algorithm=algorithm,
                )
                result = engine.run(request.resolve(base), algorithm)
                ok = ok and (
                    result is not None
                    and feasible is True
                    and indices == list(result.indices)
                    and same_bits(value, result.value)
                )
            verdicts.append(ok)
        return verdicts


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (HotHttp, ColdCut, LiveDelta, TiledSweep)
}
