"""The three benchmark workloads: input generation and one measured pass.

A *pass* builds a fresh serving stack for the workload's fixed scenario
(that is the set-up), then replays the request list the seed drew against
it (the timed phase).  Every pass of one run replays exactly the same
inputs, so the exact counts of any two passes must agree; the harness in
``run.py`` checks that.

Each workload aims at a different layer (see ``BENCHMARK.json``):

* ``plan-cold``  -- optimizer: every (expression, k) is new to the server.
* ``tcp-hot``    -- engine, cache replay and the TCP JSON-lines protocol:
  plans are remembered, the bounded cache evicts under a Zipf mix.
* ``drift-replan`` -- mid-flight re-search under drifting true costs, with
  transient faults, retries and the wave engine.
"""

from __future__ import annotations

import asyncio
import io
import json
import random
import time
from dataclasses import dataclass
from typing import Optional

from repro.data.dataset import Dataset
from repro.data.generators import uniform
from repro.faults.injector import FaultProfile, faulty_sources_for
from repro.faults.retry import RetryPolicy
from repro.query.compiler import compile_expression
from repro.query.parser import parse_query
from repro.service.aio import AsyncQueryServer, serve_tcp
from repro.service.protocol import serve_stream
from repro.service.server import QueryServer, ServerConfig
from repro.sources.cache import SourceCache
from repro.sources.cost import CostModel
from repro.sources.latency import ConstantLatency

from calib import Calibrator

AGGREGATES = ("min", "max", "avg", "prod", "geo", "median")
#: Seed of every workload's source data (see Workload.__init__).
DATA_SEED = 2005


# ----------------------------------------------------------------------
# Parameters (documented in README.md; change both together)
# ----------------------------------------------------------------------

PLAN_COLD = {
    "n": 400,
    "m": 3,
    "texts": 42,
    "ks": [5, 3, 8],
    "cost_model": {"cs": [1.0, 1.0, 2.0], "cr": [4.0, 10.0, 6.0]},
    "sample_size": 50,
}

TCP_HOT = {
    "n": 500,
    "m": 2,
    "texts": 16,
    "ks": [5, 10, 3],
    "zipf_s": 1.1,
    "requests": 200,
    "cache_max_entries": 300,
    "cost_model": {"cs": [1.0, 1.0], "cr": [5.0, 5.0]},
    "connections": 2,
}

DRIFT_REPLAN = {
    "n": 300,
    "m": 3,
    "texts": 7,
    "rounds": 4,
    "ks": [10],
    "sample_size": 50,
    "assumed_model": {"cs": [1.0, 1.0, 1.0], "cr": [1.0, 1.0, 1.0]},
    "true_model": {"cs": [1.0, 1.0, 1.0], "cr": [40.0, 1.0, 1.0]},
    "transient_fault_rate": 0.05,
    "retry_max_attempts": 8,
    "cache_ttl": 1,
    "query_concurrency": 2,
}


def _model(spec: dict) -> CostModel:
    return CostModel(tuple(spec["cs"]), tuple(spec["cr"]))


def _schema(m: int) -> tuple[str, ...]:
    return tuple(f"p{i}" for i in range(m))


def distinct_texts(rng: random.Random, m: int, count: int, ks) -> list[str]:
    """``count`` query texts with pairwise distinct scoring expressions.

    Families cycle through :data:`AGGREGATES` plus plain weighted sums and
    ``k`` cycles through ``ks``.  ``rng`` picks mild per-predicate weights
    (0.85-1.0 inside an aggregate, normalized shares in a sum), which makes
    every expression new to the server's plan memory.
    """
    names = _schema(m)
    families = AGGREGATES + ("sum",)
    texts: list[str] = []
    seen: set[str] = set()
    while len(texts) < count:
        i = len(texts)
        family = families[i % len(families)]
        if family == "sum":
            raw = [rng.uniform(0.8, 1.2) for _ in names]
            total = sum(raw)
            weights = [round(w / total - 0.005, 2) for w in raw]
            expr = " + ".join(f"{w:g}*{p}" for w, p in zip(weights, names))
        else:
            args = ", ".join(
                f"{rng.randint(85, 100) / 100:g}*{p}" for p in names
            )
            expr = f"{family}({args})"
        if expr in seen:
            continue
        seen.add(expr)
        k = ks[(i // len(families)) % len(ks)]
        texts.append(f"SELECT * FROM r ORDER BY {expr} STOP AFTER {k}")
    return texts


def oracle(dataset: Dataset, text: str, schema) -> list[list]:
    """Brute-force top-k of one query text, as ``[[obj, score], ...]``."""
    parsed = parse_query(text)
    fn, _order = compile_expression(parsed.expr, schema=schema)
    return [[r.obj, r.score] for r in dataset.topk(fn, parsed.k)]


# ----------------------------------------------------------------------
# Pass records
# ----------------------------------------------------------------------


@dataclass
class Request:
    """One timed request as the client saw it."""

    text: str
    start: float
    end: float
    session: Optional[str] = None
    ok: bool = False
    problem: Optional[str] = None
    charged_cost: float = 0.0
    cache_hits: int = 0
    iterations: int = 0


@dataclass
class PassResult:
    """Everything one pass measured."""

    setup: tuple[float, float]
    requests: list[Request]
    before: dict
    after: dict


def check_answer(request: Request, response: dict, expected: list) -> None:
    """Fill ``request`` from a result response and check it against brute force."""
    request.session = response.get("session")
    if not response.get("ok"):
        request.problem = f"{response.get('type')}: {response.get('error')}"
        return
    if response.get("partial"):
        request.problem = "partial answer"
        return
    result = response["result"]
    ranking = [[entry["obj"], entry["score"]] for entry in result["ranking"]]
    if ranking != expected:
        request.problem = f"answer differs from brute force: {ranking} != {expected}"
        return
    request.ok = True
    request.charged_cost = float(response["charged_cost"])
    request.cache_hits = int(response["cache_hits"])
    meta = result.get("metadata", {})
    request.iterations = int(meta.get("waves", meta.get("iterations", 0)))


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


class Workload:
    """A fixed scenario, the seed's load on it, and a method running one pass."""

    name = ""
    params: dict = {}
    #: Requests per round; the reference computation runs between rounds.
    round_size = 1
    #: Nominal length of one pass, set-up included, in seconds; a run of
    #: ``--seconds`` makes ``--seconds / pass_seconds`` passes, rounded.
    pass_seconds: float

    def __init__(self, seed: int):
        p = self.params
        self.seed = seed
        self.schema = _schema(p["m"])
        # The scenario (source data and query catalogue) is fixed per
        # workload; the seed draws the load replayed against it.  Charged
        # cost is dominated by a few deep queries whose plans flip with
        # small input changes, so seeding the catalogue or the data moved
        # access_cost_per_query by +-30% between seeds.
        self.texts = distinct_texts(
            random.Random(f"perfbench-{self.name}"), p["m"], p["texts"], p["ks"]
        )
        self.rng = random.Random(f"perfbench-{self.name}-{seed}")
        self.requests = self.rng.sample(self.texts, len(self.texts))

    def dataset(self) -> Dataset:
        return uniform(self.params["n"], self.params["m"], seed=DATA_SEED)

    def expected(self) -> dict[str, list]:
        dataset = self.dataset()
        return {text: oracle(dataset, text, self.schema) for text in self.texts}

    def run_pass(self, calibrator: Calibrator, expected: dict[str, list]) -> PassResult:
        raise NotImplementedError


def _stream_call(server: QueryServer, request: dict) -> dict:
    """One JSON-lines request through the stdio protocol loop, in process."""
    out = io.StringIO()
    serve_stream(server, io.StringIO(json.dumps(request) + "\n"), out)
    return json.loads(out.getvalue())


class SyncWorkload(Workload):
    """A sync :class:`QueryServer` driven by one closed-loop in-process caller.

    Requests travel the JSON-lines protocol (``serve_stream``): a
    ``submit`` line, then a ``result`` line, as a stdio client sends them.
    """

    def build_server(self) -> QueryServer:
        raise NotImplementedError

    def warm_up(self, server: QueryServer) -> None:
        """Work paid before the first timed request (none by default)."""

    def run_pass(self, calibrator, expected) -> PassResult:
        calibrator.sample(2)
        setup_start = time.perf_counter()
        server = self.build_server()
        self.warm_up(server)
        setup_end = time.perf_counter()
        calibrator.sample(2)
        before = _stream_call(server, {"op": "stats"})["stats"]
        requests: list[Request] = []
        for text in self.requests:
            calibrator.sample()
            request = Request(text=text, start=time.perf_counter(), end=0.0)
            submitted = _stream_call(server, {"op": "submit", "query": text})
            if submitted.get("ok"):
                response = _stream_call(
                    server, {"op": "result", "session": submitted["session"]}
                )
            else:
                response = submitted
            request.end = time.perf_counter()
            check_answer(request, response, expected[text])
            requests.append(request)
        calibrator.sample(2)
        after = _stream_call(server, {"op": "stats"})["stats"]
        return PassResult(
            setup=(setup_start, setup_end),
            requests=requests,
            before=before,
            after=after,
        )


class PlanCold(SyncWorkload):
    """Distinct (expression, k) texts against a cold, unbounded cache."""

    name = "plan-cold"
    params = PLAN_COLD
    pass_seconds = 6.5

    def build_server(self) -> QueryServer:
        p = self.params
        return QueryServer(
            _model(p["cost_model"]),
            dataset=self.dataset(),
            schema=self.schema,
            config=ServerConfig(
                max_in_flight=4, sample_size=p["sample_size"], seed=self.seed
            ),
        )


class DriftReplan(SyncWorkload):
    """True costs drift from the assumed model; faults; wave engine."""

    name = "drift-replan"
    params = DRIFT_REPLAN
    pass_seconds = 10.0

    def __init__(self, seed: int):
        super().__init__(seed)
        # The catalogue replayed several times, each round in a seeded order.
        self.requests = [
            text
            for _ in range(self.params["rounds"])
            for text in self.rng.sample(self.texts, len(self.texts))
        ]

    def build_server(self) -> QueryServer:
        p = self.params
        assumed = _model(p["assumed_model"])
        sources = faulty_sources_for(
            self.dataset(),
            FaultProfile.transient(p["transient_fault_rate"]),
            seed=DATA_SEED,
            latency_model=ConstantLatency(_model(p["true_model"])),
        )
        return QueryServer(
            assumed,
            cache=SourceCache(sources, ttl=p["cache_ttl"]),
            schema=self.schema,
            config=ServerConfig(
                max_in_flight=4,
                seed=self.seed,
                sample_size=p["sample_size"],
                query_concurrency=p["query_concurrency"],
                retry_policy=RetryPolicy(
                    max_attempts=p["retry_max_attempts"], seed=DATA_SEED
                ),
                replan="drift",
            ),
        )

    def warm_up(self, server: QueryServer) -> None:
        # Plan memory learns every text; the timed phase then re-searches
        # only mid-flight, when observed costs drift from the assumed ones.
        for text in self.texts:
            session = server.query(text)
            if session.status != "done":
                raise RuntimeError(f"warm-up query failed: {session.error}")


class TcpHot(Workload):
    """An async server behind ``serve_tcp``; two closed-loop connections.

    Requests go in rounds, one per connection.  Connection A submits and
    waits for the acknowledgement before connection B submits, then both
    wait for their results at once.  The server executes one session at
    a time (``concurrent_queries=1``), so the submission order -- and with
    it the LRU eviction sequence and every charged access -- is fixed by
    the seed, not by socket timing.  The reference computation runs at
    each round barrier.
    """

    name = "tcp-hot"
    params = TCP_HOT
    round_size = TCP_HOT["connections"]
    pass_seconds = 6.5

    def __init__(self, seed: int):
        super().__init__(seed)
        p = self.params
        # Popularity follows catalogue order with Zipf shares, apportioned
        # exactly (largest remainder); the seed draws the arrival order.
        # Drawing the mix itself per seed moved access_cost_per_query by
        # +-10% between seeds.
        weights = [1.0 / (rank + 1) ** p["zipf_s"] for rank in range(len(self.texts))]
        quotas = [p["requests"] * w / sum(weights) for w in weights]
        counts = [int(q) for q in quotas]
        by_remainder = sorted(range(len(quotas)), key=lambda i: counts[i] - quotas[i])
        for i in by_remainder[:p["requests"] - sum(counts)]:
            counts[i] += 1
        stream = [text for text, c in zip(self.texts, counts) for _ in range(c)]
        self.requests = self.rng.sample(stream, len(stream))

    def build_server(self) -> AsyncQueryServer:
        p = self.params
        return AsyncQueryServer(
            _model(p["cost_model"]),
            dataset=self.dataset(),
            schema=self.schema,
            config=ServerConfig(
                max_in_flight=8,
                seed=self.seed,
                cache_max_entries=p["cache_max_entries"],
                concurrent_queries=1,
            ),
        )

    def run_pass(self, calibrator, expected) -> PassResult:
        return asyncio.run(self._run_pass(calibrator, expected))

    async def _setup(self):
        """Server, TCP listener, client connections, warm plan memory and cache."""
        server = self.build_server()
        service = await serve_tcp(server)
        conns = [
            await asyncio.open_connection(service.host, service.port, limit=1 << 24)
            for _ in range(self.params["connections"])
        ]
        for text in self.texts:
            response = await _call(conns[0], {"op": "query", "query": text})
            if not response.get("ok"):
                raise RuntimeError(f"warm-up query failed: {response}")
        return service, conns

    async def _teardown(self, service, conns) -> None:
        for _reader, writer in conns:
            writer.close()
            await writer.wait_closed()
        # Let the server's connection handlers see EOF and finish.
        others = [t for t in asyncio.all_tasks() if t is not asyncio.current_task()]
        await asyncio.gather(*others)
        await service.aclose()

    async def _run_pass(self, calibrator, expected) -> PassResult:
        calibrator.sample(2)
        setup_start = time.perf_counter()
        service, conns = await self._setup()
        try:
            setup_end = time.perf_counter()
            calibrator.sample(2)
            before = (await _call(conns[0], {"op": "stats"}))["stats"]
            requests: list[Request] = []
            for first in range(0, len(self.requests), len(conns)):
                calibrator.sample()
                batch = [
                    Request(text=text, start=0.0, end=0.0)
                    for text in self.requests[first:first + len(conns)]
                ]
                responses = await self._round(conns, batch)
                for request, response in zip(batch, responses):
                    check_answer(request, response, expected[request.text])
                requests.extend(batch)
            calibrator.sample(2)
            after = (await _call(conns[0], {"op": "stats"}))["stats"]
        finally:
            await self._teardown(service, conns)
        return PassResult(
            setup=(setup_start, setup_end),
            requests=requests,
            before=before,
            after=after,
        )

    async def _round(self, conns, batch: list[Request]) -> list[dict]:
        submitted = []
        for conn, request in zip(conns, batch):
            request.start = time.perf_counter()
            submitted.append(await _call(conn, {"op": "submit", "query": request.text}))

        async def result(conn, request: Request, ack: dict) -> dict:
            if ack.get("ok"):
                response = await _call(conn, {"op": "result", "session": ack["session"]})
            else:
                response = ack
            request.end = time.perf_counter()
            return response

        return list(
            await asyncio.gather(
                *(result(c, r, a) for c, r, a in zip(conns, batch, submitted))
            )
        )


async def _call(conn, request: dict) -> dict:
    reader, writer = conn
    writer.write((json.dumps(request) + "\n").encode("utf-8"))
    await writer.drain()
    line = await reader.readline()
    if not line:
        raise RuntimeError("server closed the connection")
    return json.loads(line)


WORKLOADS = {cls.name: cls for cls in (PlanCold, TcpHot, DriftReplan)}
