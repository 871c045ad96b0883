"""E22 -- async serving: multi-client throughput on latency-bearing sources.

Serves the E20 related-query workload over the TCP JSON-lines transport
(docs/RUNTIME.md) at 1, 4, and 16 concurrent clients, with a positive
pacer ``time_scale`` so every access carries real wall-clock latency --
the regime the async runtime exists for. The acceptance bars:

* the charged Eq. 1 cost is **identical** at every concurrency level
  (overlap changes wall-clock, never the access ledger),
* every answer is identical to the single-client run's, and
* 16 clients achieve at least **2x** the single-client throughput.

The repo-root ``BENCH_async.json`` records throughput and latency
percentiles per level, under the shared ``command`` / ``experiment`` /
``hardware`` header, so future runtime changes have a baseline to move.
Wall-clock measurement lives only here, in the benchmark harness -- the
engine itself never reads a real clock (RL104).
"""

from __future__ import annotations

import asyncio
import json
import os
import pathlib
import platform
import time

from bench_service import N, QUERY_BATCH, SCHEMA, SEED

from repro.bench.reporting import ascii_table
from repro.data.generators import uniform
from repro.service import QueryServer, ServerConfig, serve_tcp
from repro.sources.cost import CostModel

RESULT_FILE = pathlib.Path(__file__).parent.parent / "BENCH_async.json"

CLIENT_LEVELS = (1, 4, 16)
TIME_SCALE = 0.002  # seconds of simulated source latency per cost unit


def build_async_server(clients: int) -> QueryServer:
    data = uniform(N, len(SCHEMA), seed=SEED)
    model = CostModel.uniform(len(SCHEMA), cs=1.0, cr=2.0)
    return QueryServer(
        model,
        dataset=data,
        schema=SCHEMA,
        config=ServerConfig(
            max_in_flight=len(QUERY_BATCH),
            concurrent_queries=clients,
            time_scale=TIME_SCALE,
        ),
    )


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile; enough resolution for a 20-query batch."""
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, round(q / 100.0 * (len(ordered) - 1))))
    return ordered[rank]


async def _client(host: str, port: int, queries: list[str], latencies: list):
    """One TCP client issuing its share of the batch sequentially."""
    reader, writer = await asyncio.open_connection(host, port)
    answers = {}
    try:
        for text in queries:
            start = time.perf_counter()
            writer.write((json.dumps({"op": "query", "query": text}) + "\n").encode())
            await writer.drain()
            response = json.loads(await reader.readline())
            latencies.append(time.perf_counter() - start)
            assert response["ok"], response
            answers[text] = [
                (e["obj"], e["score"]) for e in response["result"]["ranking"]
            ]
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass
    return answers


def serve_level(clients: int) -> dict:
    """Serve the whole batch through ``clients`` concurrent connections."""
    server = build_async_server(clients)
    shares: list[list[str]] = [[] for _ in range(clients)]
    for i, text in enumerate(QUERY_BATCH):
        shares[i % clients].append(text)
    latencies: list[float] = []

    async def main():
        service = await serve_tcp(server, "127.0.0.1", 0)
        try:
            start = time.perf_counter()
            per_client = await asyncio.gather(
                *(
                    _client(service.host, service.port, share, latencies)
                    for share in shares
                    if share
                )
            )
            wall = time.perf_counter() - start
        finally:
            await service.aclose()
        answers: dict = {}
        for chunk in per_client:
            answers.update(chunk)
        return wall, answers

    wall, answers = asyncio.run(main())
    snap = server.stats()
    return {
        "clients": clients,
        "wall_s": wall,
        "throughput_qps": len(QUERY_BATCH) / wall,
        "latency_p50_s": percentile(latencies, 50),
        "latency_p95_s": percentile(latencies, 95),
        "latency_p99_s": percentile(latencies, 99),
        "charged_cost_total": snap["charged_cost_total"],
        "charged_accesses_total": snap["charged_accesses_total"],
        "cache_hit_rate": snap["cache"]["hit_rate"],
        "answers": answers,
    }


def test_async_throughput_scales_and_cost_is_invariant(report):
    levels = [serve_level(c) for c in CLIENT_LEVELS]
    base = levels[0]

    for level in levels[1:]:
        # Overlap moves wall-clock, never the ledger or the answers.
        assert level["charged_cost_total"] == base["charged_cost_total"]
        assert level["charged_accesses_total"] == base["charged_accesses_total"]
        assert level["answers"] == base["answers"]

    speedup = levels[-1]["throughput_qps"] / base["throughput_qps"]
    assert speedup >= 2.0, (
        f"16 clients must at least double single-client throughput "
        f"(got {speedup:.2f}x)"
    )

    rows = [
        [
            lvl["clients"],
            f"{lvl['wall_s']:.2f}",
            f"{lvl['throughput_qps']:.1f}",
            f"{lvl['latency_p50_s'] * 1e3:.0f}",
            f"{lvl['latency_p95_s'] * 1e3:.0f}",
            f"{lvl['latency_p99_s'] * 1e3:.0f}",
            f"{lvl['charged_cost_total']:g}",
        ]
        for lvl in levels
    ]
    table = ascii_table(
        ["clients", "wall s", "q/s", "p50 ms", "p95 ms", "p99 ms", "cost"],
        rows,
        title=(
            f"E22: async serving, {len(QUERY_BATCH)} queries "
            f"(n={N}, m={len(SCHEMA)}, time_scale={TIME_SCALE}) -- "
            f"16-client speedup {speedup:.2f}x, cost invariant"
        ),
    )
    report("E22", "async multi-client serving", table)

    payload = {
        "command": "PYTHONPATH=src python -m pytest benchmarks/bench_async.py "
        "-q --benchmark-disable",
        "experiment": "E22 async multi-client serving",
        "hardware": f"{os.cpu_count()}-core {platform.machine()}, "
        f"Python {platform.python_version()}",
        "n": N,
        "m": len(SCHEMA),
        "queries": len(QUERY_BATCH),
        "time_scale": TIME_SCALE,
        "speedup_16_vs_1": speedup,
        "levels": [
            {k: v for k, v in lvl.items() if k != "answers"} for lvl in levels
        ],
    }
    RESULT_FILE.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
