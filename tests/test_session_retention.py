"""Bounded retention of finished sessions (docs/SERVICE.md).

A server keeps every open session, plus the ``RETAINED_SESSIONS`` most
recently retrieved ones; an older retrieved session is forgotten, with
its result, and a later lookup gets the ``unknown session`` error.
``stats()`` reads counts kept as sessions are submitted and closed, so
its bytes equal a scan over every session while nothing was forgotten,
it never scans the session table, and the server's state stays flat
however many queries ran.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.data.generators import uniform
from repro.exceptions import ReproError
from repro.service import QueryServer, ServerConfig
from repro.service.protocol import handle_request
from repro.service.server import RETAINED_SESSIONS
from repro.sources.cost import CostModel

QUERY = "SELECT * FROM r ORDER BY min(a, b) STOP AFTER 1"
TEXTS = [
    "SELECT * FROM r ORDER BY min(a, b) STOP AFTER 3",
    "SELECT * FROM r ORDER BY avg(a, b) STOP AFTER 2",
    QUERY,
]


def tiny_server(**config):
    return QueryServer(
        CostModel.uniform(2, cs=1.0, cr=2.0),
        dataset=uniform(8, 2, seed=1),
        schema=["a", "b"],
        config=ServerConfig(**config),
    )


def scanned_stats(server) -> dict:
    """``stats()`` recomputed by scanning every session the server holds."""
    snap = server.stats()
    statuses = [s.status for s in server._sessions.values()]
    return dict(
        snap,
        submitted=len(server._sessions),
        completed=statuses.count("done"),
        failed=statuses.count("failed"),
    )


def test_stats_bytes_equal_the_scan_on_a_bounded_run():
    server = tiny_server(degrade_on_budget=False)
    # First in line, so it runs on a cold cache and fails its budget.
    assert server.query(TEXTS[1], budget=0.5).status == "failed"
    for text in TEXTS * 5:
        server.query(text)
    server.submit(TEXTS[0])  # left open
    snap = server.stats()
    assert snap["submitted"] == 17 and snap["failed"] == 1
    assert json.dumps(snap, sort_keys=True) == json.dumps(
        scanned_stats(server), sort_keys=True
    )


def test_a_session_outside_the_window_is_forgotten():
    server = tiny_server()
    first = server.query(QUERY).id
    later = [server.query(QUERY).id for _ in range(RETAINED_SESSIONS)]
    with pytest.raises(ReproError, match="unknown session"):
        server.result(first)
    with pytest.raises(ReproError, match="unknown session"):
        server.session(first)
    response = handle_request(server, {"op": "result", "session": first})
    assert not response["ok"] and "unknown session" in response["error"]
    assert server.result(later[0]).result is not None
    assert len(server._sessions) == RETAINED_SESSIONS
    assert server.stats()["submitted"] == RETAINED_SESSIONS + 1


def test_open_sessions_are_never_forgotten():
    server = tiny_server()
    waiting = server.submit(QUERY)
    for _ in range(RETAINED_SESSIONS + 5):
        server.query(QUERY)
    assert server.session(waiting).status == "done"  # ran FIFO, still open
    assert server.result(waiting).result is not None


class _Unscannable(dict):
    """A session table that refuses to be scanned, only looked up."""

    def _refuse(self, *args):
        raise AssertionError("stats() scanned the session table")

    __iter__ = values = items = keys = _refuse


def _held(server) -> dict:
    """The size of every per-server table that could grow with queries."""
    return {
        "sessions": len(server._sessions),
        "retrieved": len(server._retrieved),
        "queue": len(server._queue),
        "inflight": len(server._inflight),
        "finished": len(server._finished),
        "plan_memory": len(server._plan_memory),
    }


def test_state_and_stats_stay_flat_as_queries_accumulate():
    server = tiny_server()
    for _ in range(RETAINED_SESSIONS + 100):
        server.query(QUERY)
    held = _held(server)
    for _ in range(200):
        server.query(QUERY)
    # Nothing the server holds grows with the number of queries served.
    assert _held(server) == held
    assert held["sessions"] == held["retrieved"] == RETAINED_SESSIONS
    # stats() reads counters, never the session table.
    server._sessions = _Unscannable(server._sessions)
    snap = server.stats()
    assert snap["submitted"] == snap["completed"] == RETAINED_SESSIONS + 300


def test_async_server_forgets_tasks_and_events():
    server = tiny_server()

    async def main():
        first = (await server.query_async(QUERY)).id
        for _ in range(RETAINED_SESSIONS + 10):
            await server.query_async(QUERY)
        return first

    first = asyncio.run(main())
    assert len(server._sessions) == RETAINED_SESSIONS
    assert len(server._tasks) == RETAINED_SESSIONS
    assert len(server._events) == RETAINED_SESSIONS
    assert server._owners == {}
    with pytest.raises(ReproError, match="unknown session"):
        asyncio.run(server.wait(first))


def test_a_connection_counts_only_its_open_sessions():
    """Retrieval by any client frees the submitter's slot, in O(1)."""
    from repro.service import serve_tcp
    from tests.test_service_aio import _TcpClient

    async def main():
        server = tiny_server(client_max_open=2)
        service = await serve_tcp(server, "127.0.0.1", 0)
        try:
            async with _TcpClient(service.host, service.port) as a, \
                    _TcpClient(service.host, service.port) as b:
                first = await a.call(op="submit", query=QUERY)
                second = await a.call(op="submit", query=QUERY)
                refused = await a.call(op="submit", query=QUERY)
                # Client b retrieves a's first session: a's slot frees.
                await b.call(op="result", session=first["session"])
                third = await a.call(op="submit", query=QUERY)
                owners = dict(server._owners)
            # a disconnected with two sessions open: both cancelled or
            # retrieved, and nothing of the connection stays behind.
            await server.drain()
            return first, second, refused, third, owners, server
        finally:
            await service.aclose()

    first, second, refused, third, owners, server = asyncio.run(main())
    assert first["ok"] and second["ok"] and third["ok"]
    assert not refused["ok"] and refused["type"] == "ServiceOverloadError"
    assert sorted(owners) == sorted([second["session"], third["session"]])
    assert server._owners == {}
    assert server.open_sessions == 0
