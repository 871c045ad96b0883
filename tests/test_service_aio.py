"""The asyncio serving layer: concurrency, admission, TCP transport.

Everything runs through ``asyncio.run`` -- no pytest-asyncio dependency.
"""

import asyncio
import json
import os
import tempfile
import threading

import pytest

import repro.service
from repro.cli import main
from repro.core.framework import FrameworkNC
from repro.data.generators import uniform
from repro.exceptions import ServiceOverloadError
from repro.obs.trace import TraceRecorder
from repro.query.parser import MAX_NESTING
from repro.serialization import result_to_dict
from repro.service import QueryServer, ServerConfig, serve_tcp
from repro.sources.cost import CostModel
from tests.test_service_server import nested_min

MIN_Q = "SELECT * FROM r ORDER BY min(a, b) STOP AFTER 5"
AVG_Q = "SELECT * FROM r ORDER BY avg(a, b) STOP AFTER 5"
MIN3_Q = "SELECT * FROM r ORDER BY min(a, b) STOP AFTER 3"
BATCH = [MIN_Q, AVG_Q, MIN3_Q, MIN_Q]


def make_server(*, trace=False, **config_kwargs):
    data = uniform(300, 2, seed=3)
    model = CostModel.uniform(2, cs=1.0, cr=2.0)
    return QueryServer(
        model,
        dataset=data,
        schema=["a", "b"],
        config=ServerConfig(**config_kwargs),
        trace=TraceRecorder() if trace else None,
    )


def run_batch(server, queries=BATCH):
    """Submit everything up front, then retrieve in submission order."""

    async def main():
        ids = [await server.submit_async(q) for q in queries]
        return [await server.wait(i) for i in ids]

    return asyncio.run(main())


def assert_reconciles(server, sessions):
    """The docs/OBSERVABILITY.md reconciliation, async edition."""
    snap = server.stats()
    metrics = server.metrics
    charged = [s for s in sessions if s is not None]

    assert metrics.total("repro_accesses_total") == snap[
        "charged_accesses_total"
    ]
    assert metrics.total("repro_accesses_total") == sum(
        s.charged_accesses for s in charged
    )
    assert metrics.total("repro_access_cost_total") == pytest.approx(
        snap["charged_cost_total"]
    )
    assert metrics.total("repro_access_cost_total") == pytest.approx(
        sum(s.charged_cost for s in charged)
    )
    cached_total = metrics.total("repro_cached_accesses_total")
    assert cached_total == sum(s.cache_hits for s in charged)
    assert cached_total == snap["cache"]["hits"]
    assert metrics.total("repro_sessions_total") == len(charged)
    assert metrics.gauge_value("repro_server_clock") == snap[
        "charged_accesses_total"
    ]
    assert snap["metrics"] == metrics.snapshot()


class TestSequentialShadow:
    """At concurrent_queries == 1 the async entry points ARE the sync ones.

    Each comparison runs the sync entry points on one server and the
    async entry points on a second, identically built one.
    """

    def test_results_and_trace_identical_to_sync_server(self):
        sync = make_server(trace=True)
        sync_sessions = [sync.query(q) for q in BATCH]

        aio = make_server(trace=True, concurrent_queries=1)
        aio_sessions = run_batch(aio)

        for s_sync, s_aio in zip(sync_sessions, aio_sessions):
            assert s_aio.id == s_sync.id
            assert s_aio.status == "done"
            assert result_to_dict(s_aio.result) == result_to_dict(
                s_sync.result
            )
            assert s_aio.charged_cost == s_sync.charged_cost
            assert s_aio.cache_hits == s_sync.cache_hits
        # The full observable event stream matches, not just the answers.
        assert aio.trace.to_jsonl() == sync.trace.to_jsonl()
        assert aio.stats()["charged_cost_total"] == sync.stats()[
            "charged_cost_total"
        ]

    @pytest.mark.parametrize("query_concurrency", [1, 2])
    def test_sync_api_is_the_sync_server(self, query_concurrency):
        # query() drives the engine's sync driver, query_async() its async
        # one: the sequential core at concurrency 1 (never a width-1
        # wave), the wave core above it. Both answer and trace the same
        # bytes.
        sync = make_server(trace=True, query_concurrency=query_concurrency)
        aio = make_server(trace=True, query_concurrency=query_concurrency)

        async def main():
            return [await aio.query_async(query) for query in BATCH]

        aio_sessions = asyncio.run(main())
        for query, s_aio in zip(BATCH, aio_sessions):
            expected = json.dumps(
                result_to_dict(sync.query(query).result), sort_keys=True
            )
            got = json.dumps(result_to_dict(s_aio.result), sort_keys=True)
            assert got == expected
        assert aio.trace.to_jsonl() == sync.trace.to_jsonl()
        assert aio.stats() == sync.stats()

    @pytest.mark.parametrize("query_concurrency", [1, 2])
    def test_sync_entry_points_start_no_event_loop(
        self, monkeypatch, query_concurrency
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("a sync request reached the event loop")

        monkeypatch.setattr(asyncio.events, "new_event_loop", refuse)
        monkeypatch.setattr(FrameworkNC, "run_async", refuse)
        server = make_server(query_concurrency=query_concurrency)
        assert [server.query(query).status for query in BATCH] == [
            "done"
        ] * len(BATCH)

    def test_the_old_async_server_name_is_the_one_server(self):
        from repro.service import aio

        assert aio.AsyncQueryServer is QueryServer
        assert "AsyncQueryServer" not in repro.service.__all__

    def test_query_async_convenience(self):
        server = make_server()

        async def main():
            return await server.query_async(MIN_Q)

        session = asyncio.run(main())
        assert session.status == "done"
        assert len(session.result.ranking) == 5


class TestConcurrentInvariance:
    """At N in flight, total charged cost and every answer are unchanged."""

    def _totals(self, sessions):
        return sum(s.charged_cost for s in sessions)

    def _rankings(self, sessions):
        return [
            [(e.obj, e.score) for e in s.result.ranking] for s in sessions
        ]

    def test_charged_total_and_answers_invariant(self):
        base = make_server()
        base_sessions = [base.query(q) for q in BATCH]

        conc = make_server(concurrent_queries=4)
        conc_sessions = run_batch(conc)

        # Per-session attribution may shift (the cache serves whoever
        # arrives first) but the union of charged accesses cannot.
        assert self._totals(conc_sessions) == pytest.approx(
            self._totals(base_sessions)
        )
        assert conc.stats()["charged_accesses_total"] == base.stats()[
            "charged_accesses_total"
        ]
        assert self._rankings(conc_sessions) == self._rankings(base_sessions)

    def test_concurrent_run_is_repeatable(self):
        """Same submissions, same interleaving: scale-0 pacing is
        deterministic, so even per-session attribution reproduces."""
        first = run_batch(make_server(concurrent_queries=4))
        second = run_batch(make_server(concurrent_queries=4))
        assert [s.charged_cost for s in first] == [
            s.charged_cost for s in second
        ]
        assert [s.cache_hits for s in first] == [s.cache_hits for s in second]
        assert self._rankings(first) == self._rankings(second)

    def test_reconciliation_holds_under_concurrency(self):
        server = make_server(concurrent_queries=3)
        sessions = run_batch(server)
        assert_reconciles(server, sessions)


class TestAdmission:
    def test_max_pending_backpressure(self):
        server = make_server(concurrent_queries=1, max_pending=1)

        async def main():
            a = await server.submit_async(MIN_Q)
            # No yield yet: the first session is still pending, so the
            # bounded queue rejects the second before any work happens.
            with pytest.raises(ServiceOverloadError):
                await server.submit_async(AVG_Q)
            return await server.wait(a)

        session = asyncio.run(main())
        assert session.status == "done"
        assert server.metrics.counter_value(
            "repro_overload_rejections_total", scope="server",
            limit="max_pending",
        ) == 1

    def test_started_session_frees_its_pending_place(self):
        # max_pending bounds sessions admitted but not yet started. The
        # place is returned in the same synchronous section that takes
        # the execution slot, not after the session's first await.
        server = make_server(concurrent_queries=1, max_pending=1)

        async def main():
            a = await server.submit_async(MIN_Q)
            while server.session(a).status == "queued":
                await asyncio.sleep(0)
            assert server.session(a).status == "running"
            b = await server.submit_async(AVG_Q)
            return await server.wait(a), await server.wait(b)

        sessions = asyncio.run(main())
        assert [s.status for s in sessions] == ["done", "done"]

    def test_max_in_flight_counts_unretrieved_sessions(self):
        server = make_server(concurrent_queries=2, max_in_flight=2)

        async def main():
            a = await server.submit_async(MIN_Q)
            b = await server.submit_async(AVG_Q)
            with pytest.raises(ServiceOverloadError):
                await server.submit_async(MIN3_Q)
            await server.wait(a)
            await server.wait(b)
            # Slots free after retrieval; admission recovers.
            return await server.query_async(MIN3_Q)

        assert asyncio.run(main()).status == "done"

    def test_drain_finishes_inflight_and_rejects_new(self):
        server = make_server(concurrent_queries=2)

        async def main():
            ids = [await server.submit_async(q) for q in BATCH[:3]]
            drained = await server.drain()
            assert server.draining
            with pytest.raises(ServiceOverloadError):
                await server.submit_async(MIN_Q)
            return drained, [await server.wait(i) for i in ids]

        drained, sessions = asyncio.run(main())
        assert drained == 3
        assert all(s.status == "done" for s in sessions)
        assert server.metrics.counter_value(
            "repro_overload_rejections_total", scope="server",
            limit="draining",
        ) == 1


class TestCancellation:
    def test_cancel_mid_flight_reconciles_partial_charges(self):
        server = make_server(concurrent_queries=2)

        async def main():
            victim = await server.submit_async(MIN_Q)
            # Let it charge a few accesses, then kill it mid-flight.
            for _ in range(40):
                await asyncio.sleep(0)
            cancelled = await server.cancel(victim)
            survivor = await server.query_async(AVG_Q)
            return cancelled, survivor

        cancelled, survivor = asyncio.run(main())
        assert cancelled.status == "cancelled"
        assert cancelled.charged_cost > 0
        assert survivor.status == "done"
        # The cancelled session's charges fold into the shared ledger
        # exactly like a completed one's: the reconciliation holds with
        # the corpse included.
        assert_reconciles(server, [cancelled, survivor])
        assert server.metrics.counter_value(
            "repro_sessions_total", status="cancelled"
        ) == 1
        # Its admission slot is released.
        assert server.open_sessions == 0

    def test_cancel_before_start_charges_nothing(self):
        server = make_server(concurrent_queries=1)

        async def main():
            a = await server.submit_async(MIN_Q)
            b = await server.submit_async(AVG_Q)  # queued behind a
            cancelled = await server.cancel(b)
            done = await server.wait(a)
            return cancelled, done

        cancelled, done = asyncio.run(main())
        assert cancelled.status == "cancelled"
        assert cancelled.charged_cost == 0.0
        assert cancelled.charged_accesses == 0
        assert done.status == "done"
        assert_reconciles(server, [cancelled, done])

    def test_cancel_leaves_no_orphaned_cache_generations(self):
        """A cancel during a TTL'd cache's pinned window must not leak
        the pin or skip the deferred sweep."""
        server = make_server(
            concurrent_queries=2, cache_ttl=1, cache_max_entries=64
        )

        async def main():
            victim = await server.submit_async(MIN_Q)
            for _ in range(40):
                await asyncio.sleep(0)
            await server.cancel(victim)
            return await server.query_async(AVG_Q)

        survivor = asyncio.run(main())
        assert survivor.status == "done"
        assert not server.cache.pinned  # every retain() was released
        # The deferred sweep ran: ttl=1 means entries from closed
        # generations are gone once no session pins the cache.
        assert server.cache.entry_count <= 64

    def test_cancel_already_done_session_just_retrieves(self):
        server = make_server()

        async def main():
            sid = await server.submit_async(MIN_Q)
            await server.wait(sid)
            return await server.cancel(sid)

        session = asyncio.run(main())
        assert session.status == "done"
        assert session.result is not None


def scanned_open(server):
    """The open-session count by scanning every session ever submitted."""
    return sum(1 for s in server._sessions.values() if s.open)


def checkpoint(server):
    """Open counts (kept, scanned); stats() bytes must equal the scan's.

    ``completed`` and ``failed`` are counts bumped as each lifecycle
    closes; recounting them over every session must change nothing.
    """
    snap = server.stats()
    statuses = [s.status for s in server._sessions.values()]
    scanned = dict(
        snap, completed=statuses.count("done"), failed=statuses.count("failed")
    )
    assert json.dumps(snap, sort_keys=True) == json.dumps(scanned, sort_keys=True)
    return server.open_sessions, scanned_open(server)


class TestOpenSessionCount:
    def test_sync_server_count_equals_scan(self):
        server = make_server(degrade_on_budget=False)
        counts = []
        a = server.submit(MIN_Q)
        b = server.submit(AVG_Q, budget=0.5)  # fails: budget exceeded
        c = server.submit(MIN3_Q)
        counts.append(checkpoint(server))
        assert server.result(b).status == "failed"
        counts.append(checkpoint(server))
        server.result(a)
        server.result(a)  # a second retrieval frees nothing more
        counts.append(checkpoint(server))
        server.query(MIN_Q)
        counts.append(checkpoint(server))
        server.result(c)
        counts.append(checkpoint(server))
        assert counts == [(3, 3), (2, 2), (1, 1), (1, 1), (0, 0)]
        stats = server.stats()
        assert (stats["completed"], stats["failed"]) == (3, 1)

    def test_async_server_count_equals_scan(self):
        server = make_server(concurrent_queries=1, degrade_on_budget=False)
        counts = []

        async def main():
            # First in line, so it runs on a cold cache and fails.
            c = await server.submit_async(MIN3_Q, budget=0.5)
            a = await server.submit_async(MIN_Q)
            b = await server.submit_async(AVG_Q)
            d = await server.submit_async(AVG_Q)
            counts.append(checkpoint(server))
            assert (await server.cancel(d)).status == "cancelled"
            counts.append(checkpoint(server))
            await server.wait(a)
            await server.wait(a)
            counts.append(checkpoint(server))
            assert (await server.wait(c)).status == "failed"
            counts.append(checkpoint(server))
            await server.cancel(b)
            await server.query_async(MIN_Q)
            counts.append(checkpoint(server))
            server.query(AVG_Q)  # a sync entry point, after async ones
            counts.append(checkpoint(server))

        asyncio.run(main())
        assert counts == [(4, 4), (3, 3), (2, 2), (1, 1), (0, 0), (0, 0)]
        statuses = sorted(s.status for s in server._sessions.values())
        assert statuses.count("cancelled") == 2
        stats = server.stats()
        assert (stats["completed"], stats["failed"]) == (3, 1)


class _TcpClient:
    """A minimal JSON-lines client for the tests."""

    def __init__(self, host, port):
        self.host, self.port = host, port
        self.reader = None
        self.writer = None

    async def __aenter__(self):
        self.reader, self.writer = await asyncio.open_connection(
            self.host, self.port
        )
        return self

    async def __aexit__(self, *exc):
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass

    async def send(self, **request):
        self.writer.write((json.dumps(request) + "\n").encode("utf-8"))
        await self.writer.drain()

    async def recv(self):
        line = await self.reader.readline()
        assert line, "server closed the connection unexpectedly"
        return json.loads(line)

    async def call(self, **request):
        await self.send(**request)
        return await self.recv()


class TestTcpTransport:
    def _serve(self, coro_fn, **config_kwargs):
        """Start a TCP service on an ephemeral port, run the scenario."""

        async def main():
            server = make_server(**config_kwargs)
            service = await serve_tcp(server, "127.0.0.1", 0)
            host, port = service.host, service.port
            try:
                return await coro_fn(server, host, port)
            finally:
                await service.aclose()

        return asyncio.run(main())

    def test_three_concurrent_clients_match_sync_answers(self):
        sync = make_server()
        expected = {
            q: [(e.obj, e.score) for e in sync.query(q).result.ranking]
            for q in (MIN_Q, AVG_Q, MIN3_Q)
        }
        sync_total = sync.stats()["charged_cost_total"]

        async def scenario(server, host, port):
            async def one(query):
                async with _TcpClient(host, port) as client:
                    return query, await client.call(op="query", query=query)

            results = await asyncio.gather(
                one(MIN_Q), one(AVG_Q), one(MIN3_Q)
            )
            return results, server.stats()

        results, stats = self._serve(scenario, concurrent_queries=3)
        for query, response in results:
            assert response["ok"], response
            ranking = [
                (e["obj"], e["score"])
                for e in response["result"]["ranking"]
            ]
            assert ranking == expected[query]
        # Union argument over the wire: concurrent clients pay exactly
        # what the sequential server pays for the same batch.
        assert stats["charged_cost_total"] == pytest.approx(sync_total)

    def test_stream_op_sends_progress_then_result(self):
        async def scenario(server, host, port):
            async with _TcpClient(host, port) as client:
                await client.send(op="stream", query=MIN3_Q)
                lines = []
                while True:
                    response = await client.recv()
                    lines.append(response)
                    if response.get("op") != "progress":
                        break
                return lines

        lines = self._serve(scenario)
        progress, final = lines[:-1], lines[-1]
        assert [p["rank"] for p in progress] == [1, 2, 3]
        assert final["ok"] and final["op"] == "result"
        # Progressive answers are the final ranking, streamed early.
        assert [(p["object"], p["score"]) for p in progress] == [
            (e["obj"], e["score"]) for e in final["result"]["ranking"]
        ]

    def test_submit_result_cancel_stats_ops(self):
        async def scenario(server, host, port):
            async with _TcpClient(host, port) as client:
                submitted = await client.call(op="submit", query=MIN_Q)
                assert submitted["ok"]
                cancel = await client.call(
                    op="cancel", session=submitted["session"]
                )
                stats = await client.call(op="stats")
                return cancel, stats

        cancel, stats = self._serve(scenario)
        assert cancel["ok"] and cancel["status"] in ("cancelled", "done")
        assert stats["ok"]
        assert stats["stats"]["draining"] is False

    def test_client_disconnect_cancels_owned_sessions(self):
        async def scenario(server, host, port):
            client = _TcpClient(host, port)
            await client.__aenter__()
            submitted = await client.call(op="submit", query=MIN_Q)
            sid = submitted["session"]
            # Vanish without retrieving.
            await client.__aexit__()
            # Give the handler's cleanup a chance to run.
            for _ in range(50):
                await asyncio.sleep(0)
                if server.open_sessions == 0:
                    break
            return sid, server.session(sid)

        sid, session = self._serve(scenario)
        assert session.retrieved
        assert session.status in ("cancelled", "done")
        assert session.charged_cost >= 0.0

    def test_per_client_session_cap(self):
        async def scenario(server, host, port):
            async with _TcpClient(host, port) as client:
                first = await client.call(op="submit", query=MIN_Q)
                second = await client.call(op="submit", query=AVG_Q)
                # Retrieving the first frees the client's slot.
                await client.call(op="result", session=first["session"])
                third = await client.call(op="submit", query=AVG_Q)
                await client.call(op="result", session=third["session"])
                return first, second, third

        first, second, third = self._serve(scenario, client_max_open=1)
        assert first["ok"] and third["ok"]
        assert not second["ok"]
        assert second["type"] == "ServiceOverloadError"

    def test_malformed_lines_get_error_responses(self):
        async def scenario(server, host, port):
            async with _TcpClient(host, port) as client:
                client.writer.write(b"this is not json\n")
                await client.writer.drain()
                bad_json = await client.recv()
                bad_op = await client.call(op="frobnicate")
                no_query = await client.call(op="query")
                return bad_json, bad_op, no_query

        bad_json, bad_op, no_query = self._serve(scenario)
        assert not bad_json["ok"] and bad_json["type"] == "ProtocolError"
        assert not bad_op["ok"]
        assert not no_query["ok"]

    def test_bad_budgets_keep_the_connection(self):
        async def scenario(server, host, port):
            async with _TcpClient(host, port) as client:
                bad = [
                    await client.call(op=op, query=MIN3_Q, budget=budget)
                    for op in ("submit", "query", "stream")
                    for budget in ("abc", True, float("nan"), -1.0, 10**400)
                ]
                good = await client.call(op="query", query=MIN3_Q, budget=50)
                stats = await client.call(op="stats")
                return bad, good, stats

        bad, good, stats = self._serve(scenario)
        for response in bad:
            assert not response["ok"] and response["type"] == "ProtocolError"
            assert "budget" in response["error"]
        assert good["ok"] and len(good["result"]["ranking"]) == 3
        assert stats["ok"] and stats["stats"]["submitted"] == 1

    def test_undecodable_and_oversized_lines_keep_the_connection(self):
        async def scenario(server, host, port):
            async with _TcpClient(host, port) as client:
                client.writer.write(b"\xff\xfe\n")
                # Past the stream reader's 64 KiB line limit.
                client.writer.write(b"x" * (70 * 1024) + b"\n")
                # Within the limit, but past the JSON decoder's recursion.
                client.writer.write(b"[" * 50000 + b"\n")
                await client.writer.drain()
                not_utf8 = await client.recv()
                oversized = await client.recv()
                too_deep = await client.recv()
                stats = await client.call(op="stats")
                return not_utf8, oversized, too_deep, stats

        not_utf8, oversized, too_deep, stats = self._serve(scenario)
        for bad in (not_utf8, oversized, too_deep):
            assert not bad["ok"] and bad["type"] == "ProtocolError"
        assert stats["ok"] and stats["op"] == "stats"

    def test_deeply_nested_query_keeps_the_connection(self):
        async def scenario(server, host, port):
            async with _TcpClient(host, port) as client:
                deep = [
                    await client.call(op="query", query=nested_min(300)),
                    await client.call(
                        op="query", query=nested_min(180, "min(0.5*")
                    ),
                ]
                at_cap = [
                    await client.call(
                        op="query", query=nested_min(MAX_NESTING)
                    ),
                    await client.call(
                        op="query",
                        query=nested_min(MAX_NESTING // 2, "min(0.5*"),
                    ),
                ]
                stats = await client.call(op="stats")
                return deep, at_cap, stats

        deep, at_cap, stats = self._serve(scenario)
        for response in deep:
            assert not response["ok"] and response["type"] == "QueryError"
        for response in at_cap:
            assert response["ok"] and len(response["result"]["ranking"]) == 3
        assert stats["ok"] and stats["op"] == "stats"

    def test_shutdown_op_stops_the_service(self):
        async def main():
            server = make_server()
            service = await serve_tcp(server, "127.0.0.1", 0)
            serve_task = asyncio.create_task(service.serve_forever())
            async with _TcpClient(service.host, service.port) as client:
                result = await client.call(op="query", query=MIN3_Q)
                assert result["ok"]
                ack = await client.call(op="shutdown")
                assert ack["ok"]
            await asyncio.wait_for(serve_task, timeout=5)
            return server

        server = asyncio.run(main())
        assert server.draining  # aclose() drains on the way out


class TestUnixSocket:
    """``repro serve --socket PATH``: the stream service on a unix socket."""

    def test_cli_round_trip_and_non_utf8_line(self, capsys):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "serve.sock")
            codes = []
            serving = threading.Thread(
                target=lambda: codes.append(main([
                    "serve", "--n", "300", "--seed", "3", "--schema", "a,b",
                    "--socket", path,
                ])),
                daemon=True,
            )
            serving.start()

            async def client():
                for _ in range(500):
                    if os.path.exists(path):
                        break
                    await asyncio.sleep(0.01)
                reader, writer = await asyncio.open_unix_connection(path)

                async def call(raw):
                    writer.write(raw + b"\n")
                    await writer.drain()
                    return json.loads(await reader.readline())

                submitted = await call(
                    json.dumps({"op": "submit", "query": MIN3_Q}).encode()
                )
                result = await call(json.dumps(
                    {"op": "result", "session": submitted["session"]}
                ).encode())
                not_utf8 = await call(b"\xff\xfe")
                stats = await call(b'{"op": "stats"}')
                ack = await call(b'{"op": "shutdown"}')
                writer.close()
                await writer.wait_closed()
                return submitted, result, not_utf8, stats, ack

            submitted, result, not_utf8, stats, ack = asyncio.run(client())
            serving.join(timeout=30)
            assert not serving.is_alive() and codes == [0]
            assert not os.path.exists(path)
        assert submitted["ok"] and result["ok"]
        assert len(result["result"]["ranking"]) == 3
        assert not not_utf8["ok"] and not_utf8["type"] == "ProtocolError"
        assert stats["ok"] and stats["stats"]["completed"] == 1
        assert ack["ok"] and ack["op"] == "shutdown"
        assert "serving on " + path in capsys.readouterr().err

    def test_cli_refuses_a_path_that_is_not_a_socket(self, tmp_path, capsys):
        # A regular file at the path is neither replaced nor served over.
        path = tmp_path / "not-a-socket"
        path.write_text("keep me")
        assert main(["serve", "--n", "50", "--socket", str(path)]) == 2
        assert "cannot listen" in capsys.readouterr().err
        assert path.read_text() == "keep me"

    def test_cli_refuses_socket_and_tcp_before_building_anything(
        self, tmp_path, capsys
    ):
        # The transport conflict is reported ahead of the invalid config:
        # nothing is built before the transports are checked.
        path = tmp_path / "s.sock"
        assert main([
            "serve", "--n", "50", "--socket", str(path),
            "--tcp", "127.0.0.1:0", "--concurrent-queries", "0",
        ]) == 2
        assert "pass at most one of --socket and --tcp" in capsys.readouterr().err
        assert not path.exists()
