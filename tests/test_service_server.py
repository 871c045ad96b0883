"""The query server: sessions, admission, budgets, protocol, CLI."""

import io
import json
import sys

import pytest

from repro.cli import main
from repro.data.generators import uniform
from repro.exceptions import ReproError, ServiceOverloadError
from repro.query.ast import QueryError
from repro.query.parser import MAX_NESTING
from repro.service import (
    QueryServer,
    ServerConfig,
    handle_request,
    serve_stream,
)
from repro.sources.cost import CostModel

MIN_Q = "SELECT * FROM r ORDER BY min(a, b) STOP AFTER 5"
AVG_Q = "SELECT * FROM r ORDER BY avg(a, b) STOP AFTER 5"


def nested_min(depth: int, opening: str = "min(") -> str:
    """A query whose ORDER BY nests ``opening`` ``depth`` times."""
    expr = opening * depth + "a" + ", b)" * depth
    return f"SELECT * FROM r ORDER BY {expr} STOP AFTER 3"


def make_server(**config_kwargs) -> QueryServer:
    data = uniform(300, 2, seed=3)
    model = CostModel.uniform(2, cs=1.0, cr=2.0)
    return QueryServer(
        model,
        dataset=data,
        schema=["a", "b"],
        config=ServerConfig(**config_kwargs),
    )


class TestSessions:
    def test_warm_repeat_charges_nothing_and_answers_identically(self):
        server = make_server()
        cold = server.query(MIN_Q)
        warm = server.query(MIN_Q)
        assert cold.status == "done" and warm.status == "done"
        assert warm.charged_cost == 0.0
        assert warm.cache_hits > 0
        assert [e.obj for e in warm.result.ranking] == [
            e.obj for e in cold.result.ranking
        ]
        assert [e.score for e in warm.result.ranking] == [
            e.score for e in cold.result.ranking
        ]

    def test_related_query_is_cheaper_warm(self):
        warm_server = make_server()
        warm_server.query(MIN_Q)
        warm = warm_server.query(AVG_Q)

        cold_server = make_server()
        cold = cold_server.query(AVG_Q)

        assert warm.charged_cost < cold.charged_cost
        assert [e.obj for e in warm.result.ranking] == [
            e.obj for e in cold.result.ranking
        ]

    def test_fifo_execution_order_is_retrieval_independent(self):
        in_order = make_server(max_in_flight=4)
        a1 = in_order.submit(MIN_Q)
        b1 = in_order.submit(AVG_Q)
        ra1 = in_order.result(a1)
        rb1 = in_order.result(b1)

        reversed_order = make_server(max_in_flight=4)
        a2 = reversed_order.submit(MIN_Q)
        b2 = reversed_order.submit(AVG_Q)
        rb2 = reversed_order.result(b2)  # demanded first; still runs second
        ra2 = reversed_order.result(a2)

        assert ra1.charged_cost == ra2.charged_cost
        assert rb1.charged_cost == rb2.charged_cost
        assert [e.obj for e in rb1.result.ranking] == [
            e.obj for e in rb2.result.ranking
        ]

    def test_session_ids_are_seed_deterministic(self):
        ids_a = [make_server(seed=42).submit(MIN_Q) for _ in range(1)]
        ids_b = [make_server(seed=42).submit(MIN_Q) for _ in range(1)]
        assert ids_a == ids_b
        assert make_server(seed=1).submit(MIN_Q) != ids_a[0]

    def test_unknown_predicate_rejected_at_submit(self):
        server = make_server()
        with pytest.raises(QueryError, match="not in the served schema"):
            server.submit("SELECT * FROM r ORDER BY min(a, zz) STOP AFTER 2")
        assert server.open_sessions == 0

    def test_unknown_session_id(self):
        server = make_server()
        with pytest.raises(ReproError, match="unknown session"):
            server.result("q000042-deadbeef")


class TestAdmission:
    def test_overload_rejected_and_slot_freed_on_retrieval(self):
        server = make_server(max_in_flight=2)
        first = server.submit(MIN_Q)
        server.submit(AVG_Q)
        with pytest.raises(ServiceOverloadError):
            server.submit(MIN_Q)
        assert server.stats()["rejected"] == 1
        server.result(first)  # frees a slot
        third = server.submit(MIN_Q)
        assert server.result(third).status == "done"

    def test_failed_sessions_occupy_slots_until_retrieved(self):
        server = make_server(max_in_flight=1, degrade_on_budget=False)
        sid = server.submit(MIN_Q, budget=0.5)
        session = server.result(sid)
        assert session.status == "failed"
        assert session.error_type == "BudgetExceededError"
        # Retrieval freed the slot even though the query failed.
        assert server.open_sessions == 0
        assert server.submit(MIN_Q)


class TestBudgets:
    def test_budget_degrades_to_partial_by_default(self):
        server = make_server()
        full = server.query(MIN_Q)
        tight_server = make_server()
        tight = tight_server.query(MIN_Q, budget=full.charged_cost / 3)
        assert tight.status == "done"
        assert tight.result.partial
        assert tight.result.metadata["budget_exhausted"] is True
        assert tight.charged_cost <= full.charged_cost / 3
        assert tight.result.uncertainty  # proven intervals reported

    def test_warm_cache_rescues_a_tight_budget(self):
        server = make_server()
        full = server.query(MIN_Q)
        assert full.result.partial is False
        # The same budget that degrades a cold run is ample when warm.
        rescued = server.query(MIN_Q, budget=full.charged_cost / 3)
        assert rescued.status == "done"
        assert rescued.result.partial is False
        assert rescued.charged_cost == 0.0

    def test_negative_budgets_fail_at_submit(self):
        server = make_server()
        for budget in (-1.0, float("nan")):
            with pytest.raises(ValueError, match="budget"):
                server.submit(MIN_Q, budget=budget)
        assert server.query(MIN_Q).status == "done"
        with pytest.raises(ValueError, match="default_budget"):
            ServerConfig(default_budget=-1.0)

    def test_default_budget_from_config(self):
        server = make_server(default_budget=2.0)
        session = server.query(MIN_Q)
        assert session.charged_cost <= 2.0
        assert session.result.partial


class TestParallelServing:
    def test_concurrency_uses_wave_executor(self):
        server = make_server(query_concurrency=4)
        cold = server.query(MIN_Q)
        assert cold.status == "done"
        assert cold.result.metadata["concurrency"] == 4
        warm = server.query(MIN_Q)
        assert warm.charged_cost == 0.0
        assert [e.obj for e in warm.result.ranking] == [
            e.obj for e in cold.result.ranking
        ]


class TestStats:
    def test_snapshot_shape(self):
        server = make_server()
        server.query(MIN_Q)
        server.query(MIN_Q)
        snap = server.stats()
        assert snap["submitted"] == 2
        assert snap["completed"] == 2
        assert snap["failed"] == 0
        assert snap["open"] == 0
        assert snap["charged_cost_total"] > 0
        assert snap["cache"]["hit_rate"] > 0
        assert snap["schema"] == ["a", "b"]
        json.dumps(snap)  # JSON-safe throughout


class TestProtocol:
    def test_submit_result_roundtrip(self):
        server = make_server()
        submitted = handle_request(server, {"op": "submit", "query": MIN_Q})
        assert submitted["ok"]
        result = handle_request(
            server, {"op": "result", "session": submitted["session"]}
        )
        assert result["ok"]
        assert result["result"]["ranking"]
        assert result["charged_cost"] > 0
        assert result["partial"] is False
        repeat = handle_request(server, {"op": "submit", "query": MIN_Q})
        warm = handle_request(
            server, {"op": "result", "session": repeat["session"]}
        )
        assert warm["charged_cost"] == 0.0
        assert warm["cache_hits"] > 0
        assert warm["result"]["ranking"] == result["result"]["ranking"]

    def test_errors_are_responses_not_crashes(self):
        server = make_server(max_in_flight=1)
        assert not handle_request(server, ["not", "a", "dict"])["ok"]
        assert not handle_request(server, {"op": "bogus"})["ok"]
        assert not handle_request(server, {"op": "submit"})["ok"]
        assert not handle_request(server, {"op": "result"})["ok"]
        bad = handle_request(
            server, {"op": "submit", "query": "SELECT nonsense"}
        )
        assert not bad["ok"] and bad["type"] == "QueryError"
        handle_request(server, {"op": "submit", "query": MIN_Q})
        overload = handle_request(server, {"op": "submit", "query": MIN_Q})
        assert not overload["ok"]
        assert overload["type"] == "ServiceOverloadError"

    def test_failed_session_reported_with_type(self):
        server = make_server(degrade_on_budget=False)
        sid = server.submit(MIN_Q, budget=0.5)
        response = handle_request(server, {"op": "result", "session": sid})
        assert not response["ok"]
        assert response["type"] == "BudgetExceededError"
        assert response["session"] == sid

    def test_serve_stream_shutdown_and_bad_json(self):
        server = make_server()
        lines = io.StringIO(
            "\n".join(
                [
                    json.dumps({"op": "submit", "query": MIN_Q}),
                    "",  # blank lines ignored
                    "{not json",
                    json.dumps({"op": "stats"}),
                    json.dumps({"op": "shutdown"}),
                    json.dumps({"op": "stats"}),  # never reached
                ]
            )
            + "\n"
        )
        out = io.StringIO()
        assert serve_stream(server, lines, out) is True
        responses = [json.loads(line) for line in out.getvalue().splitlines()]
        assert len(responses) == 4  # blank skipped, stop after shutdown
        assert responses[0]["ok"]
        assert not responses[1]["ok"] and "bad JSON" in responses[1]["error"]
        assert responses[2]["ok"] and responses[3]["op"] == "shutdown"
        # The stdio transport runs the sync entry points; the stats op
        # still carries the async runtime's gauges, all at rest.
        runtime = {
            key: responses[2]["stats"][key]
            for key in ("inflight", "pending", "draining", "concurrent_queries")
        }
        assert runtime == {
            "inflight": 0,
            "pending": 0,
            "draining": False,
            "concurrent_queries": 1,
        }

    def test_serve_stream_answers_too_deep_lines_and_keeps_serving(self):
        # A query nested past the parser's cap and a JSON line nested
        # past the decoder's recursion limit are each answered with an
        # error; the loop goes on to answer the next line.
        server = make_server()
        lines = io.StringIO(
            "\n".join(
                [
                    json.dumps({"op": "submit", "query": nested_min(300)}),
                    json.dumps(
                        {"op": "submit", "query": nested_min(180, "min(0.5*")}
                    ),
                    "[" * 200000,
                    json.dumps({"op": "stats"}),
                ]
            )
            + "\n"
        )
        out = io.StringIO()
        assert serve_stream(server, lines, out) is False
        deep_query, deep_tree, deep_json, stats = [
            json.loads(line) for line in out.getvalue().splitlines()
        ]
        for deep in (deep_query, deep_tree):
            assert not deep["ok"] and deep["type"] == "QueryError"
            assert str(MAX_NESTING) in deep["error"]
        assert not deep_json["ok"] and deep_json["type"] == "ProtocolError"
        assert stats["ok"] and stats["op"] == "stats"

    def test_serve_stream_answers_bad_budgets_and_keeps_serving(self):
        # A budget that is not a nonnegative number is answered with a
        # ProtocolError; the loop goes on to serve the next lines.
        server = make_server()
        bad = ["abc", True, float("nan"), -1.0, [1], 10**400]
        lines = io.StringIO(
            "\n".join(
                [json.dumps({"op": "submit", "query": MIN_Q, "budget": b}) for b in bad]
                + [
                    json.dumps({"op": "submit", "query": MIN_Q, "budget": 50}),
                    json.dumps({"op": "stats"}),
                ]
            )
            + "\n"
        )
        out = io.StringIO()
        assert serve_stream(server, lines, out) is False
        responses = [json.loads(line) for line in out.getvalue().splitlines()]
        assert len(responses) == len(bad) + 2
        for response in responses[: len(bad)]:
            assert not response["ok"] and response["type"] == "ProtocolError"
            assert "budget" in response["error"]
        assert responses[-2]["ok"] and responses[-2]["op"] == "submit"
        assert responses[-1]["ok"] and responses[-1]["op"] == "stats"

    def test_serve_stream_answers_over_long_integer_literals(self):
        # Decoding an integer literal past the interpreter's digit limit
        # raises a plain ValueError, not a JSONDecodeError.
        server = make_server()
        lines = io.StringIO(
            '{"op": "stats", "x": ' + "1" * 5000 + "}\n"
            + json.dumps({"op": "stats"}) + "\n"
        )
        out = io.StringIO()
        assert serve_stream(server, lines, out) is False
        too_long, stats = [json.loads(line) for line in out.getvalue().splitlines()]
        assert not too_long["ok"] and too_long["type"] == "ProtocolError"
        assert stats["ok"] and stats["op"] == "stats"

    @pytest.mark.parametrize(
        "depth, opening", [(MAX_NESTING, "min("), (MAX_NESTING // 2, "min(0.5*")]
    )
    def test_query_at_the_nesting_cap_is_served(self, depth, opening):
        server = make_server()
        submitted = handle_request(
            server, {"op": "submit", "query": nested_min(depth, opening)}
        )
        assert submitted["ok"]
        result = handle_request(
            server, {"op": "result", "session": submitted["session"]}
        )
        assert result["ok"] and len(result["result"]["ranking"]) == 3

    def test_serve_stream_eof_is_not_shutdown(self):
        server = make_server()
        out = io.StringIO()
        assert serve_stream(server, io.StringIO(""), out) is False


class TestServeCli:
    def run_serve(self, monkeypatch, capsys, requests, extra_args=()):
        stdin = io.StringIO(
            "\n".join(json.dumps(r) for r in requests) + "\n"
        )
        monkeypatch.setattr(sys, "stdin", stdin)
        code = main(
            ["serve", "--n", "200", "--seed", "7", "--schema", "a,b", *extra_args]
        )
        captured = capsys.readouterr()
        return code, [json.loads(line) for line in captured.out.splitlines()], captured.err

    def test_scripted_batch_over_stdio(self, monkeypatch, capsys):
        code, responses, err = self.run_serve(
            monkeypatch,
            capsys,
            [
                {"op": "submit", "query": MIN_Q},
                {"op": "stats"},
                {"op": "shutdown"},
            ],
        )
        assert code == 0
        assert [r["op"] for r in responses] == ["submit", "stats", "shutdown"]
        assert all(r["ok"] for r in responses)
        assert "served" in err

    def test_unretrieved_sessions_stay_queued(self, monkeypatch, capsys):
        submit = {"op": "submit", "query": MIN_Q}
        code, responses, _err = self.run_serve(
            monkeypatch,
            capsys,
            [submit, submit, {"op": "stats"}, {"op": "shutdown"}],
        )
        assert code == 0
        # Results were never demanded, so the queries stayed queued.
        assert responses[2]["stats"]["queued"] == 2

    def test_non_utf8_line_on_stdin_is_answered(self, monkeypatch, capsys):
        # A real stdin decodes UTF-8 on read; the server reads the bytes
        # underneath, so a non-UTF-8 line is answered, not fatal.
        stdin = io.TextIOWrapper(
            io.BytesIO(b"\xff\xfe\n" + json.dumps({"op": "stats"}).encode() + b"\n"),
            encoding="utf-8",
        )
        monkeypatch.setattr(sys, "stdin", stdin)
        assert main(["serve", "--n", "200", "--seed", "7", "--schema", "a,b"]) == 0
        not_utf8, stats = [
            json.loads(line) for line in capsys.readouterr().out.splitlines()
        ]
        assert not not_utf8["ok"] and not_utf8["type"] == "ProtocolError"
        assert stats["ok"] and stats["op"] == "stats"

    def test_cli_rejects_empty_schema(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdin", io.StringIO(""))
        assert main(["serve", "--schema", ","]) == 2
        assert "at least one predicate" in capsys.readouterr().err

    def test_cli_full_roundtrip_with_results(self, monkeypatch, capsys):
        # Two-phase: discover the session id format deterministically by
        # running the same seeded server in-process first.
        data = uniform(200, 2, seed=7)
        model = CostModel.uniform(2)
        probe = QueryServer(
            model, dataset=data, schema=["a", "b"], config=ServerConfig(seed=7)
        )
        sid1 = probe.submit(MIN_Q)
        sid2 = probe.submit(MIN_Q)
        code, responses, err = self.run_serve(
            monkeypatch,
            capsys,
            [
                {"op": "submit", "query": MIN_Q},
                {"op": "submit", "query": MIN_Q},
                {"op": "result", "session": sid1},
                {"op": "result", "session": sid2},
                {"op": "stats"},
                {"op": "shutdown"},
            ],
        )
        assert code == 0
        cold, warm = responses[2], responses[3]
        assert cold["ok"] and warm["ok"]
        assert warm["charged_cost"] == 0.0
        assert warm["result"]["ranking"] == cold["result"]["ranking"]
        assert responses[4]["stats"]["cache"]["hit_rate"] > 0
