"""Unit tests for the observability layer (repro.obs).

Covers the :class:`MetricsRegistry` counter/gauge semantics, the bounded
deterministic :class:`TraceRecorder`, JSON-lines round-trips, and the
Fig. 7-style timeline renderer.
"""

import io
import json

import pytest

from repro.obs import (
    MetricsRegistry,
    TraceRecorder,
    build_timeline,
    format_timeline,
    read_trace,
    render_series,
)


class TestRenderSeries:
    def test_bare_name_without_labels(self):
        assert render_series("repro_accesses_total", ()) == "repro_accesses_total"

    def test_labels_render_prometheus_style(self):
        key = render_series("x_total", (("kind", "sorted"), ("predicate", "0")))
        assert key == 'x_total{kind="sorted",predicate="0"}'


class TestMetricsRegistry:
    def test_inc_defaults_to_one(self):
        reg = MetricsRegistry()
        reg.inc("a_total")
        reg.inc("a_total")
        assert reg.counter_value("a_total") == 2.0

    def test_labels_are_order_insensitive(self):
        reg = MetricsRegistry()
        reg.inc("a_total", predicate=0, kind="sorted")
        reg.inc("a_total", kind="sorted", predicate=0)
        assert reg.counter_value("a_total", kind="sorted", predicate=0) == 2.0
        assert reg.total("a_total") == 2.0

    def test_keyword_order_never_changes_snapshot_or_exporter_bytes(self):
        def feed(reg, orders):
            for order in orders:
                labels = {"predicate": 2, "kind": "sorted", "outcome": "ok"}
                reg.inc("a_total", 1.5, **{k: labels[k] for k in order})
                reg.set_gauge("g", 3, **{k: labels[k] for k in order})
                reg.inc("b_total", predicate=0)

        orders = [
            ("predicate", "kind", "outcome"),
            ("outcome", "predicate", "kind"),
            ("kind", "outcome", "predicate"),
        ]
        one, two = MetricsRegistry(), MetricsRegistry()
        feed(one, orders)
        feed(two, [orders[0]] * len(orders))
        assert json.dumps(one.snapshot()) == json.dumps(two.snapshot())
        assert one.render_prometheus() == two.render_prometheus()
        assert one.counter_value(
            "a_total", outcome="ok", kind="sorted", predicate=2
        ) == 4.5

    def test_equal_values_of_different_types_stay_distinct_series(self):
        reg = MetricsRegistry()
        reg.inc("a_total", predicate=1)
        reg.inc("a_total", predicate=True)
        reg.inc("a_total", predicate=1.0)
        assert sorted(reg.snapshot()["counters"]) == [
            'a_total{predicate="1"}',
            'a_total{predicate="1.0"}',
            'a_total{predicate="True"}',
        ]

    def test_unhashable_label_values_still_render(self):
        reg = MetricsRegistry()
        reg.inc("a_total", window=[1, 2])
        reg.inc("a_total", window=[1, 2])
        assert reg.counter_value("a_total", window=[1, 2]) == 2.0
        assert 'a_total{window="[1, 2]"} 2' in reg.render_prometheus()

    def test_distinct_label_sets_are_distinct_series(self):
        reg = MetricsRegistry()
        reg.inc("a_total", kind="sorted")
        reg.inc("a_total", 3.0, kind="random")
        assert reg.counter_value("a_total", kind="sorted") == 1.0
        assert reg.counter_value("a_total", kind="random") == 3.0
        assert reg.total("a_total") == 4.0

    def test_negative_increment_raises(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="counters only increase"):
            reg.inc("a_total", -1.0)

    def test_unknown_series_reads_as_zero_or_none(self):
        reg = MetricsRegistry()
        assert reg.counter_value("never_total") == 0.0
        assert reg.total("never_total") == 0.0
        assert reg.gauge_value("never") is None

    def test_gauge_holds_latest_value(self):
        reg = MetricsRegistry()
        reg.set_gauge("clock", 3)
        reg.set_gauge("clock", 7)
        assert reg.gauge_value("clock") == 7.0

    def test_snapshot_is_deterministic_and_json_safe(self):
        def feed(reg):
            reg.inc("b_total", kind="random", predicate=1)
            reg.inc("a_total", 2.5, predicate=0)
            reg.set_gauge("clock", 9)

        one, two = MetricsRegistry(), MetricsRegistry()
        feed(one)
        feed(two)
        assert one.snapshot() == two.snapshot()
        dumped = json.dumps(one.snapshot(), sort_keys=True)
        assert json.loads(dumped) == one.snapshot()
        assert one.snapshot()["counters"]['a_total{predicate="0"}'] == 2.5
        assert one.snapshot()["gauges"]["clock"] == 9.0

    def test_series_iterates_sorted(self):
        reg = MetricsRegistry()
        reg.inc("a_total", predicate=1)
        reg.inc("a_total", predicate=0)
        labels = [dict(ls) for ls, _ in reg.series("a_total")]
        assert labels == [{"predicate": "0"}, {"predicate": "1"}]

    def test_prometheus_rendering(self):
        reg = MetricsRegistry()
        reg.describe("a_total", "charged accesses")
        reg.inc("a_total", predicate=0)
        reg.set_gauge("clock", 4)
        text = reg.render_prometheus()
        assert "# HELP a_total charged accesses" in text
        assert "# TYPE a_total counter" in text
        assert 'a_total{predicate="0"} 1' in text
        assert "# TYPE clock gauge" in text
        assert text.endswith("\n")

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().render_prometheus() == ""
        assert MetricsRegistry().snapshot() == {"counters": {}, "gauges": {}}

    def test_reset_zeroes_series_keeps_help(self):
        reg = MetricsRegistry()
        reg.describe("a_total", "help text")
        reg.inc("a_total")
        reg.set_gauge("g", 1)
        reg.reset()
        assert reg.snapshot() == {"counters": {}, "gauges": {}}
        reg.inc("a_total")
        assert "# HELP a_total help text" in reg.render_prometheus()


class TestTraceRecorder:
    def test_emit_records_in_order(self):
        trace = TraceRecorder()
        trace.emit("access", 1, predicate=0, kind="sorted")
        trace.emit("fault", 2, predicate=1, kind="random")
        assert len(trace) == 2
        first, second = trace.events
        assert (first.tick, first.event) == (1, "access")
        assert dict(second.fields) == {"predicate": 1, "kind": "random"}

    def test_capacity_keeps_prefix_and_counts_drops(self):
        trace = TraceRecorder(capacity=3)
        for tick in range(5):
            trace.emit("access", tick, predicate=0)
        assert len(trace) == 3
        assert trace.dropped == 2
        assert [e.tick for e in trace.events] == [0, 1, 2]

    def test_bounded_trace_is_prefix_of_unbounded(self):
        bounded, unbounded = TraceRecorder(capacity=2), TraceRecorder(capacity=None)
        for tick in range(4):
            bounded.emit("access", tick, predicate=0)
            unbounded.emit("access", tick, predicate=0)
        assert unbounded.to_jsonl().startswith(bounded.to_jsonl())

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="capacity"):
            TraceRecorder(capacity=0)

    def test_clear_drops_events_and_overflow(self):
        trace = TraceRecorder(capacity=1)
        trace.emit("access", 0)
        trace.emit("access", 1)
        trace.clear()
        assert len(trace) == 0 and trace.dropped == 0

    def test_identical_feeds_produce_identical_bytes(self):
        def feed(trace):
            trace.emit("access", 1, predicate=0, kind="sorted", cost=1.0)
            trace.emit("session", 2, session="q1", status="done")

        one, two = TraceRecorder(), TraceRecorder()
        feed(one)
        feed(two)
        assert one.to_jsonl() == two.to_jsonl()

    def test_write_and_read_round_trip(self, tmp_path):
        trace = TraceRecorder()
        trace.emit("access", 1, predicate=0, kind="sorted")
        trace.emit("phase", 0, phase="schedule")
        path = str(tmp_path / "trace.jsonl")
        assert trace.write(path) == 2
        events = read_trace(path)
        assert [e["event"] for e in events] == ["access", "phase"]
        assert events[0] == {
            "tick": 1,
            "event": "access",
            "predicate": 0,
            "kind": "sorted",
        }

    def test_write_to_stream(self):
        trace = TraceRecorder()
        trace.emit("access", 1)
        buffer = io.StringIO()
        assert trace.write(buffer) == 1
        assert read_trace(io.StringIO(buffer.getvalue()))[0]["tick"] == 1


class TestReadTrace:
    def test_blank_lines_are_skipped(self):
        events = read_trace(['{"event": "access", "tick": 1}', "", "  "])
        assert len(events) == 1

    def test_malformed_json_names_the_line(self):
        with pytest.raises(ValueError, match="line 2"):
            read_trace(['{"event": "access", "tick": 1}', "{not json"])

    def test_non_event_object_rejected(self):
        with pytest.raises(ValueError, match="line 1"):
            read_trace(['["a", "list"]'])
        with pytest.raises(ValueError, match="line 1"):
            read_trace(['{"tick": 3}'])


def _sample_events():
    return [
        {"tick": 0, "event": "access", "predicate": 0, "kind": "sorted"},
        {"tick": 1, "event": "access", "predicate": 0, "kind": "sorted"},
        {"tick": 2, "event": "cache_hit", "predicate": 1, "kind": "random"},
        {"tick": 3, "event": "fault", "predicate": 1, "kind": "sorted"},
        {"tick": 3, "event": "access", "predicate": 1, "kind": "sorted"},
        {"tick": 4, "event": "breaker", "predicate": 1, "kind": "sorted"},
        {"tick": 5, "event": "budget_rejected", "predicate": 0, "kind": "random"},
        {"tick": 2, "event": "phase", "phase": "delta_search"},
    ]


class TestTimeline:
    def test_build_counts_per_predicate(self):
        timeline = build_timeline(_sample_events())
        assert [lane.predicate for lane in timeline.predicates] == [0, 1]
        p0, p1 = timeline.predicates
        assert p0.sorted_accesses == 2
        assert p0.budget_rejections == 1
        assert (p1.cache_hits, p1.faults, p1.breaker_transitions) == (1, 1, 1)
        assert timeline.first_tick == 0 and timeline.last_tick == 5
        assert timeline.event_counts["access"] == 3
        assert timeline.event_counts["phase"] == 1

    def test_severity_wins_within_a_bucket(self):
        # fault (x) and access (s) share tick 3 on predicate 1; with a
        # width of one bucket per tick span the fault glyph must win.
        rendered = format_timeline(_sample_events(), width=12)
        lane_p1 = next(line for line in rendered.splitlines() if "p1 |" in line)
        assert "x" in lane_p1
        assert "legend:" in rendered

    def test_empty_trace_renders_placeholder(self):
        rendered = format_timeline([])
        assert "no predicate-scoped events" in rendered

    def test_width_floor(self):
        with pytest.raises(ValueError, match="width"):
            format_timeline(_sample_events(), width=4)

    def test_unscoped_events_only_count_aggregates(self):
        timeline = build_timeline([{"tick": 1, "event": "session"}])
        assert timeline.predicates == []
        assert timeline.event_counts == {"session": 1}
