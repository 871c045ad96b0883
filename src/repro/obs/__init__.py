"""Observability: unified metrics and structured access tracing.

The paper's cost accounting (Eq. 1) is only trustworthy when it is
*auditable*: every access, retry, fault, breaker transition, cache hit
and planner decision must be visible in one place, and the numbers the
layers report must reconcile. This package is that place:

* :class:`MetricsRegistry` -- labeled counters/gauges with one
  deterministic :meth:`~MetricsRegistry.snapshot` and a Prometheus-style
  text exporter, fed by the middleware, source cache, cost monitor,
  plan-cost estimator and query server;
* :class:`TraceRecorder` / :class:`TraceEvent` -- a bounded,
  deterministic, tick-stamped event log writable as JSON lines
  (``Middleware(trace=...)``, ``repro serve --trace out.jsonl``);
* :func:`read_trace` / :func:`format_timeline` -- trace-file analysis,
  including Fig. 7-style per-predicate access timelines
  (``repro trace out.jsonl``).

The metric name catalog and trace event schema live in
docs/OBSERVABILITY.md.
"""

from repro.obs.metrics import CounterSeries, MetricsRegistry, render_series
from repro.obs.timeline import Timeline, build_timeline, format_timeline
from repro.obs.trace import TraceEvent, TraceRecorder, read_trace

__all__ = [
    "CounterSeries",
    "MetricsRegistry",
    "render_series",
    "TraceEvent",
    "TraceRecorder",
    "read_trace",
    "Timeline",
    "build_timeline",
    "format_timeline",
]
