"""Per-layer metrics and the layer report of a traced run.

Times are calibrated milliseconds per request (see ``calib.py``): each
request's layer self times are rescaled by the reference speed measured
around that request.  Counts come from the server's ``stats`` op of the
first pass (every pass reproduces them exactly) and from the spans.
"""

from __future__ import annotations

import statistics

from calib import REFERENCE_MS
from spans import LAYERS

#: Layer self-time metrics, by the span layer they sum.
LAYER_METRICS = {
    "query": "query.compile_ms",
    "optimizer": "optimizer.plan_ms",
    "replan": "replan.search_ms",
    "engine": "engine.self_ms",
    "sources": "sources.access_ms",
    "service": "service.self_ms",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _request_rows(cal, traced, tracer) -> list[dict]:
    """One row of calibrated ms per traced request."""
    spans = tracer.by_request()
    rows = []
    for pass_no, p in enumerate(traced):
        for request in p.requests:
            entry = spans.get((pass_no, request.session))
            if entry is None:
                raise RuntimeError(f"no spans recorded for session {request.session}")
            scale = REFERENCE_MS / cal.local_reference(request.start, request.end)
            latency = (request.end - request.start) * scale
            row = {
                LAYER_METRICS[layer]: entry["layers"][layer] * scale for layer in LAYERS
            }
            submit, execute = entry["submit"], entry["execute"]
            row["service.encode_ms"] = entry["encode"] * scale
            row["service.queue_wait_ms"] = (execute[0] - submit[1]) * scale
            row["service.transport_ms"] = latency - (execute[1] - submit[0]) * scale
            row["harness.unattributed_ms"] = latency - sum(
                row[LAYER_METRICS[layer]] for layer in LAYERS
            )
            row["latency_ms"] = latency
            row["searches"] = entry["searches"]
            row["checks"] = entry["checks"]
            rows.append(row)
    return rows


def report(workload, cal, untraced, traced, tracer, counts) -> dict:
    """Print the layer report; return the per-layer metrics."""
    from run import busy_ms, delta, tail

    size = workload.round_size
    first = untraced[0]
    requests = len(first.requests)
    rows = _request_rows(cal, traced, tracer)
    plain = statistics.median(busy_ms(cal, p, size) for p in untraced)
    with_spans = statistics.median(busy_ms(cal, p, size) for p in traced)
    searches = sum(row["searches"] for row in rows) / len(traced)

    metrics: dict[str, tuple[float, str]] = {}
    for name in list(LAYER_METRICS.values()) + [
        "service.encode_ms", "service.transport_ms", "service.queue_wait_ms",
        "harness.unattributed_ms",
    ]:
        metrics[name] = (statistics.fmean(row[name] for row in rows), "ms")
    runs = {path: delta(first, "repro_estimator_runs_total", path=path)
            for path in ("frontier", "kernel", "reference")}
    hits = delta(first, "repro_estimator_cache_total", event="hit")
    misses = delta(first, "repro_estimator_cache_total", event="miss")
    cache_hits = first.after["cache"]["hits"] - first.before["cache"]["hits"]
    cache_misses = first.after["cache"]["misses"] - first.before["cache"]["misses"]
    replans = counts["replans"]
    metrics.update({
        "optimizer.plans_costed": (counts["plans_costed"], "count"),
        "optimizer.runs_frontier": (runs["frontier"], "count"),
        "optimizer.runs_kernel": (runs["kernel"], "count"),
        "optimizer.runs_reference": (runs["reference"], "count"),
        "optimizer.estimate_cache_hit_rate": (_ratio(hits, hits + misses), "ratio"),
        "service.plan_reuse_share": (
            delta(first, "repro_server_warm_start_total", kind="reuse") / requests,
            "ratio",
        ),
        "replan.checks": (sum(row["checks"] for row in rows) / len(traced), "count"),
        "replan.searches": (
            replans.get("kept", 0) + replans.get("switched", 0), "count"
        ),
        "replan.switches": (replans.get("switched", 0), "count"),
        "engine.accesses_per_query": (
            (counts["charged_accesses"] + counts["cached_accesses"]) / requests,
            "count",
        ),
        "engine.iterations_per_query": (
            statistics.fmean(r.iterations for r in first.requests), "count"
        ),
        "sources.cache_hit_rate": (
            _ratio(cache_hits, cache_hits + cache_misses), "ratio"
        ),
        "sources.cache_evictions": (counts["evictions"], "count"),
        "sources.retries": (counts["retries"], "count"),
        "sources.faults": (delta(first, "repro_faults_total"), "count"),
        "sources.breaker_rejections": (
            delta(first, "repro_breaker_rejections_total"), "count"
        ),
        "trace.overhead_ratio": (_ratio(with_spans - plain, plain), "ratio"),
    })

    latency = [row["latency_ms"] for row in rows]
    print(f"workload {workload.name}: {len(untraced)} untraced + {len(traced)} "
          f"traced passes x {requests} requests; {len(tracer.spans)} spans")
    print(f"  traced request latency: mean {statistics.fmean(latency):.3f} ms, "
          f"p50 {statistics.median(latency):.3f} ms "
          f"(calibrated; untraced pass {plain:.1f} ms, traced {with_spans:.1f} ms)")
    print(f"  {'layer self time (ms/request)':<32}{'mean':>10}{'p50':>10}{'tail':>10}{'share':>8}")
    mean_latency = statistics.fmean(latency)
    for name in list(LAYER_METRICS.values()) + ["harness.unattributed_ms"]:
        values = [row[name] for row in rows]
        tail_value, tail_pct = tail(values)
        print(f"  {name:<32}{statistics.fmean(values):>10.3f}"
              f"{statistics.median(values):>10.3f}{tail_value:>10.3f}"
              f"{statistics.fmean(values) / mean_latency:>8.1%}")
    print(f"  (tail = p{tail_pct:.1f} of {len(values)} traced requests)")
    for name, (value, unit) in metrics.items():
        if unit != "ms":
            print(f"  {name:<40} {value:>12.4f} {unit}")
    checks = purpose_checks(workload.name, metrics, mean_latency, searches)
    for line in checks:
        print(f"  purpose: {line}")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def purpose_checks(name, metrics, mean_latency, searches) -> list[str]:
    """The property each workload exists to exercise, as PASS/FAIL lines."""
    value = {key: v for key, (v, _unit) in metrics.items()}

    def line(ok: bool, text: str) -> str:
        return f"{'PASS' if ok else 'FAIL'} {text}"

    if name == "plan-cold":
        share = value["optimizer.plan_ms"] / mean_latency
        return [line(share >= 0.5, f"optimizer.plan_ms is {share:.1%} of request time (>= 50%)")]
    if name == "tcp-hot":
        return [
            line(searches == 0 and value["optimizer.plans_costed"] == 0,
                 f"no plan searches in the timed phase ({searches} searches, "
                 f"{value['optimizer.plans_costed']:.0f} plans costed)"),
            line(value["sources.cache_evictions"] > 0,
                 f"sources.cache_evictions = {value['sources.cache_evictions']:.0f} > 0"),
        ]
    return [
        line(value["replan.searches"] > 0,
             f"replan.searches = {value['replan.searches']:.0f} > 0"),
        line(value["sources.retries"] > 0,
             f"sources.retries = {value['sources.retries']:.0f} > 0"),
    ]
