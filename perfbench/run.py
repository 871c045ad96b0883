"""End-to-end and per-layer benchmark of the top-k serving stack.

Usage (from the repository root)::

    python3 perfbench/run.py --workload plan-cold --seed 1 --seconds 20 --trace 0

One run measures one workload in this process.  It makes a fixed number
of *passes* -- fresh set-up, then the workload's request list -- about
``--seconds`` worth at reference speed (at least two), and

* checks every answer against brute force (``Dataset.topk``), Eq. 1
  reconciliation from the server's ``stats`` op, and that every pass
  reproduced the first pass's exact counts;
* with ``--trace 0`` reports the end-to-end metrics, wall times calibrated
  against the reference computation of ``calib.py`` (raw ms printed
  beside them for information);
* with ``--trace 1`` alternates untraced and traced passes and reports the
  per-layer metrics, a layer report, and the tracing overhead; spans are
  written to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit status
is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import pathlib
import resource
import statistics
import sys

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
#: Fewest passes of a run (the exact-count check compares them).
MIN_PASSES = 2
#: The latency tail is the highest percentile with this many samples beyond it.
TAIL_BEYOND = 10


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# Stats-op helpers
# ----------------------------------------------------------------------


def total(stats: dict, name: str, **labels: str) -> float:
    """Sum of one counter family in a stats snapshot, optionally filtered."""
    wanted = [f'{key}="{value}"' for key, value in labels.items()]
    out = 0.0
    for key, value in stats["metrics"]["counters"].items():
        if key == name or key.startswith(name + "{"):
            if all(w in key for w in wanted):
                out += value
    return out


def delta(p, name: str, **labels: str) -> float:
    return total(p.after, name, **labels) - total(p.before, name, **labels)


def reconcile(p) -> list[str]:
    """Eq. 1 reconciliation of one pass; returns the mismatches found."""
    problems = []
    after = p.after

    def same(label, a, b):
        if not math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-6):
            problems.append(f"{label}: {a} != {b}")

    same("metric accesses vs server charged accesses",
         total(after, "repro_accesses_total"), after["charged_accesses_total"])
    same("metric cost vs server charged cost",
         total(after, "repro_access_cost_total"), after["charged_cost_total"])
    same("metric cached accesses vs cache hits",
         total(after, "repro_cached_accesses_total"), after["cache"]["hits"])
    same("cache-layer hit metric vs cache hits",
         total(after, "repro_cache_hits_total"), after["cache"]["hits"])
    same("completed sessions vs session metric",
         total(after, "repro_sessions_total", status="done"), after["completed"])
    answered = [r for r in p.requests if r.ok]
    if len(answered) == len(p.requests):
        same("per-session charged cost vs server delta",
             sum(r.charged_cost for r in p.requests),
             after["charged_cost_total"] - p.before["charged_cost_total"])
        same("per-session cache hits vs cache-hit delta",
             sum(r.cache_hits for r in p.requests),
             after["cache"]["hits"] - p.before["cache"]["hits"])
    return problems


def exact_counts(p) -> dict:
    """The counts two passes over the same inputs must reproduce exactly."""
    return {
        "charged_cost": p.after["charged_cost_total"] - p.before["charged_cost_total"],
        "charged_accesses": p.after["charged_accesses_total"]
        - p.before["charged_accesses_total"],
        "cached_accesses": p.after["cache"]["hits"] - p.before["cache"]["hits"],
        "per_request": [(r.charged_cost, r.cache_hits) for r in p.requests],
        "plans_costed": delta(p, "repro_estimator_runs_total"),
        "replans": {
            outcome: count - p.before["replans"].get(outcome, 0)
            for outcome, count in p.after["replans"].items()
        },
        "evictions": p.after["cache"]["evictions"] - p.before["cache"]["evictions"],
        "retries": delta(p, "repro_retries_total"),
    }


# ----------------------------------------------------------------------
# Timing helpers
# ----------------------------------------------------------------------


def rounds(p, size: int) -> list[tuple[float, float]]:
    """Wall intervals of the pass's request rounds (``size`` requests each)."""
    out = []
    for first in range(0, len(p.requests), size):
        batch = p.requests[first:first + size]
        out.append((min(r.start for r in batch), max(r.end for r in batch)))
    return out


def busy_ms(cal, p, size: int) -> float:
    """Calibrated time the pass spent serving requests (reference runs excluded)."""
    return sum(cal.to_ms(a, b) for a, b in rounds(p, size))


def busy_raw_ms(p, size: int) -> float:
    return sum((b - a) * 1e3 for a, b in rounds(p, size))


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND beyond it."""
    ordered = sorted(values)
    index = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def latencies_ms(cal, passes, raw: bool = False) -> list[float]:
    """Every request latency of the given passes, calibrated unless ``raw``."""
    return [
        (r.end - r.start) * 1e3 if raw else cal.to_ms(r.start, r.end)
        for p in passes
        for r in p.requests
    ]


# ----------------------------------------------------------------------
# Main
# ----------------------------------------------------------------------


def warm_process(workload, cal, expected) -> list[str]:
    """Untimed warm-up pass over the first two rounds; returns wrong answers.

    The first requests of a fresh process pay lazy imports and first-call
    costs that no served query pays.
    """
    full = workload.requests
    workload.requests = full[:2 * workload.round_size]
    try:
        warm = workload.run_pass(cal, expected)
    finally:
        workload.requests = full
    return [r.problem for r in warm.requests if r.problem]


def run_passes(workload, seconds, cal, expected, tracer=None):
    """Run the passes, alternating untraced and traced ones under ``tracer``.

    A run makes ``--seconds`` / ``workload.pass_seconds`` passes, rounded:
    a fixed count, so the latency sample count and tail percentile do not
    change with the machine's speed.  Each pass starts from a collected
    heap, so a garbage collection triggered by an earlier pass's
    allocations does not land in it.
    """
    untraced, traced = [], []
    count = max(MIN_PASSES, round(seconds / workload.pass_seconds))
    while len(untraced) + len(traced) < count:
        gc.collect()
        if tracer is not None and len(traced) < len(untraced):
            tracer.install(len(traced))
            try:
                traced.append(workload.run_pass(cal, expected))
            finally:
                tracer.uninstall()
        else:
            untraced.append(workload.run_pass(cal, expected))
    return untraced, traced


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the repro package is missing under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from calib import Calibrator, WINDOW
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    expected = workload.expected()
    cal = Calibrator()
    cal.sample(WINDOW)
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
    problems = warm_process(workload, cal, expected)
    untraced, traced = run_passes(workload, args.seconds, cal, expected, tracer)
    passes = untraced + traced

    attempted = sum(len(p.requests) for p in passes)
    failed = 0
    for p in passes:
        bad = reconcile(p)
        problems.extend(bad)
        failed += len(p.requests) if bad else sum(1 for r in p.requests if not r.ok)
        problems.extend(r.problem for r in p.requests if r.problem)
    reference = exact_counts(passes[0])
    for number, p in enumerate(passes[1:], start=2):
        counts = exact_counts(p)
        if counts != reference:
            diff = sorted(k for k in counts if counts[k] != reference[k])
            problems.append(
                f"pass {number} did not reproduce the exact counts of pass 1 "
                f"for seed {args.seed} ({', '.join(diff)})"
            )
            failed += len(p.requests)
    failed = min(failed, attempted)
    for problem in problems[:20]:
        print(f"perfbench: {workload.name}: {problem}", file=sys.stderr)

    if args.trace:
        import layers
        metrics = layers.report(workload, cal, untraced, traced, tracer, reference)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{workload.name}-seed{args.seed}.jsonl")
    else:
        metrics = end_to_end(workload, cal, untraced, attempted, failed)

    correct = not problems
    print(json_line(correct, attempted, failed, metrics))
    return 0 if correct else 1


def end_to_end(workload, cal, passes, attempted, failed) -> dict:
    size = workload.round_size
    count = len(passes[0].requests)
    latency = latencies_ms(cal, passes)
    latency_raw = latencies_ms(cal, passes, raw=True)
    tail_ms, tail_pct = tail(latency)
    tail_raw, _ = tail(latency_raw)
    busy = statistics.median(busy_ms(cal, p, size) for p in passes)
    busy_raw = statistics.median(busy_raw_ms(p, size) for p in passes)
    setup = statistics.median(cal.to_ms(*p.setup) / 1e3 for p in passes)
    setup_raw = statistics.median(p.setup[1] - p.setup[0] for p in passes)
    cost = exact_counts(passes[0])["charged_cost"] / count
    metrics = {
        "setup_s": (setup, "s", setup_raw),
        "latency_p50_ms": (statistics.median(latency), "ms", statistics.median(latency_raw)),
        "latency_tail_ms": (tail_ms, "ms", tail_raw),
        "throughput_qps": (count / (busy / 1e3), "1/s", count / (busy_raw / 1e3)),
        "access_cost_per_query": (cost, "cost", None),
        "answered_frac": ((attempted - failed) / attempted, "ratio", None),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", None
        ),
    }
    print(f"workload {workload.name}: {len(passes)} passes x {count} requests; "
          f"setup_s is the median of the passes' set-ups; latency tail = "
          f"p{tail_pct:.1f} of {len(latency)} requests; reference call "
          f"{cal.speed():.4f} raw ms (median of {cal.samples})")
    for name, (value, unit, raw) in metrics.items():
        raw_text = "" if raw is None else f"  (raw {raw:.4f})"
        print(f"  {name:<24} {value:>14.4f} {unit}{raw_text}")
    return {name: {"value": value, "unit": unit} for name, (value, unit, _raw) in metrics.items()}


def json_line(correct, attempted, failed, metrics) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    })


if __name__ == "__main__":
    sys.exit(main())
