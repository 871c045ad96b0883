"""A/B two checkouts on every perfbench workload and write a BENCH JSON.

Runs ``perfbench/run.py`` from each checkout in alternating order
(``--trace 0`` for the end-to-end numbers, then one ``--trace 1`` run
for the per-layer numbers and exact counts), and records per side the
median calibrated and raw end-to-end metrics (``peak_rss_mb`` has no
raw form), the traced layer times and the exact counts. Run from the
repository root::

    python tools/perfbench_ab.py PARENT_DIR CHANGE_DIR --out BENCH_x.json

Each checkout must hold ``perfbench/`` and ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys

END_TO_END = (
    "setup_s",
    "latency_p50_ms",
    "latency_tail_ms",
    "throughput_qps",
    "peak_rss_mb",
)
LAYERS = (
    "query.compile_ms",
    "optimizer.plan_ms",
    "engine.self_ms",
    "replan.search_ms",
)
EXACT = (
    "access_cost_per_query",
    "answered_frac",
    "optimizer.plans_costed",
    "optimizer.runs_kernel",
    "optimizer.runs_reference",
    "optimizer.runs_frontier",
    "replan.checks",
    "replan.searches",
    "replan.switches",
    "sources.cache_evictions",
    "sources.cache_hit_rate",
)
_RAW = re.compile(r"^\s+(\S+)\s+\S+ \S+\s+\(raw (\S+)\)")


def run(checkout: str, workload: str, args: argparse.Namespace, trace: int) -> dict:
    """One perfbench run: its JSON metrics plus the printed raw values."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{checkout} {workload} trace={trace} failed:\n{proc.stderr}")
    result = json.loads(lines[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    raw = {m[1]: float(m[2]) for m in map(_RAW.match, lines) if m}
    return {"correct": result["correct"], "values": values, "raw": raw}


def summarize(untraced: list[dict], traced: dict) -> dict:
    """One side's medians, per-run values, layer times and exact counts."""
    exact = {**traced["values"], **untraced[0]["values"]}
    return {
        "calibrated": {
            name: statistics.median(r["values"][name] for r in untraced)
            for name in END_TO_END
        },
        "raw": {
            name: statistics.median(r["raw"][name] for r in untraced)
            for name in END_TO_END
            if name in untraced[0]["raw"]
        },
        "runs": {
            name: [r["values"][name] for r in untraced] for name in END_TO_END
        },
        "layers_ms": {name: traced["values"][name] for name in LAYERS},
        "exact": {name: exact[name] for name in EXACT},
        "correct": all(r["correct"] for r in untraced) and traced["correct"],
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--out", required=True)
    parser.add_argument("--experiment", default="perfbench A/B")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    args = parser.parse_args()
    with open(os.path.join(args.change, "BENCHMARK.json")) as handle:
        workloads = [w["name"] for w in json.load(handle)["workloads"]]
    report: dict = {
        "experiment": args.experiment,
        "quick": False,
        "command": "python3 perfbench/run.py --workload W "
        f"--seed {args.seed} --seconds {args.seconds} --trace 0|1",
        "pairs": args.pairs,
        "hardware": f"{os.cpu_count()}-core {platform.machine()}, "
        f"Python {platform.python_version()}",
        "workloads": {},
    }
    for workload in workloads:
        sides = {"parent": args.parent, "change": args.change}
        untraced: dict[str, list[dict]] = {"parent": [], "change": []}
        for pair in range(args.pairs):
            order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
            for side in order:
                untraced[side].append(run(sides[side], workload, args, 0))
        entry = {
            side: summarize(untraced[side], run(sides[side], workload, args, 1))
            for side in sides
        }
        entry["p50_change_pct"] = 100.0 * (
            entry["change"]["calibrated"]["latency_p50_ms"]
            / entry["parent"]["calibrated"]["latency_p50_ms"] - 1.0
        )
        parent_p50 = entry["parent"]["runs"]["latency_p50_ms"]
        quartiles = statistics.quantiles(parent_p50, n=4)
        entry["p50_parent_iqr_ms"] = quartiles[2] - quartiles[0]
        entry["p50_pairs_won"] = sum(
            c < p
            for p, c in zip(parent_p50, entry["change"]["runs"]["latency_p50_ms"])
        )
        entry["identical_exact_counts"] = (
            entry["parent"]["exact"] == entry["change"]["exact"]
        )
        report["workloads"][workload] = entry
        print(
            f"{workload}: p50 {entry['p50_change_pct']:+.1f}%, "
            f"won {entry['p50_pairs_won']}/{args.pairs} pairs",
            flush=True,
        )
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
