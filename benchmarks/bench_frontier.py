"""E23 -- frontier batch costing: plans-as-columns vs. the per-plan path.

E21 measured the scalar fast-path kernel against the reference engine;
this benchmark measures the next layer up -- the
:class:`~repro.optimizer.frontier.FrontierKernel` costing an entire
search frontier in one lockstep numpy pass, against the per-plan E21
path (``CostEstimator.estimate`` in a loop over the same plans). Both
paths must price every plan bitwise-identically (the frontier kernel's
contract) and any fallback must show up in the embedded metrics
snapshot, never silently.

The committed artifact is the canonical ``BENCH_frontier.json`` at the
repo root, tracked PR-over-PR next to ``BENCH_kernel.json``.

Runs two ways:

* under pytest with the benchmark suite (asserts bitwise cost equality,
  identical chosen plans, zero fallbacks, and the >= 3x warm-speedup
  floor on the gate configs);
* as a script -- ``python benchmarks/bench_frontier.py [--quick]`` --
  for the CI ``costing-smoke`` job, exiting nonzero if the frontier
  path was not selected, fell back, or disagrees with the per-plan path.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

from repro.determinism import derive_rng
from repro.obs.metrics import MetricsRegistry
from repro.optimizer.estimator import CostEstimator
from repro.optimizer.sampling import dummy_uniform_sample
from repro.optimizer.search import NaiveGrid
from repro.scoring.functions import Avg, Min, ScoringFunction, WeightedSum
from repro.sources.cost import CostModel

RESULT_FILE = pathlib.Path(__file__).parent.parent / "BENCH_frontier.json"

K = 10
N_TOTAL = 1000


def frontier_panel(m: int, count: int, seed: str) -> list[tuple[float, ...]]:
    """A deterministic frontier of ``count`` random depth vectors."""
    rng = derive_rng(f"bench-frontier-{seed}-{m}-{count}")
    return [tuple(rng.random() for _ in range(m)) for _ in range(count)]


def _estimator(
    fn: ScoringFunction,
    sample_size: int = 100,
    metrics: MetricsRegistry | None = None,
    vectorized: bool = True,
) -> CostEstimator:
    m = fn.arity
    sample = dummy_uniform_sample(m, sample_size, seed=3)
    model = CostModel(tuple([1.0] * m), tuple([2.0] * m))
    return CostEstimator(
        sample,
        fn,
        K,
        N_TOTAL,
        model,
        vectorized=vectorized,
        verify=False,
        metrics=metrics,
    )


def run_config(
    label: str,
    fn: ScoringFunction,
    panel_size: int,
    sample_size: int = 100,
    repeats: int = 5,
    metrics: MetricsRegistry | None = None,
) -> dict:
    """Measure one scenario: frontier batch vs. per-plan loop.

    Cold includes the fresh estimator's index build; warm re-prices the
    same frontier with the LRU cache cleared (so simulation work, not
    cache hits, is what gets timed). Best-of-``repeats`` filters
    scheduler noise -- the simulation itself is deterministic.
    """
    panel = frontier_panel(fn.arity, panel_size, label)
    result: dict = {
        "label": label,
        "plans_per_frontier": len(panel),
        "sample_size": sample_size,
    }
    costs: dict = {}
    counters: dict = {}
    for name, use_frontier in (("frontier", True), ("per_plan", False)):
        cold_s = warm_s = float("inf")
        for _ in range(repeats):
            est = _estimator(fn, sample_size, metrics)
            start = time.perf_counter()
            if use_frontier:
                batch = est.estimate_frontier(panel)
            else:
                batch = [est.estimate(d) for d in panel]
            cold_once = time.perf_counter() - start
            est._cache.clear()
            start = time.perf_counter()
            if use_frontier:
                warm_batch = est.estimate_frontier(panel)
            else:
                warm_batch = [est.estimate(d) for d in panel]
            warm_once = time.perf_counter() - start
            cold_s = min(cold_s, cold_once)
            warm_s = min(warm_s, warm_once)
        costs[name] = (batch, warm_batch)
        counters[name] = {
            "frontier_runs": est.frontier_runs,
            "frontier_batches": est.frontier_batches,
            "fallbacks": est.fallbacks,
            "kernel_runs": est.kernel_runs,
        }
        result[name] = {
            "cold_s": cold_s,
            "warm_s": warm_s,
            "cold_plans_per_s": len(panel) / cold_s if cold_s else None,
            "warm_plans_per_s": len(panel) / warm_s if warm_s else None,
            **counters[name],
        }
    # Bitwise cost identity is the frontier kernel's contract, checked
    # on the actual measured batches (cold and warm).
    result["identical_costs"] = costs["frontier"] == costs["per_plan"]
    result["speedup_cold"] = (
        result["per_plan"]["cold_s"] / result["frontier"]["cold_s"]
    )
    result["speedup_warm"] = (
        result["per_plan"]["warm_s"] / result["frontier"]["warm_s"]
    )
    return result


def identical_chosen_plans(resolution: int = 7) -> bool:
    """The lockstep replay picks the plan the reference engine picks."""
    chosen = []
    for vectorized in (True, False):
        est = _estimator(Min(3), vectorized=vectorized)
        chosen.append(NaiveGrid(resolution=resolution).search(est).depths)
    return chosen[0] == chosen[1]


#: (label, fn, frontier size, sample size). Configs holding the >= 3x
#: warm-speedup gate (ISSUE 9 acceptance); the P64 gate uses a larger
#: sample so simulation work (not numpy dispatch) dominates both paths.
GATED = [
    ("S1-min-m3-P64", Min(3), 64, 200),
    ("S1-min-m3-P256", Min(3), 256, 100),
    ("S2-wsum-m3-P256", WeightedSum([0.3, 0.4, 0.5]), 256, 100),
    ("S3-avg-m2-P256", Avg(2), 256, 100),
]

#: Tracked without a speedup gate: small sum frontiers on small samples
#: are numpy dispatch-bound and sit below 3x.
RECORDED = [
    ("S1-min-m2-P64", Min(2), 64, 100),
    ("S2-wsum-m3-P64", WeightedSum([0.3, 0.4, 0.5]), 64, 100),
    ("S3-avg-m3-P256", Avg(3), 256, 100),
]


def run_suite(quick: bool = False) -> dict:
    if quick:
        gated = [("S1-min-m3-P64-quick", Min(3), 64, 200)]
        recorded: list = []
    else:
        gated, recorded = GATED, RECORDED
    metrics = MetricsRegistry()
    payload = {
        "experiment": "E23 frontier batch costing",
        "quick": quick,
        "gated_configs": [
            run_config(*cfg, metrics=metrics) for cfg in gated
        ],
        "recorded_configs": [
            run_config(*cfg, metrics=metrics) for cfg in recorded
        ],
        "identical_chosen_plans": identical_chosen_plans(),
        # The estimator registry across every measured run: fallbacks
        # (if any) are visible here, never silent.
        "metrics": metrics.snapshot(),
    }
    RESULT_FILE.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def _config_ok(cfg: dict) -> bool:
    """The invariants every config must hold, gated or not."""
    front = cfg["frontier"]
    return (
        cfg["identical_costs"]
        and front["fallbacks"] == 0
        # One batch each for the cold and the warm measurement, every
        # plan priced on the frontier path (none leaked to per-plan).
        and front["frontier_batches"] == 2
        and front["frontier_runs"] == 2 * cfg["plans_per_frontier"]
        and front["kernel_runs"] == 0
    )


def test_frontier_throughput(benchmark, report):
    payload = run_suite(quick=False)
    lines = []
    for cfg in payload["gated_configs"] + payload["recorded_configs"]:
        gated = cfg in payload["gated_configs"]
        lines.append(
            f"{cfg['label']}: {cfg['plans_per_frontier']} plans/frontier  "
            f"frontier warm {cfg['frontier']['warm_plans_per_s']:.0f} plans/s  "
            f"per-plan warm {cfg['per_plan']['warm_plans_per_s']:.0f} plans/s  "
            f"speedup cold {cfg['speedup_cold']:.1f}x warm "
            f"{cfg['speedup_warm']:.1f}x" + ("" if gated else "  (recorded)")
        )
        # Correctness before performance, on every config.
        assert _config_ok(cfg), cfg["label"]
        if gated:
            # The ISSUE 9 acceptance floor on frontiers >= 64 plans.
            assert cfg["speedup_warm"] >= 3.0, cfg["label"]
    assert payload["identical_chosen_plans"]
    report("E23", "Frontier batch vs per-plan estimator", "\n".join(lines))

    est = _estimator(Min(3))
    panel = frontier_panel(3, 64, "pedantic")

    def _run():
        est._cache.clear()
        est.estimate_frontier(panel)

    benchmark.pedantic(_run, rounds=3, iterations=1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="one small config for CI smoke runs",
    )
    args = parser.parse_args(argv)
    payload = run_suite(quick=args.quick)
    ok = payload["identical_chosen_plans"]
    for cfg in payload["gated_configs"] + payload["recorded_configs"]:
        good = _config_ok(cfg)
        status = "ok" if good else "MISMATCH/FALLBACK"
        print(
            f"{cfg['label']}: speedup cold {cfg['speedup_cold']:.1f}x, "
            f"warm {cfg['speedup_warm']:.1f}x, {status}"
        )
        ok = ok and good
    print(f"identical chosen plans: {payload['identical_chosen_plans']}")
    print(f"wrote {RESULT_FILE}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
