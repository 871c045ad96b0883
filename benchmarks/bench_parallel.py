"""E8 -- parallelization on top of the sequential plan (Section 9.1.1).

Runs the optimized NC plan for scenario S2 under concurrency bounds
c in {1, 2, 4, 8, 16}, in both speculation modes:

* ``none``  -- only accesses the sequential schedule issues; total cost
  stays flat at the sequential figure, elapsed time drops until the
  plan's natural width saturates;
* ``eager`` -- waves are packed with second-choice accesses; elapsed time
  keeps dropping with c, at a measured total-cost premium.

Elapsed time is virtual (unit-cost latencies), so at c = 1 -- where the
engine runs its sequential core -- elapsed equals Eq. 1 total cost: the
paper's sequential equivalence.
"""

from repro.bench.reporting import ascii_table
from repro.bench.scenarios import s2
from repro.core.framework import FrameworkNC
from repro.core.policies import SRGPolicy
from repro.optimizer.optimizer import NCOptimizer
from repro.optimizer.sampling import dummy_uniform_sample
from repro.optimizer.search import NaiveGrid

CONCURRENCIES = (1, 2, 4, 8, 16)


def optimized_policy(scenario):
    plan = NCOptimizer(scheme=NaiveGrid(6)).plan(
        dummy_uniform_sample(scenario.m, 150, seed=3),
        scenario.fn,
        scenario.k,
        scenario.n,
        scenario.cost_model,
        no_wild_guesses=scenario.no_wild_guesses,
    )
    return lambda: SRGPolicy(plan.depths, plan.schedule)


def run_sweep(scenario, make_policy, speculation):
    outcomes = []
    for c in CONCURRENCIES:
        engine = FrameworkNC(
            scenario.middleware(),
            scenario.fn,
            scenario.k,
            make_policy(),
            concurrency=c,
            speculation=speculation,
        )
        outcomes.append(engine.execute())
    return outcomes


def test_parallel_sweep(benchmark, report):
    scenario = s2(n=1000, k=10)
    make_policy = optimized_policy(scenario)
    rows = []
    results = {}
    for mode in ("none", "eager"):
        outcomes = run_sweep(scenario, make_policy, mode)
        results[mode] = outcomes
        baseline = outcomes[0].elapsed
        for outcome in outcomes:
            rows.append(
                [
                    mode,
                    outcome.concurrency,
                    outcome.elapsed,
                    outcome.total_cost,
                    outcome.waves,
                    100.0 * outcome.elapsed / baseline,
                ]
            )
    report(
        "E8",
        "Bounded-concurrency execution (S2, optimized plan)",
        ascii_table(
            ["mode", "c", "elapsed", "total cost", "waves", "elapsed % of c=1"],
            rows,
        ),
    )

    lazy = results["none"]
    eager = results["eager"]
    sequential_cost = lazy[0].total_cost
    # Sequential equivalence at c=1.
    assert lazy[0].elapsed == sequential_cost
    # Default mode: flat total cost, monotone-nonincreasing elapsed.
    for outcome in lazy:
        assert outcome.total_cost == sequential_cost
    assert lazy[-1].elapsed < lazy[0].elapsed
    # Eager mode reaches lower elapsed at high c than default mode.
    assert eager[-1].elapsed <= lazy[-1].elapsed
    # The E8 table itself, pinned: default mode runs the sequential
    # plan's 203 accesses one wave each at c = 1 and in 105 waves from
    # c = 2 on (the plan's natural width is 2); eager mode pays 7 extra
    # accesses at c = 2 and 196 from c = 4 on.
    for outcome in lazy:
        width = 203 if outcome.concurrency == 1 else 105
        assert outcome.total_cost == 203
        assert outcome.elapsed == width and outcome.waves == width
    assert [outcome.total_cost for outcome in eager] == [203, 210, 399, 399, 399]
    # All answers exact.
    oracle = scenario.oracle()
    for outcome in lazy + eager:
        assert sorted(outcome.result.scores) == sorted(
            entry.score for entry in oracle
        )

    benchmark.pedantic(
        lambda: run_sweep(scenario, make_policy, "none"), rounds=2, iterations=1
    )
