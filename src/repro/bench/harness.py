"""Run algorithms on scenarios with verification and accounting.

Each run gets a fresh metered middleware, executes, and is verified
against the scenario's brute-force oracle by *score multiset* (the
baselines may legitimately return a different member of a score-tie
group; see :mod:`repro.algorithms.base`). Cost numbers come straight from
the middleware's Eq. 1 accounting, so every comparison in the benchmark
suite is exact by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.algorithms.base import TopKAlgorithm
from repro.algorithms.nc import NC
from repro.bench.scenarios import Scenario
from repro.exceptions import CapabilityError
from repro.optimizer.optimizer import NCOptimizer
from repro.optimizer.sampling import dummy_uniform_sample, sample_from_dataset
from repro.optimizer.search import SearchScheme
from repro.types import QueryResult


@dataclass
class AlgoRow:
    """One algorithm's outcome on one scenario."""

    scenario: str
    algorithm: str
    cost: float
    sorted_accesses: int
    random_accesses: int
    correct: bool
    result: QueryResult


def verify(result: QueryResult, scenario: Scenario) -> bool:
    """Score-multiset equivalence against the brute-force oracle."""
    oracle = scenario.oracle()
    if len(result.ranking) != len(oracle):
        return False
    got = sorted(round(score, 9) for score in result.scores)
    want = sorted(round(entry.score, 9) for entry in oracle)
    return got == want


def run_algorithm(
    algorithm: TopKAlgorithm,
    scenario: Scenario,
    middleware_factory: Optional[Callable[[Scenario], "Middleware"]] = None,
) -> AlgoRow:
    """Execute one algorithm on a fresh middleware and verify it.

    ``middleware_factory`` substitutes a custom middleware per run --
    the chaos benchmarks use it to wrap the scenario's sources in fault
    injectors while keeping verification against the clean oracle.
    """
    if middleware_factory is not None:
        middleware = middleware_factory(scenario)
    else:
        middleware = scenario.middleware()
    result = algorithm.run(middleware, scenario.fn, scenario.k)
    return AlgoRow(
        scenario=scenario.name,
        algorithm=result.algorithm or algorithm.name,
        cost=middleware.stats.total_cost(),
        sorted_accesses=middleware.stats.total_sorted,
        random_accesses=middleware.stats.total_random,
        correct=verify(result, scenario),
        result=result,
    )


def compare(
    scenario: Scenario,
    algorithms: Sequence[TopKAlgorithm],
    skip_incapable: bool = True,
    middleware_factory: Optional[Callable[[Scenario], "Middleware"]] = None,
) -> list[AlgoRow]:
    """Run several algorithms on the same scenario.

    Algorithms structurally incompatible with the scenario's capabilities
    (e.g. TA where random access is impossible) are skipped when
    ``skip_incapable`` is set, mirroring the empty cells of Figure 2.
    """
    rows = []
    for algorithm in algorithms:
        try:
            rows.append(run_algorithm(algorithm, scenario, middleware_factory))
        except CapabilityError:
            if not skip_incapable:
                raise
    return rows


def nc_with_dummy_planner(
    scheme: Optional[SearchScheme] = None,
    sample_size: int = 100,
    seed: int = 0,
    clock: Optional[Callable[[], float]] = None,
) -> NC:
    """The paper's worst-case NC: optimize on dummy uniform samples.

    ``clock`` (e.g. ``time.perf_counter``) opts into per-phase wall-time
    reporting in plan notes.
    """
    optimizer = NCOptimizer(scheme=scheme, clock=clock)
    return NC(optimizer=optimizer, sample_size=sample_size, seed=seed)


def nc_with_true_sample_planner(
    scenario: Scenario,
    scheme: Optional[SearchScheme] = None,
    sample_size: int = 100,
    seed: int = 0,
    min_sample_k: Optional[int] = None,
    clock: Optional[Callable[[], float]] = None,
) -> NC:
    """NC planning on a true-distribution sample of the scenario's data.

    ``min_sample_k`` opts into bootstrap amplification against the
    small-``k_s`` distortion of proportional sample scaling.
    """
    optimizer = NCOptimizer(scheme=scheme, clock=clock)
    sample = sample_from_dataset(scenario.dataset, sample_size, seed=seed)

    def planner(middleware, fn, k):
        return optimizer.plan(
            sample,
            fn,
            k,
            middleware.n_objects,
            middleware.cost_model,
            no_wild_guesses=middleware.no_wild_guesses,
            min_sample_k=min_sample_k,
        )

    return NC(planner=planner)
