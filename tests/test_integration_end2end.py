"""End-to-end integration: the full pipeline across the scenario matrix.

Each test exercises a complete user journey -- generate data, build the
scenario, optimize with a search scheme, execute, verify against the
oracle, serialize the plan, reload and re-execute -- the way a deployed
middleware would use the library.
"""

import pytest

from repro.algorithms.nc import NC
from repro.bench.harness import nc_with_dummy_planner, run_algorithm
from repro.bench.scenarios import matrix_scenarios, travel_q1
from repro.core.framework import FrameworkNC
from repro.core.policies import SRGPolicy
from repro.optimizer.optimizer import NCOptimizer
from repro.optimizer.sampling import dummy_uniform_sample, sample_from_dataset
from repro.optimizer.search import HillClimb, NaiveGrid, Strategies
from repro.query import parse_query, run_query
from repro.serialization import plan_from_json, plan_to_json


class TestFullPipelinePerScheme:
    @pytest.mark.parametrize(
        "scheme_factory",
        [lambda: NaiveGrid(4), Strategies, lambda: HillClimb(restarts=1)],
        ids=["naive", "strategies", "hclimb"],
    )
    def test_optimize_execute_verify(self, scheme_factory):
        scenario = travel_q1(n=500, k=5)
        sample = sample_from_dataset(scenario.dataset, 100, seed=1)
        plan = NCOptimizer(scheme=scheme_factory()).plan(
            sample,
            scenario.fn,
            scenario.k,
            scenario.n,
            scenario.cost_model,
            min_sample_k=2,
        )
        row = run_algorithm(NC(plan=plan), scenario)
        assert row.correct
        assert row.cost > 0


class TestMatrixPipeline:
    def test_optimize_serialize_reload_execute_everywhere(self):
        """Across every capability cell: plan, persist, reload, run."""
        optimizer = NCOptimizer(scheme=Strategies())
        for scenario in matrix_scenarios(n=200, k=5):
            sample = dummy_uniform_sample(scenario.m, 80, seed=2)
            plan = optimizer.plan(
                sample,
                scenario.fn,
                scenario.k,
                scenario.n,
                scenario.cost_model,
                no_wild_guesses=scenario.no_wild_guesses,
            )
            reloaded = plan_from_json(plan_to_json(plan))
            row = run_algorithm(NC(plan=reloaded), scenario)
            assert row.correct, scenario.name


class TestDeclarativePipeline:
    def test_sql_to_answer_with_optimization(self):
        scenario = travel_q1(n=400, k=5)
        query = parse_query(
            "SELECT name FROM restaurants "
            "ORDER BY min(rating, close) STOP AFTER 5"
        )
        middleware = scenario.middleware()
        result = run_query(
            query,
            middleware,
            schema=["rating", "close"],
            algorithm=nc_with_dummy_planner(scheme=Strategies(), sample_size=60),
        )
        oracle = scenario.oracle()
        assert sorted(round(s, 9) for s in result.scores) == sorted(
            round(entry.score, 9) for entry in oracle
        )


class TestSequentialParallelAgreement:
    def test_same_plan_same_answer_and_cost(self):
        scenario = travel_q1(n=400, k=5)
        plan = NCOptimizer(scheme=Strategies()).plan(
            sample_from_dataset(scenario.dataset, 80, seed=4),
            scenario.fn,
            scenario.k,
            scenario.n,
            scenario.cost_model,
            min_sample_k=2,
        )
        mw_seq = scenario.middleware()
        seq = FrameworkNC(
            mw_seq, scenario.fn, scenario.k, SRGPolicy(plan.depths, plan.schedule)
        ).run()
        mw_par = scenario.middleware()
        par = FrameworkNC(
            mw_par,
            scenario.fn,
            scenario.k,
            SRGPolicy(plan.depths, plan.schedule),
            concurrency=4,
        ).execute()
        assert sorted(par.result.scores) == sorted(seq.scores)
        assert par.total_cost == mw_seq.stats.total_cost()
        assert par.elapsed <= mw_seq.stats.total_cost()
