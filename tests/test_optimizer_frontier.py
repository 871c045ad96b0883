"""Plan costing through the estimator and the search layer built on it.

Every plan is priced one at a time by the per-plan fast path
(:meth:`SampleIndex.simulate`). These tests pin that it agrees with the
reference engine (:func:`reference_cost`) bit for bit, with contracts
armed or not, including memoization, run accounting and errors, and
cover the search-layer features on top: coarse-to-fine
``NaiveGrid`` refinement, ``HillClimb`` warm starts, and the server's
per-(expression, k) plan memory.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.data.generators import uniform
from repro.exceptions import OptimizationError, UnanswerableQueryError
from repro.optimizer.estimator import CostEstimator, reference_cost
from repro.optimizer.optimizer import NCOptimizer
from repro.optimizer.sampling import dummy_uniform_sample
from repro.optimizer.search import HillClimb, NaiveGrid
from repro.scoring.functions import (
    Avg,
    Geometric,
    Max,
    Min,
    Product,
    WeightedSum,
)
from repro.service import QueryServer, ServerConfig
from repro.sources.cost import CostModel
from tests.test_optimizer_kernel import (
    OracleEstimator,
    arm_contracts,
    depth_panel,
    depth_value,
)


def _estimator(fn=None, cls=CostEstimator):
    fn = fn if fn is not None else Avg(2)
    sample = dummy_uniform_sample(fn.arity, 60, seed=3)
    return cls(sample, fn, 5, 600, CostModel.uniform(fn.arity))


def _costs(est, panel):
    return [est.estimate(depths) for depths in panel]


#: Panel widths from a single plan to a search-sized panel.
WIDTHS = (1, 15, 16, 64)

FUNCTIONS = {
    "Min": Min(2),
    "Max": Max(2),
    "Avg": Avg(2),
    "WeightedSum": WeightedSum([0.3, 0.7]),
    "Product": Product(2),
    "Geometric": Geometric(2),
}


class TestEstimateFrontierEquivalence:
    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("name", sorted(FUNCTIONS))
    def test_modes_agree_exactly_with_serial_loop(self, name, width, monkeypatch):
        # The serial loop is the oracle; the modes are contracts armed
        # (every outcome cross-checked) and not.
        fn = FUNCTIONS[name]
        panel = depth_panel(2, width)
        oracle = _estimator(fn=fn)
        expected = [reference_cost(oracle, depths) for depths in panel]
        for armed in (False, True):
            arm_contracts(monkeypatch, armed)
            est = _estimator(fn=fn)
            assert _costs(est, panel) == expected
            assert est.runs == est.cache_info()["misses"] == width
            # Costs landed in the memo exactly as priced.
            assert _costs(est, panel) == expected
            assert est.runs == width
            assert est.fallbacks == 0
            # Every scoring function takes the per-plan fast path.
            assert est.kernel_runs == width
            assert est.reference_runs == (width if armed else 0)

    def test_duplicates_count_as_cache_hits(self):
        panel = depth_panel(2, 16)
        est = _estimator()
        costs = _costs(est, panel + panel[:5])
        assert costs[len(panel):] == costs[:5]
        assert est.cache_hits == 5
        assert est.kernel_runs == est.runs == len(panel)

    def test_error_semantics_match_serial_loop(self):
        # Unanswerable scenario: the fast path raises the reference
        # engine's error, memoizing nothing.
        sample = dummy_uniform_sample(2, 40, seed=1)
        panel = depth_panel(2, 18)
        est = CostEstimator(sample, Min(2), 3, 400, CostModel.no_sorted(2))
        with pytest.raises(UnanswerableQueryError) as fast:
            _costs(est, panel)
        with pytest.raises(UnanswerableQueryError) as reference:
            reference_cost(est, panel[0])
        assert str(fast.value) == str(reference.value)
        # The failing plan itself counts as run, on neither path.
        assert est.runs == 1
        assert est.kernel_runs == est.reference_runs == 0
        assert est.cache_info()["size"] == 0


class TestSearchIntegration:
    @settings(max_examples=20, deadline=None)
    @given(st.lists(depth_value, min_size=2, max_size=2))
    def test_chosen_plans_identical_across_frontier_switch(self, start):
        # Fast path vs the reference engine.
        results = []
        for cls in (CostEstimator, OracleEstimator):
            est = _estimator(cls=cls)
            results.append(
                HillClimb(seed=7).search(est, warm_starts=[start]).depths
            )
        assert results[0] == results[1]

    def test_grid_chosen_plans_identical_across_frontier_switch(self):
        chosen = []
        for cls in (CostEstimator, OracleEstimator):
            est = _estimator(cls=cls)
            chosen.append(NaiveGrid(resolution=6).search(est).depths)
        assert chosen[0] == chosen[1]

    def test_coarse_to_fine_validation(self):
        with pytest.raises(OptimizationError):
            NaiveGrid(resolution=5, coarse_resolution=5)
        with pytest.raises(OptimizationError):
            NaiveGrid(resolution=5, coarse_resolution=1)

    def test_coarse_to_fine_refines_the_coarse_optimum(self):
        est = _estimator()
        coarse_only = NaiveGrid(resolution=3).search(est)
        refined = NaiveGrid(resolution=9, coarse_resolution=3).search(
            _estimator()
        )
        full = NaiveGrid(resolution=9).search(
            _estimator()
        )
        # The coarse best sits on the fine grid, so refinement can only
        # improve on it -- and never beats the exhaustive fine scan.
        assert refined.cost <= coarse_only.cost
        assert refined.cost >= full.cost
        assert "coarse=3" in NaiveGrid(
            resolution=9, coarse_resolution=3
        ).describe()

    def test_coarse_to_fine_prices_fewer_plans_than_full_grid(self):
        fine = _estimator()
        NaiveGrid(resolution=9).search(fine)
        two_stage = _estimator()
        NaiveGrid(resolution=9, coarse_resolution=3).search(two_stage)
        assert two_stage.runs < fine.runs

    def test_warm_starts_only_add_evaluations(self):
        plain = _estimator()
        plain_result = HillClimb(seed=7).search(plain)
        warm = _estimator()
        warm_result = HillClimb(seed=7).search(
            warm, warm_starts=[plain_result.depths, (2.0, -1.0)]
        )
        # Out-of-range warm points are clipped, not rejected; canonical
        # starts still run, so the warm search can only do better.
        assert warm_result.cost <= plain_result.cost


class TestOptimizerNotes:
    def test_plan_notes_carry_frontier_counters_and_phase_times(self, monkeypatch):
        arm_contracts(monkeypatch, False)
        ticks = itertools.count()
        optimizer = NCOptimizer(
            scheme=NaiveGrid(resolution=6),
            clock=lambda: float(next(ticks)),
        )
        sample = dummy_uniform_sample(2, 60, seed=3)
        plan = optimizer.plan(sample, Avg(2), 5, 600, CostModel.uniform(2))
        notes = plan.notes
        assert notes["kernel_runs"] == plan.estimator_runs > 0
        assert notes["reference_runs"] == 0
        assert notes["fallbacks"] == 0
        assert not any("frontier" in key for key in notes)
        assert set(notes["phase_seconds"]) == {
            "schedule",
            "delta_search",
            "h_optimization",
        }

    def test_trace_timeline_renders_the_optimizer_summary(self):
        from repro.obs.timeline import format_timeline

        events = [
            {"event": "phase", "phase": "schedule", "tick": 0},
            {
                "event": "phase",
                "phase": "done",
                "tick": 5,
                "phase_seconds": {
                    "schedule": 0.0001,
                    "delta_search": 0.0123,
                    "h_optimization": 0.0004,
                },
                "fallbacks": 0,
            },
            {"event": "access", "predicate": 0, "kind": "sorted", "tick": 1},
        ]
        rendered = format_timeline(events)
        assert "optimizer: phases schedule=0.0001s" in rendered
        assert "delta_search=0.0123s" in rendered
        # Zero-valued fallback counters stay out of the summary line.
        assert "fallbacks" not in rendered
        events[1]["fallbacks"] = 2
        assert "fallbacks=2" in format_timeline(events)

    def test_warm_start_threads_through_plan(self):
        optimizer = NCOptimizer(scheme=HillClimb(seed=7))
        sample = dummy_uniform_sample(2, 60, seed=3)
        plan = optimizer.plan(
            sample,
            Avg(2),
            5,
            600,
            CostModel.uniform(2),
            warm_start=[(0.4, 0.4)],
        )
        assert plan.notes["warm_started"] is True


class TestServerPlanMemory:
    MIN_Q = "SELECT * FROM r ORDER BY min(a, b) STOP AFTER 5"
    MIN_Q_K3 = "SELECT * FROM r ORDER BY min(a, b) STOP AFTER 3"

    def _server(self, **kwargs):
        return QueryServer(
            CostModel.uniform(2, cs=1.0, cr=2.0),
            dataset=uniform(300, 2, seed=3),
            schema=["a", "b"],
            config=ServerConfig(**kwargs),
        )

    def test_exact_repeat_reuses_the_remembered_plan(self):
        server = self._server()
        cold = server.query(self.MIN_Q)
        warm = server.query(self.MIN_Q)
        assert server.stats()["warm_start_hits"] == 1
        assert server.stats()["plan_memory_entries"] == 1
        counters = server.stats()["metrics"]["counters"]
        assert counters['repro_server_warm_start_total{kind="reuse"}'] == 1
        # Reuse must not change the answer (planning is deterministic).
        assert [e.obj for e in warm.result.ranking] == [
            e.obj for e in cold.result.ranking
        ]

    def test_same_expression_different_k_warm_climbs(self):
        server = self._server()
        server.query(self.MIN_Q)
        server.query(self.MIN_Q_K3)
        counters = server.stats()["metrics"]["counters"]
        assert counters['repro_server_warm_start_total{kind="climb"}'] == 1
        assert server.stats()["plan_memory_entries"] == 2

    def test_plan_memory_can_be_disabled(self):
        server = self._server(plan_memory=False)
        server.query(self.MIN_Q)
        server.query(self.MIN_Q)
        assert server.stats()["warm_start_hits"] == 0
        assert server.stats()["plan_memory_entries"] == 0
