"""Differential tests: the frontier batch kernel vs. the scalar kernel.

The frontier kernel (:mod:`repro.optimizer.frontier`) costs a whole
search frontier in one plans-as-columns pass and is specified to be
*bitwise-identical* per plan to :meth:`SampleIndex.simulate` -- same
per-predicate counts, same Eq. 1 cost, same error type and message.
These tests hold it to that bar on adversarial inputs (the same
hypothesis instance space as the scalar kernel's differential suite),
pin the estimator's single dispatch point and its trust ladder on top,
and cover the search-layer features built on the batch path: coarse-to-fine ``NaiveGrid`` refinement, ``HillClimb``
warm starts, and the server's per-(expression, k) plan memory.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.data.generators import uniform
from repro.exceptions import (
    OptimizationError,
    ReproError,
    UnanswerableQueryError,
)
from repro.obs.metrics import MetricsRegistry
from repro.optimizer.estimator import (
    AUTO_VERIFY_RUNS,
    FRONTIER_MIN_BATCH,
    CostEstimator,
)
from repro.optimizer.frontier import FrontierKernel, frontier_evaluator
from repro.optimizer.kernel import SampleIndex, SimulationCounts
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
    check_broken_replay,
    depth_panel,
    depth_value,
    instances,
)


def _frontier_plans(depths, schedule, m):
    """A small adversarial frontier around one drawn plan."""
    plans = [
        (depths, schedule),
        (tuple(0.0 for _ in range(m)), schedule),
        (tuple(1.0 for _ in range(m)), schedule),
        (tuple(0.5 for _ in range(m)), tuple(range(m))),
        (depths, tuple(reversed(schedule))),
    ]
    return list(dict.fromkeys(plans))


class TestFrontierKernelDifferential:
    @settings(max_examples=120, deadline=None)
    @given(instances())
    def test_counts_costs_and_errors_match_scalar_kernel(self, instance):
        dataset, fn, k, depths, schedule, model, no_wild_guesses = instance
        index = SampleIndex(dataset, model, no_wild_guesses=no_wild_guesses)
        kernel = FrontierKernel(index)
        if not kernel.supports(fn):
            return
        plans = _frontier_plans(depths, schedule, dataset.m)
        outcomes = kernel.simulate_frontier(fn, k, plans)
        assert len(outcomes) == len(plans)
        for (d, s), outcome in zip(plans, outcomes):
            try:
                want = index.simulate(fn, k, d, s)
            except (ReproError, ValueError) as exc:
                # Same error type *and* message, so the estimator's
                # serial-order exception semantics are indistinguishable.
                assert isinstance(outcome, Exception)
                assert type(outcome) is type(exc)
                assert str(outcome) == str(exc)
                continue
            assert isinstance(outcome, SimulationCounts)
            assert outcome.sorted_counts == want.sorted_counts
            assert outcome.random_counts == want.random_counts
            # Bitwise, not approximate: shared eq1_cost accumulation.
            assert outcome.cost(model) == want.cost(model)

    @settings(max_examples=40, deadline=None)
    @given(instances(), st.integers(min_value=2, max_value=5))
    def test_tail_threshold_never_changes_outcomes(self, instance, tail):
        # The hybrid exact-tail cutover is a pure perf knob.
        dataset, fn, k, depths, schedule, model, no_wild_guesses = instance
        index = SampleIndex(dataset, model, no_wild_guesses=no_wild_guesses)
        if not FrontierKernel(index).supports(fn):
            return
        plans = _frontier_plans(depths, schedule, dataset.m)
        a = FrontierKernel(index, tail_threshold=0).simulate_frontier(
            fn, k, plans
        )
        b = FrontierKernel(index, tail_threshold=tail).simulate_frontier(
            fn, k, plans
        )
        for x, y in zip(a, b):
            if isinstance(x, Exception):
                assert type(x) is type(y) and str(x) == str(y)
            else:
                assert x == y

    def test_unsupported_fn_raises_loudly(self):
        index = SampleIndex(dummy_uniform_sample(2, 10, seed=0), CostModel.uniform(2))
        kernel = FrontierKernel(index)
        assert frontier_evaluator(Product(2)) is None
        assert not kernel.supports(Product(2))
        with pytest.raises(ValueError, match="does not support"):
            kernel.simulate_frontier(Product(2), 1, [((0.5, 0.5), (0, 1))])


def _estimator(fn=None, metrics=None, **kwargs):
    fn = fn if fn is not None else Avg(2)
    sample = dummy_uniform_sample(fn.arity, 60, seed=3)
    return CostEstimator(
        sample,
        fn,
        5,
        600,
        CostModel.uniform(fn.arity),
        metrics=metrics,
        **kwargs,
    )


#: Batch widths straddling the lockstep threshold on both sides.
WIDTHS = (1, FRONTIER_MIN_BATCH - 1, FRONTIER_MIN_BATCH, 64)

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
    def test_modes_agree_exactly_with_serial_loop(self, name, width):
        fn = FUNCTIONS[name]
        panel = depth_panel(2, width)
        serial = _estimator(fn=fn, vectorized=False)
        expected = [serial.estimate(d) for d in panel]
        lockstep = width >= FRONTIER_MIN_BATCH and FrontierKernel.supports(fn)
        for mode in (True, "auto"):
            est = _estimator(fn=fn, vectorized=mode)
            assert est.estimate_frontier(panel) == expected
            assert est.runs == serial.runs
            assert est.cache_info()["misses"] == serial.cache_info()["misses"]
            # Costs landed in the memo exactly as the loop's would.
            assert est.estimate_frontier(panel) == expected
            assert est.fallbacks == 0
            # The one dispatch point: batch size and scoring function.
            assert est.frontier_runs == (width if lockstep else 0)
            assert est.kernel_runs == (0 if lockstep else width)
            assert est.frontier_batches == (1 if lockstep else 0)
            checks = min(width, AUTO_VERIFY_RUNS) if mode == "auto" else 0
            assert est.reference_runs == checks

    def test_batch_path_actually_used_and_counted(self):
        metrics = MetricsRegistry()
        panel = depth_panel(2, FRONTIER_MIN_BATCH + 4)
        est = _estimator(verify=False, metrics=metrics)
        est.estimate_frontier(panel)
        assert est.frontier_batches == 1
        assert est.frontier_runs == len(panel)
        assert est.kernel_runs == 0
        counters = metrics.snapshot()["counters"]
        assert counters['repro_estimator_runs_total{path="frontier"}'] == len(
            panel
        )
        assert counters["repro_estimator_frontier_batches_total"] == 1

    def test_auto_mode_spot_checks_each_replay_against_reference(self):
        est = _estimator()
        est.estimate_frontier(depth_panel(2, FRONTIER_MIN_BATCH + 4))
        # The lockstep replay's first outcomes were checked against the
        # reference engine, yet every plan was priced exactly once.
        assert est.reference_runs == AUTO_VERIFY_RUNS
        assert est.frontier_runs == est.runs == FRONTIER_MIN_BATCH + 4
        # The per-plan replay has its own budget.
        est.estimate_frontier([(0.01, 0.02), (0.03, 0.04)])
        assert est.kernel_runs == 2
        assert est.reference_runs == AUTO_VERIFY_RUNS + 2

    def test_small_batches_stay_on_the_per_plan_path(self):
        panel = depth_panel(2, FRONTIER_MIN_BATCH - 1)
        est = _estimator(verify=False)
        est.estimate_frontier(panel)
        assert est.frontier_batches == 0
        assert est.kernel_runs == len(panel)

    def test_duplicates_count_as_cache_hits(self):
        panel = depth_panel(2, FRONTIER_MIN_BATCH)
        est = _estimator(verify=False)
        costs = est.estimate_frontier(panel + panel[:5])
        assert costs[len(panel):] == costs[:5]
        assert est.cache_hits == 5
        assert est.frontier_runs == len(panel)

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            _estimator(vectorized="yes")
        # The lockstep replay is chosen by dispatch, never by a switch.
        with pytest.raises(TypeError):
            _estimator(frontier=True)

    def test_error_semantics_match_serial_loop(self):
        # Unanswerable scenario: the batch raises the same error with the
        # same run accounting as the serial loop, and memoizes nothing.
        fn = Min(2)
        sample = dummy_uniform_sample(2, 40, seed=1)
        model = CostModel.no_sorted(2)
        panel = depth_panel(2, FRONTIER_MIN_BATCH + 2)

        def build():
            return CostEstimator(sample, fn, 3, 400, model, verify=False)

        serial = build()
        with pytest.raises(UnanswerableQueryError) as serial_exc:
            for depths in panel:
                serial.estimate(depths)
        batched = build()
        with pytest.raises(UnanswerableQueryError) as batch_exc:
            batched.estimate_frontier(panel)
        assert batched.frontier_batches == 0
        assert str(batch_exc.value) == str(serial_exc.value)
        # The failing plan itself counts as run, as in a serial loop.
        assert batched.runs == serial.runs == 1
        assert batched.cache_info()["size"] == serial.cache_info()["size"] == 0


class TestFrontierFallbacks:
    def test_unsupported_fn_falls_back_loudly(self):
        # A scoring function the lockstep replay does not support falls
        # back, by dispatch, to the per-plan replay: no fallback is
        # counted, and the path label shows where the batch went.
        metrics = MetricsRegistry()
        fn = Product(2)
        panel = depth_panel(2, FRONTIER_MIN_BATCH + 2)
        est = _estimator(fn=fn, verify=False, metrics=metrics)
        reference = _estimator(fn=fn, vectorized=False)
        assert est.estimate_frontier(panel) == reference.estimate_frontier(
            panel
        )
        assert est.fallbacks == 0
        assert est.frontier_runs == est.frontier_batches == 0
        assert est.kernel_runs == len(panel)
        assert est.kernel_active
        counters = metrics.snapshot()["counters"]
        key = 'repro_estimator_runs_total{path="kernel"}'
        assert counters[key] == len(panel)
        assert not any("fallbacks" in name for name in counters)

    def test_verify_mismatch_falls_back_in_auto_mode(self, monkeypatch):
        check_broken_replay(monkeypatch, "frontier", "verify_mismatch", "auto")

    def test_verify_mismatch_raises_in_frontier_true_mode(self, monkeypatch):
        # The frontier=True switch is gone; vectorized=True is its heir.
        check_broken_replay(monkeypatch, "frontier", "verify_mismatch", True)

    def test_internal_error_falls_back_in_auto_mode(self, monkeypatch):
        check_broken_replay(monkeypatch, "frontier", "internal_error", "auto")

    def test_internal_error_propagates_in_frontier_true_mode(self, monkeypatch):
        check_broken_replay(monkeypatch, "frontier", "internal_error", True)


class TestSearchIntegration:
    @settings(max_examples=20, deadline=None)
    @given(st.lists(depth_value, min_size=2, max_size=2))
    def test_chosen_plans_identical_across_frontier_switch(self, start):
        # Fast path (lockstep on large frontiers) vs the reference engine.
        results = []
        for mode in (True, False):
            est = _estimator(vectorized=mode, verify=False)
            results.append(
                HillClimb(seed=7).search(est, warm_starts=[start]).depths
            )
        assert results[0] == results[1]

    def test_grid_chosen_plans_identical_across_frontier_switch(self):
        chosen = []
        for mode in (True, False):
            est = _estimator(vectorized=mode, verify=False)
            chosen.append(NaiveGrid(resolution=6).search(est).depths)
        assert chosen[0] == chosen[1]

    def test_coarse_to_fine_validation(self):
        with pytest.raises(OptimizationError):
            NaiveGrid(resolution=5, coarse_resolution=5)
        with pytest.raises(OptimizationError):
            NaiveGrid(resolution=5, coarse_resolution=1)

    def test_coarse_to_fine_refines_the_coarse_optimum(self):
        est = _estimator(verify=False)
        coarse_only = NaiveGrid(resolution=3).search(est)
        refined = NaiveGrid(resolution=9, coarse_resolution=3).search(
            _estimator(verify=False)
        )
        full = NaiveGrid(resolution=9).search(
            _estimator(verify=False)
        )
        # The coarse best sits on the fine grid, so refinement can only
        # improve on it -- and never beats the exhaustive fine scan.
        assert refined.cost <= coarse_only.cost
        assert refined.cost >= full.cost
        assert "coarse=3" in NaiveGrid(
            resolution=9, coarse_resolution=3
        ).describe()

    def test_coarse_to_fine_prices_fewer_plans_than_full_grid(self):
        fine = _estimator(verify=False)
        NaiveGrid(resolution=9).search(fine)
        two_stage = _estimator(verify=False)
        NaiveGrid(resolution=9, coarse_resolution=3).search(two_stage)
        assert two_stage.runs < fine.runs

    def test_warm_starts_only_add_evaluations(self):
        plain = _estimator(verify=False)
        plain_result = HillClimb(seed=7).search(plain)
        warm = _estimator(verify=False)
        warm_result = HillClimb(seed=7).search(
            warm, warm_starts=[plain_result.depths, (2.0, -1.0)]
        )
        # Out-of-range warm points are clipped, not rejected; canonical
        # starts still run, so the warm search can only do better.
        assert warm_result.cost <= plain_result.cost


class TestOptimizerNotes:
    def test_plan_notes_carry_frontier_counters_and_phase_times(self):
        ticks = itertools.count()
        optimizer = NCOptimizer(
            scheme=NaiveGrid(resolution=6),
            clock=lambda: float(next(ticks)),
        )
        sample = dummy_uniform_sample(2, 60, seed=3)
        plan = optimizer.plan(sample, Avg(2), 5, 600, CostModel.uniform(2))
        notes = plan.notes
        assert notes["frontier_batches"] >= 1
        assert notes["frontier_runs"] > 0
        assert notes["fallbacks"] == 0
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
                "frontier_runs": 33,
                "frontier_batches": 1,
                "fallbacks": 0,
            },
            {"event": "access", "predicate": 0, "kind": "sorted", "tick": 1},
        ]
        rendered = format_timeline(events)
        assert "optimizer: phases schedule=0.0001s" in rendered
        assert "delta_search=0.0123s" in rendered
        assert "frontier_runs=33" in rendered
        assert "frontier_batches=1" in rendered
        # Zero-valued fallback counters stay out of the summary line.
        assert "fallbacks" not in rendered

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
