"""The comparison-box plan memo: box answers are exact replays.

:meth:`SampleIndex.simulate` reads the depths only through the SR tests
``l_i > delta_i`` and returns the box of depths answering every test it
made alike; :class:`CostEstimator` answers a later plan of the same
schedule inside a stored box with that replay's counts. These tests hold
every box answer to a fresh replay and to the reference engine, bit for
bit, and pin the box edges, the range check, and which runs store none.
"""

import importlib
import math
import pathlib
import sys

import pytest
from hypothesis import given, settings, strategies as st

import repro.optimizer.estimator as estimator_module
import repro.optimizer.optimizer as optimizer_module
from repro.exceptions import UnanswerableQueryError
from repro.obs.metrics import MetricsRegistry
from repro.optimizer.estimator import CostEstimator, reference_cost
from repro.optimizer.kernel import SampleIndex
from repro.optimizer.optimizer import NCOptimizer
from repro.optimizer.sampling import dummy_uniform_sample
from repro.query.compiler import compile_expression
from repro.query.parser import parse_query
from repro.scoring.functions import Avg, Min
from repro.sources.cost import CostModel
from tests.test_optimizer_kernel import (
    OracleEstimator,
    arm_contracts,
    compiled_fn,
    depth_value,
    instances,
)

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


@st.composite
def memo_cases(draw):
    """An instance, a panel of plans, and a library or compiled F."""
    dataset, fn, k, depths, schedule, model, nwg = draw(instances())
    if draw(st.booleans()):
        fn = compiled_fn(draw, dataset.m)
    m = dataset.m
    panel = [depths] + draw(
        st.lists(
            st.lists(depth_value, min_size=m, max_size=m).map(tuple),
            min_size=1,
            max_size=8,
        )
    )
    return dataset, fn, k, panel, schedule, model, nwg


def estimator(dataset, fn, k, model, nwg, **kwargs):
    # n_total == sample size: sample_k == k and the scale is 1.
    return CostEstimator(
        dataset, fn, k, dataset.n, model, no_wild_guesses=nwg, **kwargs
    )


def outcome(price, depths, schedule):
    try:
        return price(depths, schedule)
    except UnanswerableQueryError:
        return UnanswerableQueryError


def inside(box, depths):
    lo, hi = box
    return all(a <= d < b for a, d, b in zip(lo, depths, hi))


class TestBoxDifferential:
    @settings(max_examples=120, deadline=None)
    @given(memo_cases())
    def test_box_answers_are_fresh_replays_and_reference_costs(self, case):
        dataset, fn, k, panel, schedule, model, nwg = case
        index = SampleIndex(dataset, model, no_wild_guesses=nwg)
        try:
            # The lower edge of the first plan's box is a box answer
            # unless it is that plan itself.
            edge = index.simulate(fn, k, panel[0], schedule).box[0]
            panel = [panel[0], edge, *panel[1:]]
        except UnanswerableQueryError:
            pass
        memo = estimator(dataset, fn, k, model, nwg)
        for depths in panel:
            hits = memo.box_hits
            got = outcome(memo.estimate, depths, schedule)
            assert got == outcome(
                lambda d, h: reference_cost(memo, d, h), depths, schedule
            )
            if memo.box_hits > hits:
                fresh = index.simulate(fn, k, depths, schedule)
                assert got == fresh.cost(model) * memo.scale

    @settings(max_examples=120, deadline=None)
    @given(memo_cases())
    def test_plans_inside_a_box_replay_identically(self, case):
        dataset, fn, k, panel, schedule, model, nwg = case
        index = SampleIndex(dataset, model, no_wild_guesses=nwg)
        try:
            first = index.simulate(fn, k, panel[0], schedule)
        except UnanswerableQueryError:
            return
        lo, hi = first.box
        assert all(a <= d < b for a, d, b in zip(lo, panel[0], hi))
        for depths in panel[1:]:
            if inside(first.box, depths):
                again = index.simulate(fn, k, depths, schedule)
                assert again == first
                assert again.box == first.box

    @settings(max_examples=80, deadline=None)
    @given(memo_cases())
    def test_lower_edge_hits_and_upper_edge_misses(self, case):
        dataset, fn, k, panel, schedule, model, nwg = case
        index = SampleIndex(dataset, model, no_wild_guesses=nwg)
        base = panel[0]
        try:
            box = index.simulate(fn, k, base, schedule).box
        except UnanswerableQueryError:
            return
        lo, hi = box
        for i in range(dataset.m):
            at_lo = base[:i] + (lo[i],) + base[i + 1:]
            est = estimator(dataset, fn, k, model, nwg)
            est.estimate(base, schedule)
            est.estimate(at_lo, schedule)
            # An exact-key repeat is a memo hit, not a box answer.
            assert est.box_hits == (0 if at_lo == base else 1)
            if hi[i] <= 1.0:
                at_hi = base[:i] + (hi[i],) + base[i + 1:]
                est = estimator(dataset, fn, k, model, nwg)
                est.estimate(base, schedule)
                est.estimate(at_hi, schedule)
                assert est.box_hits == 0
                assert est.kernel_runs == 2


class TestBoxEdges:
    def _sample(self):
        return dummy_uniform_sample(2, 60, seed=3)

    def test_out_of_range_depth_inside_a_box_still_raises(self):
        est = CostEstimator(
            self._sample(), Min(2), 5, 60, CostModel.uniform(2)
        )
        est.estimate((1.0, 1.0))
        # delta_i = 1 never passes l_i > delta_i: the box is unbounded above.
        box = SampleIndex(self._sample(), CostModel.uniform(2)).simulate(
            Min(2), 5, (1.0, 1.0)
        ).box
        assert box[1] == (math.inf, math.inf)
        runs = est.runs
        for bad in [(1.5, 1.0), (1.0, math.inf), (math.nan, 1.0), (1.0,)]:
            with pytest.raises(ValueError):
                est.estimate(bad)
        assert est.box_hits == 0
        assert est.runs == runs + 4

    def test_unanswerable_runs_store_no_box(self):
        sample = self._sample()
        # No sorted access and no wild guesses: nothing is discoverable.
        est = CostEstimator(
            sample, Avg(2), 5, 60, CostModel.no_sorted(2)
        )
        for depths in [(0.5, 0.5), (0.4, 0.5), (0.0, 0.0), (0.5, 0.5)]:
            with pytest.raises(UnanswerableQueryError):
                est.estimate(depths)
        assert est.box_hits == 0
        assert est.runs == 4  # the last one is not memoized either

    def test_reference_path_stores_no_box(self, monkeypatch):
        # A plan priced by the reference engine after a replay crash
        # stores no box: the next plan inside its box replays fresh.
        est = CostEstimator(self._sample(), Avg(2), 5, 600, CostModel.uniform(2))

        def crash(self, *args):
            raise RuntimeError("kernel replay bug")

        with monkeypatch.context() as patch:
            patch.setattr(SampleIndex, "simulate", crash)
            est.estimate((0.0, 0.0))
        assert est.reference_runs == est.fallbacks == 1
        est.estimate((0.001, 0.0))
        assert est.box_hits == 0
        assert est.kernel_runs == 1
        # ... which itself stores one, as in the panel below.
        est.estimate((0.0, 0.001))
        assert est.box_hits == 1

    def test_box_answers_count_as_kernel_runs_and_metrics(self, monkeypatch):
        arm_contracts(monkeypatch, True)
        metrics = MetricsRegistry()
        est = CostEstimator(
            self._sample(), Avg(2), 5, 600, CostModel.uniform(2),
            metrics=metrics,
        )
        panel = [(0.0, 0.0), (0.001, 0.0), (0.0, 0.001), (0.002, 0.002)]
        for depths in panel:
            est.estimate(depths)
        assert est.box_hits == 3
        assert est.runs == est.kernel_runs == len(panel)
        # Armed contracts cross-checked every outcome, box answers too.
        assert est.reference_runs == len(panel)
        assert metrics.counter_value("repro_estimator_box_hits_total") == 3
        assert metrics.counter_value(
            "repro_estimator_runs_total", path="kernel"
        ) == len(panel)

    def test_boxes_share_the_cache_size_cap(self, monkeypatch):
        sample = self._sample()
        index = SampleIndex(sample, CostModel.uniform(2))
        low = index.simulate(Avg(2), 5, (0.0, 0.0)).box
        inner = tuple(h / 2 for h in low[1])
        assert inside(low, inner)
        high = index.simulate(Avg(2), 5, (1.0, 1.0)).box
        assert not inside(high, inner)
        monkeypatch.setattr(estimator_module, "CACHE_SIZE", 1)
        est = CostEstimator(sample, Avg(2), 5, 60, CostModel.uniform(2))
        est.estimate((0.0, 0.0))
        est.estimate((1.0, 1.0))  # evicts the (0, 0) box
        est.estimate(inner)
        assert est.box_hits == 0
        assert est.kernel_runs == 3


def plan_cold_texts():
    """The plan-cold workload's query texts and scenario parameters."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))
    return workloads.PlanCold(1), workloads.PLAN_COLD


class TestPlanColdParity:
    def test_box_memo_plans_equal_reference_plans(self):
        workload, params = plan_cold_texts()
        model = CostModel(
            tuple(params["cost_model"]["cs"]), tuple(params["cost_model"]["cr"])
        )
        sample = dummy_uniform_sample(3, params["sample_size"], 0)
        box_hits = 0
        for text in workload.texts:
            parsed = parse_query(text)
            fn, _order = compile_expression(parsed.expr, schema=workload.schema)
            fast = NCOptimizer().plan(sample, fn, parsed.k, params["n"], model)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(optimizer_module, "CostEstimator", OracleEstimator)
                reference = NCOptimizer().plan(
                    sample, fn, parsed.k, params["n"], model
                )
            assert fast.depths == reference.depths
            assert fast.schedule == reference.schedule
            assert fast.estimated_cost == reference.estimated_cost
            assert fast.estimator_runs == reference.estimator_runs
            assert reference.notes["box_hits"] == 0
            box_hits += fast.notes["box_hits"]
        assert box_hits > 0
