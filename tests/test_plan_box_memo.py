"""The comparison-box plan memo: box answers are exact replays.

:meth:`SampleIndex.simulate` reads the depths only through the SR tests
``l_i > delta_i`` and returns the box of depths answering every test it
made alike; :class:`CostEstimator` answers a later plan of the same
schedule inside a stored box with that replay's counts. These tests hold
every box answer to a fresh replay and to the reference engine, bit for
bit, and pin the box edges, the range check, and which runs store none.
The boxes live on the sample index, so one optimizer's searches on one
sample share them; the cross-search tests hold every shared search to a
search through a fresh optimizer and pin each part of the box key.
"""

import importlib
import math
import pathlib
import sys

import pytest
from hypothesis import assume, given, settings, strategies as st

import repro.optimizer.estimator as estimator_module
import repro.optimizer.optimizer as optimizer_module
from repro.exceptions import ReproError, UnanswerableQueryError
from repro.obs.metrics import MetricsRegistry
from repro.optimizer.estimator import CostEstimator, reference_cost
from repro.optimizer.kernel import SampleIndex
from repro.optimizer.optimizer import NCOptimizer
from repro.optimizer.sampling import dummy_uniform_sample
from repro.optimizer.schedule import benefit_cost_schedule
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


# ----------------------------------------------------------------------
# One replay memory per planning sample: searches share boxes
# ----------------------------------------------------------------------


def expression(family, weights):
    """A query expression over ``p0..``, every term weighted (one shape)."""
    names = [f"p{i}" for i in range(len(weights))]
    scale = 100 * len(weights) if family == "sum" else 100
    terms = [f"{w / scale:.4f}*{p}" for w, p in zip(weights, names)]
    if family == "sum":
        return " + ".join(terms)
    return f"{family}({', '.join(terms)})"


def compiled(text, m):
    """A fresh compilation of ``text``, as every served session makes."""
    parsed = parse_query(f"SELECT * FROM r ORDER BY {text} STOP AFTER 1")
    return compile_expression(parsed.expr, schema=[f"p{i}" for i in range(m)])[0]


@st.composite
def search_cases(draw):
    """A dummy sample, a compiled text, k, n_total, a cost model and nwg."""
    m = draw(st.integers(min_value=1, max_value=3))
    sample = dummy_uniform_sample(
        m, draw(st.integers(min_value=8, max_value=40)), draw(st.integers(0, 99))
    )
    family = draw(st.sampled_from(["min", "median", "max", "avg", "sum"]))
    weights = draw(st.lists(st.integers(50, 99), min_size=m, max_size=m))
    k = draw(st.integers(min_value=1, max_value=10))
    n_total = sample.n * draw(st.sampled_from([1, 2, 5, 20]))
    caps = draw(
        st.lists(
            st.sampled_from(["both", "sorted", "random", "zero-ra"]),
            min_size=m,
            max_size=m,
        )
    )
    cs = tuple(1.0 + i if caps[i] != "random" else math.inf for i in range(m))
    cr = tuple(
        {"sorted": math.inf, "zero-ra": 0.0}.get(caps[i], 2.0 + i)
        for i in range(m)
    )
    return sample, family, weights, k, n_total, CostModel(cs, cr), draw(st.booleans())


def search(optimizer, sample, text, k, n_total, model, nwg, **kwargs):
    """One search with a fresh compilation of ``text``, or its error type."""
    fn = compiled(text, sample.m)
    try:
        return optimizer.plan(
            sample, fn, k, n_total, model, no_wild_guesses=nwg, **kwargs
        )
    except ReproError as exc:
        return type(exc)


def comparable(plan):
    if isinstance(plan, type):
        return plan
    return (
        plan.depths,
        plan.schedule,
        plan.estimated_cost,
        plan.estimator_runs,
        plan.notes["kernel_runs"],
    )


def box_hits(plan):
    return 0 if isinstance(plan, type) else plan.notes["box_hits"]


def scaled(model, factors):
    return CostModel(
        tuple(c * f for c, f in zip(model.cs, factors)),
        tuple(c * f for c, f in zip(model.cr, factors)),
    )


class TestCrossSearchSharing:
    """Two searches through one optimizer on one sample, against fresh ones."""

    @settings(max_examples=60, deadline=None)
    @given(
        search_cases(),
        st.lists(st.sampled_from([0.5, 1.0, 2.0, 4.0]), min_size=3, max_size=3),
    )
    def test_second_search_answers_from_the_first_searchs_boxes(
        self, case, factors
    ):
        sample, family, weights, k, n_total, model, nwg = case
        text = expression(family, weights)
        # Other finite unit costs, the same capability masks.
        revised = scaled(model, factors[: sample.m])
        shared = NCOptimizer()
        first = search(shared, sample, text, k, n_total, model, nwg)
        second = search(shared, sample, text, k, n_total, revised, nwg)
        fresh_first = search(NCOptimizer(), sample, text, k, n_total, model, nwg)
        fresh_second = search(NCOptimizer(), sample, text, k, n_total, revised, nwg)
        assert comparable(first) == comparable(fresh_first)
        assert box_hits(first) == box_hits(fresh_first)
        assert comparable(second) == comparable(fresh_second)
        # Every box the fresh search stores, the shared store holds too.
        assert box_hits(second) >= box_hits(fresh_second)
        same_schedule = benefit_cost_schedule(sample, model) == (
            benefit_cost_schedule(sample, revised)
        )
        if same_schedule and not isinstance(first, type):
            # Both searches open on the same plan, which the first replayed.
            assert box_hits(second) > box_hits(fresh_second)

    @pytest.mark.parametrize(
        "part", ["weights", "sample_k", "capability", "no_wild_guesses", "schedule"]
    )
    @settings(max_examples=25, deadline=None)
    @given(case=search_cases())
    def test_nothing_is_shared_when_a_key_part_differs(self, part, case):
        sample, family, weights, k, n_total, model, nwg = case
        text = expression(family, weights)
        other = dict(text=text, k=k, model=model, nwg=nwg)
        if part == "weights":
            bumped = weights[0] + 1 if weights[0] < 99 else weights[0] - 1
            other["text"] = expression(family, [bumped, *weights[1:]])
        elif part == "sample_k":

            def sample_k(j):
                return max(1, round(j * sample.n / n_total))

            other["k"] = next(
                j for j in range(k + 1, 10**6) if sample_k(j) != sample_k(k)
            )
        elif part == "capability":
            # Channel 0 gains or loses one access kind.
            cs, cr = list(model.cs), list(model.cr)
            if math.isinf(cs[0]):
                cs[0] = 1.0
            elif math.isinf(cr[0]):
                cr[0] = 2.0
            else:
                cr[0] = math.inf
            other["model"] = CostModel(tuple(cs), tuple(cr))
        elif part == "no_wild_guesses":
            other["nwg"] = not nwg
        else:
            # Price the front of H_0 out of it, keeping every mask.
            h0 = benefit_cost_schedule(sample, model)
            cr = list(model.cr)
            if not math.isinf(cr[h0[0]]):
                cr[h0[0]] = 1e6
            other["model"] = CostModel(model.cs, tuple(cr))
            assume(benefit_cost_schedule(sample, other["model"]) != h0)
        shared = NCOptimizer()
        search(shared, sample, text, k, n_total, model, nwg)
        got = search(
            shared, sample, other["text"], other["k"], n_total, other["model"],
            other["nwg"],
        )
        fresh = search(
            NCOptimizer(), sample, other["text"], other["k"], n_total,
            other["model"], other["nwg"],
        )
        assert comparable(got) == comparable(fresh)
        assert box_hits(got) == box_hits(fresh)

    def test_an_amplified_sample_stays_private(self):
        sample = dummy_uniform_sample(2, 20, seed=4)
        model = CostModel.uniform(2, cs=1.0, cr=3.0)
        shared = NCOptimizer()
        text = "min(0.9*p0, 0.8*p1)"
        # k * s / n rounds to 0 < 3: the estimator amplifies the sample.
        first = search(shared, sample, text, 2, 200, model, True, min_sample_k=3)
        second = search(shared, sample, text, 2, 200, model, True, min_sample_k=3)
        assert first.notes["sample_size"] == sample.n
        assert first.notes["sample_k"] >= 3
        assert comparable(first) == comparable(second)
        assert box_hits(second) == box_hits(first)
        assert shared.index_for(sample, model).boxes_held == 0
        # The plain search on the same sample does share.
        plain = search(shared, sample, text, 2, 200, model, True)
        again = search(shared, sample, text, 2, 200, model, True)
        assert shared.index_for(sample, model).boxes_held > 0
        assert box_hits(again) > box_hits(plain)

    def test_content_key_tells_weights_apart(self):
        a = compiled("0.3*p0 + 0.4*p1", 2)
        b = compiled("0.4*p0 + 0.3*p1", 2)
        again = compiled("0.3*p0 + 0.4*p1", 2)
        assert a.content_key[0] == b.content_key[0]  # one shape, one source
        assert a.content_key != b.content_key
        assert a.content_key == again.content_key
        assert a is not again
