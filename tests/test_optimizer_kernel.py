"""Differential tests: the fast-path kernel vs. the reference engine.

The kernel (:mod:`repro.optimizer.kernel`) is specified to be
*bitwise-identical* to running ``FrameworkNC`` over a fresh middleware --
same per-predicate access counts, same Eq. 1 cost, same error conditions.
These tests hold it to that bar on adversarial inputs (ties, endpoint
scores, partial capabilities, both wild-guess settings) and on every
shape of F the kernel serves: library and compiled, min-shaped and not,
and a plain :class:`Monotone`. Each example builds a fresh function
object, so a replay keyed by a reused ``id`` would show. They also pin
when the estimator runs the reference engine: for a crashed replay, and
for every outcome under armed contracts.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.framework import FrameworkNC
from repro.core.policies import SRGPolicy
from repro.data.dataset import Dataset
from repro.exceptions import ContractViolationError, UnanswerableQueryError
from repro.obs.metrics import MetricsRegistry
from repro.optimizer.estimator import CostEstimator, reference_cost
from repro.optimizer.kernel import (
    SampleIndex,
    SimulationCounts,
    scalar_evaluator,
)
from repro.optimizer.sampling import dummy_uniform_sample
from repro.query.compiler import compile_expression
from repro.query.parser import parse_query
from repro.scoring.functions import (
    Avg,
    Geometric,
    Max,
    Median,
    Min,
    Monotone,
    Product,
    WeightedSum,
)
from repro.sources.cost import CostModel
from repro.sources.middleware import Middleware
from repro.types import rank_key

# Deliberately includes exact ties and the interval endpoints.
score_value = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False, width=32),
)

depth_value = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0]),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False, width=32),
)


def compiled_fn(draw, m):
    """A compiled query expression over ``p0..p{m-1}``, min-shaped or not."""
    names = [f"p{i}" for i in range(m)]
    family = draw(st.sampled_from(["min", "median", "max", "avg", "sum"]))
    weights = draw(
        st.lists(st.integers(min_value=50, max_value=100), min_size=m, max_size=m)
    )
    # A sum's weights must add up to at most 1; a full weight in an
    # aggregate stays a bare predicate, as in ``min(a, 0.8*b)``.
    scale = 100 * m if family == "sum" else 100
    terms = [
        p if w == scale else f"{w / scale:.4f}*{p}" for w, p in zip(weights, names)
    ]
    expr = " + ".join(terms) if family == "sum" else f"{family}({', '.join(terms)})"
    parsed = parse_query(f"SELECT * FROM r ORDER BY {expr} STOP AFTER 1")
    fn, _order = compile_expression(parsed.expr, schema=names)
    return fn


def _fn_for(draw, m):
    """A fresh scoring function object of any shape the kernel serves."""
    kind = draw(
        st.sampled_from(
            ["min", "max", "avg", "wsum", "prod", "median", "geo", "monotone",
             "compiled"]
        )
    )
    if kind == "min":
        return Min(m)
    if kind == "max":
        return Max(m)
    if kind == "avg":
        return Avg(m)
    if kind == "prod":
        return Product(m)
    if kind == "median":
        return Median(m)
    if kind == "geo":
        return Geometric(m)
    if kind == "monotone":
        # No ``min_terms``: the engine ranks a min through the lazy index.
        inner = draw(st.sampled_from(["min", "mean"]))
        if inner == "min":
            return Monotone(lambda s: min(s), arity=m)
        return Monotone(lambda s: sum(s) / len(s), arity=m)
    if kind == "compiled":
        return compiled_fn(draw, m)
    weights = draw(
        st.lists(
            st.floats(min_value=0.05, max_value=1.0, allow_nan=False),
            min_size=m,
            max_size=m,
        )
    )
    return WeightedSum(weights)


@st.composite
def instances(draw, max_m: int = 3):
    n = draw(st.integers(min_value=1, max_value=20))
    m = draw(st.integers(min_value=1, max_value=max_m))
    rows = draw(
        st.lists(
            st.lists(score_value, min_size=m, max_size=m),
            min_size=n,
            max_size=n,
        )
    )
    dataset = Dataset(np.array(rows, dtype=float))
    fn = _fn_for(draw, m)
    k = draw(st.integers(min_value=1, max_value=n))
    depths = tuple(draw(st.lists(depth_value, min_size=m, max_size=m)))
    schedule = tuple(draw(st.permutations(range(m))))
    # Per-predicate capabilities: both, sorted-only, random-only, or
    # both with zero-cost random access (the zero-ra cell).
    caps = draw(
        st.lists(
            st.sampled_from(["both", "sorted", "random", "zero-ra"]),
            min_size=m,
            max_size=m,
        )
    )
    cs = tuple(
        1.0 + i if caps[i] != "random" else math.inf for i in range(m)
    )
    cr = tuple(
        {"sorted": math.inf, "zero-ra": 0.0}.get(caps[i], 2.0 + i)
        for i in range(m)
    )
    model = CostModel(cs, cr)
    no_wild_guesses = draw(st.booleans())
    return dataset, fn, k, depths, schedule, model, no_wild_guesses


def _reference_counts(dataset, model, no_wild_guesses, fn, k, depths, schedule):
    middleware = Middleware.over(
        dataset, model, no_wild_guesses=no_wild_guesses
    )
    FrameworkNC(middleware, fn, k, SRGPolicy(depths, schedule)).run()
    return (
        middleware.stats.sorted_counts,
        middleware.stats.random_counts,
        middleware.stats.total_cost(),
    )


class TestKernelDifferential:
    @settings(max_examples=120, deadline=None)
    @given(instances())
    def test_counts_and_cost_match_reference(self, instance):
        dataset, fn, k, depths, schedule, model, no_wild_guesses = instance
        index = SampleIndex(dataset, model, no_wild_guesses=no_wild_guesses)
        try:
            counts = index.simulate(fn, k, depths, schedule)
            kernel_error = None
        except UnanswerableQueryError as exc:
            counts = None
            kernel_error = type(exc)
        try:
            reference = _reference_counts(
                dataset, model, no_wild_guesses, fn, k, depths, schedule
            )
            reference_error = None
        except UnanswerableQueryError as exc:
            reference = None
            reference_error = type(exc)
        assert kernel_error == reference_error
        if counts is not None:
            assert counts.sorted_counts == reference[0]
            assert counts.random_counts == reference[1]
            # Bitwise, not approximate: shared eq1_cost accumulation.
            assert counts.cost(model) == reference[2]

    @settings(max_examples=60, deadline=None)
    @given(instances())
    def test_index_is_reusable_across_plans(self, instance):
        dataset, fn, k, depths, schedule, model, no_wild_guesses = instance
        index = SampleIndex(dataset, model, no_wild_guesses=no_wild_guesses)
        plans = [depths, tuple(0.0 for _ in depths), tuple(1.0 for _ in depths)]
        for plan in plans:
            try:
                first = index.simulate(fn, k, plan, schedule)
            except UnanswerableQueryError:
                continue
            second = index.simulate(fn, k, plan, schedule)
            assert first == second

    def test_index_replays_each_temporary_function(self):
        # Regression: evaluators were once cached by id(fn), so a freed
        # function whose id was reused by a new one replayed the old F.
        dataset = dummy_uniform_sample(3, 60, seed=7)
        model = CostModel.uniform(3)
        makers = [
            lambda: Min(3),
            lambda: Avg(3),
            lambda: Max(3),
            lambda: WeightedSum([0.6, 0.3, 0.1]),
        ] * 3
        depths = (0.4, 0.6, 0.8)
        expected = [
            SampleIndex(dataset, model).simulate(make(), 5, depths)
            for make in makers
        ]
        shared = SampleIndex(dataset, model)
        got = [shared.simulate(make(), 5, depths) for make in makers]
        assert got == expected

    def test_unseen_no_wild_guess_unanswerable_parity(self):
        # No sorted access anywhere + no wild guesses: nothing can ever
        # be discovered. Both paths must refuse identically.
        dataset = dummy_uniform_sample(2, 10, seed=0)
        model = CostModel.no_sorted(2)
        index = SampleIndex(dataset, model, no_wild_guesses=True)
        with pytest.raises(UnanswerableQueryError):
            index.simulate(Min(2), 1, (0.5, 0.5), (0, 1))
        with pytest.raises(UnanswerableQueryError):
            _reference_counts(
                dataset, model, True, Min(2), 1, (0.5, 0.5), (0, 1)
            )

    def test_wild_guesses_probe_only_scenario_matches(self):
        # With wild guesses allowed, a probe-only scenario is answerable;
        # the kernel must replay the schedule-ordered probing exactly.
        dataset = dummy_uniform_sample(3, 12, seed=1)
        model = CostModel.no_sorted(3)
        index = SampleIndex(dataset, model, no_wild_guesses=False)
        for schedule in [(0, 1, 2), (2, 0, 1)]:
            counts = index.simulate(Avg(3), 2, (0.5, 0.5, 0.5), schedule)
            reference = _reference_counts(
                dataset, model, False, Avg(3), 2, (0.5, 0.5, 0.5), schedule
            )
            assert counts.sorted_counts == reference[0]
            assert counts.random_counts == reference[1]

    def test_plan_validation_matches_policy(self):
        dataset = dummy_uniform_sample(2, 5, seed=0)
        index = SampleIndex(dataset, CostModel.uniform(2))
        with pytest.raises(ValueError):
            index.simulate(Min(2), 1, (1.5, 0.0), (0, 1))
        with pytest.raises(ValueError):
            index.simulate(Min(2), 1, (0.5, 0.5), (0, 0))
        with pytest.raises(ValueError):
            index.simulate(Min(2), 0, (0.5, 0.5), (0, 1))
        with pytest.raises(ValueError):
            index.simulate(Min(3), 1, (0.5, 0.5), (0, 1))


class TestScalarEvaluator:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=4),
        st.data(),
    )
    def test_bitwise_equal_to_evaluate(self, m, data):
        fn = _fn_for(data.draw, m)
        fast = scalar_evaluator(fn)
        vals = data.draw(
            st.lists(score_value, min_size=m, max_size=m)
        )
        assert fast(vals) == fn.evaluate(vals)


def depth_panel(m, count):
    """``count`` distinct depth vectors (deterministic, no RNG)."""
    out = []
    for i in range(count):
        base = (i + 1) / (count + 1)
        vec = [round(min(1.0, base + 0.07 * j), 6) for j in range(m)]
        out.append(tuple(vec))
    return out


def avg_estimator(**kwargs):
    sample = dummy_uniform_sample(2, 60, seed=3)
    return CostEstimator(
        sample, Avg(2), 5, 600, CostModel.uniform(2), **kwargs
    )


class OracleEstimator(CostEstimator):
    """Prices every uncached plan with :func:`reference_cost` alone.

    The reference side of search-level comparisons: same memo and run
    accounting as :class:`CostEstimator`, no replay.
    """

    def _simulate(self, plan):
        self._runs += 1
        return reference_cost(self, *plan)


def arm_contracts(monkeypatch, armed):
    if armed:
        monkeypatch.setenv("REPRO_CONTRACTS", "1")
    else:
        monkeypatch.delenv("REPRO_CONTRACTS", raising=False)


#: A replay's counts that no plan of the test panels can produce.
WRONG = SimulationCounts((999, 999), (999, 999))


def _break_replay(monkeypatch, fault):
    """Make the fast replay lie (``verify_mismatch``) or crash."""

    def broken(self, fn, k, *plan_args):
        if fault == "internal_error":
            raise RuntimeError("kernel replay bug")
        return WRONG

    monkeypatch.setattr(SampleIndex, "simulate", broken)


def check_broken_replay(monkeypatch, fault):
    """Pin what a broken fast replay does to plan costing.

    ``fault="internal_error"``: each crashing replay prices its plan with
    the oracle and counts one labelled fallback; there is no permanent
    state, so the next plan tries the replay again.
    ``fault="verify_mismatch"``: unarmed, nothing re-prices the lie;
    armed contracts turn it into a ``ContractViolationError`` naming the
    plan and both costs.
    """
    panel = depth_panel(2, 5)
    oracle = avg_estimator()
    expected = [reference_cost(oracle, depths) for depths in panel]
    metrics = MetricsRegistry()
    arm_contracts(monkeypatch, fault == "verify_mismatch")
    est = avg_estimator(metrics=metrics)
    _break_replay(monkeypatch, fault)
    if fault == "verify_mismatch":
        wrong = WRONG.cost(est.cost_model) * est.scale
        arm_contracts(monkeypatch, False)
        trusting = avg_estimator()
        assert trusting.estimate(panel[0]) == wrong
        assert trusting.reference_runs == 0
        with pytest.raises(ContractViolationError) as exc:
            est.estimate(panel[0])
        message = str(exc.value)
        assert f"depths={panel[0]}" in message
        assert f"kernel cost {wrong!r}" in message
        assert f"reference cost {expected[0]!r}" in message
        assert est.fallbacks == 0
        return
    got = []
    for i, depths in enumerate(panel):
        got.append(est.estimate(depths))
        # One fallback per plan: every plan tried the replay first.
        assert est.fallbacks == i + 1
    assert got == expected
    counters = metrics.snapshot()["counters"]
    assert counters[
        f'repro_estimator_fallbacks_total{{reason="{fault}"}}'
    ] == len(panel)
    assert est.kernel_runs == 0
    assert est.reference_runs == est.runs == len(panel)
    # Once the replay works again, the next plan takes it.
    monkeypatch.undo()
    est.estimate((0.01, 0.02))
    assert est.kernel_runs == 1
    assert est.fallbacks == len(panel)


class TestVectorizedSwitch:
    """The switch between the per-plan replay and the reference engine.

    Unarmed, every plan takes the replay and the reference engine runs
    only for a plan whose replay crashed. With contracts armed, every
    replay outcome is also priced by the reference engine.
    """

    PLANS = [(0.0, 0.0), (0.001, 0.0), (0.3, 0.7), (0.5, 0.5), (1.0, 1.0)]

    def test_modes_agree_exactly(self, monkeypatch):
        costs = {}
        for armed in (False, True):
            arm_contracts(monkeypatch, armed)
            est = avg_estimator()
            costs[armed] = [est.estimate(p) for p in self.PLANS]
        oracle = avg_estimator()
        assert costs[False] == costs[True] == [
            reference_cost(oracle, p) for p in self.PLANS
        ]

    def test_reference_mode_never_touches_kernel(self, monkeypatch):
        # The oracle runs the engine alone: no replay, no memo, no count.
        _break_replay(monkeypatch, "internal_error")
        est = avg_estimator()
        reference_cost(est, [0.5, 0.5])
        assert est.runs == est.kernel_runs == est.reference_runs == 0
        assert est.cache_info()["size"] == 0

    def test_kernel_mode_never_touches_reference(self, monkeypatch):
        arm_contracts(monkeypatch, False)
        est = avg_estimator()
        for p in self.PLANS:
            est.estimate(p)
        assert est.box_hits > 0
        assert est.kernel_runs == len(self.PLANS)
        assert est.reference_runs == 0

    def test_verify_mismatch_raises_in_kernel_mode(self, monkeypatch):
        check_broken_replay(monkeypatch, "verify_mismatch")

    def test_internal_error_falls_back_per_plan(self, monkeypatch):
        check_broken_replay(monkeypatch, "internal_error")

    def test_verify_every_run_when_requested(self, monkeypatch):
        arm_contracts(monkeypatch, True)
        est = avg_estimator()
        for p in self.PLANS:
            est.estimate(p)
        # One cross-check per outcome, box answers included.
        assert est.box_hits > 0
        assert est.kernel_runs == est.reference_runs == len(self.PLANS)

    def test_armed_error_outcomes_are_cross_checked(self, monkeypatch):
        arm_contracts(monkeypatch, True)
        sample = dummy_uniform_sample(2, 10, seed=0)
        # Nothing is discoverable: both paths refuse, and agree on it.
        est = CostEstimator(sample, Min(2), 1, 10, CostModel.no_sorted(2))
        with pytest.raises(UnanswerableQueryError):
            est.estimate((0.5, 0.5))
        # A replay refusing a plan the engine answers is a violation.
        est = avg_estimator()

        def refuse(self, *args):
            raise UnanswerableQueryError("replay refuses")

        monkeypatch.setattr(SampleIndex, "simulate", refuse)
        with pytest.raises(ContractViolationError):
            est.estimate((0.5, 0.5))


class TestBatchEvaluation:
    @settings(max_examples=40, deadline=None)
    @given(instances(max_m=4))
    def test_batch_matches_scalar_loop(self, instance):
        dataset, fn, _k, _d, _s, _model, _nwg = instance
        batch = fn.evaluate_batch(dataset.matrix)
        loop = [fn.evaluate(list(row)) for row in dataset.matrix.tolist()]
        assert list(batch) == loop

    def test_overall_scores_unchanged_by_batching(self):
        dataset = dummy_uniform_sample(3, 40, seed=2)
        for fn in [
            Min(3),
            Max(3),
            Median(3),
            Avg(3),
            WeightedSum([0.2, 0.3, 0.5]),
            Product(3),
            Geometric(3),
            Monotone(lambda s: min(s), arity=3),
        ]:
            scores = dataset.overall_scores(fn)
            loop = [fn(tuple(row)) for row in dataset.matrix.tolist()]
            assert list(scores) == loop
            # The oracle ranks on exactly those floats.
            assert [(r.obj, r.score) for r in dataset.topk(fn, 7)] == sorted(
                enumerate(loop), key=lambda pair: rank_key(pair[1], pair[0])
            )[:7]

    def test_batch_shape_validated(self):
        with pytest.raises(ValueError):
            Min(2).evaluate_batch(np.zeros((4, 3)))
        with pytest.raises(ValueError):
            Avg(2).evaluate_batch(np.zeros(4))
