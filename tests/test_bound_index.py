"""The saturating bound index against the lazy heap (docs/RUNTIME.md).

A min-shaped ``F`` (``fn.min_terms``) runs the engine on the saturating
index; wrapping the *same* compiled callable in a plain ``Monotone``,
which exposes no terms, runs it on the lazy heap. Everything the engine
does must be identical between the two: every trace step, every access,
every per-predicate count and the ranking's floats bit for bit.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.bounds import LazyBoundIndex, SaturatingBoundIndex, bound_index
from repro.core.framework import FrameworkNC, FrameworkTG
from repro.core.policies import SRGPolicy
from repro.data.dataset import Dataset
from repro.data.generators import uniform
from repro.obs.metrics import MetricsRegistry
from repro.parallel.executor import ParallelExecutor
from repro.query.compiler import compile_expression
from repro.query.parser import parse_query
from repro.core.state import ScoreState
from repro.core.tasks import UNSEEN
from repro.scoring.functions import (
    Avg,
    Max,
    Median,
    Min,
    Monotone,
    Product,
    WeightedSum,
)
from repro.sources.cost import CostModel
from repro.sources.middleware import Middleware

SCHEMA = ["a", "b", "c"]


@st.composite
def cases(draw):
    m = draw(st.integers(min_value=2, max_value=3))
    n = draw(st.integers(min_value=1, max_value=30))
    levels = draw(st.integers(min_value=2, max_value=5))
    grid = [i / (levels - 1) for i in range(levels)] + [-0.0]
    scores = draw(
        st.lists(
            st.lists(st.sampled_from(grid), min_size=m, max_size=m),
            min_size=n,
            max_size=n,
        )
    )
    names = SCHEMA[:m]
    # Predicates F never references are legal (and stay unaccessed or
    # accessed for nothing, as the plan decides).
    referenced = draw(
        st.lists(st.sampled_from(names), min_size=1, max_size=m + 1)
    )
    args = [
        name
        if draw(st.booleans())
        else f"{draw(st.sampled_from([0.25, 0.5, 1.0]))}*{name}"
        for name in referenced
    ]
    aggregate = (
        "median" if len(args) <= 2 and draw(st.booleans()) else "min"
    )
    k = draw(st.integers(min_value=1, max_value=min(4, n)))
    shape = draw(st.sampled_from(["sequential", "tg", "waves-2", "waves-3"]))
    return {
        "scores": scores,
        "names": names,
        "text": f"SELECT * FROM r ORDER BY {aggregate}({', '.join(args)}) "
        f"STOP AFTER {k}",
        "k": k,
        "cr": draw(st.sampled_from([1.0, 3.0, 10.0])),
        "no_wild_guesses": draw(st.booleans()),
        "shape": shape,
        "theta": (
            draw(st.sampled_from([1.0, 1.5]))
            if shape in ("sequential", "tg")
            else 1.0
        ),
        "depths": tuple(
            draw(st.sampled_from([0.0, 0.5, 1.0])) for _ in range(m)
        ),
        "schedule": tuple(draw(st.permutations(range(m)))),
    }


def run_engine(fn, case):
    data = Dataset(np.array(case["scores"], dtype=float))
    middleware = Middleware.over(
        data,
        CostModel.uniform(data.m, cs=1.0, cr=case["cr"]),
        no_wild_guesses=case["no_wild_guesses"],
        record_log=True,
    )
    policy = SRGPolicy(case["depths"], case["schedule"])
    steps = []
    if case["shape"] in ("sequential", "tg"):
        # TG offers random accesses on any seen object, so deliveries
        # also land on objects that sit in the index.
        engine_cls = FrameworkNC if case["shape"] == "sequential" else FrameworkTG
        engine = engine_cls(
            middleware,
            fn,
            case["k"],
            policy,
            observer=steps.append,
            theta=case["theta"],
        )
    else:
        engine = ParallelExecutor(
            middleware,
            fn,
            case["k"],
            policy,
            concurrency=int(case["shape"].split("-")[1]),
        )
    result = engine.run()
    stats = middleware.stats
    return {
        "steps": steps,
        "log": list(stats.log),
        "ranking": [
            (entry.obj, struct.pack("<d", entry.score))
            for entry in result.ranking
        ],
        "sorted": stats.sorted_counts,
        "random": stats.random_counts,
        "metadata": result.metadata,
    }


class TestDifferential:
    @settings(max_examples=300, deadline=None)
    @given(cases())
    def test_saturating_index_replays_the_lazy_heap(self, case):
        fn, _order = compile_expression(
            parse_query(case["text"]).expr, schema=case["names"]
        )
        assert fn.min_terms is not None
        lazy = Monotone(fn.function, fn.arity, name=fn.name)
        assert lazy.min_terms is None
        assert run_engine(fn, case) == run_engine(lazy, case)

    @pytest.mark.parametrize("fn", [Min(2), Min(3)])
    def test_library_min_replays_the_lazy_heap(self, fn):
        rng = np.random.default_rng(2)
        case = {
            "scores": (rng.integers(0, 4, size=(200, fn.arity)) / 3).tolist(),
            "k": 5,
            "cr": 3.0,
            "no_wild_guesses": True,
            "shape": "sequential",
            "theta": 1.0,
            "depths": (0.5,) * fn.arity,
            "schedule": tuple(range(fn.arity)),
        }
        lazy = Monotone(fn.evaluate, fn.arity)
        assert run_engine(fn, case) == run_engine(lazy, case)


class TestIndexChoice:
    def test_min_shaped_functions_get_the_saturating_index(self):
        data = uniform(10, 3, seed=1)
        middleware = Middleware.over(data, CostModel.uniform(3))
        for text in (
            "min(a, 0.5*b)",
            "median(a, c)",
            "min(b)",
        ):
            fn, _ = compile_expression(
                parse_query(f"SELECT * FROM r ORDER BY {text} STOP AFTER 1").expr,
                schema=SCHEMA,
            )
            engine = FrameworkNC(middleware, fn, 1, SRGPolicy((0.5,) * 3))
            assert isinstance(engine._bounds, SaturatingBoundIndex), text

    @pytest.mark.parametrize(
        "text",
        [
            "median(a, b, c)",
            "min(a, min(b, c))",
            "min(a, 0.5*b + 0.5*c)",
            "avg(a, b)",
            "a",
        ],
    )
    def test_other_functions_keep_the_lazy_heap(self, text):
        fn, _ = compile_expression(
            parse_query(f"SELECT * FROM r ORDER BY {text} STOP AFTER 1").expr,
            schema=SCHEMA,
        )
        assert fn.min_terms is None
        middleware = Middleware.over(uniform(10, 3, seed=1), CostModel.uniform(3))
        engine = FrameworkNC(middleware, fn, 1, SRGPolicy((0.5,) * 3))
        assert isinstance(engine._bounds, LazyBoundIndex)

    def test_library_terms(self):
        assert Min(2).min_terms == ((0, None), (1, None))
        assert Median(2).min_terms is None
        assert Avg(2).min_terms is None


class TestBoundEvaluations:
    def _run(self, fn, n=500):
        registry = MetricsRegistry()
        middleware = Middleware.over(
            uniform(n, 2, seed=7),
            CostModel.uniform(2, cs=1.0, cr=1.0),
            metrics=registry,
        )
        FrameworkNC(middleware, fn, 10, SRGPolicy((0.5, 0.5), (0, 1))).run()
        evaluations = registry.total("repro_engine_bound_evaluations_total")
        return evaluations / middleware.stats.total_accesses

    def test_tied_min_stays_under_four_evaluations_per_access(self):
        # Under min(a, 0.8*b) every object whose known term is at or above
        # 0.8*l_b ties at that value; the lazy heap re-verifies the whole
        # tie on each drop of l_b, the saturating groups do not.
        fn, _ = compile_expression(
            parse_query("SELECT * FROM r ORDER BY min(a, 0.8*b) STOP AFTER 10").expr,
            schema=["a", "b"],
        )
        assert self._run(fn) < 4
        assert self._run(Monotone(fn.function, 2)) > 20

    def test_counter_is_added_once_per_query(self):
        registry = MetricsRegistry()
        middleware = Middleware.over(
            uniform(50, 2, seed=3), CostModel.uniform(2), metrics=registry
        )
        engine = FrameworkNC(middleware, Min(2), 3, SRGPolicy((0.5, 0.5)))
        engine.run()
        assert registry.total(
            "repro_engine_bound_evaluations_total"
        ) == engine.bound_evaluations > 0


class TestIndexUnit:
    def test_pops_follow_bound_then_higher_id(self):
        data = Dataset(np.array([[0.9, 0.2], [0.9, 0.2], [0.5, 0.7], [0.1, 0.1]]))
        middleware = Middleware.over(data, CostModel.uniform(2), no_wild_guesses=False)
        engine = FrameworkNC(middleware, Min(2), 4, SRGPolicy((0.0, 0.0)))
        state = engine.state
        index = bound_index(state)
        assert isinstance(index, SaturatingBoundIndex)
        for obj in range(4):
            index.push(obj)
        # Known p0 scores move live objects 0 and 3 to the {p1} group,
        # where F_max = min(p0, l_1): 0.9 and 0.1. The untouched objects
        # 1 and 2 tie at F(1, 1) = 1, and ties go to the higher id.
        state.record(0, 0, 0.9)
        state.record(0, 3, 0.1)
        index.update(0)
        index.update(3)
        assert [index.pop_current() for _ in range(4)] == [
            (2, 1.0), (1, 1.0), (0, 0.9), (3, 0.1)
        ]
        assert index.pop_current() is None


#: Non-min F: these run on the lazy heap, where a hint can save a call.
PUSH_BACK_FUNCTIONS = [
    Avg(3),
    Max(3),
    Product(3),
    WeightedSum([0.2, 0.3, 0.5]),
    compile_expression(
        parse_query(
            "SELECT * FROM r ORDER BY avg(0.9*a, max(b, c)) STOP AFTER 1"
        ).expr,
        schema=SCHEMA,
    )[0],
]


def _deliver(middleware, state, op):
    """One access, recorded the way the engine records it."""
    kind, predicate, obj = op
    if kind == "sorted":
        if middleware.exhausted(predicate):
            return
        delivered, score = middleware.sorted_access(predicate)
        state.record(predicate, delivered, score)
    elif middleware.is_seen(obj) and state.known_score(obj, predicate) is None:
        state.record(predicate, obj, middleware.random_access(predicate, obj))


def _drain(index):
    popped = []
    while (entry := index.pop_current()) is not None:
        popped.append((entry[0], struct.pack("<d", entry[1])))
    return popped


class TestPushBack:
    """Pushing an entry back at the bound it was popped with is exact."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(PUSH_BACK_FUNCTIONS),
        st.lists(
            st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=3, max_size=3),
            min_size=2,
            max_size=12,
        ),
        st.lists(
            st.tuples(
                st.sampled_from(["sorted", "random"]),
                st.integers(0, 2),
                st.integers(0, 11),
            ),
            max_size=30,
        ),
        st.data(),
    )
    def test_popped_bounds_pop_like_current_ones(self, fn, rows, ops, data):
        dataset = Dataset(np.array(rows, dtype=float))
        middleware = Middleware.over(
            dataset, CostModel.uniform(3), strict=False
        )
        state = ScoreState(middleware, fn)
        split = data.draw(st.integers(0, len(ops)))
        for op in ops[:split]:
            _deliver(middleware, state, op)
        # Each tracked object (and UNSEEN) at its bound before the rest
        # of the accesses: at or above every later bound.
        objects = [UNSEEN, *sorted(state.tracked())]
        earlier = {obj: state.upper_bound(obj) for obj in objects}
        for op in ops[split:]:
            _deliver(middleware, state, op)
        hinted = LazyBoundIndex(state)
        current = LazyBoundIndex(state)
        for obj in objects:
            assert earlier[obj] >= state.upper_bound(obj)
            hinted.push(obj, earlier[obj])
            current.push(obj)
        assert _drain(hinted) == _drain(current)

    @pytest.mark.parametrize("fn", PUSH_BACK_FUNCTIONS + [Min(3)])
    @pytest.mark.parametrize("concurrency", [1, 2, 4])
    @pytest.mark.parametrize("k", [1, 10])
    def test_waves_replay_fresh_push_back(self, fn, concurrency, k):
        class FreshPushBack(ParallelExecutor):
            """The wave core as it was: F evaluated at every push-back."""

            def _push_back(self, entries):
                all_seen = self.middleware.seen_count >= self.middleware.n_objects
                for obj, _stale in entries:
                    if obj == UNSEEN and (all_seen or self._unseen_abandoned):
                        self._tracked.discard(UNSEEN)
                        continue
                    self._bounds.push(obj)

        def run(engine_cls):
            middleware = Middleware.over(
                uniform(120, 3, seed=11),
                CostModel.uniform(3, cs=1.0, cr=4.0),
                record_log=True,
            )
            engine = engine_cls(
                middleware,
                fn,
                k,
                SRGPolicy((0.5, 0.3, 0.6), (2, 0, 1)),
                concurrency=concurrency,
            )
            outcome = engine.execute()
            result = outcome.result
            return {
                "ranking": [
                    (entry.obj, struct.pack("<d", entry.score))
                    for entry in result.ranking
                ],
                "cost": middleware.stats.total_cost(),
                "log": middleware.stats.log,
                "metadata": result.metadata,
                "waves": outcome.waves,
            }, engine.bound_evaluations

        new, new_evaluations = run(ParallelExecutor)
        old, old_evaluations = run(FreshPushBack)
        assert new == old
        assert new_evaluations <= old_evaluations
        if fn.min_terms is None and k > 1:
            assert new_evaluations < old_evaluations
