"""Bitwise contract of the compiled F_max kernel (docs/PERF.md).

A compiled query carries ``fn.bound(r, l)``: ``F`` of the row reading
``r[i]``, or ``l[i]`` where ``r[i] is None``. The engine's Eq. 3 bounds
and the plan-cost replay call it instead of composing that row, so it
must return bitwise the float the composed-row evaluation returns -- else
a bound, a heap order and an access count could drift. Library functions
without a compiled ``bound`` get the composed-row closure from
``bound_evaluator``, which must agree with ``scalar_evaluator`` the same
way.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.state import ScoreState
from repro.data.generators import uniform
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
    bound_evaluator,
    scalar_evaluator,
)
from repro.sources.cost import CostModel
from repro.sources.middleware import Middleware
from tests.test_query_property import NAMES, bits, expressions, scores


def composed(row, fill):
    return [value if score is None else score for score, value in zip(row, fill)]


#: A known-score slot: undetermined (None) or a hostile-ish score.
slots = st.one_of(st.none(), scores)


class TestCompiledBound:
    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(
            expressions(depth=3),
            # Two names only: duplicated references like min(p0, p0).
            expressions(depth=3, pool=st.sampled_from(["p0", "p1"])),
        ),
        st.data(),
    )
    def test_bound_is_the_composed_row_bitwise(self, expr, data):
        referenced = expr.predicates()
        spare = [name for name in NAMES if name not in referenced]
        extra = (
            data.draw(st.lists(st.sampled_from(spare), unique=True))
            if spare
            else []
        )
        schema = data.draw(st.permutations(referenced + extra))
        fn, order = compile_expression(expr, schema=schema)
        assert bound_evaluator(fn) is fn.bound
        width = len(order)
        for _ in range(5):
            row = data.draw(st.lists(slots, min_size=width, max_size=width))
            fill = data.draw(st.lists(scores, min_size=width, max_size=width))
            expected = bits(fn.function(composed(row, fill)))
            assert bits(fn.bound(row, fill)) == expected
            # The F_min fill and the untracked (all-None) row.
            zeros = [0.0] * width
            assert bits(fn.bound(row, zeros)) == bits(
                fn.function(composed(row, zeros))
            )
            assert bits(fn.bound([None] * width, fill)) == bits(
                fn.function(fill)
            )

    @pytest.mark.parametrize(
        "text",
        ["0.9*p0", "avg(0.9*p0, 0.95*p1)", "min(0.5*p0, p1)", "0.3*p0 + 0.7*p1"],
    )
    def test_single_weighted_terms_lower_without_sum(self, text):
        expr = parse_query(f"SELECT * FROM r ORDER BY {text} STOP AFTER 1").expr
        fn, order = compile_expression(expr, schema=["p0", "p1"])
        for vector in ([-0.0, -0.0], [0.0, 5e-324], [5e-324, 1.0], [0.3, 0.7]):
            env = dict(zip(order, vector))
            assert bits(fn.evaluate(vector)) == bits(expr.evaluate(env))
            assert bits(fn.bound([None, None], vector)) == bits(
                expr.evaluate(env)
            )


LIBRARY = [
    Avg(3),
    WeightedSum([0.2, 0.3, 0.5]),
    WeightedSum([1.0, 3.0, 7.0]),
    Min(3),
    Max(3),
    Product(3),
    Geometric(3),
    Median(3),
    Monotone(lambda s: min(s[0], s[2]), arity=3),
]


class TestLibraryBound:
    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(LIBRARY),
        st.lists(slots, min_size=3, max_size=3),
        st.lists(scores, min_size=3, max_size=3),
    )
    def test_closure_matches_scalar_evaluator(self, fn, row, fill):
        assert fn.bound is None
        bound = bound_evaluator(fn)
        evaluate = scalar_evaluator(fn)
        assert bits(bound(row, fill)) == bits(evaluate(composed(row, fill)))


class TestScoreStateBounds:
    @pytest.mark.parametrize(
        "fn",
        [
            Avg(3),
            compile_expression(
                parse_query(
                    "SELECT * FROM r ORDER BY avg(0.9*a, max(b, c), 0.5*a + 0.5*c) "
                    "STOP AFTER 1"
                ).expr,
                schema=["a", "b", "c"],
            )[0],
        ],
    )
    def test_bounds_and_count_follow_the_row(self, fn):
        data = uniform(n=20, m=3, seed=4)
        middleware = Middleware.over(data, CostModel.uniform(3, cs=1.0, cr=1.0))
        state = ScoreState(middleware, fn)
        evaluate = scalar_evaluator(fn)
        for _ in range(4):
            obj, score = middleware.sorted_access(1)
            state.record(1, obj, score)
        state.record(2, 7, 0.25)
        state.record(2, 7, 0.25)  # a repeated delivery is not a new score
        assert state.record_count(7) == 1
        assert not state.is_complete(7)
        limits = state.limits()
        for obj in [7, 0, *state.tracked()]:
            row = state.snapshot(obj)
            assert bits(state.upper_bound(obj)) == bits(
                evaluate(composed(row, limits))
            )
            assert bits(state.lower_bound(obj)) == bits(
                evaluate(composed(row, [0.0] * 3))
            )
        state.record(0, 7, 0.5)
        state.record(1, 7, 0.75)
        assert state.record_count(7) == 3
        assert state.is_complete(7)
        assert state.upper_bound(7) == state.lower_bound(7) == state.exact_score(7)


class TestGeneratedLibraryBound:
    """Library classes get a generated straight-line ``bound`` per arity."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=1, max_value=6), st.data())
    def test_every_arity_matches_scalar_evaluator(self, arity, data):
        weights = data.draw(
            st.lists(
                st.floats(min_value=0.0, max_value=1e3),
                min_size=arity,
                max_size=arity,
            ).filter(lambda ws: sum(ws) > 0)
        )
        fn = data.draw(
            st.sampled_from(
                [
                    Min(arity),
                    Max(arity),
                    Avg(arity),
                    Product(arity),
                    Geometric(arity),
                    Median(arity),
                    WeightedSum(weights),
                ]
            )
        )
        bound = bound_evaluator(fn)
        evaluate = scalar_evaluator(fn)
        for _ in range(5):
            row = data.draw(st.lists(slots, min_size=arity, max_size=arity))
            fill = data.draw(st.lists(scores, min_size=arity, max_size=arity))
            assert bits(bound(row, fill)) == bits(evaluate(composed(row, fill)))

    def test_subclasses_keep_the_composed_row(self):
        class Doubled(Avg):
            def evaluate(self, scores):
                return 2 * super().evaluate(scores)

        bound = bound_evaluator(Doubled(2))
        assert bound([None, 0.5], [0.25, 1.0]) == 0.75
