"""Property tests for the query front end: AST <-> text round-trips and
the compiled scoring function's bitwise agreement with the AST."""

import io
import re
import struct
import tokenize

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.optimizer.kernel import scalar_evaluator
from repro.query.ast import Aggregate, Expr, PredicateRef, WeightedSum
from repro.query.compiler import compile_expression, lower_expression
from repro.query.parser import parse_query

NAMES = ["rating", "close", "cheap", "stars", "fresh"]
names = st.sampled_from(NAMES)


@st.composite
def expressions(draw, depth: int = 2, pool=names) -> Expr:
    """Random well-formed scoring expressions over predicate names ``pool``."""
    if depth == 0:
        return PredicateRef(draw(pool))
    choice = draw(st.integers(min_value=0, max_value=2))
    if choice == 0:
        return PredicateRef(draw(pool))
    if choice == 1:
        agg = draw(st.sampled_from(Aggregate.SUPPORTED))
        arity = draw(st.integers(min_value=1, max_value=3))
        args = tuple(
            draw(expressions(depth=depth - 1, pool=pool)) for _ in range(arity)
        )
        return Aggregate(agg, args)
    terms = draw(st.integers(min_value=1, max_value=3))
    raw = [
        round(draw(st.floats(min_value=0.01, max_value=1.0)), 3)
        for _ in range(terms)
    ]
    total = sum(raw)
    weights = [round(w / total / 1.001, 6) for w in raw]  # sums < 1
    parts = tuple(
        (weight, draw(expressions(depth=depth - 1, pool=pool)))
        for weight in weights
    )
    return WeightedSum(parts)


class TestRoundTripProperty:
    @settings(max_examples=80, deadline=None)
    @given(expressions())
    def test_str_reparses_to_equivalent_expression(self, expr):
        """str(expr) -> parse -> same predicates and same values on a grid
        of environments."""
        text = f"SELECT * FROM r ORDER BY {expr} STOP AFTER 1"
        reparsed = parse_query(text).expr
        assert reparsed.predicates() == expr.predicates()
        rng = np.random.default_rng(0)
        for _ in range(5):
            env = {name: float(rng.random()) for name in expr.predicates()}
            assert reparsed.evaluate(env) == pytest.approx(
                expr.evaluate(env), abs=1e-9
            )

    @settings(max_examples=50, deadline=None)
    @given(expressions())
    def test_compiled_function_is_monotone_and_bounded(self, expr):
        fn, order = compile_expression(expr)
        rng = np.random.default_rng(1)
        for _ in range(10):
            lo = rng.random(len(order))
            hi = np.clip(lo + rng.random(len(order)) * (1 - lo), 0, 1)
            v_lo, v_hi = fn(list(lo)), fn(list(hi))
            assert v_lo <= v_hi + 1e-9
            assert -1e-9 <= v_lo <= 1.0 + 1e-9
            assert -1e-9 <= v_hi <= 1.0 + 1e-9


def bits(value: float) -> bytes:
    """The IEEE-754 encoding, so -0.0 and 0.0 compare unequal."""
    return struct.pack("d", value)


#: Scores mixing random values with signed zeros, 1 and the least subnormal.
scores = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 5e-324]),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)


class TestCompiledBitwise:
    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(
            expressions(depth=3),
            # Two names only: duplicated references like min(p0, p0).
            expressions(depth=3, pool=st.sampled_from(["p0", "p1"])),
        ),
        st.data(),
    )
    def test_compiled_equals_tree_walk_bitwise(self, expr, data):
        referenced = expr.predicates()
        spare = [name for name in NAMES if name not in referenced]
        extra = (
            data.draw(st.lists(st.sampled_from(spare), unique=True))
            if spare
            else []
        )
        schema = data.draw(st.permutations(referenced + extra))
        fn, order = compile_expression(expr, schema=schema)
        assert order == tuple(schema)
        fast = scalar_evaluator(fn)
        for _ in range(5):
            vector = data.draw(
                st.lists(scores, min_size=len(order), max_size=len(order))
            )
            expected = bits(expr.evaluate(dict(zip(order, vector))))
            assert bits(fn.evaluate(vector)) == expected
            assert bits(fast(vector)) == expected

    @pytest.mark.parametrize(
        "text",
        [
            "min(p0, p0)",
            "max(p1, p0, p1)",
            "0.5*p0 + 0.5*p0",
            "median(p0, p0, p1, p1)",
            "geo(p0, p0, p0)",
            "avg(prod(p0, p0), p0)",
        ],
    )
    def test_duplicated_references(self, text):
        expr = parse_query(f"SELECT * FROM r ORDER BY {text} STOP AFTER 1").expr
        fn, order = compile_expression(expr, schema=["p1", "x", "p0"])
        rng = np.random.default_rng(2)
        for vector in [[-0.0, 0.5, 0.0], [5e-324, 1.0, 1.0]] + rng.random(
            (20, 3)
        ).tolist():
            env = dict(zip(order, vector))
            assert bits(fn.evaluate(vector)) == bits(expr.evaluate(env))

    def test_deep_nesting_compiles(self):
        # Deeper than the Python tokenizer's parenthesis limit if the
        # expression were inlined; temporaries keep the source flat.
        expr: Expr = PredicateRef("a")
        for level in range(150):
            name = "min" if level % 2 else "avg"
            expr = Aggregate(name, (expr, PredicateRef("b")))
        fn, order = compile_expression(expr)
        vector = [0.3, 0.7]
        env = dict(zip(order, vector))
        assert bits(fn.evaluate(vector)) == bits(expr.evaluate(env))


class TestCompiledSafety:
    def test_hostile_names_and_weights_stay_out_of_source(self):
        text = "0.123456*__import__ + 0.3*min(os, s) + 0.5*max(s, __import__)"
        expr = parse_query(f"SELECT * FROM r ORDER BY {text} STOP AFTER 1").expr
        schema = ["s", "os", "__import__"]
        fn, order = compile_expression(expr, schema=schema)
        vector = [0.25, 0.5, 0.75]
        assert fn.evaluate(vector) == expr.evaluate(dict(zip(schema, vector)))

        row, fill = [None, 0.5, None], [0.25, 1.0, 0.75]
        assert bits(fn.bound(row, fill)) == bits(fn.evaluate(vector))

        source, constants = lower_expression(expr, order)
        assert sorted(constants.values()) == [0.123456, 0.3, 0.5]
        assert "def bound(r, l):" in source
        allowed = {
            "def", "evaluate", "bound", "return", "if", "is", "None",
            "s", "r", "l", "sum", "min", "max", "sorted",
        }
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type == tokenize.NAME:
                assert token.string in allowed or re.fullmatch(
                    r"[ctx]\d+", token.string
                ), token.string
            elif token.type == tokenize.NUMBER:
                assert token.string == "1.0" or token.string.isdigit(), token.string
            elif token.type == tokenize.STRING:
                pytest.fail(f"string literal in generated source: {token.string}")
