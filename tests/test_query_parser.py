"""Tests for the SQL-like query parser and AST semantics."""

import pytest

from repro.query.ast import (
    Aggregate,
    ParsedQuery,
    PredicateRef,
    QueryError,
    WeightedSum,
)
from repro.query.parser import MAX_NESTING, parse_query

Q1_TEXT = "SELECT name FROM r ORDER BY min(rating, close) STOP AFTER 5"


class TestParseStructure:
    def test_paper_query_q1(self):
        query = parse_query(Q1_TEXT)
        assert query.select == ("name",)
        assert query.source == "r"
        assert query.k == 5
        assert query.predicates == ("rating", "close")
        assert isinstance(query.expr, Aggregate)
        assert query.expr.name == "min"

    def test_paper_query_q2(self):
        query = parse_query(
            "select name from hotels order by "
            "min(close, stars, cheap) stop after 5"
        )
        assert query.predicates == ("close", "stars", "cheap")

    def test_star_select(self):
        assert parse_query(
            "SELECT * FROM r ORDER BY rating STOP AFTER 1"
        ).select == ("*",)

    def test_multi_column_select(self):
        query = parse_query(
            "SELECT name, addr FROM r ORDER BY rating LIMIT 3"
        )
        assert query.select == ("name", "addr")

    def test_limit_synonym(self):
        assert parse_query("SELECT * FROM r ORDER BY x LIMIT 7").k == 7

    def test_roundtrip_str(self):
        query = parse_query(Q1_TEXT)
        again = parse_query(str(query))
        assert again.predicates == query.predicates
        assert again.k == query.k


class TestExpressions:
    def test_weighted_sum(self):
        query = parse_query(
            "SELECT * FROM r ORDER BY 0.3*rating + 0.7*close STOP AFTER 2"
        )
        assert isinstance(query.expr, WeightedSum)
        assert query.expr.evaluate({"rating": 1.0, "close": 0.0}) == pytest.approx(0.3)

    def test_bare_predicate_term_weight_one(self):
        query = parse_query("SELECT * FROM r ORDER BY 0*a + b STOP AFTER 1")
        assert query.expr.evaluate({"a": 1.0, "b": 0.25}) == pytest.approx(0.25)

    def test_nested_aggregates(self):
        query = parse_query(
            "SELECT * FROM r ORDER BY min(avg(a, b), c) STOP AFTER 1"
        )
        env = {"a": 0.4, "b": 0.8, "c": 0.9}
        assert query.expr.evaluate(env) == pytest.approx(0.6)

    def test_weighted_aggregate_terms(self):
        query = parse_query(
            "SELECT * FROM r ORDER BY 0.5*min(a, b) + 0.5*c STOP AFTER 1"
        )
        env = {"a": 0.2, "b": 0.6, "c": 1.0}
        assert query.expr.evaluate(env) == pytest.approx(0.6)

    def test_parenthesized_expression(self):
        query = parse_query("SELECT * FROM r ORDER BY (min(a, b)) STOP AFTER 1")
        assert query.predicates == ("a", "b")

    @pytest.mark.parametrize(
        "name, env, expected",
        [
            ("max", {"a": 0.2, "b": 0.6}, 0.6),
            ("avg", {"a": 0.2, "b": 0.6}, 0.4),
            ("prod", {"a": 0.5, "b": 0.5}, 0.25),
            ("geo", {"a": 0.25, "b": 1.0}, 0.5),
            ("median", {"a": 0.2, "b": 0.6}, 0.2),
        ],
    )
    def test_aggregate_semantics(self, name, env, expected):
        query = parse_query(f"SELECT * FROM r ORDER BY {name}(a, b) STOP AFTER 1")
        assert query.expr.evaluate(env) == pytest.approx(expected)

    def test_nested_weighted_sum_renders_unambiguously(self):
        # Regression (found by the round-trip property): a sum nested as a
        # weighted term must parenthesize when rendered.
        text = "SELECT * FROM r ORDER BY 0.5*(0.4*a + 0.6*b) + 0.5*c STOP AFTER 1"
        query = parse_query(text)
        env = {"a": 1.0, "b": 0.0, "c": 0.5}
        assert query.expr.evaluate(env) == pytest.approx(0.5 * 0.4 + 0.25)
        again = parse_query(str(query))
        assert again.expr.evaluate(env) == pytest.approx(0.5 * 0.4 + 0.25)

    def test_exponent_notation_weights(self):
        # Regression: tiny weights render as "1e-05" and must re-lex.
        query = parse_query(
            "SELECT * FROM r ORDER BY 1e-05*a + 0.9*b STOP AFTER 1"
        )
        assert query.expr.evaluate({"a": 1.0, "b": 1.0}) == pytest.approx(
            0.90001
        )

    def test_duplicate_references_deduplicated(self):
        query = parse_query(
            "SELECT * FROM r ORDER BY min(a, max(a, b)) STOP AFTER 1"
        )
        assert query.predicates == ("a", "b")


class TestErrors:
    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "empty"),
            ("ORDER BY x STOP AFTER 1", "expected 'select'"),
            ("SELECT * FROM r STOP AFTER 1", "expected 'order'"),
            ("SELECT * FROM r ORDER BY x", "STOP AFTER or LIMIT"),
            ("SELECT * FROM r ORDER BY x STOP AFTER 2.5", "integer"),
            ("SELECT * FROM r ORDER BY x STOP AFTER 0", ">= 1"),
            ("SELECT * FROM r ORDER BY foo(a) STOP AFTER 1", "unknown aggregate"),
            ("SELECT * FROM r ORDER BY min() STOP AFTER 1", "predicate or aggregate"),
            ("SELECT * FROM r ORDER BY 0.6*a + 0.6*b STOP AFTER 1", "> 1"),
            ("SELECT * FROM r ORDER BY x STOP AFTER 1 garbage", "expected 'eof'"),
            ("SELECT * FROM r ORDER BY 5 STOP AFTER 1", "expected 'star'"),
        ],
    )
    def test_rejects(self, text, message):
        with pytest.raises(QueryError, match=message):
            parse_query(text)

    def test_negative_weight_rejected_at_ast_level(self):
        with pytest.raises(QueryError, match="negative weight"):
            WeightedSum(((-0.1, PredicateRef("a")),))

    def test_valid_single_weighted_term(self):
        query = ParsedQuery(
            select=("*",),
            source="r",
            expr=WeightedSum(((0.5, PredicateRef("a")),)),
            k=1,
        )
        assert query.predicates == ("a",)


class TestNestingCap:
    @staticmethod
    def _query(opening: str, closing: str, depth: int) -> str:
        expr = opening * depth + "a" + closing * depth
        return f"SELECT * FROM r ORDER BY {expr} STOP AFTER 1"

    @pytest.mark.parametrize(
        "opening, closing", [("min(", ", b)"), ("(", ")"), ("avg((", "), b)")]
    )
    def test_cap_is_inclusive_and_every_parenthesis_counts(
        self, opening, closing
    ):
        levels = opening.count("(")
        depth = MAX_NESTING // levels
        parse_query(self._query(opening, closing, depth))
        with pytest.raises(QueryError, match="nests deeper than"):
            parse_query(self._query(opening, closing, depth + 1))

    def test_weighted_sums_count_toward_the_cap(self):
        # Each ``min(0.5*`` level nests an aggregate and a weighted sum.
        depth = MAX_NESTING // 2
        parse_query(self._query("min(0.5*", ", b)", depth))
        with pytest.raises(QueryError, match="nests deeper than"):
            parse_query(self._query("min(0.5*", ", b)", depth + 1))
        with pytest.raises(QueryError, match="nests deeper than"):
            parse_query(self._query("min(0.5*a + 0.5*", ", b)", depth + 1))

    def test_far_past_the_cap_is_a_query_error_not_a_recursion_error(self):
        with pytest.raises(QueryError, match=str(MAX_NESTING)):
            parse_query(self._query("min(", ", b)", 5000))


class TestMonotonicityOfParsedExpressions:
    def test_compiled_expression_is_monotone(self):
        from repro.query.compiler import compile_expression
        from repro.scoring.monotonicity import check_monotone

        for text in (
            "min(a, b)",
            "0.3*a + 0.7*min(b, c)",
            "prod(a, avg(b, c))",
            "median(a, b, c)",
        ):
            query = parse_query(f"SELECT * FROM r ORDER BY {text} STOP AFTER 1")
            fn, _ = compile_expression(query.expr)
            assert check_monotone(fn) is None, text
