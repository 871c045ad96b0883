"""Recursive-descent parser for the SQL-like top-k syntax.

Grammar (keywords case-insensitive)::

    query   := SELECT select FROM ident ORDER BY expr stop
    select  := '*' | ident (',' ident)*
    stop    := STOP AFTER number | LIMIT number
    expr    := term ('+' term)*          -- at most one level of summing
    term    := number '*' factor | factor
    factor  := aggregate '(' expr (',' expr)* ')' | ident | '(' expr ')'

Sums compile to :class:`~repro.query.ast.WeightedSum` (a bare factor in a
sum carries weight 1); single terms with a coefficient also become
one-term weighted sums, so ``0.5*rating`` works standalone.

Parentheses (grouping or aggregate) nest at most :data:`MAX_NESTING`
deep, and so do the aggregate and weighted-sum nodes of the parsed
tree; deeper text is a :class:`~repro.query.ast.QueryError`. Query text
therefore cannot exhaust the interpreter's recursion limit, neither in
the parser nor in the passes that walk the tree after it.
"""

from __future__ import annotations

from repro.query.ast import (
    Aggregate,
    Expr,
    ParsedQuery,
    PredicateRef,
    QueryError,
    WeightedSum,
)
from repro.query.lexer import Token, tokenize

#: Deepest nesting a query may use, in parentheses and in tree nodes.
MAX_NESTING = 200


def _tree_depth(expr: Expr) -> int:
    """How deep aggregate and weighted-sum nodes nest, without recursion."""
    depth, level = 0, [expr]
    while level:
        level = [
            child
            for node in level
            for child in (
                node.args
                if isinstance(node, Aggregate)
                else [term for _, term in node.terms]
                if isinstance(node, WeightedSum)
                else ()
            )
        ]
        depth += 1
    return depth - 1


class _Parser:
    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._index = 0
        self._depth = 0

    # ------------------------------------------------------------------
    # Token helpers
    # ------------------------------------------------------------------

    def _peek(self) -> Token:
        return self._tokens[self._index]

    def _advance(self) -> Token:
        token = self._tokens[self._index]
        self._index += 1
        return token

    def _expect(self, kind: str, text: str | None = None) -> Token:
        token = self._peek()
        if token.kind != kind or (text is not None and token.text != text):
            wanted = text if text is not None else kind
            raise QueryError(
                f"expected {wanted!r} at offset {token.position}, found "
                f"{token.text or 'end of query'!r}"
            )
        return self._advance()

    def _expect_keyword(self, word: str) -> Token:
        return self._expect("keyword", word)

    def _open(self) -> None:
        token = self._expect("lparen")
        self._depth += 1
        if self._depth > MAX_NESTING:
            raise QueryError(
                f"expression nests deeper than {MAX_NESTING} parentheses "
                f"at offset {token.position}"
            )

    def _close(self) -> None:
        self._expect("rparen")
        self._depth -= 1

    # ------------------------------------------------------------------
    # Grammar
    # ------------------------------------------------------------------

    def parse(self) -> ParsedQuery:
        self._expect_keyword("select")
        select = self._parse_select_list()
        self._expect_keyword("from")
        source = self._expect("ident").text
        self._expect_keyword("order")
        self._expect_keyword("by")
        expr = self._parse_expr()
        if _tree_depth(expr) > MAX_NESTING:
            # Weighted sums add tree levels that no parenthesis marks.
            raise QueryError(
                f"expression nests deeper than {MAX_NESTING} levels"
            )
        k = self._parse_stop()
        self._expect("eof")
        return ParsedQuery(select=select, source=source, expr=expr, k=k)

    def _parse_select_list(self) -> tuple[str, ...]:
        if self._peek().kind == "star":
            self._advance()
            return ("*",)
        columns = [self._expect("ident").text]
        while self._peek().kind == "comma":
            self._advance()
            columns.append(self._expect("ident").text)
        return tuple(columns)

    def _parse_stop(self) -> int:
        token = self._peek()
        if token.kind == "keyword" and token.text == "stop":
            self._advance()
            self._expect_keyword("after")
        elif token.kind == "keyword" and token.text == "limit":
            self._advance()
        else:
            raise QueryError(
                f"expected STOP AFTER or LIMIT at offset {token.position}"
            )
        number = self._expect("number")
        if "." in number.text:
            raise QueryError(
                f"retrieval size must be an integer, got {number.text}"
            )
        return int(number.text)

    def _parse_expr(self) -> Expr:
        terms = [self._parse_term()]
        while self._peek().kind == "plus":
            self._advance()
            terms.append(self._parse_term())
        if len(terms) == 1 and terms[0][0] is None:
            return terms[0][1]
        weighted = tuple(
            (1.0 if weight is None else weight, expr) for weight, expr in terms
        )
        return WeightedSum(weighted)

    def _parse_term(self) -> tuple[float | None, Expr]:
        token = self._peek()
        if token.kind == "number":
            self._advance()
            weight = float(token.text)
            self._expect("star")
            return weight, self._parse_factor()
        return None, self._parse_factor()

    def _parse_factor(self) -> Expr:
        token = self._peek()
        if token.kind == "lparen":
            self._open()
            inner = self._parse_expr()
            self._close()
            return inner
        if token.kind == "ident":
            self._advance()
            if self._peek().kind == "lparen":
                return self._parse_aggregate(token.text)
            return PredicateRef(token.text)
        raise QueryError(
            f"expected a predicate or aggregate at offset {token.position}, "
            f"found {token.text or 'end of query'!r}"
        )

    def _parse_aggregate(self, name: str) -> Expr:
        self._open()
        args = [self._parse_expr()]
        while self._peek().kind == "comma":
            self._advance()
            args.append(self._parse_expr())
        self._close()
        return Aggregate(name.lower(), tuple(args))


def parse_query(text: str) -> ParsedQuery:
    """Parse SQL-like top-k query text into a :class:`ParsedQuery`."""
    if not text or not text.strip():
        raise QueryError("empty query")
    return _Parser(tokenize(text)).parse()
