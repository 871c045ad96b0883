"""Compile scoring-expression ASTs into ScoringFunction objects.

The engine and the plan-cost replay evaluate ``F`` millions of times per
workload, so an expression is lowered once to a straight-line Python
function instead of walking the AST per call. The lowering keeps
:meth:`Expr.evaluate`'s exact float semantics: it calls the same
builtins on the same value sequence in the same order (``sum`` is never
unrolled into ``a + b + c``, which rounds differently from CPython
3.12's compensated ``sum``). Query text never reaches ``exec``: predicate
names become indices ``s[i]`` and weights are bound as namespace
constants ``c0, c1, ...``.
"""

from __future__ import annotations

from functools import lru_cache
from types import CodeType
from typing import Callable, Optional, Sequence, cast

from repro.query.ast import Aggregate, Expr, PredicateRef, QueryError, WeightedSum
from repro.scoring.functions import Monotone, ScoringFunction

#: The only builtins generated source may call.
_BUILTINS = {"sum": sum, "min": min, "max": max, "sorted": sorted}


def lower_expression(
    expr: Expr, order: Sequence[str]
) -> tuple[str, dict[str, float]]:
    """Lower ``expr`` to ``(source, constants)`` over a score vector ``s``.

    ``source`` defines ``evaluate(s)`` where ``s`` is aligned with
    ``order``. Every nested aggregate or sum is bound to a local ``t<i>``,
    so the source nests at most two calls deep whatever the expression's
    depth. Names in ``source`` are only ``s``, ``t<i>``, the weight
    constants ``c<i>`` (values in ``constants``) and the builtins
    ``sum``/``min``/``max``/``sorted``.
    """
    index = {name: i for i, name in enumerate(order)}
    constants: dict[str, float] = {}
    lines: list[str] = []

    def call(node: Expr) -> str:
        if isinstance(node, WeightedSum):
            terms = []
            for weight, sub in node.terms:
                name = f"c{len(constants)}"
                constants[name] = weight
                terms.append(f"{name} * {operand(sub)}")
            return f"sum(({', '.join(terms)},))"
        if not isinstance(node, Aggregate):
            raise QueryError(f"cannot compile {type(node).__name__} nodes")
        args = [operand(arg) for arg in node.args]
        values = f"({', '.join(args)},)"
        n = len(args)
        if node.name in ("min", "max"):
            return f"{node.name}({values})"
        if node.name == "avg":
            return f"sum({values}) / {n}"
        if node.name in ("prod", "geo"):
            chain = " * ".join(["1.0", *args])
            return chain if node.name == "prod" else f"({chain}) ** (1.0 / {n})"
        return f"sorted({values})[{(n - 1) // 2}]"  # lower median

    def operand(node: Expr) -> str:
        if isinstance(node, PredicateRef):
            return f"s[{index[node.name]}]"
        value = call(node)
        name = f"t{len(lines)}"
        lines.append(f"    {name} = {value}\n")
        return name

    root = operand(expr) if isinstance(expr, PredicateRef) else call(expr)
    return f"def evaluate(s):\n{''.join(lines)}    return {root}\n", constants


def min_terms(
    expr: Expr, order: Sequence[str]
) -> Optional[tuple[tuple[int, Optional[float]], ...]]:
    """The per-predicate terms of a min-shaped expression, else ``None``.

    Min-shaped means a top-level ``min(...)`` or a median of at most two
    arguments (the lower median of two values is their minimum) whose
    every argument is a bare predicate ``p`` -- term ``(i, None)`` -- or a
    single weighted predicate ``w*p`` -- term ``(i, w)``. The compiled
    function then equals, in value, the minimum of those terms
    (:attr:`ScoringFunction.min_terms`).
    """
    if not isinstance(expr, Aggregate):
        return None
    if expr.name != "min" and not (expr.name == "median" and len(expr.args) <= 2):
        return None
    index = {name: i for i, name in enumerate(order)}
    terms: list[tuple[int, Optional[float]]] = []
    for arg in expr.args:
        if isinstance(arg, PredicateRef):
            terms.append((index[arg.name], None))
        elif (
            isinstance(arg, WeightedSum)
            and len(arg.terms) == 1
            and isinstance(arg.terms[0][1], PredicateRef)
        ):
            weight, ref = arg.terms[0]
            terms.append((index[ref.name], weight))  # type: ignore[attr-defined]
        else:
            return None
    return tuple(terms)


@lru_cache(maxsize=1024)
def _code(source: str) -> CodeType:
    # Sources carry no names or weights, so queries of one shape share one.
    return compile(source, "<scoring expression>", "exec")


def compile_expression(
    expr: Expr, schema: Optional[Sequence[str]] = None
) -> tuple[ScoringFunction, tuple[str, ...]]:
    """Compile an expression into ``(fn, predicate_order)``.

    ``fn`` takes a score vector aligned with ``predicate_order``. When a
    ``schema`` is given, the vector is aligned with the schema instead
    (the middleware's predicate order); every referenced predicate must
    then appear in the schema. Schema predicates the expression never
    references are legal -- they simply do not influence the score (and a
    cost-based plan will learn not to access them).

    ``fn`` is a :class:`Monotone` wrapping the straight-line function
    generated by :func:`lower_expression`; it returns bitwise the same
    float as :meth:`Expr.evaluate` on the matching environment, and a
    min-shaped expression also exposes its terms as ``fn.min_terms``
    (:func:`min_terms`). All AST node types are monotone by construction,
    so the compiled function honours the Section 3.1 contract.
    """
    referenced = tuple(expr.predicates())
    if schema is None:
        order = referenced
    else:
        order = tuple(schema)
        missing = [name for name in referenced if name not in order]
        if missing:
            raise QueryError(
                f"predicates {missing} are not in the schema {list(order)}"
            )
        duplicates = {name for name in order if list(order).count(name) > 1}
        if duplicates:
            raise QueryError(f"schema has duplicate predicates {sorted(duplicates)}")

    source, constants = lower_expression(expr, order)
    namespace: dict[str, object] = {"__builtins__": {}, **_BUILTINS, **constants}
    exec(_code(source), namespace)
    evaluate = cast(Callable[[Sequence[float]], float], namespace["evaluate"])
    fn = Monotone(evaluate, arity=len(order), name=str(expr))
    fn.min_terms = min_terms(expr, order)
    return fn, order
