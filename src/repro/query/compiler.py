"""Compile scoring-expression ASTs into ScoringFunction objects.

The engine and the plan-cost replay evaluate ``F`` millions of times per
workload, so an expression is lowered once to a straight-line Python
function instead of walking the AST per call. The lowering keeps
:meth:`Expr.evaluate`'s exact float semantics: it calls the same
builtins on the same value sequence in the same order (``sum`` is never
unrolled into ``a + b + c``, which rounds differently from CPython
3.12's compensated ``sum``). The same body also backs ``bound(r, l)``,
the Eq. 3 bound of a partly known row, so no caller composes a row to
evaluate it. Query text never reaches ``exec``: predicate
names become indices ``s[i]`` and weights are bound as namespace
constants ``c0, c1, ...``.
"""

from __future__ import annotations

from functools import lru_cache
from types import CodeType
from typing import Callable, Optional, Sequence, cast

from repro.query.ast import Aggregate, Expr, PredicateRef, QueryError, WeightedSum
from repro.scoring.functions import BoundFunction, Monotone, ScoringFunction

#: The only builtins generated source may call.
_BUILTINS = {"sum": sum, "min": min, "max": max, "sorted": sorted}


def lower_expression(
    expr: Expr, order: Sequence[str]
) -> tuple[str, dict[str, float]]:
    """Lower ``expr`` to ``(source, constants)`` defining two functions.

    The expression is lowered once to a straight-line body; ``source``
    defines it twice, differing only in how a predicate is read:

    * ``evaluate(s)`` reads predicate ``i`` as ``s[i]``, where ``s`` is a
      score vector aligned with ``order``;
    * ``bound(r, l)`` reads it as ``r[i]``, or ``l[i]`` when ``r[i] is
      None`` -- Eq. 3's ``F_max`` of a known-score row ``r`` under the
      last-seen bounds ``l`` (or ``F_min`` with ``l`` all zeros), without
      composing the row. It equals, bitwise, ``evaluate`` on the composed
      row, because the body and its values are the same.

    Every nested aggregate or sum is bound to a local ``t<i>``, so the
    body nests at most two calls deep whatever the expression's depth. A
    single weighted term ``w*x`` is ``0.0 + c * x``: bitwise what
    ``sum((c * x,))`` returns (``sum`` starts from the integer 0), one
    builtin call fewer; sums of two or more terms stay ``sum``. Names in
    ``source`` are only ``s``, ``r``, ``l``, the locals ``t<i>`` and
    ``x<i>``, the weight constants ``c<i>`` (values in ``constants``)
    and the builtins ``sum``/``min``/``max``/``sorted``.
    """
    index = {name: i for i, name in enumerate(order)}
    constants: dict[str, float] = {}
    lines: list[str] = []
    referenced: set[int] = set()

    def call(node: Expr) -> str:
        if isinstance(node, WeightedSum):
            terms = []
            for weight, sub in node.terms:
                name = f"c{len(constants)}"
                constants[name] = weight
                terms.append(f"{name} * {operand(sub)}")
            if len(terms) == 1:
                return f"0.0 + {terms[0]}"
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
            # The body is a template: predicate i is the field {i}, filled
            # by each function's reader. Generated text has no other braces.
            i = index[node.name]
            referenced.add(i)
            return f"{{{i}}}"
        value = call(node)
        name = f"t{len(lines)}"
        lines.append(f"    {name} = {value}\n")
        return name

    root = operand(expr) if isinstance(expr, PredicateRef) else call(expr)
    body = f"{''.join(lines)}    return {root}\n"
    width = len(order)
    direct = body.format(*(f"s[{i}]" for i in range(width)))
    hoisted = body.format(*(f"x{i}" for i in range(width)))
    reads = "".join(
        f"    x{i} = r[{i}]\n    if x{i} is None:\n        x{i} = l[{i}]\n"
        for i in sorted(referenced)
    )
    source = f"def evaluate(s):\n{direct}\n\ndef bound(r, l):\n{reads}{hoisted}"
    return source, constants


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

    ``fn`` is a :class:`Monotone` wrapping the straight-line ``evaluate``
    generated by :func:`lower_expression`; it returns bitwise the same
    float as :meth:`Expr.evaluate` on the matching environment. The
    generated ``bound(r, l)`` is attached as ``fn.bound``
    (:attr:`ScoringFunction.bound`), and a min-shaped expression also
    exposes its terms as ``fn.min_terms`` (:func:`min_terms`). All AST
    node types are monotone by construction, so the compiled function
    honours the Section 3.1 contract.
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
    fn.bound = cast(BoundFunction, namespace["bound"])
    fn.min_terms = min_terms(expr, order)
    return fn, order
