"""Intraprocedural dataflow with alias-lite provenance tags.

The provenance rules need to know *where values came from*, not just what a
call site looks like: a raw :class:`~repro.sources.base.Source` handed to
an engine two assignments later (RL101), or a ``random.Random`` threaded
through a helper and stored on an attribute (RL102). This engine runs a
small abstract interpretation over every function:

* values carry :class:`Tag` sets (``source``, ``rng``, ``rng_ok``, plus
  ``ref`` aliases of known callables) seeded at configured producer
  calls;
* tags propagate through assignments, tuple unpacking, subscripts,
  comprehensions, ``self`` attribute stores/loads (per-class table,
  shared across methods), and returns;
* a few interprocedural rounds propagate *return summaries* (a helper
  returning a raw RNG taints its call sites) and *argument-to-parameter*
  bindings (constructor plumbing), so provenance survives two-call
  threading without a full context-sensitive analysis.

The output is a bag of per-function facts (:class:`CallFact`,
:class:`StoreFact`, return tags) that rules query;
the engine itself knows nothing about any rule's verdicts.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.lint.deep.model import (
    ClassInfo,
    FunctionInfo,
    ModuleInfo,
    ProjectModel,
)

#: Builtins treated as taint-preserving containers/iterators.
_PASSTHROUGH = frozenset(
    {"list", "tuple", "set", "sorted", "reversed", "iter", "next", "frozenset"}
)

#: Interprocedural fixpoint rounds (summaries + param bindings converge
#: fast on this codebase; the cap bounds pathological fixtures).
_MAX_ROUNDS = 4


@dataclass(frozen=True, order=True)
class Tag:
    """One provenance mark: what kind of value, born where."""

    kind: str
    origin: str
    path: str
    line: int

    def describe(self) -> str:
        """Human form used in finding messages."""
        return f"{self.origin} at {self.path}:{self.line}"


@dataclass
class TaintConfig:
    """The provenance vocabulary shared by RL101 and RL102.

    Attributes:
        producers: resolved callable name -> tag kind its result carries
            (e.g. ``random.Random`` -> ``rng``, source constructors ->
            ``source``).
        blessed: resolved callable name -> tag kind marking a *sanctioned*
            derivation (``repro.determinism.derive_rng`` -> ``rng_ok``).
        consumers: resolved callables that absorb tagged arguments and
            return clean values (the Middleware wrapping boundary).
    """

    producers: dict[str, str] = field(default_factory=dict)
    blessed: dict[str, str] = field(default_factory=dict)
    consumers: frozenset[str] = frozenset()


#: Source-producing constructors: a value born here is a raw Source (or a
#: collection of them) until Middleware wrapping consumes it.
SOURCE_PRODUCERS = (
    "repro.sources.simulated.SimulatedSource",
    "repro.sources.simulated.sources_for",
    "repro.sources.callback.CallbackSource",
    "repro.sources.cache.CachedSource",
    "repro.faults.injector.FaultInjectingSource",
    "repro.faults.injector.faulty_sources_for",
)

#: The Middleware wrapping boundary: passing sources here charges them.
SOURCE_CONSUMERS = (
    "repro.sources.middleware.Middleware",
    "repro.sources.middleware.Middleware.over",
    "repro.sources.middleware.Middleware.over_sources",
)


def default_config() -> TaintConfig:
    """The library vocabulary: raw RNGs, derive_rng, sources, Middleware."""
    producers = {name: "source" for name in SOURCE_PRODUCERS}
    producers["random.Random"] = "rng"
    producers["random.SystemRandom"] = "rng"
    return TaintConfig(
        producers=producers,
        blessed={"repro.determinism.derive_rng": "rng_ok"},
        consumers=frozenset(SOURCE_CONSUMERS),
    )


@dataclass
class CallFact:
    """One call with the provenance of its receiver and arguments."""

    node: ast.Call
    resolved: Optional[str]
    attr: Optional[str]
    recv_tags: frozenset[Tag]
    arg_tags: tuple[frozenset[Tag], ...]


@dataclass
class StoreFact:
    """One ``self.<attr> = value`` store and the value's provenance."""

    node: ast.AST
    attr: str
    tags: frozenset[Tag]


@dataclass
class FunctionFacts:
    """Everything the dataflow learned about one function."""

    calls: list[CallFact] = field(default_factory=list)
    stores: list[StoreFact] = field(default_factory=list)
    returns: frozenset[Tag] = frozenset()


class ProjectDataflow:
    """Dataflow facts for every function of a :class:`ProjectModel`."""

    def __init__(self, project: ProjectModel, config: TaintConfig):
        self.project = project
        self.config = config
        self.facts: dict[str, FunctionFacts] = {}
        #: per-class attribute provenance (class qualname -> attr -> tags)
        self.class_attrs: dict[str, dict[str, frozenset[Tag]]] = {}
        self._param_tags: dict[str, dict[str, frozenset[Tag]]] = {}
        self._summaries: dict[str, frozenset[Tag]] = {}
        self._run_fixpoint()

    # ------------------------------------------------------------------
    # Fixpoint driver
    # ------------------------------------------------------------------

    def _run_fixpoint(self) -> None:
        ordered = sorted(self.project.functions)
        for _ in range(_MAX_ROUNDS):
            next_params: dict[str, dict[str, set[Tag]]] = {}
            next_attrs: dict[str, dict[str, set[Tag]]] = {}
            facts: dict[str, FunctionFacts] = {}
            summaries: dict[str, frozenset[Tag]] = {}
            for qual in ordered:
                info = self.project.functions[qual]
                analyzer = _FunctionAnalyzer(
                    self, info, next_params, next_attrs
                )
                facts[qual] = analyzer.run()
                summaries[qual] = facts[qual].returns
            frozen_params = {
                fn: {p: frozenset(tags) for p, tags in params.items()}
                for fn, params in next_params.items()
            }
            frozen_attrs = {
                cls: {a: frozenset(tags) for a, tags in attrs.items()}
                for cls, attrs in next_attrs.items()
            }
            stable = (
                summaries == self._summaries
                and frozen_params == self._param_tags
                and frozen_attrs == self.class_attrs
            )
            self.facts = facts
            self._summaries = summaries
            self._param_tags = frozen_params
            self.class_attrs = frozen_attrs
            if stable:
                break

    # Lookups used by the per-function analyzer ------------------------

    def summary_for(self, qual: str) -> frozenset[Tag]:
        """Return-provenance summary of a project function."""
        return self._summaries.get(qual, frozenset())

    def params_for(self, qual: str) -> dict[str, frozenset[Tag]]:
        """Caller-propagated parameter provenance of a project function."""
        return self._param_tags.get(qual, {})

    def attrs_for(self, cls_qual: str) -> dict[str, frozenset[Tag]]:
        """Attribute provenance table of a class (merged over methods)."""
        return self.class_attrs.get(cls_qual, {})


class _FunctionAnalyzer:
    """Two-pass abstract interpretation of one function body."""

    def __init__(
        self,
        dataflow: ProjectDataflow,
        info: FunctionInfo,
        next_params: dict[str, dict[str, set[Tag]]],
        next_attrs: dict[str, dict[str, set[Tag]]],
    ):
        self.dataflow = dataflow
        self.project = dataflow.project
        self.config = dataflow.config
        self.info = info
        self.module: ModuleInfo = info.module
        self.cls: Optional[ClassInfo] = info.cls
        self.next_params = next_params
        self.next_attrs = next_attrs
        self.env: dict[str, set[Tag]] = {}
        self.returns: set[Tag] = set()
        self.facts = FunctionFacts()
        self.record = False

    def run(self) -> FunctionFacts:
        """Analyze the body twice; record facts on the second pass only.

        The first pass populates the environment (so loop-carried and
        forward-referenced bindings are visible), the second records
        call/store facts against the converged environment.
        """
        for param, tags in self.dataflow.params_for(
            self.info.qualname
        ).items():
            self.env.setdefault(param, set()).update(tags)
        for final in (False, True):
            self.record = final
            for stmt in self.info.node.body:
                self._stmt(stmt)
        self.facts.returns = frozenset(self.returns)
        return self.facts

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            tags = self._eval(stmt.value)
            for target in stmt.targets:
                self._bind(target, tags)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._bind(stmt.target, self._eval(stmt.value))
        elif isinstance(stmt, ast.AugAssign):
            self._bind(stmt.target, self._eval(stmt.value))
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.returns.update(self._eval(stmt.value))
        elif isinstance(stmt, ast.Expr):
            self._eval(stmt.value)
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self._eval(stmt.exc)
        elif isinstance(stmt, (ast.If, ast.While)):
            self._eval(stmt.test)
            for inner in stmt.body + stmt.orelse:
                self._stmt(inner)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._bind(stmt.target, self._eval(stmt.iter))
            for inner in stmt.body + stmt.orelse:
                self._stmt(inner)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                tags = self._eval(item.context_expr)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, tags)
            for inner in stmt.body:
                self._stmt(inner)
        elif isinstance(stmt, ast.Try):
            for inner in (
                stmt.body + stmt.orelse + stmt.finalbody
            ):
                self._stmt(inner)
            for handler in stmt.handlers:
                for inner in handler.body:
                    self._stmt(inner)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Nested defs: analyze the body in the enclosing env (an
            # over-approximation that keeps closures' calls visible).
            for decorator in stmt.decorator_list:
                self._eval(decorator)
            for inner in stmt.body:
                self._stmt(inner)
        elif isinstance(stmt, ast.Assert):
            self._eval(stmt.test)
            if stmt.msg is not None:
                self._eval(stmt.msg)
        # Pass/Import/Global/Nonlocal/Delete/ClassDef: no provenance flow.

    def _bind(self, target: ast.expr, tags: set[Tag]) -> None:
        if isinstance(target, ast.Name):
            self.env.setdefault(target.id, set()).update(tags)
        elif isinstance(target, ast.Starred):
            self._bind(target.value, tags)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind(element, tags)
        elif isinstance(target, ast.Attribute):
            self._eval(target.value)
            if (
                isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and self.cls is not None
            ):
                cls_qual = self.cls.qualname
                table = self.next_attrs.setdefault(cls_qual, {})
                table.setdefault(target.attr, set()).update(tags)
                if self.record:
                    self.facts.stores.append(
                        StoreFact(
                            node=target,
                            attr=target.attr,
                            tags=frozenset(tags),
                        )
                    )
        elif isinstance(target, ast.Subscript):
            self._eval(target.value)
            self._eval(target.slice)

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def _eval(self, expr: ast.expr) -> set[Tag]:
        if isinstance(expr, ast.Name):
            tags = set(self.env.get(expr.id, ()))
            ref = self._ref_tag(expr)
            if ref is not None:
                tags.add(ref)
            return tags
        if isinstance(expr, ast.Attribute):
            base_tags = self._eval(expr.value)
            tags: set[Tag] = set()
            if (
                isinstance(expr.value, ast.Name)
                and expr.value.id == "self"
                and self.cls is not None
            ):
                tags.update(
                    self.dataflow.attrs_for(self.cls.qualname).get(
                        expr.attr, ()
                    )
                )
            else:
                # Attribute on a tagged container keeps the taint
                # (alias-lite: obj.sources stays a source collection).
                tags.update(
                    tag for tag in base_tags if tag.kind != "ref"
                )
            ref = self._ref_tag(expr)
            if ref is not None:
                tags.add(ref)
            return tags
        if isinstance(expr, ast.Call):
            return self._eval_call(expr)
        if isinstance(expr, ast.Subscript):
            tags = {
                tag for tag in self._eval(expr.value) if tag.kind != "ref"
            }
            self._eval(expr.slice)
            return tags
        if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            tags = set()
            for element in expr.elts:
                tags.update(self._eval(element))
            return tags
        if isinstance(expr, ast.Dict):
            tags = set()
            for key in expr.keys:
                if key is not None:
                    self._eval(key)
            for value in expr.values:
                tags.update(self._eval(value))
            return tags
        if isinstance(expr, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            self._bind_comprehension(expr.generators)
            return self._eval(expr.elt)
        if isinstance(expr, ast.DictComp):
            self._bind_comprehension(expr.generators)
            self._eval(expr.key)
            return self._eval(expr.value)
        if isinstance(expr, ast.BoolOp):
            tags = set()
            for value in expr.values:
                tags.update(self._eval(value))
            return tags
        if isinstance(expr, ast.IfExp):
            self._eval(expr.test)
            return self._eval(expr.body) | self._eval(expr.orelse)
        if isinstance(expr, ast.BinOp):
            return self._eval(expr.left) | self._eval(expr.right)
        if isinstance(expr, ast.UnaryOp):
            return self._eval(expr.operand)
        if isinstance(expr, ast.Compare):
            self._eval(expr.left)
            for comparator in expr.comparators:
                self._eval(comparator)
            return set()
        if isinstance(expr, ast.Starred):
            return self._eval(expr.value)
        if isinstance(expr, ast.Await):
            return self._eval(expr.value)
        if isinstance(expr, ast.NamedExpr):
            tags = self._eval(expr.value)
            self._bind(expr.target, tags)
            return tags
        if isinstance(expr, ast.JoinedStr):
            for value in expr.values:
                if isinstance(value, ast.FormattedValue):
                    self._eval(value.value)
            return set()
        return set()

    def _bind_comprehension(
        self, generators: Sequence[ast.comprehension]
    ) -> None:
        for generator in generators:
            self._bind(generator.target, self._eval(generator.iter))
            for condition in generator.ifs:
                self._eval(condition)

    def _ref_tag(self, expr: ast.expr) -> Optional[Tag]:
        """An alias tag when the expression names a known callable."""
        resolved = self.project.resolve_expr(expr, self.module, self.cls)
        if resolved is None:
            return None
        interesting = (
            resolved in self.config.producers
            or resolved in self.config.blessed
            or resolved in self.config.consumers
            or resolved in self.project.functions
            or resolved in self.project.classes
        )
        if not interesting:
            return None
        return Tag(
            kind="ref",
            origin=resolved,
            path=str(self.module.context.path),
            line=getattr(expr, "lineno", 0),
        )

    def _callee_name(self, node: ast.Call) -> Optional[str]:
        resolved = self.project.resolve_expr(
            node.func, self.module, self.cls
        )
        if resolved is not None:
            # A local name shadowing nothing resolves to itself; prefer a
            # ref alias carried in the environment when one exists.
            if (
                isinstance(node.func, ast.Name)
                and resolved == node.func.id
                and node.func.id in self.env
            ):
                refs = sorted(
                    tag.origin
                    for tag in self.env[node.func.id]
                    if tag.kind == "ref"
                )
                if refs:
                    return refs[0]
            return resolved
        # Dynamically computed callee: fall back to ref aliases.
        refs = sorted(
            tag.origin
            for tag in self._eval_func_refs(node.func)
            if tag.kind == "ref"
        )
        return refs[0] if refs else None

    def _eval_func_refs(self, func: ast.expr) -> set[Tag]:
        if isinstance(func, ast.Name):
            return set(self.env.get(func.id, ()))
        return set()

    def _eval_call(self, node: ast.Call) -> set[Tag]:
        resolved = self._callee_name(node)
        attr = node.func.attr if isinstance(node.func, ast.Attribute) else None
        recv_tags: frozenset[Tag] = frozenset()
        if isinstance(node.func, ast.Attribute):
            recv_tags = frozenset(self._eval(node.func.value))
        arg_sets = [frozenset(self._eval(arg)) for arg in node.args]
        kw_sets = {
            kw.arg: frozenset(self._eval(kw.value)) for kw in node.keywords
        }
        if self.record:
            self.facts.calls.append(
                CallFact(
                    node=node,
                    resolved=resolved,
                    attr=attr,
                    recv_tags=recv_tags,
                    arg_tags=tuple(arg_sets + list(kw_sets.values())),
                )
            )
        self._propagate_params(resolved, arg_sets, kw_sets)
        return self._call_result(node, resolved, arg_sets, kw_sets)

    def _propagate_params(
        self,
        resolved: Optional[str],
        arg_sets: list[frozenset[Tag]],
        kw_sets: dict[Optional[str], frozenset[Tag]],
    ) -> None:
        """Bind tagged arguments to the callee's parameters (next round)."""
        if resolved is None:
            return
        callee = self.project.functions.get(resolved)
        if callee is None:
            cls = self.project.classes.get(resolved)
            if cls is None:
                return
            ctor = self.project.lookup_method(cls, "__init__")
            if ctor is None:
                return
            callee = ctor
        params = callee.params
        flows: dict[str, set[Tag]] = {}
        for index, tags in enumerate(arg_sets):
            interesting = {tag for tag in tags if tag.kind != "ref"}
            if interesting and index < len(params):
                flows.setdefault(params[index], set()).update(interesting)
        for name, tags in kw_sets.items():
            interesting = {tag for tag in tags if tag.kind != "ref"}
            if interesting and name is not None and name in params:
                flows.setdefault(name, set()).update(interesting)
        if flows:
            table = self.next_params.setdefault(callee.qualname, {})
            for name, tags in flows.items():
                table.setdefault(name, set()).update(tags)

    def _call_result(
        self,
        node: ast.Call,
        resolved: Optional[str],
        arg_sets: list[frozenset[Tag]],
        kw_sets: dict[Optional[str], frozenset[Tag]],
    ) -> set[Tag]:
        path = str(self.module.context.path)
        if resolved is not None:
            if resolved in self.config.producers:
                return {
                    Tag(
                        kind=self.config.producers[resolved],
                        origin=resolved,
                        path=path,
                        line=node.lineno,
                    )
                }
            if resolved in self.config.blessed:
                return {
                    Tag(
                        kind=self.config.blessed[resolved],
                        origin=resolved,
                        path=path,
                        line=node.lineno,
                    )
                }
            if resolved in self.config.consumers:
                return set()
            if resolved in _PASSTHROUGH:
                merged: set[Tag] = set()
                for tags in arg_sets:
                    merged.update(tag for tag in tags if tag.kind != "ref")
                return merged
            if resolved in self.project.functions:
                return set(self.dataflow.summary_for(resolved))
            cls = self.project.classes.get(resolved)
            if cls is not None:
                return set()
        return set()


def analyze_project(project: ProjectModel) -> ProjectDataflow:
    """Run (and cache on the model) the project-wide provenance pass."""
    cached = getattr(project, "_dataflow", None)
    if cached is not None:
        return cached  # type: ignore[no-any-return]
    flow = ProjectDataflow(project, default_config())
    project._dataflow = flow  # type: ignore[attr-defined]
    return flow
