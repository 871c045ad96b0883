"""Whole-program model: module names, symbol tables, and the call graph.

This is the resolution layer the whole-program rules (RL1xx,
docs/LINTS.md) query.
It turns the per-file :class:`~repro.lint.core.ModuleContext` list of one
lint run into a project:

* every module gets a dotted name derived from ``__init__.py`` package
  markers on disk, so ``src/repro/sources/middleware.py`` resolves as
  ``repro.sources.middleware`` no matter how the CLI spelled the path;
* top-level functions, classes, and methods become
  :class:`FunctionInfo` / :class:`ClassInfo` records in one global
  symbol table keyed by qualified name;
* every syntactically resolvable call becomes an edge in the call
  graph, including ``self.method()`` dispatch through the class's bases
  (single-pass MRO walk within the project).

Resolution is deliberately best-effort and *name-preserving*: a call
that cannot be resolved to a project symbol keeps its dotted spelling
(``random.Random``, ``time.time``) after import-alias substitution, so
rules can still match the external vocabulary they care about.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

from repro.lint.core import ModuleContext, dotted_name, path_matches

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def module_name_for(path: Path) -> str:
    """Dotted module name of ``path``, walking ``__init__.py`` markers.

    The walk ascends while the parent directory is a package, so files
    under ``src/repro/...`` name themselves ``repro....`` regardless of
    the invocation spelling. A file outside any package (lint fixtures
    in a tmp dir, scripts) is its own top-level module named after its
    stem.
    """
    parts: list[str] = []
    if path.stem != "__init__":
        parts.append(path.stem)
    parent = path.resolve().parent
    while (parent / "__init__.py").exists():
        parts.append(parent.name)
        if parent.parent == parent:  # filesystem root
            break
        parent = parent.parent
    return ".".join(reversed(parts)) or path.stem


def module_aliases(module_name: str, tree: ast.Module) -> dict[str, str]:
    """Map local names to fully qualified origins, resolving relative dots.

    Unlike :func:`repro.lint.core.import_aliases` this knows the
    importing module's own dotted name, so ``from ..determinism import
    derive_rng`` inside ``repro.faults.retry`` resolves to
    ``repro.determinism.derive_rng`` rather than a stripped suffix.
    """
    table: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                table[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                base = node.module or ""
            else:
                parts = module_name.split(".")
                kept = parts[: -node.level] if node.level <= len(parts) else []
                if node.module:
                    kept = kept + node.module.split(".")
                base = ".".join(kept)
            for alias in node.names:
                local = alias.asname or alias.name
                table[local] = f"{base}.{alias.name}" if base else alias.name
    return table


@dataclass
class FunctionInfo:
    """One function or method: the unit of the call graph and dataflow."""

    qualname: str
    module: "ModuleInfo"
    node: FunctionNode
    cls: Optional["ClassInfo"] = None

    @property
    def params(self) -> list[str]:
        """Positional parameter names, ``self``/``cls`` stripped for methods."""
        args = self.node.args
        names = [a.arg for a in args.posonlyargs + args.args]
        if self.cls is not None and names and names[0] in ("self", "cls"):
            names = names[1:]
        return names


@dataclass
class ClassInfo:
    """One class: methods plus best-effort resolved base names."""

    qualname: str
    module: "ModuleInfo"
    node: ast.ClassDef
    base_names: list[str] = field(default_factory=list)
    methods: dict[str, FunctionInfo] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """One parsed module with its local symbol table and import aliases."""

    name: str
    context: ModuleContext
    aliases: dict[str, str] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)

    @property
    def posix(self) -> str:
        """Normalized posix path (allowlist matching form)."""
        return self.context.posix


@dataclass
class CallSite:
    """One syntactic call inside a function, with its resolution."""

    node: ast.Call
    resolved: Optional[str]  # qualified name after alias/self resolution
    attr: Optional[str]  # method name when the callee is an attribute


class ProjectModel:
    """The queryable whole-program model one lint run is built on."""

    def __init__(self, modules: Sequence[ModuleContext]):
        self.modules: dict[str, ModuleInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        self.call_graph: dict[str, set[str]] = {}
        self.call_sites: dict[str, list[CallSite]] = {}
        for context in modules:
            self._index_module(context)
        for info in self._functions_in_order():
            self._build_calls(info)

    # ------------------------------------------------------------------
    # Indexing
    # ------------------------------------------------------------------

    def _index_module(self, context: ModuleContext) -> None:
        name = module_name_for(context.path)
        module = ModuleInfo(
            name=name,
            context=context,
            aliases=module_aliases(name, context.tree),
        )
        for node in context.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = FunctionInfo(
                    qualname=f"{name}.{node.name}", module=module, node=node
                )
                module.functions[node.name] = info
                self.functions[info.qualname] = info
            elif isinstance(node, ast.ClassDef):
                cls = ClassInfo(
                    qualname=f"{name}.{node.name}",
                    module=module,
                    node=node,
                )
                for base in node.bases:
                    base_dotted = dotted_name(base)
                    if base_dotted is None:
                        continue
                    resolved = self._resolve_in(module, base_dotted)
                    if resolved is not None:
                        cls.base_names.append(resolved)
                for member in node.body:
                    if isinstance(
                        member, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        info = FunctionInfo(
                            qualname=f"{cls.qualname}.{member.name}",
                            module=module,
                            node=member,
                            cls=cls,
                        )
                        cls.methods[member.name] = info
                        self.functions[info.qualname] = info
                module.classes[node.name] = cls
                self.classes[cls.qualname] = cls
        self.modules[name] = module

    def _functions_in_order(self) -> list[FunctionInfo]:
        return [self.functions[q] for q in sorted(self.functions)]

    # ------------------------------------------------------------------
    # Name resolution
    # ------------------------------------------------------------------

    def _resolve_in(self, module: ModuleInfo, dotted: str) -> Optional[str]:
        """Resolve a dotted name in a module's top-level namespace."""
        head, _, rest = dotted.partition(".")
        if head in module.classes:
            base = module.classes[head].qualname
        elif head in module.functions:
            base = module.functions[head].qualname
        elif head in module.aliases:
            base = module.aliases[head]
        else:
            # External/builtin: keep the (alias-free) dotted spelling.
            return dotted
        return f"{base}.{rest}" if rest else base

    def lookup_method(
        self, cls: ClassInfo, name: str, _seen: Optional[set[str]] = None
    ) -> Optional[FunctionInfo]:
        """Find ``name`` on ``cls`` or its project-resolved ancestors."""
        if name in cls.methods:
            return cls.methods[name]
        seen = _seen if _seen is not None else set()
        seen.add(cls.qualname)
        for base in cls.base_names:
            ancestor = self.classes.get(base)
            if ancestor is None or ancestor.qualname in seen:
                continue
            found = self.lookup_method(ancestor, name, seen)
            if found is not None:
                return found
        return None

    def resolve_expr(
        self,
        expr: ast.expr,
        module: ModuleInfo,
        cls: Optional[ClassInfo] = None,
    ) -> Optional[str]:
        """Best-effort qualified name of a callee/value expression.

        Handles plain dotted chains through import aliases and module
        symbols, and ``self.method`` dispatch through the enclosing
        class's bases. Returns ``None`` for dynamically computed callees.
        """
        dotted = dotted_name(expr)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        if head == "self":
            if cls is None or not rest:
                return None
            method_name, _, trailing = rest.partition(".")
            found = self.lookup_method(cls, method_name)
            if found is None:
                return None
            return (
                f"{found.qualname}.{trailing}" if trailing else found.qualname
            )
        return self._resolve_in(module, dotted)

    # ------------------------------------------------------------------
    # Call graph
    # ------------------------------------------------------------------

    def _build_calls(self, info: FunctionInfo) -> None:
        edges: set[str] = set()
        sites: list[CallSite] = []
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Call):
                continue
            resolved = self.resolve_expr(node.func, info.module, info.cls)
            attr = (
                node.func.attr
                if isinstance(node.func, ast.Attribute)
                else None
            )
            sites.append(CallSite(node=node, resolved=resolved, attr=attr))
            if resolved is None:
                continue
            target = self._edge_target(resolved)
            if target is not None:
                edges.add(target)
        self.call_graph[info.qualname] = edges
        self.call_sites[info.qualname] = sites

    def _edge_target(self, resolved: str) -> Optional[str]:
        """Map a resolved callee name onto a call-graph node."""
        if resolved in self.functions:
            return resolved
        cls = self.classes.get(resolved)
        if cls is not None:
            ctor = self.lookup_method(cls, "__init__")
            return ctor.qualname if ctor is not None else resolved
        return None

    def reachable_from(
        self, roots: Iterable[str]
    ) -> dict[str, Optional[str]]:
        """BFS over the call graph; maps reached function -> BFS parent.

        Roots map to ``None``; the parent chain of any reached function
        is a witness call path back to a root (:meth:`witness_path`).
        Iteration order is sorted at every frontier so the parent choice
        -- and therefore every witness path -- is deterministic.
        """
        parents: dict[str, Optional[str]] = {}
        frontier: deque[str] = deque()
        for root in sorted(set(roots)):
            if root in self.call_graph and root not in parents:
                parents[root] = None
                frontier.append(root)
        while frontier:
            current = frontier.popleft()
            for callee in sorted(self.call_graph.get(current, ())):
                if callee in parents:
                    continue
                parents[callee] = current
                frontier.append(callee)
        return parents

    def witness_path(
        self, parents: dict[str, Optional[str]], target: str
    ) -> list[str]:
        """Root-to-target call chain recovered from a BFS parent map."""
        chain: list[str] = []
        cursor: Optional[str] = target
        while cursor is not None:
            chain.append(cursor)
            cursor = parents.get(cursor)
        return list(reversed(chain))

    def functions_in_paths(self, patterns: Sequence[str]) -> list[str]:
        """Qualnames of every function whose module path matches a glob."""
        return sorted(
            qual
            for qual, info in self.functions.items()
            if path_matches(info.module.posix, patterns)
        )
