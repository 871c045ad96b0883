"""Core of the ``repro lint`` static-analysis pass (docs/LINTS.md).

The framework is deliberately small: a :class:`Rule` either walks the AST
of one module (:meth:`Rule.check`) or queries the whole-program model
built once per run (:meth:`Rule.check_project`), and emits
:class:`Finding` records. Every rule registers itself in one registry so
the CLI, the test suite, and CI all run the identical rule set.

Suppression is per-line and explicit::

    score = random.random()  # repro-lint: ignore[RL002] -- demo only

``# repro-lint: ignore`` without a bracket list silences every rule on
that line; listing ids (comma-separated) silences only those. Suppressions
are part of the reviewed source, so every waived invariant leaves a trace.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from fnmatch import fnmatch
from pathlib import Path, PurePosixPath
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.lint.deep.model import ProjectModel

_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*ignore(?:\[(?P<rules>[A-Z0-9,\s]+)\])?"
)

#: Sentinel rule id for files the parser rejects outright.
PARSE_ERROR_ID = "RL000"


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def format(self) -> str:
        """The canonical one-line textual form."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


@dataclass
class ModuleContext:
    """One parsed module, shared by every rule.

    Attributes:
        path: filesystem path of the module.
        posix: the path in posix form, used for rule path-allowlists.
        source: raw file text.
        tree: the parsed AST.
        suppressions: line -> suppressed rule ids (``None`` = all rules).
    """

    path: Path
    posix: str
    source: str
    tree: ast.Module
    suppressions: dict[int, Optional[frozenset[str]]] = field(
        default_factory=dict
    )

    def suppressed(self, rule: str, line: int) -> bool:
        """Whether ``rule`` is silenced on ``line`` of this module."""
        if line not in self.suppressions:
            return False
        wanted = self.suppressions[line]
        return wanted is None or rule in wanted


def _parse_suppressions(source: str) -> dict[int, Optional[frozenset[str]]]:
    table: dict[int, Optional[frozenset[str]]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(text)
        if match is None:
            continue
        rules = match.group("rules")
        if rules is None:
            table[lineno] = None
        else:
            table[lineno] = frozenset(
                token.strip() for token in rules.split(",") if token.strip()
            )
    return table


def normalize_posix(path: str | Path) -> str:
    """Canonical posix form of ``path`` for allowlist matching.

    ``./``-prefixed and absolute spellings of the same file must match the
    same rule allowlists as the plain relative one, so the path is
    resolved and -- when it lives under the current working directory --
    re-expressed relative to it. Paths outside the working directory stay
    absolute (suffix matching still applies to them).
    """
    candidate = Path(path)
    try:
        resolved = candidate.resolve()
    except OSError:  # pragma: no cover - unresolvable filesystem state
        return candidate.as_posix()
    try:
        return resolved.relative_to(Path.cwd()).as_posix()
    except ValueError:
        return resolved.as_posix()


def path_suffixes(posix: str) -> list[str]:
    """Every suffix of a posix path, longest first.

    ``a/b/c.py`` yields ``a/b/c.py``, ``b/c.py``, ``c.py`` -- the forms an
    allowlist glob may be written against. The filesystem anchor of an
    absolute path is dropped so ``/repo/tests/x.py`` still offers
    ``tests/x.py``.
    """
    pure = PurePosixPath(posix)
    parts = pure.parts
    if pure.is_absolute():
        parts = parts[1:]
    return ["/".join(parts[i:]) for i in range(len(parts))]


def path_matches(posix: str, patterns: Sequence[str]) -> bool:
    """Whether a posix path matches any allowlist glob.

    Patterns are matched against the full path *and* against every
    suffix starting at a path separator, so ``sources/middleware.py``
    matches ``src/repro/sources/middleware.py``, a bare
    ``sources/middleware.py``, *and* ``./``-prefixed or absolute
    spellings of either (the path is normalized first).
    """
    suffixes = path_suffixes(normalize_posix(posix))
    for pattern in patterns:
        if any(fnmatch(suffix, pattern) for suffix in suffixes):
            return True
    return False


class Rule:
    """One lint rule: an id, a rationale, and a check.

    Subclasses override :meth:`check` (one module's AST) or
    :meth:`check_project` (the whole-program model: call graph and
    provenance dataflow over every linted module).
    """

    rule_id: str = "RL???"
    title: str = ""
    rationale: str = ""

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        """Yield findings for one module."""
        return iter(())

    def check_project(self, project: "ProjectModel") -> Iterator[Finding]:
        """Yield findings against the project model built once per run."""
        return iter(())

    def finding(
        self, module: ModuleContext, node: ast.AST, message: str
    ) -> Finding:
        """Build a finding anchored at an AST node."""
        return Finding(
            rule=self.rule_id,
            path=str(module.path),
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
        )


_REGISTRY: dict[str, type[Rule]] = {}


def register(rule_cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if rule_cls.rule_id in _REGISTRY:
        raise ValueError(f"duplicate lint rule id {rule_cls.rule_id}")
    _REGISTRY[rule_cls.rule_id] = rule_cls
    return rule_cls


def registered_rules() -> dict[str, type[Rule]]:
    """The registry (id -> rule class), importing the built-in rules."""
    # The imports populate the registry on first use and are idempotent.
    from repro.lint import deep as _deep  # noqa: F401
    from repro.lint import rules as _rules  # noqa: F401

    return dict(_REGISTRY)


def _iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    for path in paths:
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if "__pycache__" in candidate.parts:
                    continue
                yield candidate
        elif path.suffix == ".py":
            yield path


def load_module(path: Path) -> ModuleContext | Finding:
    """Parse one file into a context, or a parse-error finding."""
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return Finding(
            rule=PARSE_ERROR_ID,
            path=str(path),
            line=exc.lineno or 1,
            col=(exc.offset or 0) + 1,
            message=f"file does not parse: {exc.msg}",
        )
    return ModuleContext(
        path=path,
        posix=normalize_posix(path),
        source=source,
        tree=tree,
        suppressions=_parse_suppressions(source),
    )


@dataclass
class LintReport:
    """Outcome of one lint run."""

    findings: list[Finding]
    files_checked: int
    rules_run: list[str]

    @property
    def ok(self) -> bool:
        return not self.findings


def run_lint(
    paths: Sequence[str | Path], select: Optional[Sequence[str]] = None
) -> LintReport:
    """Lint ``paths`` (files or directories) with the registered rules.

    Args:
        paths: files and/or directories to scan recursively.
        select: restrict to these rule ids (default: every registered
            rule). Unknown ids raise ``ValueError`` so typos fail loudly.
    """
    registry = registered_rules()
    if select is not None:
        unknown = sorted(set(select) - set(registry))
        if unknown:
            raise ValueError(
                f"unknown lint rule id(s) {unknown}; "
                f"known: {sorted(registry)}"
            )
        registry = {rid: registry[rid] for rid in registry if rid in select}
    rules = [rule_cls() for _, rule_cls in sorted(registry.items())]

    findings: list[Finding] = []
    modules: list[ModuleContext] = []
    for path in _iter_python_files(Path(p) for p in paths):
        loaded = load_module(path)
        if isinstance(loaded, Finding):
            findings.append(loaded)
            continue
        modules.append(loaded)
        for rule in rules:
            findings.extend(rule.check(loaded))

    from repro.lint.deep.model import ProjectModel

    project = ProjectModel(modules)
    for rule in rules:
        findings.extend(rule.check_project(project))
    by_path = {str(module.path): module for module in modules}
    findings = [
        finding
        for finding in findings
        if finding.path not in by_path
        or not by_path[finding.path].suppressed(finding.rule, finding.line)
    ]
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return LintReport(
        findings=findings,
        files_checked=len(modules),
        rules_run=[rule.rule_id for rule in rules],
    )


def dotted_name(node: ast.AST) -> Optional[str]:
    """Flatten ``a.b.c`` attribute chains to a dotted string (else None)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def resolve_call(node: ast.Call, aliases: dict[str, str]) -> Optional[str]:
    """The fully-qualified dotted name a call resolves to, best effort."""
    name = dotted_name(node.func)
    if name is None:
        return None
    head, _, rest = name.partition(".")
    origin = aliases.get(head)
    if origin is None:
        return name
    return f"{origin}.{rest}" if rest else origin
