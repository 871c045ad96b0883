"""RL101: no raw ``Source`` value may escape into engine code uncharged.

RL001 checks the *syntax* of an access call site: the receiver name must
look like the middleware. That misses the dataflow version of the same
bug -- a raw source bound to an innocuous name (``mw = sources[0]``), or
a source list handed straight to an algorithm/engine constructor that
will probe it internally. Both execute accesses invisible to the Eq. 1
ledger.

This rule asks the provenance engine instead of the receiver's spelling:

* a ``sorted_access()`` / ``random_access()`` whose receiver carries a
  ``source`` tag is flagged *even when RL001's name heuristic passes*
  (the two rules partition the space: RL001 owns syntactic misses,
  RL101 owns dataflow misses, so a single bug is reported once);
* a ``source``-tagged argument passed into ``repro.algorithms`` /
  ``repro.core`` / ``repro.parallel`` code is an uncharged escape --
  engines must receive the :class:`~repro.sources.middleware.Middleware`
  (which consumes the taint), never the raw sources.
"""

from __future__ import annotations

from typing import Iterator

from repro.lint.core import Finding, Rule, path_matches, register
from repro.lint.deep.dataflow import analyze_project
from repro.lint.deep.model import ProjectModel
from repro.lint.rules.rl001_uncharged_access import (
    _ALLOWED_PATHS,
    _receiver_is_middleware,
)

_ACCESS_METHODS = frozenset({"sorted_access", "random_access"})

#: Engine namespaces a raw source must never reach: anything here probes
#: sources internally, so handing it un-wrapped sources evades metering.
_ENGINE_PREFIXES = ("repro.algorithms.", "repro.core.", "repro.parallel.")


@register
class SourceEscapeRule(Rule):
    """Flag source-tagged values reaching access calls or engine code."""

    rule_id = "RL101"
    title = "uncharged source escape (dataflow)"
    rationale = (
        "A raw Source value that reaches an access call or engine code "
        "without Middleware wrapping executes probes outside the Eq. 1 "
        "cost accounting; provenance tracking catches aliases and "
        "constructor plumbing that RL001's name heuristic cannot."
    )

    def check_project(self, project: ProjectModel) -> Iterator[Finding]:
        flow = analyze_project(project)
        for qual in sorted(flow.facts):
            info = project.functions[qual]
            module = info.module
            if path_matches(module.posix, _ALLOWED_PATHS):
                continue
            for call in flow.facts[qual].calls:
                source_recv = sorted(
                    tag for tag in call.recv_tags if tag.kind == "source"
                )
                if (
                    call.attr in _ACCESS_METHODS
                    and source_recv
                    and _receiver_is_middleware(call.node.func.value)  # type: ignore[attr-defined]
                ):
                    tag = source_recv[0]
                    yield self.finding(
                        module.context,
                        call.node,
                        f"{call.attr}() receiver is a raw source by "
                        f"provenance (born from {tag.describe()}) despite "
                        "its middleware-like name; wrap it in Middleware "
                        "so the access is charged",
                    )
                    continue
                if call.resolved is None or not call.resolved.startswith(
                    _ENGINE_PREFIXES
                ):
                    continue
                escaped = sorted(
                    tag
                    for tags in call.arg_tags
                    for tag in tags
                    if tag.kind == "source"
                )
                if escaped:
                    tag = escaped[0]
                    yield self.finding(
                        module.context,
                        call.node,
                        f"raw source value (born from {tag.describe()}) "
                        f"escapes uncharged into {call.resolved}; pass the "
                        "Middleware (or Middleware.over(...) wrapper) "
                        "instead of raw sources",
                    )
