"""RL104: wall-clock reads must not be reachable from virtual-time code.

The simulation kernel, executor, and middleware all run on the virtual
clock (:mod:`repro.parallel.clock`): latency, budgets, and breaker
cooldowns advance in ticks so runs replay bit-for-bit. RL002 flags a
``time.time()`` *call site* wherever it is spelled -- but a site under a
reviewed ``# repro-lint: ignore[RL002]`` (say, a benchmarking helper)
can later be called, two hops away, from virtual-time code, and the
lexical rule will never notice the new edge.

This rule re-checks the property over the call graph: starting from
every function in the virtual-time modules, any *transitively reachable*
function that performs a wall-clock read is flagged, with the witness
call chain in the message. Suppressions are per-rule, so an RL002 waiver
does not silence RL104 -- reachability from the deterministic runtime is
a separate, stricter obligation than spelling hygiene.
"""

from __future__ import annotations

from typing import Iterator

from repro.lint.core import Finding, Rule, register
from repro.lint.deep.model import ProjectModel
from repro.lint.rules.rl002_nondeterminism import _BANNED_CALLS

#: The virtual-time runtime: everything here must see ticks, not seconds.
_VIRTUAL_TIME_PATHS = (
    "parallel/*",
    "service/*",
    "sources/middleware.py",
    "core/framework.py",
)

#: The wall-clock subset of RL002's banned vocabulary.
_WALL_CLOCK = frozenset(
    name
    for name, reason in _BANNED_CALLS.items()
    if reason == "wall-clock read"
)


@register
class ClockDisciplineRule(Rule):
    """Flag wall-clock reads transitively reachable from virtual time."""

    rule_id = "RL104"
    title = "wall-clock read reachable from virtual-time code"
    rationale = (
        "A helper that reads the wall clock poisons determinism for "
        "every virtual-time caller that can reach it; the call graph, "
        "not the lexical call site, decides exposure."
    )

    def check_project(self, project: ProjectModel) -> Iterator[Finding]:
        roots = project.functions_in_paths(_VIRTUAL_TIME_PATHS)
        parents = project.reachable_from(roots)
        for qual in sorted(parents):
            info = project.functions.get(qual)
            if info is None:
                continue
            for site in project.call_sites.get(qual, ()):
                if site.resolved not in _WALL_CLOCK:
                    continue
                witness = " -> ".join(project.witness_path(parents, qual))
                yield self.finding(
                    info.module.context,
                    site.node,
                    f"{site.resolved}() is a wall-clock read reachable "
                    f"from virtual-time code via {witness}; thread the "
                    "virtual clock (parallel.clock) down instead",
                )
