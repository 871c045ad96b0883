"""Domain-aware static analysis for the repro library (docs/LINTS.md).

The paper's cost numbers mean something only if every access is charged
into Eq. 1 and every seeded run replays exactly. ``repro lint`` keeps the
rules that guard those properties and that no test or runtime contract
checks: uncharged access (RL001 by spelling, RL101 by provenance),
replayable randomness and time (RL002, RL102 for RNG provenance, RL104
for wall-clock reads reachable from virtual-time code), one exception
root for deliberate raises (RL003), and no definition-time shared
mutable state (RL005). One pass runs them all; CI runs it on every
change.

Programmatic use::

    from repro.lint import run_lint
    report = run_lint(["src/repro"])
    assert report.ok, [f.format() for f in report.findings]
"""

from repro.lint.core import (
    Finding,
    LintReport,
    ModuleContext,
    Rule,
    register,
    registered_rules,
    run_lint,
)
from repro.lint.reporters import text_report

__all__ = [
    "Finding",
    "LintReport",
    "ModuleContext",
    "Rule",
    "register",
    "registered_rules",
    "run_lint",
    "text_report",
]
