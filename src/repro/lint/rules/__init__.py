"""The per-module rules of the ``repro lint`` pass.

Importing this package registers every rule; the registry is what the
CLI and :func:`repro.lint.run_lint` execute. One module per rule keeps
each rule's fixtures and rationale (docs/LINTS.md) independently
reviewable.
"""

from repro.lint.rules.rl001_uncharged_access import UnchargedAccessRule
from repro.lint.rules.rl002_nondeterminism import NondeterminismRule
from repro.lint.rules.rl003_unrooted_exception import UnrootedExceptionRule
from repro.lint.rules.rl005_mutable_default import MutableDefaultRule

__all__ = [
    "UnchargedAccessRule",
    "NondeterminismRule",
    "UnrootedExceptionRule",
    "MutableDefaultRule",
]
