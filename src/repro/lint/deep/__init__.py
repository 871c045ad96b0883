"""The whole-program layer of ``repro lint``: model, dataflow, RL1xx rules.

The RL0xx rules each look at one module's AST. This package adds the
project layer that rules about values and reachability need:

* :mod:`repro.lint.deep.model` -- module/symbol resolution over every
  linted file, a call graph with ``self.method`` dispatch, and
  deterministic reachability queries with witness call chains;
* :mod:`repro.lint.deep.dataflow` -- a small intraprocedural dataflow /
  escape engine (alias-lite value provenance) with a few interprocedural
  summary rounds, tagging values as raw sources, raw RNGs, or sanctioned
  ``derive_rng`` derivations;
* the three rules that query them: RL101 (uncharged-source escape),
  RL102 (RNG provenance), RL104 (clock discipline via reachability).

:func:`repro.lint.run_lint` builds one :class:`ProjectModel` per run and
every rule's ``check_project`` queries it.
"""

from repro.lint.deep.dataflow import analyze_project
from repro.lint.deep.model import ProjectModel, module_name_for

# Importing the rule modules registers them.
from repro.lint.deep import rl101_source_escape  # noqa: E402,F401
from repro.lint.deep import rl102_rng_provenance  # noqa: E402,F401
from repro.lint.deep import rl104_clock_discipline  # noqa: E402,F401

__all__ = ["ProjectModel", "analyze_project", "module_name_for"]
