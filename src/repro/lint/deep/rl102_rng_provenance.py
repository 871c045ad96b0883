"""RL102: every RNG reaching engine code must come from ``derive_rng``.

A generator constructed in one function can be threaded -- through a
helper return, an attribute store, or constructor plumbing -- into the
deterministic core, where no call-site spelling gives it away. The
provenance engine follows the value: raw constructions carry an ``rng``
tag, :func:`repro.determinism.derive_rng` results carry ``rng_ok``, and
this rule flags the three ways a raw tag goes wrong:

* **construction** of ``random.Random``/``random.SystemRandom`` outside
  the single sanctioned root (:mod:`repro.determinism`) and
  test/benchmark code;
* **attribute stores**: a raw-tagged generator stored on ``self`` at a
  different line than its construction (the alias that outlives the
  construction site);
* **escape** into ``repro.core`` / ``repro.algorithms`` /
  ``repro.optimizer`` / ``repro.service`` call arguments -- the
  deterministic core only accepts generators derived through
  ``derive_rng``, so one audit of that function covers the library.
"""

from __future__ import annotations

from typing import Iterator

from repro.lint.core import Finding, Rule, path_matches, register
from repro.lint.deep.dataflow import analyze_project
from repro.lint.deep.model import ProjectModel

#: Where constructing a raw generator is sanctioned: the derivation root
#: itself, plus test/benchmark code that owns its seeds outright.
_CONSTRUCTION_ALLOWED = (
    "determinism.py",
    "tests/*",
    "conftest.py",
    "benchmarks/*",
    "examples/*",
)

_RNG_CTORS = frozenset({"random.Random", "random.SystemRandom"})

#: Deterministic-core namespaces a raw RNG must not reach.
_CORE_PREFIXES = (
    "repro.core.",
    "repro.algorithms.",
    "repro.optimizer.",
    "repro.service.",
)


@register
class RngProvenanceRule(Rule):
    """Flag raw-RNG construction, aliasing stores, and core escapes."""

    rule_id = "RL102"
    title = "RNG provenance"
    rationale = (
        "A generator not derived via repro.determinism.derive_rng can "
        "reach the deterministic core through aliases, attribute stores, "
        "or constructor plumbing; provenance tags follow the value, not "
        "the spelling."
    )

    def check_project(self, project: ProjectModel) -> Iterator[Finding]:
        flow = analyze_project(project)
        for qual in sorted(flow.facts):
            info = project.functions[qual]
            module = info.module
            allowed_here = path_matches(module.posix, _CONSTRUCTION_ALLOWED)
            facts = flow.facts[qual]
            for call in facts.calls:
                if call.resolved in _RNG_CTORS and not allowed_here:
                    yield self.finding(
                        module.context,
                        call.node,
                        f"{call.resolved}(...) constructed outside "
                        "repro.determinism; derive the generator via "
                        "repro.determinism.derive_rng(seed) so every "
                        "stream shares one audited root",
                    )
                    continue
                if allowed_here:
                    continue
                if call.resolved is None or not call.resolved.startswith(
                    _CORE_PREFIXES
                ):
                    continue
                raw = sorted(
                    tag
                    for tags in call.arg_tags
                    for tag in tags
                    if tag.kind == "rng"
                )
                if raw:
                    tag = raw[0]
                    yield self.finding(
                        module.context,
                        call.node,
                        f"raw RNG (born from {tag.describe()}) reaches "
                        f"{call.resolved} without passing through "
                        "repro.determinism.derive_rng",
                    )
            if allowed_here:
                continue
            for store in facts.stores:
                raw = sorted(
                    tag for tag in store.tags if tag.kind == "rng"
                )
                if not raw:
                    continue
                tag = raw[0]
                if (
                    tag.line == getattr(store.node, "lineno", -1)
                    and tag.path == str(module.context.path)
                ):
                    # Same-line construction+store: the construction
                    # branch above already reported it once.
                    continue
                yield self.finding(
                    module.context,
                    store.node,
                    f"raw RNG (born from {tag.describe()}) stored on "
                    f"self.{store.attr}; route the value through "
                    "repro.determinism.derive_rng before it outlives "
                    "its construction site",
                )
