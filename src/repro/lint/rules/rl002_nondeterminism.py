"""RL002: all randomness and time must be injected and replayable.

Reproducibility is a correctness property of this library: the chaos
fuzz suite (docs/FAULTS.md) asserts bit-for-bit replay, and every cost
number in the paper reproduction is only comparable because runs are
deterministic. Three things break that silently:

* calls on the **shared module-level generator** (``random.random()``,
  ``random.choice()``, ...): its state is global, so any unrelated call
  anywhere reorders the stream;
* **unseeded generators** (``random.Random()`` with no arguments,
  ``random.SystemRandom``): seeded from OS entropy, unreplayable;
* **wall-clock reads** (``time.time()``, ``datetime.now()``, ...): a
  different answer on every run.

Where a *seeded* ``random.Random(seed)`` may be constructed is RL102's
question (only :mod:`repro.determinism` may); this rule flags the
generators and reads that can never be replayed, wherever they appear.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.core import Finding, ModuleContext, Rule, register, resolve_call
from repro.lint.deep.model import module_aliases, module_name_for

#: Wall-clock and entropy reads that are nondeterministic everywhere.
_BANNED_CALLS = {
    "time.time": "wall-clock read",
    "time.time_ns": "wall-clock read",
    "time.monotonic": "wall-clock read",
    "time.monotonic_ns": "wall-clock read",
    "time.perf_counter": "wall-clock read",
    "time.perf_counter_ns": "wall-clock read",
    "datetime.datetime.now": "wall-clock read",
    "datetime.datetime.utcnow": "wall-clock read",
    "datetime.datetime.today": "wall-clock read",
    "datetime.date.today": "wall-clock read",
    "os.urandom": "OS entropy",
    "uuid.uuid1": "clock/MAC-derived id",
    "uuid.uuid4": "OS entropy",
    "secrets.token_bytes": "OS entropy",
    "secrets.token_hex": "OS entropy",
    "secrets.token_urlsafe": "OS entropy",
}


@register
class NondeterminismRule(Rule):
    """Flag global-RNG calls, unseeded generators, and wall-clock reads."""

    rule_id = "RL002"
    title = "nondeterminism"
    rationale = (
        "Global-RNG calls, unseeded generators, and wall-clock reads make "
        "runs unreplayable; randomness must flow through injected seeded "
        "generators (repro.determinism.derive_rng)."
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        aliases = module_aliases(module_name_for(module.path), module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = resolve_call(node, aliases)
            if resolved is None:
                continue
            if resolved in _BANNED_CALLS:
                yield self.finding(
                    module,
                    node,
                    f"{resolved}() is nondeterministic "
                    f"({_BANNED_CALLS[resolved]}); inject the value through "
                    "the run configuration instead",
                )
                continue
            if resolved == "random.SystemRandom":
                yield self.finding(
                    module,
                    node,
                    "random.SystemRandom draws OS entropy and can never "
                    "be replayed; use an injected seeded random.Random",
                )
                continue
            if resolved == "random.Random":
                if not node.args and not node.keywords:
                    yield self.finding(
                        module,
                        node,
                        "random.Random() without a seed is seeded from OS "
                        "entropy; pass an explicit seed or inject a "
                        "generator via repro.determinism.derive_rng",
                    )
                continue
            if resolved.startswith("random.") and resolved.count(".") == 1:
                yield self.finding(
                    module,
                    node,
                    f"{resolved}() uses the shared module-level generator, "
                    "whose global state makes every run order-dependent; "
                    "use an injected seeded random.Random",
                )
                continue
            if resolved == "numpy.random.default_rng":
                if not node.args and not node.keywords:
                    yield self.finding(
                        module,
                        node,
                        "numpy.random.default_rng() without a seed is "
                        "entropy-seeded; pass an explicit seed",
                    )
                continue
            if resolved.startswith("numpy.random.") and resolved.count(".") == 2:
                yield self.finding(
                    module,
                    node,
                    f"{resolved}() uses numpy's shared global generator; "
                    "construct a seeded Generator with "
                    "numpy.random.default_rng(seed) instead",
                )
