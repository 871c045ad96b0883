"""RL003: deliberate raises must not use the bare ``Exception`` types.

The public contract (docs/API.md) is that ``except ReproError`` catches
everything this library raises deliberately. ``raise Exception(...)`` or
``raise BaseException(...)`` escapes that umbrella: callers' recovery
paths -- including the engines' graceful degradation, which catches fault
errors by their ``ReproError``-rooted types -- silently stop applying.

That every exception *class* under ``repro`` descends from
``ReproError`` is checked at import time by ``tests/test_exceptions.py``,
which walks the installed package; this rule covers the raise sites a
class walk cannot see.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.core import Finding, ModuleContext, Rule, register


@register
class UnrootedExceptionRule(Rule):
    """Flag ``raise Exception``/``raise BaseException`` statements."""

    rule_id = "RL003"
    title = "unrooted exception"
    rationale = (
        "Raising bare Exception/BaseException escapes the library's "
        "single-except contract and its fault-handling paths."
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc
            callee = exc.func if isinstance(exc, ast.Call) else exc
            if isinstance(callee, ast.Name) and callee.id in (
                "Exception",
                "BaseException",
            ):
                yield self.finding(
                    module,
                    node,
                    f"raising bare {callee.id} hides the failure from "
                    "'except ReproError' handlers; raise a ReproError "
                    "subclass instead",
                )
