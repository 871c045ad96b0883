"""The traced benchmark's hooks still find every entry point they wrap.

``perfbench/spans.py`` wraps named methods and module functions of the
query, optimizer, replan, engine, sources and service layers. A refactor
that renames or drops one of them makes ``Tracer.install`` stop with an
``AttributeError``; this test catches that in the tier-1 suite, and checks
that ``uninstall`` puts every wrapped attribute back.
"""

import importlib
import pathlib
import sys

import repro.query.compiler
import repro.service.protocol
import repro.service.server
from repro.core.framework import FrameworkNC
from repro.optimizer.optimizer import NCOptimizer
from repro.optimizer.replan import ReplanController
from repro.service.server import QueryServer
from repro.sources.middleware import Middleware

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"

OWNERS = (
    repro.query.compiler,
    repro.service.protocol,
    repro.service.server,
    FrameworkNC,
    Middleware,
    NCOptimizer,
    QueryServer,
    ReplanController,
)


def load_spans():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("spans")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_tracer_wraps_every_hook_and_restores_them():
    spans = load_spans()
    before = [dict(vars(owner)) for owner in OWNERS]
    tracer = spans.Tracer()
    try:
        tracer.install(0)
        wrapped = {(owner, attr) for owner, attr, _, _ in tracer._patches}
    finally:
        tracer.uninstall()
    assert [dict(vars(owner)) for owner in OWNERS] == before
    assert {owner for owner, _ in wrapped} <= set(OWNERS)
    # The old async server name wraps the one server class.
    assert {
        (QueryServer, "submit"),
        (QueryServer, "submit_async"),
        (QueryServer, "_execute"),
        (QueryServer, "_execute_async"),
    } <= wrapped
