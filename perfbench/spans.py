"""In-memory spans around the public entry points of each layer.

The traced run installs thin wrappers (nothing under ``src/`` changes)
around the calls into each layer, records one span per call -- name,
layer, start, end, parent span, request id -- and removes the wrappers
again.  A span's *self time* is its duration minus the time its child
spans cover; summing self times by layer splits a request's wall time
without double counting.

Parents follow a context variable, so spans nest correctly inside asyncio
tasks.  The request id is the server's session id: set on the span that
learns it (a submit returns it, an execution receives it) and inherited
by every span below.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import json
import time
from dataclasses import dataclass
from typing import Callable, Optional

import repro.query.compiler
import repro.service.protocol
import repro.service.server
from repro.core.framework import FrameworkNC
from repro.optimizer.optimizer import NCOptimizer
from repro.optimizer.replan import ReplanController
from repro.parallel.executor import ParallelExecutor
from repro.runtime.engine import AsyncExecutor
from repro.service.aio import AsyncQueryServer
from repro.service.server import QueryServer
from repro.sources.middleware import Middleware

LAYERS = ("query", "optimizer", "replan", "engine", "sources", "service")


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    rid: Optional[str] = None
    pass_no: int = 0
    #: Checkpoint evaluations past the cadence gate (``replan.check`` spans).
    checks: int = 0


def _session_arg(args, kwargs, result) -> Optional[str]:
    return args[1].id


def _returned(args, kwargs, result) -> Optional[str]:
    return result if isinstance(result, str) else None


def _result_session(args, kwargs, result) -> Optional[str]:
    return args[0].metadata.get("session")


def _count_checks(span: "Span", args, before: int) -> None:
    span.checks = args[0].checks - before


def _protocol_session(args, kwargs, result) -> Optional[str]:
    request = args[1] if isinstance(args[1], dict) else {}
    return result.get("session") or request.get("session")


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.pass_no = 0
        self._current: contextvars.ContextVar[Optional[int]] = (
            contextvars.ContextVar("perfbench_span", default=None)
        )
        self._patches: list[tuple[object, str, object, bool]] = []

    # -- installation ---------------------------------------------------

    def install(self, pass_no: int) -> None:
        """Wrap every layer entry point; spans until uninstall belong to ``pass_no``.

        Session ids repeat from pass to pass (they are seeded), so the
        pass number keeps requests of different passes apart.
        """
        self.pass_no = pass_no
        server_mod = repro.service.server
        protocol = repro.service.protocol
        self._wrap(server_mod, "parse_query", "query.parse", "query")
        self._wrap(server_mod, "compile_expression", "query.compile", "query")
        # The async server imports the compiler at call time.
        self._wrap(repro.query.compiler, "compile_expression", "query.compile", "query")
        self._wrap(QueryServer, "_session_plan", "optimizer.resolve", "optimizer")
        self._wrap(NCOptimizer, "plan", "optimizer.search", "optimizer")
        self._wrap(QueryServer, "_replan_controller", "replan.setup", "replan")
        self._wrap(
            ReplanController, "maybe_replan", "replan.check", "replan",
            before=lambda args: args[0].checks,
            after=_count_checks,
        )
        self._wrap(FrameworkNC, "run", "engine.run", "engine")
        self._wrap(ParallelExecutor, "run", "engine.run", "engine")
        self._wrap(AsyncExecutor, "run_async", "engine.run", "engine")
        self._wrap(Middleware, "sorted_access", "sources.sorted", "sources")
        self._wrap(Middleware, "random_access", "sources.random", "sources")
        self._wrap(protocol, "handle_request", "service.protocol", "service",
                   rid=_protocol_session)
        self._wrap(protocol, "result_to_dict", "service.encode", "service",
                   rid=_result_session)
        self._wrap(QueryServer, "submit", "service.submit", "service", rid=_returned)
        self._wrap(AsyncQueryServer, "submit_async", "service.submit", "service",
                   rid=_returned)
        self._wrap(QueryServer, "_execute", "service.execute", "service",
                   rid=_session_arg)
        self._wrap(AsyncQueryServer, "_execute_async", "service.execute", "service",
                   rid=_session_arg, root=True)

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        for owner, attr, original, owned in reversed(self._patches):
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    def _wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        layer: str,
        rid: Optional[Callable] = None,
        root: bool = False,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> None:
        owned = attr in vars(owner)
        original = getattr(owner, attr)
        if isinstance(owner, type) and owned:
            original = vars(owner)[attr]
        tracer = self

        def open_span(args):
            parent = None if root else tracer._current.get()
            span_layer = layer
            if layer == "optimizer" and tracer._inside("replan", parent):
                span_layer = "replan"
            tracer.spans.append(
                Span(name, span_layer, 0.0, parent=parent, pass_no=tracer.pass_no)
            )
            index = len(tracer.spans) - 1
            token = tracer._current.set(index)
            mark = before(args) if before is not None else None
            tracer.spans[index].start = time.perf_counter()
            return index, token, mark

        def close_span(index, token, mark, args, kwargs, result):
            span = tracer.spans[index]
            span.end = time.perf_counter()
            tracer._current.reset(token)
            if rid is not None:
                span.rid = rid(args, kwargs, result)
            if after is not None:
                after(span, args, mark)

        if inspect.iscoroutinefunction(original):
            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                index, token, mark = open_span(args)
                result = None
                try:
                    result = await original(*args, **kwargs)
                    return result
                finally:
                    close_span(index, token, mark, args, kwargs, result)
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                index, token, mark = open_span(args)
                result = None
                try:
                    result = original(*args, **kwargs)
                    return result
                finally:
                    close_span(index, token, mark, args, kwargs, result)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original, owned))

    def _inside(self, layer: str, index: Optional[int]) -> bool:
        while index is not None:
            span = self.spans[index]
            if span.layer == layer:
                return True
            index = span.parent
        return False

    # -- analysis -------------------------------------------------------

    def by_request(self) -> dict[tuple[int, str], dict]:
        """Per (pass, request id): self seconds per layer, submit/execute spans."""
        rids: list[Optional[str]] = []
        self_time = [s.end - s.start for s in self.spans]
        for i, span in enumerate(self.spans):
            rids.append(
                span.rid if span.rid is not None
                else (rids[span.parent] if span.parent is not None else None)
            )
            if span.parent is not None:
                self_time[span.parent] -= span.end - span.start
        out: dict[tuple[int, str], dict] = {}
        for i, span in enumerate(self.spans):
            rid = rids[i]
            if rid is None:
                continue
            entry = out.setdefault((span.pass_no, rid), {
                "layers": dict.fromkeys(LAYERS, 0.0),
                "submit": None,
                "execute": None,
                "encode": 0.0,
                "searches": 0,
                "checks": 0,
            })
            entry["layers"][span.layer] += self_time[i]
            if span.name == "service.submit":
                entry["submit"] = (span.start, span.end)
            elif span.name == "service.execute":
                entry["execute"] = (span.start, span.end)
            elif span.name == "service.encode":
                entry["encode"] += span.end - span.start
            elif span.name == "optimizer.search" and span.layer == "optimizer":
                entry["searches"] += 1
            entry["checks"] += span.checks
        return out

    def write(self, path) -> None:
        """Dump every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(vars(span), sort_keys=True) + "\n")
