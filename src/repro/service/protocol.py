"""The JSON-lines wire protocol of ``repro serve``.

One request per line, one JSON object per response line -- the lowest
common denominator a shell script, a test harness, or another process can
speak over stdio or a local socket. Requests name an ``op``:

``{"op": "submit", "query": "SELECT ...", "budget": 12.5}``
    Admit a session; responds with its ``session`` id. ``budget`` is
    optional (the server default applies when absent).

``{"op": "result", "session": "q000001-..."}``
    Force the session to completion (earlier submissions run first) and
    return its outcome: the encoded ranking and accounting, the charged
    cost, and the cache hits the session enjoyed.

``{"op": "stats"}``
    The server's shared-state snapshot (sessions, cache hit rates,
    cumulative charged cost).

``{"op": "shutdown"}``
    Acknowledge and end the serving loop.

Every response carries ``"ok"``; failures carry ``"error"`` (message) and
``"type"`` (exception class name) instead of crashing the loop -- one bad
request must not take down the sessions of other clients.
"""

from __future__ import annotations

import json
import math
from typing import IO, Optional

from repro.exceptions import ReproError
from repro.serialization import result_to_dict
from repro.service.server import QueryServer, Session


def _error(message: str, error_type: str, op: Optional[str] = None) -> dict:
    response = {"ok": False, "error": message, "type": error_type}
    if op is not None:
        response["op"] = op
    return response


def request_budget(request: dict) -> tuple[Optional[float], Optional[str]]:
    """A request's optional ``budget`` as ``(value, error)``.

    A budget must be a nonnegative JSON number: absent or ``null`` means
    the server default (``(None, None)``); a string, bool, array,
    object, NaN or negative number yields an error message for a
    ``ProtocolError`` answer, so one bad field never escapes as an
    exception that ends the serving loop.
    """
    budget = request.get("budget")
    if budget is None:
        return None, None
    if isinstance(budget, (int, float)) and not isinstance(budget, bool):
        try:
            value = float(budget)
        except OverflowError:  # an integer literal beyond float range
            value = math.nan
        if value >= 0:  # False for NaN
            return value, None
    return None, f"'budget' must be a nonnegative number, got {budget!r:.40}"


def _session_response(server: QueryServer, session: Session) -> dict:
    if session.status in ("failed", "cancelled"):
        response = _error(session.error or f"query {session.status}",
                          session.error_type or "ReproError", op="result")
        response["session"] = session.id
        response["charged_cost"] = session.charged_cost
        if session.status == "cancelled":
            response["status"] = "cancelled"
        return response
    assert session.result is not None
    return {
        "ok": True,
        "op": "result",
        "session": session.id,
        "result": result_to_dict(session.result),
        "partial": session.result.partial,
        "charged_cost": session.charged_cost,
        "cache_hits": session.cache_hits,
        "cache": server.cache.stats.snapshot(),
    }


def handle_request(server: QueryServer, request: object) -> dict:
    """Dispatch one decoded request; always returns a response dict."""
    if not isinstance(request, dict):
        return _error("request must be a JSON object", "ProtocolError")
    op = request.get("op")
    try:
        if op == "submit":
            text = request.get("query")
            if not isinstance(text, str):
                return _error("submit needs a 'query' string", "ProtocolError", op)
            budget, problem = request_budget(request)
            if problem is not None:
                return _error(problem, "ProtocolError", op)
            session_id = server.submit(text, budget=budget)
            return {"ok": True, "op": "submit", "session": session_id}
        if op == "result":
            session_id = request.get("session")
            if not isinstance(session_id, str):
                return _error("result needs a 'session' id", "ProtocolError", op)
            return _session_response(server, server.result(session_id))
        if op == "stats":
            return {"ok": True, "op": "stats", "stats": server.stats()}
        if op == "shutdown":
            return {"ok": True, "op": "shutdown"}
    except ReproError as exc:
        return _error(str(exc), type(exc).__name__, op)
    return _error(f"unknown op {op!r}", "ProtocolError", op)


def serve_stream(server: QueryServer, lines: IO[str], out: IO[str]) -> bool:
    """Serve JSON-lines requests until shutdown or EOF.

    Returns ``True`` when a shutdown op ended the loop (the socket server
    uses this to distinguish a client hanging up from an ordered stop).
    Blank lines are ignored; undecodable ones get an error response.
    """
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            request = json.loads(line)
        except (ValueError, RecursionError) as exc:
            # Malformed JSON, an integer literal past the interpreter's
            # digit limit (a plain ValueError), or a line nested deeper
            # than the decoder can follow: all undecodable.
            response = _error(f"bad JSON: {exc}", "ProtocolError")
        else:
            response = handle_request(server, request)
        out.write(json.dumps(response, sort_keys=True) + "\n")
        flush = getattr(out, "flush", None)
        if flush is not None:
            flush()
        if response.get("op") == "shutdown" and response.get("ok"):
            return True
    return False


def serve_socket(server: QueryServer, path: str, backlog: int = 4) -> int:
    """Serve connections on a local (unix-domain) socket, one at a time.

    Connections are handled sequentially -- the execution model is
    deterministic FIFO either way -- until one of them sends a shutdown
    op. Returns the number of connections served. The socket file is
    created fresh and removed on exit.
    """
    import os
    import socket

    try:
        os.unlink(path)
    except FileNotFoundError:
        pass
    listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    connections = 0
    try:
        listener.bind(path)
        listener.listen(backlog)
        while True:
            conn, _addr = listener.accept()
            with conn:
                stream = conn.makefile("rw", encoding="utf-8", newline="\n")
                with stream:
                    connections += 1
                    if serve_stream(server, stream, stream):
                        return connections
    finally:
        listener.close()
        try:
            os.unlink(path)
        except FileNotFoundError:
            pass
