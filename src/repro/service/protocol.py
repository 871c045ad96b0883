"""The JSON-lines wire protocol of ``repro serve``.

One request per line, one JSON object per response line -- the lowest
common denominator a shell script, a test harness, or another process can
speak over stdio, a unix socket or TCP. Requests name an ``op``:

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

The socket transports (:mod:`repro.service.aio`) add ``query``,
``stream`` and ``cancel``. Every transport reads a line through
:func:`decode_line` and checks it with :func:`validate_request`, so
they accept and refuse exactly the same lines. Every response carries
``"ok"``; failures carry ``"error"`` (message) and ``"type"`` (exception
class name) instead of crashing the loop -- one bad request must not
take down the sessions of other clients.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import IO, Iterable, Optional, Union

from repro.exceptions import ProtocolError, ReproError
from repro.serialization import result_to_dict
from repro.service.server import QueryServer, Session

#: The ops of the stdio transport (``repro serve`` without a socket).
STDIO_OPS = frozenset({"submit", "result", "stats", "shutdown"})
#: The ops of the unix-socket and TCP transports.
STREAM_OPS = STDIO_OPS | {"query", "stream", "cancel"}
#: Ops that take a ``query`` text and an optional ``budget``.
QUERY_OPS = frozenset({"submit", "query", "stream"})
_SESSION_OPS = frozenset({"result", "cancel"})


@dataclass(frozen=True)
class Request:
    """One validated request: its op and the arguments that op takes."""

    op: str
    query: str = ""
    session: str = ""
    budget: Optional[float] = None


def decode_line(line: Union[bytes, str]) -> Optional[dict]:
    """One request line as a JSON object; ``None`` for a blank line.

    Raises :class:`~repro.exceptions.ProtocolError` for non-UTF-8
    bytes, malformed JSON, nesting deeper than the decoder follows, an
    integer literal past the interpreter's digit limit (a plain
    ``ValueError`` from ``json.loads``) and a request that is not an
    object.
    """
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"bad request line: {exc}") from None
    line = line.strip()
    if not line:
        return None
    try:
        request = json.loads(line)
    except (ValueError, RecursionError) as exc:
        raise ProtocolError(f"bad JSON: {exc}") from None
    if not isinstance(request, dict):
        raise ProtocolError("request must be a JSON object")
    return request


def _budget(request: dict) -> Optional[float]:
    """A request's optional ``budget``: a nonnegative JSON number.

    Absent or ``null`` means the server default (``None``); a string,
    bool, array, object, NaN, negative number or an integer beyond float
    range raises :class:`~repro.exceptions.ProtocolError`.
    """
    budget = request.get("budget")
    if budget is None:
        return None
    if isinstance(budget, (int, float)) and not isinstance(budget, bool):
        try:
            value = float(budget)
        except OverflowError:  # an integer literal beyond float range
            value = math.nan
        if value >= 0:  # False for NaN
            return value
    raise ProtocolError(
        f"'budget' must be a nonnegative number, got {budget!r:.40}"
    )


def validate_request(request: object, ops: frozenset[str]) -> Request:
    """Check a decoded request against the transport's ``ops``.

    The one place the protocol checks an op and its arguments: an
    unknown op, a missing ``query`` string or ``session`` id, or a bad
    ``budget`` raises :class:`~repro.exceptions.ProtocolError`.
    """
    if not isinstance(request, dict):
        raise ProtocolError("request must be a JSON object")
    op = request.get("op")
    if not isinstance(op, str) or op not in ops:
        raise ProtocolError(f"unknown op {op!r}")
    if op in QUERY_OPS:
        query = request.get("query")
        if not isinstance(query, str):
            raise ProtocolError(f"{op} needs a 'query' string")
        return Request(op, query=query, budget=_budget(request))
    if op in _SESSION_OPS:
        session = request.get("session")
        if not isinstance(session, str):
            raise ProtocolError(f"{op} needs a 'session' id")
        return Request(op, session=session)
    return Request(op)


def _failure(message: str, error_type: str, op: object = None) -> dict:
    response = {"ok": False, "error": message, "type": error_type}
    if op is not None:
        response["op"] = op
    return response


def error_response(exc: ReproError, request: object = None) -> dict:
    """The ``ok: false`` answer to ``exc``, naming the request's op."""
    op = request.get("op") if isinstance(request, dict) else None
    return _failure(str(exc), type(exc).__name__, op)


def encode_response(response: dict) -> str:
    """One response as its wire line (sorted keys, newline-terminated)."""
    return json.dumps(response, sort_keys=True) + "\n"


def is_shutdown(response: dict) -> bool:
    """Whether ``response`` acknowledges a shutdown (the loop ends)."""
    return response.get("op") == "shutdown" and bool(response.get("ok"))


def session_response(server: QueryServer, session: Session) -> dict:
    """The ``result`` answer for a retrieved session (any terminal status)."""
    if session.status in ("failed", "cancelled"):
        response = _failure(session.error or f"query {session.status}",
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
    """Validate and execute one decoded stdio request; always answers."""
    try:
        valid = validate_request(request, STDIO_OPS)
        if valid.op == "submit":
            session_id = server.submit(valid.query, budget=valid.budget)
            return {"ok": True, "op": "submit", "session": session_id}
        if valid.op == "result":
            return session_response(server, server.result(valid.session))
        if valid.op == "stats":
            return {"ok": True, "op": "stats", "stats": server.stats()}
        return {"ok": True, "op": "shutdown"}
    except ReproError as exc:
        return error_response(exc, request)


def serve_stream(
    server: QueryServer, lines: Iterable[Union[bytes, str]], out: IO[str]
) -> bool:
    """Serve JSON-lines requests until shutdown or EOF.

    ``lines`` yields ``bytes`` (``sys.stdin.buffer``, so non-UTF-8 input
    is answered, not fatal) or ``str``. Returns ``True`` when a shutdown
    op ended the loop. Blank lines are ignored; undecodable ones get an
    error response and the next line is served.
    """
    for line in lines:
        try:
            request = decode_line(line)
        except ProtocolError as exc:
            response = error_response(exc)
        else:
            if request is None:
                continue
            response = handle_request(server, request)
        out.write(encode_response(response))
        flush = getattr(out, "flush", None)
        if flush is not None:
            flush()
        if is_shutdown(response):
            return True
    return False
