"""The socket transports of ``repro serve`` (docs/RUNTIME.md, docs/SERVICE.md).

:class:`StreamQueryService` speaks the JSON-lines protocol of ``repro
serve`` over TCP or a unix socket, many clients at once, on a
:class:`~repro.service.server.QueryServer`'s async entry points: up to
``concurrent_queries`` sessions execute at once over the shared
:class:`~repro.sources.cache.SourceCache`, with per-client admission
control, streaming progressive results (``op: "stream"``), mid-flight
cancellation and graceful drain. The determinism contract and the
synchronous-section discipline the transport relies on are the server's
(:mod:`repro.service.server`).
"""

from __future__ import annotations

import asyncio
import os
from typing import Optional

from repro.exceptions import ProtocolError, ReproError, ServiceOverloadError
from repro.runtime.engine import AnswerCallback
from repro.service.protocol import (
    QUERY_OPS,
    STREAM_OPS,
    decode_line,
    encode_response,
    error_response,
    is_shutdown,
    session_response,
    validate_request,
)
from repro.service.server import QueryServer
from repro.types import RankedObject

# perfbench/spans.py and perfbench/workloads.py import this name and wrap
# its ``submit_async`` and ``_execute_async``.
AsyncQueryServer = QueryServer


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    """The next ``\\n``-terminated line (the unterminated rest at EOF).

    A line longer than the reader's buffer limit raises
    :class:`~repro.exceptions.ProtocolError`, but only after the whole
    line has been consumed, so the next read starts at the next request.
    """
    try:
        return await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as exc:
        return exc.partial
    except asyncio.LimitOverrunError as exc:
        consumed = exc.consumed
    while True:
        # ``consumed`` buffered bytes hold no separator: drop them.
        await reader.readexactly(consumed)
        try:
            await reader.readuntil(b"\n")
        except asyncio.IncompleteReadError:
            pass
        except asyncio.LimitOverrunError as exc:
            consumed = exc.consumed
            continue
        raise ProtocolError(
            "bad request line: longer than the stream reader's limit"
        )


class StreamQueryService:
    """The JSON-lines protocol over a TCP or unix socket, many clients.

    Speaks the ``repro serve`` wire protocol (docs/SERVICE.md) with the
    async extensions:

    ``{"op": "query", "query": "...", "budget": ...}``
        Submit *and* await one query; responds with the full result.
    ``{"op": "stream", "query": "...", "budget": ...}``
        Like ``query``, but each confirmed answer is pushed as a
        ``{"op": "progress", "rank": ..., "object": ..., "score": ...}``
        line as soon as the engine proves it, before the final result
        line.
    ``{"op": "cancel", "session": "..."}``
        Cancel an in-flight session (idempotent on finished ones).

    ``submit`` / ``result`` / ``stats`` / ``shutdown`` behave as in the
    stdio protocol; ``result`` awaits without blocking other clients.
    A client that disconnects with sessions still in flight gets them
    cancelled (their charged cost stays on the ledger); ``shutdown``
    answers, stops accepting connections, drains in-flight queries, and
    ends :meth:`serve_forever`.

    Args:
        server: the :class:`~repro.service.server.QueryServer` to serve.
        host: TCP listen address (default loopback).
        port: TCP listen port; ``0`` (default) picks a free one -- read
            :attr:`port` after :meth:`start`.
        path: listen on a unix socket at this path instead of TCP; a
            stale socket file there is replaced, and the file is removed
            on :meth:`aclose`.
    """

    def __init__(
        self,
        server: QueryServer,
        host: str = "127.0.0.1",
        port: int = 0,
        path: Optional[str] = None,
    ):
        self.server = server
        self.host = host
        self.port = port
        self.path = path
        self._listener: Optional[asyncio.AbstractServer] = None
        self._shutdown = asyncio.Event()
        self._connections = 0

    @property
    def connections(self) -> int:
        """Total client connections accepted so far."""
        return self._connections

    async def start(self) -> str:
        """Bind and start accepting clients; returns the bound address.

        The address is ``HOST:PORT`` on TCP and the socket path on a
        unix socket.
        """
        if self._listener is not None:
            raise ReproError("service already started")
        if self.path is not None:
            self._listener = await asyncio.start_unix_server(
                self._handle_client, self.path
            )
            return self.path
        self._listener = await asyncio.start_server(
            self._handle_client, self.host, self.port
        )
        sockets = self._listener.sockets
        assert sockets, "start_server always binds at least one socket"
        addr = sockets[0].getsockname()
        self.port = addr[1]
        return f"{addr[0]}:{addr[1]}"

    async def serve_forever(self) -> None:
        """Serve until a ``shutdown`` op arrives, then drain and close."""
        if self._listener is None:
            await self.start()
        await self._shutdown.wait()
        await self.aclose()

    async def aclose(self) -> None:
        """Stop accepting, drain in-flight queries, release the address."""
        listener, self._listener = self._listener, None
        if listener is not None:
            listener.close()
            await listener.wait_closed()
            if self.path is not None:
                try:
                    os.unlink(self.path)
                except FileNotFoundError:
                    pass
        await self.server.drain()

    # ------------------------------------------------------------------
    # Per-client handling
    # ------------------------------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections += 1
        # This client's open sessions; the server drops each as it closes.
        owned: set[str] = set()
        try:
            while True:
                try:
                    line = await _read_line(reader)
                    if not line:
                        break
                    request = decode_line(line)
                except ProtocolError as exc:
                    # Answer this line and keep serving the connection.
                    response = error_response(exc)
                else:
                    if request is None:
                        continue
                    response = await self._dispatch(request, owned, writer)
                await self._send(writer, response)
                if is_shutdown(response):
                    self._shutdown.set()
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            # Event-loop teardown cancels handler tasks mid-readline;
            # absorbing it (after the cleanup below) keeps the stream
            # protocol's done-callback from logging a spurious error.
            pass
        finally:
            try:
                # A vanished client must not leak running queries: cancel
                # whatever it still has open (accounting is folded by
                # cancel). The set shrinks during the awaits, as sessions
                # close.
                for session_id in sorted(owned):
                    if session_id in owned:
                        await self.server.cancel(session_id)
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            except asyncio.CancelledError:
                # Teardown can cancel the handler again while it cleans
                # up; absorbed for the same reason as above.
                writer.close()

    async def _send(self, writer: asyncio.StreamWriter, response: dict) -> None:
        writer.write(encode_response(response).encode("utf-8"))
        try:
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass

    def _client_slot(self, owned: set[str]) -> bool:
        """Per-client admission: may this client open another session?"""
        limit = self.server.config.client_max_open
        if limit is None:
            return True
        if len(owned) >= limit:
            self.server._reject("client", "client_max_open")
            return False
        return True

    async def _dispatch(
        self,
        request: dict,
        owned: set[str],
        writer: asyncio.StreamWriter,
    ) -> dict:
        """Validate and execute one decoded request; always answers."""
        server = self.server
        try:
            valid = validate_request(request, STREAM_OPS)
            if valid.op in QUERY_OPS:
                if not self._client_slot(owned):
                    return error_response(ServiceOverloadError(
                        "client session limit reached (client_max_open="
                        f"{server.config.client_max_open}); retrieve "
                        "results before submitting more"
                    ), request)
                session_id = await server.submit_async(
                    valid.query,
                    budget=valid.budget,
                    on_answer=(
                        self._progress_hook(writer)
                        if valid.op == "stream"
                        else None
                    ),
                )
                owned.add(session_id)
                server._owners[session_id] = owned
                if valid.op == "submit":
                    return {"ok": True, "op": "submit", "session": session_id}
                return session_response(server, await server.wait(session_id))
            if valid.op == "result":
                return session_response(server, await server.wait(valid.session))
            if valid.op == "cancel":
                session = await server.cancel(valid.session)
                return {
                    "ok": True,
                    "op": "cancel",
                    "session": session.id,
                    "status": session.status,
                    "charged_cost": session.charged_cost,
                }
            if valid.op == "stats":
                return {"ok": True, "op": "stats", "stats": server.stats()}
            return {"ok": True, "op": "shutdown"}
        except ReproError as exc:
            return error_response(exc, request)

    def _progress_hook(self, writer: asyncio.StreamWriter) -> AnswerCallback:
        """An on_answer callback pushing progress lines to one client."""
        rank = 0

        async def on_answer(answer: RankedObject) -> None:
            nonlocal rank
            rank += 1
            await self._send(
                writer,
                {
                    "ok": True,
                    "op": "progress",
                    "rank": rank,
                    "object": answer.obj,
                    "score": answer.score,
                },
            )

        return on_answer


async def serve_tcp(
    server: QueryServer, host: str = "127.0.0.1", port: int = 0
) -> StreamQueryService:
    """Start a TCP :class:`StreamQueryService`; returns it listening.

    Callers await :meth:`StreamQueryService.serve_forever` (or manage
    the lifecycle themselves via :meth:`StreamQueryService.aclose`).
    """
    service = StreamQueryService(server, host=host, port=port)
    await service.start()
    return service
