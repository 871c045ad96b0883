"""The async multi-client serving layer (docs/RUNTIME.md, docs/SERVICE.md).

Two pieces grow ``repro.service`` from a single-client stdio loop into a
network server:

* :class:`AsyncQueryServer` -- the :class:`~repro.service.server.QueryServer`
  lifted onto the asyncio event loop: up to ``concurrent_queries``
  sessions *execute* at once (each on its own
  :class:`~repro.core.framework.FrameworkNC`, driven through its async
  entry points, over the shared
  :class:`~repro.sources.cache.SourceCache`), with backpressure
  (``max_pending``), mid-flight cancellation, and graceful drain.
* :class:`StreamQueryService` -- the JSON-lines protocol of ``repro
  serve`` over TCP or a unix socket, many clients at once, with
  per-client admission control and streaming progressive results
  (``op: "stream"``).

Determinism contract (docs/RUNTIME.md): the sync entry points run the
sync server's engines, so they answer byte-identically to
:class:`~repro.service.server.QueryServer` at any ``query_concurrency``.
At ``concurrent_queries=1`` and ``time_scale=0`` a submit-then-wait
request sequence produces answer and trace bytes identical to the sync
server's too -- tasks start in submission order, the admission
semaphore wakes waiters FIFO, and scale-0 pacing never consults a
timer. At higher concurrency the *interleaving* of
accesses changes but the union of charged work does not: each query's
logical access sequence is value-deterministic and the shared cache
fetches every position exactly once, so total charged Eq. 1 cost and the
returned top-k are invariant across concurrency levels (what E22 and the
``serve-smoke`` CI job pin). Per-session *attribution* (who paid
for a shared frontier extension, who got the free hit) is the one thing
interleaving may move.

Concurrency discipline: asyncio is cooperative, so instead of locks this
module relies on *synchronous sections* -- every mutation of shared
server state (session tables, admission counters, the cache's
charge-and-fetch) runs between awaits, never across one. The engine's
only suspension points are pacer waits, so cancellation always lands
between consistent states and the reconciliation invariant (charged +
cached == recorded) survives a kill.
"""

from __future__ import annotations

import asyncio
import os
from typing import Optional

from repro.exceptions import ProtocolError, ReproError, ServiceOverloadError
from repro.runtime.engine import AnswerCallback
from repro.runtime.pacing import Pacer
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
from repro.service.server import QueryServer, Session
from repro.types import RankedObject


class AsyncQueryServer(QueryServer):
    """A :class:`QueryServer` whose sessions run as asyncio tasks.

    Construction is identical to the sync server (same args, same shared
    cache/breakers/ledger); the async entry points are
    :meth:`submit_async` / :meth:`wait` / :meth:`cancel` /
    :meth:`drain`. The sync entry points (``submit`` / ``result`` /
    ``query``) are the sync server's: strictly FIFO on its engines,
    byte-identical to :class:`~repro.service.server.QueryServer` --
    useful for warming a cache before serving -- but must not be mixed
    with in-flight async sessions.

    Concurrency knobs come from the shared
    :class:`~repro.service.server.ServerConfig`: ``concurrent_queries``
    (executing at once), ``max_pending`` (admitted but not yet started),
    and ``time_scale`` (the :class:`~repro.runtime.Pacer`).
    """

    def __init__(self, *args: object, **kwargs: object) -> None:
        super().__init__(*args, **kwargs)  # type: ignore[arg-type]
        self.pacer = Pacer(self.config.time_scale)
        self._semaphore = asyncio.Semaphore(self.config.concurrent_queries)
        self._tasks: dict[str, asyncio.Task[None]] = {}
        self._events: dict[str, asyncio.Event] = {}
        # Open session id -> the open-session set of the connection that
        # submitted it (StreamQueryService), emptied as sessions close.
        self._owners: dict[str, set[str]] = {}
        self._pending = 0
        self._draining = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def inflight_sessions(self) -> int:
        """Sessions currently executing accesses."""
        return len(self._inflight)

    @property
    def pending_sessions(self) -> int:
        """Sessions admitted but still waiting for an execution slot."""
        return self._pending

    @property
    def draining(self) -> bool:
        """Whether :meth:`drain` has shut the admission door."""
        return self._draining

    def stats(self) -> dict:
        """The shared-state snapshot, extended with async runtime gauges."""
        snap = super().stats()
        snap["inflight"] = self.inflight_sessions
        snap["pending"] = self.pending_sessions
        snap["draining"] = self._draining
        snap["concurrent_queries"] = self.config.concurrent_queries
        return snap

    def _close_slot(self, session: Session) -> None:
        if not session.retrieved:
            owned = self._owners.pop(session.id, None)
            if owned is not None:
                owned.discard(session.id)
        super()._close_slot(session)

    def _forget(self, session_id: str) -> None:
        super()._forget(session_id)
        self._tasks.pop(session_id, None)
        self._events.pop(session_id, None)

    # ------------------------------------------------------------------
    # Async session lifecycle
    # ------------------------------------------------------------------

    async def submit_async(
        self,
        text: str,
        budget: Optional[float] = None,
        on_answer: Optional[AnswerCallback] = None,
    ) -> str:
        """Admit a session and start its task; returns the session id.

        The session begins executing as soon as an execution slot frees
        up (``concurrent_queries``); retrieval is a separate
        :meth:`wait`. ``on_answer`` is awaited once per confirmed answer
        in rank order -- the streaming-progressive-results hook.

        Raises :class:`~repro.exceptions.ServiceOverloadError` when the
        server is draining, ``max_in_flight`` sessions are already open,
        or ``max_pending`` sessions are already waiting for a slot.
        """
        if self._draining:
            self._reject("server", "draining")
            raise ServiceOverloadError(
                "server is draining; new sessions are not admitted"
            )
        parsed = self._admit(text)
        limit = self.config.max_pending
        if limit is not None and self._pending >= limit:
            self._reject("server", "max_pending")
            raise ServiceOverloadError(
                f"{self._pending} sessions already pending "
                f"(max_pending={limit}); apply backpressure upstream"
            )
        session = self._new_session(parsed, text, budget)
        self._events[session.id] = asyncio.Event()
        self._pending += 1
        task = asyncio.create_task(
            self._run_session(session, on_answer),
            name=f"repro-session-{session.id}",
        )
        self._tasks[session.id] = task
        return session.id

    async def wait(self, session_id: str) -> Session:
        """Await a session's terminal state and close its admission slot."""
        session = self.session(session_id)
        event = self._events.get(session_id)
        if event is not None:
            await event.wait()
        self._close_slot(session)
        return session

    async def cancel(self, session_id: str) -> Session:
        """Cancel a session mid-flight (or retrieve it, if already done).

        The cancel lands on the engine's next pacer wait -- never inside
        an access's charge-and-fetch -- so whatever the session charged
        up to that point is folded into the shared ledger exactly like a
        completed session's cost, and the reconciliation invariant
        (charged + cached == recorded) holds. The session ends with
        status ``"cancelled"`` and its slot is released.
        """
        session = self.session(session_id)
        task = self._tasks.get(session_id)
        if task is not None and not task.done():
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
            if session.status == "queued":
                # The cancel landed before the task's coroutine ever ran
                # a single step: its except/finally never executed, so
                # the pre-start bookkeeping happens here instead.
                self._mark_cancelled_prestart(session)
                self._events[session.id].set()
        return await self.wait(session_id)

    def _mark_cancelled_prestart(self, session: Session) -> None:
        """Close out a session cancelled before execution started.

        Nothing ran and nothing is charged, but the admission slot must
        be returned: the pending count drops (the ``async with`` that
        would have decremented it never entered) and the lifecycle
        counter records the refusal so sessions_total still equals the
        number of admitted sessions.
        """
        session.status = "cancelled"
        session.error = "cancelled before execution started"
        session.error_type = "CancelledError"
        self._pending -= 1
        self.metrics.inc("repro_sessions_total", status="cancelled")

    async def query_async(
        self,
        text: str,
        budget: Optional[float] = None,
        on_answer: Optional[AnswerCallback] = None,
    ) -> Session:
        """Convenience: submit, execute, and retrieve in one await."""
        return await self.wait(
            await self.submit_async(text, budget=budget, on_answer=on_answer)
        )

    async def drain(self) -> int:
        """Stop admitting and await every in-flight session; returns count.

        Graceful shutdown: submissions after this raise
        :class:`~repro.exceptions.ServiceOverloadError`, queries already
        admitted run to completion (they are *not* cancelled), and the
        call returns once the last one has folded its accounting into
        the shared ledger.
        """
        self._draining = True
        tasks = [task for task in self._tasks.values() if not task.done()]
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        return len(tasks)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    async def _run_session(
        self, session: Session, on_answer: Optional[AnswerCallback]
    ) -> None:
        try:
            async with self._semaphore:
                self._pending -= 1
                await self._execute_async(session, on_answer)
        except asyncio.CancelledError:
            if session.status == "queued":
                # Cancelled before an execution slot ever opened: nothing
                # ran, nothing is charged, but the slot comes back and
                # the refusal is counted.
                self._mark_cancelled_prestart(session)
            # Swallow deliberately: waiters rendezvous on the session
            # event; the task itself must not propagate the cancel into
            # gather() during drain.
        finally:
            self._events[session.id].set()

    async def _execute_async(
        self, session: Session, on_answer: Optional[AnswerCallback]
    ) -> None:
        with self._lifecycle(session) as run:
            try:
                run.engine = engine = self._engine(
                    run.middleware, session, self.pacer
                )
                self._complete(session, await engine.run_async(on_answer=on_answer))
            except asyncio.CancelledError:
                session.status = "cancelled"
                session.error = "cancelled mid-flight"
                session.error_type = "CancelledError"
                raise


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
        server: the :class:`AsyncQueryServer` to serve.
        host: TCP listen address (default loopback).
        port: TCP listen port; ``0`` (default) picks a free one -- read
            :attr:`port` after :meth:`start`.
        path: listen on a unix socket at this path instead of TCP; a
            stale socket file there is replaced, and the file is removed
            on :meth:`aclose`.
    """

    def __init__(
        self,
        server: AsyncQueryServer,
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
            # A vanished client must not leak running queries: cancel
            # whatever it still has open (accounting is folded by cancel).
            # The set shrinks during the awaits, as sessions close.
            for session_id in sorted(owned):
                if session_id in owned:
                    await self.server.cancel(session_id)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

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
    server: AsyncQueryServer, host: str = "127.0.0.1", port: int = 0
) -> StreamQueryService:
    """Start a TCP :class:`StreamQueryService`; returns it listening.

    Callers await :meth:`StreamQueryService.serve_forever` (or manage
    the lifecycle themselves via :meth:`StreamQueryService.aclose`).
    """
    service = StreamQueryService(server, host=host, port=port)
    await service.start()
    return service
