"""Serving many top-k queries over one shared source pool (docs/SERVICE.md).

The paper optimizes the access cost of *one* query; this package
amortizes it over a query *stream*. The pieces:

* :class:`QueryServer` -- session admission, per-session cost budgets,
  and warm per-query middlewares over a shared
  :class:`~repro.sources.cache.SourceCache` and shared circuit
  breakers; its sync entry points execute sessions in deterministic FIFO
  order, its async ones (docs/RUNTIME.md) run up to
  ``concurrent_queries`` at once as asyncio tasks, with backpressure,
  cancellation and graceful drain;
* :class:`ServerConfig` / :class:`Session` -- the tuning record and the
  per-query lifecycle record;
* :func:`handle_request` / :func:`serve_stream` -- the JSON-lines
  protocol of ``repro serve`` over stdio; its one line decoder and one
  request validator serve every transport;
* :class:`StreamQueryService` / :func:`serve_tcp` -- the TCP and unix
  socket transports over the async entry points: many clients,
  per-client admission, streaming progressive results.

The cross-query substrate itself -- the cache and its metering
integration -- lives in :mod:`repro.sources.cache`; the pacer of the
engine's async drivers in :mod:`repro.runtime`.
"""

from repro.service.aio import StreamQueryService, serve_tcp
from repro.service.protocol import handle_request, serve_stream
from repro.service.server import QueryServer, ServerConfig, Session

__all__ = [
    "QueryServer",
    "ServerConfig",
    "Session",
    "StreamQueryService",
    "handle_request",
    "serve_stream",
    "serve_tcp",
]
