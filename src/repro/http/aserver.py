"""Real asyncio HTTP/1.1 server with overload protection.

Serves the same handler objects the discrete-event stack uses
(``handler(request) -> Response``, sync or async), over actual TCP sockets
with keep-alive.  Used by the integration tests and the runnable examples
to demonstrate the system end-to-end outside the simulator.

An optional ``latency_s`` injects a one-way artificial delay before each
response, emulating a distant origin on localhost.

The request path
    Each connection is one :class:`asyncio.Protocol` fed by a sans-IO
    :class:`~repro.http.wire.RequestParser`.  A request that a
    synchronous handler answers is parsed, dispatched, serialized and
    written inside ``data_received``, with no Task, no future and no
    timer push; pipelined requests are answered in order in the same
    call.  An awaitable handler result finishes in a Task, and
    ``latency_s > 0`` in a ``call_later``; either way the connection
    answers nothing else until that response is written, so responses
    keep request order and the request keeps its ``inflight`` slot.
    When the transport's send buffer passes its high-water mark
    (``pause_writing``), the connection stops reading and dispatching
    until it drains, so a peer that never reads cannot grow it without
    bound.

read deadlines
    One ``TimerHandle`` per connection carries both read deadlines from
    a deadline field and re-arms itself lazily when it fires early, so a
    keep-alive request pushes no timer: ``keepalive_timeout_s`` while
    idle (expiry closes the connection silently) and, from the first
    byte of a request, ``header_read_timeout_s`` (expiry answers ``408``
    with ``Connection: close``; a request line trickled slower than
    that is a slow-loris too).  No read deadline runs while a request
    is being answered.

admission control
    ``max_connections`` caps concurrent connections (excess connections
    are answered ``503`` and closed before any request is read), and
    ``max_inflight`` caps concurrently *dispatched* requests — the
    high-water mark past which further requests are **load-shed** with
    ``503 + Retry-After`` instead of queueing without bound.  The
    ``Retry-After`` hint is deterministic (seeded by ``shed_seed``) but
    jittered per shed ordinal, so a thundering herd that retries on the
    hint re-arrives spread out instead of in lockstep.
    ``max_requests_per_connection`` guards against a single keep-alive
    peer pipelining forever: after N responses the connection is closed
    (``Connection: close``), recycling the slot.

graceful drain
    :meth:`stop` accepts ``drain_s``.  The listener closes immediately,
    connections with no dispatched request (idle keep-alive peers and
    peers still sending a head) are reclaimed at once, dispatched
    requests get up to ``drain_s`` seconds to finish (their responses
    carry ``Connection: close``), and stragglers are aborted at the
    deadline.  ``stop`` returns only once every connection is closed
    and every handler Task has finished — nothing lingers after it.

The debug endpoint ``GET /__repro/stats`` is answered ahead of
admission-level request shedding (an overloaded server must still be
observable); it reports the admission gauges and shed counters alongside
the tracer/metrics snapshots, and ``?dump=1`` adds the mergeable
:meth:`~repro.obs.metrics.MetricsRegistry.dump` wire format so a scraper
can fold many shards into one fleet view.
"""

from __future__ import annotations

import asyncio
import functools
import inspect
import json
import socket as socket_module
import time
from typing import Awaitable, Callable, Optional, Union

from ..netsim.faults import deterministic_draw
from ..obs.log import get_logger
from ..obs.promtext import CONTENT_TYPE as PROM_CONTENT_TYPE
from ..obs.promtext import to_prometheus_text
from ..obs.trace import NULL_TRACER
from ..obs.tracecontext import extract_context
from .errors import ConnectionClosed, ProtocolError
from .headers import Headers
from .messages import Request, Response, keeps_alive
from .wire import (MAX_HEADER_BLOCK, RequestParser, serialize_response,
                   serialize_response_parts)

__all__ = ["AsyncHttpServer", "Handler", "STATS_PATH", "METRICS_PATH"]

logger = get_logger("http.aserver")

Handler = Callable[[Request], Union[Response, Awaitable[Response]]]

#: built-in debug endpoint exposing counters, tracer state, and metrics
STATS_PATH = "/__repro/stats"

#: Prometheus text-format exposition of the metrics registry
METRICS_PATH = "/__repro/metrics"

#: what both ops paths contain, so other requests skip the URL split
_OPS_PREFIX = "/__repro/"

#: how long a connection shed at the cap may send before it is closed:
#: closing with unread data makes the kernel reset the connection,
#: discarding the buffered 503
_SHED_LINGER_S = 0.25


class _Connection(asyncio.Protocol):
    """One connection: parses, answers and times its requests."""

    __slots__ = ("server", "loop", "transport", "parser", "served",
                 "timer", "deadline", "committed", "waiter", "paused",
                 "eof", "closing")

    def __init__(self, server: "AsyncHttpServer"):
        self.server = server
        self.loop = server._loop
        self.transport: Optional[asyncio.Transport] = None
        self.parser = RequestParser()
        #: responses written on this connection (pipelining guard)
        self.served = 0
        #: the one read-deadline timer; it may fire before ``deadline``
        #: (which only moves later while it runs) and then re-arms
        self.timer: Optional[asyncio.TimerHandle] = None
        #: loop time the read deadline expires at; None while a request
        #: is being answered
        self.deadline: Optional[float] = None
        #: True once a request's first byte is in: the deadline is the
        #: header-read one and its expiry a 408
        self.committed = False
        #: the Task or TimerHandle finishing a dispatched request
        self.waiter: Union[asyncio.Task, asyncio.TimerHandle, None] = None
        #: the send buffer is past its high-water mark
        self.paused = False
        #: the peer has sent EOF
        self.eof = False
        #: no request will be read any more
        self.closing = False

    @property
    def busy(self) -> bool:
        """A dispatched request or an undrained response is in flight —
        the window the drain phase must respect.  A connection still
        reading a head has nothing in flight, so a drain reclaims it at
        once, like an idle one."""
        return self.waiter is not None or self.paused

    # -- transport callbacks -------------------------------------------------
    def connection_made(self, transport: asyncio.Transport) -> None:
        self.transport = transport
        server = self.server
        if server.draining or (
                server.max_connections is not None
                and len(server._conns) >= server.max_connections):
            # Connection-level admission: refuse before reading a
            # request, so a connection storm cannot exhaust memory.
            self.closing = True
            server._refused.add(self)
            server.shed_connections += 1
            server._counter_inc("http.shed_connections")
            transport.write(serialize_response(
                server._shed_response(close=True)))
            transport.write_eof()
            # what the peer sends meanwhile is read and dropped
            self.timer = self.loop.call_later(_SHED_LINGER_S,
                                              transport.close)
            return
        server._conns.add(self)
        server._gauge_set("http.connections", len(server._conns))
        self._set_deadline(self.loop.time() + server.keepalive_timeout_s)

    def data_received(self, data: bytes) -> None:
        if self.closing:
            return
        self.parser.feed(data)
        if self.waiter is None and not self.paused:
            self._serve()
        elif self.parser.buffered >= MAX_HEADER_BLOCK:
            # a peer pipelining behind a request still being answered
            # may buffer about one head's worth
            self.transport.pause_reading()

    def eof_received(self) -> bool:
        if self.closing:
            return False
        self.eof = True
        if self.waiter is None and not self.paused:
            self._serve()
        return True  # a response may still be due; _serve closes

    def pause_writing(self) -> None:
        self.paused = True
        self.deadline = None
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self.paused = False
        if not self.closing and self.waiter is None:
            self.transport.resume_reading()
            self._serve()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.closing = True
        if self.timer is not None:
            self.timer.cancel()
            self.timer = None
        waiter = self.waiter
        if waiter is not None:  # the response has no one to go to
            self.waiter = None
            waiter.cancel()
            self.server._release()
        self.server._lost(self)

    # -- the request path ----------------------------------------------------
    def _serve(self) -> None:
        """Answer the buffered requests in order until one must wait,
        then arm the read deadline for the bytes still due."""
        parser = self.parser
        while not self.paused:
            try:
                request = parser.next_request()
            except ProtocolError as exc:
                self._reply_and_close(400, str(exc).encode())
                return
            if request is None:
                self._await_bytes()
                return
            self.committed = False
            if not self._dispatch(request):
                return

    def _await_bytes(self) -> None:
        server = self.server
        if self.eof:
            try:
                self.parser.feed_eof()
            except ProtocolError as exc:  # a head cut by EOF
                self._reply_and_close(400, str(exc).encode())
                return
            except ConnectionClosed:  # a body cut by EOF
                pass
            self.close()
        elif self.parser.pending:
            # A request has begun, so the rest of it must follow
            # promptly.  A stall here, request line included, is a
            # slow-loris holding a server slot open: 408 at the deadline.
            if not self.committed:
                self.committed = True
                self._set_deadline(
                    self.loop.time() + server.header_read_timeout_s)
        else:
            # Idle: a keep-alive connection going quiet is normal.
            self._set_deadline(self.loop.time() + server.keepalive_timeout_s)

    def _dispatch(self, request: Request) -> bool:
        """Answer ``request`` now or start finishing it; True when the
        connection may go on to the next request at once."""
        server = self.server
        ops_path = request.path if request.method == "GET" \
            and _OPS_PREFIX in request.url else ""
        if ops_path == STATS_PATH:
            # The ops endpoints answer even under overload —
            # an unobservable saturated server cannot be debugged.
            return self._respond(request, server._serve_stats(request))
        if ops_path == METRICS_PATH:
            return self._respond(request, server._serve_metrics())
        if server.max_inflight is not None \
                and server.inflight >= server.max_inflight:
            # Request-level load shedding at the high-water mark:
            # a bounded, fast 503 beats an unbounded queue.
            server.shed_503 += 1
            server._counter_inc("http.shed_503")
            return self._respond(request, server._shed_response(close=False),
                                 shed=True)
        server.inflight += 1
        server._gauge_set("http.inflight", server.inflight)
        result = server._call_handler(request)
        if isinstance(result, Response):
            if server.latency_s <= 0:
                server._release()
                return self._respond(request, result)
            # injected service time occupies an inflight slot — it is
            # the request being worked on, so it counts against the cap
            self.waiter = self.loop.call_later(
                server.latency_s, self._finish, request, result)
        else:
            self.waiter = self.loop.create_task(
                self._finish_later(request, result))
        self.deadline = None
        return False

    async def _finish_later(self, request: Request,
                            pending: Awaitable[Response]) -> None:
        response = await pending
        if self.server.latency_s > 0:
            await asyncio.sleep(self.server.latency_s)
        self._finish(request, response)

    def _finish(self, request: Request, response: Response) -> None:
        self.waiter = None
        self.server._release()
        if self._respond(request, response) and not self.paused:
            self.transport.resume_reading()
            self._serve()

    def _respond(self, request: Request, response: Response,
                 shed: bool = False) -> bool:
        """Write one response; True when the connection stays open."""
        server = self.server
        self.served += 1
        handler_closes = not keeps_alive(response)
        keep_alive = (keeps_alive(request)
                      and not handler_closes
                      and not server.draining
                      and (server.max_requests_per_connection is None
                           or self.served
                           < server.max_requests_per_connection))
        if not keep_alive and not handler_closes:
            response.headers.set("Connection", "close")
        head, body = serialize_response_parts(response)
        self.transport.write(head)
        if body:
            self.transport.write(body)
        if not shed:
            server.requests_served += 1
        if not keep_alive:
            self.close()
            return False
        return not self.transport.is_closing()  # a failed send closes it

    # -- deadline and teardown -----------------------------------------------
    def _set_deadline(self, when: float) -> None:
        self.deadline = when
        timer = self.timer
        if timer is None or when < timer.when():
            if timer is not None:
                timer.cancel()
            self.timer = self.loop.call_at(when, self._deadline_reached)

    def _deadline_reached(self) -> None:
        when = self.timer.when()
        self.timer = None
        deadline = self.deadline
        if deadline is None or self.closing:
            return
        if deadline > when:  # moved on since the timer was armed
            self.timer = self.loop.call_at(deadline, self._deadline_reached)
            return
        if self.committed:
            server = self.server
            server.timeouts_408 += 1
            server._counter_inc("http.timeouts_408")
            self._reply_and_close(408, b"request timed out")
        else:
            self.close()

    def _reply_and_close(self, status: int, body: bytes) -> None:
        self.transport.write(serialize_response(Response(
            status=status, body=body, headers={"Connection": "close"})))
        self.close()

    def close(self) -> None:
        """Read no more; close once the written responses are sent."""
        self.closing = True
        self.transport.close()


class AsyncHttpServer:
    """A minimal but correct HTTP/1.1 origin server.

    Usage::

        server = AsyncHttpServer(handler)
        await server.start()          # binds 127.0.0.1 on a free port
        ... use server.port ...
        await server.stop()           # or stop(drain_s=5.0) to drain

    Also usable as an async context manager.  Admission caps
    (``max_connections``, ``max_inflight``,
    ``max_requests_per_connection``) default to ``None`` — unlimited,
    the pre-hardening behaviour.
    """

    def __init__(self, handler: Handler, host: str = "127.0.0.1",
                 port: int = 0, latency_s: float = 0.0,
                 keepalive_timeout_s: float = 15.0,
                 header_read_timeout_s: float = 5.0,
                 max_connections: Optional[int] = None,
                 max_inflight: Optional[int] = None,
                 max_requests_per_connection: Optional[int] = None,
                 retry_after_s: float = 1.0,
                 shed_seed: int = 0,
                 backlog: int = 100,
                 tracer=None, metrics=None, stats_source=None):
        self.handler = handler
        self.host = host
        self.port = port
        self.latency_s = latency_s
        self.keepalive_timeout_s = keepalive_timeout_s
        #: deadline for the rest of the message once its first byte has
        #: arrived; a peer that trickles a head slower than this is a
        #: slow-loris and gets a 408 instead of a held connection
        self.header_read_timeout_s = header_read_timeout_s
        #: concurrent-connection cap; excess connections are shed with
        #: ``503 + Retry-After`` and closed before any request is read
        self.max_connections = max_connections
        #: concurrently dispatched requests past which further requests
        #: are shed ``503 + Retry-After`` (the inflight high-water mark)
        self.max_inflight = max_inflight
        #: keep-alive responses per connection before a forced
        #: ``Connection: close`` (pipelining guard); ``None`` = unlimited
        self.max_requests_per_connection = max_requests_per_connection
        #: base Retry-After hint; actual hints span [base, 2*base),
        #: jittered deterministically from ``shed_seed`` per shed ordinal
        self.retry_after_s = retry_after_s
        self.shed_seed = shed_seed
        #: listen(2) backlog — the bounded accept queue
        self.backlog = backlog
        #: wall-clock request spans (category "http")
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: a :class:`repro.obs.MetricsRegistry`; surfaced by the stats
        #: endpoint when provided
        self.metrics = metrics
        #: zero-arg callable returning extra stats (e.g. the wrapped
        #: application server's ``stats()``) merged into the endpoint
        self.stats_source = stats_source
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.base_events.Server] = None
        #: admitted connections
        self._conns: set[_Connection] = set()
        #: connections shed at the cap and not closed yet
        self._refused: set[_Connection] = set()
        #: resolved when the last connection closes during :meth:`stop`
        self._all_closed: Optional[asyncio.Future] = None
        #: requests answered by the handler or stats endpoint (sheds and
        #: 408s are counted separately, so shed + served sums to offered)
        self.requests_served = 0
        #: connections closed with 408 for stalling mid-message
        self.timeouts_408 = 0
        #: requests shed 503 at the inflight high-water mark
        self.shed_503 = 0
        #: connections shed 503 at the connection cap
        self.shed_connections = 0
        #: currently dispatched requests (the gauge the cap watches)
        self.inflight = 0
        #: True from stop() until the next start(); new work is refused
        self.draining = False
        #: wall seconds the last stop() took (0.0 before any stop)
        self.last_drain_s = 0.0

    async def start(self, sock: Optional[socket_module.socket] = None
                    ) -> "AsyncHttpServer":
        """Bind and serve.  ``sock`` overrides host/port with an already
        bound socket (how the SO_REUSEPORT fleet shares one port)."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self.draining = False
        self._loop = asyncio.get_running_loop()
        factory = functools.partial(_Connection, self)
        if sock is not None:
            self._server = await self._loop.create_server(
                factory, sock=sock, backlog=self.backlog)
        else:
            self._server = await self._loop.create_server(
                factory, self.host, self.port, backlog=self.backlog)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def stop(self, drain_s: float = 0.0) -> dict:
        """Stop accepting and tear down, gracefully when ``drain_s > 0``.

        Sequence: close the listener; close every connection without a
        dispatched request (idle, or still reading a head) immediately;
        give busy connections up to ``drain_s`` seconds to write their
        in-flight response (which carries ``Connection: close``); abort
        whatever remains, cancelling its handler; wait until every
        connection is closed and every handler Task has finished.
        Returns a report dict — ``{"connections", "hard_cancelled",
        "drain_s"}`` — and leaves nothing running behind.
        """
        if self._server is None:
            return {"connections": 0, "hard_cancelled": 0, "drain_s": 0.0}
        started = time.perf_counter()
        self.draining = True
        self._server.close()
        conns = list(self._conns)
        # Idle and head-reading connections wait on a request that must
        # never be answered now — reclaim them without ceremony.
        for conn in conns:
            if not conn.busy:
                conn.close()
        for conn in list(self._refused):
            conn.transport.abort()
        self._all_closed = self._loop.create_future()
        if drain_s > 0 and self._conns:
            await asyncio.wait({self._all_closed}, timeout=drain_s)
        remaining = list(self._conns)
        hard_cancelled = sum(conn.busy for conn in remaining)
        tasks = [conn.waiter for conn in remaining
                 if isinstance(conn.waiter, asyncio.Task)]
        for conn in remaining:
            conn.transport.abort()  # connection_lost cancels the waiter
        if self._conns or self._refused:
            await self._all_closed
        self._all_closed = None
        await asyncio.gather(*tasks, return_exceptions=True)
        # Only now: on Python >= 3.12 wait_closed() also waits for the
        # server's transports, so it must come after they are closed.
        await self._server.wait_closed()
        self._server = None
        self.last_drain_s = time.perf_counter() - started
        self._gauge_set("http.drain_s", self.last_drain_s)
        return {"connections": len(conns),
                "hard_cancelled": hard_cancelled,
                "drain_s": self.last_drain_s}

    async def __aenter__(self) -> "AsyncHttpServer":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def connections(self) -> int:
        """Live connections (admitted, not yet torn down)."""
        return len(self._conns)

    # -- connection book-keeping ---------------------------------------------
    def _lost(self, conn: _Connection) -> None:
        if conn in self._conns:
            self._conns.discard(conn)
            self._gauge_set("http.connections", len(self._conns))
        else:
            self._refused.discard(conn)
        waiter = self._all_closed
        if waiter is not None and not (self._conns or self._refused) \
                and not waiter.done():
            waiter.set_result(None)

    def _release(self) -> None:
        """A dispatched request gives its inflight slot back."""
        self.inflight -= 1
        self._gauge_set("http.inflight", self.inflight)

    def _shed_response(self, close: bool) -> Response:
        headers = Headers({"Retry-After": str(self._retry_after_hint()),
                           "Cache-Control": "no-store"})
        if close:
            headers.set("Connection", "close")
        return Response(status=503, body=b"overloaded; retry later",
                        headers=headers)

    def _retry_after_hint(self) -> int:
        """Whole seconds in [retry_after_s, 2*retry_after_s), jittered
        deterministically per shed ordinal so herd retries de-sync but
        runs stay reproducible."""
        ordinal = self.shed_503 + self.shed_connections
        draw = deterministic_draw(self.shed_seed, "retry-after", ordinal)
        return max(1, round(self.retry_after_s * (1.0 + draw)))

    # -- metrics glue --------------------------------------------------------
    def _counter_inc(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc()

    def _gauge_set(self, name: str, value: float) -> None:
        if self.metrics is not None:
            self.metrics.gauge(name).set(value)

    # -- the handler ---------------------------------------------------------
    def _call_handler(self, request: Request
                      ) -> Union[Response, Awaitable[Response]]:
        """The handler's response, or for an asynchronous handler an
        awaitable of it; a handler that fails is answered 500."""
        tracer = self.tracer
        rspan = None
        if tracer.enabled:
            args = {"method": request.method, "path": request.path}
            remote_parent = None
            context = extract_context(request.headers)
            if context is not None:
                # Parent this span under the client's request span in
                # its process: the merged fleet export draws the edge.
                remote_parent = context.parent_ref
                args["remote_trace_id"] = context.trace_id
                if context.attempt is not None:
                    args["client_attempt"] = context.attempt
            rspan = tracer.begin("server.request", "http", args=args,
                                 remote_parent=remote_parent)
        started = time.perf_counter() if self.metrics is not None else 0.0
        try:
            result = self.handler(request)
        except Exception as exc:
            return self._handler_failed(request, exc, rspan, started)
        if not isinstance(result, Response) and inspect.isawaitable(result):
            return self._awaited(request, result, rspan, started)
        return self._handler_done(result, rspan, started)

    async def _awaited(self, request: Request, result: Awaitable,
                       rspan, started: float) -> Response:
        try:
            result = await result
        except Exception as exc:
            return self._handler_failed(request, exc, rspan, started)
        return self._handler_done(result, rspan, started)

    def _handler_failed(self, request: Request, exc: Exception, rspan,
                        started: float) -> Response:
        logger.error("handler-raised", method=request.method,
                     url=request.url, error=type(exc).__name__)
        if rspan is not None:
            rspan.set("error", type(exc).__name__).end()
        result = Response(status=500, body=b"internal server error")
        self._observe(self.metrics, started, result.status)
        return result

    def _handler_done(self, result, rspan, started: float) -> Response:
        if not isinstance(result, Response):
            logger.error("bad-handler-result", got=type(result).__name__)
            if rspan is not None:
                rspan.set("error", "bad-handler-result").end()
            result = Response(status=500, body=b"bad handler result")
            self._observe(self.metrics, started, result.status)
            return result
        if rspan is not None:
            rspan.set("status", result.status)
            cache_status = result.headers.get("Cache-Status")
            if cache_status is not None:
                # surface the origin's cache verdict (hit/miss/which
                # hot-path cache) on the span, the way "Hidden Web
                # Caches Discovery" has to infer it from the outside
                rspan.set("cache_status", cache_status)
            rspan.end()
        self._observe(self.metrics, started, result.status)
        return result

    @staticmethod
    def _observe(metrics, started: float, status: int) -> None:
        """Time one dispatch into the registry (no-op without one)."""
        if metrics is None:
            return
        elapsed_ms = (time.perf_counter() - started) * 1e3
        metrics.histogram("http.request_ms").observe(elapsed_ms)
        metrics.counter("http.requests").inc()
        metrics.counter(f"http.status.{status // 100}xx").inc()

    def admission_stats(self) -> dict:
        """The admission/shedding state in one plain dict."""
        return {
            "inflight": self.inflight,
            "connections": len(self._conns),
            "max_inflight": self.max_inflight,
            "max_connections": self.max_connections,
            "max_requests_per_connection":
                self.max_requests_per_connection,
            "shed_503": self.shed_503,
            "shed_connections": self.shed_connections,
            "timeouts_408": self.timeouts_408,
            "draining": self.draining,
        }

    def _serve_stats(self, request: Optional[Request] = None) -> Response:
        """``GET /__repro/stats``: one JSON snapshot of everything known.

        Always available (the counters cost nothing); tracer and metrics
        sections appear only as informative as what was wired in.  When
        a registry is wired, every histogram snapshot carries
        p50/p90/p99 (sketch-backed once past the raw-sample cap), so
        the endpoint reports distributions, not just counts.  With
        ``?dump=1`` the payload adds ``metrics_dump`` — the mergeable
        registry wire format for fleet aggregation.
        """
        payload: dict = {
            "requests_served": self.requests_served,
            "timeouts_408": self.timeouts_408,
            "admission": self.admission_stats(),
            "tracer": self.tracer.summary(),
        }
        if self.metrics is not None:
            payload["metrics"] = self.metrics.snapshot()
            if request is not None and "dump=1" in request.query:
                payload["metrics_dump"] = self.metrics.dump()
        if self.stats_source is not None:
            try:
                payload["app"] = self.stats_source()
            except Exception as exc:
                payload["app_error"] = type(exc).__name__
        body = json.dumps(payload, sort_keys=True).encode()
        return Response(status=200, body=body, headers=Headers({
            "Content-Type": "application/json",
            "Cache-Control": "no-store"}))

    def _serve_metrics(self) -> Response:
        """``GET /__repro/metrics``: Prometheus text exposition.

        Serves whatever registry is wired in (empty exposition without
        one — a scraper sees a healthy target with no series, not an
        error).  Answered ahead of load shedding, like the stats
        endpoint: the scrape must survive the overload it is measuring.
        """
        text = to_prometheus_text(self.metrics) \
            if self.metrics is not None else ""
        return Response(status=200, body=text.encode(),
                        headers=Headers({
                            "Content-Type": PROM_CONTENT_TYPE,
                            "Cache-Control": "no-store"}))
