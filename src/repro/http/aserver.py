"""Real asyncio HTTP/1.1 server with overload protection.

Serves the same handler objects the discrete-event stack uses
(``handler(request) -> Response``, sync or async), over actual TCP sockets
with keep-alive.  Used by the integration tests and the runnable examples
to demonstrate the system end-to-end outside the simulator.

An optional ``latency_s`` injects a one-way artificial delay before each
response, emulating a distant origin on localhost.

Beyond the basic request loop, the server is *overload-safe*:

read deadlines
    Each connection arms one ``TimerHandle`` while it reads a request:
    ``keepalive_timeout_s`` while idle (expiry closes the connection
    silently) and, from the first byte of a request,
    ``header_read_timeout_s`` (expiry answers ``408`` with ``Connection:
    close``; a request line trickled slower than that is a slow-loris
    too).  Expiry cancels the connection task, and a flag on the
    connection tells that cancel apart from :meth:`stop`'s.  A
    keep-alive request starts no Task: the request path awaits the
    stream directly and reads the head in one buffered call
    (:mod:`repro.http.wire`), so both ends open their streams with a
    ``limit`` that admits a whole head.

admission control
    ``max_connections`` caps concurrent connections (excess connections
    are answered ``503`` and closed before entering the serve loop), and
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
    carry ``Connection: close``), and stragglers are hard-cancelled at
    the deadline.  ``stop`` returns only once every connection task has
    completed — no lingering tasks survive it.

The debug endpoint ``GET /__repro/stats`` is answered ahead of
admission-level request shedding (an overloaded server must still be
observable); it reports the admission gauges and shed counters alongside
the tracer/metrics snapshots, and ``?dump=1`` adds the mergeable
:meth:`~repro.obs.metrics.MetricsRegistry.dump` wire format so a scraper
can fold many shards into one fleet view.
"""

from __future__ import annotations

import asyncio
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
from .errors import HttpError, ProtocolError
from .headers import Headers
from .messages import Request, Response, keeps_alive
from .wire import (MAX_HEADER_BLOCK, read_request_start,
                   read_request_tail, serialize_response)

__all__ = ["AsyncHttpServer", "Handler", "STATS_PATH", "METRICS_PATH"]

logger = get_logger("http.aserver")

Handler = Callable[[Request], Union[Response, Awaitable[Response]]]

#: built-in debug endpoint exposing counters, tracer state, and metrics
STATS_PATH = "/__repro/stats"

#: Prometheus text-format exposition of the metrics registry
METRICS_PATH = "/__repro/metrics"


class _Connection:
    """Book-keeping for one live connection task (drain needs it)."""

    __slots__ = ("task", "writer", "busy", "served", "timer", "expired")

    def __init__(self, task: asyncio.Task, writer: asyncio.StreamWriter):
        self.task = task
        self.writer = writer
        #: True from "request head read" to "response written" — the
        #: window the drain phase must respect.  A connection still
        #: reading a head has no response in flight, so a drain
        #: reclaims it at once, like an idle one.
        self.busy = False
        #: responses written on this connection (pipelining guard)
        self.served = 0
        #: the connection's one read deadline, armed while it reads a
        #: request (None otherwise)
        self.timer: Optional[asyncio.TimerHandle] = None
        #: set when ``timer`` fired: the task's cancellation is a read
        #: deadline, not :meth:`AsyncHttpServer.stop`
        self.expired = False

    def arm(self, delay_s: float) -> None:
        """Restart the read deadline ``delay_s`` seconds from now."""
        if self.timer is not None:
            self.timer.cancel()
        self.timer = self.task.get_loop().call_later(delay_s, self._expire)

    def disarm(self) -> None:
        if self.timer is not None:
            self.timer.cancel()
            self.timer = None

    def _expire(self) -> None:
        self.timer = None
        self.expired = True
        self.task.cancel()


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
        #: ``503 + Retry-After`` and closed without entering the loop
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
        self._server: Optional[asyncio.base_events.Server] = None
        self._conns: set[_Connection] = set()
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
        if sock is not None:
            sock.listen(self.backlog)
            self._server = await asyncio.start_server(
                self._serve_connection, sock=sock, limit=MAX_HEADER_BLOCK)
        else:
            self._server = await asyncio.start_server(
                self._serve_connection, self.host, self.port,
                backlog=self.backlog, limit=MAX_HEADER_BLOCK)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def stop(self, drain_s: float = 0.0) -> dict:
        """Stop accepting and tear down, gracefully when ``drain_s > 0``.

        Sequence: close the listener; reclaim every connection without a
        dispatched request (idle, or still reading a head) immediately;
        give busy connections up to ``drain_s`` seconds to write their
        in-flight response (which carries ``Connection: close``);
        hard-cancel whatever remains; await every connection task.
        Returns a report dict — ``{"connections", "hard_cancelled",
        "drain_s"}`` — and leaves zero lingering tasks behind.
        """
        if self._server is None:
            return {"connections": 0, "hard_cancelled": 0, "drain_s": 0.0}
        started = time.perf_counter()
        self.draining = True
        self._server.close()
        # Idle and head-reading connections wait on a request that must
        # never be answered now — reclaim them without ceremony.
        for conn in list(self._conns):
            if not conn.busy:
                conn.task.cancel()
        tasks = {conn.task for conn in self._conns}
        hard_cancelled = 0
        if tasks:
            if drain_s > 0:
                _done, pending = await asyncio.wait(tasks, timeout=drain_s)
            else:
                pending = {task for task in tasks if not task.done()}
            hard_cancelled = sum(1 for conn in self._conns
                                 if conn.busy and conn.task in pending)
            for task in pending:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
        # Only now: on Python >= 3.12 wait_closed() also waits for
        # connection handlers, so it must come after they are dealt with.
        await self._server.wait_closed()
        self._server = None
        self.last_drain_s = time.perf_counter() - started
        self._gauge_set("http.drain_s", self.last_drain_s)
        return {"connections": len(tasks),
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

    # -- connection loop -----------------------------------------------------
    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        conn = _Connection(asyncio.current_task(), writer)
        if self.draining or (
                self.max_connections is not None
                and len(self._conns) >= self.max_connections):
            # Connection-level admission: refuse before the serve loop,
            # so a connection storm cannot exhaust tasks or memory.
            self.shed_connections += 1
            self._counter_inc("http.shed_connections")
            try:
                await self._write(writer, self._shed_response(close=True))
                # Drain whatever request bytes the peer already sent:
                # closing with unread data makes the kernel RST the
                # connection, discarding our buffered 503.
                writer.write_eof()
                await asyncio.wait_for(reader.read(65536), timeout=0.25)
            except (ConnectionResetError, BrokenPipeError, OSError,
                    asyncio.TimeoutError):
                pass
            finally:
                await self._close_writer(writer)
            return
        self._conns.add(conn)
        self._gauge_set("http.connections", len(self._conns))
        try:
            await self._connection_loop(conn, reader, writer)
        except (ConnectionResetError, BrokenPipeError, HttpError):
            return
        except asyncio.CancelledError:
            # loop teardown or drain while parked on keep-alive: close
            # quietly (returning, not re-raising, keeps task.exception()
            # clean)
            return
        finally:
            conn.disarm()
            self._conns.discard(conn)
            self._gauge_set("http.connections", len(self._conns))
            await self._close_writer(writer)

    async def _connection_loop(self, conn: _Connection,
                               reader: asyncio.StreamReader,
                               writer: asyncio.StreamWriter) -> None:
        while True:
            # Idle phase: waiting for the first byte of a request.  A
            # keep-alive connection going quiet is normal; close silently.
            conn.arm(self.keepalive_timeout_s)
            committed = False
            try:
                start = await read_request_start(reader)
                if start is None:  # clean EOF
                    return
                # Committed phase: a request has begun, so the rest of
                # its head must follow promptly.  A stall here, request
                # line included, is a slow-loris holding a server slot
                # open: answer 408 and reclaim the connection.
                committed = True
                conn.arm(self.header_read_timeout_s)
                request = await read_request_tail(reader, start)
            except asyncio.CancelledError:
                if not conn.expired:
                    raise  # stop() is tearing the connection down
                if committed:
                    self.timeouts_408 += 1
                    self._counter_inc("http.timeouts_408")
                    await self._write(writer, Response(
                        status=408, body=b"request timed out",
                        headers={"Connection": "close"}))
                return
            except ProtocolError as exc:
                conn.disarm()
                await self._write(writer, Response(
                    status=400, body=str(exc).encode(),
                    headers={"Connection": "close"}))
                return
            conn.disarm()
            conn.busy = True
            shed = False
            ops_path = request.path if request.method == "GET" else ""
            if ops_path == STATS_PATH:
                # The ops endpoints answer even under overload —
                # an unobservable saturated server cannot be debugged.
                response = self._serve_stats(request)
            elif ops_path == METRICS_PATH:
                response = self._serve_metrics()
            elif self.max_inflight is not None \
                    and self.inflight >= self.max_inflight:
                # Request-level load shedding at the high-water mark:
                # a bounded, fast 503 beats an unbounded queue.
                shed = True
                self.shed_503 += 1
                self._counter_inc("http.shed_503")
                response = self._shed_response(close=False)
            else:
                self.inflight += 1
                self._gauge_set("http.inflight", self.inflight)
                try:
                    response = await self._dispatch(request)
                    if self.latency_s > 0:
                        # injected service time occupies an inflight
                        # slot — it is the request being worked on, so
                        # it must count against the admission ceiling
                        await asyncio.sleep(self.latency_s)
                finally:
                    self.inflight -= 1
                    self._gauge_set("http.inflight", self.inflight)
            conn.served += 1
            handler_closes = not keeps_alive(response)
            keep_alive = (keeps_alive(request)
                          and not handler_closes
                          and not self.draining
                          and (self.max_requests_per_connection is None
                               or conn.served
                               < self.max_requests_per_connection))
            if not keep_alive and not handler_closes:
                response.headers.set("Connection", "close")
            await self._write(writer, response)
            if not shed:
                self.requests_served += 1
            conn.busy = False
            if not keep_alive:
                return

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

    async def _dispatch(self, request: Request) -> Response:
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
        metrics = self.metrics
        started = time.perf_counter() if metrics is not None else 0.0
        try:
            result = self.handler(request)
            if inspect.isawaitable(result):
                result = await result
        except Exception as exc:
            logger.error("handler-raised", method=request.method,
                         url=request.url, error=type(exc).__name__)
            if rspan is not None:
                rspan.set("error", type(exc).__name__).end()
            result = Response(status=500, body=b"internal server error")
            self._observe(metrics, started, result.status)
            return result
        if not isinstance(result, Response):
            logger.error("bad-handler-result", got=type(result).__name__)
            if rspan is not None:
                rspan.set("error", "bad-handler-result").end()
            result = Response(status=500, body=b"bad handler result")
            self._observe(metrics, started, result.status)
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
        self._observe(metrics, started, result.status)
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

    @staticmethod
    async def _write(writer: asyncio.StreamWriter,
                     response: Response) -> None:
        writer.write(serialize_response(response))
        await writer.drain()

    @staticmethod
    async def _close_writer(writer: asyncio.StreamWriter) -> None:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError,
                asyncio.CancelledError):
            pass
