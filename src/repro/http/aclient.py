"""Real asyncio HTTP/1.1 client with per-origin connection pooling.

Mirrors what a browser's network stack gives a page: persistent
connections, a per-origin concurrency cap, and timing for each exchange —
enough to measure request latency in the real-socket integration path.

Two overload-symmetry features pair with the server's admission control
(:mod:`repro.http.aserver`):

``Retry-After`` honouring
    A ``503``/``408`` response carrying a parseable ``Retry-After``
    header is the server *telling* the client when to come back; the
    client sleeps exactly that hint (capped) and retries, ahead of the
    generic capped-exponential backoff schedule.  Without the header
    the response is an answer and is returned as-is.

per-origin circuit breaker
    Consecutive failures (transport errors, shed ``503``s, ``408``s)
    trip a :class:`CircuitBreaker` from *closed* to *open*: further
    requests to that origin raise :class:`~repro.http.errors.CircuitOpen`
    without touching the wire, so a retry storm cannot amplify an
    overload.  After a deterministic, seeded-jitter open interval one
    probe is allowed through (*half-open*); success closes the breaker,
    failure re-opens it.
"""

from __future__ import annotations

import asyncio
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Optional
from urllib.parse import urlsplit

from ..netsim.faults import backoff_delay, deterministic_draw
from ..obs.trace import NULL_TRACER
from ..obs.tracecontext import (TRACEPARENT_HEADER, TRACESTATE_HEADER,
                                format_traceparent, format_tracestate)
from .errors import (CircuitOpen, ConnectionClosed, HttpError,
                     RequestTimeout)
from .headers import Headers
from .messages import Request, Response, keeps_alive
from .wire import MAX_HEADER_BLOCK, read_response, serialize_request

__all__ = ["AsyncHttpClient", "CircuitBreaker", "FetchTiming",
           "FetchResult"]

#: browsers open at most this many parallel connections per origin
DEFAULT_CONNECTIONS_PER_ORIGIN = 6

#: failures worth a fresh attempt: silence (timeout) or a broken pipe.
#: HTTP error *responses* are never retried here — they are answers —
#: except 503/408 bearing an explicit Retry-After hint (see above).
_RETRYABLE = (RequestTimeout, ConnectionClosed, ConnectionResetError,
              BrokenPipeError)

#: statuses that count as overload signals for the breaker and that may
#: carry an honourable Retry-After hint
_OVERLOAD_STATUSES = (503, 408)


class CircuitBreaker:
    """Per-origin three-state breaker: closed -> open -> half-open.

    ``threshold`` consecutive failures trip it open; :meth:`allow` then
    refuses until ``open_s`` (jittered deterministically from ``seed``
    and the trip ordinal, span [1x, 2x)) has elapsed on ``clock``, at
    which point exactly one probe passes (half-open).  The probe's
    success closes the breaker; its failure re-opens it with a fresh
    jitter draw.  Everything is deterministic given (seed, key, trip
    ordinal), so retry-storm experiments replay exactly.
    """

    __slots__ = ("threshold", "open_s", "seed", "key", "clock",
                 "state", "failures", "opens", "_opened_at", "_open_for")

    def __init__(self, threshold: int = 5, open_s: float = 1.0,
                 seed: int = 0, key: str = "",
                 clock: Callable[[], float] = time.monotonic):
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        self.threshold = threshold
        self.open_s = open_s
        self.seed = seed
        self.key = key
        self.clock = clock
        self.state = "closed"
        #: consecutive failures since the last success
        self.failures = 0
        #: times the breaker tripped open (jitter ordinal)
        self.opens = 0
        self._opened_at = 0.0
        self._open_for = 0.0

    def allow(self) -> bool:
        """May a request go to the wire right now?"""
        if self.state == "closed":
            return True
        if self.state == "open":
            if self.clock() - self._opened_at >= self._open_for:
                self.state = "half_open"  # this caller is the probe
                return True
            return False
        return False  # half_open: the single probe is already out

    def record_success(self) -> None:
        self.state = "closed"
        self.failures = 0

    def record_failure(self) -> None:
        self.failures += 1
        if self.state == "half_open" or self.failures >= self.threshold:
            self._trip()

    def _trip(self) -> None:
        self.state = "open"
        self.opens += 1
        self._opened_at = self.clock()
        self._open_for = self.open_s * (
            1.0 + deterministic_draw(self.seed, "breaker", self.key,
                                     self.opens))


class _Deadline:
    """``with _Deadline(timeout_s, what):`` raises
    :class:`~repro.http.errors.RequestTimeout` when the block runs past
    ``timeout_s``.

    One ``TimerHandle`` cancels the running task; a flag tells that
    cancel apart from any other, and on Python 3.11+ it is uncancelled,
    so an enclosing ``TaskGroup`` or ``asyncio.timeout`` is not
    confused.  ``asyncio.wait_for`` would start a Task per call on
    Python 3.10 and 3.11.
    """

    __slots__ = ("timeout_s", "what", "task", "timer", "expired")

    def __init__(self, timeout_s: float, what: str):
        self.timeout_s = timeout_s
        self.what = what
        self.task: Optional[asyncio.Task] = None
        self.timer: Optional[asyncio.TimerHandle] = None
        self.expired = False

    def __enter__(self) -> "_Deadline":
        self.task = asyncio.current_task()
        self.timer = self.task.get_loop().call_later(self.timeout_s,
                                                     self._expire)
        return self

    def _expire(self) -> None:
        self.expired = True
        self.task.cancel()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.timer.cancel()
        if exc_type is not asyncio.CancelledError or not self.expired:
            return
        if sys.version_info >= (3, 11) and self.task.uncancel():
            return  # cancelled from outside as well: let that through
        raise RequestTimeout(self.what) from None


@dataclass(frozen=True)
class FetchTiming:
    """Wall-clock timing of one exchange (seconds)."""

    start: float
    connect_done: float
    response_done: float
    reused_connection: bool

    @property
    def total_s(self) -> float:
        return self.response_done - self.start

    @property
    def connect_s(self) -> float:
        return self.connect_done - self.start


@dataclass
class FetchResult:
    response: Response
    timing: FetchTiming
    #: wire attempts this fetch took (1 = no retries)
    attempts: int = 1


@dataclass
class _PooledConnection:
    reader: asyncio.StreamReader
    writer: asyncio.StreamWriter
    created_at: float = field(default_factory=time.monotonic)

    def close(self) -> None:
        self.writer.close()


class AsyncHttpClient:
    """Pooled HTTP client.

    Usage::

        async with AsyncHttpClient() as client:
            result = await client.get("http://127.0.0.1:8080/index.html")
    """

    def __init__(self,
                 connections_per_origin: int = DEFAULT_CONNECTIONS_PER_ORIGIN,
                 timeout_s: float = 30.0,
                 max_retries: int = 2,
                 backoff_base_s: float = 0.05,
                 backoff_cap_s: float = 2.0,
                 retry_seed: int = 0,
                 honor_retry_after: bool = True,
                 retry_after_cap_s: float = 30.0,
                 breaker_threshold: Optional[int] = 5,
                 breaker_open_s: float = 1.0,
                 breaker_clock: Callable[[], float] = time.monotonic,
                 tracer=None):
        self.timeout_s = timeout_s
        #: spans land on the wall clock ("http" category)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.connections_per_origin = connections_per_origin
        #: extra attempts after the first fails (timeouts, broken pipes);
        #: the free same-request retry on a stale *pooled* connection
        #: does not consume this budget
        self.max_retries = max_retries
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        #: seeds the deterministic backoff and breaker jitter
        #: (reproducible timings)
        self.retry_seed = retry_seed
        #: sleep a shed response's Retry-After hint (capped) and retry,
        #: instead of returning the 503/408 straight away
        self.honor_retry_after = honor_retry_after
        self.retry_after_cap_s = retry_after_cap_s
        #: consecutive per-origin failures before the breaker opens;
        #: ``None`` disables the breaker entirely
        self.breaker_threshold = breaker_threshold
        self.breaker_open_s = breaker_open_s
        self.breaker_clock = breaker_clock
        self._breakers: dict[tuple[str, int], CircuitBreaker] = {}
        self._idle: dict[tuple[str, int], list[_PooledConnection]] = {}
        self._limits: dict[tuple[str, int], asyncio.Semaphore] = {}
        self._closed = False
        #: attempts re-issued after a retryable failure (diagnostics)
        self.retries = 0
        #: retries that slept a server Retry-After hint instead of the
        #: generic backoff schedule
        self.retries_after_hint = 0
        #: requests refused locally because a breaker was open
        self.circuit_open_rejections = 0

    async def __aenter__(self) -> "AsyncHttpClient":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()

    async def close(self) -> None:
        self._closed = True
        for conns in self._idle.values():
            for conn in conns:
                conn.close()
        self._idle.clear()

    def breaker_for(self, url: str) -> Optional[CircuitBreaker]:
        """The breaker guarding ``url``'s origin (None when disabled)."""
        if self.breaker_threshold is None:
            return None
        host, port, _ = self._split(url)
        return self._breaker((host, port))

    def _breaker(self, key: tuple[str, int]) -> Optional[CircuitBreaker]:
        if self.breaker_threshold is None:
            return None
        breaker = self._breakers.get(key)
        if breaker is None:
            breaker = CircuitBreaker(
                threshold=self.breaker_threshold,
                open_s=self.breaker_open_s, seed=self.retry_seed,
                key=f"{key[0]}:{key[1]}", clock=self.breaker_clock)
            self._breakers[key] = breaker
        return breaker

    # -- public API -----------------------------------------------------------
    async def get(self, url: str,
                  headers: Optional[Headers] = None) -> FetchResult:
        return await self.request(Request(method="GET", url=url,
                                          headers=headers or Headers()))

    async def request(self, request: Request) -> FetchResult:
        """One fetch, with a capped-exponential-backoff retry budget.

        Retryable failures (timeouts, connection drops) are re-attempted
        up to ``max_retries`` times with deterministic jitter; a 503/408
        carrying ``Retry-After`` sleeps the server's hint instead.
        Whatever failure survives the budget propagates to the caller;
        an un-hinted error response is returned as the answer it is.
        Raises :class:`CircuitOpen` without touching the wire while the
        origin's breaker is open.
        """
        if self._closed:
            raise HttpError("client is closed")
        host, port, _ = self._split(request.url)
        breaker = self._breaker((host, port))
        tracer = self.tracer
        rspan = tracer.begin(
            "http.request", "http",
            args={"url": request.url, "method": request.method}) \
            if tracer.enabled else None
        attempt = 0
        while True:
            if breaker is not None and not breaker.allow():
                self.circuit_open_rejections += 1
                if rspan is not None:
                    rspan.set("error", "CircuitOpen").end()
                raise CircuitOpen(
                    f"circuit open for {host}:{port} "
                    f"({breaker.failures} consecutive failures)")
            try:
                result = await self._request_once(
                    request,
                    trace_headers=self._trace_headers(rspan, attempt)
                    if rspan is not None else None)
            except _RETRYABLE as exc:
                if breaker is not None:
                    breaker.record_failure()
                if attempt >= self.max_retries:
                    if rspan is not None:
                        rspan.set("error", type(exc).__name__).end()
                    raise
                backoff_s = backoff_delay(
                    attempt, self.backoff_base_s, self.backoff_cap_s,
                    self.retry_seed, request.url)
                if rspan is not None:
                    tracer.instant("http.retry", "http", parent=rspan,
                                   args={"attempt": attempt,
                                         "error": type(exc).__name__,
                                         "backoff_s": backoff_s})
                await asyncio.sleep(backoff_s)
                self.retries += 1
                attempt += 1
                continue
            status = result.response.status
            if status in _OVERLOAD_STATUSES:
                if breaker is not None:
                    breaker.record_failure()
                hint_s = self._retry_after_s(result.response)
                if self.honor_retry_after and hint_s is not None \
                        and attempt < self.max_retries:
                    if rspan is not None:
                        tracer.instant("http.retry", "http", parent=rspan,
                                       args={"attempt": attempt,
                                             "status": status,
                                             "retry_after_s": hint_s})
                    await asyncio.sleep(hint_s)
                    self.retries += 1
                    self.retries_after_hint += 1
                    attempt += 1
                    continue
            elif breaker is not None:
                breaker.record_success()
            result.attempts = attempt + 1
            if rspan is not None:
                rspan.annotate(
                    status=status,
                    attempts=result.attempts,
                    reused_connection=result.timing.reused_connection,
                    connect_s=result.timing.connect_s).end()
            return result

    def _retry_after_s(self, response: Response) -> Optional[float]:
        """The capped Retry-After hint in seconds, or None.

        Only the delta-seconds form is honoured (the HTTP-date form is
        treated as absent — the generic answer path applies).
        """
        raw = response.headers.get("Retry-After")
        if raw is None:
            return None
        try:
            seconds = float(raw.strip())
        except ValueError:
            return None
        if seconds < 0:
            return None
        return min(seconds, self.retry_after_cap_s)

    def _trace_headers(self, rspan, attempt: int) -> dict:
        """W3C trace-context headers for one wire attempt.

        Rebuilt per attempt so ``tracestate`` carries the retry ordinal:
        a server sees ``repro=attempt:2`` and knows this is the same
        logical request (same ``traceparent`` parent-id) on its third
        try.
        """
        return {
            TRACEPARENT_HEADER: format_traceparent(
                rspan.trace_id, self.tracer.pid, rspan.span_id),
            TRACESTATE_HEADER: format_tracestate(attempt),
        }

    async def _request_once(self, request: Request,
                            trace_headers: Optional[dict] = None
                            ) -> FetchResult:
        host, port, origin_form = self._split(request.url)
        key = (host, port)
        semaphore = self._limits.setdefault(
            key, asyncio.Semaphore(self.connections_per_origin))
        wire_request = request.copy()
        wire_request.url = origin_form
        wire_request.headers.setdefault(
            "Host", host if port == 80 else f"{host}:{port}")
        if trace_headers:
            for name, value in trace_headers.items():
                wire_request.headers.set(name, value)
        what = f"{request.method} {request.url}"
        async with semaphore:
            start = time.monotonic()
            conn, reused = await self._acquire(key)
            connect_done = time.monotonic()
            try:
                response = await self._exchange(conn, wire_request, what)
            except (ConnectionClosed, ConnectionResetError,
                    BrokenPipeError):
                conn.close()
                if not reused:
                    raise
                # Stale pooled connection: retry once on a fresh one.
                conn, reused = await self._new_connection(key)
                connect_done = time.monotonic()
                response = await self._exchange(conn, wire_request, what)
            done = time.monotonic()
            if not keeps_alive(response):
                conn.close()
            else:
                self._idle.setdefault(key, []).append(conn)
        timing = FetchTiming(start=start, connect_done=connect_done,
                             response_done=done,
                             reused_connection=reused)
        return FetchResult(response=response, timing=timing)

    # -- internals --------------------------------------------------------------
    @staticmethod
    def _split(url: str) -> tuple[str, int, str]:
        parts = urlsplit(url)
        if parts.scheme not in ("http", ""):
            raise HttpError(f"unsupported scheme in {url!r} "
                            "(real-socket path is plain HTTP)")
        if not parts.hostname:
            raise HttpError(f"URL without host: {url!r}")
        origin_form = parts.path or "/"
        if parts.query:
            origin_form += "?" + parts.query
        return parts.hostname, parts.port or 80, origin_form

    async def _acquire(self, key: tuple[str, int]) \
            -> tuple[_PooledConnection, bool]:
        idle = self._idle.get(key, [])
        while idle:
            conn = idle.pop()
            if not conn.writer.is_closing():
                return conn, True
            conn.close()
        return await self._new_connection(key)

    async def _new_connection(self, key: tuple[str, int]) \
            -> tuple[_PooledConnection, bool]:
        host, port = key
        with _Deadline(self.timeout_s, f"connect {host}:{port}"):
            reader, writer = await asyncio.open_connection(
                host, port, limit=MAX_HEADER_BLOCK)
        return _PooledConnection(reader=reader, writer=writer), False

    async def _exchange(self, conn: _PooledConnection, request: Request,
                        what: str) -> Response:
        """One request and its response within ``timeout_s``; a
        connection that times out is closed."""
        try:
            with _Deadline(self.timeout_s, what):
                conn.writer.write(serialize_request(request))
                await conn.writer.drain()
                return await read_response(conn.reader,
                                           request_method=request.method)
        except RequestTimeout:
            conn.close()
            raise
