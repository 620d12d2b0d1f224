"""The browser's network stack over the simulated link.

A :class:`NetworkClient` owns the per-origin connection pool (browsers cap
parallel connections per origin — 6 in every major engine) and turns a
request into a DES process: acquire a slot, reuse or set up a connection,
pay the RTT and transfer time, hand the request to the origin's handler,
and return its response.

The origin handler is a plain callable ``handler(request, at_time) ->
Response`` — the same objects :mod:`repro.server` exposes — so the whole
HTTP exchange happens in-process with zero serialization while the *time*
it would take on the modelled network elapses on the simulator clock.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..http.messages import Request, Response
from ..netsim.faults import (FaultKind, InjectedFault, InjectedReset,
                             backoff_delay)
from ..netsim.link import Link
from ..netsim.sim import Resource, Simulator
from ..netsim.tcp import Connection, ConnectionPolicy, slow_start_extra_rtts

__all__ = ["NetworkClient", "OriginHandler",
           "CONNECTIONS_PER_ORIGIN", "OriginUnreachable",
           "FetchTimeout", "FetchFailed",
           "DEFAULT_FAULT_GUARD_TIMEOUT_S"]

CONNECTIONS_PER_ORIGIN = 6

#: watchdog used when a fault plan is active but no explicit per-request
#: timeout was configured — a LOSS would otherwise hang the load forever
DEFAULT_FAULT_GUARD_TIMEOUT_S = 30.0


class OriginUnreachable(Exception):
    """The origin cannot be reached (offline mode, outage).

    Raised by origin handlers to model unreachability; the page loader
    lets the Service Worker answer from cache where it can (paper §3's
    offline capability).
    """


class FetchTimeout(Exception):
    """One attempt's watchdog expired before a response arrived."""


class FetchFailed(Exception):
    """Every attempt within the retry budget failed.

    Carries the URL, how many attempts were made, and the last failure.
    """

    def __init__(self, url: str, attempts: int, cause: Exception):
        super().__init__(f"{url} failed after {attempts} attempt(s): "
                         f"{cause}")
        self.url = url
        self.attempts = attempts
        self.cause = cause

    @property
    def retries(self) -> int:
        """Attempts re-issued after a failure before the budget ran out."""
        return self.attempts - 1


OriginHandler = Callable[[Request, float], Response]


#: HTTP/2 default SETTINGS_MAX_CONCURRENT_STREAMS in common servers
H2_MAX_STREAMS = 100


@dataclass
class NetworkClient:
    """Connection-pooled access to one origin over one access link.

    Two transport flavours:

    - HTTP/1.1 (default): up to ``connections_per_origin`` parallel
      connections, each carrying one request at a time, each paying its
      own TCP/TLS setup.
    - HTTP/2 (``multiplexed=True``): one connection, one handshake, up to
      ``max_streams`` concurrent request streams.  Bytes still share the
      access link either way — multiplexing removes per-connection
      queueing and repeated handshakes, not bandwidth.
    """

    sim: Simulator
    link: Link
    handler: OriginHandler
    policy: ConnectionPolicy = field(default_factory=ConnectionPolicy)
    connections_per_origin: int = CONNECTIONS_PER_ORIGIN
    #: server processing delay before the response leaves the origin
    server_think_s: float = 0.005
    #: HTTP/2-style multiplexing over a single connection
    multiplexed: bool = False
    max_streams: int = H2_MAX_STREAMS
    #: per-attempt watchdog; ``inf`` disables it (unless a fault plan is
    #: active, in which case :data:`DEFAULT_FAULT_GUARD_TIMEOUT_S` applies)
    request_timeout_s: float = math.inf
    #: extra attempts allowed after the first one fails
    max_retries: int = 3
    #: capped-exponential backoff between attempts
    backoff_base_s: float = 0.25
    backoff_cap_s: float = 4.0

    def __post_init__(self) -> None:
        capacity = self.max_streams if self.multiplexed \
            else self.connections_per_origin
        self._slots = Resource(self.sim, capacity)
        self._idle: list[Connection] = []
        self._h2_connection: Connection | None = None
        self._h2_ready: "Event | None" = None
        self.connections_opened = 0
        #: attempts re-issued after a failure (visible in metrics/traces)
        self.retries = 0
        #: attempt failures observed (timeouts + injected faults)
        self.faults_seen = 0

    # -- the fetch process -----------------------------------------------------
    def exchange(self, request: Request,
                 think_s: Optional[float] = None, span=None):
        """DES process: perform one HTTP exchange.

        Returns the Response, whether the attempt that delivered it set
        up a new connection (and so paid its handshake) and how many
        attempts this exchange re-issued before it.  Usage inside
        another process::

            response, new_connection, retries = \
                yield from client.exchange(request)

        Resilience: each wire attempt is raced against the per-request
        watchdog and subject to the link's :class:`FaultPlan` (if any).
        Failed attempts are retried with capped exponential backoff and
        deterministic jitter until the retry budget runs out, at which
        point :class:`FetchFailed` is raised (its ``retries`` are this
        exchange's too).  The fault-free,
        no-timeout configuration takes the exact code path (and timing)
        it always did.

        ``span`` parents the exchange in a trace; each wire attempt gets
        a child span, each retry backoff an instant, so a Perfetto view
        shows exactly where a lossy link spent the load's time.
        """
        tracer = self.sim.tracer
        queue_start = self.sim.now
        grant = self._slots.request()
        yield grant
        xspan = tracer.begin("net.exchange", "net", parent=span,
                             args={"url": request.url}) \
            if tracer.enabled else None
        try:
            if xspan is not None and self.sim.now > queue_start:
                xspan.set("queued_s", self.sim.now - queue_start)
            plan = getattr(self.link, "fault_plan", None)
            if plan is not None and not plan.injects_anything:
                plan = None
            timeout_s = self.request_timeout_s
            if plan is not None and math.isinf(timeout_s):
                timeout_s = DEFAULT_FAULT_GUARD_TIMEOUT_S
            attempt = 0
            while True:
                decision = (plan.decide(request.url, attempt)
                            if plan is not None else None)
                aspan = tracer.begin(
                    "net.attempt", "net", parent=xspan,
                    args={"attempt": attempt}) if tracer.enabled else None
                try:
                    if decision is None and math.isinf(timeout_s):
                        outcome = yield from self._attempt(
                            request, think_s, None, aspan)
                    else:
                        outcome = yield from self._guarded_attempt(
                            request, think_s, decision, timeout_s, aspan)
                    if aspan is not None:
                        aspan.end()
                    break
                except (InjectedFault, FetchTimeout) as exc:
                    self.faults_seen += 1
                    if aspan is not None:
                        aspan.set("error", type(exc).__name__).end()
                    if attempt >= self.max_retries:
                        raise FetchFailed(request.url, attempt + 1,
                                          exc) from exc
                    seed = plan.seed if plan is not None else 0
                    delay = backoff_delay(
                        attempt, self.backoff_base_s, self.backoff_cap_s,
                        seed, request.url)
                    if tracer.enabled:
                        tracer.instant("net.retry", "net", parent=xspan,
                                       args={"attempt": attempt,
                                             "backoff_s": delay})
                    yield self.sim.timeout(delay)
                    self.retries += 1
                    attempt += 1
            response, is_new = outcome
            if xspan is not None:
                xspan.annotate(status=response.status,
                               attempts=attempt + 1,
                               new_connection=is_new).end()
            return response, is_new, attempt
        except BaseException as exc:
            if xspan is not None:
                xspan.set("error", type(exc).__name__).end()
            raise
        finally:
            self._slots.release()

    def _guarded_attempt(self, request: Request, think_s: Optional[float],
                         decision, timeout_s: float, span=None):
        """Process: run one attempt as a child, raced against a watchdog.

        A lost request (or a stall that never resumes) produces dead
        silence; the watchdog converts that silence into a
        :class:`FetchTimeout` the retry loop can act on.
        """
        attempt_proc = self.sim.process(
            self._attempt(request, think_s, decision, span),
            name=f"attempt:{request.url}")
        waits = [attempt_proc]
        if not math.isinf(timeout_s):
            waits.append(self.sim.timeout(timeout_s))
        yield self.sim.any_of(waits)  # re-raises the attempt's failure
        if not attempt_proc.triggered:
            attempt_proc.interrupt("request watchdog")
            raise FetchTimeout(
                f"no response for {request.url} within {timeout_s:g}s")
        if not attempt_proc.ok:
            raise attempt_proc.value
        return attempt_proc.value

    def _attempt(self, request: Request, think_s: Optional[float],
                 decision, span=None):
        """Process: one wire attempt; returns (response, is_new).

        The response size is unknown until the handler runs, so the
        exchange is phased: handshake, upstream + server think, run the
        handler at arrival time, then downstream sized by the actual
        response.  Any failure (injected fault, watchdog interrupt)
        discards the connection — a broken exchange's connection is
        never reused.
        """
        tracer = self.sim.tracer
        connection, is_new = self._checkout()
        try:
            if not connection.established:
                cspan = tracer.begin("net.connect", "net", parent=span) \
                    if tracer.enabled else None
                yield from self._establish(connection)
                if cspan is not None:
                    cspan.end()
            req_extra = max(0, request.wire_size()
                            - self.policy.request_bytes)
            yield from self.link.send_upstream(
                self.policy.request_bytes + req_extra, span=span)
            if decision is not None and decision.kind is FaultKind.LOSS:
                # the request (or its response) evaporated: dead silence
                # until the watchdog interrupts this process
                if tracer.enabled:
                    tracer.instant("fault.loss", "netsim", parent=span,
                                   args={"url": request.url})
                yield self.sim.event()
                raise AssertionError("lost request resumed")  # unreachable
            think = self.server_think_s if think_s is None else think_s
            if think > 0:
                yield self.sim.timeout(think)
            # The handler runs synchronously at arrival time; hand the
            # attempt span across the call boundary so a traced origin
            # (CatalystServer) parents its server span correctly.
            if tracer.enabled:
                with tracer.parenting(span):
                    response = self.handler(request, self.sim.now)
            else:
                response = self.handler(request, self.sim.now)
            body_bytes = response.transfer_size
            header_bytes = self.policy.response_header_bytes + max(
                0, response.headers.wire_size()
                - self.policy.response_header_bytes)
            if self.policy.slow_start and body_bytes > 0:
                extra = slow_start_extra_rtts(body_bytes, self.policy)
                if extra > 0:
                    yield self.sim.timeout(
                        self.link.conditions.rtt_s * extra)
            total = header_bytes + body_bytes
            if decision is None:
                yield from self.link.send_downstream(total, span=span)
            else:
                yield from self.link.send_downstream_faulted(
                    total, decision, span=span)
            connection.requests_served += 1
            self._checkin(connection)
            return response, is_new
        except BaseException:
            self._discard(connection)
            raise

    def warm_up(self, count: int):
        """Process: pre-establish ``count`` idle connections (preconnect).

        Browsers speculatively open connections they expect to need;
        modelling it lets late JS-triggered fetches skip handshakes.
        No-op under HTTP/2 (one connection covers everything).
        """
        if self.multiplexed:
            return
        fresh = []
        for _ in range(count):
            self.connections_opened += 1
            fresh.append(Connection(sim=self.sim, link=self.link,
                                    policy=self.policy))
        for connection in fresh:
            yield from connection.setup()
            self._idle.append(connection)

    # -- connection pool -----------------------------------------------------
    def _checkout(self) -> tuple[Connection, bool]:
        if self.multiplexed:
            if self._h2_connection is None:
                self.connections_opened += 1
                self._h2_connection = Connection(
                    sim=self.sim, link=self.link, policy=self.policy)
                return self._h2_connection, True
            return self._h2_connection, False
        if self._idle:
            return self._idle.pop(), False
        self.connections_opened += 1
        return Connection(sim=self.sim, link=self.link,
                          policy=self.policy), True

    def _establish(self, connection: Connection):
        """Process: handshake once; concurrent h2 streams wait, not race."""
        if not self.multiplexed:
            yield from connection.setup()
            return
        if self._h2_ready is None:
            self._h2_ready = self.sim.event()
            yield from connection.setup()
            self._h2_ready.succeed()
        elif not self._h2_ready.triggered:
            yield self._h2_ready
        # else: handshake already done

    def _checkin(self, connection: Connection) -> None:
        if not self.multiplexed:
            self._idle.append(connection)

    def _discard(self, connection: Connection) -> None:
        """Drop a connection whose exchange broke mid-flight.

        HTTP/1.1: simply never checked back into the idle pool.  HTTP/2:
        the shared connection is torn down so the next attempt
        re-handshakes; streams still waiting on its handshake see the
        failure (and retry through their own budgets).
        """
        if not self.multiplexed:
            return
        if self._h2_connection is connection:
            self._h2_connection = None
            ready, self._h2_ready = self._h2_ready, None
            if ready is not None and not ready.triggered:
                ready.fail(InjectedReset(
                    "connection torn down mid-handshake"))
