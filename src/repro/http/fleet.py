"""Multi-process ``SO_REUSEPORT``-sharded serving front.

One :class:`AsyncHttpServer` process tops out at whatever a single
event loop can admit; production origins scale past that by running N
worker processes that all ``bind()`` the same ``(host, port)`` with
``SO_REUSEPORT``, letting the kernel spread incoming connections across
them.  :class:`ServerFleet` is that front:

- the parent reserves a port (binding it with ``SO_REUSEPORT`` itself,
  so the workers can join the group), spawns N workers, and waits for
  each to report ready over a control pipe;
- every worker builds the *same* deterministic application (same seed →
  byte-identical site) behind its own hardened ``AsyncHttpServer``
  (admission caps, shedding, slow-loris guard — see
  :mod:`repro.http.aserver`) and its own
  :class:`~repro.obs.metrics.MetricsRegistry`;
- :meth:`ServerFleet.stats` polls each worker for its counters plus its
  registry ``dump()`` and folds the dumps together through
  :meth:`MetricsRegistry.merge` — the same mergeable wire format the
  process-pool experiment fan-out ships, so fleet-wide
  p50/p90/p99 and shed totals come out of one snapshot;
- :meth:`ServerFleet.sample` hands every worker the parent's interval
  grid; each then runs an :class:`~repro.obs.timeseries.IntervalSampler`
  whose sink is its control pipe, and :meth:`ServerFleet.drain_telemetry`
  collects the deltas;
- :meth:`ServerFleet.stop` drains every worker gracefully
  (``stop(drain_s=...)`` inside the worker) and reaps the processes.

Workers also install SIGTERM/SIGINT handlers that trigger the same
graceful drain, so a Ctrl-C or a supervisor's TERM lands as a drain,
not an abort.

:class:`LocalFleet` runs one shard in the caller's own event loop
behind the same interface and answers in the same shapes, so a caller
that drives both never asks how many shards there are.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import signal
import socket
import time
from collections import deque
from dataclasses import dataclass, replace
from typing import Optional

from ..obs.export import span_to_dict
from ..obs.log import get_logger
from ..obs.metrics import MetricsRegistry
from ..obs.timeseries import IntervalSampler

__all__ = ["FleetConfig", "ServerFleet", "LocalFleet", "build_app",
           "build_server", "reuseport_socket", "HAVE_REUSEPORT"]

logger = get_logger("http.fleet")

#: whether this platform can shard one port across processes
HAVE_REUSEPORT = hasattr(socket, "SO_REUSEPORT")

#: worker-side drain used for signal-initiated stops
_SIGNAL_DRAIN_S = 5.0


def reuseport_socket(host: str, port: int) -> socket.socket:
    """A bound (not yet listening) TCP socket with ``SO_REUSEPORT`` set.

    Every member of a reuseport group must set the flag before
    ``bind()``; the parent uses one of these to reserve the port and
    each worker uses one to join the group.  The protocol is named, not
    left 0: accepted connections inherit it, and asyncio turns Nagle
    off (``TCP_NODELAY``) only on sockets whose protocol says TCP, so
    without it every response waited about 40 ms on a delayed ACK.
    """
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM,
                         socket.IPPROTO_TCP)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        if HAVE_REUSEPORT:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        sock.bind((host, port))
    except BaseException:
        sock.close()
        raise
    return sock


@dataclass(frozen=True)
class FleetConfig:
    """Everything a worker needs to build and serve its shard.

    Must stay picklable: it crosses the ``spawn`` boundary verbatim.
    """

    host: str = "127.0.0.1"
    port: int = 0
    shards: int = 2
    seed: int = 42
    #: which application the shards serve: "catalyst" (the full origin)
    #: or "static" (a fixed small body — isolates the serving tier)
    app: str = "catalyst"
    latency_s: float = 0.0
    time_scale: float = 1.0
    max_inflight: Optional[int] = None
    max_connections: Optional[int] = None
    max_requests_per_connection: Optional[int] = None
    keepalive_timeout_s: float = 15.0
    header_read_timeout_s: float = 5.0
    retry_after_s: float = 1.0
    backlog: int = 100
    median_resources: int = 15
    #: give each worker a wall-clock Tracer; spans are collected over
    #: the control pipe ("spans" command) as portable pid-stamped dicts
    trace: bool = False


def build_app(config: FleetConfig):
    """``(handler, stats_source)`` for one shard of ``config.app``.

    Deterministic in ``config.seed``: every shard serves byte-identical
    content, which is what makes the kernel's connection spreading
    invisible to clients.
    """
    if config.app == "static":
        body = bytes((config.seed + i) % 256 for i in range(2048))

        def handler(request):
            from .messages import Response
            return Response(body=body, headers={
                "Content-Type": "application/octet-stream",
                "Cache-Control": "no-store"})

        return handler, None
    if config.app == "catalyst":
        # Imported lazily: repro.server imports repro.http, so a
        # module-level import here would be circular.
        from ..server.adapter import as_async_handler
        from ..server.catalyst import CatalystConfig, CatalystServer
        from ..server.site import OriginSite
        from ..workload.sitegen import generate_site
        site = OriginSite(
            generate_site(f"https://fleet{config.seed}.example",
                          seed=config.seed,
                          median_resources=config.median_resources),
            materialize_fully=True)
        # The serving tier exposes cache verdicts (Cache-Status) — the
        # DES paths keep it off to preserve byte-identity invariants.
        catalyst = CatalystServer(site,
                                  CatalystConfig(emit_cache_status=True))
        return (as_async_handler(catalyst, time_scale=config.time_scale),
                catalyst.stats)
    raise ValueError(f"unknown fleet app {config.app!r}")


def build_server(config: FleetConfig, metrics: MetricsRegistry,
                 tracer=None):
    """One hardened shard of ``config.app`` (not yet started).

    Every shard is built here: each fleet worker's and
    :class:`LocalFleet`'s, so the shard count never changes what is
    served.  A worker starts it on its reuseport socket; a
    :class:`LocalFleet` binds ``config.host``/``config.port``.
    """
    from .aserver import AsyncHttpServer
    handler, stats_source = build_app(config)
    return AsyncHttpServer(
        handler, host=config.host, port=config.port,
        latency_s=config.latency_s,
        keepalive_timeout_s=config.keepalive_timeout_s,
        header_read_timeout_s=config.header_read_timeout_s,
        max_connections=config.max_connections,
        max_inflight=config.max_inflight,
        max_requests_per_connection=config.max_requests_per_connection,
        retry_after_s=config.retry_after_s,
        shed_seed=config.seed, backlog=config.backlog,
        tracer=tracer, metrics=metrics, stats_source=stats_source)


#: admission counters summed across workers into the fleet's totals
_ADMISSION_TOTALS = ("shed_503", "shed_connections", "timeouts_408",
                     "inflight", "connections")


class _Shard:
    """One shard and everything its host is asked about it.

    A fleet worker answers its control pipe's commands with these
    methods, :class:`LocalFleet` calls them in the caller's loop: the
    ``stats`` snapshot, the ``spans`` records, the sampler's telemetry
    messages (handed to ``send``) and the ``stopped`` drain report have
    one shape however many shards there are.
    """

    def __init__(self, config: FleetConfig, send, tracer=None):
        self.metrics = MetricsRegistry()
        self.tracer = tracer
        self.server = build_server(config, self.metrics, tracer=tracer)
        self.send = send
        self.sampler: Optional[IntervalSampler] = None

    def stats(self) -> dict:
        """This shard's counters and registry in the mergeable wire
        format."""
        return {
            "pid": os.getpid(),
            "requests_served": self.server.requests_served,
            "admission": self.server.admission_stats(),
            "metrics": self.metrics.dump(),
        }

    def spans(self, clear: bool = False) -> dict:
        records = [] if self.tracer is None else \
            [span_to_dict(span, pid=os.getpid())
             for span in self.tracer.spans()]
        if self.tracer is not None and clear:
            self.tracer.clear()
        return {"pid": os.getpid(), "spans": records}

    def sample(self, origin: float, interval_s: float) -> None:
        """Send a registry delta at the end of each interval of the
        grid that ``origin`` fixes (call inside the running loop)."""
        pid = os.getpid()

        def emit(delta: dict, index: int) -> None:
            self.send({"telemetry": True, "pid": pid, "interval": index,
                       "delta": delta})

        self.sampler = IntervalSampler(self.metrics, emit, interval_s,
                                       origin)
        self.sampler.start()

    async def stop(self, drain_s: float) -> dict:
        """Drain, then flush the final delta, so what was served during
        the drain still reconciles; returns the drain report."""
        report = await self.server.stop(drain_s=drain_s)
        if self.sampler is not None:
            await self.sampler.stop()
            self.sampler = None
        return {"stopped": True, "pid": os.getpid(), **report}


def _fold_stats(workers: list[dict]) -> dict:
    """Per-shard stats as one fleet snapshot: summed totals, merged
    metrics."""
    merged = MetricsRegistry()
    totals = dict.fromkeys(("requests_served",) + _ADMISSION_TOTALS, 0)
    for stats in workers:
        totals["requests_served"] += stats["requests_served"]
        for key in _ADMISSION_TOTALS:
            totals[key] += stats["admission"][key]
        merged.merge(stats["metrics"])
    return {"shards": len(workers), "totals": totals, "workers": workers,
            "metrics": merged.snapshot()}


async def _worker_serve(conn, config: FleetConfig) -> None:
    loop = asyncio.get_running_loop()
    tracer = None
    if config.trace:
        from ..obs.trace import Tracer
        tracer = Tracer()
    shard = _Shard(config, lambda message: _try_send(conn, message),
                   tracer=tracer)
    await shard.server.start(sock=reuseport_socket(config.host,
                                                   config.port))

    stop_requested = asyncio.Event()
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, stop_requested.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass
    readable = asyncio.Event()
    loop.add_reader(conn.fileno(), readable.set)
    conn.send({"ready": True, "pid": os.getpid(),
               "port": shard.server.port})
    try:
        while True:
            read_wait = asyncio.ensure_future(readable.wait())
            stop_wait = asyncio.ensure_future(stop_requested.wait())
            await asyncio.wait({read_wait, stop_wait},
                               return_when=asyncio.FIRST_COMPLETED)
            for waiter in (read_wait, stop_wait):
                waiter.cancel()
            if stop_requested.is_set():
                # Signal-initiated drain (Ctrl-C / supervisor TERM).
                _try_send(conn, await shard.stop(_SIGNAL_DRAIN_S))
                return
            readable.clear()
            while conn.poll():
                message = conn.recv()
                command = message.get("cmd")
                if command == "stats":
                    _try_send(conn, shard.stats())
                elif command == "spans":
                    _try_send(conn, shard.spans(message.get("clear")))
                elif command == "sample":
                    shard.sample(message["origin"], message["interval_s"])
                elif command == "stop":
                    _try_send(conn, await shard.stop(
                        message.get("drain_s", 0.0)))
                    return
                else:
                    _try_send(conn, {"error": f"unknown cmd {command!r}"})
    finally:
        loop.remove_reader(conn.fileno())
        if shard.server._server is not None:
            await shard.server.stop()


def _try_send(conn, payload: dict) -> None:
    try:
        conn.send(payload)
    except (BrokenPipeError, OSError):  # parent went away
        pass


def _worker_main(conn, config: FleetConfig) -> None:
    """Entry point of one spawned shard process."""
    try:
        asyncio.run(_worker_serve(conn, config))
    except (KeyboardInterrupt, EOFError):  # pragma: no cover
        pass
    finally:
        conn.close()


class _Worker:
    __slots__ = ("process", "conn", "pid", "port", "pending")

    def __init__(self, process, conn):
        self.process = process
        self.conn = conn
        self.pid: Optional[int] = None
        self.port: Optional[int] = None
        #: non-telemetry messages read while scanning for telemetry
        self.pending: deque = deque()


class ServerFleet:
    """N ``SO_REUSEPORT`` worker processes behind one (host, port).

    Usage::

        with ServerFleet(FleetConfig(shards=4, app="static")) as fleet:
            ... drive fleet.base_url ...
            stats = fleet.stats()      # merged across shards
        # __exit__ drains and reaps the workers

    ``start``/``stop`` are synchronous (process management); the traffic
    they serve is handled inside each worker's own event loop.
    """

    def __init__(self, config: Optional[FleetConfig] = None, **overrides):
        base = config if config is not None else FleetConfig()
        self.config = replace(base, **overrides) if overrides else base
        if self.config.shards < 1:
            raise ValueError(f"shards must be >= 1, "
                             f"got {self.config.shards}")
        if self.config.shards > 1 and not HAVE_REUSEPORT:
            raise RuntimeError(
                "SO_REUSEPORT unavailable on this platform; "
                "only shards=1 is possible")
        self.port: Optional[int] = None
        self._workers: list[_Worker] = []
        #: drain used when __exit__ stops the fleet
        self.drain_s = 1.0
        #: telemetry messages diverted out of the command protocol,
        #: consumed by :meth:`drain_telemetry`
        self._telemetry: list[dict] = []

    @property
    def base_url(self) -> str:
        if self.port is None:
            raise RuntimeError("fleet not started")
        return f"http://{self.config.host}:{self.port}"

    @property
    def shards(self) -> int:
        return self.config.shards

    def start(self, ready_timeout_s: float = 30.0) -> "ServerFleet":
        if self._workers:
            raise RuntimeError("fleet already started")
        context = multiprocessing.get_context("spawn")
        # Reserve the port: parent binds (never listens) with
        # SO_REUSEPORT, workers join the same group.  The placeholder
        # stays open until every worker is ready so the port cannot be
        # lost to another process in between.
        placeholder = reuseport_socket(self.config.host, self.config.port)
        self.port = placeholder.getsockname()[1]
        worker_config = replace(self.config, port=self.port)
        try:
            for _ in range(self.config.shards):
                parent_conn, child_conn = context.Pipe()
                process = context.Process(
                    target=_worker_main, args=(child_conn, worker_config),
                    daemon=True)
                process.start()
                child_conn.close()
                self._workers.append(_Worker(process, parent_conn))
            for worker in self._workers:
                if not worker.conn.poll(ready_timeout_s):
                    raise RuntimeError(
                        f"fleet worker pid={worker.process.pid} not "
                        f"ready within {ready_timeout_s}s")
                message = worker.conn.recv()
                if not message.get("ready"):
                    raise RuntimeError(
                        f"fleet worker reported {message!r}")
                worker.pid = message["pid"]
                worker.port = message["port"]
            logger.info("fleet-started", shards=self.config.shards,
                        port=self.port, app=self.config.app)
        except BaseException:
            self._reap(terminate=True)
            raise
        finally:
            placeholder.close()
        return self

    def stats(self, timeout_s: float = 10.0) -> dict:
        """Merged fleet snapshot: per-worker counters + one registry.

        Each worker is polled once.  Worker metric dumps fold through
        :meth:`MetricsRegistry.merge`, so histograms (request latency)
        aggregate exactly like the experiment fan-out's fleet metrics;
        ``workers`` keeps each worker's own answer, dump included.
        """
        return _fold_stats(self._ask({"cmd": "stats"}, timeout_s))

    def sample(self, origin: float, interval_s: float) -> None:
        """Have every worker send a registry delta at the end of each
        interval of the grid ``origin`` fixes (``time.monotonic``
        seconds, one clock across processes)."""
        for worker in self._workers:
            worker.conn.send({"cmd": "sample", "origin": origin,
                              "interval_s": interval_s})

    def _ask(self, message: dict, timeout_s: float) -> list[dict]:
        """Send ``message`` to every worker; each worker's answer."""
        for worker in self._workers:
            worker.conn.send(message)
        return [self._recv_response(worker, timeout_s, message["cmd"])
                for worker in self._workers]

    def _recv_response(self, worker: _Worker, timeout_s: float,
                       what: str) -> dict:
        """The next *command response* from ``worker``.

        Telemetry messages interleave freely with command responses on
        the same pipe; anything tagged ``telemetry`` is diverted into
        the buffer :meth:`drain_telemetry` serves instead of being
        mistaken for the answer.
        """
        deadline = time.monotonic() + timeout_s
        while True:
            if worker.pending:
                return worker.pending.popleft()
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not worker.conn.poll(remaining):
                raise RuntimeError(
                    f"fleet worker pid={worker.pid} did not answer "
                    f"{what} within {timeout_s}s")
            message = worker.conn.recv()
            if message.get("telemetry"):
                self._telemetry.append(message)
                continue
            return message

    def drain_telemetry(self) -> list[dict]:
        """All telemetry messages received so far (consumes them).

        Sweeps every worker pipe without blocking, then empties the
        diverted-message buffer.  Each message is
        ``{"telemetry": True, "pid", "interval", "delta"}`` — feed
        ``(delta, interval, pid)`` straight into
        :meth:`~repro.obs.timeseries.TimeSeriesRecorder.add`.  Call it
        while the workers sample, too: a pipe nobody reads fills up and
        blocks the worker's event loop on its next send.
        """
        for worker in self._workers:
            try:
                while worker.conn.poll(0):
                    message = worker.conn.recv()
                    if message.get("telemetry"):
                        self._telemetry.append(message)
                    else:
                        worker.pending.append(message)
            except (EOFError, OSError):
                continue
        drained, self._telemetry = self._telemetry, []
        return drained

    def collect_spans(self, timeout_s: float = 10.0,
                      clear: bool = True) -> list[dict]:
        """Every worker's finished spans as portable pid-stamped dicts.

        The records merge directly with driver-side spans into one
        :func:`~repro.obs.export.to_chrome_trace` call — pid
        namespacing keeps worker span IDs from aliasing.  Workers not
        started with ``trace=True`` contribute nothing.
        """
        return [span
                for answer in self._ask({"cmd": "spans", "clear": clear},
                                        timeout_s)
                for span in answer["spans"]]

    def stop(self, drain_s: Optional[float] = None,
             reap_timeout_s: float = 10.0) -> list[dict]:
        """Gracefully drain every worker; returns their drain reports."""
        if not self._workers:
            return []
        drain = self.drain_s if drain_s is None else drain_s
        reports: list[dict] = []
        for worker in self._workers:
            try:
                worker.conn.send({"cmd": "stop", "drain_s": drain})
            except (BrokenPipeError, OSError):
                pass  # already stopping (signal) or dead; reap below
        deadline = drain + reap_timeout_s
        for worker in self._workers:
            try:
                reports.append(
                    self._recv_response(worker, deadline, "stop"))
            except (EOFError, OSError, RuntimeError):
                pass
        self._reap(terminate=False, timeout_s=reap_timeout_s)
        logger.info("fleet-stopped", reports=len(reports))
        return reports

    def _reap(self, terminate: bool, timeout_s: float = 5.0) -> None:
        for worker in self._workers:
            if terminate and worker.process.is_alive():
                worker.process.terminate()
            worker.process.join(timeout=timeout_s)
            if worker.process.is_alive():  # pragma: no cover
                worker.process.kill()
                worker.process.join(timeout=timeout_s)
            worker.conn.close()
        self._workers.clear()

    def __enter__(self) -> "ServerFleet":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


class LocalFleet:
    """One shard in the caller's event loop, behind :class:`ServerFleet`'s
    interface.

    Nothing is spawned: the shard serves whenever the caller runs
    ``loop`` (``start`` and ``stop`` run it until the server is up or
    drained), so its clients and the shard share one loop and, with
    ``tracer``, one span ID space.  ``stats``, ``stop`` and
    ``drain_telemetry`` answer in a one-worker fleet's shapes;
    ``collect_spans`` returns nothing, since the spans are in the
    caller's ``tracer``.
    """

    def __init__(self, config: FleetConfig,
                 loop: asyncio.AbstractEventLoop, tracer=None):
        self._loop = loop
        self._telemetry: list[dict] = []
        self._shard = _Shard(config, self._telemetry.append,
                             tracer=tracer)

    @property
    def base_url(self) -> str:
        return self._shard.server.base_url

    def start(self) -> "LocalFleet":
        self._loop.run_until_complete(self._shard.server.start())
        return self

    def stats(self) -> dict:
        return _fold_stats([self._shard.stats()])

    def sample(self, origin: float, interval_s: float) -> None:
        """As :meth:`ServerFleet.sample`; call inside ``loop``."""
        self._shard.sample(origin, interval_s)

    def collect_spans(self) -> list[dict]:
        return []

    def stop(self, drain_s: float) -> list[dict]:
        return [self._loop.run_until_complete(self._shard.stop(drain_s))]

    def drain_telemetry(self) -> list[dict]:
        drained = list(self._telemetry)
        self._telemetry.clear()
        return drained
