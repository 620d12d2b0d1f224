"""Sustained-load chaos harness for the hardened serving tier.

Drives a swarm of concurrent asyncio clients — each its own
:class:`~repro.http.aclient.AsyncHttpClient` with one keep-alive
connection, a retry budget, ``Retry-After`` honouring, and a circuit
breaker — against a sharded :class:`~repro.http.fleet.ServerFleet`
origin (or, with one shard, an in-process
:class:`~repro.http.aserver.AsyncHttpServer`), optionally misbehaving
per a seeded :class:`~repro.netsim.faults.FaultPlan`.

What it measures (the *serving-tier* questions, not the cache ones):

- **sustained rps** — completed ``200`` responses per measured second;
  with an inflight cap ``K`` and per-request service latency ``L`` the
  admission ceiling is ``shards * K / L``, and the harness reports how
  close the tier gets under honest overload;
- **shed behaviour** — how many requests were answered ``503 +
  Retry-After`` rather than queued, and what fraction of offered load
  that was (server-side counters are authoritative; client-side retries
  consume the hints);
- **drain** — how long the final graceful stop took and whether any
  connection had to be hard-cancelled;
- **tail latency** — p50/p90/p99 of successful responses, through the
  two-tier :class:`~repro.obs.metrics.Histogram` so arbitrarily long
  runs stay bounded in memory.

Fault presets map onto client-observable misbehaviour: ``LOSS`` skips
the send and burns a watchdog wait, ``STALL`` delays the send,
``RESET``/``TRUNCATE`` kill the client's pooled connection so the next
exchange pays a reconnect.  All decisions come from the deterministic
``(seed, url, attempt)`` hash, so chaos runs replay exactly.

Per-interval series (sent/ok/shed per ``interval_s`` bucket) land in the
result *and* in the metrics registry, next to the fleet's merged
``http.*`` instruments.
"""

from __future__ import annotations

import asyncio
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from ..http.aclient import AsyncHttpClient
from ..http.aserver import AsyncHttpServer
from ..http.errors import CircuitOpen, HttpError
from ..http.fleet import FleetConfig, ServerFleet, build_app
from ..http.messages import Request
from ..netsim.faults import (FaultKind, FaultPlan, captive_portal,
                             flaky_5g, lossy_wifi)
from ..obs.export import span_to_dict
from ..obs.manifest import build_manifest, stamp
from ..obs.metrics import MetricsRegistry
from ..obs.slo import Objective, SloReport
from ..obs.slo import evaluate as evaluate_slo
from ..obs.timeseries import TimeSeriesRecorder, diff_dumps
from ..obs.trace import Tracer
from .report import format_table

__all__ = ["LoadTestResult", "run_load_test", "format_load_test",
           "load_test_payload", "FAULT_PRESETS"]

#: name -> FaultPlan factory (seeded) for the chaos presets
FAULT_PRESETS = {"flaky_5g": flaky_5g, "lossy_wifi": lossy_wifi,
                 "captive_portal": captive_portal}

#: client-side wait standing in for a lost request's watchdog timeout
_LOSS_WAIT_S = 0.1

#: cap on client-side stall emulation, so short runs stay short
_STALL_CAP_S = 0.25


@dataclass
class LoadTestResult:
    """One sustained-load run, client- and server-side views combined."""

    shards: int
    clients: int
    duration_s: float
    warmup_s: float
    seed: int
    app: str
    latency_s: float
    max_inflight: Optional[int]
    preset: str
    # client-side, measured window only
    sent: int = 0
    ok: int = 0
    client_shed: int = 0          # 503s that survived the retry budget
    errors: int = 0
    circuit_open: int = 0
    faults_injected: int = 0
    retries_after_hint: int = 0
    latency_ms_p50: float = 0.0
    latency_ms_p90: float = 0.0
    latency_ms_p99: float = 0.0
    # server-side, whole run (authoritative shed accounting)
    served_total: int = 0
    shed_503: int = 0
    shed_connections: int = 0
    timeouts_408: int = 0
    # drain report from the final graceful stop
    drain_s: float = 0.0
    hard_cancelled: int = 0
    #: per-interval {"t_s", "sent", "ok", "shed"} buckets
    series: list = field(default_factory=list)
    metrics_snapshot: dict = field(default_factory=dict)
    elapsed_s: float = 0.0
    #: pid-stamped span dicts (driver clients + fleet workers) when the
    #: run was traced; feed straight into ``obs.export.to_chrome_trace``
    spans: list = field(default_factory=list)
    #: per-interval registry snapshots from the telemetry recorder
    timeseries: list = field(default_factory=list)
    #: :class:`~repro.obs.slo.SloReport` when objectives were evaluated
    slo_report: Optional[SloReport] = None

    @property
    def sustained_rps(self) -> float:
        """Completed 200s per measured second."""
        if self.duration_s <= 0:
            return 0.0
        return self.ok / self.duration_s

    @property
    def offered_rps(self) -> float:
        if self.duration_s <= 0:
            return 0.0
        return self.sent / self.duration_s

    @property
    def shed_rate(self) -> float:
        """Server-side: shed / (shed + served) over the whole run."""
        offered = self.shed_503 + self.shed_connections + self.served_total
        if offered == 0:
            return 0.0
        return (self.shed_503 + self.shed_connections) / offered


class _Tallies:
    """Shared mutable counters for the client swarm (single loop — no
    locking needed)."""

    def __init__(self, interval_s: float):
        self.interval_s = interval_s
        self.sent = 0
        self.ok = 0
        self.shed = 0
        self.errors = 0
        self.circuit_open = 0
        self.faults = 0
        self.bins: dict[int, dict] = {}

    def record(self, t_s: float, column: str) -> None:
        bucket = self.bins.setdefault(
            int(t_s / self.interval_s),
            {"sent": 0, "ok": 0, "shed": 0})
        bucket[column] += 1

    def series(self) -> list[dict]:
        """Zero-filled interval rows from 0 to the last active bucket.

        A stalled interval (nothing completed — e.g. every client stuck
        in a STALL fault) must appear as a row of zeros, not vanish:
        downstream rate math (``ok / interval_s`` per row) and the
        timeline plot both assume a gapless grid.
        """
        if not self.bins:
            return []
        empty = {"sent": 0, "ok": 0, "shed": 0}
        return [{"t_s": round(index * self.interval_s, 3),
                 **self.bins.get(index, empty)}
                for index in range(max(self.bins) + 1)]


async def _apply_fault(plan: Optional[FaultPlan], url: str, attempt: int,
                       client: AsyncHttpClient,
                       tallies: _Tallies) -> bool:
    """Client-side chaos for one attempt; True = skip the request."""
    if plan is None:
        return False
    decision = plan.decide(url, attempt)
    if decision is None:
        return False
    tallies.faults += 1
    if decision.kind is FaultKind.LOSS:
        await asyncio.sleep(_LOSS_WAIT_S)
        return True
    if decision.kind is FaultKind.STALL:
        await asyncio.sleep(min(decision.stall_s, _STALL_CAP_S))
        return False
    # RESET / TRUNCATE: the connection dies visibly — drop the pooled
    # connection so the next exchange reconnects from scratch.
    for conns in client._idle.values():
        for conn in conns:
            conn.close()
    client._idle.clear()
    return False


async def _client_loop(index: int, base_url: str, paths: Sequence[str],
                       stop_at: float, measure_from: float,
                       plan: Optional[FaultPlan],
                       client_kwargs: dict, latency_hist,
                       tallies: _Tallies) -> AsyncHttpClient:
    loop = asyncio.get_running_loop()
    client = AsyncHttpClient(**client_kwargs)
    attempt = 0
    rotation = 0
    try:
        while loop.time() < stop_at:
            path = paths[(index + rotation) % len(paths)]
            rotation += 1
            url = base_url + path
            skip = await _apply_fault(plan, f"client{index}{url}",
                                      attempt, client, tallies)
            attempt += 1
            if skip:
                continue
            started = loop.time()
            try:
                result = await client.request(Request(url=url))
            except CircuitOpen:
                tallies.circuit_open += 1
                await asyncio.sleep(0.05)
                continue
            except (HttpError, OSError, asyncio.TimeoutError):
                tallies.errors += 1
                continue
            now = loop.time()
            if now < measure_from:
                continue
            tallies.sent += 1
            tallies.record(now - measure_from, "sent")
            if result.response.status == 200:
                tallies.ok += 1
                tallies.record(now - measure_from, "ok")
                latency_hist.observe((now - started) * 1e3)
            elif result.response.status == 503:
                tallies.shed += 1
                tallies.record(now - measure_from, "shed")
            else:
                tallies.errors += 1
    finally:
        await client.close()
    return client


def _resolve_plan(preset: Union[None, str, FaultPlan],
                  seed: int) -> tuple[Optional[FaultPlan], str]:
    if preset is None or preset == "none":
        return None, "none"
    if isinstance(preset, FaultPlan):
        return preset, preset.describe()
    factory = FAULT_PRESETS.get(preset)
    if factory is None:
        raise ValueError(f"unknown fault preset {preset!r} "
                         f"(have {sorted(FAULT_PRESETS)})")
    plan = factory(seed=seed)
    return plan, preset


def run_load_test(*, shards: int = 1, clients: int = 32,
                  duration_s: float = 1.5, warmup_s: float = 0.3,
                  seed: int = 0, app: str = "static",
                  latency_s: float = 0.02,
                  max_inflight: Optional[int] = 8,
                  max_connections: Optional[int] = None,
                  max_requests_per_connection: Optional[int] = None,
                  retry_after_s: float = 0.5,
                  preset: Union[None, str, FaultPlan] = None,
                  drain_s: float = 2.0,
                  honor_retry_after: bool = True, max_retries: int = 2,
                  timeout_s: float = 5.0,
                  paths: Optional[Sequence[str]] = None,
                  interval_s: float = 0.25,
                  metrics: Optional[MetricsRegistry] = None,
                  time_scale: float = 1.0,
                  trace: bool = False,
                  telemetry_interval_s: Optional[float] = None,
                  timeseries_path: Optional[str] = None,
                  slo: Optional[Sequence[Objective]] = None,
                  live: bool = False) -> LoadTestResult:
    """One sustained-load run against a (possibly sharded) origin.

    One shard is served inside the driving event loop, with no worker
    processes; more shards spawn a :class:`ServerFleet` of ``shards``
    worker processes.

    Observability knobs (all off by default, zero overhead when off):
    ``trace`` runs driver clients and origin under real tracers with
    W3C trace-context propagation, landing pid-stamped span dicts in
    ``result.spans``; ``telemetry_interval_s``/``timeseries_path``
    stream per-interval registry deltas into a
    :class:`~repro.obs.timeseries.TimeSeriesRecorder` (and JSONL on
    disk); ``slo`` evaluates objectives over that time series into
    ``result.slo_report``; ``live`` prints a per-interval ticker to
    stderr while the swarm runs.
    """
    plan, preset_name = _resolve_plan(preset, seed)
    registry = metrics if metrics is not None else MetricsRegistry()
    sample_interval_s = telemetry_interval_s or interval_s
    recorder = None
    if slo or timeseries_path is not None \
            or telemetry_interval_s is not None:
        recorder = TimeSeriesRecorder(interval_s=sample_interval_s,
                                      path=timeseries_path)
    tracer = Tracer() if trace else None
    config = FleetConfig(
        shards=shards, seed=seed, app=app, latency_s=latency_s,
        time_scale=time_scale, max_inflight=max_inflight,
        max_connections=max_connections,
        max_requests_per_connection=max_requests_per_connection,
        retry_after_s=retry_after_s, trace=trace,
        telemetry_interval_s=(sample_interval_s
                              if recorder is not None else None))
    if paths is None:
        paths = ["/index.html"] if app == "catalyst" else ["/"]
    result = LoadTestResult(
        shards=shards, clients=clients, duration_s=duration_s,
        warmup_s=warmup_s, seed=seed, app=app, latency_s=latency_s,
        max_inflight=max_inflight, preset=preset_name)
    started = time.perf_counter()
    try:
        if shards == 1:
            asyncio.run(_run_inprocess(
                config, paths, result, plan, clients, duration_s,
                warmup_s, honor_retry_after, max_retries, timeout_s,
                interval_s, seed, drain_s, registry, tracer=tracer,
                recorder=recorder, live=live))
        else:
            _run_against_fleet(
                config, paths, result, plan, clients, duration_s,
                warmup_s, honor_retry_after, max_retries, timeout_s,
                interval_s, seed, drain_s, registry, tracer=tracer,
                recorder=recorder, live=live)
    finally:
        if recorder is not None:
            recorder.close()
    result.elapsed_s = time.perf_counter() - started
    if recorder is not None:
        result.timeseries = recorder.interval_snapshots()
    if slo:
        result.slo_report = evaluate_slo(list(slo), recorder)
    _emit_metrics(registry, result, interval_s)
    result.metrics_snapshot = registry.snapshot()
    return result


def _client_kwargs(honor_retry_after: bool, max_retries: int,
                   timeout_s: float, seed: int, index: int,
                   tracer=None) -> dict:
    return {
        "connections_per_origin": 1,
        "timeout_s": timeout_s,
        "max_retries": max_retries,
        "backoff_base_s": 0.02,
        "retry_seed": seed * 10_000 + index,
        "honor_retry_after": honor_retry_after,
        # overload 503s are expected here; don't let the breaker turn a
        # load test into a self-DoS of the measurement
        "breaker_threshold": 50,
        "breaker_open_s": 0.2,
        # one shared driver tracer: every client's http.request spans
        # (and the traceparent headers they inject) land in one ring
        "tracer": tracer,
    }


async def _live_ticker(tallies: _Tallies, interval_s: float,
                       stop_at: float) -> None:
    """Print one per-interval line to stderr while the swarm runs."""
    loop = asyncio.get_running_loop()
    last = {"sent": 0, "ok": 0, "shed": 0, "errors": 0}
    tick = 0
    while loop.time() < stop_at:
        await asyncio.sleep(min(interval_s, stop_at - loop.time()))
        tick += 1
        current = {"sent": tallies.sent, "ok": tallies.ok,
                   "shed": tallies.shed, "errors": tallies.errors}
        delta = {key: current[key] - last[key] for key in current}
        last = current
        print(f"[live] t={tick * interval_s:7.2f}s  "
              f"rps={delta['ok'] / interval_s:8.1f}  "
              f"sent={delta['sent']:6d}  ok={delta['ok']:6d}  "
              f"shed={delta['shed']:5d}  errors={delta['errors']:5d}",
              file=sys.stderr, flush=True)


async def _drive(base_url: str, paths: Sequence[str],
                 result: LoadTestResult, plan: Optional[FaultPlan],
                 clients: int, duration_s: float, warmup_s: float,
                 honor_retry_after: bool, max_retries: int,
                 timeout_s: float, interval_s: float, seed: int,
                 registry: MetricsRegistry, tracer=None,
                 live: bool = False) -> _Tallies:
    loop = asyncio.get_running_loop()
    tallies = _Tallies(interval_s)
    latency_hist = registry.histogram("load.latency_ms")
    t0 = loop.time()
    stop_at = t0 + warmup_s + duration_s
    ticker = None
    if live:
        ticker = asyncio.ensure_future(
            _live_ticker(tallies, interval_s, stop_at))
    swarm = [
        _client_loop(i, base_url, paths, stop_at,
                     t0 + warmup_s, plan,
                     _client_kwargs(honor_retry_after, max_retries,
                                    timeout_s, seed, i, tracer=tracer),
                     latency_hist, tallies)
        for i in range(clients)]
    finished = await asyncio.gather(*swarm)
    if ticker is not None:
        ticker.cancel()
        try:
            await ticker
        except asyncio.CancelledError:
            pass
    result.sent = tallies.sent
    result.ok = tallies.ok
    result.client_shed = tallies.shed
    result.errors = tallies.errors
    result.circuit_open = tallies.circuit_open
    result.faults_injected = tallies.faults
    result.retries_after_hint = sum(c.retries_after_hint
                                    for c in finished)
    result.series = tallies.series()
    result.latency_ms_p50 = latency_hist.percentile(50)
    result.latency_ms_p90 = latency_hist.percentile(90)
    result.latency_ms_p99 = latency_hist.percentile(99)
    return tallies


def _run_against_fleet(config: FleetConfig, paths, result, plan, clients,
                       duration_s, warmup_s, honor_retry_after,
                       max_retries, timeout_s, interval_s, seed,
                       drain_s, registry: MetricsRegistry, tracer=None,
                       recorder=None, live=False) -> None:
    fleet = ServerFleet(config).start()
    try:
        asyncio.run(_drive(fleet.base_url, paths, result, plan, clients,
                           duration_s, warmup_s, honor_retry_after,
                           max_retries, timeout_s, interval_s, seed,
                           registry, tracer=tracer, live=live))
        stats = fleet.stats()
        totals = stats["totals"]
        result.served_total = totals["requests_served"]
        result.shed_503 = totals["shed_503"]
        result.shed_connections = totals["shed_connections"]
        result.timeouts_408 = totals["timeouts_408"]
        registry.merge(fleet.merged_metrics().dump())
        if tracer is not None:
            # driver-side client spans + every worker's server spans,
            # all pid-stamped so export IDs never alias across processes
            result.spans = (
                [span_to_dict(span, pid=os.getpid())
                 for span in tracer.spans()]
                + fleet.collect_spans())
    finally:
        reports = fleet.stop(drain_s=drain_s)
        if reports:
            result.drain_s = max(r.get("drain_s", 0.0) for r in reports)
            result.hard_cancelled = sum(r.get("hard_cancelled", 0)
                                        for r in reports)
        if recorder is not None:
            # workers flush a final delta before their stopped reply,
            # so draining *after* stop() captures the whole run
            for message in fleet.drain_telemetry():
                recorder.record(message["delta"], message["t_s"],
                                source=message.get("pid"))


async def _sample_registry(metrics: MetricsRegistry, recorder,
                           interval_s: float) -> None:
    """In-process stand-in for the fleet telemetry loop.

    Diffs the server registry on the same cadence a worker would and
    feeds the recorder directly; flushes one final delta on cancel so
    the last partial interval reconciles exactly.
    """
    loop = asyncio.get_running_loop()
    t0 = loop.time()
    previous: dict = {}

    def flush() -> dict:
        nonlocal previous
        current = metrics.dump()
        delta = diff_dumps(current, previous)
        previous = current
        return delta

    try:
        while True:
            await asyncio.sleep(interval_s)
            delta = flush()
            if delta:
                recorder.record(delta, loop.time() - t0,
                                source="inprocess")
    except asyncio.CancelledError:
        delta = flush()
        if delta:
            recorder.record(delta, loop.time() - t0, source="inprocess")
        raise


async def _run_inprocess(config: FleetConfig, paths, result, plan,
                         clients, duration_s, warmup_s,
                         honor_retry_after, max_retries, timeout_s,
                         interval_s, seed, drain_s,
                         registry: MetricsRegistry, tracer=None,
                         recorder=None, live=False) -> None:
    handler, stats_source = build_app(config)
    server_metrics = MetricsRegistry()
    # one process, one tracer: client and server spans share an ID
    # space, so traceparent round-trips resolve to real local parents
    server = AsyncHttpServer(
        handler, latency_s=config.latency_s,
        max_inflight=config.max_inflight,
        max_connections=config.max_connections,
        max_requests_per_connection=config.max_requests_per_connection,
        retry_after_s=config.retry_after_s, shed_seed=config.seed,
        metrics=server_metrics, stats_source=stats_source,
        tracer=tracer)
    await server.start()
    sampler = None
    if recorder is not None:
        sampler = asyncio.ensure_future(_sample_registry(
            server_metrics, recorder,
            config.telemetry_interval_s or interval_s))
    try:
        await _drive(server.base_url, paths, result, plan, clients,
                     duration_s, warmup_s, honor_retry_after,
                     max_retries, timeout_s, interval_s, seed, registry,
                     tracer=tracer, live=live)
        result.served_total = server.requests_served
        result.shed_503 = server.shed_503
        result.shed_connections = server.shed_connections
        result.timeouts_408 = server.timeouts_408
    finally:
        report = await server.stop(drain_s=drain_s)
        result.drain_s = report["drain_s"]
        result.hard_cancelled = report["hard_cancelled"]
        if sampler is not None:
            sampler.cancel()
            try:
                await sampler
            except asyncio.CancelledError:
                pass
        registry.merge(server_metrics.dump())
        if tracer is not None:
            result.spans = [span_to_dict(span, pid=os.getpid())
                            for span in tracer.spans()]


def _emit_metrics(registry: MetricsRegistry, result: LoadTestResult,
                  interval_s: float) -> None:
    """Fold the run's headline series into the registry."""
    registry.counter("load.sent").inc(result.sent)
    registry.counter("load.ok").inc(result.ok)
    registry.counter("load.shed").inc(result.shed_503
                                      + result.shed_connections)
    registry.counter("load.errors").inc(result.errors)
    registry.counter("load.circuit_open").inc(result.circuit_open)
    registry.counter("load.faults_injected").inc(result.faults_injected)
    registry.gauge("load.clients").set(result.clients)
    registry.gauge("load.shards").set(result.shards)
    registry.gauge("load.sustained_rps").set(result.sustained_rps)
    registry.gauge("load.shed_rate").set(result.shed_rate)
    registry.gauge("load.drain_s").set(result.drain_s)
    registry.gauge("load.hard_cancelled").set(result.hard_cancelled)
    interval_rps = registry.histogram("load.interval_rps")
    for bucket in result.series:
        interval_rps.observe(bucket["ok"] / interval_s)


def format_load_test(result: LoadTestResult) -> str:
    rows = [
        ["shards", str(result.shards)],
        ["clients", str(result.clients)],
        ["app / preset", f"{result.app} / {result.preset}"],
        ["inflight cap / shard", str(result.max_inflight)],
        ["service latency", f"{result.latency_s * 1e3:.0f} ms"],
        ["measured window", f"{result.duration_s:.1f} s "
                            f"(+{result.warmup_s:.1f} s warmup)"],
        ["sustained 200 rps", f"{result.sustained_rps:,.0f}"],
        ["offered rps", f"{result.offered_rps:,.0f}"],
        ["shed rate (server)", f"{result.shed_rate:.1%}"],
        ["shed 503 / conn", f"{result.shed_503} / "
                            f"{result.shed_connections}"],
        ["timeouts 408", str(result.timeouts_408)],
        ["latency p50/p90/p99", f"{result.latency_ms_p50:.1f} / "
                                f"{result.latency_ms_p90:.1f} / "
                                f"{result.latency_ms_p99:.1f} ms"],
        ["retry-after honoured", str(result.retries_after_hint)],
        ["circuit-open rejections", str(result.circuit_open)],
        ["faults injected", str(result.faults_injected)],
        ["client errors", str(result.errors)],
        ["drain", f"{result.drain_s * 1e3:.0f} ms, "
                  f"{result.hard_cancelled} hard-cancelled"],
    ]
    if result.spans:
        rows.append(["trace spans", str(len(result.spans))])
    table = format_table(["load test", "value"], rows)
    if result.slo_report is not None:
        table += "\n\n" + result.slo_report.format()
    return table


def load_test_payload(result: LoadTestResult) -> dict:
    """Machine-readable single-run artifact (manifest-stamped)."""
    payload = {
        "bench": "load_test",
        "schema_version": 1,
        "params": {
            "shards": result.shards, "clients": result.clients,
            "app": result.app, "preset": result.preset,
            "latency_s": result.latency_s,
            "max_inflight": result.max_inflight,
            "duration_s": result.duration_s,
        },
        "sustained_rps": round(result.sustained_rps, 1),
        "offered_rps": round(result.offered_rps, 1),
        "shed": {"rate": round(result.shed_rate, 4),
                 "shed_503": result.shed_503,
                 "shed_connections": result.shed_connections,
                 "timeouts_408": result.timeouts_408},
        "latency_ms": {"p50": round(result.latency_ms_p50, 2),
                       "p90": round(result.latency_ms_p90, 2),
                       "p99": round(result.latency_ms_p99, 2)},
        "drain": {"drain_s": round(result.drain_s, 4),
                  "hard_cancelled": result.hard_cancelled},
        "client": {"sent": result.sent, "ok": result.ok,
                   "errors": result.errors,
                   "circuit_open": result.circuit_open,
                   "retries_after_hint": result.retries_after_hint,
                   "faults_injected": result.faults_injected},
        "series": result.series,
    }
    if result.timeseries:
        payload["timeseries"] = result.timeseries
    if result.slo_report is not None:
        payload["slo"] = result.slo_report.payload()
    if result.spans:
        payload["trace"] = {"spans": len(result.spans)}
    return stamp(payload, build_manifest(
        config={"bench": "load_test", "shards": result.shards,
                "clients": result.clients, "app": result.app,
                "preset": result.preset, "seed": result.seed,
                "latency_s": result.latency_s,
                "max_inflight": result.max_inflight},
        sampling={"duration_s": result.duration_s,
                  "warmup_s": result.warmup_s},
        seeds=[result.seed], workers=result.shards,
        wall_time_s=result.elapsed_s or None))
