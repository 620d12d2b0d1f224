"""Sustained-load chaos harness for the hardened serving tier.

Drives a swarm of concurrent asyncio clients — each its own
:class:`~repro.http.aclient.AsyncHttpClient` with one keep-alive
connection, a retry budget, ``Retry-After`` honouring, and a circuit
breaker — against a sharded origin, optionally misbehaving per a seeded
:class:`~repro.netsim.faults.FaultPlan`.  The shard count decides only
where the shards run: one is a :class:`~repro.http.fleet.LocalFleet` in
the driver's own loop, more are a :class:`~repro.http.fleet.ServerFleet`
of worker processes.  Both answer in one shape, so totals, the merged
registry, spans, drain reports and telemetry are read one way.

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

Every per-interval row of a run comes from one grid: its origin is the
swarm's start and its width ``interval_s``.  The swarm counts into its
own registry as it goes (``load.*``; completions only inside the
measured window) and every shard into its own; an
:class:`~repro.obs.timeseries.IntervalSampler` diffs each at the end
of every interval into one
:class:`~repro.obs.timeseries.TimeSeriesRecorder`.  ``timeseries`` is
its rows, ``series`` the swarm's counters read from them.
"""

from __future__ import annotations

import asyncio
import math
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from ..http.aclient import AsyncHttpClient
from ..http.errors import CircuitOpen, HttpError
from ..http.fleet import FleetConfig, LocalFleet, ServerFleet
from ..http.messages import Request
from ..netsim.faults import (FaultKind, FaultPlan, captive_portal,
                             flaky_5g, lossy_wifi)
from ..obs.export import span_to_dict
from ..obs.manifest import build_manifest, stamp
from ..obs.metrics import MetricsRegistry
from ..obs.slo import Objective, SloReport
from ..obs.slo import evaluate as evaluate_slo
from ..obs.timeseries import IntervalSampler, TimeSeriesRecorder
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
    #: per-interval {"t_s", "sent", "ok", "shed"} client rows, on
    #: ``timeseries``' grid (zero during warmup and after the window)
    series: list = field(default_factory=list)
    metrics_snapshot: dict = field(default_factory=dict)
    elapsed_s: float = 0.0
    #: pid-stamped span dicts (driver clients + fleet workers) when the
    #: run was traced; feed straight into ``obs.export.to_chrome_trace``
    spans: list = field(default_factory=list)
    #: per-interval {"t_s", "metrics"} snapshots of the swarm's and
    #: every shard's registry deltas, from the swarm's start
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


#: the swarm's counters, as ``load.<name>``
_CLIENT_COUNTERS = ("sent", "ok", "client_shed", "errors", "circuit_open",
                    "faults_injected")


async def _apply_fault(plan: Optional[FaultPlan], url: str, attempt: int,
                       client: AsyncHttpClient,
                       swarm: MetricsRegistry) -> bool:
    """Client-side chaos for one attempt; True = skip the request."""
    if plan is None:
        return False
    decision = plan.decide(url, attempt)
    if decision is None:
        return False
    swarm.counter("load.faults_injected").inc()
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
                       client_kwargs: dict,
                       swarm: MetricsRegistry) -> AsyncHttpClient:
    sent = swarm.counter("load.sent")
    ok = swarm.counter("load.ok")
    shed = swarm.counter("load.client_shed")
    errors = swarm.counter("load.errors")
    circuit_open = swarm.counter("load.circuit_open")
    latency_hist = swarm.histogram("load.latency_ms")
    client = AsyncHttpClient(**client_kwargs)
    attempt = 0
    rotation = 0
    try:
        while time.monotonic() < stop_at:
            path = paths[(index + rotation) % len(paths)]
            rotation += 1
            url = base_url + path
            skip = await _apply_fault(plan, f"client{index}{url}",
                                      attempt, client, swarm)
            attempt += 1
            if skip:
                continue
            started = time.monotonic()
            try:
                result = await client.request(Request(url=url))
            except CircuitOpen:
                circuit_open.inc()
                await asyncio.sleep(0.05)
                continue
            except (HttpError, OSError, asyncio.TimeoutError):
                errors.inc()
                continue
            now = time.monotonic()
            if not measure_from <= now < stop_at:
                continue
            sent.inc()
            if result.response.status == 200:
                ok.inc()
                latency_hist.observe((now - started) * 1e3)
            elif result.response.status == 503:
                shed.inc()
            else:
                errors.inc()
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
                  timeseries_path: Optional[str] = None,
                  slo: Optional[Sequence[Objective]] = None,
                  live: bool = False) -> LoadTestResult:
    """One sustained-load run against a (possibly sharded) origin.

    One shard is served inside the driving event loop, with no worker
    processes; more shards spawn a :class:`ServerFleet` of ``shards``
    worker processes.  Either way the swarm's and every shard's
    registry deltas land in ``result.timeseries`` on one grid of
    ``interval_s`` rows from the swarm's start (and, with
    ``timeseries_path``, in a JSONL file), and ``result.series`` reads
    the swarm's rows.  The swarm's registry and every shard's merge
    into ``metrics`` at the end.

    ``trace`` runs driver clients and origin under real tracers with
    W3C trace-context propagation, landing pid-stamped span dicts in
    ``result.spans``; ``slo`` evaluates objectives over the time series
    into ``result.slo_report``; ``live`` prints each interval's client
    counts to stderr as the interval closes.
    """
    plan, preset_name = _resolve_plan(preset, seed)
    registry = metrics if metrics is not None else MetricsRegistry()
    recorder = TimeSeriesRecorder(interval_s=interval_s,
                                  path=timeseries_path)
    tracer = Tracer() if trace else None
    config = FleetConfig(
        shards=shards, seed=seed, app=app, latency_s=latency_s,
        time_scale=time_scale, max_inflight=max_inflight,
        max_connections=max_connections,
        max_requests_per_connection=max_requests_per_connection,
        retry_after_s=retry_after_s, trace=trace)
    if paths is None:
        paths = ["/index.html"] if app == "catalyst" else ["/"]
    result = LoadTestResult(
        shards=shards, clients=clients, duration_s=duration_s,
        warmup_s=warmup_s, seed=seed, app=app, latency_s=latency_s,
        max_inflight=max_inflight, preset=preset_name)
    swarm = MetricsRegistry()
    client_kwargs = [_client_kwargs(honor_retry_after, max_retries,
                                    timeout_s, seed, i, tracer=tracer)
                     for i in range(clients)]
    started = time.perf_counter()
    loop = asyncio.new_event_loop()
    try:
        fleet = (LocalFleet(config, loop, tracer=tracer) if shards == 1
                 else ServerFleet(config)).start()

        def record(delta: dict, index: int) -> None:
            """The swarm's delta, and every shard delta sent so far."""
            recorder.add(delta, index, source="client")
            _record_telemetry(recorder, fleet.drain_telemetry())
            if live:
                _print_live(delta, index, interval_s)

        try:
            result.retries_after_hint = loop.run_until_complete(_swarm(
                fleet, paths, plan, client_kwargs, warmup_s, duration_s,
                interval_s, swarm, record))
            stats = fleet.stats()
            if tracer is not None:
                # driver-side client spans + every worker's server
                # spans, pid-stamped so IDs never alias across processes
                result.spans = ([span_to_dict(span, pid=os.getpid())
                                 for span in tracer.spans()]
                                + fleet.collect_spans())
        finally:
            reports = fleet.stop(drain_s)
            if reports:
                result.drain_s = max(r.get("drain_s", 0.0)
                                     for r in reports)
                result.hard_cancelled = sum(r.get("hard_cancelled", 0)
                                            for r in reports)
            # a shard's final delta follows its drain
            _record_telemetry(recorder, fleet.drain_telemetry())
    finally:
        loop.close()
        recorder.close()
    result.elapsed_s = time.perf_counter() - started
    totals = stats["totals"]
    result.served_total = totals["requests_served"]
    result.shed_503 = totals["shed_503"]
    result.shed_connections = totals["shed_connections"]
    result.timeouts_408 = totals["timeouts_408"]
    (result.sent, result.ok, result.client_shed, result.errors,
     result.circuit_open, result.faults_injected) = (
        swarm.counter(f"load.{name}").value for name in _CLIENT_COUNTERS)
    latency_hist = swarm.histogram("load.latency_ms")
    result.latency_ms_p50 = latency_hist.percentile(50)
    result.latency_ms_p90 = latency_hist.percentile(90)
    result.latency_ms_p99 = latency_hist.percentile(99)
    result.timeseries = recorder.interval_snapshots()
    result.series = [{"t_s": row["t_s"],
                      "sent": row["metrics"].get("load.sent", 0),
                      "ok": row["metrics"].get("load.ok", 0),
                      "shed": row["metrics"].get("load.client_shed", 0)}
                     for row in result.timeseries]
    if slo:
        result.slo_report = evaluate_slo(list(slo), recorder)
    registry.merge(swarm.dump())
    for worker in stats["workers"]:
        registry.merge(worker["metrics"])
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


async def _swarm(fleet, paths: Sequence[str], plan: Optional[FaultPlan],
                 client_kwargs: list[dict], warmup_s: float,
                 duration_s: float, interval_s: float,
                 swarm: MetricsRegistry, record) -> int:
    """Run the clients from one origin, sampling every registry on its
    grid; returns the Retry-After hints the clients honoured."""
    origin = time.monotonic()
    fleet.sample(origin, interval_s)
    sampler = IntervalSampler(swarm, record, interval_s, origin)
    sampler.start()
    measure_from = origin + warmup_s
    stop_at = measure_from + duration_s
    try:
        finished = await asyncio.gather(*(
            _client_loop(i, fleet.base_url, paths, stop_at, measure_from,
                         plan, kwargs, swarm)
            for i, kwargs in enumerate(client_kwargs)))
    finally:
        await sampler.stop()
    return sum(client.retries_after_hint for client in finished)


def _record_telemetry(recorder: TimeSeriesRecorder,
                      messages: list[dict]) -> None:
    for message in messages:
        recorder.add(message["delta"], message["interval"],
                     source=message["pid"])


def _print_live(delta: dict, index: int, interval_s: float) -> None:
    """One stderr line per closed interval of the swarm's counters."""
    sent, ok, shed, errors = (
        delta.get(f"load.{name}", {}).get("value", 0)
        for name in ("sent", "ok", "client_shed", "errors"))
    print(f"[live] t={index * interval_s:7.2f}s  "
          f"rps={ok / interval_s:8.1f}  "
          f"sent={sent:6d}  ok={ok:6d}  "
          f"shed={shed:5d}  errors={errors:5d}",
          file=sys.stderr, flush=True)


def _emit_metrics(registry: MetricsRegistry, result: LoadTestResult,
                  interval_s: float) -> None:
    """Fold the run's server-side shed total and headline gauges into
    the registry, and each measured-window row's rps."""
    registry.counter("load.shed").inc(result.shed_503
                                      + result.shed_connections)
    registry.gauge("load.clients").set(result.clients)
    registry.gauge("load.shards").set(result.shards)
    registry.gauge("load.sustained_rps").set(result.sustained_rps)
    registry.gauge("load.shed_rate").set(result.shed_rate)
    registry.gauge("load.drain_s").set(result.drain_s)
    registry.gauge("load.hard_cancelled").set(result.hard_cancelled)
    interval_rps = registry.histogram("load.interval_rps")
    # the rows that overlap [warmup, warmup + duration)
    first = int(result.warmup_s / interval_s + 1e-9)
    end = math.ceil((result.warmup_s + result.duration_s) / interval_s
                    - 1e-9)
    for row in result.series[first:end]:
        interval_rps.observe(row["ok"] / interval_s)


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
        "timeseries": result.timeseries,
    }
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
