"""Command-line interface for the reproduction.

Thin wrappers over the experiment APIs so results are reachable without
writing Python::

    python -m repro figure1
    python -m repro figure3 --sites 6 --throughputs 8,60 --latencies 10,40
    python -m repro sweep --validate
    python -m repro fleet --users 2000 --visits 100000 --validate
    python -m repro motivation
    python -m repro crosspage
    python -m repro faultsweep --sites 4 --rates 0,0.05,0.1
    python -m repro visit --seed 7 --delay 1d --mbps 60 --rtt 40
    python -m repro trace /index.html --trace-out trace.json
    python -m repro serve --port 8080 --time-scale 3600
    python -m repro loadtest --clients 64 --duration 5 --preset flaky_5g

Results print to stdout; status lines (progress, artifact paths) go to
stderr through :mod:`repro.obs.log`, silenced by ``--quiet`` or
``REPRO_LOG_LEVEL=quiet``.  ``figure3`` accepts the same knobs as
:func:`repro.experiments.figure3.run_figure3`.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .obs.log import get_logger, set_level

__all__ = ["main", "build_parser"]

log = get_logger("cli")


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number list: {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CacheCatalyst reproduction (HotNets '24)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress status lines on stderr "
                             "(results still print to stdout)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("figure1", help="the worked example's three timelines")

    fig3 = sub.add_parser("figure3", help="the PLT-reduction grid")
    fig3.add_argument("--sites", type=int, default=6,
                      help="corpus subsample size (default 6)")
    fig3.add_argument("--throughputs", type=_float_list,
                      default=(8.0, 60.0), help="Mbit/s list, e.g. 8,30,60")
    fig3.add_argument("--latencies", type=_float_list,
                      default=(10.0, 40.0, 100.0),
                      help="RTT ms list, e.g. 10,40,100")
    fig3.add_argument("--delays", default="1min,6h,1w",
                      help="revisit delays, e.g. 1min,6h,1w")
    fig3.add_argument("--churn", action="store_true",
                      help="realistic content churn instead of clones")
    fig3.add_argument("--workers", type=int, default=0,
                      help="DES worker processes (default 0 = in-process)")

    sweep = sub.add_parser(
        "sweep",
        help="full-grid analytic PLT sweep (vectorized closed form); "
             "--validate replays a seeded subgrid through the DES")
    sweep.add_argument("--sites", type=int, default=None,
                       help="corpus subsample size (default: full corpus)")
    sweep.add_argument("--throughputs", type=_float_list,
                       default=(8.0, 16.0, 30.0, 60.0),
                       help="Mbit/s list (default 8,16,30,60)")
    sweep.add_argument("--latencies", type=_float_list,
                       default=(10.0, 20.0, 40.0, 80.0, 100.0),
                       help="RTT ms list (default 10,20,40,80,100)")
    sweep.add_argument("--delays", default="1min,1h,6h,1d,1w",
                       help="revisit delays (default 1min,1h,6h,1d,1w)")
    sweep.add_argument("--backend", default="auto",
                       choices=("auto", "numpy", "python"),
                       help="force the engine backend (default auto)")
    sweep.add_argument("--out", default=None,
                       help="also write the grid report to this file")
    sweep.add_argument("--validate", action="store_true",
                       help="re-run a seeded sampled subgrid through the "
                            "DES and gate on rank correlation")
    sweep.add_argument("--validate-sites", type=int, default=4,
                       help="subgrid size for --validate (default 4)")
    sweep.add_argument("--min-rho", type=float, default=0.85,
                       help="rank-correlation floor for --validate "
                            "(default 0.85)")

    fleet = sub.add_parser(
        "fleet",
        help="population-scale fleet pricing: Zipf popularity, cohort "
             "conditions, revisit mixtures; --validate gates the "
             "analytic backend against a sampled DES replay")
    fleet.add_argument("--users", type=int, default=20_000,
                       help="population size (default 20000)")
    fleet.add_argument("--visits", type=int, default=1_000_000,
                       help="measured visits to price (default 1000000)")
    fleet.add_argument("--warmup", type=int, default=None,
                       help="warmup visits (default visits/4)")
    fleet.add_argument("--alpha", type=float, default=0.8,
                       help="Zipf popularity exponent (default 0.8)")
    fleet.add_argument("--rate", type=float, default=12.0,
                       help="visits per user per day (default 12)")
    fleet.add_argument("--bins", type=int, default=24,
                       help="delay-mixture quantization bins (default 24)")
    fleet.add_argument("--backend", default="auto",
                       choices=("auto", "numpy", "python"),
                       help="analytic backend (default auto)")
    fleet.add_argument("--seed", type=int, default=2024,
                       help="population seed (default 2024)")
    fleet.add_argument("--out", default=None,
                       help="also write the machine-readable fleet "
                            "payload (JSON) to this file")
    fleet.add_argument("--des", action="store_true",
                       help="also replay a sampled schedule through the "
                            "DES and report per-cohort percentiles")
    fleet.add_argument("--sample", type=int, default=24,
                       help="schedule sample size for --des/--validate "
                            "(default 24)")
    fleet.add_argument("--workers", type=int, default=None,
                       help="DES worker processes (default one per CPU; "
                            "0 = in-process)")
    fleet.add_argument("--validate", action="store_true",
                       help="gate the analytic backend on Spearman rank "
                            "agreement with a sampled DES replay")
    fleet.add_argument("--min-rho", type=float, default=0.85,
                       help="rank-correlation floor for --validate "
                            "(default 0.85)")

    sub.add_parser("motivation", help="the §2.2 workload statistics")
    sub.add_parser("crosspage", help="first visits to inner pages")
    sub.add_parser("serverload",
                   help="origin request volume per mode (§6)")
    sub.add_parser("userweighted",
                   help="population-weighted revisit benefit")

    faults = sub.add_parser(
        "faultsweep",
        help="standard vs catalyst under injected network faults")
    faults.add_argument("--sites", type=int, default=4,
                        help="synthetic sites per cell (default 4)")
    faults.add_argument("--rates", type=_float_list,
                        default=(0.0, 0.02, 0.05, 0.10),
                        help="fault rates, e.g. 0,0.05,0.1")
    faults.add_argument("--mbps", type=float, default=60.0)
    faults.add_argument("--rtt", type=float, default=40.0)
    faults.add_argument("--seed", type=int, default=0)
    faults.add_argument("--timeout", type=float, default=3.0,
                        help="per-request watchdog seconds (default 3)")
    faults.add_argument("--retries", type=int, default=4,
                        help="retry budget per request (default 4)")
    faults.add_argument("--no-corruption", action="store_true",
                        help="skip the corrupted-map section")
    faults.add_argument("--out", default=None,
                        help="also write the report to this file")

    visit = sub.add_parser("visit", help="one cold+warm pair, all modes")
    visit.add_argument("--seed", type=int, default=7)
    visit.add_argument("--delay", default="1d")
    visit.add_argument("--mbps", type=float, default=60.0)
    visit.add_argument("--rtt", type=float, default=40.0)
    visit.add_argument("--waterfall", action="store_true",
                       help="print the warm catalyst waterfall")
    visit.add_argument("--trace-out", default=None,
                       help="also capture the catalyst pair as a Chrome "
                            "trace (Perfetto-loadable JSON) at this path")

    trace = sub.add_parser(
        "trace",
        help="trace one cold+warm pair across all layers")
    trace.add_argument("url", nargs="?", default="/index.html",
                       help="page path on the synthetic site "
                            "(default /index.html)")
    trace.add_argument("--seed", type=int, default=7)
    trace.add_argument("--delay", default="1d")
    trace.add_argument("--mbps", type=float, default=60.0)
    trace.add_argument("--rtt", type=float, default=40.0)
    trace.add_argument("--mode", default="catalyst",
                       choices=("no-cache", "standard", "catalyst"))
    trace.add_argument("--fault-rate", type=float, default=0.0,
                       help="mixed fault rate injected on the link "
                            "(makes retries visible in the trace)")
    trace.add_argument("--trace-out", default="trace.json",
                       help="Chrome trace JSON output path "
                            "(load in Perfetto / chrome://tracing)")
    trace.add_argument("--jsonl-out", default=None,
                       help="also write the span log as JSONL here")
    trace.add_argument("--har-out", default=None,
                       help="also write the warm visit's trace-enriched "
                            "HAR here")
    trace.add_argument("--flame-out", default=None,
                       help="also write a collapsed-stack self-time "
                            "flamegraph here (load in speedscope / "
                            "inferno / flamegraph.pl) and print the "
                            "self-time table")

    report = sub.add_parser("report",
                            help="bundle benchmark artifacts into HTML")
    report.add_argument("--results", default="benchmarks/results",
                        help="artifact directory")
    report.add_argument("--out", default="report.html")

    serve = sub.add_parser("serve",
                           help="run a Catalyst origin on localhost")
    serve.add_argument("--port", type=int, default=8080)
    serve.add_argument("--seed", type=int, default=42)
    serve.add_argument("--time-scale", type=float, default=3600.0,
                       help="simulated seconds per wall second")
    serve.add_argument("--shards", type=int, default=1,
                       help="SO_REUSEPORT worker processes (default 1: "
                            "in-process, no fork)")
    serve.add_argument("--drain", type=float, default=5.0,
                       help="graceful-drain window on SIGTERM/SIGINT "
                            "seconds (default 5)")
    serve.add_argument("--max-inflight", type=int, default=None,
                       help="per-shard inflight cap; above it requests "
                            "are shed 503 + Retry-After")
    serve.add_argument("--max-connections", type=int, default=None,
                       help="per-shard open-connection cap")

    load = sub.add_parser(
        "loadtest",
        help="sustained-load chaos harness against the serving tier")
    load.add_argument("--shards", type=int, default=1,
                      help="SO_REUSEPORT worker processes (default 1)")
    load.add_argument("--clients", type=int, default=32,
                      help="concurrent asyncio clients (default 32)")
    load.add_argument("--duration", type=float, default=5.0,
                      help="measured seconds (default 5)")
    load.add_argument("--warmup", type=float, default=0.5,
                      help="unmeasured ramp seconds (default 0.5)")
    load.add_argument("--latency", type=float, default=0.02,
                      help="injected per-request service seconds "
                           "(default 0.02)")
    load.add_argument("--inflight-cap", type=int, default=8,
                      help="per-shard inflight cap (default 8)")
    load.add_argument("--max-connections", type=int, default=None,
                      help="per-shard open-connection cap")
    load.add_argument("--app", default="static",
                      choices=("static", "catalyst"),
                      help="origin app (default static: isolates the "
                           "serving tier from cache logic)")
    load.add_argument("--preset", default="none",
                      choices=("none", "flaky_5g", "lossy_wifi",
                               "captive_portal"),
                      help="client-side fault preset (default none)")
    load.add_argument("--seed", type=int, default=0)
    load.add_argument("--out", default=None,
                      help="write the manifest-stamped run JSON here")
    load.add_argument("--trace-out", default=None,
                      help="trace the run (W3C context through every "
                           "worker) and write one merged Perfetto "
                           "trace JSON here")
    load.add_argument("--live", action="store_true",
                      help="print a per-interval rps/shed ticker to "
                           "stderr while the swarm runs")
    load.add_argument("--timeseries-out", default=None,
                      help="stream per-interval registry deltas to "
                           "this JSONL file")
    load.add_argument("--telemetry-interval", type=float, default=None,
                      help="telemetry sampling interval seconds "
                           "(default: the tally interval, 0.25)")
    load.add_argument("--slo", action="store_true",
                      help="evaluate the stock SLO policy over the "
                           "run's time series; exit non-zero on breach")
    load.add_argument("--slo-p99-ms", type=float, default=250.0,
                      help="with --slo: p99 http.request_ms objective "
                           "(default 250)")
    load.add_argument("--slo-max-shed", type=float, default=0.5,
                      help="with --slo: max shed rate objective "
                           "(default 0.5 — shedding is expected under "
                           "overload)")
    load.add_argument("--slo-max-errors", type=float, default=0.05,
                      help="with --slo: max 5xx error ratio objective "
                           "(default 0.05)")
    return parser


def _cmd_figure1() -> int:
    from .experiments.figure1 import run_figure1
    print(run_figure1().format())
    return 0


def _cmd_figure3(args: argparse.Namespace) -> int:
    from .experiments.figure3 import run_figure3
    from .netsim.clock import parse_duration
    try:
        delays = tuple(parse_duration(part)
                       for part in args.delays.split(","))
        result = run_figure3(sites=args.sites,
                             throughputs_mbps=args.throughputs,
                             latencies_ms=args.latencies,
                             delays_s=delays,
                             content_churn=args.churn,
                             max_workers=args.workers,
                             progress=lambda msg: log.info("progress",
                                                           step=msg))
    except (ValueError, RuntimeError) as exc:
        log.error("figure3-invalid", detail=str(exc))
        return 2
    print(result.format())
    summary = result.grid.summary()
    log.info("fleet-summary", pairs=summary["pairs"],
             warm_p50_ms=round(summary["warm_p50_ms"], 1),
             warm_p90_ms=round(summary["warm_p90_ms"], 1),
             warm_p99_ms=round(summary["warm_p99_ms"], 1),
             cache_hit_ratio=round(summary["cache_hit_ratio"], 3),
             warm_retries=summary["warm_retries"])
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    import pathlib

    from .experiments.sweep import run_sweep, validate_sweep
    from .netsim.clock import parse_duration

    try:
        delays = tuple(parse_duration(part)
                       for part in args.delays.split(","))
        result = run_sweep(sites=args.sites,
                           throughputs_mbps=args.throughputs,
                           latencies_ms=args.latencies,
                           delays_s=delays,
                           backend=args.backend)
    except (ValueError, RuntimeError) as exc:
        log.error("sweep-invalid", detail=str(exc))
        return 2
    text = result.format()
    print(text)
    log.info("sweep-done", estimates=result.estimates,
             backend=result.backend,
             rate=f"{result.estimates_per_s:,.0f}/s")
    if args.out:
        path = pathlib.Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text + "\n")
        log.info("wrote-artifact", path=path)
    if args.validate:
        validation = validate_sweep(sites=args.validate_sites,
                                    min_rho=args.min_rho,
                                    backend=args.backend)
        print()
        print(validation.format())
        if not validation.passed:
            log.error("sweep-validation-failed",
                      rho=f"{validation.rho:.3f}",
                      required=f"{args.min_rho:g}")
            return 1
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    import json
    import pathlib

    from .experiments.fleet import (default_population, fleet_payload,
                                    run_fleet_analytic, run_fleet_des,
                                    validate_fleet)
    from .workload.corpus import make_corpus

    try:
        spec = default_population(users=args.users, measured=args.visits,
                                  warmup=args.warmup, alpha=args.alpha,
                                  rate_per_user_day=args.rate,
                                  seed=args.seed)
        corpus = make_corpus()
        result = run_fleet_analytic(spec, corpus, bins=args.bins,
                                    backend=args.backend)
        print(result.format())
        log.info("fleet-done", visits=result.population_visits,
                 backend=result.backend,
                 rate=f"{result.visits_per_s:,.0f}/s")
        des = None
        if args.des:
            des = run_fleet_des(spec, corpus, sample=args.sample,
                                max_workers=args.workers)
            print()
            print(des.format())
        validation = None
        if args.validate:
            validation = validate_fleet(spec, corpus, sample=args.sample,
                                        min_rho=args.min_rho,
                                        backend=args.backend)
            print()
            print(validation.format())
    except (ValueError, RuntimeError) as exc:
        log.error("fleet-invalid", detail=str(exc))
        return 2
    if args.out:
        path = pathlib.Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(
            fleet_payload(result, des, validation), indent=2) + "\n")
        log.info("wrote-artifact", path=path)
    if validation is not None and not validation.passed:
        log.error("fleet-validation-failed",
                  rho=f"{validation.rho:.3f}",
                  required=f"{args.min_rho:g}")
        return 1
    return 0


def _cmd_motivation() -> int:
    from .experiments.motivation import measure_motivation
    print(measure_motivation().format())
    return 0


def _cmd_crosspage() -> int:
    from .experiments.cross_page import format_cross_page, run_cross_page
    print(format_cross_page(run_cross_page()))
    return 0


def _cmd_serverload() -> int:
    from .experiments.server_load import (format_server_load,
                                          run_server_load)
    print(format_server_load(run_server_load()))
    return 0


def _cmd_userweighted() -> int:
    from .experiments.user_weighted import run_user_weighted
    print(run_user_weighted().format())
    return 0


def _cmd_faultsweep(args: argparse.Namespace) -> int:
    from .experiments.faults import run_fault_sweep
    try:
        result = run_fault_sweep(
            rates=args.rates, mbps=args.mbps, rtt_ms=args.rtt,
            sites=args.sites, seed=args.seed, timeout_s=args.timeout,
            max_retries=args.retries,
            include_corruption=not args.no_corruption)
    except ValueError as exc:
        log.error("faultsweep-invalid", detail=str(exc))
        return 2
    text = result.format()
    print(text)
    if args.out:
        import pathlib
        path = pathlib.Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text + "\n")
        log.info("wrote-artifact", path=path)
    return 0 if result.acceptance_holds else 1


def _cmd_visit(args: argparse.Namespace) -> int:
    from .browser.trace import render_waterfall
    from .core.catalyst import run_visit_sequence
    from .core.modes import CachingMode, build_mode
    from .netsim.clock import parse_duration
    from .netsim.link import NetworkConditions
    from .obs import Tracer, to_chrome_trace_json
    from .workload.sitegen import generate_site

    site = generate_site(f"https://cli{args.seed}.example", seed=args.seed)
    conditions = NetworkConditions.of(args.mbps, args.rtt)
    delay_s = parse_duration(args.delay)
    print(f"site seed {args.seed}: {site.index.resource_count} resources; "
          f"{conditions.describe()}; revisit after {args.delay}\n")
    warm_catalyst = None
    tracer = Tracer() if args.trace_out else None
    for mode in (CachingMode.NO_CACHE, CachingMode.STANDARD,
                 CachingMode.CATALYST):
        setup = build_mode(mode, site)
        outcomes = run_visit_sequence(
            setup, conditions, [0.0, delay_s],
            tracer=tracer if mode is CachingMode.CATALYST else None)
        cold, warm = outcomes[0].result, outcomes[1].result
        print(f"{mode.value:>9}: cold {cold.plt_ms:7.1f} ms   "
              f"warm {warm.plt_ms:7.1f} ms   "
              f"({warm.bytes_down:,} warm bytes)")
        if mode is CachingMode.CATALYST:
            warm_catalyst = warm
    if args.waterfall and warm_catalyst is not None:
        print()
        print(render_waterfall(warm_catalyst))
    if tracer is not None:
        import pathlib
        path = pathlib.Path(args.trace_out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(to_chrome_trace_json(tracer) + "\n")
        log.info("wrote-trace", path=path, spans=len(tracer),
                 trace_id=tracer.trace_id)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import pathlib

    from .core.modes import CachingMode
    from .experiments.tracing import capture_visit_trace
    from .netsim.clock import parse_duration
    from .netsim.faults import FaultPlan
    from .netsim.link import NetworkConditions

    fault_plan = (FaultPlan.mixed(args.fault_rate, seed=args.seed)
                  if args.fault_rate > 0 else None)
    capture = capture_visit_trace(
        page_url=args.url,
        mode=CachingMode(args.mode),
        seed=args.seed,
        conditions=NetworkConditions.of(args.mbps, args.rtt),
        visit_times_s=[0.0, parse_duration(args.delay)],
        fault_plan=fault_plan)
    summary = capture.summary()
    print(f"trace {summary['trace_id']}: {summary['spans_retained']} "
          f"spans across {len(summary['categories'])} layers "
          f"({', '.join(summary['categories'])})")
    print(f"visits: cold {summary['plt_ms'][0]} ms, "
          + ", ".join(f"warm {plt} ms" for plt in summary['plt_ms'][1:]))
    path = pathlib.Path(args.trace_out)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(capture.chrome_trace_json() + "\n")
    log.info("wrote-trace", path=path, spans=summary["spans_retained"],
             trace_id=summary["trace_id"])
    if args.jsonl_out:
        jsonl_path = pathlib.Path(args.jsonl_out)
        jsonl_path.parent.mkdir(parents=True, exist_ok=True)
        jsonl_path.write_text(capture.jsonl())
        log.info("wrote-jsonl", path=jsonl_path)
    if args.har_out:
        import json
        har_path = pathlib.Path(args.har_out)
        har_path.parent.mkdir(parents=True, exist_ok=True)
        har_path.write_text(json.dumps(capture.har(), indent=2) + "\n")
        log.info("wrote-har", path=har_path)
    if args.flame_out:
        flame_path = pathlib.Path(args.flame_out)
        flame_path.parent.mkdir(parents=True, exist_ok=True)
        flame = capture.flamegraph()
        flame_path.write_text(flame)
        log.info("wrote-flame", path=flame_path,
                 stacks=len(flame.splitlines()))
        print()
        print("self time by span (sim clock):")
        print(capture.self_time_table())
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    import pathlib

    from .experiments.report_html import write_report
    results = pathlib.Path(args.results)
    if not results.is_dir():
        log.error("missing-artifact-dir", path=results,
                  hint="run `pytest benchmarks/` first")
        return 1
    out = write_report(results, pathlib.Path(args.out))
    print(f"wrote {out}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.shards > 1:
        return _cmd_serve_fleet(args)
    import asyncio
    import signal

    from .http.aserver import STATS_PATH, AsyncHttpServer
    from .obs import MetricsRegistry, Tracer
    from .server.adapter import as_async_handler
    from .server.catalyst import CatalystServer
    from .server.site import OriginSite
    from .workload.sitegen import generate_site

    site = OriginSite(generate_site(f"https://cli{args.seed}.example",
                                    seed=args.seed),
                      materialize_fully=True)
    catalyst = CatalystServer(site)
    handler = as_async_handler(catalyst, time_scale=args.time_scale)

    async def serve() -> None:
        server = AsyncHttpServer(
            handler, port=args.port, tracer=Tracer(),
            metrics=MetricsRegistry(),
            max_inflight=args.max_inflight,
            max_connections=args.max_connections,
            shed_seed=args.seed,
            stats_source=catalyst.stats)
        await server.start()
        print(f"Catalyst origin on {server.base_url} "
              f"(x{args.time_scale:g} time; Ctrl-C to stop; "
              f"stats at {STATS_PATH})")
        loop = asyncio.get_running_loop()
        stopping = asyncio.Event()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(sig, stopping.set)
        await stopping.wait()
        report = await server.stop(drain_s=args.drain)
        log.info("drained", **report)

    asyncio.run(serve())
    print("\nbye")
    return 0


def _cmd_serve_fleet(args: argparse.Namespace) -> int:
    import signal
    import time

    from .http.aserver import STATS_PATH
    from .http.fleet import FleetConfig, ServerFleet

    config = FleetConfig(
        port=args.port, shards=args.shards, seed=args.seed,
        app="catalyst", time_scale=args.time_scale,
        max_inflight=args.max_inflight,
        max_connections=args.max_connections)
    fleet = ServerFleet(config).start()
    print(f"Catalyst origin on {fleet.base_url} "
          f"({args.shards} SO_REUSEPORT shards; Ctrl-C to stop; "
          f"per-shard stats at {STATS_PATH})")

    def _interrupt(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _interrupt)
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        reports = fleet.stop(drain_s=args.drain)
        log.info("fleet-drained", workers=len(reports))
    print("\nbye")
    return 0


def _cmd_loadtest(args: argparse.Namespace) -> int:
    import json
    import pathlib

    from .experiments.load_test import (format_load_test,
                                        load_test_payload, run_load_test)
    objectives = None
    if args.slo:
        from .obs.slo import default_loadtest_policy
        objectives = default_loadtest_policy(
            p99_ms=args.slo_p99_ms, max_shed_rate=args.slo_max_shed,
            max_error_ratio=args.slo_max_errors)
    result = run_load_test(
        shards=args.shards, clients=args.clients,
        duration_s=args.duration, warmup_s=args.warmup, seed=args.seed,
        app=args.app, latency_s=args.latency,
        max_inflight=args.inflight_cap,
        max_connections=args.max_connections,
        preset=None if args.preset == "none" else args.preset,
        trace=args.trace_out is not None,
        telemetry_interval_s=args.telemetry_interval,
        timeseries_path=args.timeseries_out,
        slo=objectives, live=args.live)
    print(format_load_test(result))
    if args.trace_out:
        from .experiments.tracing import fleet_chrome_trace_json
        path = pathlib.Path(args.trace_out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(fleet_chrome_trace_json(result.spans, indent=2))
        log.info("wrote-trace", path=path, spans=len(result.spans))
    if args.timeseries_out:
        log.info("wrote-timeseries", path=args.timeseries_out,
                 intervals=len(result.timeseries))
    if args.out:
        path = pathlib.Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(load_test_payload(result), indent=2)
                        + "\n")
        log.info("wrote-artifact", path=path)
    if result.slo_report is not None and not result.slo_report.passed:
        log.error("slo-breach")
        return 1
    return 0 if result.errors == 0 else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.quiet:
        set_level("quiet")
    if args.command == "figure1":
        return _cmd_figure1()
    if args.command == "figure3":
        return _cmd_figure3(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "fleet":
        return _cmd_fleet(args)
    if args.command == "motivation":
        return _cmd_motivation()
    if args.command == "crosspage":
        return _cmd_crosspage()
    if args.command == "serverload":
        return _cmd_serverload()
    if args.command == "userweighted":
        return _cmd_userweighted()
    if args.command == "faultsweep":
        return _cmd_faultsweep(args)
    if args.command == "visit":
        return _cmd_visit(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "loadtest":
        return _cmd_loadtest(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
