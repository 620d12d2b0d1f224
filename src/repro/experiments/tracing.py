"""Traced visit capture: one call, one cross-layer trace.

The glue between the experiment harness and :mod:`repro.obs` — run a
cold+warm visit sequence with a live tracer and hand back every export
shape (Chrome trace JSON for Perfetto, JSONL event log, trace-enriched
HAR).  Used by ``python -m repro trace`` and the end-to-end
observability tests, so both exercise exactly the same path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..browser.engine import BrowserConfig
from ..browser.trace import to_har
from ..core.catalyst import VisitOutcome, run_visit_sequence
from ..core.modes import CachingMode, build_mode
from ..netsim.faults import FaultPlan
from ..netsim.link import NetworkConditions
from ..obs import (Tracer, enrich_har, format_self_times, to_chrome_trace,
                   to_chrome_trace_json, to_collapsed, to_jsonl)
from ..workload.sitegen import SiteSpec, generate_site

__all__ = ["TraceCapture", "capture_visit_trace", "fleet_chrome_trace",
           "fleet_chrome_trace_json", "visit_site"]


def visit_site(seed: int) -> SiteSpec:
    """The synthetic site ``repro visit --seed N`` and ``repro trace
    --seed N`` load (the origin name seeds the site too)."""
    return generate_site(f"https://cli{seed}.example", seed=seed)


def fleet_chrome_trace(spans: Sequence[dict]) -> dict:
    """One Perfetto-loadable trace from merged pid-stamped span records.

    ``spans`` is what a traced load test leaves in
    ``LoadTestResult.spans``: driver-client and fleet-worker records
    (:func:`repro.obs.export.span_to_dict` shape) concatenated in
    arbitrary arrival order.  Sorting by start time keeps the emitted
    event stream stable across runs of the same capture, which makes
    the artifact diffable; the pid namespacing inside
    :func:`to_chrome_trace` keeps per-worker span IDs from aliasing so
    a client ``http.request`` can parent a ``server.request`` in
    another process.
    """
    ordered = sorted(spans, key=lambda s: (s.get("start_s", 0.0),
                                           s.get("pid", 0),
                                           s.get("span_id", 0)))
    return to_chrome_trace(ordered)


def fleet_chrome_trace_json(spans: Sequence[dict],
                            indent: Optional[int] = None) -> str:
    import json
    return json.dumps(fleet_chrome_trace(spans), indent=indent)


@dataclass
class TraceCapture:
    """A completed traced run plus its exporters."""

    outcomes: list[VisitOutcome]
    tracer: Tracer

    @property
    def trace_id(self) -> str:
        return self.tracer.trace_id

    def chrome_trace(self) -> dict:
        """Trace Event Format dict (Perfetto / chrome://tracing)."""
        return to_chrome_trace(self.tracer)

    def chrome_trace_json(self, indent: Optional[int] = None) -> str:
        return to_chrome_trace_json(self.tracer, indent=indent)

    def jsonl(self) -> str:
        """One JSON object per finished span (structured event log)."""
        return to_jsonl(self.tracer)

    def har(self, visit: int = -1) -> dict:
        """HAR of one visit (default: the last), trace-enriched."""
        har = to_har(self.outcomes[visit].result)
        return enrich_har(har, self.tracer, trace_id=self.trace_id)

    def flamegraph(self) -> str:
        """Collapsed-stack self-time profile (speedscope / inferno /
        flamegraph.pl input), weights in sim-microseconds."""
        return to_collapsed(self.tracer)

    def self_time_table(self, top: int = 12) -> str:
        """Human table of the heaviest spans by exclusive time."""
        return format_self_times(self.tracer, top=top)

    def summary(self) -> dict:
        plts = [round(outcome.plt_ms, 1) for outcome in self.outcomes]
        return dict(self.tracer.summary(), visits=len(self.outcomes),
                    plt_ms=plts)


def capture_visit_trace(page_url: str = "/index.html",
                        mode: CachingMode = CachingMode.CATALYST,
                        seed: int = 7,
                        conditions: Optional[NetworkConditions] = None,
                        visit_times_s: Sequence[float] = (0.0, 86_400.0),
                        fault_plan: Optional[FaultPlan] = None,
                        browser_config: Optional[BrowserConfig] = None,
                        tracer: Optional[Tracer] = None) -> TraceCapture:
    """Run a traced visit sequence against a synthetic site.

    Defaults mirror ``python -m repro visit``: the seed-7 site it loads
    (:func:`visit_site`) on median-5G-ish conditions, cold visit plus a
    one-day-later revisit, CacheCatalyst mode.  Every layer the
    sequence touches (netsim link, browser engine, SW cache, origin
    server) lands in one trace.
    """
    if conditions is None:
        conditions = NetworkConditions.of(60, 40)
    if tracer is None:
        tracer = Tracer()
    site = visit_site(seed)
    setup = build_mode(mode, site, browser_config) \
        if browser_config is not None else build_mode(mode, site)
    outcomes = run_visit_sequence(setup, conditions, list(visit_times_s),
                                  page_url=page_url,
                                  fault_plan=fault_plan, tracer=tracer)
    return TraceCapture(outcomes=outcomes, tracer=tracer)
