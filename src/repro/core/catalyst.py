"""High-level CacheCatalyst facade.

The one-import API for downstream users: wire a site (synthetic or your
own content via :class:`~repro.server.site.OriginSite`) to a Catalyst
server and a Catalyst-enabled browser session, and measure visits under a
network condition.

    from repro.core import Catalyst
    from repro.netsim import NetworkConditions

    catalyst = Catalyst.for_site(site_spec)
    timeline = catalyst.visit_sequence(
        NetworkConditions.of(60, 40), delays=["1h", "1d"])
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..browser.engine import BrowserConfig, BrowserSession
from ..browser.metrics import PageLoadResult
from ..netsim.clock import parse_duration
from ..netsim.faults import FaultPlan
from ..netsim.link import Link, NetworkConditions
from ..netsim.sim import Simulator
from ..server.catalyst import CatalystConfig, CatalystServer
from ..server.site import OriginSite
from ..workload.sitegen import SiteSpec
from .modes import CachingMode, ModeSetup, build_mode

__all__ = ["Catalyst", "VisitOutcome", "run_visit_sequence"]


@dataclass
class VisitOutcome:
    """One visit's results within a sequence."""

    at_s: float
    result: PageLoadResult

    @property
    def plt_ms(self) -> float:
        return self.result.plt_ms


def run_visit_sequence(setup: ModeSetup, conditions: NetworkConditions,
                       visit_times_s: Sequence[float],
                       page_url: str = "/index.html",
                       fault_plan: Optional[FaultPlan] = None,
                       tracer=None) -> list[VisitOutcome]:
    """Load ``page_url`` at each absolute time, sharing client state.

    One simulator carries the whole sequence so cache timestamps, churn
    versions, and session recordings stay on a single consistent timeline
    — exactly like the paper's advance-the-system-clock methodology.

    ``fault_plan`` attaches a :class:`~repro.netsim.faults.FaultPlan` to
    every visit's link, injecting losses/resets/truncations/stalls that
    the browser's retry machinery must absorb.

    ``tracer`` (a :class:`repro.obs.Tracer`) records spans from every
    layer of the sequence on the sim clock; its clock is rebound here
    because the simulator does not exist before this call.  The server
    and the Service Worker record into it only while the sequence runs:
    their own tracers come back when it ends, also on an exception.
    """
    sim = Simulator(tracer=tracer)
    server, sw = setup.server, setup.session.sw
    server_tracer = getattr(server, "tracer", None)
    sw_tracer = sw.tracer
    if tracer is not None and tracer.enabled:
        tracer.bind_clock(lambda: sim.now)
        if server_tracer is not None:
            server.tracer = tracer
    outcomes: list[VisitOutcome] = []
    try:
        for at_s in visit_times_s:
            if at_s < sim.now:
                raise ValueError("visit times must be non-decreasing")
            sim.run(until=at_s)
            # connections do not survive the gap between visits
            link = Link(sim, conditions, fault_plan=fault_plan)
            result = sim.run_process(
                setup.session.load(sim, link, setup.handler, page_url,
                                   mode_label=setup.label,
                                   push_urls_fn=setup.push_urls_fn,
                                   hint_urls_fn=setup.hint_urls_fn,
                                   session_id=setup.session_id),
                name=f"visit@{at_s}")
            outcomes.append(VisitOutcome(at_s=at_s, result=result))
    finally:
        if server_tracer is not None:
            server.tracer = server_tracer
        sw.tracer = sw_tracer
    return outcomes


@dataclass
class Catalyst:
    """Facade bundling a site with its Catalyst server and client."""

    site: OriginSite
    server: CatalystServer
    browser_config: BrowserConfig = field(default_factory=lambda:
                                          BrowserConfig(
                                              use_service_worker=True))

    @classmethod
    def for_site(cls, site_spec: SiteSpec,
                 server_config: CatalystConfig = CatalystConfig(),
                 browser_config: Optional[BrowserConfig] = None) -> "Catalyst":
        site = OriginSite(site_spec)
        if browser_config is None:
            browser_config = BrowserConfig(use_service_worker=True)
        return cls(site=site,
                   server=CatalystServer(site, config=server_config),
                   browser_config=browser_config)

    def new_session(self) -> BrowserSession:
        return BrowserSession(self.browser_config)

    def visit_sequence(self, conditions: NetworkConditions,
                       delays: Sequence[str | float],
                       page_url: str = "/index.html") -> list[VisitOutcome]:
        """Cold visit at t=0 plus one warm visit per cumulative delay."""
        times = [0.0]
        for delay in delays:
            times.append(times[-1] + parse_duration(delay))
        setup = ModeSetup(mode=CachingMode.CATALYST, server=self.server,
                          session=self.new_session())
        return run_visit_sequence(setup, conditions, times,
                                  page_url=page_url)

    def compare_with_standard(self, conditions: NetworkConditions,
                              delay: str | float,
                              page_url: str = "/index.html"
                              ) -> dict[str, float]:
        """Warm-visit PLT (ms) of catalyst vs standard after ``delay``."""
        delay_s = parse_duration(delay)
        out: dict[str, float] = {}
        for mode in (CachingMode.STANDARD, CachingMode.CATALYST):
            setup = build_mode(mode, self.site.spec, self.browser_config
                               if mode is CachingMode.CATALYST
                               else BrowserConfig())
            outcomes = run_visit_sequence(setup, conditions,
                                          [0.0, delay_s],
                                          page_url=page_url)
            out[mode.value] = outcomes[-1].plt_ms
        return out
