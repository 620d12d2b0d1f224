"""Integration: deployability without client changes (paper §1/§3).

"It is noteworthy that the proposed solution can be deployed without any
changes to the existing client browsers."  Two halves to that claim:

1. a Service-Worker-capable browser gets the full benefit purely from
   what the server sends (registration snippet + header) — no browser
   modification;
2. a client *without* Service Worker support (or with it disabled) must
   see exactly standard-caching behaviour against a Catalyst server —
   the header is advisory, the injection inert.
"""

import pytest

from repro.browser.engine import BrowserConfig
from repro.browser.metrics import FetchSource
from repro.core.catalyst import run_visit_sequence
from repro.core.modes import CachingMode, ModeSetup, build_mode
from repro.netsim.clock import DAY
from repro.netsim.link import NetworkConditions
from repro.server.catalyst import CatalystServer
from repro.server.site import OriginSite
from repro.workload.sitegen import freeze_site, generate_site

COND = NetworkConditions.of(60, 40)


@pytest.fixture(scope="module")
def site_spec():
    return freeze_site(generate_site("https://deg.example", seed=19,
                                     median_resources=30))


def catalyst_server_with_plain_browser(site_spec) -> ModeSetup:
    """A Catalyst origin serving a browser that ignores Service Workers."""
    from repro.browser.engine import BrowserSession
    site = OriginSite(site_spec)
    return ModeSetup(mode=CachingMode.STANDARD,
                     server=CatalystServer(site),
                     session=BrowserSession(BrowserConfig(
                         use_service_worker=False)))


class TestNoClientChanges:
    def test_plain_browser_unharmed_by_catalyst_server(self, site_spec):
        """SW-less client + Catalyst server == plain standard caching
        (modulo the few header bytes, which cost < 1% at 60 Mbps)."""
        degraded = catalyst_server_with_plain_browser(site_spec)
        degraded_outcomes = run_visit_sequence(degraded, COND, [0.0, DAY])

        standard = build_mode(CachingMode.STANDARD, site_spec)
        standard_outcomes = run_visit_sequence(standard, COND, [0.0, DAY])

        for index in (0, 1):
            a = degraded_outcomes[index].result
            b = standard_outcomes[index].result
            assert a.plt_s == pytest.approx(b.plt_s, rel=0.02)

    def test_plain_browser_never_uses_sw_sources(self, site_spec):
        degraded = catalyst_server_with_plain_browser(site_spec)
        outcomes = run_visit_sequence(degraded, COND, [0.0, DAY])
        for outcome in outcomes:
            for event in outcome.result.events:
                assert event.source is not FetchSource.SW_CACHE

    def test_plain_browser_cache_semantics_identical(self, site_spec):
        degraded = catalyst_server_with_plain_browser(site_spec)
        standard = build_mode(CachingMode.STANDARD, site_spec)
        warm_a = run_visit_sequence(degraded, COND, [0.0, DAY])[1].result
        warm_b = run_visit_sequence(standard, COND, [0.0, DAY])[1].result
        sources_a = {s.value: c for s, c in warm_a.count_by_source().items()}
        sources_b = {s.value: c for s, c in warm_b.count_by_source().items()}
        assert sources_a == sources_b

    def test_capable_browser_needs_no_modification(self, site_spec):
        """The full benefit arrives through ordinary web platform
        machinery: the registration is part of the served HTML, the map
        is an ordinary response header."""
        setup = build_mode(CachingMode.CATALYST, site_spec)
        outcomes = run_visit_sequence(setup, COND, [0.0, DAY])
        # registration happened because of served content alone
        assert setup.session.sw.registered
        warm_sources = outcomes[1].result.count_by_source()
        assert warm_sources.get(FetchSource.SW_CACHE, 0) > 0


class TestCorruptedMapDegradation:
    """ISSUE acceptance: a damaged ``X-Etag-Config`` must degrade to
    standard conditional revalidation — never an exception, never an
    unvouched resource served from the SW cache."""

    @pytest.mark.faults
    @pytest.mark.parametrize("corruption",
                             ["truncate", "garbage", "partial", "drop"])
    def test_corrupted_map_midflight_page_still_loads(self, site_spec,
                                                      corruption):
        from types import SimpleNamespace

        from repro.experiments.faults import HeaderCorruptingMiddlebox

        setup = build_mode(CachingMode.CATALYST, site_spec)
        # cold visit sees a clean map; every later map is damaged
        middlebox = HeaderCorruptingMiddlebox(setup.handler,
                                              mode=corruption,
                                              start_after=1)
        damaged = ModeSetup(mode=setup.mode,
                            server=SimpleNamespace(handle=middlebox),
                            session=setup.session)
        outcomes = run_visit_sequence(damaged, COND, [0.0, DAY, 2 * DAY])
        assert middlebox.corrupted > 0
        for outcome in outcomes:
            result = outcome.result
            assert result.failure_count == 0, result.failed_urls()
            assert len(result.events) == len(outcomes[0].result.events)

    @pytest.mark.faults
    def test_degraded_resources_revalidate_conditionally(self, site_spec):
        from types import SimpleNamespace

        from repro.experiments.faults import HeaderCorruptingMiddlebox

        setup = build_mode(CachingMode.CATALYST, site_spec)
        middlebox = HeaderCorruptingMiddlebox(setup.handler,
                                              mode="truncate",
                                              start_after=1)
        damaged = ModeSetup(mode=setup.mode,
                            server=SimpleNamespace(handle=middlebox),
                            session=setup.session)
        warm = run_visit_sequence(damaged, COND, [0.0, DAY])[1].result
        sources = warm.count_by_source()
        # no usable map on the warm document: zero SW hits, the cached
        # resources fall back to the standard conditional path
        assert sources.get(FetchSource.SW_CACHE, 0) == 0
        assert sources.get(FetchSource.REVALIDATED, 0) > 0
        assert setup.session.sw.degraded_documents >= 1

    @pytest.mark.faults
    def test_partial_map_salvages_surviving_entries(self, site_spec):
        from types import SimpleNamespace

        from repro.experiments.faults import HeaderCorruptingMiddlebox

        setup = build_mode(CachingMode.CATALYST, site_spec)
        middlebox = HeaderCorruptingMiddlebox(setup.handler,
                                              mode="partial",
                                              start_after=1)
        damaged = ModeSetup(mode=setup.mode,
                            server=SimpleNamespace(handle=middlebox),
                            session=setup.session)
        warm = run_visit_sequence(damaged, COND, [0.0, DAY])[1].result
        sources = warm.count_by_source()
        assert warm.failure_count == 0
        # surviving entries keep the zero-RTT path; broken ones revalidate
        assert sources.get(FetchSource.SW_CACHE, 0) > 0
        assert sources.get(FetchSource.REVALIDATED, 0) > 0

    @pytest.mark.faults
    def test_server_fail_open_serves_page_without_map(self, site_spec):
        from repro.core.etag_config import ETAG_CONFIG_HEADER
        from repro.http.messages import Request
        from repro.server.site import OriginSite

        site = OriginSite(site_spec)
        server = CatalystServer(site)
        server._build_config_for_html = _raises  # map construction breaks
        response = server.handle(Request(url="/index.html"), 0.0)
        assert response.status == 200
        assert response.headers.get(ETAG_CONFIG_HEADER) is None
        assert server.map_build_failures == 1


def _raises(*args, **kwargs):
    raise RuntimeError("synthetic map-construction failure")


class TestLossAcceptance:
    """ISSUE acceptance: 5 % request loss at 60 Mbps / 40 ms — both modes
    complete every load, and Catalyst's PLT does not exceed standard's."""

    @pytest.mark.faults
    def test_both_modes_complete_and_catalyst_not_worse(self, site_spec):
        from repro.browser.engine import BrowserConfig
        from repro.netsim.faults import FaultPlan

        plan = FaultPlan.request_loss(0.05, seed=0)
        config = BrowserConfig(request_timeout_s=3.0, max_retries=4)
        warm = {}
        for mode in (CachingMode.STANDARD, CachingMode.CATALYST):
            setup = build_mode(mode, site_spec, config)
            outcomes = run_visit_sequence(setup, COND, [0.0, DAY],
                                          fault_plan=plan)
            for outcome in outcomes:
                result = outcome.result
                assert result.failure_count == 0, (mode,
                                                   result.failed_urls())
            assert len(outcomes[0].result.events) \
                == len(outcomes[1].result.events)
            warm[mode] = outcomes[1].result
        assert warm[CachingMode.CATALYST].plt_s \
            <= warm[CachingMode.STANDARD].plt_s
