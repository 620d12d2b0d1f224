"""Integration: wall-clock PLT measurement over real sockets.

The end-to-end validation the reproduction hint asks for: a headless
loader fetching a live Catalyst origin through real TCP, with injected
server latency, measured on the OS clock.  The *orderings* the simulator
predicts must show up in real time measurements, and the loader runs
the simulator's own per-resource steps: on one site at the same times,
every URL comes from the same place in both.
"""

import asyncio
import time

import pytest

from repro.browser.engine import BrowserConfig, BrowserSession
from repro.browser.metrics import FetchSource
from repro.browser.real_loader import load_page
from repro.cache.policy import freshness_lifetime
from repro.core.catalyst import run_visit_sequence
from repro.core.modes import CachingMode, build_mode
from repro.html.parser import ResourceKind
from repro.http.aserver import AsyncHttpServer
from repro.netsim.link import NetworkConditions
from repro.server.adapter import as_async_handler
from repro.server.catalyst import CatalystServer
from repro.server.site import OriginSite
from repro.server.static import StaticServer
from repro.workload.headers_model import HeaderPolicy
from repro.workload.sitegen import (PageSpec, ResourceSpec, SiteSpec,
                                    freeze_site, generate_site)

#: injected one-way latency per response; small but >> localhost noise
LATENCY_S = 0.015
#: simulated seconds per wall second between the helper's visits: the
#: ~0.3 s gap ages content by more than a day
TIME_SCALE = 400_000.0
#: the revisit the DES comparison makes, on a clock both ends read
WARM_AT_S = 1.5 * 86_400.0


@pytest.fixture(scope="module")
def site_spec():
    return freeze_site(generate_site("https://rl.example", seed=29,
                                     median_resources=12))


def scripts_site(count, policy, change_times=(), html_change_times=()):
    """A hand-built page of ``count`` HTML-referenced scripts.

    Every script has ``policy`` and changes at ``change_times``; the
    document changes at ``html_change_times``.
    """
    resources = {}
    refs = []
    for index in range(count):
        url = f"/widget_{index}.js"
        resources[url] = ResourceSpec(
            url=url, kind=ResourceKind.SCRIPT, size_bytes=4_000,
            policy=policy, change_period_s=1e12,
            content_seed=900 + index, discovered_via="html",
            blocking=False, fixed_change_times=tuple(change_times))
        refs.append(url)
    page = PageSpec(url="/index.html", html_size_bytes=6_000,
                    html_change_period_s=1e12, html_content_seed=899,
                    html_refs=tuple(refs), resources=resources,
                    html_fixed_change_times=tuple(html_change_times))
    return SiteSpec(origin="https://reval.example", seed=0,
                    pages={"/index.html": page})


def revalidation_heavy_site():
    """A hand-built page whose warm visits are all revalidation traffic.

    Eight static-but-``no-cache`` resources: the status quo pays eight
    conditional round trips per revisit, CacheCatalyst pays none — a
    deterministic wall-clock discriminator, immune to TTL-menu luck.
    """
    return scripts_site(8, HeaderPolicy(mode="no-cache"))


def run(coro):
    return asyncio.run(coro)


async def _visits(site_spec, server_factory, config, visits=2):
    """Load the page ``visits`` times with ~1 simulated day between.

    Origin and loader read one clock running TIME_SCALE times faster
    than the wall, so the ~0.3 s gap between visits ages the served
    content and the cached copies alike, and short TTLs expire as in
    the paper's advance-the-clock methodology.
    """
    site = OriginSite(site_spec, materialize_fully=True)
    origin = server_factory(site)

    def clock():
        return time.monotonic() * TIME_SCALE

    handler = as_async_handler(origin, clock=clock)
    results = []
    async with AsyncHttpServer(handler, latency_s=LATENCY_S) as server:
        session = BrowserSession(config)
        for visit in range(visits):
            if visit:
                await asyncio.sleep(0.25)
            results.append(await load_page(session, server.base_url,
                                           "/index.html", clock=clock))
    return results


class ManualClock:
    """A clock the test sets; it stands still during a load."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


async def _load_at(handler, session, clock, times_s):
    """Load the page once at each time of ``clock``, which the handler
    (built over the same clock) reads too."""
    results = []
    async with AsyncHttpServer(handler) as server:
        for at_s in times_s:
            clock.now = at_s
            results.append(await load_page(session, server.base_url,
                                           clock=clock))
    return results


def _raises(*args, **kwargs):
    raise RuntimeError("synthetic map-construction failure")


class TestRealCatalyst:
    def test_cold_load_fetches_everything(self, site_spec):
        results = run(_visits(site_spec, CatalystServer,
                              BrowserConfig(use_service_worker=True),
                              visits=1))
        cold = results[0]
        assert cold.plt_s > 0
        expected = set(site_spec.index.resources) | {"/index.html"}
        assert {e.url for e in cold.events} == expected
        assert all(e.source is FetchSource.NETWORK for e in cold.events)

    def test_warm_visit_uses_sw_cache(self, site_spec):
        results = run(_visits(site_spec, CatalystServer,
                              BrowserConfig(use_service_worker=True)))
        warm = results[1]
        sources = warm.count_by_source()
        assert sources.get(FetchSource.SW_CACHE, 0) > 0

    def test_real_catalyst_faster_than_real_standard_warm(self):
        """The headline ordering, measured on the OS clock.

        Uses the revalidation-heavy page so the saved round trips are
        deterministic: standard must pay 8 conditional requests (> one
        injected latency even with 6-wide parallelism); catalyst answers
        them from the SW cache.
        """
        spec = revalidation_heavy_site()
        catalyst = run(_visits(spec, CatalystServer,
                               BrowserConfig(use_service_worker=True)))
        standard = run(_visits(spec, StaticServer, BrowserConfig()))
        assert catalyst[0].plt_s > LATENCY_S
        assert standard[1].request_count >= 9   # HTML + 8 revalidations
        assert catalyst[1].request_count <= 2   # HTML (+ nothing else)
        assert catalyst[1].plt_s < standard[1].plt_s

    def test_warm_visit_serves_every_mapped_resource_from_sw(self,
                                                             site_spec):
        """The stapled map names the tags the serving tier sends, so the
        SW answers every resource it covers: all that the HTML or a
        stylesheet reveals, except no-store (JS fetches stay unmapped)."""
        results = run(_visits(site_spec, CatalystServer,
                              BrowserConfig(use_service_worker=True)))
        sources = {event.url: event.source for event in results[1].events}
        covered = [url for url, spec in site_spec.index.resources.items()
                   if spec.discovered_via in ("html", "css")
                   and spec.policy.mode != "no-store"]
        assert covered
        for url in covered:
            assert sources[url] is FetchSource.SW_CACHE, url

    def test_warm_visit_wall_clock_speedup(self, site_spec):
        """Three cold + warm pairs, each on a fresh origin and session:
        the fastest warm load beats the fastest cold one.  One pair of
        ~50 ms loads on the OS clock can invert on a busy machine; the
        minimum of three discards that noise."""
        pairs = [run(_visits(site_spec, CatalystServer,
                             BrowserConfig(use_service_worker=True)))
                 for _ in range(3)]
        fastest_cold = min(cold.plt_s for cold, _ in pairs)
        fastest_warm = min(warm.plt_s for _, warm in pairs)
        assert fastest_warm < fastest_cold

    def test_served_etags_are_current(self, site_spec):
        results = run(_visits(site_spec, CatalystServer,
                              BrowserConfig(use_service_worker=True)))
        warm = results[1]
        oracle = OriginSite(site_spec)
        for event in warm.events:
            if event.source is FetchSource.SW_CACHE:
                # frozen site: time argument is irrelevant
                assert event.served_etag == oracle.etag_of(event.url, 0.0)


class TestSameStepsAsTheDes:
    """The wall-clock loader runs the DES's per-resource steps."""

    @pytest.mark.parametrize("mode", [CachingMode.STANDARD,
                                      CachingMode.CATALYST])
    def test_warm_sources_match_the_des(self, site_spec, mode):
        """Cold at 0 and warm at 1.5 days on one clock: every warm URL
        comes from where the DES's warm visit takes it."""
        oracle = OriginSite(site_spec)
        for url in (*site_spec.index.resources, "/index.html"):
            ttl = freshness_lifetime(oracle.respond(url, 0.0))
            # the DES ages entries by its load times too; a TTL this far
            # from the revisit cannot flip between the two
            assert ttl is None or abs(ttl - WARM_AT_S) > 60.0, url
        des = run_visit_sequence(build_mode(mode, site_spec),
                                 NetworkConditions.of(60, 40),
                                 [0.0, WARM_AT_S])
        expected = {event.url: event.source
                    for event in des[1].result.events}
        setup = build_mode(mode, site_spec, materialize_fully=True)
        clock = ManualClock()
        real = run(_load_at(as_async_handler(setup.server, clock=clock),
                            setup.session, clock, (0.0, WARM_AT_S)))
        assert {event.url: event.source
                for event in real[1].events} == expected

    def test_mapless_document_drops_the_held_map(self):
        """A revisit's document that arrives 200 without X-Etag-Config
        (the origin's fail-open path) must not leave the old map
        vouching: nothing comes from the SW cache."""
        spec = scripts_site(5, HeaderPolicy(mode="no-cache"),
                            html_change_times=(1_000.0,))
        setup = build_mode(CachingMode.CATALYST, spec,
                           materialize_fully=True)
        clock = ManualClock()
        handler = as_async_handler(setup.server, clock=clock)

        async def visits():
            async with AsyncHttpServer(handler) as server:
                await load_page(setup.session, server.base_url,
                                clock=clock)
                setup.server._build_config_for_html = _raises
                clock.now = 2_000.0
                return await load_page(setup.session, server.base_url,
                                       clock=clock)

        warm = run(visits())
        document = warm.events[0]
        assert document.url == "/index.html"
        assert document.source is FetchSource.NETWORK
        assert setup.server.map_build_failures == 1
        sources = warm.count_by_source()
        assert FetchSource.SW_CACHE not in sources
        assert sources[FetchSource.REVALIDATED] == 5

    def test_sw_veto_refetches_a_fresh_but_changed_script(self):
        """A week-long max-age script that changed at 1,000 s: the
        stapled map vetoes the HTTP cache's stale copy on a revisit at
        2,000 s, and the origin's current version is served."""
        spec = scripts_site(1, HeaderPolicy(mode="max-age",
                                            ttl_s=7 * 86_400.0),
                            change_times=(1_000.0,))
        setup = build_mode(CachingMode.CATALYST, spec,
                           materialize_fully=True)
        clock = ManualClock()
        real = run(_load_at(as_async_handler(setup.server, clock=clock),
                            setup.session, clock, (0.0, 2_000.0)))
        oracle = OriginSite(spec)
        old, current = (oracle.etag_of("/widget_0.js", at_s)
                        for at_s in (0.0, 2_000.0))
        assert old != current
        served = {event.url: event.served_etag for event in real[1].events}
        assert served["/widget_0.js"] == current

    def test_failed_subresource_does_not_abort_the_load(self, site_spec):
        """One image stalls past the request timeout: it ends as a 504
        and every other URL loads."""
        stalled = next(url for url, spec in site_spec.index.resources.items()
                       if spec.kind is ResourceKind.IMAGE
                       and spec.discovered_via == "html")
        setup = build_mode(CachingMode.STANDARD, site_spec,
                           BrowserConfig(request_timeout_s=0.2),
                           materialize_fully=True)
        clock = ManualClock()
        handler = as_async_handler(setup.server, clock=clock)

        async def stalling(request):
            if request.path == stalled:
                await asyncio.sleep(30.0)
            return handler(request)

        cold = run(_load_at(stalling, setup.session, clock, (0.0,)))[0]
        statuses = {event.url: event.status for event in cold.events}
        assert statuses.pop(stalled) == 504
        assert len(statuses) == len(site_spec.index.resources)
        assert set(statuses.values()) == {200}
