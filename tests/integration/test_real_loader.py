"""Integration: wall-clock PLT measurement over real sockets.

The end-to-end validation the reproduction hint asks for: a headless
loader fetching a live Catalyst origin through real TCP, with injected
server latency, measured on the OS clock.  The *orderings* the simulator
predicts must show up in real time measurements.
"""

import asyncio

import pytest

from repro.browser.metrics import FetchSource
from repro.browser.real_loader import RealBrowserSession, RealLoaderConfig
from repro.http.aserver import AsyncHttpServer
from repro.server.adapter import as_async_handler
from repro.server.catalyst import CatalystServer
from repro.server.site import OriginSite
from repro.server.static import StaticServer
from repro.workload.sitegen import freeze_site, generate_site

#: injected one-way latency per response; small but >> localhost noise
LATENCY_S = 0.015


@pytest.fixture(scope="module")
def site_spec():
    return freeze_site(generate_site("https://rl.example", seed=29,
                                     median_resources=12))


def revalidation_heavy_site():
    """A hand-built page whose warm visits are all revalidation traffic.

    Eight static-but-``no-cache`` resources: the status quo pays eight
    conditional round trips per revisit, CacheCatalyst pays none — a
    deterministic wall-clock discriminator, immune to TTL-menu luck.
    """
    from repro.html.parser import ResourceKind
    from repro.workload.headers_model import HeaderPolicy
    from repro.workload.sitegen import PageSpec, ResourceSpec, SiteSpec

    resources = {}
    refs = []
    for index in range(8):
        url = f"/widget_{index}.js"
        resources[url] = ResourceSpec(
            url=url, kind=ResourceKind.SCRIPT, size_bytes=4_000,
            policy=HeaderPolicy(mode="no-cache"), change_period_s=1e12,
            content_seed=900 + index, discovered_via="html",
            blocking=False, fixed_change_times=())
        refs.append(url)
    page = PageSpec(url="/index.html", html_size_bytes=6_000,
                    html_change_period_s=1e12, html_content_seed=899,
                    html_refs=tuple(refs), resources=resources,
                    html_fixed_change_times=())
    return SiteSpec(origin="https://reval.example", seed=0,
                    pages={"/index.html": page})


def run(coro):
    return asyncio.run(coro)


async def _visits(site_spec, server_factory, config, visits=2):
    """Load the page ``visits`` times with ~1 simulated day between.

    time_scale maps the ~0.3 s wall gap between visits onto >1 day of
    simulated aging, so short TTLs expire like in the paper's
    advance-the-clock methodology.
    """
    site = OriginSite(site_spec, materialize_fully=True)
    origin = server_factory(site)
    handler = as_async_handler(origin, time_scale=400_000.0)
    results = []
    async with AsyncHttpServer(handler, latency_s=LATENCY_S) as server:
        session = RealBrowserSession(config)
        for visit in range(visits):
            if visit:
                await asyncio.sleep(0.25)
            results.append(await session.load(server.base_url,
                                              "/index.html"))
    return results


class TestRealCatalyst:
    def test_cold_load_fetches_everything(self, site_spec):
        results = run(_visits(site_spec, CatalystServer,
                              RealLoaderConfig(use_service_worker=True),
                              visits=1))
        cold = results[0]
        assert cold.plt_s > 0
        expected = set(site_spec.index.resources) | {"/index.html"}
        assert {e.url for e in cold.events} == expected
        assert all(e.source is FetchSource.NETWORK for e in cold.events)

    def test_warm_visit_uses_sw_cache(self, site_spec):
        results = run(_visits(site_spec, CatalystServer,
                              RealLoaderConfig(use_service_worker=True)))
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
                               RealLoaderConfig(use_service_worker=True)))
        standard = run(_visits(spec, StaticServer, RealLoaderConfig()))
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
                              RealLoaderConfig(use_service_worker=True)))
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
                             RealLoaderConfig(use_service_worker=True)))
                 for _ in range(3)]
        fastest_cold = min(cold.plt_s for cold, _ in pairs)
        fastest_warm = min(warm.plt_s for _, warm in pairs)
        assert fastest_warm < fastest_cold

    def test_served_etags_are_current(self, site_spec):
        results = run(_visits(site_spec, CatalystServer,
                              RealLoaderConfig(use_service_worker=True)))
        warm = results[1]
        oracle = OriginSite(site_spec)
        for event in warm.events:
            if event.source is FetchSource.SW_CACHE:
                # frozen site: time argument is irrelevant
                assert event.served_etag == oracle.etag_of(event.url, 0.0)
