"""Unit tests for the page-load engine."""

import pytest

from repro.browser import engine
from repro.browser.engine import BrowserConfig, BrowserSession
from repro.browser.metrics import FetchSource
from repro.core.modes import CachingMode, build_mode
from repro.experiments.figure1 import build_figure1_site
from repro.netsim.clock import DAY, HOUR
from repro.netsim.link import Link, NetworkConditions
from repro.netsim.sim import Simulator
from repro.server.push import PushPlanner, PushPolicy
from repro.server.site import OriginSite
from repro.server.static import StaticServer
from repro.workload.corpus import make_corpus

CONDITIONS = NetworkConditions.of(60, 40)


def load_once(setup, at_time=0.0, conditions=CONDITIONS):
    sim = Simulator()
    sim.run(until=at_time)
    link = Link(sim, conditions)
    return sim.run_process(setup.session.load(
        sim, link, setup.handler, "/index.html",
        mode_label=setup.label, push_urls_fn=setup.push_urls_fn,
        session_id=setup.session_id))


def load_sequence(setup, times, conditions=CONDITIONS):
    sim = Simulator()
    results = []
    for at_time in times:
        sim.run(until=at_time)
        link = Link(sim, conditions)
        results.append(sim.run_process(setup.session.load(
            sim, link, setup.handler, "/index.html",
            mode_label=setup.label, push_urls_fn=setup.push_urls_fn,
            session_id=setup.session_id)))
    return results


@pytest.fixture
def site_spec():
    return build_figure1_site()


class TestColdLoad:
    def test_all_resources_fetched(self, site_spec):
        setup = build_mode(CachingMode.STANDARD, site_spec)
        result = load_once(setup)
        urls = {event.url for event in result.events}
        assert urls == {"/index.html", "/a.css", "/b.js", "/c.js", "/d.jpg"}
        assert all(event.source is FetchSource.NETWORK
                   for event in result.events)

    def test_js_chain_is_sequential(self, site_spec):
        setup = build_mode(CachingMode.STANDARD, site_spec)
        result = load_once(setup)
        by_url = {e.url: e for e in result.events}
        assert by_url["/b.js"].end_s <= by_url["/c.js"].start_s
        assert by_url["/c.js"].end_s <= by_url["/d.jpg"].start_s

    def test_statics_start_after_parse_together(self, site_spec):
        setup = build_mode(CachingMode.STANDARD, site_spec)
        result = load_once(setup)
        by_url = {e.url: e for e in result.events}
        assert by_url["/a.css"].start_s == by_url["/b.js"].start_s

    def test_plt_positive_and_spans_events(self, site_spec):
        setup = build_mode(CachingMode.STANDARD, site_spec)
        result = load_once(setup)
        assert result.plt_s > 0
        assert result.onload_s >= max(e.end_s for e in result.events)

    def test_first_render_between_html_and_onload(self, site_spec):
        setup = build_mode(CachingMode.STANDARD, site_spec)
        result = load_once(setup)
        assert result.start_s < result.first_render_s <= result.onload_s


class TestRttSensitivity:
    def test_plt_monotone_in_rtt(self, site_spec):
        plts = []
        for rtt in (10, 40, 100, 200):
            setup = build_mode(CachingMode.STANDARD, site_spec)
            result = load_once(setup,
                               conditions=NetworkConditions.of(60, rtt))
            plts.append(result.plt_s)
        assert plts == sorted(plts)

    def test_plt_decreases_with_bandwidth(self, site_spec):
        plts = []
        for mbps in (2, 8, 60):
            setup = build_mode(CachingMode.STANDARD, site_spec)
            result = load_once(setup,
                               conditions=NetworkConditions.of(mbps, 40))
            plts.append(result.plt_s)
        assert plts == sorted(plts, reverse=True)


class TestStandardRevisit:
    def test_fresh_resources_served_locally(self, site_spec):
        setup = build_mode(CachingMode.STANDARD, site_spec)
        _, warm = load_sequence(setup, [0.0, 2 * HOUR])
        sources = {e.url: e.source for e in warm.events}
        assert sources["/a.css"] is FetchSource.HTTP_CACHE  # 1 week TTL
        assert sources["/c.js"] is FetchSource.HTTP_CACHE   # 1 day TTL
        assert sources["/b.js"] is FetchSource.REVALIDATED  # no-cache
        assert sources["/d.jpg"] is FetchSource.NETWORK     # expired+changed

    def test_warm_faster_than_cold(self, site_spec):
        setup = build_mode(CachingMode.STANDARD, site_spec)
        cold, warm = load_sequence(setup, [0.0, 2 * HOUR])
        assert warm.plt_s < cold.plt_s


class TestCatalystRevisit:
    def test_unchanged_resources_zero_network(self, site_spec):
        setup = build_mode(CachingMode.CATALYST, site_spec)
        _, warm = load_sequence(setup, [0.0, 2 * HOUR])
        sources = {e.url: e.source for e in warm.events}
        assert sources["/a.css"] is FetchSource.SW_CACHE
        assert sources["/b.js"] is FetchSource.SW_CACHE   # the saved RTT
        assert sources["/d.jpg"] is FetchSource.NETWORK   # truly changed

    def test_catalyst_not_slower_than_standard(self, site_spec):
        standard = build_mode(CachingMode.STANDARD, site_spec)
        catalyst = build_mode(CachingMode.CATALYST, site_spec)
        _, warm_std = load_sequence(standard, [0.0, 2 * HOUR])
        _, warm_cat = load_sequence(catalyst, [0.0, 2 * HOUR])
        assert warm_cat.plt_s <= warm_std.plt_s

    def test_sw_events_pay_zero_rtts(self, site_spec):
        setup = build_mode(CachingMode.CATALYST, site_spec)
        _, warm = load_sequence(setup, [0.0, 2 * HOUR])
        for event in warm.events:
            if event.source is FetchSource.SW_CACHE:
                assert event.rtts_paid == 0.0
                assert event.bytes_down == 0


class TestRttAttribution:
    def test_setup_charged_once_per_opened_connection(self, monkeypatch):
        """Only the fetch that opened a connection pays its handshake,
        not every fetch in flight while another one opened its own."""
        clients = []

        class RecordingClient(engine.NetworkClient):
            def __post_init__(self):
                super().__post_init__()
                clients.append(self)

        monkeypatch.setattr(engine, "NetworkClient", RecordingClient)
        setup = build_mode(CachingMode.STANDARD, make_corpus().sites[48])
        visits = load_sequence(setup, [0.0, DAY],
                               conditions=NetworkConditions.of(60, 10))
        setup_rtts = setup.session.config.connection_policy.setup_rtts
        assert len(clients) == len(visits) == 2
        for client, visit in zip(clients, visits):
            charged = [event for event in visit.events
                       if event.rtts_paid == 1.0 + setup_rtts]
            assert client.connections_opened > 0
            assert len(charged) == client.connections_opened


class TestNoCacheMode:
    def test_every_visit_is_cold(self, site_spec):
        setup = build_mode(CachingMode.NO_CACHE, site_spec)
        cold, warm = load_sequence(setup, [0.0, 2 * HOUR])
        assert all(e.source is FetchSource.NETWORK for e in warm.events)
        assert warm.plt_s == pytest.approx(cold.plt_s, rel=0.2)


class TestPushMode:
    def test_pushed_resources_not_requested(self, site_spec):
        setup = build_mode(CachingMode.PUSH_ALL, site_spec)
        result = load_once(setup)
        sources = {e.url: e.source for e in result.events}
        assert sources["/a.css"] is FetchSource.PUSHED
        assert sources["/b.js"] is FetchSource.PUSHED
        # js-discovered resources cannot be pushed (invisible to the DOM)
        assert sources["/c.js"] is FetchSource.NETWORK

    def test_push_bytes_ride_the_link(self, site_spec):
        sim = Simulator()
        setup = build_mode(CachingMode.PUSH_ALL, site_spec)
        link = Link(sim, CONDITIONS)
        sim.run_process(setup.session.load(
            sim, link, setup.handler, "/index.html",
            mode_label=setup.label, push_urls_fn=setup.push_urls_fn))
        # a.css (15k) + b.js (25k) pushed on top of html/c.js/d.jpg
        assert link.bytes_down > 90_000

    def test_push_wastes_bytes_on_warm_visits(self, site_spec):
        """The §5 criticism: push ignores the client cache state."""
        setup = build_mode(CachingMode.PUSH_ALL, site_spec)
        cold, warm = load_sequence(setup, [0.0, 2 * HOUR])
        pushed_warm = [e for e in warm.events
                       if e.source is FetchSource.PUSHED]
        assert pushed_warm  # still pushing what the client already has


class TestSessionMode:
    def test_js_resources_covered_on_third_visit(self, site_spec):
        setup = build_mode(CachingMode.CATALYST_SESSIONS, site_spec)
        results = load_sequence(setup, [0.0, HOUR, 2 * HOUR])
        third = {e.url: e.source for e in results[2].events}
        # /c.js was recorded in visit 1, stapled from visit 2 onwards;
        # by visit 3 it must serve from the SW cache with zero RTTs.
        assert third["/c.js"] is FetchSource.SW_CACHE


class TestHttp2:
    def test_single_connection_used(self, site_spec):
        setup = build_mode(CachingMode.STANDARD, site_spec,
                           BrowserConfig(http2=True))
        sim = Simulator()
        link = Link(sim, CONDITIONS)
        loader_result = sim.run_process(setup.session.load(
            sim, link, setup.handler, "/index.html", mode_label="h2"))
        assert loader_result.plt_s > 0

    def test_h2_faster_than_h1_cold(self, site_spec):
        """One handshake instead of up to six."""
        plts = {}
        for http2 in (False, True):
            setup = build_mode(CachingMode.STANDARD, site_spec,
                               BrowserConfig(http2=http2))
            plts[http2] = load_once(setup).plt_s
        assert plts[True] <= plts[False]

    def test_catalyst_still_wins_over_h2(self, site_spec):
        warm = {}
        for mode in (CachingMode.STANDARD, CachingMode.CATALYST):
            setup = build_mode(mode, site_spec, BrowserConfig(http2=True))
            _, w = load_sequence(setup, [0.0, 2 * HOUR])
            warm[mode] = w.plt_s
        assert warm[CachingMode.CATALYST] <= warm[CachingMode.STANDARD]


class TestDeterminism:
    def test_identical_runs_identical_timelines(self, site_spec):
        def run():
            setup = build_mode(CachingMode.CATALYST, site_spec)
            _, warm = load_sequence(setup, [0.0, 2 * HOUR])
            return [(e.url, e.start_s, e.end_s, e.source)
                    for e in warm.timeline()]
        assert run() == run()
