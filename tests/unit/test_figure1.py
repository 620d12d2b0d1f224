"""Unit tests for the Figure 1 scenario reproduction."""

import pytest

from repro.browser.metrics import FetchSource
from repro.experiments.figure1 import (FIGURE1_REVISIT_DELAY_S,
                                       build_figure1_site, run_figure1)
from repro.netsim.clock import HOUR
from repro.server.site import OriginSite


class TestSiteConstruction:
    def test_exact_resource_set(self):
        site = build_figure1_site()
        assert set(site.index.resources) == {"/a.css", "/b.js", "/c.js",
                                             "/d.jpg"}
        assert site.index.html_refs == ("/a.css", "/b.js")

    def test_dependency_chain(self):
        site = build_figure1_site()
        assert site.index.resources["/b.js"].children == ("/c.js",)
        assert site.index.resources["/c.js"].children == ("/d.jpg",)

    def test_only_djpg_changes_within_two_hours(self):
        origin = OriginSite(build_figure1_site())
        assert origin.changed_between("/d.jpg", 0.0,
                                      FIGURE1_REVISIT_DELAY_S)
        for url in ("/index.html", "/a.css", "/b.js", "/c.js"):
            assert not origin.changed_between(url, 0.0,
                                              FIGURE1_REVISIT_DELAY_S)

    def test_djpg_changes_at_90_minutes(self):
        origin = OriginSite(build_figure1_site())
        assert not origin.changed_between("/d.jpg", 0.0, 1.4 * HOUR)
        assert origin.changed_between("/d.jpg", 0.0, 1.6 * HOUR)


class TestPanels:
    @pytest.fixture(scope="class")
    def panels(self):
        return run_figure1()

    def test_panel_a_all_network(self, panels):
        assert all(e.source is FetchSource.NETWORK
                   for e in panels.cold.events)

    def test_panel_b_matches_paper(self, panels):
        sources = {e.url: e.source for e in panels.standard_revisit.events}
        assert sources["/a.css"] is FetchSource.HTTP_CACHE
        assert sources["/b.js"] is FetchSource.REVALIDATED
        assert sources["/c.js"] is FetchSource.HTTP_CACHE
        assert sources["/d.jpg"] is FetchSource.NETWORK

    def test_panel_c_matches_paper(self, panels):
        sources = {e.url: e.source for e in panels.catalyst_revisit.events}
        assert sources["/a.css"] is FetchSource.SW_CACHE
        assert sources["/b.js"] is FetchSource.SW_CACHE
        assert sources["/d.jpg"] is FetchSource.NETWORK

    def test_plt_ordering_a_b_c(self, panels):
        assert panels.cold.plt_s > panels.standard_revisit.plt_s
        assert panels.standard_revisit.plt_s > panels.catalyst_revisit.plt_s

    def test_rtts_paid_per_panel(self, panels):
        """Cold: five requests, two of them on new connections (2 setup
        RTTs each); revisits reuse the connection the document opened."""
        assert panels.cold.rtts_paid == 9
        assert panels.standard_revisit.rtts_paid == 5
        assert panels.catalyst_revisit.rtts_paid == 4

    def test_panel_c_network_requests_minimal(self, panels):
        """Figure 1c: only the base document and d.jpg touch the network."""
        network = {e.url for e in panels.catalyst_revisit.events
                   if e.source in (FetchSource.NETWORK,
                                   FetchSource.REVALIDATED)}
        assert network == {"/index.html", "/d.jpg"}

    def test_format_mentions_all_panels(self, panels):
        text = panels.format()
        assert "(a)" in text and "(b)" in text and "(c)" in text
