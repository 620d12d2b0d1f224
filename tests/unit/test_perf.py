"""Unit tests for the percentile helper and the origin's cache counters."""

import pytest

from repro.http.messages import Request
from repro.obs.metrics import percentile
from repro.server.catalyst import CatalystServer
from repro.server.site import OriginSite
from repro.workload.sitegen import generate_site


class TestPercentile:
    def test_midpoint_interpolation(self):
        assert percentile([1, 2, 3, 4], 50) == 2.5

    def test_extremes(self):
        samples = [5, 1, 9, 3]
        assert percentile(samples, 0) == 1.0
        assert percentile(samples, 100) == 9.0

    def test_single_sample(self):
        assert percentile([42], 99) == 42.0

    def test_unsorted_input(self):
        assert percentile([30, 10, 20], 50) == 20.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            percentile([1], 101)


class TestPerfCounters:
    def test_parses_avoided_is_ref_hits(self):
        server = CatalystServer(
            OriginSite(generate_site("https://perf.example", seed=41)))
        server.handle(Request(url="/index.html"), 0.0)
        server.handle(Request(url="/index.html"), 1.0)
        # the unchanged document's second request is a page-memo hit,
        # which is a parse avoided
        stats = server.stats()
        assert stats["html_parses"] == 1
        assert stats["render_hits"] == 1
