"""Unit tests for the server-load experiment."""

import pytest

from repro.experiments.server_load import (ServerLoadResult,
                                           format_server_load,
                                           run_server_load)
from repro.workload.corpus import make_corpus


@pytest.fixture(scope="module")
def results():
    return run_server_load(corpus=make_corpus(size=6, seed=3), sites=2,
                           visit_times_s=(0.0, 3600.0, 86400.0))


class TestServerLoad:
    def test_all_modes_present(self, results):
        assert {r.mode for r in results} == {
            "no-cache", "standard", "catalyst", "catalyst-sessions"}

    def test_no_cache_has_no_304s(self, results):
        by_mode = {r.mode: r for r in results}
        assert by_mode["no-cache"].not_modified == 0

    def test_catalyst_reduces_origin_requests(self, results):
        by_mode = {r.mode: r for r in results}
        assert by_mode["catalyst"].origin_requests < \
            by_mode["standard"].origin_requests

    def test_only_catalyst_modes_staple(self, results):
        for result in results:
            if result.mode.startswith("catalyst"):
                assert result.maps_stapled > 0
                assert result.config_bytes > 0
            else:
                assert result.maps_stapled == 0
                assert result.config_bytes == 0

    def test_maps_stapled_once_per_html_visit(self, results):
        by_mode = {r.mode: r for r in results}
        # 2 sites x 3 visits = 6 HTML responses, each stapled
        assert by_mode["catalyst"].maps_stapled == 6

    def test_formatting(self, results):
        text = format_server_load(results)
        assert "origin requests" in text
        assert "vs standard" in text

    def test_deterministic(self):
        corpus = make_corpus(size=4, seed=9)
        a = run_server_load(corpus=corpus, sites=2,
                            visit_times_s=(0.0, 3600.0))
        b = run_server_load(corpus=corpus, sites=2,
                            visit_times_s=(0.0, 3600.0))
        assert a == b
