"""Unit tests for the high-level Catalyst facade."""

import pytest

from repro.core.catalyst import Catalyst, run_visit_sequence
from repro.core.modes import CachingMode, build_mode
from repro.netsim.clock import HOUR
from repro.netsim.link import NetworkConditions
from repro.workload.sitegen import generate_site

COND = NetworkConditions.of(60, 40)


@pytest.fixture(scope="module")
def site_spec():
    return generate_site("https://facade.example", seed=47,
                         median_resources=20)


class TestFacade:
    def test_for_site_builds_catalyst_stack(self, site_spec):
        catalyst = Catalyst.for_site(site_spec)
        assert catalyst.browser_config.use_service_worker
        assert catalyst.server.site.spec is site_spec

    def test_visit_sequence_cold_plus_delays(self, site_spec):
        catalyst = Catalyst.for_site(site_spec)
        outcomes = catalyst.visit_sequence(COND, delays=["1 min", "1 h"])
        assert len(outcomes) == 3
        assert outcomes[0].at_s == 0.0
        assert outcomes[1].at_s == 60.0
        assert outcomes[2].at_s == 60.0 + 3600.0
        assert all(o.plt_ms > 0 for o in outcomes)

    def test_visit_sequence_warm_faster(self, site_spec):
        catalyst = Catalyst.for_site(site_spec)
        outcomes = catalyst.visit_sequence(COND, delays=["1 h"])
        assert outcomes[1].plt_ms < outcomes[0].plt_ms

    def test_compare_with_standard_keys(self, site_spec):
        catalyst = Catalyst.for_site(site_spec)
        comparison = catalyst.compare_with_standard(COND, "1 h")
        assert set(comparison) == {"standard", "catalyst"}
        assert comparison["catalyst"] <= comparison["standard"]

    def test_numeric_delay_accepted(self, site_spec):
        catalyst = Catalyst.for_site(site_spec)
        comparison = catalyst.compare_with_standard(COND, 3600.0)
        assert comparison["catalyst"] > 0

    def test_new_session_is_fresh(self, site_spec):
        catalyst = Catalyst.for_site(site_spec)
        session = catalyst.new_session()
        assert session.http_cache.entry_count == 0
        assert not session.sw.registered


class TestRunVisitSequence:
    def test_rejects_time_travel(self, site_spec):
        setup = build_mode(CachingMode.STANDARD, site_spec)
        with pytest.raises(ValueError, match="non-decreasing"):
            run_visit_sequence(setup, COND, [HOUR, 0.0])

    def test_single_visit(self, site_spec):
        setup = build_mode(CachingMode.STANDARD, site_spec)
        outcomes = run_visit_sequence(setup, COND, [0.0])
        assert len(outcomes) == 1

    def test_shared_state_across_visits(self, site_spec):
        setup = build_mode(CachingMode.STANDARD, site_spec)
        run_visit_sequence(setup, COND, [0.0, HOUR])
        assert setup.session.visits == 2
        assert setup.session.http_cache.entry_count > 0

    def test_a_traced_sequence_unbinds_its_tracer(self):
        """A later untraced sequence on the same setup records nothing
        into an earlier sequence's tracer."""
        from repro.obs.trace import Tracer
        from repro.workload.corpus import make_corpus

        site = next(iter(make_corpus(size=3, seed=2024)))
        setup = build_mode(CachingMode.CATALYST, site)
        server_tracer, sw_tracer = setup.server.tracer, \
            setup.session.sw.tracer
        tracer = Tracer()
        run_visit_sequence(setup, COND, [0.0], tracer=tracer)
        spans = len(tracer.spans())
        assert spans > 0
        run_visit_sequence(setup, COND, [24 * HOUR])
        assert len(tracer.spans()) == spans
        assert setup.server.tracer is server_tracer
        assert setup.session.sw.tracer is sw_tracer

    def test_tracers_come_back_when_a_sequence_raises(self, site_spec):
        from repro.obs.trace import Tracer

        setup = build_mode(CachingMode.CATALYST, site_spec)
        server_tracer = setup.server.tracer
        with pytest.raises(ValueError, match="non-decreasing"):
            run_visit_sequence(setup, COND, [HOUR, 0.0], tracer=Tracer())
        assert setup.server.tracer is server_tracer
        assert setup.session.sw.tracer is not None
        assert not setup.session.sw.tracer.enabled

    def test_alternate_page_url(self, site_spec):
        from repro.workload.sitegen import generate_site as gen
        multi = gen("https://facade2.example", seed=48, extra_pages=1,
                    median_resources=15)
        setup = build_mode(CachingMode.STANDARD, multi)
        outcomes = run_visit_sequence(setup, COND, [0.0],
                                      page_url="/page1.html")
        assert outcomes[0].result.url == "/page1.html"
