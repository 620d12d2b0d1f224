"""Unit tests for the closed-form PLT model's public helpers.

``repro.estimate_plt`` and ``repro.estimate_reduction`` price single
cells through the batched engine; page-level expectations are written
out here rather than taken from the engine's own helpers.
"""

import math

import pytest

from repro import estimate_plt, estimate_reduction
from repro.browser.engine import BrowserConfig
from repro.core.modes import CachingMode
from repro.experiments.figure1 import build_figure1_site
from repro.html.parser import ResourceKind
from repro.netsim.clock import DAY, HOUR
from repro.netsim.link import NetworkConditions
from repro.workload.headers_model import HeaderPolicy
from repro.workload.sitegen import (PageSpec, ResourceSpec, SiteSpec,
                                    generate_site)

COND = NetworkConditions.of(60, 40)
CONFIG = BrowserConfig()


def full_fetch_s(size: float) -> float:
    """One request carrying the whole body plus 350 header bytes."""
    return (COND.rtt_s + CONFIG.server_think_s
            + (size + 350) * 8 / COND.downlink_bps)


@pytest.fixture(scope="module")
def site():
    return generate_site("https://an.example", seed=71)


def make_page_site(n_resources: int, policy_mode: str = "max-age",
                   ttl_s: float = 1e9,
                   period_s: float = math.inf) -> SiteSpec:
    """A hand-built one-page site with ``n_resources`` HTML-level images."""
    resources = {}
    refs = []
    for i in range(n_resources):
        url = f"/img{i}.png"
        resources[url] = ResourceSpec(
            url=url, kind=ResourceKind.IMAGE, size_bytes=10_000 + i,
            policy=HeaderPolicy(mode=policy_mode, ttl_s=ttl_s),
            change_period_s=period_s, content_seed=i,
            discovered_via="html",
            fixed_change_times=() if math.isinf(period_s) else None)
        refs.append(url)
    page = PageSpec(url="/index.html", html_size_bytes=20_000,
                    html_change_period_s=DAY, html_content_seed=9,
                    html_refs=tuple(refs), resources=resources)
    return SiteSpec(origin="https://hand.example", seed=0,
                    pages={"/index.html": page})


class TestEstimatePlt:
    def test_positive(self, site):
        assert estimate_plt(site, CachingMode.STANDARD, HOUR, COND) > 0

    def test_cold_slower_than_warm(self, site):
        cold = estimate_plt(site, CachingMode.STANDARD, HOUR, COND,
                            cold=True)
        warm = estimate_plt(site, CachingMode.STANDARD, HOUR, COND)
        assert cold > warm

    def test_catalyst_not_slower(self, site):
        std = estimate_plt(site, CachingMode.STANDARD, DAY, COND)
        cat = estimate_plt(site, CachingMode.CATALYST, DAY, COND)
        assert cat <= std

    def test_monotone_in_rtt(self, site):
        plts = [estimate_plt(site, CachingMode.STANDARD, HOUR,
                             NetworkConditions.of(60, rtt))
                for rtt in (10, 40, 100)]
        assert plts == sorted(plts)

    def test_no_cache_worst(self, site):
        none = estimate_plt(site, CachingMode.NO_CACHE, HOUR, COND)
        std = estimate_plt(site, CachingMode.STANDARD, HOUR, COND)
        assert none >= std


class TestEstimateReduction:
    def test_in_unit_interval(self, site):
        reduction = estimate_reduction(site, DAY, COND)
        assert 0.0 <= reduction < 1.0

    def test_higher_latency_higher_reduction(self, site):
        low = estimate_reduction(site, DAY, NetworkConditions.of(60, 10))
        high = estimate_reduction(site, DAY, NetworkConditions.of(60, 100))
        assert high > low


class TestEdgeCases:
    def test_cold_ignores_mode(self, site):
        """Cold visits price full fetches regardless of caching mode."""
        plts = {mode: estimate_plt(site, mode, HOUR, COND, cold=True)
                for mode in (CachingMode.NO_CACHE, CachingMode.STANDARD,
                             CachingMode.CATALYST)}
        assert len(set(plts.values())) == 1

    def test_cold_equals_no_cache_warm_html_aside(self):
        """With fully-cacheable resources, cold == NO_CACHE warm up to
        the HTML churn weighting."""
        page_site = make_page_site(4)
        cold = estimate_plt(page_site, CachingMode.STANDARD, HOUR, COND,
                            cold=True)
        no_cache = estimate_plt(page_site, CachingMode.NO_CACHE, HOUR,
                                COND)
        assert cold == pytest.approx(no_cache)

    def test_empty_page_is_navigation_only(self):
        """html_refs == (): PLT is setup + HTML + parse, no levels."""
        empty = make_page_site(0)
        plt = estimate_plt(empty, CachingMode.STANDARD, HOUR, COND)
        page = empty.index
        p_html = 1.0 - math.exp(-HOUR / page.html_change_period_s)
        expected = (CONFIG.connection_policy.setup_rtts * COND.rtt_s
                    + COND.rtt_s + CONFIG.html_server_think_s
                    + p_html * (page.html_size_bytes + 350) * 8
                    / COND.downlink_bps
                    + CONFIG.parse_time(page.html_size_bytes))
        assert plt == pytest.approx(expected)

    def test_no_store_page_prices_full_fetches(self):
        """Three no-store images fit one wave: the level costs the
        largest one's full fetch."""
        no_store = make_page_site(3, policy_mode="no-store")
        empty = make_page_site(0)
        added = (estimate_plt(no_store, CachingMode.STANDARD, HOUR, COND)
                 - estimate_plt(empty, CachingMode.STANDARD, HOUR, COND))
        assert added == pytest.approx(full_fetch_s(10_002))

    def test_no_cache_policy_page_prices_revalidations(self):
        """Immutable content: pure revalidations, never a body."""
        no_cache = make_page_site(3, policy_mode="no-cache")
        empty = make_page_site(0)
        added = (estimate_plt(no_cache, CachingMode.STANDARD, HOUR, COND)
                 - estimate_plt(empty, CachingMode.STANDARD, HOUR, COND))
        assert added == pytest.approx(full_fetch_s(0))

    def test_wave_boundary_at_exactly_k(self):
        """n == connections_per_origin: one wave, level time = max cost;
        one more resource adds a second wave paying the smallest."""
        k = CONFIG.connections_per_origin
        empty = estimate_plt(make_page_site(0), CachingMode.STANDARD,
                             HOUR, COND)
        boundary = make_page_site(k, policy_mode="no-store")
        assert estimate_plt(boundary, CachingMode.STANDARD, HOUR,
                            COND) - empty == pytest.approx(
            full_fetch_s(10_000 + k - 1))
        extra = make_page_site(k + 1, policy_mode="no-store")
        assert estimate_plt(extra, CachingMode.STANDARD, HOUR,
                            COND) - empty == pytest.approx(
            full_fetch_s(10_000 + k) + full_fetch_s(10_000))


class TestConfigDefaultIsolation:
    def test_default_config_is_per_call(self, site):
        """Regression: the module-level helpers used one shared
        ``BrowserConfig()`` default evaluated at import — any state on
        that instance bled between unrelated calls.  The default must be
        ``None`` (fresh config per call)."""
        import inspect
        for helper in (estimate_plt, estimate_reduction):
            default = inspect.signature(helper).parameters["config"].default
            assert default is None

    def test_passed_config_never_leaks_into_default_calls(self, site):
        from repro.browser.js import ScriptModel
        from repro.netsim.tcp import ConnectionPolicy
        baseline = estimate_plt(site, CachingMode.STANDARD, HOUR, COND)
        tweaked = BrowserConfig(
            script_model=ScriptModel(exec_s_per_byte=1.0, max_exec_s=30.0),
            connection_policy=ConnectionPolicy(tls_rtts=50))
        with_tweak = estimate_plt(site, CachingMode.STANDARD, HOUR, COND,
                                  config=tweaked)
        assert with_tweak > baseline
        after = estimate_plt(site, CachingMode.STANDARD, HOUR, COND)
        assert after == baseline
        assert estimate_reduction(site, HOUR, COND) == pytest.approx(
            estimate_reduction(site, HOUR, COND, config=BrowserConfig()))


class TestAgainstSimulator:
    def test_rank_correlation_with_des(self):
        """Analytic and simulated PLT must order conditions the same way."""
        from dataclasses import replace

        from repro.experiments.figure3 import (run_figure3, validate_cells,
                                               validate_grid)
        from repro.workload.corpus import make_corpus
        # the Figure-1 site as built (churn on: it is not frozen)
        corpus = replace(make_corpus(size=1), sites=[build_figure1_site()])
        grid = dict(corpus=corpus, throughputs_mbps=(8, 60),
                    latencies_ms=(10, 100), delays_s=(2 * HOUR,),
                    content_churn=True)
        both = validate_grid(run_figure3(**grid, backend="auto"),
                             run_figure3(**grid))
        assert len(both.rows) == 8 and both.passed
        result = validate_cells([row for row in both.rows
                                 if row[2] == CachingMode.STANDARD.value])
        assert len(result.rows) == 4
        assert result.rho == pytest.approx(1.0)
