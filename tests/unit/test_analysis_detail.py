"""Page-level tests of the analytic model's per-resource expectations.

Each expectation is measured as PLT(page with that one resource) minus
PLT(empty page), on every available backend, and compared with a
formula written out here:

- full fetch   = rtt + think + (size + 350) * 8 / bw
- revalidation = the same with size 0 (a 304 carries headers only)
"""

import math

import pytest

from repro.browser.engine import BrowserConfig
from repro.core.analysis_vec import VectorAnalyticModel, numpy_available
from repro.core.modes import CachingMode
from repro.html.parser import ResourceKind
from repro.netsim.clock import DAY, HOUR
from repro.netsim.link import NetworkConditions
from repro.workload.headers_model import HeaderPolicy
from repro.workload.sitegen import PageSpec, ResourceSpec, SiteSpec

COND = NetworkConditions.of(60, 40)
CONFIG = BrowserConfig()
BACKENDS = ["python"] + (["numpy"] if numpy_available() else [])


def full_fetch(size: float, cond: NetworkConditions = COND) -> float:
    return (cond.rtt_s + CONFIG.server_think_s
            + (size + 350) * 8 / cond.downlink_bps)


def revalidation(cond: NetworkConditions = COND) -> float:
    return full_fetch(0, cond)


def spec_with(policy: HeaderPolicy, period_s: float = math.inf,
              via: str = "html", dynamic: bool = False,
              size: int = 10_000, url: str = "/r.bin") -> ResourceSpec:
    return ResourceSpec(
        url=url, kind=ResourceKind.IMAGE, size_bytes=size,
        policy=policy, change_period_s=period_s, content_seed=1,
        discovered_via=via, dynamic=dynamic,
        fixed_change_times=() if math.isinf(period_s) else None)


def page_of(*specs: ResourceSpec) -> SiteSpec:
    """One page whose HTML references every spec (level 1 only)."""
    page = PageSpec(url="/index.html", html_size_bytes=20_000,
                    html_change_period_s=DAY, html_content_seed=9,
                    html_refs=tuple(spec.url for spec in specs),
                    resources={spec.url: spec for spec in specs})
    return SiteSpec(origin="https://detail.example", seed=0,
                    pages={"/index.html": page})


def added_s(specs, mode: CachingMode, delay_s: float,
            cond: NetworkConditions = COND,
            config: BrowserConfig = CONFIG) -> float:
    """PLT(page with ``specs``) - PLT(empty page), equal on every
    backend."""
    values = []
    for backend in BACKENDS:
        model = VectorAnalyticModel(config=config, backend=backend)
        with_specs, empty = [
            float(model.batch_plt(site, (mode,), (delay_s,), [cond])[0][0][0])
            for site in (page_of(*specs), page_of())]
        values.append(with_specs - empty)
    assert values == pytest.approx([values[0]] * len(values), rel=1e-12)
    return values[0]


def numbered(count: int, policy: HeaderPolicy, size: int) -> list:
    return [spec_with(policy, size=size, url=f"/r{size}-{i}.bin")
            for i in range(count)]


class TestExpectedResourceCost:
    def test_no_cache_mode_always_full(self):
        spec = spec_with(HeaderPolicy(mode="max-age", ttl_s=1e9))
        assert added_s([spec], CachingMode.NO_CACHE, HOUR) \
            == pytest.approx(full_fetch(spec.size_bytes))

    def test_fresh_max_age_is_lookup_cost(self):
        spec = spec_with(HeaderPolicy(mode="max-age", ttl_s=2 * HOUR))
        assert added_s([spec], CachingMode.STANDARD, HOUR) \
            == pytest.approx(CONFIG.cache_lookup_s)

    def test_expired_unchanged_costs_a_revalidation(self):
        spec = spec_with(HeaderPolicy(mode="max-age", ttl_s=60.0))
        assert added_s([spec], CachingMode.STANDARD, HOUR) \
            == pytest.approx(revalidation())

    def test_no_store_always_full(self):
        spec = spec_with(HeaderPolicy(mode="no-store"))
        assert added_s([spec], CachingMode.STANDARD, HOUR) \
            == pytest.approx(full_fetch(spec.size_bytes))

    def test_catalyst_unchanged_is_sw_lookup(self):
        spec = spec_with(HeaderPolicy(mode="no-cache"))
        assert added_s([spec], CachingMode.CATALYST, HOUR) \
            == pytest.approx(CONFIG.sw_lookup_s)

    def test_catalyst_js_discovered_falls_back_to_standard(self):
        """Static stapling cannot see a JS-discovered resource, so it
        revalidates as under standard caching."""
        spec = spec_with(HeaderPolicy(mode="no-cache"), via="js")
        assert added_s([spec], CachingMode.CATALYST, HOUR) \
            == pytest.approx(revalidation())
        assert added_s([spec], CachingMode.STANDARD, HOUR) \
            == pytest.approx(revalidation())

    def test_catalyst_sessions_covers_js_discovered(self):
        spec = spec_with(HeaderPolicy(mode="no-cache"), via="js")
        assert added_s([spec], CachingMode.CATALYST_SESSIONS, HOUR) \
            == pytest.approx(CONFIG.sw_lookup_s)

    def test_dynamic_always_full_even_for_catalyst(self):
        spec = spec_with(HeaderPolicy(mode="no-store"), dynamic=True)
        assert added_s([spec], CachingMode.CATALYST, HOUR) \
            == pytest.approx(full_fetch(spec.size_bytes))

    def test_churned_resource_mixes_probabilistically(self):
        """P(changed within a day | period one day) = 1 - e^-1: that
        share pays a full fetch, the rest an SW hit."""
        spec = spec_with(HeaderPolicy(mode="no-cache"), period_s=DAY)
        p = 1 - math.exp(-1)
        expected = (p * full_fetch(spec.size_bytes)
                    + (1 - p) * CONFIG.sw_lookup_s)
        assert added_s([spec], CachingMode.CATALYST, DAY) \
            == pytest.approx(expected, rel=1e-9)


class TestLevelAggregation:
    def test_empty_level_is_free(self):
        """A page without subresources pays setup, the HTML and its
        parse only: three empty levels add nothing, in every mode.  The
        HTML body is re-sent in full under NO_CACHE and with its change
        probability otherwise."""
        html_size = page_of().index.html_size_bytes
        navigation = (CONFIG.connection_policy.setup_rtts * COND.rtt_s
                      + COND.rtt_s + CONFIG.html_server_think_s
                      + CONFIG.parse_time(html_size))
        html_body = (html_size + 350) * 8 / COND.downlink_bps
        p_html = 1 - math.exp(-HOUR / DAY)
        for mode, share in ((CachingMode.NO_CACHE, 1.0),
                            (CachingMode.STANDARD, p_html),
                            (CachingMode.CATALYST, p_html)):
            for backend in BACKENDS:
                plt = VectorAnalyticModel(backend=backend).batch_plt(
                    page_of(), (mode,), (HOUR,), [COND])[0][0][0]
                assert float(plt) == pytest.approx(
                    navigation + share * html_body), (mode, backend)

    def test_single_wave_is_max(self):
        """Three resources fit one wave: the level pays the slowest."""
        specs = [spec_with(HeaderPolicy(mode="no-store"), size=size,
                           url=f"/r{size}.bin")
                 for size in (10_000, 20_000, 5_000)]
        assert added_s(specs, CachingMode.STANDARD, HOUR) \
            == pytest.approx(full_fetch(20_000))

    def test_two_waves_sum_maxima(self):
        """6 + 6 resources at k = 6: the first wave pays the six large
        fetches' maximum, the second the six small ones'."""
        assert CONFIG.connections_per_origin == 6
        policy = HeaderPolicy(mode="no-store")
        specs = numbered(6, policy, 5_000) + numbered(6, policy, 50_000)
        assert added_s(specs, CachingMode.STANDARD, HOUR) \
            == pytest.approx(full_fetch(50_000) + full_fetch(5_000))

    def test_zero_costs_filtered(self):
        """Free cache hits never open a wave: one full fetch plus six
        zero-cost fresh hits (seven slots at k = 6) is one wave."""
        free = BrowserConfig(cache_lookup_s=0.0)
        specs = ([spec_with(HeaderPolicy(mode="no-store"))]
                 + numbered(6, HeaderPolicy(mode="max-age", ttl_s=1e9),
                            8_000))
        assert added_s(specs, CachingMode.STANDARD, HOUR, config=free) \
            == pytest.approx(full_fetch(10_000))

    def test_transfer_time_scales_with_bandwidth(self):
        spec = spec_with(HeaderPolicy(mode="no-store"), size=100_000)
        slow_cond = NetworkConditions.of(8, 40)
        slow = added_s([spec], CachingMode.STANDARD, HOUR, cond=slow_cond)
        fast = added_s([spec], CachingMode.STANDARD, HOUR)
        assert slow == pytest.approx(full_fetch(100_000, slow_cond))
        assert fast == pytest.approx(full_fetch(100_000))
        assert slow > fast

    def test_revalidation_cost_is_rtt_dominated(self):
        spec = spec_with(HeaderPolicy(mode="no-cache"))
        reval = added_s([spec], CachingMode.STANDARD, HOUR)
        assert reval == pytest.approx(revalidation())
        assert COND.rtt_s <= reval < COND.rtt_s + 0.05
