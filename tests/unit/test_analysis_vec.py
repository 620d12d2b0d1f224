"""Unit tests for the vectorized analytic sweep engine.

The Python backend is the reference.  ``TestEquivalence`` holds each
backend's batched output to it priced one cell per call, and
``TestHandPriced`` holds both backends to PLTs derived by hand.
"""

import math
from dataclasses import replace

import pytest

from repro import estimate_plt
from repro.browser.engine import BrowserConfig
from repro.core.analysis_vec import (VectorAnalyticModel, batch_estimate_plt,
                                     compile_site, numpy_available)
from repro.core.modes import CachingMode
from repro.experiments.figure3 import run_figure3
from repro.html.parser import ResourceKind
from repro.netsim.clock import DAY, HOUR, MINUTE, WEEK
from repro.netsim.link import NetworkConditions
from repro.netsim.tcp import ConnectionPolicy
from repro.workload.headers_model import HeaderPolicy
from repro.workload.sitegen import (PageSpec, ResourceSpec, SiteSpec,
                                    generate_site)

pytestmark = pytest.mark.analytic

COND = NetworkConditions.of(60, 40)
CONDITIONS = [NetworkConditions.of(mbps, rtt)
              for mbps in (8.0, 60.0) for rtt in (10.0, 100.0)]
MODES = (CachingMode.NO_CACHE, CachingMode.STANDARD, CachingMode.CATALYST,
         CachingMode.CATALYST_SESSIONS)
DELAYS = (0.0, MINUTE, HOUR, DAY, WEEK)

BACKENDS = ["python"] + (["numpy"] if numpy_available() else [])


@pytest.fixture(scope="module")
def site():
    return generate_site("https://vec.example", seed=71)


def single_page_site(specs: dict[str, ResourceSpec],
                     refs: tuple[str, ...]) -> SiteSpec:
    page = PageSpec(url="/index.html", html_size_bytes=15_000,
                    html_change_period_s=6 * HOUR, html_content_seed=3,
                    html_refs=refs, resources=specs)
    return SiteSpec(origin="https://one.example", seed=0,
                    pages={"/index.html": page})


def resource(url: str, *, size: int = 8_000, mode: str = "max-age",
             ttl: float = 1e9, period: float = math.inf,
             via: str = "html", dynamic: bool = False,
             kind: ResourceKind = ResourceKind.IMAGE,
             children: tuple[str, ...] = ()) -> ResourceSpec:
    return ResourceSpec(
        url=url, kind=kind, size_bytes=size,
        policy=HeaderPolicy(mode=mode, ttl_s=ttl),
        change_period_s=period, content_seed=1, discovered_via=via,
        children=children, dynamic=dynamic,
        fixed_change_times=() if math.isinf(period) else None)


def assert_matches_reference(site, backend, modes=MODES, delays=DELAYS,
                             conditions=CONDITIONS, cold=False, rel=1e-9):
    """``backend``'s whole-grid batch equals the Python path priced one
    ``(condition, mode, delay)`` cell per call: NumPy must agree with
    the reference, and no batch axis may leak into another."""
    batch = VectorAnalyticModel(backend=backend).batch_plt(
        compile_site(site), modes, delays, conditions, cold=cold)
    reference = VectorAnalyticModel(backend="python")
    for ci, cond in enumerate(conditions):
        for mi, mode in enumerate(modes):
            for di, delay in enumerate(delays):
                expected = reference.batch_plt(site, (mode,), (delay,),
                                               [cond], cold=cold)[0][0][0]
                assert float(batch[ci][mi][di]) == pytest.approx(
                    expected, rel=rel), (backend, cond, mode, delay)


class TestCompileSite:
    def test_level_contiguous_layout(self, site):
        compiled = compile_site(site)
        end1, end2, end3 = compiled.level_ends
        assert 0 < end1 <= end2 <= end3 == compiled.n_slots
        page = site.index
        assert end1 == len(page.html_refs)
        assert compiled.html_size == page.html_size_bytes

    def test_compile_is_memoized(self, site):
        assert compile_site(site) is compile_site(site)

    def test_script_sizes_are_html_level_scripts_only(self, site):
        compiled = compile_site(site)
        page = site.index
        expected = sorted(page.resources[url].size_bytes
                          for url in page.html_refs
                          if page.resources[url].kind
                          is ResourceKind.SCRIPT)
        assert sorted(compiled.script_sizes) == expected

    def test_negative_size_rejected(self):
        bad = single_page_site({"/r.png": resource("/r.png", size=-1)},
                               ("/r.png",))
        with pytest.raises(ValueError, match="negative resource size"):
            compile_site(bad)

    @pytest.mark.parametrize("period", [0.0, -60.0, math.nan],
                             ids=["zero", "negative", "nan"])
    @pytest.mark.parametrize("where", ["resource", "html"])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_period_not_positive_rejected(self, backend, where, period):
        """A change period that is not positive has no churn
        probability: zero divides by zero, a negative one prices a
        negative PLT, NaN prices NaN.  Both backends refuse the site and
        name the URL, as the DES's ``ResourceChurn`` refuses the period."""
        spec = resource("/r.png", period=HOUR)
        if where == "resource":
            spec = replace(spec, change_period_s=period)
        site = single_page_site({"/r.png": spec}, ("/r.png",))
        if where == "html":
            page = replace(site.index, html_change_period_s=period)
            site = replace(site, pages={"/index.html": page})
        url = "/r.png" if where == "resource" else "/index.html"
        model = VectorAnalyticModel(backend=backend)
        with pytest.raises(ValueError, match=f"period must be positive: "
                                             f"{url}"):
            model.batch_plt(site, (CachingMode.STANDARD,), (HOUR,), [COND])


@pytest.mark.parametrize("backend", BACKENDS)
class TestEquivalence:
    def test_generated_site_full_grid(self, site, backend):
        assert_matches_reference(site, backend)

    def test_cold_visits(self, site, backend):
        assert_matches_reference(site, backend, cold=True,
                              delays=(HOUR, DAY))

    def test_empty_page(self, backend):
        empty = single_page_site({}, ())
        assert_matches_reference(empty, backend)

    def test_wave_boundary_at_exactly_k(self, backend):
        k = BrowserConfig().connections_per_origin
        specs = {f"/r{i}.png": resource(f"/r{i}.png", mode="no-store",
                                        size=5_000 + 997 * i)
                 for i in range(k)}
        assert_matches_reference(single_page_site(specs, tuple(specs)),
                              backend)
        specs_over = {f"/r{i}.png": resource(f"/r{i}.png", mode="no-store",
                                             size=5_000 + 997 * i)
                      for i in range(k + 1)}
        assert_matches_reference(single_page_site(specs_over,
                                               tuple(specs_over)),
                              backend)

    def test_policy_branches(self, backend):
        specs = {
            "/store.bin": resource("/store.bin", mode="no-store"),
            "/reval.bin": resource("/reval.bin", mode="no-cache",
                                   period=DAY),
            "/none.bin": resource("/none.bin", mode="none", period=HOUR),
            "/fresh.bin": resource("/fresh.bin", ttl=10 * WEEK),
            "/expired.bin": resource("/expired.bin", ttl=MINUTE,
                                     period=DAY),
            "/dyn.bin": resource("/dyn.bin", mode="no-store",
                                 dynamic=True),
            "/js.bin": resource("/js.bin", mode="no-cache", via="js",
                                period=DAY),
        }
        assert_matches_reference(single_page_site(specs, tuple(specs)),
                              backend)

    def test_three_levels_with_scripts(self, backend):
        specs = {
            "/app.js": resource("/app.js", kind=ResourceKind.SCRIPT,
                                size=120_000, mode="no-cache",
                                children=("/chunk.js",)),
            "/chunk.js": resource("/chunk.js", kind=ResourceKind.SCRIPT,
                                  via="js", mode="no-cache",
                                  children=("/lazy.png",)),
            "/lazy.png": resource("/lazy.png", via="js", period=DAY),
            "/style.css": resource("/style.css",
                                   kind=ResourceKind.STYLESHEET,
                                   children=("/bg.png",)),
            "/bg.png": resource("/bg.png", via="css"),
        }
        assert_matches_reference(single_page_site(specs,
                                               ("/app.js", "/style.css")),
                              backend)

    def test_module_level_helper(self, site, backend):
        batch = batch_estimate_plt(site, (CachingMode.STANDARD,), (DAY,),
                                   [COND], backend=backend)
        expected = estimate_plt(site, CachingMode.STANDARD, DAY, COND)
        assert float(batch[0][0][0]) == pytest.approx(expected, rel=1e-9)


def micro_site() -> SiteSpec:
    """One page, three resources over two levels, immutable content.

    - HTML: 20 kB, never changes
    - /a.css: ``no-cache``, 5 kB, with child /c.png
    - /c.png: ``max-age`` ten days (fresh at one day), 4 kB
    - /b.png: ``no-store``, 10 kB
    """
    page = PageSpec(
        url="/index.html", html_size_bytes=20_000,
        html_change_period_s=math.inf, html_content_seed=3,
        html_refs=("/a.css", "/b.png"),
        resources={
            "/a.css": resource("/a.css", kind=ResourceKind.STYLESHEET,
                               size=5_000, mode="no-cache",
                               children=("/c.png",)),
            "/c.png": resource("/c.png", size=4_000, ttl=10 * DAY,
                               via="css"),
            "/b.png": resource("/b.png", size=10_000, mode="no-store"),
        })
    return SiteSpec(origin="https://micro.example", seed=0,
                    pages={"/index.html": page})


@pytest.mark.parametrize("backend", BACKENDS)
class TestHandPriced:
    def test_micro_site(self, backend):
        """At 60 Mbps / 40 ms, one day after the first visit:

        setup    2 RTTs (TCP + TLS)                        = 0.080
        HTML     rtt + 20 ms render, unchanged: no body    = 0.060
        parse    max(2 ms, 20 kB * 0.1 us/B)               = 0.002
        level 1  max(/a.css revalidation, /b.png fetch):
                 /a.css  0.045 + 350 * 8 / 60e6            = 0.04505
                 /b.png  0.045 + 10_350 * 8 / 60e6         = 0.04638
        level 2  /c.png: HTTP-cache hit (standard)         = 0.0003
                         SW hit (both Catalyst modes)      = 0.0008

        Catalyst turns /a.css into an SW hit, but the no-store /b.png
        still bounds level 1, so the two modes differ only in level 2.
        """
        level1 = 0.045 + 10_350 * 8 / 60e6
        standard = 0.080 + 0.060 + 0.002 + level1 + 0.0003
        catalyst = 0.080 + 0.060 + 0.002 + level1 + 0.0008
        modes = (CachingMode.STANDARD, CachingMode.CATALYST,
                 CachingMode.CATALYST_SESSIONS)
        plt = VectorAnalyticModel(backend=backend).batch_plt(
            micro_site(), modes, (DAY,), [COND])
        assert [float(plt[0][mi][0]) for mi in range(3)] == pytest.approx(
            [standard, catalyst, catalyst], rel=1e-12)

    def test_frozen_content_prices_as_never_changing(self, backend):
        """Content whose fixed change times are ``()`` never changes
        (``freeze_site``'s clones), whatever its change period: the
        micro-site with a one-hour period on the HTML and every resource,
        all frozen, prices exactly as it does with infinite periods."""
        page = micro_site().pages["/index.html"]
        frozen_page = replace(
            page, html_change_period_s=HOUR, html_fixed_change_times=(),
            resources={url: replace(spec, change_period_s=HOUR,
                                    fixed_change_times=())
                       for url, spec in page.resources.items()})
        frozen = SiteSpec(origin="https://micro.example", seed=0,
                          pages={"/index.html": frozen_page})
        modes = (CachingMode.STANDARD, CachingMode.CATALYST,
                 CachingMode.CATALYST_SESSIONS)
        model = VectorAnalyticModel(backend=backend)

        def priced(site):
            plt = model.batch_plt(site, modes, (MINUTE, DAY, WEEK), [COND])
            return [[float(value) for value in row] for row in plt[0]]

        assert priced(frozen) == priced(micro_site())

    @pytest.mark.parametrize("mode", [CachingMode.STANDARD,
                                      CachingMode.CATALYST,
                                      CachingMode.CATALYST_SESSIONS],
                             ids=lambda mode: mode.value)
    def test_no_store_prices_full_fetch(self, backend, mode):
        """The SW never stores a no-store response, so every caching
        mode fetches it in full on every visit:
        rtt + think + (size + 350) * 8 / bw."""
        empty = single_page_site({}, ())
        one = single_page_site(
            {"/s.bin": resource("/s.bin", size=30_000, mode="no-store")},
            ("/s.bin",))
        model = VectorAnalyticModel(backend=backend)
        added = (float(model.batch_plt(one, (mode,), (DAY,), [COND])[0][0][0])
                 - float(model.batch_plt(empty, (mode,), (DAY,),
                                         [COND])[0][0][0]))
        full = (COND.rtt_s + BrowserConfig().server_think_s
                + 30_350 * 8 / COND.downlink_bps)
        assert added == pytest.approx(full, rel=1e-9)


@pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
class TestBackendAgreement:
    def test_numpy_and_python_agree_tightly(self, site):
        fast = VectorAnalyticModel(backend="numpy").batch_plt(
            compile_site(site), MODES, DELAYS, CONDITIONS)
        slow = VectorAnalyticModel(backend="python").batch_plt(
            compile_site(site), MODES, DELAYS, CONDITIONS)
        for ci in range(len(CONDITIONS)):
            for mi in range(len(MODES)):
                for di in range(len(DELAYS)):
                    assert float(fast[ci][mi][di]) == pytest.approx(
                        slow[ci][mi][di], rel=1e-12)


@pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
class TestLayoutReuse:
    def test_reused_model_prices_like_a_fresh_one(self, site):
        """A model keeps the layout of the sites it priced last; a list
        of other sites, of the same length or in another order, must
        not be priced on it."""
        import numpy as np

        others = [generate_site(f"https://reuse{i}.example", seed=80 + i)
                  for i in range(2)]
        lists = {"A": [site, others[0]], "B": others,
                 "A reversed": [others[0], site]}
        model = VectorAnalyticModel(backend="numpy")
        for name in ("A", "B", "A", "A reversed", "A"):
            for cold in (False, True):
                got = model.batch_visit(lists[name], MODES, DELAYS,
                                        CONDITIONS, cold=cold)
                want = VectorAnalyticModel(backend="numpy").batch_visit(
                    lists[name], MODES, DELAYS, CONDITIONS, cold=cold)
                for field in ("plt", "requests", "bytes_down"):
                    assert np.array_equal(getattr(got, field),
                                          getattr(want, field)), \
                        (name, cold, field)


class TestValidation:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            VectorAnalyticModel(backend="fortran")

    def test_numpy_backend_without_numpy_raises(self, monkeypatch):
        from repro.core import analysis_vec
        monkeypatch.setattr(analysis_vec, "_np", None)
        with pytest.raises(RuntimeError, match="numpy backend requested"):
            VectorAnalyticModel(backend="numpy")
        assert VectorAnalyticModel(backend="auto").backend == "python"

    @pytest.mark.parametrize("delay", [-1.0, math.inf, math.nan])
    def test_bad_delays_rejected(self, site, delay):
        model = VectorAnalyticModel(backend=BACKENDS[0])
        with pytest.raises(ValueError, match="delays must be finite"):
            model.batch_plt(compile_site(site), (CachingMode.STANDARD,),
                            (delay,), [COND])

    def test_negative_config_cost_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            VectorAnalyticModel(config=BrowserConfig(server_think_s=-0.1))

    @pytest.mark.parametrize("mode", [
        CachingMode.PUSH_ALL, CachingMode.PUSH_BLOCKING, CachingMode.HINTS,
        CachingMode.CATALYST_HINTS], ids=lambda mode: mode.value)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_unpriced_mode_rejected(self, site, backend, mode):
        """Push and hints modes have no closed form; the engine names
        the mode instead of pricing it as standard caching."""
        model = VectorAnalyticModel(backend=backend)
        with pytest.raises(ValueError, match=f"mode '{mode.value}'"):
            model.batch_visit([site], (CachingMode.STANDARD, mode),
                              (HOUR,), [COND])

    @pytest.mark.parametrize("config, switch", [
        (BrowserConfig(http2=True), "config.http2"),
        (BrowserConfig(preconnect=2), "config.preconnect"),
        (BrowserConfig(connection_policy=ConnectionPolicy(slow_start=True)),
         "config.connection_policy.slow_start"),
    ], ids=["http2", "preconnect", "slow_start"])
    def test_unpriced_switch_rejected(self, config, switch):
        """The closed form prices HTTP/1.1 without preconnect or a
        slow-start ramp; a config that turns one on is refused, also
        through the Figure-3 grid's analytic backend."""
        with pytest.raises(ValueError, match=switch):
            VectorAnalyticModel(config=config)
        with pytest.raises(ValueError, match=switch):
            run_figure3(sites=1, throughputs_mbps=(60,), latencies_ms=(40,),
                        delays_s=(HOUR,), base_config=config,
                        backend="auto")


class TestSweepShape:
    def test_sweep_stacks_sites(self, site):
        """A site list adds a trailing site axis: ``[C, M, D, S]``."""
        other = generate_site("https://vec2.example", seed=72)
        for backend in BACKENDS:
            model = VectorAnalyticModel(backend=backend)
            out = model.batch_visit([site, other], MODES, DELAYS,
                                    CONDITIONS).plt
            assert len(out) == len(CONDITIONS)
            assert len(out[0]) == len(MODES)
            assert len(out[0][0]) == len(DELAYS)
            assert len(out[0][0][0]) == 2

    def test_accepts_raw_site_spec(self, site):
        model = VectorAnalyticModel(backend=BACKENDS[0])
        direct = model.batch_plt(site, (CachingMode.STANDARD,), (DAY,),
                                 [COND])
        precompiled = model.batch_plt(compile_site(site),
                                      (CachingMode.STANDARD,), (DAY,),
                                      [COND])
        assert float(direct[0][0][0]) == float(precompiled[0][0][0])
