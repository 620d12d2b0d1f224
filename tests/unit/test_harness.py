"""Unit tests for the experiment harness."""

import pytest

from repro.core.modes import CachingMode
from repro.experiments.figure3 import Figure3Result, run_figure3
from repro.experiments import harness
from repro.experiments.harness import PairMeasurement, measure_pair, run_grid
from repro.experiments.motivation import measure_motivation
from repro.netsim.clock import HOUR
from repro.netsim.link import NetworkConditions
from repro.workload.corpus import make_corpus
from repro.workload.sitegen import SiteSpec, generate_site

COND = NetworkConditions.of(60, 40, label="5g")


@pytest.fixture(scope="module")
def site_spec():
    return generate_site("https://h.example", seed=91, median_resources=25)


class TestMeasurePair:
    def test_fields_populated(self, site_spec):
        m = measure_pair(site_spec, CachingMode.STANDARD, COND, HOUR)
        assert m.origin == site_spec.origin
        assert m.mode == "standard"
        assert m.conditions == "5g"
        assert m.cold_plt_ms > m.warm_plt_ms > 0
        assert m.cold_bytes > m.warm_bytes
        assert m.warm_requests >= 1
        assert sum(m.warm_sources.values()) >= 1

    def test_reduction_property(self, site_spec):
        m = measure_pair(site_spec, CachingMode.STANDARD, COND, HOUR)
        assert m.reduction == pytest.approx(
            (m.cold_plt_ms - m.warm_plt_ms) / m.cold_plt_ms)

    def test_deterministic(self, site_spec):
        a = measure_pair(site_spec, CachingMode.CATALYST, COND, HOUR)
        b = measure_pair(site_spec, CachingMode.CATALYST, COND, HOUR)
        assert a == b

    def test_staleness_audit_counts(self, site_spec):
        m = measure_pair(site_spec, CachingMode.CATALYST, COND, HOUR,
                         audit_staleness=True)
        assert m.warm_stale_hits == 0  # catalyst never serves stale


class TestRunGrid:
    @pytest.fixture(scope="class")
    def grid(self, site_spec):
        corpus = make_corpus(size=2, seed=5)
        return run_grid(
            sites=corpus,
            modes=(CachingMode.STANDARD, CachingMode.CATALYST),
            conditions_list=[COND],
            delays_s=[HOUR])

    def test_full_cross_product(self, grid):
        assert len(grid.measurements) == 2 * 2  # sites x modes

    @pytest.fixture(scope="class")
    def figure3(self):
        """The same sites and condition through the one Figure-3 grid,
        which keeps the rows it reduces (``grid``)."""
        return run_figure3(corpus=make_corpus(size=2, seed=5),
                           throughputs_mbps=(60.0,), latencies_ms=(40.0,),
                           delays_s=(HOUR,), content_churn=True)

    def test_where_filters(self, figure3):
        """The table slices the rows by mode: its standard plane holds
        the standard rows' warm PLTs, delay-major, in row order."""
        standard = [m.warm_plt_ms for m in figure3.grid.measurements
                    if m.mode == "standard"]
        assert len(standard) == 2
        assert figure3.plt_ms[0][0] == [standard]

    def test_mean_warm_plt(self, figure3):
        rows = figure3.grid.measurements
        for mode, mean in (("standard",
                            figure3.cell(60.0, 40.0).mean_standard_plt_ms),
                           ("catalyst",
                            figure3.cell(60.0, 40.0).mean_catalyst_plt_ms)):
            values = [m.warm_plt_ms for m in rows if m.mode == mode]
            assert mean == pytest.approx(sum(values) / len(values))

    def test_mean_warm_plt_empty_filter_raises(self, figure3):
        with pytest.raises(KeyError):
            figure3.cell(8.0, 40.0)
        with pytest.raises(ValueError):
            Figure3Result(throughputs_mbps=(60.0,), latencies_ms=(40.0,),
                          delays_s=(HOUR,), sites=0,
                          plt_ms=[[[[]], [[]]]])

    def test_mean_reduction_vs(self, figure3):
        rows = figure3.grid.measurements
        standard = [m.warm_plt_ms for m in rows if m.mode == "standard"]
        catalyst = [m.warm_plt_ms for m in rows if m.mode == "catalyst"]
        assert figure3.reductions(60.0, 40.0) == [
            (s - c) / s for s, c in zip(standard, catalyst)]
        reduction = figure3.cell(60.0, 40.0).mean_reduction
        assert -0.5 < reduction < 1.0

    def test_mean_reduction_no_overlap_raises(self):
        """Pairs whose standard PLT is not positive have no reduction."""
        with pytest.raises(ValueError, match="no overlapping"):
            Figure3Result(throughputs_mbps=(60.0,), latencies_ms=(40.0,),
                          delays_s=(HOUR,), sites=2,
                          plt_ms=[[[[0.0, 0.0]], [[1.0, 2.0]]]])

    def test_replays_site_by_site_in_canonical_order(self, monkeypatch):
        """The cells are replayed grouped by site, so a site's cells
        share the origin's per-spec tables, and the rows come back in
        canonical order: conditions, then mode, then delay, then site."""
        replayed = []

        def fake_replay(cells, **_kwargs):
            replayed.extend(cells)
            return [PairMeasurement(origin=site.origin, mode=mode.value,
                                    conditions=cond.describe(),
                                    delay_s=delay, cold_plt_ms=0.0,
                                    cold_bytes=0, cold_requests=0)
                    for site, mode, cond, delay in cells]

        monkeypatch.setattr(harness, "replay", fake_replay)
        sites = [SiteSpec(origin=f"https://s{i}.example", seed=i)
                 for i in range(3)]
        modes = (CachingMode.STANDARD, CachingMode.CATALYST)
        conditions = [COND, NetworkConditions.of(8, 100)]
        delays = (HOUR, 2 * HOUR)
        grid = run_grid(sites=sites, modes=modes,
                        conditions_list=conditions,
                        delays_s=iter(delays))
        origins = [site.origin for site, *_ in replayed]
        assert origins == [site.origin for site in sites for _ in range(8)]
        assert [(m.conditions, m.mode, m.delay_s, m.origin)
                for m in grid.measurements] == [
            (cond.describe(), mode.value, delay, site.origin)
            for cond in conditions for mode in modes for delay in delays
            for site in sites]

    def test_progress_callback(self, site_spec):
        messages = []
        run_grid(sites=[site_spec], modes=[CachingMode.STANDARD],
                 conditions_list=[COND], delays_s=[HOUR],
                 progress=messages.append)
        assert len(messages) == 1


class TestMotivationBands:
    """The workload must keep reproducing the §2.2 calibration targets."""

    @pytest.fixture(scope="class")
    def stats(self):
        return measure_motivation(make_corpus(size=60, seed=2024))

    def test_actually_cached_band(self, stats):
        assert 0.42 <= stats.effectively_cached_share <= 0.62

    def test_short_ttl_band(self, stats):
        assert 0.30 <= stats.short_ttl_share <= 0.50

    def test_short_ttl_unchanged_band(self, stats):
        assert 0.75 <= stats.short_ttl_unchanged_share <= 0.95

    def test_expire_unchanged_band(self, stats):
        assert 0.32 <= stats.expire_unchanged_share <= 0.55

    def test_formatting_contains_paper_column(self, stats):
        assert "paper" in stats.format()
