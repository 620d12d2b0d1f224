"""The one DES replay: pooled rows must equal the in-process rows."""

import pytest

from repro.core.modes import CachingMode
from repro.experiments import harness
from repro.experiments.figure3 import run_figure3
from repro.experiments.harness import CACHE_SOURCES, replay, run_grid
from repro.netsim.clock import DAY, HOUR
from repro.netsim.link import NetworkConditions
from repro.obs.metrics import percentile
from repro.workload.corpus import make_corpus

COND = NetworkConditions.of(60, 40, label="60Mbps/40ms")
SLOW = NetworkConditions.of(8, 100, label="8Mbps/100ms")
MODES = (CachingMode.STANDARD, CachingMode.CATALYST)


@pytest.fixture(scope="module")
def corpus():
    return make_corpus(size=3, seed=77)


class TestParallelEqualsSequential:
    def test_identical_measurements(self, corpus):
        kwargs = dict(sites=corpus, modes=MODES, conditions_list=[COND],
                      delays_s=[HOUR])
        sequential = run_grid(**kwargs)
        parallel = run_grid(**kwargs, max_workers=2)
        assert parallel.measurements == sequential.measurements

    def test_full_grid_canonical_equivalence(self, corpus):
        """Multi-condition, multi-delay grid: the pooled replay must
        reproduce the in-process GridResult measurement-for-measurement
        in canonical order (conditions, then mode, delay, site)."""
        sites = corpus.sites[:2]
        delays = [HOUR, 24 * HOUR]
        kwargs = dict(sites=sites, modes=MODES,
                      conditions_list=[COND, SLOW], delays_s=delays,
                      audit_staleness=True)
        sequential = run_grid(**kwargs)
        parallel = run_grid(**kwargs, max_workers=2)
        assert len(parallel.measurements) == 16
        assert parallel.measurements == sequential.measurements
        assert [(m.conditions, m.mode, m.delay_s, m.origin)
                for m in parallel.measurements] == \
            [(cond.describe(), mode.value, delay, site.origin)
             for cond in (COND, SLOW) for mode in MODES
             for delay in delays for site in sites]

    def test_aggregations_work(self, corpus):
        """The one Figure-3 grid reduces pooled rows to the serial
        grid's numbers."""
        kwargs = dict(corpus=corpus, throughputs_mbps=(60.0,),
                      latencies_ms=(40.0,), delays_s=(HOUR,),
                      content_churn=True)
        serial = run_figure3(**kwargs)
        pooled = run_figure3(**kwargs, max_workers=2)
        assert pooled.grid.measurements == serial.grid.measurements
        assert pooled.plt_ms == serial.plt_ms
        assert pooled.cells == serial.cells
        assert pooled.format() == serial.format()
        assert -0.5 < pooled.cell(60.0, 40.0).mean_reduction < 1.0


class TestReplay:
    @pytest.fixture(scope="class")
    def cells(self, corpus):
        site_a, site_b = corpus.sites[:2]
        return [(site_a, CachingMode.CATALYST, COND, None),
                (site_a, CachingMode.CATALYST, COND, HOUR),
                (site_b, CachingMode.STANDARD, SLOW, DAY),
                (site_b, CachingMode.STANDARD, SLOW, None)]

    def test_mixed_cells_pooled_equals_serial(self, cells):
        serial = replay(cells)
        assert replay(cells, max_workers=2) == serial
        assert [m.delay_s for m in serial] == [None, HOUR, DAY, None]

    def test_cold_cell_runs_one_visit(self, cells, monkeypatch):
        visits = []
        real = harness.run_visit_sequence

        def spy(setup, conditions, times, **kwargs):
            visits.append(list(times))
            return real(setup, conditions, times, **kwargs)

        monkeypatch.setattr(harness, "run_visit_sequence", spy)
        cold, warm, _, _ = replay(cells)
        assert visits == [[0.0], [0.0, HOUR], [0.0, DAY], [0.0]]
        assert (cold.warm_plt_ms, cold.warm_bytes, cold.warm_requests,
                cold.warm_sources) == (0.0, 0, 0, {})
        # the cold cell's one visit is the cold half of the warm cell
        assert (cold.cold_plt_ms, cold.cold_bytes, cold.cold_requests) \
            == (warm.cold_plt_ms, warm.cold_bytes, warm.cold_requests)

    def test_last_visit_accessor(self, cells):
        for m in replay(cells):
            if m.delay_s is None:
                want = (m.cold_plt_ms, m.cold_requests, m.cold_bytes)
            else:
                want = (m.warm_plt_ms, m.warm_requests, m.warm_bytes)
            assert m.last_visit == want
            assert m.last_visit[0] > 0 and m.last_visit[1] >= 1

    def test_negative_workers_rejected(self, cells):
        with pytest.raises(ValueError, match="max_workers"):
            replay(cells, max_workers=-1)

    def test_progress_once_per_chunk(self, cells):
        messages = []
        replay(cells, progress=messages.append)
        # in-process: ~8 chunks; 4 cells make one cell per chunk
        assert messages == [f"{n}/4 cells done" for n in range(1, 5)]


class TestFleetMetrics:
    """``GridResult.summary()``: the ``figure3`` CLI's summary line,
    computed from the rows, so pooled and in-process agree exactly."""

    GRID = dict(modes=MODES, conditions_list=[COND, SLOW],
                delays_s=[HOUR, 24 * HOUR])

    def test_parallel_fleet_matches_serial(self, corpus):
        serial = run_grid(sites=corpus, **self.GRID)
        pooled = run_grid(sites=corpus, max_workers=3, **self.GRID)
        assert pooled.measurements == serial.measurements
        summary = serial.summary()
        assert pooled.summary() == summary

        rows = serial.measurements
        warm = [m.warm_plt_ms for m in rows]
        assert summary["pairs"] == len(rows)
        for q in (50, 90, 99):
            assert summary[f"warm_p{q}_ms"] == percentile(warm, q)
        hits = sum(m.warm_sources.get(source, 0) for m in rows
                   for source in CACHE_SOURCES)
        acquired = sum(sum(m.warm_sources.values()) for m in rows)
        assert summary["cache_hit_ratio"] == hits / acquired > 0.0
        assert summary["warm_retries"] == sum(m.warm_retries for m in rows)

    def test_serial_grid_records_fleet_metrics_too(self, corpus):
        result = run_grid(sites=corpus.sites[:1],
                          modes=(CachingMode.CATALYST,),
                          conditions_list=[COND], delays_s=[HOUR])
        summary = result.summary()
        assert summary["pairs"] == 1
        assert summary["warm_p50_ms"] > 0.0
