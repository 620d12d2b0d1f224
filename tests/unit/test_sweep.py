"""Unit tests for the analytic Figure-3 grid and its DES validation."""

import pytest

from repro.core.analysis_vec import batch_estimate_plt, numpy_available
from repro.core.modes import CachingMode
from repro.experiments.figure3 import run_figure3
from repro.experiments.sweep import (ValidationResult, validate_cells,
                                     validate_sweep)
from repro.netsim.clock import DAY, HOUR
from repro.netsim.link import NetworkConditions
from repro.workload.corpus import make_corpus

pytestmark = pytest.mark.analytic


@pytest.fixture(scope="module")
def small_sweep():
    """The closed form's grid on a churned corpus (``figure3 --backend
    auto --churn``)."""
    return run_figure3(sites=6, throughputs_mbps=(8.0, 60.0),
                       latencies_ms=(10.0, 40.0, 100.0),
                       delays_s=(HOUR, DAY), backend="auto",
                       content_churn=True)


class TestRunSweep:
    def test_grid_shape(self, small_sweep):
        assert len(small_sweep.cells) == 2 * 3
        assert [(c.mbps, c.rtt_ms) for c in small_sweep.cells] == \
            [(mbps, rtt) for mbps in (8.0, 60.0)
             for rtt in (10.0, 40.0, 100.0)]
        assert small_sweep.sites == 6
        assert small_sweep.estimates == 6 * 6 * 2 * 2

    def test_reductions_in_unit_interval(self, small_sweep):
        for cell in small_sweep.cells:
            assert 0.0 < cell.mean_reduction < 1.0

    def test_latency_story_at_high_throughput(self, small_sweep):
        """At 60 Mbps the win grows with RTT — the paper's Figure 3."""
        top_row = [small_sweep.cell(60.0, rtt).mean_reduction
                   for rtt in (10.0, 40.0, 100.0)]
        assert top_row == sorted(top_row)

    @pytest.mark.skipif(not numpy_available(),
                        reason="numpy not installed")
    def test_numpy_reduction_matches_python_for_one_cell(self,
                                                         small_sweep):
        """Spot-check the NumPy grid's reduction against per-site
        Python pricing."""
        assert small_sweep.backend == "numpy"
        corpus = make_corpus().sample(6, seed=7)
        cond = NetworkConditions.of(60.0, 40.0)
        total = 0.0
        count = 0
        for site in corpus:
            plt = batch_estimate_plt(
                site, (CachingMode.STANDARD, CachingMode.CATALYST),
                (HOUR, DAY), [cond], backend="python")
            for di in range(2):
                standard, catalyst = plt[0][0][di], plt[0][1][di]
                total += (standard - catalyst) / standard
                count += 1
        assert small_sweep.cell(60.0, 40.0).mean_reduction == \
            pytest.approx(total / count, rel=1e-9)

    def test_delay_series_covers_all_delays(self, small_sweep):
        assert [delay for delay, _ in small_sweep.delay_series] \
            == [HOUR, DAY]

    def test_format_mentions_headline_and_backend(self, small_sweep):
        """The report names the grid's backend (analytic, not the
        engine) and the headline cell, and carries no wall time."""
        text = small_sweep.format()
        assert "60Mbps/40ms" in text
        assert "(analytic, 6 sites, 2 delays)" in text
        assert small_sweep.backend not in text
        assert "overall mean" in text


class TestValidateSweep:
    def test_seeded_subgrid_is_reproducible_and_passes(self):
        conditions = [NetworkConditions.of(8.0, 10.0),
                      NetworkConditions.of(60.0, 100.0)]
        first = validate_sweep(sites=2, delays_s=(DAY,),
                               conditions_list=conditions)
        again = validate_sweep(sites=2, delays_s=(DAY,),
                               conditions_list=conditions)
        assert first.passed
        assert first.rho == pytest.approx(again.rho)
        assert [row[:4] for row in first.rows] \
            == [row[:4] for row in again.rows]
        assert "Spearman rank correlation" in first.format()

    def test_min_rho_gate(self):
        conditions = [NetworkConditions.of(8.0, 10.0),
                      NetworkConditions.of(60.0, 100.0)]
        strict = validate_sweep(sites=2, delays_s=(DAY,),
                                conditions_list=conditions,
                                min_rho=1.0)
        assert strict.rho < 1.0
        assert not strict.passed
        assert "FAIL" in strict.format()

    def test_rho_equal_to_floor_passes(self):
        """``--min-rho`` is a floor: reaching it is enough."""
        rows = [("o", "c", "m", None, 1.0, 1.0)] * 2
        assert ValidationResult(rho=0.85, min_rho=0.85, rows=rows).passed
        assert not ValidationResult(rho=0.849, min_rho=0.85,
                                    rows=rows).passed

    def test_fewer_than_two_rows_fail(self):
        """A rank correlation over fewer than two rows compares nothing
        (``spearman`` reads 1.0 there), so the gate fails."""
        assert not validate_cells([]).passed
        one = ValidationResult(rho=1.0, min_rho=0.85,
                               rows=[("o", "c", "m", None, 1.0, 1.0)])
        assert not one.passed
        assert "[FAIL: fewer than 2 rows compared]" in one.format()

    def test_cold_rows_format_as_cold(self):
        result = ValidationResult(
            rho=1.0, min_rho=0.85,
            rows=[("https://a.example", "60Mbps/40ms", "standard", None,
                   0.5, 0.6),
                  ("https://a.example", "60Mbps/40ms", "standard", DAY,
                   0.3, 0.4)])
        lines = result.format().splitlines()
        assert " cold " in lines[2] and " 1d " in lines[3]
