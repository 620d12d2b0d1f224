"""Figure 3 — PLT reduction across the throughput × latency grid.

The paper's headline evaluation (and its in-text claims):

- little improvement at 8 Mbps, large at 60 Mbps,
- improvement grows with latency at fixed throughput,
- ~30 % average reduction; 60 Mbps / 40 ms ≈ median global 5G.

The bench runs a subsampled corpus by default (REPRO_BENCH_SITES
overrides; EXPERIMENTS.md records a full-corpus run).  One grid is
computed once per session and shared by the assertions.
"""

import os

import pytest

from repro.experiments.figure3 import (PAPER_REVISIT_DELAYS_S, run_figure3)
from repro.netsim.clock import MINUTE, HOUR, WEEK
from repro.workload.corpus import make_corpus

SITES = int(os.environ.get("REPRO_BENCH_SITES", "8"))
DELAYS = (1 * MINUTE, 6 * HOUR, 1 * WEEK)
THROUGHPUTS = (8.0, 16.0, 30.0, 60.0)
LATENCIES = (10.0, 40.0, 100.0)


@pytest.fixture(scope="module")
def figure3():
    return run_figure3(corpus=make_corpus(),
                       throughputs_mbps=THROUGHPUTS,
                       latencies_ms=LATENCIES,
                       delays_s=DELAYS,
                       sites=SITES)


def test_figure3_grid(benchmark, figure3, save_result):
    result = benchmark.pedantic(lambda: figure3, rounds=1, iterations=1)
    save_result("figure3_grid", result.format())
    benchmark.extra_info["overall_mean_reduction_pct"] = round(
        result.overall_mean_reduction * 100, 1)

    # catalyst wins every cell
    for cell in result.cells:
        assert cell.mean_reduction > 0, cell.label

    # bandwidth-bound corner is small; latency-bound corner is large
    worst = result.cell(8.0, 10.0).mean_reduction
    best = result.cell(60.0, 100.0).mean_reduction
    assert worst < 0.15
    assert best > 0.30
    assert best > 3 * worst


def test_figure3_monotone_in_latency(figure3, benchmark):
    """At fixed throughput, higher latency -> bigger reduction."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    for mbps in THROUGHPUTS:
        series = [figure3.cell(mbps, rtt).mean_reduction
                  for rtt in LATENCIES]
        assert series == sorted(series), f"{mbps} Mbps: {series}"


def test_figure3_monotone_in_throughput(figure3, benchmark):
    """At fixed latency, higher throughput -> bigger reduction."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    for rtt in LATENCIES:
        series = [figure3.cell(mbps, rtt).mean_reduction
                  for mbps in THROUGHPUTS]
        assert series == sorted(series), f"{rtt} ms: {series}"


def test_headline_30pct(figure3, benchmark, save_result):
    """The paper's headline: ~30 % average PLT reduction, anchored at the
    median-5G condition (60 Mbps / 40 ms)."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    headline = figure3.cell(60.0, 40.0)
    overall = figure3.overall_mean_reduction
    save_result("headline_claim", "\n".join([
        f"paper claim:        ~30% average PLT reduction",
        f"overall grid mean:  {overall * 100:.1f}%",
        f"60Mbps/40ms cell:   {headline.mean_reduction * 100:.1f}%"
        f"  (std {headline.mean_standard_plt_ms:.0f}ms ->"
        f" cat {headline.mean_catalyst_plt_ms:.0f}ms,"
        f" n={headline.pairs})",
    ]))
    # band, not point: the substrate is a simulator, the shape must hold
    assert 0.15 <= overall <= 0.50
    assert 0.25 <= headline.mean_reduction <= 0.55


def test_figure3_delay_sensitivity(benchmark, save_result):
    """Reduction grows with revisit delay (more of the cache expired)."""
    corpus = make_corpus().sample(max(4, SITES // 2), seed=3)

    def run():
        return run_figure3(corpus=corpus, throughputs_mbps=(60.0,),
                           latencies_ms=(40.0,),
                           delays_s=PAPER_REVISIT_DELAYS_S).delay_series
    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    from repro.experiments.report import format_pct, format_table
    from repro.netsim.clock import format_duration
    save_result("figure3_delay_series", format_table(
        ["revisit delay", "PLT reduction @60Mbps/40ms"],
        [(format_duration(delay), format_pct(reduction))
         for delay, reduction in rows]))
    reductions = [reduction for _, reduction in rows]
    assert reductions[-1] > reductions[0]
