"""``revisit``: the paper's Figure-3 unit on a working set that fits.

``run_grid`` over 4 fixed corpus sites x {standard, catalyst} x {60 Mbps/40 ms,
8 Mbps/100 ms} x {1 h, 1 d, 7 d}: 48 cold+warm pairs, 96 page loads
per pass.  One pass warms the program's caches in set-up; the timed
passes then find every body cached, so the simulator proper (message
model, netsim, browser, caches) is on top and an origin-render change
should leave this workload flat.
"""

from __future__ import annotations

import json
import random
import statistics

from repro.core.modes import CachingMode
from repro.experiments.harness import run_grid
from repro.netsim.link import NetworkConditions
from repro.workload.corpus import make_corpus

from .common import (Pace, Run, counter_metrics, filler_counts,
                     peak_rss_mb, percentile, ratio, repeat_setup)
from .layers import profiled

SETUP_REPS = 3
#: the 4 fixed sites: these quantiles of the corpus by resource count,
#: small to large, so the grid is representative and its bodies fit the
#: program's caches
SITE_QUANTILES = (0.2, 0.4, 0.6, 0.8)
MODES = (CachingMode.STANDARD, CachingMode.CATALYST)
CONDITIONS = (NetworkConditions.of(60, 40, label="60Mbps/40ms"),
              NetworkConditions.of(8, 100, label="8Mbps/100ms"))
DELAYS_S = (3600.0, 86400.0, 604800.0)
#: grid passes timed per run-second
PASSES_PER_SECOND = 0.6
#: cells between two ticks of the pace
CELLS_PER_TICK = 8


def passes(seconds: int) -> int:
    return max(1, round(seconds * PASSES_PER_SECOND))


def fixed_sites(corpus) -> list:
    ranked = sorted(corpus, key=lambda s: (s.index.resource_count, s.origin))
    return [ranked[int(q * len(ranked))] for q in SITE_QUANTILES]


def cells(corpus, seed: int) -> list[tuple]:
    """The grid's cells in an order drawn from the seed.

    The sites are fixed, so every seed times the same pairs; the seed
    decides the order they run in (and so what the program's caches
    hold when each one starts).
    """
    grid = [(site, mode, conditions, delay)
            for conditions in CONDITIONS for mode in MODES
            for delay in DELAYS_S for site in fixed_sites(corpus)]
    random.Random(seed).shuffle(grid)
    return grid


def cells_bytes(grid) -> bytes:
    return json.dumps([[site.origin, mode.value, conditions.describe(), delay]
                       for site, mode, conditions, delay in grid]).encode()


def grid_pass(grid, pace: Pace, times: list[float] | None = None) -> list:
    """One pass, one ``run_grid`` call per cell so each pair is timed;
    the pace ticks every ``CELLS_PER_TICK`` cells."""
    out = []
    for index, (site, mode, conditions, delay) in enumerate(grid):
        start = pace.clock()
        out += run_grid([site], [mode], [conditions], [delay]).measurements
        if times is not None:
            times.append(pace.clock() - start)
        if index % CELLS_PER_TICK == CELLS_PER_TICK - 1:
            pace.tick()
    return out


class _Phase:
    """``count`` timed passes, each checked against the warm-up pass."""

    def __init__(self, run: Run, grid, reference, count: int, pace: Pace):
        self.run = run
        self.grid = grid
        self.reference = reference
        self.count = count
        self.pace = pace
        #: pair times of each completed pass, in grid order
        self.pair_s: list[list[float]] = []
        self.pass_s: list[float] = []
        self.filler = (0, 0)

    def __call__(self):
        hits, misses = filler_counts()
        loads = 2 * len(self.grid)
        self.pace.tick()
        for _ in range(self.count):
            self.run.ops(loads)
            start = self.pace.clock()
            times: list[float] = []
            try:
                measurements = grid_pass(self.grid, self.pace, times)
            except Exception as exc:
                self.run.problem(f"run_grid raised {exc!r}", loads)
                continue
            self.pass_s.append(self.pace.clock() - start)
            self.pair_s.append(times)
            bad = sum(1 for got, want in zip(measurements, self.reference)
                      if got != want)
            self.run.check(bad == 0 and len(measurements) == len(self.grid),
                           f"{bad} pairs differ from the warm-up pass",
                           2 * max(bad, 1))
        after = filler_counts()
        self.filler = (after[0] - hits, after[1] - misses)
        return self


def run_workload(run: Run, seed: int, seconds: int, trace: bool) -> None:
    def build(pace):
        grid = cells(make_corpus(), seed)
        return grid, grid_pass(grid, pace)

    pace = Pace()
    setup_s, setup_wall_s, (grid, reference) = repeat_setup(
        build, SETUP_REPS, pace)
    run.check(all(m.cold_plt_ms > 0 and m.warm_plt_ms > 0
                  and m.warm_retries == 0 for m in reference),
              "warm-up pass has empty or retried page loads")
    mark = pace.mark()
    phase = _Phase(run, grid, reference, passes(seconds), pace)()
    scale = pace.scale(mark)

    hits, misses = phase.filler
    warm: dict[str, int] = {}
    for m in reference:
        for source, n in m.warm_sources.items():
            warm[source] = warm.get(source, 0) + n
    cache_hit_ratio = ratio(warm.get("http-cache", 0)
                            + warm.get("sw-cache", 0), sum(warm.values()))
    origins = {m.origin for m in reference}
    run.show("sites", sorted(origins))
    run.show("pairs_per_pass", len(grid))
    run.show("filler_hit_ratio_after_warmup",
             round(ratio(hits, hits + misses), 4))
    run.show("warm_cache_hit_ratio", round(cache_hit_ratio, 4))
    run.show("reference_seconds_per_wall_second", round(scale, 4))
    run.show("wall_setup_s", round(setup_wall_s, 4))
    run.show("wall_pass_s", [round(t, 3) for t in phase.pass_s])

    if not trace:
        # A cell's pair time is its median over the passes, so one slow
        # second moves one timing, not the cell's figure.
        cell_s = [statistics.median(times[i] for times in phase.pair_s)
                  for i in range(len(grid))]
        run.update({
            "setup_s": setup_s,
            "throughput": 2 * len(grid) / (
                statistics.median(phase.pass_s) * scale),
            "latency_p50_ms": 1000 * statistics.median(cell_s) * scale,
            "latency_p99_ms": 1000 * percentile(cell_s, 99) * scale,
            "peak_rss_mb": peak_rss_mb(),
        })
        return

    _traced, traced_s, attribution = profiled(
        _Phase(run, grid, reference, passes(seconds), Pace(False)))
    run.update(attribution.metrics())
    run.update(counter_metrics({
        "des.page_loads": 2 * len(grid) * len(phase.pair_s),
        "browser.origin_requests": phase.count * sum(
            m.warm_requests for m in reference),
        "browser.bytes_down": phase.count * sum(
            m.cold_bytes + m.warm_bytes for m in reference),
        "cache.hit_ratio": cache_hit_ratio,
        "workload.filler_misses": misses,
        "workload.filler_hit_ratio": ratio(hits, hits + misses),
        "workload.distinct_sites": len(origins),
    }))
    run.set("trace.overhead_x", traced_s / sum(phase.pass_s))
