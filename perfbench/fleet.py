"""``fleet``: the population engine's two backends on the default fleet.

``default_population()`` (20k users, Zipf 0.8 over the 100-site corpus,
three network cohorts) drives two operations:

- the visit samples of five such populations (five population seeds),
  each replayed once through ``run_fleet_des(..., max_workers=0)`` from
  cold caches (throughput, in simulated page loads/s, from the median
  replay);
- whole-population pricing of the first one with ``run_fleet_analytic``
  (latency), with calls before the first replay and after each one.

Each replay starts from cold body caches (``workload/sitegen.py``) and
generates about 750 distinct bodies, so origin content generation is on
top: this is the workload an origin-render change should move.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import statistics
import time
from dataclasses import replace

from repro.experiments.fleet import (FLEET_MODES, default_population,
                                     run_fleet_analytic, run_fleet_des)
from repro.workload.corpus import make_corpus
from repro.workload.population import sample_visits

from .common import (Pace, Run, clear_program_caches, counter_metrics,
                     filler_cache, filler_counts, peak_rss_mb, percentile,
                     ratio, repeat_setup)
from .layers import profiled

SETUP_REPS = 5
#: populations, each replayed once from cold caches; throughput is from
#: the median replay
REPLAYS = 5
#: population pricings timed before the first replay and after each one
#: (following an untimed warm-up)
PRICE_CALLS_PER_GAP = 4
#: sampled visits in one replay, per run-second
VISITS_PER_SECOND = 2.1
#: populations whose replay samples define a typical one, and how close
#: a drawn population's sample must be to it
REFERENCE = 40
TOLERANCE = 0.03


def sample_size(seconds: int) -> int:
    """A multiple of the cohort count: the sample splits evenly."""
    cohorts = len(default_population().cohorts)
    return cohorts * max(1, round(seconds * VISITS_PER_SECOND / cohorts))


def _features(sites, sample) -> tuple[float, ...]:
    """What a replay's cost follows: resources per page load, cold
    visits, and the bytes of the distinct sites it renders."""
    loads = [1 if v.delay_s is None else 2 for v in sample]
    per_load = sum(sites[v.site].index.resource_count * n
                   for v, n in zip(sample, loads)) / sum(loads)
    cold = sum(v.delay_s is None for v in sample)
    rendered = sum(sites[site].index.total_bytes
                   for site in {v.site for v in sample})
    return per_load, cold, rendered


def inputs(seed: int, seconds: int, corpus) -> list[tuple]:
    """``REPLAYS`` populations, each with the visit sample
    ``run_fleet_des`` replays for it.

    The seed draws population seeds until ``REPLAYS`` of them have a
    typical replay sample (within ``TOLERANCE`` of the median of
    ``REFERENCE`` populations on every feature), so every seed replays a
    comparable amount of work.
    """
    sites = list(corpus)
    n = sample_size(seconds)

    def draw(population_seed: int):
        spec = default_population(seed=population_seed)
        return spec, sample_visits(spec, n, per_cohort=True)

    reference = [_features(sites, draw(k)[1]) for k in range(REFERENCE)]
    typical = [statistics.median(f[i] for f in reference)
               for i in range(len(reference[0]))]
    rng = random.Random(seed)
    chosen: dict[int, tuple] = {}
    for _ in range(10_000):
        spec, sample = draw(rng.getrandbits(32))
        if all(abs(got / want - 1) <= TOLERANCE
               for got, want in zip(_features(sites, sample), typical)):
            chosen.setdefault(spec.seed, (spec, sample))
            if len(chosen) == REPLAYS:
                return list(chosen.values())
    raise RuntimeError("too few populations with a typical replay sample")


def page_loads(sample) -> int:
    """Page loads a replay of ``sample`` simulates: cold visits load
    once per mode, cold+warm visits twice."""
    return len(FLEET_MODES) * sum(1 if v.delay_s is None else 2
                                  for v in sample)


def sample_bytes(visits) -> bytes:
    return json.dumps([[v.user, v.cohort, v.site, v.at_s, v.delay_s,
                        v.measured] for v in visits]).encode()


def registry_digest(registry) -> str:
    """Digest of the DES registry's exact fields: counters, histogram
    counts, sums, min and max (never the lossy sketch buckets)."""
    exact = {}
    for name, entry in sorted(registry.dump().items()):
        if entry["kind"] == "histogram":
            sketch = entry.get("sketch", {})
            exact[name] = [entry["count"], entry["total"],
                           sketch.get("min"), sketch.get("max")]
        else:
            exact[name] = entry.get("value")
    return hashlib.sha256(json.dumps(exact).encode()).hexdigest()


def des_counts(registry) -> dict[str, int]:
    """Visits, cold visits, origin requests and bytes over all cohorts."""
    counts = {"visits": 0, "cold": 0, "requests": 0, "bytes": 0}
    for name, entry in registry.dump().items():
        kind = name.rsplit(".", 2)[-2]
        if name.endswith(".visits"):
            counts["visits"] += entry["value"]
        elif name.endswith(".cold_visits"):
            counts["cold"] += entry["value"]
        elif kind == "requests":
            counts["requests"] += entry["value"]
        elif kind == "bytes_down":
            counts["bytes"] += entry["value"]
    counts["page_loads"] = len(FLEET_MODES) * (2 * counts["visits"]
                                               - counts["cold"])
    return counts


def _comparable(result):
    return replace(result, elapsed_s=0.0)


def _analytic_values(result) -> list[float]:
    values = []
    for cohort in result.cohorts:
        values += [cohort.visits, cohort.cold_share]
        for stats in cohort.modes:
            values += [stats.mean_ms, stats.p50_ms, stats.p90_ms,
                       stats.p99_ms, stats.origin_rps, stats.origin_mbps,
                       stats.hit_ratio]
    for stats in result.fleet:
        values += [stats.mean_ms, stats.p50_ms, stats.p90_ms, stats.p99_ms,
                   stats.origin_rps, stats.origin_mbps, stats.hit_ratio]
    return values


class _Phase:
    """The timed work: one cold replay per population, with pricings of
    the first population before the first replay and after each one."""

    def __init__(self, run: Run, corpus, populations, reference,
                 pace: Pace):
        self.run = run
        self.corpus = corpus
        self.populations = populations
        self.reference = reference
        self.pace = pace
        self.price_s: list[float] = []
        self.des_s: list[float] = []
        #: one ``FleetDesResult`` (None if it raised) per population
        self.des: list = []
        self.cells = 0
        #: body-cache hits and misses over all replays
        self.filler = (0, 0)

    def _price(self, calls: int) -> None:
        spec = self.populations[0][0]
        for _ in range(calls):
            self.run.ops(1)
            start = self.pace.clock()
            try:
                result = run_fleet_analytic(spec, self.corpus)
            except Exception as exc:  # a failed call is a failed op
                self.run.problem(f"pricing raised {exc!r}", 1)
                self.pace.tick()
                continue
            self.price_s.append(self.pace.clock() - start)
            self.pace.tick()
            if self.run.check(_comparable(result) == self.reference,
                              "pricing call differs from the warm-up"):
                self.cells += len(result.cohorts) * result.sites \
                    * len(result.fleet) * (result.bins + 1)

    def __call__(self):
        self.pace.tick()
        self._price(PRICE_CALLS_PER_GAP)
        hits = misses = 0
        for spec, sample in self.populations:
            # Each replay starts from cold caches, as each
            # ``repro fleet --des`` run does.
            clear_program_caches()
            before = filler_counts()
            start = self.pace.clock()
            try:
                des = run_fleet_des(spec, self.corpus, sample=len(sample),
                                    max_workers=0)
            except Exception as exc:
                self.run.problem(f"run_fleet_des raised {exc!r}")
                des = None
            self.des_s.append(self.pace.clock() - start)
            self.pace.tick()
            after = filler_counts()
            hits += after[0] - before[0]
            misses += after[1] - before[1]
            self.des.append(des)
            self._price(PRICE_CALLS_PER_GAP)
        self.filler = (hits, misses)
        return self


def _check_des(run: Run, des, sample) -> dict:
    """Counts of one replay, checked; empty if the replay raised."""
    expected = page_loads(sample)
    if des is None:
        run.ops(expected, failed=expected)
        return {}
    run.ops(expected)
    counts = des_counts(des.metrics)
    run.check(des.visits == len(sample) and counts["page_loads"] == expected,
              f"DES replayed {counts['page_loads']} page loads, "
              f"expected {expected}", expected)
    for cohort, modes in des.cohorts.items():
        for mode, snap in modes.items():
            run.check(snap["count"] == snap["visits"] and snap["p50_ms"] > 0,
                      f"{cohort}/{mode}: {snap['count']} PLTs for "
                      f"{snap['visits']} visits", 2 * snap["visits"])
    return counts


def run_workload(run: Run, seed: int, seconds: int, trace: bool) -> None:
    drawn = inputs(seed, seconds, make_corpus())
    samples = [sample for _spec, sample in drawn]

    def build(_pace):
        return make_corpus(), [default_population(seed=spec.seed)
                               for spec, _sample in drawn]

    pace = Pace()
    setup_s, setup_wall_s, (corpus, specs) = repeat_setup(build, SETUP_REPS,
                                                          pace)
    populations = list(zip(specs, samples))
    reference = _comparable(run_fleet_analytic(specs[0], corpus))  # warm-up

    mark = pace.mark()
    phase = _Phase(run, corpus, populations, reference, pace)()
    scale = pace.scale(mark)
    counts = [_check_des(run, des, sample)
              for des, sample in zip(phase.des, samples)]
    digest = registry_digest(phase.des[0].metrics) if phase.des[0] else None

    python = run_fleet_analytic(specs[0], corpus, backend="python")
    run.check(all(math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)
                  for a, b in zip(_analytic_values(python),
                                  _analytic_values(reference))),
              "python pricing backend differs from numpy beyond 1e-9")

    visits = [v for sample in samples for v in sample]
    sites = {v.site for v in visits}
    cold = sum(1 for v in visits if v.delay_s is None) / len(visits)
    hits, misses = phase.filler
    cache = filler_cache()
    price_s = statistics.median(phase.price_s)
    run.show("replays", len(samples))
    run.show("visits_per_replay", len(samples[0]))
    run.show("cold_visit_share", round(cold, 4))
    run.show("distinct_sites", len(sites))
    run.show("filler_misses_per_replay_vs_capacity",
             f"{misses / len(samples):.0f} / "
             f"{cache.cache_info().maxsize if cache else None}")
    run.show("des_digest_first_replay", digest)
    run.show("reference_seconds_per_wall_second", round(scale, 4))
    run.show("wall_setup_s", round(setup_wall_s, 4))
    run.show("wall_replay_s", [round(t, 3) for t in phase.des_s])
    run.show("wall_price_ms", round(1000 * price_s, 2))

    if not trace:
        run.update({
            "setup_s": setup_s,
            "throughput": statistics.median(
                c.get("page_loads", 0) / (t * scale)
                for c, t in zip(counts, phase.des_s)),
            "latency_p50_ms": 1000 * price_s * scale,
            "latency_p99_ms": 1000 * percentile(phase.price_s, 99) * scale,
            "peak_rss_mb": peak_rss_mb(),
        })
        return

    # The traced run profiles the first replay and the pricings around it.
    traced, traced_s, attribution = profiled(
        _Phase(run, corpus, populations[:1], reference, Pace(False)))
    run.check(_check_des(run, traced.des[0], samples[0]) == counts[0]
              and traced.des[0] is not None
              and registry_digest(traced.des[0].metrics) == digest,
              "traced DES registry differs from the untraced one",
              page_loads(samples[0]))
    run.update(attribution.metrics())
    run.update(counter_metrics({
        "des.page_loads": sum(c.get("page_loads", 0) for c in counts),
        "browser.origin_requests": sum(c.get("requests", 0) for c in counts),
        "browser.bytes_down": sum(c.get("bytes", 0) for c in counts),
        "workload.filler_misses": misses,
        "workload.filler_hit_ratio": ratio(hits, hits + misses),
        "workload.distinct_sites": len(sites),
        "workload.cold_share": cold,
        "core.cells_priced": phase.cells,
    }))
    untraced_s = phase.des_s[0] + len(traced.price_s) * price_s
    run.set("trace.overhead_x", traced_s / untraced_s)
