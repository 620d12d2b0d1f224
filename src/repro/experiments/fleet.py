"""Population-scale fleet pricing: what a whole user base experiences.

The paper's Figure 3 is one user on a delay grid.  A deployment verdict
needs the fleet view: over a seeded population — Zipf site popularity,
per-cohort network conditions and revisit-delay mixtures, Poisson
arrivals (:mod:`repro.workload.population`) — what PLT distribution and
origin load does each caching mode actually produce?

Two interchangeable backends answer it:

* **Analytic** (:func:`run_fleet_analytic`): the population never
  materializes.  Each cohort's revisit-delay mixture quantizes into
  weighted grid points (:func:`~repro.workload.population.
  delay_mixture`), the closed-form model prices every ``(site, mode,
  delay-bin)`` cell *plus* its origin demand in one coefficient pass
  (:meth:`~repro.core.analysis_vec.VectorAnalyticModel.batch_visit`),
  and the Poisson-thinning cold share adds the first-visit cells.
  Fleet aggregates are weighted reductions over a few thousand cells
  standing in for millions of visits — a 10⁶-visit population prices
  in well under a second on numpy, seconds on the pure-Python leg.
* **Sampled DES** (:func:`run_fleet_des`): a deterministic sample of
  real schedule entries replays through the simulator
  (:func:`~repro.experiments.harness.replay`, in-process or pooled).
  The rows come back to the parent, which folds them in sample order
  into per-cohort PLT histograms and demand counters, so a pooled run's
  registry equals the in-process one for any sample size.

:func:`validate_fleet` ties the two together through the one
analytic-vs-DES check, :func:`~repro.experiments.sweep.validate_cells`.
Wall-clock throughput is measured by the ``fleet`` workload of the
repository benchmark (``perfbench/``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..browser.engine import BrowserConfig
from ..core.analysis_vec import VectorAnalyticModel, compile_site
from ..core.modes import CachingMode
from ..netsim.link import NetworkConditions
from ..obs.metrics import MetricsRegistry
from ..workload.corpus import CORPUS_SIZE, Corpus, make_corpus
from ..workload.population import (CohortSpec, PopulationSpec, Visit,
                                   cold_fraction, delay_mixture,
                                   sample_visits, zipf_weights)
from .harness import pool_size, replay
from .report import format_pct, format_table
from .stats import weighted_percentiles
from .sweep import ValidationResult, validate_cells

__all__ = ["FLEET_MODES", "DEFAULT_FLEET_COHORTS", "default_population",
           "ModeStats", "CohortFleet", "FleetResult", "run_fleet_analytic",
           "FleetDesResult", "run_fleet_des",
           "validate_fleet", "fleet_payload"]

FLEET_MODES = (CachingMode.STANDARD, CachingMode.CATALYST)

#: Cohorts grounded on the Figure-3 condition grid: a fast-urban
#: majority at the paper's headline condition, a mid tier, and the
#: constrained tail where Catalyst matters most.
DEFAULT_FLEET_COHORTS = (
    CohortSpec("urban-fast", 0.45,
               NetworkConditions.of(60, 40, label="60Mbps/40ms")),
    CohortSpec("suburban-mid", 0.35,
               NetworkConditions.of(30, 20, label="30Mbps/20ms")),
    CohortSpec("constrained", 0.20,
               NetworkConditions.of(8, 100, label="8Mbps/100ms")),
)


def default_population(users: int = 20_000,
                       measured: int = 1_000_000,
                       warmup: Optional[int] = None,
                       sites: int = CORPUS_SIZE,
                       alpha: float = 0.8,
                       rate_per_user_day: float = 12.0,
                       seed: int = 2024,
                       cohorts: Sequence[CohortSpec] = DEFAULT_FLEET_COHORTS
                       ) -> PopulationSpec:
    """The standard fleet workload: icarus-style warmup + measured split.

    Defaults give ~60 visits per user over a ~5-day horizon — deep
    enough that popular sites are warm for most users while the
    popularity tail stays cold, which is the regime where fleet hit
    ratios are decided.
    """
    if warmup is None:
        warmup = measured // 4
    return PopulationSpec(n_users=users, n_sites=sites,
                          cohorts=tuple(cohorts), n_warmup=warmup,
                          n_measured=measured, alpha=alpha,
                          rate_per_user_day=rate_per_user_day, seed=seed)


def _ranked_sites(spec: PopulationSpec,
                  corpus: Optional[Corpus]) -> list:
    """The corpus as a list indexed by the spec's popularity ranks."""
    sites = list(corpus if corpus is not None else make_corpus())
    if len(sites) != spec.n_sites:
        raise ValueError(f"spec prices {spec.n_sites} popularity ranks "
                         f"but the corpus has {len(sites)} sites")
    return sites


# -- analytic backend -------------------------------------------------------
@dataclass(frozen=True)
class ModeStats:
    """Fleet aggregates for one caching mode over one visit population."""

    mode: str
    mean_ms: float
    p50_ms: float
    p90_ms: float
    p99_ms: float
    #: expected origin requests per second over the measured window
    origin_rps: float
    #: expected origin egress over the measured window
    origin_mbps: float
    #: resource acquisitions served without an origin request
    hit_ratio: float


@dataclass(frozen=True)
class CohortFleet:
    name: str
    label: str
    share: float
    #: expected measured visits
    visits: float
    #: share of measured visits that are first-ever (cold) loads
    cold_share: float
    modes: tuple[ModeStats, ...]


@dataclass(frozen=True)
class FleetResult:
    """Analytic fleet pricing: per-cohort and fleet-wide aggregates."""

    users: int
    population_visits: int
    alpha: float
    sites: int
    bins: int
    backend: str
    cohorts: tuple[CohortFleet, ...]
    fleet: tuple[ModeStats, ...]
    elapsed_s: float

    @property
    def visits_per_s(self) -> float:
        return self.population_visits / self.elapsed_s \
            if self.elapsed_s > 0 else float("inf")

    def reduction(self, baseline: str = "standard",
                  target: str = "catalyst") -> float:
        """Fleet-wide mean-PLT reduction of ``target`` vs ``baseline``."""
        by_mode = {stats.mode: stats for stats in self.fleet}
        base = by_mode[baseline].mean_ms
        return (base - by_mode[target].mean_ms) / base if base > 0 else 0.0

    def format(self) -> str:
        header = ["cohort", "share", "visits", "cold", "mode",
                  "mean ms", "p50", "p90", "p99", "origin req/s", "hit"]
        rows = []

        def mode_rows(name, share, visits, cold, stats_list):
            for index, stats in enumerate(stats_list):
                rows.append([
                    name if index == 0 else "",
                    format_pct(share) if index == 0 else "",
                    f"{visits:,.0f}" if index == 0 else "",
                    format_pct(cold) if index == 0 else "",
                    stats.mode,
                    f"{stats.mean_ms:,.0f}", f"{stats.p50_ms:,.0f}",
                    f"{stats.p90_ms:,.0f}", f"{stats.p99_ms:,.0f}",
                    f"{stats.origin_rps:,.1f}",
                    format_pct(stats.hit_ratio),
                ])

        for cohort in self.cohorts:
            mode_rows(f"{cohort.name} ({cohort.label})", cohort.share,
                      cohort.visits, cohort.cold_share, cohort.modes)
        total_cold = sum(c.visits * c.cold_share for c in self.cohorts) \
            / max(sum(c.visits for c in self.cohorts), 1e-12)
        mode_rows("fleet", 1.0, float(self.population_visits),
                  total_cold, self.fleet)
        lines = [
            f"population: {self.users:,} users · "
            f"{self.population_visits:,} measured visits · "
            f"zipf alpha={self.alpha:g} over {self.sites} sites · "
            f"{len(self.cohorts)} cohorts · {self.bins} delay bins",
            format_table(header, rows),
            f"fleet mean-PLT reduction (catalyst vs standard): "
            f"{format_pct(self.reduction())}",
            f"priced {self.population_visits:,} visits in "
            f"{self.elapsed_s:.2f}s "
            f"({self.visits_per_s:,.0f} visits/s, {self.backend} backend)",
        ]
        return "\n".join(lines)


def _weighted_mode_stats(mode: str, values, weights, requests, bytes_down,
                         acquisitions, window_s) -> ModeStats:
    total_w = sum(weights)
    p50, p90, p99 = weighted_percentiles(values, weights, (50, 90, 99))
    mean_ms = sum(v * w for v, w in zip(values, weights)) / total_w
    return ModeStats(
        mode=mode,
        mean_ms=mean_ms, p50_ms=p50, p90_ms=p90, p99_ms=p99,
        origin_rps=requests / window_s,
        origin_mbps=bytes_down * 8.0 / window_s / 1e6,
        hit_ratio=1.0 - requests / acquisitions if acquisitions > 0 else 0.0,
    )


def run_fleet_analytic(spec: PopulationSpec,
                       corpus: Optional[Corpus] = None,
                       bins: int = 24,
                       backend: str = "auto",
                       modes: Sequence[CachingMode] = FLEET_MODES,
                       config: Optional[BrowserConfig] = None
                       ) -> FleetResult:
    """Price the whole population closed-form; never builds the schedule.

    Per cohort, the expected measured visits factor as
    ``visits · zipf(site) · [cold | (1 - cold) · mixture(delay-bin)]``;
    each factor's cells come out of one vectorized
    :meth:`~repro.core.analysis_vec.VectorAnalyticModel.batch_visit`
    call per site, and every fleet aggregate is a weighted reduction
    over those cells.
    """
    sites = _ranked_sites(spec, corpus)
    start = time.perf_counter()
    model = VectorAnalyticModel(config=config, backend=backend)
    compiled = [compile_site(site) for site in sites]
    popularity = zipf_weights(spec.n_sites, spec.alpha)
    warmup_share = spec.warmup_share
    per_user = spec.visits_per_user
    cold = [cold_fraction(per_user * p, warmup_share) for p in popularity]
    window_s = spec.measured_window_s
    mode_names = [mode.value for mode in modes]

    fleet_values = {m: [] for m in mode_names}
    fleet_weights = {m: [] for m in mode_names}
    fleet_requests = {m: 0.0 for m in mode_names}
    fleet_bytes = {m: 0.0 for m in mode_names}
    fleet_acquisitions = 0.0
    cohort_results = []
    for ci, cohort in enumerate(spec.cohorts):
        mixture = delay_mixture(cohort.revisit_model, bins)
        cohort_visits = spec.n_measured * spec.cohort_shares[ci]
        values = {m: [] for m in mode_names}
        weights = {m: [] for m in mode_names}
        requests = {m: 0.0 for m in mode_names}
        bytes_down = {m: 0.0 for m in mode_names}
        acquisitions = 0.0
        conditions = [cohort.conditions]
        for si, comp in enumerate(compiled):
            warm = model.batch_visit(comp, modes, mixture.delays_s,
                                     conditions)
            first = model.batch_visit(comp, modes, (0.0,), conditions,
                                      cold=True)
            warm_plt = warm.plt[0] if model.backend == "python" \
                else warm.plt[0].tolist()
            cold_plt = first.plt[0] if model.backend == "python" \
                else first.plt[0].tolist()
            site_visits = cohort_visits * popularity[si]
            cold_visits = site_visits * cold[si]
            warm_visits = site_visits - cold_visits
            acquisitions += site_visits * warm.acquisitions
            for mi, mode_name in enumerate(mode_names):
                vals, wts = values[mode_name], weights[mode_name]
                for di, bin_weight in enumerate(mixture.weights):
                    cell = warm_visits * bin_weight
                    vals.append(warm_plt[mi][di] * 1000.0)
                    wts.append(cell)
                    requests[mode_name] += cell * warm.requests[mi][di]
                    bytes_down[mode_name] += cell * warm.bytes_down[mi][di]
                vals.append(cold_plt[mi][0] * 1000.0)
                wts.append(cold_visits)
                requests[mode_name] += cold_visits * first.requests[mi][0]
                bytes_down[mode_name] += cold_visits * first.bytes_down[mi][0]
        cohort_cold = sum(p * c for p, c in zip(popularity, cold))
        cohort_modes = tuple(
            _weighted_mode_stats(m, values[m], weights[m], requests[m],
                                 bytes_down[m], acquisitions, window_s)
            for m in mode_names)
        cohort_results.append(CohortFleet(
            name=cohort.name, label=cohort.conditions.describe(),
            share=spec.cohort_shares[ci], visits=cohort_visits,
            cold_share=cohort_cold, modes=cohort_modes))
        for m in mode_names:
            fleet_values[m].extend(values[m])
            fleet_weights[m].extend(weights[m])
            fleet_requests[m] += requests[m]
            fleet_bytes[m] += bytes_down[m]
        fleet_acquisitions += acquisitions
    fleet_modes = tuple(
        _weighted_mode_stats(m, fleet_values[m], fleet_weights[m],
                             fleet_requests[m], fleet_bytes[m],
                             fleet_acquisitions, window_s)
        for m in mode_names)
    return FleetResult(
        users=spec.n_users, population_visits=spec.n_measured,
        alpha=spec.alpha, sites=spec.n_sites, bins=bins,
        backend=model.backend, cohorts=tuple(cohort_results),
        fleet=fleet_modes, elapsed_s=time.perf_counter() - start)


# -- sampled DES backend ----------------------------------------------------
@dataclass
class FleetDesResult:
    """Sampled-DES fleet aggregates, folded from the replayed rows."""

    visits: int
    workers: int
    #: cohort name -> mode -> {count, mean_ms, p50_ms, p90_ms, p99_ms}
    cohorts: dict
    elapsed_s: float
    metrics: MetricsRegistry = field(repr=False)

    @property
    def visits_per_s(self) -> float:
        return self.visits / self.elapsed_s if self.elapsed_s > 0 \
            else float("inf")

    def format(self) -> str:
        header = ["cohort", "mode", "visits", "cold", "mean ms", "p50",
                  "p90", "p99"]
        rows = []
        for name, modes in self.cohorts.items():
            for index, (mode, snap) in enumerate(modes.items()):
                rows.append([
                    name if index == 0 else "",
                    mode,
                    f"{snap['visits']}" if index == 0 else "",
                    f"{snap['cold_visits']}" if index == 0 else "",
                    f"{snap['mean_ms']:,.0f}", f"{snap['p50_ms']:,.0f}",
                    f"{snap['p90_ms']:,.0f}", f"{snap['p99_ms']:,.0f}"])
        return "\n".join([
            f"sampled DES fleet: {self.visits} visits, "
            f"{self.workers} worker(s), {self.elapsed_s:.1f}s "
            f"({self.visits_per_s:.1f} visits/s)",
            format_table(header, rows)])


def run_fleet_des(spec: PopulationSpec,
                  corpus: Optional[Corpus] = None,
                  sample: int = 96,
                  modes: Sequence[CachingMode] = FLEET_MODES,
                  max_workers: Optional[int] = None,
                  config: Optional[BrowserConfig] = None
                  ) -> FleetDesResult:
    """Replay a deterministic schedule sample through the simulator.

    One :func:`~repro.experiments.harness.replay` cell per sampled visit
    and mode, grouped by ``(cohort, user)``; the parent folds the rows,
    in that order, into per-cohort PLT histograms and demand counters
    (``fleet.cohort.<name>.*``).  ``max_workers`` is ``replay``'s
    (``0`` runs in-process); every worker count gives the same registry.
    """
    sites = _ranked_sites(spec, corpus)
    start = time.perf_counter()
    groups: dict[tuple[int, int], list[Visit]] = {}
    for visit in sample_visits(spec, sample, per_cohort=True):
        groups.setdefault((visit.cohort, visit.user), []).append(visit)
    visits = [visit for group in groups.values() for visit in group]
    cells = [(sites[visit.site], mode,
              spec.cohorts[visit.cohort].conditions, visit.delay_s)
             for visit in visits for mode in modes]
    workers = pool_size(max_workers, len(cells))
    rows = iter(replay(cells, base_config=config, max_workers=max_workers))
    registry = MetricsRegistry()
    registry.gauge("fleet.des.workers").set(workers)
    for visit in visits:
        prefix = f"fleet.cohort.{spec.cohorts[visit.cohort].name}"
        registry.counter(f"{prefix}.visits").inc()
        if visit.delay_s is None:
            registry.counter(f"{prefix}.cold_visits").inc()
        for mode in modes:
            plt_ms, requests, bytes_down = next(rows).last_visit
            registry.histogram(f"{prefix}.plt_ms.{mode.value}") \
                .observe(plt_ms)
            registry.counter(f"{prefix}.requests.{mode.value}") \
                .inc(requests)
            registry.counter(f"{prefix}.bytes_down.{mode.value}") \
                .inc(bytes_down)
    mode_values = [mode.value for mode in modes]
    snapshot: dict = {}
    for cohort in spec.cohorts:
        prefix = f"fleet.cohort.{cohort.name}"
        visits_counter = registry.get(f"{prefix}.visits")
        cold_counter = registry.get(f"{prefix}.cold_visits")
        per_mode = {}
        for mode_value in mode_values:
            hist = registry.get(f"{prefix}.plt_ms.{mode_value}")
            if hist is None:
                continue
            per_mode[mode_value] = {
                "visits": visits_counter.value if visits_counter else 0,
                "cold_visits": cold_counter.value if cold_counter else 0,
                "count": hist.count,
                "mean_ms": hist.mean(),
                "p50_ms": hist.percentile(50),
                "p90_ms": hist.percentile(90),
                "p99_ms": hist.percentile(99),
            }
        if per_mode:
            snapshot[cohort.name] = per_mode
    return FleetDesResult(visits=len(visits), workers=workers,
                          cohorts=snapshot,
                          elapsed_s=time.perf_counter() - start,
                          metrics=registry)


# -- DES-vs-analytic validation --------------------------------------------
def validate_fleet(spec: PopulationSpec,
                   corpus: Optional[Corpus] = None,
                   sample: int = 24,
                   min_rho: float = 0.85,
                   backend: str = "auto",
                   modes: Sequence[CachingMode] = FLEET_MODES,
                   config: Optional[BrowserConfig] = None
                   ) -> ValidationResult:
    """Price a seeded cohort sample both ways; gate on Spearman ρ.

    The same check as ``sweep --validate``
    (:func:`~repro.experiments.sweep.validate_cells`), over sampled
    fleet visits, cold loads included.
    """
    sites = _ranked_sites(spec, corpus)
    cells = [(sites[visit.site], spec.cohorts[visit.cohort].conditions,
              visit.delay_s)
             for visit in sample_visits(spec, sample, per_cohort=True)]
    return validate_cells(cells, modes=modes, min_rho=min_rho,
                          backend=backend, config=config)


# -- artifact payloads ------------------------------------------------------
def fleet_payload(result: FleetResult,
                  des: Optional[FleetDesResult] = None,
                  validation: Optional[ValidationResult] = None) -> dict:
    """Machine-readable fleet-run record (``repro fleet --out``).

    ``report_html`` renders the per-cohort PLT-percentile section from
    exactly this shape.
    """
    def mode_dict(stats: ModeStats) -> dict:
        return {"mode": stats.mode,
                "mean_ms": round(stats.mean_ms, 2),
                "p50_ms": round(stats.p50_ms, 2),
                "p90_ms": round(stats.p90_ms, 2),
                "p99_ms": round(stats.p99_ms, 2),
                "origin_rps": round(stats.origin_rps, 2),
                "origin_mbps": round(stats.origin_mbps, 4),
                "hit_ratio": round(stats.hit_ratio, 4)}

    payload = {
        "bench": "population_fleet_run",
        "schema_version": 1,
        "users": result.users,
        "population_visits": result.population_visits,
        "alpha": result.alpha,
        "sites": result.sites,
        "bins": result.bins,
        "backend": result.backend,
        "elapsed_s": round(result.elapsed_s, 3),
        "visits_per_s": round(result.visits_per_s, 1),
        "cohorts": [{
            "name": cohort.name, "label": cohort.label,
            "share": round(cohort.share, 4),
            "visits": round(cohort.visits, 1),
            "cold_share": round(cohort.cold_share, 4),
            "modes": [mode_dict(stats) for stats in cohort.modes],
        } for cohort in result.cohorts],
        "fleet": [mode_dict(stats) for stats in result.fleet],
    }
    if des is not None:
        payload["des"] = {"visits": des.visits, "workers": des.workers,
                          "visits_per_s": round(des.visits_per_s, 2),
                          "cohorts": des.cohorts}
    if validation is not None:
        payload["validation"] = {"rho": round(validation.rho, 4),
                                 "min_rho": validation.min_rho,
                                 "rows": len(validation.rows),
                                 "passed": validation.passed}
    return payload
