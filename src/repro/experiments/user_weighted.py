"""User-weighted expected benefit.

Figure 3 averages over five arbitrary delays; a deployment decision asks
a different question: *over a realistic population of revisits, what PLT
does a user actually save?*  This experiment draws revisit intervals
from :data:`~repro.workload.revisits.DEFAULT_REVISIT_MODEL` and reports
the distribution of per-revisit reductions.

It is a thin single-cohort view over the population engine
(:mod:`repro.workload.population`): :func:`user_weighted_spec` builds a
one-cohort, uniform-popularity :class:`PopulationSpec`, and the
measured revisits are the first ``sites * revisits_per_site`` warm
entries of its deterministic schedule — the same sampler the fleet
experiment shards across cohorts, replayed through the same
:func:`~repro.experiments.harness.replay` — so the two stay consistent
by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..browser.engine import BrowserConfig
from ..core.modes import CachingMode
from ..netsim.link import NetworkConditions
from ..workload.corpus import Corpus, make_corpus
from ..workload.population import CohortSpec, PopulationSpec, sample_visits
from ..workload.revisits import DEFAULT_REVISIT_MODEL, RevisitModel
from .harness import replay
from .stats import Summary, summarize

__all__ = ["UserWeightedResult", "run_user_weighted", "user_weighted_spec"]


@dataclass
class UserWeightedResult:
    """Distribution of per-revisit reductions over sampled intervals."""

    conditions: str
    reductions: list[float]
    delays_s: list[float]

    @property
    def summary(self) -> Summary:
        return summarize(self.reductions)

    def format(self) -> str:
        pct = summarize([r * 100.0 for r in self.reductions])
        return (f"{self.conditions}: user-weighted PLT reduction "
                f"mean {pct.mean:.1f}% "
                f"(95% CI [{pct.ci_low:.1f}%, {pct.ci_high:.1f}%]), "
                f"median {pct.median:.1f}%, "
                f"p10-p90 [{pct.p10:.1f}%, {pct.p90:.1f}%], n={pct.n}")


def user_weighted_spec(conditions: NetworkConditions,
                       model: RevisitModel = DEFAULT_REVISIT_MODEL,
                       sites: int = 5, revisits_per_site: int = 4,
                       seed: int = 99) -> PopulationSpec:
    """The single-cohort population behind :func:`run_user_weighted`.

    ``alpha=0`` makes site popularity uniform (the experiment samples
    its subset evenly, like the original bespoke loop); the visit
    budget leaves headroom so the first ``sites * revisits_per_site``
    *warm* schedule entries always exist.
    """
    n_pairs = sites * revisits_per_site
    return PopulationSpec(
        n_users=max(2, sites),
        n_sites=sites,
        cohorts=(CohortSpec("users", 1.0, conditions, model),),
        n_warmup=0,
        n_measured=4 * n_pairs,
        alpha=0.0,
        seed=seed,
    )


def run_user_weighted(corpus: Optional[Corpus] = None,
                      conditions: NetworkConditions = NetworkConditions.of(
                          60, 40, label="60Mbps/40ms"),
                      model: RevisitModel = DEFAULT_REVISIT_MODEL,
                      sites: int = 5, revisits_per_site: int = 4,
                      seed: int = 99,
                      base_config: Optional[BrowserConfig] = None
                      ) -> UserWeightedResult:
    """Measure the population sampler's first warm (site, delay) pairs.

    ``base_config=None`` means a fresh default per call.
    """
    if corpus is None:
        corpus = make_corpus()
    subset = list(corpus.sample(sites, seed=seed).frozen())
    spec = user_weighted_spec(conditions=conditions, model=model,
                              sites=sites,
                              revisits_per_site=revisits_per_site,
                              seed=seed)
    visits = sample_visits(spec, sites * revisits_per_site,
                           measured_only=False, warm_only=True)
    modes = (CachingMode.STANDARD, CachingMode.CATALYST)
    rows = replay([(subset[visit.site], mode, conditions, visit.delay_s)
                   for visit in visits for mode in modes],
                  base_config=base_config)
    reductions: list[float] = []
    delays: list[float] = []
    for standard, catalyst in zip(rows[::2], rows[1::2]):
        if standard.warm_plt_ms > 0:
            reductions.append((standard.warm_plt_ms - catalyst.warm_plt_ms)
                              / standard.warm_plt_ms)
            delays.append(standard.delay_s)
    return UserWeightedResult(conditions=conditions.describe(),
                              reductions=reductions, delays_s=delays)
