"""Population-fleet floor lane (``pytest -m fleet benchmarks/``).

Like the analytic and loadtest lanes this deliberately avoids the
``benchmark`` fixture: the fleet CI job installs plain pytest (+
hypothesis) and runs once with and once without numpy.  The floors are
absolute; same-machine throughput comparisons are the ``fleet`` workload
of ``perfbench/``.
"""

import pytest

from repro.core.analysis_vec import numpy_available
from repro.experiments.fleet import (default_population,
                                     run_fleet_analytic, run_fleet_des)
from repro.netsim.link import NetworkConditions
from repro.workload.corpus import make_corpus
from repro.workload.population import CohortSpec

pytestmark = pytest.mark.fleet

#: analytic visits one run must price
FLEET_POPULATION_FLOOR = 1_000_000
#: analytic visits/s floors per backend
VECTORIZED_CI_FLOOR_PER_S = 1_000_000.0
FALLBACK_CI_FLOOR_PER_S = 100_000.0
#: sampled-DES visits/s floors: the small smoke population, and a
#: serial sample of the million-user one
DES_CI_FLOOR_PER_S = 0.5
FLEET_DES_FLOOR_PER_S = 2.0


@pytest.fixture(scope="module")
def corpus():
    return make_corpus()


def test_analytic_prices_million_visit_population(corpus, save_result):
    """The tentpole claim: a 10⁶-visit population prices closed-form in
    seconds on either backend, at fleet-realistic Zipf/cohort shape."""
    spec = default_population()          # 20k users, 1M measured visits
    assert spec.n_measured >= FLEET_POPULATION_FLOOR
    result = run_fleet_analytic(spec, corpus)
    save_result("population_fleet", result.format())
    floor = (VECTORIZED_CI_FLOOR_PER_S if result.backend == "numpy"
             else FALLBACK_CI_FLOOR_PER_S)
    assert result.visits_per_s >= floor, (
        f"{result.backend} backend priced {result.visits_per_s:,.0f} "
        f"visits/s, floor {floor:,.0f}")
    # pricing must be visit-weighted, not degenerate
    by_mode = {m.mode: m for m in result.fleet}
    assert by_mode["catalyst"].mean_ms < by_mode["standard"].mean_ms
    assert by_mode["catalyst"].hit_ratio > by_mode["standard"].hit_ratio


def test_des_sampled_replay_clears_floor(corpus):
    spec = default_population(users=2_000, measured=100_000)
    result = run_fleet_des(spec, corpus, sample=6, max_workers=0)
    assert result.visits == 6
    assert result.visits_per_s >= DES_CI_FLOOR_PER_S


def test_million_user_population_clears_floors(corpus):
    """A 10⁶-user, 5·10⁷-visit population prices above each backend's
    floor, and a small serial DES sample of it replays fast enough."""
    spec = default_population(users=1_000_000, measured=50_000_000)
    assert spec.n_measured >= FLEET_POPULATION_FLOOR
    floors = {"python": FALLBACK_CI_FLOOR_PER_S}
    if numpy_available():
        floors["numpy"] = VECTORIZED_CI_FLOOR_PER_S
    for backend, floor in floors.items():
        result = run_fleet_analytic(spec, corpus, backend=backend)
        assert result.backend == backend
        assert result.visits_per_s >= floor, (
            f"{backend} backend priced {result.visits_per_s:,.0f} "
            f"visits/s, floor {floor:,.0f}")
    des = run_fleet_des(spec, corpus, sample=3, max_workers=0)
    assert des.visits == 3
    assert des.visits_per_s >= FLEET_DES_FLOOR_PER_S


def test_revisit_reductions_by_cohort(corpus, save_result):
    """The user-weighted benefit, read off one sampled DES replay: per
    cohort, the warm visits' per-revisit reductions (the reduction
    column of ``repro fleet --des``).  At the 5G anchor the mean stays in
    the headline band; on a bandwidth-bound link of the same RTT it is
    smaller."""
    anchor = NetworkConditions.of(60, 40, label="60Mbps/40ms")
    bandwidth_bound = NetworkConditions.of(8, 40, label="8Mbps/40ms")
    spec = default_population(cohorts=(
        CohortSpec("60Mbps/40ms", 0.5, anchor),
        CohortSpec("8Mbps/40ms", 0.5, bandwidth_bound)))
    des = run_fleet_des(spec, corpus, sample=80, max_workers=2)
    save_result("population_fleet_des", des.format())
    summary = des.reduction_summary()
    assert all(summary[name]["n"] >= 15 for name in summary)
    assert 0.20 <= summary["60Mbps/40ms"]["mean"] <= 0.60
    assert summary["8Mbps/40ms"]["mean"] < summary["60Mbps/40ms"]["mean"]
