"""Unit tests for the population-scale fleet engine.

Covers the contracts the fleet CLI and CI gates depend on: analytic
backends agree to float tolerance, a pooled DES replay folds into
*exactly* the serial registry, and the run payload carries what
``report_html`` reads.
"""

import pytest

from repro.core.analysis_vec import numpy_available
from repro.experiments.fleet import (DEFAULT_FLEET_COHORTS,
                                     default_population, fleet_payload,
                                     run_fleet_analytic, run_fleet_des,
                                     validate_fleet)
from repro.workload.corpus import make_corpus
from repro.workload.population import sample_visits

pytestmark = pytest.mark.fleet

BACKENDS = ["python"] + (["numpy"] if numpy_available() else [])


@pytest.fixture(scope="module")
def corpus():
    return make_corpus()


@pytest.fixture(scope="module")
def spec():
    return default_population(users=2_000, measured=100_000)


# -- analytic backend -------------------------------------------------------
@pytest.fixture(scope="module")
def analytic(spec, corpus):
    return {backend: run_fleet_analytic(spec, corpus, backend=backend)
            for backend in BACKENDS}


def test_analytic_covers_all_cohorts_and_modes(analytic, spec):
    result = analytic[BACKENDS[0]]
    assert [c.name for c in result.cohorts] == \
        [c.name for c in DEFAULT_FLEET_COHORTS]
    assert abs(sum(c.visits for c in result.cohorts)
               - spec.n_measured) < 1e-6
    for cohort in result.cohorts:
        assert [m.mode for m in cohort.modes] == ["standard", "catalyst"]
        assert 0.0 < cohort.cold_share < 1.0


def test_analytic_aggregates_are_sane(analytic):
    for result in analytic.values():
        by_mode = {m.mode: m for m in result.fleet}
        # catalyst never loses to standard on the fleet mean, and it
        # strictly cuts origin traffic (that's the paper's claim)
        assert by_mode["catalyst"].mean_ms <= by_mode["standard"].mean_ms
        assert by_mode["catalyst"].origin_rps \
            < by_mode["standard"].origin_rps
        for stats in result.fleet:
            assert 0.0 <= stats.hit_ratio <= 1.0
            assert stats.p50_ms <= stats.p90_ms <= stats.p99_ms
            assert stats.origin_rps > 0
        # the constrained cohort is strictly slower than urban-fast
        slow = {m.mode: m for m in result.cohorts[-1].modes}
        fast = {m.mode: m for m in result.cohorts[0].modes}
        assert slow["standard"].mean_ms > fast["standard"].mean_ms


@pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
def test_analytic_backends_agree(analytic):
    vec, py = analytic["numpy"], analytic["python"]
    for a, b in zip(vec.fleet + sum((c.modes for c in vec.cohorts), ()),
                    py.fleet + sum((c.modes for c in py.cohorts), ())):
        assert a.mode == b.mode
        for field in ("mean_ms", "p50_ms", "p90_ms", "p99_ms",
                      "origin_rps", "origin_mbps", "hit_ratio"):
            x, y = getattr(a, field), getattr(b, field)
            assert abs(x - y) <= 1e-9 * max(1.0, abs(x)), \
                (a.mode, field, x, y)


def test_analytic_rejects_mismatched_corpus(spec):
    small = make_corpus(size=5)
    with pytest.raises(ValueError):
        run_fleet_analytic(spec, small)


# -- sampled DES ------------------------------------------------------------
def test_des_parallel_merges_exactly_with_serial(spec, corpus):
    serial = run_fleet_des(spec, corpus, sample=6, max_workers=0)
    parallel = run_fleet_des(spec, corpus, sample=6, max_workers=2)
    assert serial.visits == parallel.visits > 0
    a, b = serial.metrics.dump(), parallel.metrics.dump()
    a.pop("fleet.des.workers")
    b.pop("fleet.des.workers")
    assert a == b


def test_des_covers_every_cohort(spec, corpus):
    result = run_fleet_des(spec, corpus, sample=6, max_workers=0)
    assert set(result.cohorts) == {c.name for c in spec.cohorts}


# -- validation gate --------------------------------------------------------
def test_validate_fleet_passes_default_gate(spec, corpus):
    validation = validate_fleet(spec, corpus, sample=9)
    visits = sample_visits(spec, 9, per_cohort=True)
    assert len(validation.rows) == len(visits) * 2
    # cold visits replay and price as first loads, shown as ``cold``
    assert [row[3] for row in validation.rows[::2]] \
        == [visit.delay_s for visit in visits]
    assert validation.passed, validation.format()
    assert "PASS" in validation.format()


# -- payloads ---------------------------------------------------------------
def test_fleet_payload_shape(analytic, spec, corpus):
    result = analytic[BACKENDS[0]]
    des = run_fleet_des(spec, corpus, sample=6, max_workers=0)
    validation = validate_fleet(spec, corpus, sample=6)
    payload = fleet_payload(result, des, validation)
    assert payload["bench"] == "population_fleet_run"
    assert payload["population_visits"] == spec.n_measured
    assert len(payload["cohorts"]) == len(spec.cohorts)
    for cohort in payload["cohorts"]:
        for mode in cohort["modes"]:
            for key in ("mean_ms", "p50_ms", "p90_ms", "p99_ms",
                        "origin_rps", "hit_ratio"):
                assert key in mode
    assert payload["des"]["visits"] == des.visits
    assert payload["validation"]["passed"] is True
    assert payload["validation"]["rows"] == len(validation.rows)
