"""Unit tests for the population-scale fleet engine.

Covers the contracts the fleet CLI and CI gates depend on: analytic
backends agree to float tolerance, a pooled DES replay folds into
*exactly* the serial registry, and the run payload carries what
``report_html`` reads.
"""

import random
from dataclasses import astuple, replace

import pytest

from repro.core.analysis_vec import VectorAnalyticModel, numpy_available
from repro.experiments.fleet import (DEFAULT_FLEET_COHORTS,
                                     _weighted_percentiles_np,
                                     default_population, fleet_payload,
                                     run_fleet_analytic, run_fleet_des,
                                     validate_fleet)
from repro.experiments.stats import weighted_percentiles
from repro.netsim.clock import DAY, HOUR, MINUTE
from repro.workload.corpus import make_corpus
from repro.workload.population import sample_visits
from repro.workload.revisits import RevisitModel, _Component

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


def assert_backends_agree(vec, py):
    for a, b in zip(vec.fleet + sum((c.modes for c in vec.cohorts), ()),
                    py.fleet + sum((c.modes for c in py.cohorts), ())):
        assert a.mode == b.mode
        for field in ("mean_ms", "p50_ms", "p90_ms", "p99_ms",
                      "origin_rps", "origin_mbps", "hit_ratio"):
            x, y = getattr(a, field), getattr(b, field)
            assert abs(x - y) <= 1e-9 * max(1.0, abs(x)), \
                (a.mode, field, x, y)


@pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
def test_analytic_backends_agree(analytic):
    assert_backends_agree(analytic["numpy"], analytic["python"])


#: revisits that come back within minutes, unlike the default mixture
QUICK_RETURNS = RevisitModel(components=(
    _Component(weight=0.8, median_s=3 * MINUTE, sigma=0.8),
    _Component(weight=0.2, median_s=2 * HOUR, sigma=1.2),
), max_delay_s=7 * DAY)


@pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
def test_distinct_revisit_models_price_alike(corpus, monkeypatch):
    """Cohorts with two delay mixtures make two warm engine calls (plus
    one for first visits), and both backends price them alike."""
    cohorts = list(DEFAULT_FLEET_COHORTS)
    cohorts[1] = replace(cohorts[1], revisit_model=QUICK_RETURNS)
    spec = default_population(users=2_000, measured=100_000,
                              cohorts=cohorts)
    calls = []
    batch_visit = VectorAnalyticModel.batch_visit

    def counted(self, sites, modes, delays_s, conditions_list, cold=False):
        calls.append((len(conditions_list), cold))
        return batch_visit(self, sites, modes, delays_s, conditions_list,
                           cold=cold)

    monkeypatch.setattr(VectorAnalyticModel, "batch_visit", counted)
    vec = run_fleet_analytic(spec, corpus, backend="numpy")
    assert sorted(calls) == [(1, False), (2, False), (3, True)]
    py = run_fleet_analytic(spec, corpus, backend="python")
    assert_backends_agree(vec, py)
    default = run_fleet_analytic(default_population(
        users=2_000, measured=100_000), corpus, backend="numpy")
    # the regrouped default cohort prices as it does in the default fleet
    for got, want in zip(vec.cohorts[2].modes, default.cohorts[2].modes):
        assert astuple(got)[1:] == pytest.approx(astuple(want)[1:],
                                                 rel=1e-12)
    assert vec.cohorts[1].modes[0].mean_ms \
        < default.cohorts[1].modes[0].mean_ms


@pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
@pytest.mark.parametrize("values, weights", [
    # tied values, with tied and distinct weights
    ([5.0, 5.0, 5.0, 1.0, 9.0], [1.0, 3.0, 1.0, 2.0, 1.0]),
    # zero weights, including the smallest and largest values
    ([1.0, 2.0, 3.0, 4.0], [0.0, 1.0, 0.0, 0.0]),
    ([3.0, 1.0, 2.0], [0.0, 0.0, 5.0]),
    # cumulative weight lands exactly on 50 % and 90 %
    ([1.0, 2.0, 3.0, 4.0], [5.0, 5.0, 8.0, 2.0]),
    ([4.0, 3.0, 2.0, 1.0], [1.0, 1.0, 1.0, 1.0]),
    # the 50 % boundary reached by a sum that rounds below it
    ([1.0, 2.0, 3.0, 4.0], [0.1, 0.7, 0.1, 0.7]),
])
def test_numpy_percentiles_match_reference(values, weights):
    np = pytest.importorskip("numpy")
    qs = (0, 10, 25, 50, 70, 90, 99, 100)
    assert _weighted_percentiles_np(np.asarray(values), np.asarray(weights),
                                    qs) \
        == weighted_percentiles(values, weights, qs)


@pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
def test_numpy_percentiles_match_reference_on_random_ties():
    """Small integer values and weights: ties and zero weights are
    common, and every cumulative weight is exact."""
    np = pytest.importorskip("numpy")
    rng = random.Random(5)
    qs = tuple(range(0, 101, 5)) + (99,)
    for _ in range(300):
        n = rng.randint(1, 12)
        values = [float(rng.randint(0, 4)) for _ in range(n)]
        weights = [float(rng.randint(0, 3)) for _ in range(n)]
        if not any(weights):
            weights[0] = 1.0
        assert _weighted_percentiles_np(np.asarray(values),
                                        np.asarray(weights), qs) \
            == weighted_percentiles(values, weights, qs), (values, weights)


@pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
def test_fleet_order_merged_from_cohort_orders_is_the_lexsort():
    """The fleet row's order, merged from each cohort's own lexsort,
    equals ``np.lexsort`` of the concatenation: by value, then weight,
    then position, with ties across and within parts common."""
    np = pytest.importorskip("numpy")
    from repro.experiments.fleet import _merged

    rng = random.Random(11)
    for _ in range(300):
        parts = []
        for _ in range(rng.randint(1, 4)):
            n = rng.randint(1, 9)
            values = np.asarray([float(rng.randint(0, 5)) for _ in range(n)])
            weights = np.asarray([float(rng.randint(0, 3))
                                  for _ in range(n)])
            parts.append((values, weights, np.lexsort((weights, values))))
        values, weights, order = _merged(parts)
        assert list(order) == list(np.lexsort((weights, values))), parts


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


def test_des_keeps_its_sample_and_rows(spec, corpus):
    """The result keeps what it replayed: the sampled visits, grouped
    by (cohort, user), and one row per (visit, mode)."""
    des = run_fleet_des(spec, corpus, sample=6, max_workers=0)
    visits = sample_visits(spec, 6, per_cohort=True)
    assert sorted(des.sample, key=visits.index) == visits
    groups = [(visit.cohort, visit.user) for visit in des.sample]
    assert groups == sorted(groups, key=groups.index)
    assert len(des.rows) == 2 * len(des.sample) == 2 * des.visits
    for visit, rows in des.visit_rows():
        assert [row.mode for row in rows] == ["standard", "catalyst"]
        assert {row.delay_s for row in rows} == {visit.delay_s}
        assert {row.origin for row in rows} \
            == {corpus[visit.site].origin}


# -- validation gate --------------------------------------------------------
def test_validate_fleet_passes_default_gate(spec, corpus):
    des = run_fleet_des(spec, corpus, sample=9, max_workers=0)
    validation = validate_fleet(des, corpus)
    assert len(validation.rows) == len(des.sample) * 2
    # the rows follow the replay order; cold visits replay and price as
    # first loads, shown as ``cold``
    assert [row[3] for row in validation.rows[::2]] \
        == [visit.delay_s for visit in des.sample]
    assert [row[5] * 1000.0 for row in validation.rows] \
        == [row.last_visit[0] for row in des.rows]
    assert validation.elapsed_s == des.elapsed_s
    assert validation.passed, validation.format()
    assert "PASS" in validation.format()


# -- payloads ---------------------------------------------------------------
def test_fleet_payload_shape(analytic, spec, corpus):
    result = analytic[BACKENDS[0]]
    des = run_fleet_des(spec, corpus, sample=6, max_workers=0)
    validation = validate_fleet(des, corpus)
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
    reduction = payload["des"]["revisit_reduction"]
    assert set(reduction) == set(des.cohorts)
    for name, values in des.revisit_reductions().items():
        assert reduction[name]["n"] == len(values)
        if values:
            assert set(reduction[name]) == {"n", "mean", "p10", "p50",
                                            "p90"}
    assert payload["validation"]["passed"] is True
    assert payload["validation"]["rows"] == len(validation.rows)
