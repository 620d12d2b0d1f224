"""Unit tests for the revisit-interval model and the user-weighted
benefit (the per-revisit reductions of ``fleet --des``)."""

import random

import pytest

from repro.experiments.fleet import default_population, run_fleet_des
from repro.netsim.clock import DAY, HOUR, MINUTE
from repro.workload.corpus import make_corpus
from repro.workload.revisits import DEFAULT_REVISIT_MODEL, RevisitModel


class TestRevisitModel:
    def test_draws_within_clamps(self):
        rng = random.Random(1)
        for _ in range(500):
            delay = DEFAULT_REVISIT_MODEL.draw(rng)
            assert DEFAULT_REVISIT_MODEL.min_delay_s <= delay \
                <= DEFAULT_REVISIT_MODEL.max_delay_s

    def test_deterministic_given_seed(self):
        a = DEFAULT_REVISIT_MODEL.draw_many(random.Random(7), 50)
        b = DEFAULT_REVISIT_MODEL.draw_many(random.Random(7), 50)
        assert a == b

    def test_heavy_tail_shape(self):
        """Median within hours; p90 spans days — the documented shape."""
        q50, q90 = DEFAULT_REVISIT_MODEL.quantiles([0.5, 0.9], seed=2)
        assert MINUTE < q50 < DAY
        assert q90 > 12 * HOUR
        assert q90 > 5 * q50

    def test_quantiles_monotone(self):
        qs = DEFAULT_REVISIT_MODEL.quantiles([0.1, 0.5, 0.9, 0.99],
                                             seed=3, samples=5000)
        assert qs == sorted(qs)

    def test_session_returns_dominate_short_end(self):
        rng = random.Random(4)
        draws = DEFAULT_REVISIT_MODEL.draw_many(rng, 2000)
        within_hour = sum(1 for d in draws if d <= HOUR) / len(draws)
        assert 0.25 < within_hour < 0.65

    def test_cdf_matches_draw_distribution(self):
        """RevisitModel.cdf is the closed form the fleet's delay bins
        price with — it must agree with the sampler."""
        rng = random.Random(9)
        draws = sorted(DEFAULT_REVISIT_MODEL.draw(rng)
                       for _ in range(5000))
        for x in (10 * MINUTE, HOUR, 6 * HOUR, DAY):
            empirical = sum(1 for d in draws if d <= x) / len(draws)
            assert abs(empirical - DEFAULT_REVISIT_MODEL.cdf(x)) < 0.03

    def test_cdf_clamps_and_monotone(self):
        model = DEFAULT_REVISIT_MODEL
        assert model.cdf(model.min_delay_s / 2) == 0.0
        assert model.cdf(model.max_delay_s) == 1.0
        probes = [model.min_delay_s * (1.5 ** k) for k in range(30)]
        values = [model.cdf(x) for x in probes]
        assert values == sorted(values)


def replay_small_fleet():
    """A 5-site fleet whose 12-visit sample (4 per cohort) mixes cold
    and warm visits in every cohort."""
    spec = default_population(users=200, measured=2_000, sites=5)
    return run_fleet_des(spec, make_corpus(size=5), sample=12,
                         max_workers=0)


class TestUserWeighted:
    """The per-revisit reductions behind ``fleet --des``'s reduction
    column."""

    @pytest.fixture(scope="class")
    def des(self):
        return replay_small_fleet()

    def test_positive_mean_reduction(self, des):
        values = [value for values in des.revisit_reductions().values()
                  for value in values]
        assert sum(values) / len(values) > 0.10

    def test_sample_bookkeeping(self, des):
        """n is the cohort's warm visits."""
        warm = {}
        for visit in des.sample:
            if visit.delay_s is not None:
                name = des.spec.cohorts[visit.cohort].name
                warm[name] = warm.get(name, 0) + 1
        reductions = des.revisit_reductions()
        summary = des.reduction_summary()
        assert set(reductions) == set(summary) == set(warm)
        for name, count in warm.items():
            assert len(reductions[name]) == summary[name]["n"] == count

    def test_only_warm_visits_count(self, des):
        cold = sum(visit.delay_s is None for visit in des.sample)
        assert 0 < cold < len(des.sample)
        assert sum(len(values) for values
                   in des.revisit_reductions().values()) \
            == len(des.sample) - cold

    def test_values_are_row_reductions(self, des):
        """Each value is (standard - catalyst) / standard of its visit's
        two rows, in replay order."""
        expected = {name: [] for name in des.cohorts}
        for index, visit in enumerate(des.sample):
            if visit.delay_s is None:
                continue
            standard, catalyst = des.rows[2 * index:2 * index + 2]
            assert (standard.mode, catalyst.mode) == ("standard",
                                                      "catalyst")
            assert standard.delay_s == catalyst.delay_s == visit.delay_s
            expected[des.spec.cohorts[visit.cohort].name].append(
                (standard.warm_plt_ms - catalyst.warm_plt_ms)
                / standard.warm_plt_ms)
        assert des.revisit_reductions() == expected

    def test_deterministic(self, des):
        assert replay_small_fleet().revisit_reductions() \
            == des.revisit_reductions()
