"""Unit tests for the resource churn model."""

import math
import random
from bisect import bisect_right

import pytest
from hypothesis import given, strategies as st

from repro.html.parser import ResourceKind
from repro.netsim.clock import DAY, HOUR, WEEK
from repro.server.site import OriginSite
from repro.workload.churn import ChurnModel, ResourceChurn, shared_churn
from repro.workload.sitegen import generate_site


def _stream_times(period_s: float, seed: int, until: float) -> list[float]:
    """Change times from one uninterrupted ``expovariate`` stream."""
    rng = random.Random(seed)
    times, last = [], 0.0
    while last <= until:
        last += rng.expovariate(1.0 / period_s)
        times.append(last)
    return times


class TestResourceChurn:
    def test_version_monotone(self):
        churn = ResourceChurn(period_s=HOUR, seed=1)
        versions = [churn.version_at(t) for t in
                    (0, HOUR, DAY, WEEK, 2 * WEEK)]
        assert versions == sorted(versions)

    def test_version_zero_at_time_zero(self):
        assert ResourceChurn(period_s=HOUR, seed=1).version_at(0.0) == 0

    def test_deterministic_across_instances(self):
        a = ResourceChurn(period_s=HOUR, seed=99)
        b = ResourceChurn(period_s=HOUR, seed=99)
        times = [123.0, 5000.0, 100_000.0]
        assert [a.version_at(t) for t in times] == \
            [b.version_at(t) for t in times]

    def test_query_order_does_not_matter(self):
        a = ResourceChurn(period_s=HOUR, seed=5)
        b = ResourceChurn(period_s=HOUR, seed=5)
        v_big_a = a.version_at(WEEK)
        _ = b.version_at(HOUR)
        v_big_b = b.version_at(WEEK)
        assert v_big_a == v_big_b

    def test_infinite_period_never_changes(self):
        churn = ResourceChurn(period_s=math.inf, seed=1)
        assert churn.version_at(1e12) == 0
        assert not churn.changed_between(0, 1e12)
        assert churn.change_probability(1e12) == 0.0

    def test_changed_between(self):
        churn = ResourceChurn(period_s=math.inf, seed=1,
                              change_times=[100.0])
        assert not churn.changed_between(0, 99)
        assert churn.changed_between(0, 100)
        assert not churn.changed_between(100, 200)

    def test_changed_between_swapped_args(self):
        churn = ResourceChurn(period_s=1.0, seed=1, change_times=[50.0])
        assert churn.changed_between(100, 0)

    def test_fixed_change_times(self):
        churn = ResourceChurn(period_s=1.0, seed=1,
                              change_times=[10.0, 20.0])
        assert churn.version_at(5) == 0
        assert churn.version_at(10) == 1
        assert churn.version_at(25) == 2

    def test_empty_fixed_times_is_frozen(self):
        churn = ResourceChurn(period_s=1.0, seed=1, change_times=[])
        assert churn.version_at(1e9) == 0

    def test_last_change_at(self):
        churn = ResourceChurn(period_s=1.0, seed=1,
                              change_times=[10.0, 20.0])
        assert churn.last_change_at(5) == 0.0
        assert churn.last_change_at(15) == 10.0
        assert churn.last_change_at(100) == 20.0

    def test_change_probability_closed_form(self):
        churn = ResourceChurn(period_s=100.0, seed=1)
        assert churn.change_probability(100.0) == \
            pytest.approx(1 - math.exp(-1))

    def test_mean_change_count_tracks_rate(self):
        """Empirical Poisson check: N(t)/t ~ 1/tau over many resources."""
        total = 0
        horizon = 50 * HOUR
        n = 200
        for seed in range(n):
            total += ResourceChurn(period_s=HOUR, seed=seed) \
                .version_at(horizon)
        mean = total / n
        assert mean == pytest.approx(50.0, rel=0.15)

    def test_invalid_period_rejected(self):
        with pytest.raises(ValueError):
            ResourceChurn(period_s=0.0, seed=1)

    @pytest.mark.parametrize("period", [-60.0, math.nan],
                             ids=["negative", "nan"])
    def test_period_not_positive_rejected(self, period):
        with pytest.raises(ValueError, match="must be positive"):
            ResourceChurn(period_s=period, seed=1)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            ResourceChurn(period_s=1.0, seed=1).version_at(-1.0)


class TestTimelineWithoutHeldGenerator:
    """An extension reseeds and skips the draws already taken, so the
    timeline is the one uninterrupted stream, whatever the query order."""

    @given(st.lists(st.floats(min_value=0.0, max_value=40 * HOUR),
                    min_size=1, max_size=12),
           st.integers(min_value=0, max_value=2**32),
           st.sampled_from([600.0, HOUR, DAY]))
    def test_any_query_order_matches_one_stream(self, queries, seed,
                                                period):
        churn = ResourceChurn(period_s=period, seed=seed)
        reference = _stream_times(period, seed, max(queries))
        for t in queries:
            assert churn.version_at(t) == bisect_right(reference, t)
            index = bisect_right(reference, t)
            assert churn.last_change_at(t) == (
                reference[index - 1] if index else 0.0)

    def test_holds_no_generator(self):
        churn = ResourceChurn(period_s=HOUR, seed=3)
        churn.version_at(DAY)
        assert not any(isinstance(getattr(churn, slot, None), random.Random)
                       for slot in ResourceChurn.__slots__)

    def test_origins_over_one_spec_share_timelines(self):
        spec = generate_site("https://share.example", seed=8)
        first, second = OriginSite(spec), OriginSite(spec)
        resource = next(r for r in spec.index.resources.values()
                        if not math.isinf(r.change_period_s)
                        and r.fixed_change_times is None)
        assert first._churn_for(resource) is second._churn_for(resource)
        assert first._html_churn_for(spec.index) is \
            second._html_churn_for(spec.index)
        # the second origin reads times the first one drew, and extends
        # them, exactly as a private stream would have
        early = first.version_of(resource.url, DAY)
        late = second.version_of(resource.url, 3 * WEEK)
        reference = _stream_times(resource.change_period_s,
                                  resource.content_seed, 3 * WEEK)
        assert (early, late) == (bisect_right(reference, DAY),
                                 bisect_right(reference, 3 * WEEK))
        assert first.version_of(resource.url, 3 * WEEK) == late

    def test_shared_store_keys_on_all_three_values(self):
        base = shared_churn(HOUR, 1, None)
        assert shared_churn(HOUR, 1, None) is base
        assert shared_churn(HOUR, 2, None) is not base
        assert shared_churn(DAY, 1, None) is not base
        assert shared_churn(HOUR, 1, (5.0,)).version_at(10.0) == 1


class TestChurnModel:
    def test_per_kind_periods_ordered_sensibly(self):
        """API payloads churn faster than fonts, medians say so."""
        model = ChurnModel()
        fetch = model.periods[ResourceKind.FETCH]
        font = model.periods[ResourceKind.FONT]
        assert fetch.median_s < font.median_s

    def test_draw_period_positive(self):
        import random
        model = ChurnModel()
        rng = random.Random(0)
        for kind in (None, ResourceKind.IMAGE, ResourceKind.SCRIPT):
            period = model.draw_period(rng, kind)
            assert period > 0

    def test_immutable_share_produces_inf(self):
        import random
        model = ChurnModel()
        rng = random.Random(0)
        periods = [model.draw_period(rng, ResourceKind.FONT)
                   for _ in range(200)]
        inf_share = sum(1 for p in periods if math.isinf(p)) / len(periods)
        assert 0.4 < inf_share < 0.8  # configured 0.60

    def test_overrides_respected(self):
        from repro.workload.churn import PeriodModel
        model = ChurnModel(periods={
            ResourceKind.IMAGE: PeriodModel(median_s=1.0, sigma=0.0)})
        import random
        assert model.draw_period(random.Random(0),
                                 ResourceKind.IMAGE) == pytest.approx(1.0)
