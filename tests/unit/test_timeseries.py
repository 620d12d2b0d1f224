"""Registry delta streams, the interval sampler and the recorder."""

import asyncio
import json

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import (IntervalSampler, TimeSeriesRecorder,
                                  diff_dumps, diff_sketch_states,
                                  read_timeseries_jsonl)


def registry_at(requests: int, latencies=()) -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("http.requests").inc(requests)
    registry.gauge("http.inflight").set(requests % 5)
    hist = registry.histogram("http.request_ms")
    for value in latencies:
        hist.observe(value)
    return registry


class TestDiffDumps:
    def test_counter_delta_is_increment(self):
        first = registry_at(10).dump()
        second = registry_at(25).dump()
        delta = diff_dumps(second, first)
        assert delta["http.requests"]["value"] == 15

    def test_zero_counter_increment_omitted(self):
        dump = registry_at(10).dump()
        delta = diff_dumps(dump, dump)
        assert "http.requests" not in delta

    def test_gauge_always_spot_value(self):
        first = registry_at(10).dump()
        second = registry_at(12).dump()
        delta = diff_dumps(second, first)
        assert delta["http.inflight"]["value"] == 12 % 5

    def test_histogram_delta_counts_new_samples_only(self):
        first = registry_at(1, latencies=[5.0, 10.0]).dump()
        second = registry_at(1, latencies=[5.0, 10.0, 20.0, 40.0]).dump()
        delta = diff_dumps(second, first)
        assert delta["http.request_ms"]["count"] == 2
        assert delta["http.request_ms"]["total"] == pytest.approx(60.0)

    def test_unchanged_histogram_omitted(self):
        dump = registry_at(1, latencies=[5.0]).dump()
        assert "http.request_ms" not in diff_dumps(dump, dump)

    def test_no_previous_returns_full_dump(self):
        dump = registry_at(3, latencies=[1.0]).dump()
        delta = diff_dumps(dump, {})
        assert delta["http.requests"]["value"] == 3
        assert delta["http.request_ms"]["count"] == 1

    def test_deltas_merge_back_to_final_totals(self):
        """sum(deltas) == final dump for counters and histogram flows."""
        snapshots = [registry_at(n, latencies=[1.0] * n).dump()
                     for n in (3, 7, 7, 19)]
        merged = MetricsRegistry()
        previous = {}
        for dump in snapshots:
            merged.merge(diff_dumps(dump, previous))
            previous = dump
        final = snapshots[-1]
        assert merged.counter("http.requests").value \
            == final["http.requests"]["value"]
        assert merged.histogram("http.request_ms").count \
            == final["http.request_ms"]["count"]

    def test_delta_percentiles_reflect_interval_not_lifetime(self):
        slow_then_fast = MetricsRegistry()
        hist = slow_then_fast.histogram("lat")
        for _ in range(100):
            hist.observe(1000.0)      # a terrible first interval
        first = slow_then_fast.dump()
        for _ in range(100):
            hist.observe(1.0)         # a healthy second interval
        second = slow_then_fast.dump()
        interval = MetricsRegistry()
        interval.merge(diff_dumps(second, first))
        # the interval sketch must see only the fast samples
        assert interval.histogram("lat").percentile(99) < 50.0


class TestDiffSketchStates:
    def test_no_previous_copies_current(self):
        registry = registry_at(0, latencies=[3.0])
        state = registry.histogram("http.request_ms").dump()["sketch"]
        assert diff_sketch_states(state, None) == dict(state)

    def test_negative_bucket_deltas_clamped(self):
        current = {"relative_error": 0.01, "min_trackable": 1e-9,
                   "count": 5, "zero_count": 0, "total": 10.0,
                   "min": 1.0, "max": 4.0, "buckets": {"3": 5}}
        previous = dict(current, buckets={"3": 2, "9": 4}, count=6)
        delta = diff_sketch_states(current, previous)
        assert delta["buckets"] == {"3": 3}   # "9" went negative: clamped
        assert delta["count"] == 0            # count clamps at zero too


class TestRecorder:
    def test_buckets_merge_multiple_sources(self):
        recorder = TimeSeriesRecorder(interval_s=1.0)
        recorder.record({"http.requests":
                         {"kind": "counter", "value": 5}}, 0.4, source=1)
        recorder.record({"http.requests":
                         {"kind": "counter", "value": 7}}, 0.9, source=2)
        (index, bucket), = recorder.intervals()
        assert index == 0
        assert bucket.counter("http.requests").value == 12
        assert recorder.sources == {1, 2}

    def test_intervals_zero_filled(self):
        recorder = TimeSeriesRecorder(interval_s=1.0)
        recorder.record({"a": {"kind": "counter", "value": 1}}, 0.5)
        recorder.record({"a": {"kind": "counter", "value": 1}}, 3.5)
        intervals = recorder.intervals()
        assert [index for index, _ in intervals] == [0, 1, 2, 3]
        assert intervals[1][1].dump() == {}   # the gap is a real row

    def test_totals_counters_reconcile_gauges_take_latest(self):
        recorder = TimeSeriesRecorder(interval_s=1.0)
        recorder.record({"n": {"kind": "counter", "value": 2},
                         "level": {"kind": "gauge", "value": 9}}, 0.1)
        recorder.record({"n": {"kind": "counter", "value": 3},
                         "level": {"kind": "gauge", "value": 4}}, 1.1)
        totals = recorder.totals()
        assert totals.counter("n").value == 5
        assert totals.gauge("level").value == 4

    def test_series_extracts_one_metric(self):
        recorder = TimeSeriesRecorder(interval_s=1.0)
        recorder.record({"n": {"kind": "counter", "value": 2}}, 0.1)
        recorder.record({"n": {"kind": "counter", "value": 3}}, 2.1)
        assert recorder.series("n") == [2.0, 0.0, 3.0]

    def test_jsonl_round_trip(self, tmp_path):
        path = str(tmp_path / "ts.jsonl")
        with TimeSeriesRecorder(interval_s=0.5, path=path) as recorder:
            recorder.record({"n": {"kind": "counter", "value": 2}},
                            0.2, source=111)
            recorder.record({"n": {"kind": "counter", "value": 5}},
                            0.8, source=222)
        lines = [json.loads(line)
                 for line in open(path, encoding="utf-8")]
        assert [line["interval"] for line in lines] == [0, 1]
        rebuilt = read_timeseries_jsonl(path, interval_s=0.5)
        assert rebuilt.totals().counter("n").value == 7
        assert rebuilt.sources == {111, 222}

    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError):
            TimeSeriesRecorder(interval_s=0.0)

    def test_negative_t_s_lands_in_first_bucket(self):
        recorder = TimeSeriesRecorder(interval_s=1.0)
        assert recorder.record({"n": {"kind": "counter", "value": 1}},
                               -0.3) == 0

    def test_empty_recorder_has_no_rows(self):
        recorder = TimeSeriesRecorder(interval_s=0.25)
        assert recorder.intervals() == []
        assert recorder.interval_snapshots() == []


class TestIntervalSampler:
    """One grid: each delta lands in the interval it covers."""

    def test_late_samples_and_final_flush_keep_their_rows(self, tmp_path):
        # 0.1 s rows from origin 5.0: k * 0.1 is not exact in binary, so
        # rows rebuilt from their times would slip; from their index
        # they cannot
        now = [5.0]
        registry = MetricsRegistry()
        requests = registry.counter("http.requests")
        path = str(tmp_path / "ts.jsonl")
        with TimeSeriesRecorder(interval_s=0.1, path=path) as recorder:
            sampler = IntervalSampler(registry, recorder.add, 0.1,
                                      origin=5.0, clock=lambda: now[0])
            requests.inc(3)
            now[0] = 5.1999       # closes interval 0, 0.0999 s late
            assert sampler.sample() == 0
            requests.inc(2)
            now[0] = 5.25         # closes interval 1, 0.05 s late
            assert sampler.sample() == 1
            requests.inc(4)
            now[0] = 5.3001       # closes interval 2 on time
            assert sampler.sample() == 2
            requests.inc(1)
            now[0] = 5.35         # stopped inside interval 3
            assert sampler.sample() == 3  # the final flush: its own row
        assert recorder.series("http.requests") == [3.0, 2.0, 4.0, 1.0]
        rebuilt = read_timeseries_jsonl(path, interval_s=0.1)
        assert rebuilt.interval_snapshots() \
            == recorder.interval_snapshots()

    def test_stop_flushes_what_the_last_interval_counted(self):
        registry = MetricsRegistry()
        recorder = TimeSeriesRecorder(interval_s=0.05)

        async def scenario():
            sampler = IntervalSampler(registry, recorder.add, 0.05,
                                      origin=asyncio.get_running_loop()
                                      .time())
            sampler.start()
            registry.counter("n").inc(2)
            await asyncio.sleep(0.12)
            registry.counter("n").inc(5)
            await sampler.stop()

        asyncio.run(scenario())
        assert recorder.totals().counter("n").value == 7
        assert len(recorder.intervals()) >= 3

    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError):
            IntervalSampler(MetricsRegistry(), lambda delta, index: None,
                            0.0, origin=0.0)
