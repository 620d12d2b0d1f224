"""Unit tests for the metrics registry (repro.obs.metrics)."""

import pytest

from repro.obs import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.metrics import registry

pytestmark = pytest.mark.obs


class TestInstruments:
    def test_counter_monotonic(self):
        counter = Counter("hits")
        counter.inc()
        counter.inc(4)
        assert counter.snapshot() == 5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_moves_both_ways(self):
        gauge = Gauge("pool")
        gauge.set(3)
        gauge.inc()
        gauge.dec(2)
        assert gauge.snapshot() == 2

    def test_histogram_stats(self):
        hist = Histogram("latency")
        for value in (1.0, 2.0, 3.0, 4.0):
            hist.observe(value)
        assert hist.mean() == pytest.approx(2.5)
        assert hist.percentile(50) == pytest.approx(2.5)
        snap = hist.snapshot()
        assert snap["count"] == 4
        assert "p99" in snap

    def test_histogram_empty_percentile_is_zero(self):
        hist = Histogram("empty")
        assert hist.percentile(99) == 0.0
        assert hist.mean() == 0.0
        # snapshots always carry percentile keys (0.0 when empty) so
        # downstream consumers (/__repro/stats) see a stable shape
        snap = hist.snapshot()
        assert snap["p50"] == snap["p90"] == snap["p99"] == 0.0

    def test_histogram_ring_bounds_window(self):
        hist = Histogram("ring", max_samples=3)
        for value in (10.0, 20.0, 30.0, 40.0):
            hist.observe(value)
        # count/total track everything; the window holds the newest 3
        assert hist.count == 4
        assert sorted(hist.samples) == [20.0, 30.0, 40.0]

    def test_histogram_exact_until_ring_wraps(self):
        hist = Histogram("two-tier", max_samples=4)
        for value in (1.0, 2.0, 3.0):
            hist.observe(value)
        assert hist.exact
        assert hist.percentile(50) == pytest.approx(2.0)

    def test_histogram_memory_stays_bounded_past_cap(self):
        # The satellite regression: unbounded sample retention is gone.
        # Past the cap, percentiles route through the sketch and stay
        # within its documented relative error of the true value.
        hist = Histogram("bounded", max_samples=100)
        n = 10_000
        for i in range(n):
            hist.observe(float(i + 1))
        assert len(hist.samples) == 100
        assert not hist.exact
        assert hist.count == n
        error = hist.sketch.relative_error
        for q, truth in ((50, n * 0.50), (90, n * 0.90), (99, n * 0.99)):
            assert hist.percentile(q) == pytest.approx(
                truth, rel=2 * error + 0.01)

    def test_histogram_merge_matches_pooled(self):
        pooled = Histogram("pooled")
        a, b = Histogram("a"), Histogram("b")
        for i in range(50):
            value = float(1 + (i * 37) % 100)
            pooled.observe(value)
            (a if i % 2 else b).observe(value)
        a.merge(b)
        assert a.count == pooled.count
        # both still inside the raw ring -> exactly equal percentiles
        for q in (50, 90, 99):
            assert a.percentile(q) == pooled.percentile(q)

    def test_histogram_merge_accepts_dump(self):
        a, b = Histogram("a"), Histogram("b")
        a.observe(1.0)
        b.observe(3.0)
        a.merge(b.dump())
        assert a.count == 2
        assert a.percentile(100) == 3.0

    def test_histogram_dump_roundtrip_is_portable(self):
        import json
        hist = Histogram("h", max_samples=8)
        for i in range(20):
            hist.observe(float(i + 1))
        dump = json.loads(json.dumps(hist.dump()))  # JSON-safe
        other = Histogram("other")
        other.merge(dump)
        assert other.count == 20
        assert other.percentile(99) == pytest.approx(20.0, rel=0.03)


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert len(reg) == 1

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(TypeError):
            reg.gauge("a")
        with pytest.raises(TypeError):
            reg.histogram("a")

    def test_snapshot_sorted_and_reset(self):
        reg = MetricsRegistry()
        reg.counter("b").inc()
        reg.gauge("a").set(1)
        assert list(reg.snapshot()) == ["a", "b"]
        reg.reset()
        assert len(reg) == 0

    def test_contains_and_iter(self):
        reg = MetricsRegistry()
        counter = reg.counter("x")
        assert "x" in reg and "y" not in reg
        assert list(reg) == [counter]

    def test_default_registry_is_shared(self):
        assert registry() is registry()


class TestMergeEdgeCases:
    """The worker-dump merge path under awkward inputs (PR 9)."""

    def test_gauge_merge_sums_across_shards(self):
        # fleet semantics: per-worker inflight gauges sum to fleet
        # inflight — a merge is a fan-in of disjoint shards, not a
        # later reading of the same gauge
        merged = MetricsRegistry()
        for inflight in (3, 5, 4):
            worker = MetricsRegistry()
            worker.gauge("http.inflight").set(inflight)
            merged.merge(worker.dump())
        assert merged.gauge("http.inflight").value == 12

    def test_histogram_merge_when_source_ring_wrapped(self):
        source = Histogram("lat", max_samples=4)
        for value in range(10):          # wraps the 4-slot ring
            source.observe(float(value))
        sink = Histogram("lat", max_samples=4)
        sink.observe(100.0)
        sink.merge(source.dump())
        # count/total are exact even though raw samples were dropped
        assert sink.count == 11
        assert sink.total == pytest.approx(100.0 + sum(range(10)))
        assert len(sink.samples) <= 4    # ring cap respected
        # percentiles fall back to the merged sketch, not the ring
        assert sink.percentile(99) >= 9.0

    def test_histogram_merge_respects_sink_ring_room(self):
        sink = Histogram("lat", max_samples=3)
        sink.observe(1.0)
        source = Histogram("lat", max_samples=8)
        for value in (2.0, 3.0, 4.0, 5.0):
            source.observe(value)
        sink.merge(source.dump())
        assert len(sink.samples) == 3
        assert sink.count == 5

    def test_old_schema_histogram_dump_fails_loudly(self):
        sink = Histogram("lat")
        sink.observe(1.0)
        legacy = {"kind": "histogram", "count": 5, "total": 15.0,
                  "samples": [1.0] * 5}   # pre-sketch schema: no sketch
        with pytest.raises(ValueError, match="incompatible dump schema"):
            sink.merge(legacy)

    def test_failed_merge_does_not_corrupt_sink(self):
        sink = Histogram("lat")
        sink.observe(1.0)
        before = sink.dump()
        with pytest.raises(ValueError):
            sink.merge({"kind": "histogram", "count": 5, "total": 15.0,
                        "samples": []})  # missing sketch
        assert sink.dump() == before     # validate-then-mutate held

    def test_registry_merge_rejects_valueless_counter(self):
        registry = MetricsRegistry()
        registry.counter("n").inc(1)
        with pytest.raises(ValueError, match="incompatible dump schema"):
            registry.merge({"n": {"kind": "counter"}})
        assert registry.counter("n").value == 1

    def test_registry_merge_rejects_valueless_gauge(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="incompatible dump schema"):
            registry.merge({"g": {"kind": "gauge"}})

    def test_sketch_geometry_mismatch_rejected_before_mutation(self):
        from repro.obs.sketch import LogHistogram
        sink = Histogram("lat")
        sink.observe(1.0)
        before = sink.dump()
        foreign = {"kind": "histogram", "count": 1, "total": 2.0,
                   "max_samples": 512, "samples": [2.0],
                   "sketch": LogHistogram(relative_error=0.10).to_dict()}
        with pytest.raises(ValueError):
            sink.merge(foreign)
        assert sink.dump() == before
