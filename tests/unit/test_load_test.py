"""The sustained-load harness, in-process mode (no worker processes).

Fast, deterministic exercises of the chaos-harness plumbing: overload
accounting, fault presets, metrics emission, and the manifest-stamped
payloads.  ``TestOnePathAnyShardCount`` also runs two worker processes,
to hold both shard counts to one grid; the other multi-process runs
live in ``tests/integration/test_fleet.py``,
``tests/integration/test_distributed_trace.py`` and CI's
``loadtest --shards 2`` step.
"""

import pytest

from repro.experiments.load_test import (FAULT_PRESETS, format_load_test,
                                         load_test_payload, run_load_test)
from repro.http.fleet import HAVE_REUSEPORT, LocalFleet, ServerFleet
from repro.obs.manifest import validate_manifest
from repro.obs.metrics import MetricsRegistry


def quick_run(**overrides):
    defaults = dict(clients=8, duration_s=0.6, warmup_s=0.15,
                    latency_s=0.02, max_inflight=4, seed=1,
                    retry_after_s=0.5, drain_s=1.0)
    defaults.update(overrides)
    return run_load_test(**defaults)


class TestInprocessRun:
    def test_overload_accounting_is_exact(self):
        result = quick_run()
        assert result.ok > 0
        assert result.errors == 0
        # server-side: every offered request is exactly served or shed
        offered = (result.served_total + result.shed_503
                   + result.shed_connections)
        assert result.served_total > 0
        assert result.shed_503 > 0  # 8 clients vs 4 slots must shed
        assert offered == result.served_total + result.shed_503
        assert 0.0 < result.shed_rate < 1.0
        # the swarm stays under the admission ceiling (K / latency)
        ceiling = result.max_inflight / result.latency_s
        assert result.sustained_rps <= ceiling * 1.1
        assert result.drain_s >= 0.0
        assert result.hard_cancelled == 0

    def test_retry_after_hints_consumed(self):
        result = quick_run()
        assert result.retries_after_hint > 0  # shed clients slept hints

    def test_series_buckets_cover_the_window(self):
        result = quick_run(interval_s=0.2)
        assert result.series  # at least one bucket
        assert all(b["sent"] >= b["ok"] for b in result.series)
        assert sum(b["ok"] for b in result.series) == result.ok

    def test_metrics_emitted_into_registry(self):
        registry = MetricsRegistry()
        result = quick_run(metrics=registry)
        snapshot = registry.snapshot()
        assert snapshot["load.ok"] == result.ok
        assert snapshot["load.sustained_rps"] == result.sustained_rps
        # fleet-side instruments merged in next to the load.* ones
        assert snapshot["http.shed_503"] == result.shed_503
        assert result.metrics_snapshot == snapshot

    def test_fault_preset_injects(self):
        result = quick_run(preset="lossy_wifi", clients=4)
        assert result.faults_injected > 0
        assert result.preset == "lossy_wifi"
        # per-attempt decisions replay exactly (the injected *count*
        # varies with wall-clock pacing, the decisions never do)
        plan_a = FAULT_PRESETS["lossy_wifi"](seed=1)
        plan_b = FAULT_PRESETS["lossy_wifi"](seed=1)
        decisions_a = [plan_a.decide(f"client0/u{i}", i)
                       for i in range(50)]
        decisions_b = [plan_b.decide(f"client0/u{i}", i)
                       for i in range(50)]
        assert decisions_a == decisions_b
        assert any(decisions_a)

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="preset"):
            quick_run(preset="solar_flare")
        assert set(FAULT_PRESETS) == {"flaky_5g", "lossy_wifi",
                                      "captive_portal"}


class TestArtifacts:
    def test_payload_manifest_validates(self):
        result = quick_run()
        payload = load_test_payload(result)
        assert payload["bench"] == "load_test"
        assert validate_manifest(payload["manifest"]) == []
        assert payload["client"]["ok"] == result.ok
        assert payload["shed"]["shed_503"] == result.shed_503

    def test_format_is_human_readable(self):
        text = format_load_test(quick_run())
        assert "sustained 200 rps" in text
        assert "shed rate" in text


class TestSeriesZeroFill:
    """Regression: a stalled interval must be a row of zeros, not a
    hole — downstream rate math assumes a gapless grid."""

    def test_stalled_preset_run_has_gapless_series(self):
        from repro.netsim.faults import FaultPlan
        # every attempt stalls: completions bunch up late, early
        # intervals can be empty — they must still appear as rows
        plan = FaultPlan(stall_rate=1.0, stall_s=0.2, seed=3)
        result = quick_run(preset=plan, clients=4, duration_s=0.8,
                           interval_s=0.1)
        times = [row["t_s"] for row in result.series]
        expected = [round(i * 0.1, 3) for i in range(len(times))]
        assert times == expected  # consecutive grid, no holes


class TestObservabilityPlumbing:
    def test_untraced_run_collects_nothing(self):
        result = quick_run()
        assert result.spans == []
        assert result.slo_report is None

    def test_traced_inprocess_run_links_client_and_server_spans(self):
        result = quick_run(trace=True)
        client = [s for s in result.spans if s["name"] == "http.request"]
        server = [s for s in result.spans
                  if s["name"] == "server.request"]
        assert client and server
        client_ids = {(s["pid"], s["span_id"]) for s in client}
        linked = [s for s in server if s.get("remote_parent")]
        assert linked, "no server span carried a remote parent"
        for span in linked:
            assert tuple(span["remote_parent"]) in client_ids

    def test_retry_ordinal_reaches_server_span(self):
        # 8 clients vs 4 slots shed; honored Retry-After hints mean
        # some served requests are retries (attempt >= 1)
        result = quick_run(trace=True)
        attempts = [s["args"].get("client_attempt", 0)
                    for s in result.spans
                    if s["name"] == "server.request"]
        assert any(attempt >= 1 for attempt in attempts)

    def test_timeseries_reconciles_with_registry(self):
        registry = MetricsRegistry()
        result = quick_run(metrics=registry, interval_s=0.2)
        assert result.timeseries
        total_requests = sum(
            row["metrics"].get("http.requests", 0)
            for row in result.timeseries)
        assert total_requests == registry.counter("http.requests").value

    def test_slo_clean_run_passes(self):
        from repro.obs.slo import default_loadtest_policy
        result = quick_run(slo=default_loadtest_policy())
        assert result.slo_report is not None
        assert result.slo_report.passed

    def test_slo_seeded_breach_fails(self):
        from repro.obs.slo import Objective
        impossible = Objective(name="latency-p99", kind="latency",
                               metric="http.request_ms",
                               threshold=1e-6, window_intervals=2)
        result = quick_run(slo=[impossible])
        assert result.slo_report is not None
        assert not result.slo_report.passed
        assert "BREACH" in result.slo_report.format()
        assert "BREACH" in format_load_test(result)

    def test_payload_carries_slo_and_timeseries(self, tmp_path):
        from repro.obs.slo import default_loadtest_policy
        path = str(tmp_path / "ts.jsonl")
        result = quick_run(slo=default_loadtest_policy(),
                           timeseries_path=path, trace=True)
        payload = load_test_payload(result)
        validate_manifest(payload["manifest"])
        assert payload["slo"]["passed"] is True
        assert payload["timeseries"]
        assert payload["trace"]["spans"] == len(result.spans)
        import json
        lines = [json.loads(line) for line in open(path)]
        assert lines and all("delta" in line for line in lines)


def _counting_stats(stats, polls):
    def counted(self, *args, **kwargs):
        answer = stats(self, *args, **kwargs)
        polls.append(len(answer["workers"]))
        return answer
    return counted


@pytest.fixture(scope="class", ids=["1shard", "2shards"], params=[
    1, pytest.param(2, marks=pytest.mark.skipif(
        not HAVE_REUSEPORT, reason="platform lacks SO_REUSEPORT"))])
def one_path_run(request):
    """12 clients against 4 slots a shard always shed; the 1-2 s
    Retry-After sleeps outlast the 0.6 s window, so the retries land
    after it closes."""
    polls: list = []
    with pytest.MonkeyPatch.context() as patch:
        for host in (LocalFleet, ServerFleet):
            patch.setattr(host, "stats", _counting_stats(host.stats, polls))
        result = quick_run(shards=request.param, clients=12,
                           retry_after_s=1.0, max_retries=1)
    return result, polls


class TestOnePathAnyShardCount:
    """The shard count decides only where the shards run: client and
    server rows share one grid from the swarm's start either way."""

    def test_client_and_server_rows_share_one_grid(self, one_path_run):
        result, _ = one_path_run
        assert [row["t_s"] for row in result.series] \
            == [row["t_s"] for row in result.timeseries]
        assert result.timeseries[0]["metrics"].get("http.requests", 0) > 0
        assert sum(row["ok"] for row in result.series) == result.ok
        assert sum(row["metrics"].get("http.requests", 0)
                   for row in result.timeseries) \
            == result.metrics_snapshot["http.requests"]

    def test_no_client_counts_past_the_window(self, one_path_run):
        result, _ = one_path_run
        end = result.warmup_s + result.duration_s
        late = [index for index, row in enumerate(result.timeseries)
                if row["t_s"] >= end]
        # the servers answered the retries after the window closed...
        assert sum(result.timeseries[index]["metrics"]
                   .get("http.requests", 0) for index in late) > 0
        # ...and the swarm counted none of them
        for index in late:
            row = result.series[index]
            assert row["sent"] == row["ok"] == row["shed"] == 0

    def test_each_worker_polled_for_stats_once(self, one_path_run):
        result, polls = one_path_run
        assert polls == [result.shards]
