"""Unit tests for the fault-injection layer and client resilience.

Covers the :mod:`repro.netsim.faults` primitives (deterministic draws,
plans, presets, backoff), the :class:`NetworkClient` retry machinery
(watchdog timeouts, budgets, FetchFailed), the end-to-end determinism
guarantee (same seed + same plan => identical trace and PLT), and a CLI
smoke invocation of the ``faultsweep`` subcommand.
"""

import math

import pytest

from repro.browser.fetcher import (DEFAULT_FAULT_GUARD_TIMEOUT_S,
                                   FetchFailed, FetchTimeout, NetworkClient)
from repro.http.messages import Request, Response
from repro.netsim.faults import (FaultDecision, FaultKind, FaultPlan,
                                 InjectedReset, InjectedTruncation,
                                 backoff_delay, captive_portal,
                                 deterministic_draw, flaky_5g, lossy_wifi)
from repro.netsim.link import Link, NetworkConditions
from repro.netsim.sim import Simulator

COND = NetworkConditions.of(60, 40)


def make_client(sim, handler, plan=None, conditions=None, **kwargs):
    link = Link(sim, conditions or COND, fault_plan=plan)
    return NetworkClient(sim=sim, link=link, handler=handler, **kwargs)


def simple_handler(request: Request, at_time: float) -> Response:
    return Response(body=b"k" * 1000)


class TestDeterministicDraw:
    def test_same_inputs_same_draw(self):
        assert deterministic_draw(7, "/a.css", 0) \
            == deterministic_draw(7, "/a.css", 0)

    def test_different_inputs_differ(self):
        draws = {deterministic_draw(7, "/a.css", attempt)
                 for attempt in range(8)}
        assert len(draws) == 8

    def test_uniform_range(self):
        draws = [deterministic_draw(0, f"/r{i}") for i in range(2000)]
        assert all(0.0 <= d < 1.0 for d in draws)
        assert 0.45 < sum(draws) / len(draws) < 0.55


class TestFaultPlan:
    def test_zero_plan_injects_nothing(self):
        plan = FaultPlan()
        assert not plan.injects_anything
        assert plan.decide("/a", 0) is None

    def test_rates_validated(self):
        with pytest.raises(ValueError):
            FaultPlan(loss_rate=0.8, reset_rate=0.5)
        with pytest.raises(ValueError):
            FaultPlan(loss_rate=-0.1)
        with pytest.raises(ValueError):
            FaultPlan(truncate_fraction=1.5)

    def test_decide_is_deterministic(self):
        plan = FaultPlan.mixed(0.3, seed=5)
        for attempt in range(4):
            assert plan.decide("/x.js", attempt) \
                == plan.decide("/x.js", attempt)

    def test_decide_respects_rates_statistically(self):
        plan = FaultPlan.request_loss(0.1, seed=3)
        faults = sum(1 for i in range(5000)
                     if plan.decide(f"/r{i}") is not None)
        assert 400 < faults < 600  # ~10% of 5000

    def test_mixed_plan_produces_each_kind(self):
        plan = FaultPlan.mixed(0.5, seed=1)
        kinds = {d.kind for d in (plan.decide(f"/r{i}")
                                  for i in range(400)) if d is not None}
        assert {FaultKind.LOSS, FaultKind.RESET,
                FaultKind.TRUNCATE} <= kinds

    def test_retry_attempt_redraws(self):
        """A faulted attempt must not doom its retries: the draw is
        keyed by attempt number."""
        plan = FaultPlan.request_loss(0.5, seed=2)
        urls = [f"/r{i}" for i in range(200)
                if plan.decide(f"/r{i}", 0) is not None]
        cleared = sum(1 for url in urls if plan.decide(url, 1) is None)
        assert cleared > len(urls) * 0.25

    def test_presets_construct(self):
        for preset in (flaky_5g(), lossy_wifi(), captive_portal()):
            assert preset.injects_anything
            assert preset.label
        assert captive_portal().stall_rate > flaky_5g().stall_rate


class TestBackoff:
    def test_exponential_and_capped(self):
        base = [backoff_delay(a, 0.25, 4.0, 0, "/u") for a in range(8)]
        nominal = [min(4.0, 0.25 * 2 ** a) for a in range(8)]
        for delay, cap in zip(base, nominal):
            assert 0.5 * cap <= delay < cap  # equal jitter in [0.5, 1.0)

    def test_deterministic(self):
        assert backoff_delay(2, 0.25, 4.0, 9, "/u") \
            == backoff_delay(2, 0.25, 4.0, 9, "/u")
        assert backoff_delay(2, 0.25, 4.0, 9, "/u") \
            != backoff_delay(2, 0.25, 4.0, 9, "/v")


class TestClientResilience:
    def test_loss_retried_and_succeeds(self):
        """First attempt lost, watchdog fires, retry clears."""
        sim = Simulator()
        plan = FaultPlan(loss_rate=1e-9, seed=0)  # active plan, manual kind
        client = make_client(sim, simple_handler, plan=plan,
                             request_timeout_s=0.5, max_retries=2)
        decisions = [FaultDecision(kind=FaultKind.LOSS), None]
        client.link.fault_plan = _ScriptedPlan(decisions)

        def proc():
            response, _, _ = yield from client.exchange(Request(url="/a"))
            return response
        response = sim.run_process(proc())
        assert response.body == b"k" * 1000
        assert client.retries == 1
        assert client.faults_seen == 1
        # two attempts: both scripted decisions were drawn, and the
        # second attempt began after the watchdog and one backoff
        assert client.link.fault_plan.decisions == []
        assert sim.now > 0.5 + backoff_delay(
            0, client.backoff_base_s, client.backoff_cap_s, 0, "/a")

    def test_budget_exhaustion_raises_fetch_failed(self):
        sim = Simulator()
        client = make_client(sim, simple_handler,
                             plan=_ScriptedPlan(
                                 [FaultDecision(kind=FaultKind.RESET)] * 9),
                             request_timeout_s=1.0, max_retries=2)

        def proc():
            yield from client.exchange(Request(url="/a"))
        with pytest.raises(FetchFailed) as info:
            sim.run_process(proc())
        assert info.value.attempts == 3
        assert info.value.retries == 2
        assert isinstance(info.value.cause, InjectedReset)

    def test_truncation_is_retried(self):
        sim = Simulator()
        client = make_client(
            sim, simple_handler,
            plan=_ScriptedPlan([
                FaultDecision(kind=FaultKind.TRUNCATE,
                              truncate_fraction=0.5), None]),
            request_timeout_s=5.0, max_retries=2)

        def proc():
            response, _, _ = yield from client.exchange(Request(url="/a"))
            return response
        response = sim.run_process(proc())
        assert response.body == b"k" * 1000
        assert client.retries == 1

    def test_guard_timeout_armed_when_plan_active(self):
        """A plan with no explicit timeout must not deadlock on a LOSS."""
        sim = Simulator()
        client = make_client(
            sim, simple_handler,
            plan=_ScriptedPlan([FaultDecision(kind=FaultKind.LOSS), None]),
            max_retries=1)  # request_timeout_s stays inf
        assert math.isinf(client.request_timeout_s)

        def proc():
            response, _, _ = yield from client.exchange(Request(url="/a"))
            return response
        response = sim.run_process(proc())
        assert response.status == 200
        assert sim.now >= DEFAULT_FAULT_GUARD_TIMEOUT_S

    def test_timeout_without_plan_applies(self):
        """An explicit timeout guards even fault-free slow origins."""
        sim = Simulator()

        def slow_handler(request, at_time):
            return Response(body=b"x")

        client = make_client(sim, slow_handler, request_timeout_s=0.01,
                             max_retries=0, server_think_s=10.0)

        def proc():
            yield from client.exchange(Request(url="/a"))
        with pytest.raises(FetchFailed) as info:
            sim.run_process(proc())
        assert isinstance(info.value.cause, FetchTimeout)

    def test_clean_path_timing_unchanged_by_resilience_knobs(self):
        """With no plan and no timeout, timing is byte-identical to the
        legacy client (the no-fault configuration must not shift PLT)."""
        times = []
        for kwargs in ({}, {"max_retries": 9, "backoff_base_s": 7.0}):
            sim = Simulator()
            client = make_client(sim, simple_handler, **kwargs)

            def proc():
                yield from client.exchange(Request(url="/a"))
                return sim.now
            times.append(sim.run_process(proc()))
        assert times[0] == times[1]


class _ScriptedPlan:
    """Stand-in plan that replays a fixed decision sequence."""

    def __init__(self, decisions):
        self.decisions = list(decisions)
        self.seed = 0
        self.injects_anything = True

    def decide(self, url, attempt=0):
        if not self.decisions:
            return None
        return self.decisions.pop(0)


class TestEndToEndDeterminism:
    @pytest.mark.faults
    def test_same_seed_same_plan_identical_trace_and_plt(self):
        """The ISSUE's determinism criterion: two runs with the same
        seed and FaultPlan produce identical traces and PLTs."""
        from repro.core.catalyst import run_visit_sequence
        from repro.core.modes import CachingMode, build_mode
        from repro.browser.engine import BrowserConfig
        from repro.netsim.clock import DAY
        from repro.workload.sitegen import freeze_site, generate_site

        spec = freeze_site(generate_site("https://det.example", seed=11,
                                         median_resources=20))
        # per-URL hashing means a small site samples few draws; 25 %
        # makes at least one fault a near-certainty while the retry
        # budget still absorbs everything
        plan = FaultPlan.mixed(0.25, seed=4)
        config = BrowserConfig(request_timeout_s=2.0, max_retries=4)

        def run_once():
            setup = build_mode(CachingMode.CATALYST, spec, config)
            outcomes = run_visit_sequence(setup, COND, [0.0, DAY],
                                          fault_plan=plan)
            trace = [[(e.url, e.source.value, e.status, e.retries,
                       e.start_s, e.end_s)
                      for e in outcome.result.timeline()]
                     for outcome in outcomes]
            return trace, [o.result.plt_ms for o in outcomes]

        trace_a, plts_a = run_once()
        trace_b, plts_b = run_once()
        assert trace_a == trace_b
        assert plts_a == plts_b
        assert sum(e[3] for visit in trace_a for e in visit) > 0, \
            "the 25% plan should have forced at least one retry"


class TestRetryBilling:
    @pytest.mark.faults
    def test_each_fetch_is_billed_only_its_own_retries(self):
        """A fetch in flight while another retries is not billed that
        retry: the load's events sum to its ``net.retry`` instants."""
        from repro.browser.engine import BrowserConfig
        from repro.core.catalyst import run_visit_sequence
        from repro.core.modes import CachingMode, build_mode
        from repro.obs.trace import Tracer
        from repro.workload.corpus import make_corpus

        site = next(spec for spec in make_corpus(seed=2024)
                    if spec.origin == "https://site000-media.example")
        setup = build_mode(CachingMode.STANDARD, site,
                           BrowserConfig(request_timeout_s=3.0,
                                         max_retries=4))
        tracer = Tracer()
        [outcome] = run_visit_sequence(
            setup, COND, [0.0], fault_plan=FaultPlan.request_loss(0.1),
            tracer=tracer)
        retries = [event.retries for event in outcome.result.events]
        instants = len(tracer.spans_named("net.retry"))
        assert instants > 0
        assert sum(retries) == instants
        assert outcome.result.retries_total == instants


class TestFaultSweepCli:
    @pytest.mark.faults
    def test_faultsweep_smoke(self, capsys):
        """Tiny-grid CLI invocation: runs, prints, exits 0."""
        from repro.cli import main
        code = main(["faultsweep", "--sites", "1", "--rates", "0,0.05",
                     "--no-corruption"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Fault sweep" in out
        assert "PASS" in out
