"""Regression tests for the PR-5 simulation-core fast paths.

Every optimization here was required to be *unobservable*: same
simulated timestamps, same measurements, same pickles.  These tests pin
that contract — against a verbatim copy of the seed pipe algorithm,
against the uncached HTML/CSS extractors, and across the process-pool
serialization boundary.
"""

import math
import pickle
import random

from repro.core.modes import CachingMode
from repro.experiments.harness import (GridResult, PairMeasurement,
                                       measure_pair)
from repro.html.css import extract_css_refs, extract_css_refs_cached
from repro.html.parser import (extract_resources, extract_resources_cached,
                               parse_html)
from repro.netsim.link import NetworkConditions, ProcessorSharingPipe
from repro.netsim.sim import Event, Simulator, Timeout
from repro.server.site import OriginSite
from repro.workload.sitegen import generate_site


class _ReferencePipe:
    """The seed's cancel-and-reinsert processor-sharing pipe, verbatim.

    Kept as the oracle: the optimized pipe must produce bit-identical
    completion timestamps, not merely close ones.
    """

    class _Transfer:
        __slots__ = ("remaining_bits", "event")

        def __init__(self, remaining_bits, event):
            self.remaining_bits = remaining_bits
            self.event = event

    def __init__(self, sim, capacity_bps):
        self.sim = sim
        self.capacity_bps = capacity_bps
        self._active = []
        self._last_update = 0.0
        self._wakeup_token = 0
        self.total_bits = 0.0

    def transfer(self, nbytes):
        ev = Event(self.sim)
        self.total_bits += nbytes * 8.0
        if nbytes == 0 or math.isinf(self.capacity_bps):
            ev.succeed(nbytes)
            return ev
        self._advance()
        self._active.append(self._Transfer(nbytes * 8.0, ev))
        self._reschedule()
        return ev

    def set_capacity(self, capacity_bps):
        self._advance()
        self.capacity_bps = capacity_bps
        self._reschedule()

    def _rate_per_transfer(self):
        if not self._active:
            return self.capacity_bps
        return self.capacity_bps / len(self._active)

    def _advance(self):
        now = self.sim.now
        elapsed = now - self._last_update
        self._last_update = now
        if elapsed <= 0 or not self._active:
            return
        progressed = elapsed * self._rate_per_transfer()
        for t in self._active:
            t.remaining_bits -= progressed

    def _reschedule(self):
        finished = [t for t in self._active if t.remaining_bits <= 1e-6]
        if finished:
            self._active = [t for t in self._active
                            if t.remaining_bits > 1e-6]
            for t in finished:
                t.event.succeed()
        self._wakeup_token += 1
        if not self._active:
            return
        rate = self._rate_per_transfer()
        target = min(self._active, key=lambda t: t.remaining_bits)
        delay = target.remaining_bits / rate
        token = self._wakeup_token
        timer = self.sim.timeout(delay)
        timer.add_callback(lambda _ev: self._on_wakeup(token, target))

    def _on_wakeup(self, token, target):
        if token != self._wakeup_token:
            return
        self._advance()
        target.remaining_bits = 0.0
        self._reschedule()


def _drive(pipe_cls, capacity_bps, workload, capacity_changes=()):
    """Run a staggered-transfer workload; return completion timestamps."""
    sim = Simulator()
    pipe = pipe_cls(sim, capacity_bps)
    completions = {}

    def feeder(ident, start_s, nbytes):
        yield sim.timeout(start_s)
        yield pipe.transfer(nbytes)
        completions[ident] = sim.now

    def tuner(at_s, new_bps):
        yield sim.timeout(at_s)
        pipe.set_capacity(new_bps)

    for ident, (start_s, nbytes) in enumerate(workload):
        sim.process(feeder(ident, start_s, nbytes))
    for at_s, new_bps in capacity_changes:
        sim.process(tuner(at_s, new_bps))
    sim.run()
    return completions


class TestPipeMatchesSeedAlgorithm:
    def test_bit_identical_timestamps_randomized(self):
        for seed in range(8):
            rng = random.Random(seed)
            workload = [(rng.uniform(0.0, 0.5), rng.randint(1, 200_000))
                        for _ in range(rng.randint(2, 24))]
            fast = _drive(ProcessorSharingPipe, 8e6, workload)
            reference = _drive(_ReferencePipe, 8e6, workload)
            assert fast == reference  # == on floats: bit-identical

    def test_bit_identical_under_capacity_changes(self):
        workload = [(0.0, 50_000), (0.01, 120_000), (0.05, 9_999),
                    (0.2, 80_000)]
        changes = [(0.03, 2e6), (0.15, 16e6)]
        fast = _drive(ProcessorSharingPipe, 8e6, workload, changes)
        reference = _drive(_ReferencePipe, 8e6, workload, changes)
        assert fast == reference

    def test_simultaneous_ties_pick_same_winner(self):
        # Equal remaining bits: the seed's min() keeps the first minimum;
        # the fused scan must agree on which transfer the wakeup targets.
        workload = [(0.0, 10_000)] * 6
        fast = _drive(ProcessorSharingPipe, 8e6, workload)
        reference = _drive(_ReferencePipe, 8e6, workload)
        assert fast == reference


class TestSetCapacityNoop:
    def test_equal_capacity_is_ignored(self):
        sim = Simulator()
        pipe = ProcessorSharingPipe(sim, 8e6)
        token_before = pipe._wakeup_token
        pipe.set_capacity(8e6)
        assert pipe._wakeup_token == token_before  # no reschedule ran

    def test_redundant_sets_leave_timestamps_unchanged(self):
        workload = [(0.0, 50_000), (0.02, 70_000)]
        plain = _drive(ProcessorSharingPipe, 8e6, workload)
        redundant = _drive(ProcessorSharingPipe, 8e6, workload,
                           capacity_changes=[(0.01, 8e6), (0.05, 8e6)])
        assert plain == redundant


class TestTimeoutFreeList:
    def test_timeouts_are_recycled(self):
        sim = Simulator()

        def ticker(n):
            for _ in range(n):
                yield sim.timeout(0.001)

        sim.process(ticker(100))
        sim.run()
        assert sim._timeout_pool  # dispatch fed the free-list

    def test_recycled_timeouts_carry_fresh_values(self):
        sim = Simulator()
        seen = []

        def ticker():
            for i in range(50):
                value = yield sim.timeout(0.001, value=i)
                seen.append(value)

        sim.process(ticker())
        sim.run()
        assert seen == list(range(50))

    def test_retained_timeouts_are_not_recycled(self):
        sim = Simulator()
        held = []

        def keeper():
            for i in range(10):
                timer = sim.timeout(0.001, value=i)
                held.append(timer)
                yield timer

        sim.process(keeper())
        sim.run()
        # Externally referenced Timeout objects must keep their values.
        assert [t.value for t in held] == list(range(10))
        assert all(isinstance(t, Timeout) for t in held)
        assert len({id(t) for t in held}) == len(held)


class TestParseCache:
    """The browser always parses through the digest-keyed memo; the
    uncached extractors stay as the reference it must equal."""

    def test_cached_extractors_match_reference(self):
        checked = {"html": 0, "css": 0}
        for seed in (3, 7, 11):
            site = OriginSite(generate_site("https://fastpath.example",
                                            seed=seed))
            for url in site.all_urls():
                response = site.respond(url, 0.0)
                content_type = response.headers["Content-Type"]
                body = response.body.decode(errors="replace")
                if content_type.startswith("text/html"):
                    assert list(extract_resources_cached(body)) == \
                        extract_resources(parse_html(body))
                    checked["html"] += 1
                elif content_type.startswith("text/css"):
                    assert list(extract_css_refs_cached(body)) == \
                        extract_css_refs(body)
                    checked["css"] += 1
        assert checked["html"] >= 3 and checked["css"] >= 3

    def test_repeat_runs_share_cached_parses(self):
        site = generate_site("https://fastpath.example", seed=7)
        conditions = NetworkConditions.of(8, 100)
        first = measure_pair(site, CachingMode.CATALYST, conditions, 3600.0)
        second = measure_pair(site, CachingMode.CATALYST, conditions,
                              3600.0)
        assert first == second


class TestSlotsContainersPickle:
    def _measurement(self):
        return PairMeasurement(
            origin="https://a.example", mode="catalyst",
            conditions="8Mbps/100ms", delay_s=3600.0,
            cold_plt_ms=1200.5, warm_plt_ms=400.25,
            cold_bytes=100_000, cold_requests=40, warm_bytes=5_000,
            warm_requests=3,
            warm_sources={"network": 1, "sw-cache": 2},
            warm_stale_hits=0)

    def test_pair_measurement_round_trip(self):
        original = self._measurement()
        clone = pickle.loads(pickle.dumps(original))
        assert clone == original
        assert clone.warm_sources == original.warm_sources
        assert clone.reduction == original.reduction

    def test_grid_result_round_trip(self):
        grid = GridResult(measurements=[self._measurement()])
        clone = pickle.loads(pickle.dumps(grid))
        assert clone.measurements == grid.measurements
        assert clone.where(mode="catalyst") == grid.where(mode="catalyst")

    def test_slots_actually_engaged(self):
        # The containers must not grow a per-instance __dict__ back.
        assert not hasattr(self._measurement(), "__dict__")
        assert not hasattr(GridResult(measurements=[]), "__dict__")
