"""Network link models: propagation latency + shared bandwidth.

The access link is modelled the way browser throttling (the paper's
measurement tool) models it:

- every request/response pays propagation delay derived from the configured
  round-trip time, and
- response bodies are serialized through a *shared* downlink pipe, so
  concurrent fetches divide the configured throughput between them.

The pipe uses a processor-sharing discipline: at any instant each of the
``n`` active transfers progresses at ``capacity / n``.  This matches how
parallel HTTP downloads share a last-mile link closely enough for PLT work,
and is what Chrome's throttle approximates.

:class:`ProcessorSharingPipe` is exact: on every arrival or departure it
advances all in-flight transfers by the elapsed time at the old rate and
reschedules the next completion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, TYPE_CHECKING

from .sim import Event, Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (types only)
    from .faults import FaultDecision, FaultPlan

__all__ = ["NetworkConditions", "ProcessorSharingPipe", "Link"]

#: Bytes of protocol overhead we bill per HTTP message exchange
#: (request line + headers up, status line + headers down).  Headers ride the
#: same pipes as bodies.
DEFAULT_REQUEST_BYTES = 450
DEFAULT_RESPONSE_HEADER_BYTES = 350


@dataclass(frozen=True)
class NetworkConditions:
    """A throttling profile: RTT plus down/up throughput.

    ``rtt_s`` is the full round-trip time between client and origin in
    seconds.  ``downlink_bps``/``uplink_bps`` are in bits per second;
    ``math.inf`` disables the corresponding bandwidth limit.
    """

    rtt_s: float
    downlink_bps: float
    uplink_bps: float = math.inf
    label: str = ""

    def __post_init__(self) -> None:
        if self.rtt_s < 0:
            raise ValueError(f"negative RTT: {self.rtt_s}")
        if self.downlink_bps <= 0 or self.uplink_bps <= 0:
            raise ValueError("throughput must be positive")

    # Derived values are memoized (cached_property writes straight into
    # the instance dict, so it composes with frozen dataclasses): the
    # link model reads ``one_way_s`` twice per HTTP message, millions of
    # times per grid.
    @cached_property
    def one_way_s(self) -> float:
        """One-way propagation delay."""
        return self.rtt_s / 2.0

    @cached_property
    def rtt_ms(self) -> float:
        return self.rtt_s * 1000.0

    @cached_property
    def downlink_mbps(self) -> float:
        return self.downlink_bps / 1e6

    def describe(self) -> str:
        if self.label:
            return self.label
        down = ("inf" if math.isinf(self.downlink_bps)
                else f"{self.downlink_mbps:g}Mbps")
        return f"{down}/{self.rtt_ms:g}ms"

    @classmethod
    def of(cls, mbps: float, rtt_ms: float, up_mbps: Optional[float] = None,
           label: str = "") -> "NetworkConditions":
        """Build from the units the paper uses (Mbit/s and milliseconds)."""
        return cls(
            rtt_s=rtt_ms / 1000.0,
            downlink_bps=mbps * 1e6,
            uplink_bps=math.inf if up_mbps is None else up_mbps * 1e6,
            label=label,
        )


class _Transfer:
    __slots__ = ("remaining_bits", "event")

    def __init__(self, remaining_bits: float, event: Event):
        self.remaining_bits = remaining_bits
        self.event = event


class ProcessorSharingPipe:
    """A bandwidth pipe shared equally among in-flight transfers.

    Scheduling is lazily invalidated: one timer is armed for the next
    completion.  Any arrival, departure or capacity change advances
    every in-flight transfer once (the O(n) work the exact discipline
    requires), disarms the armed timer — it keeps its heap slot, so no
    event moves, but fires with no callback — and re-arms.  A capacity
    "change" to the identical rate is a no-op, so back-to-back handovers
    between equal-rate conditions cost nothing.
    """

    __slots__ = ("sim", "capacity_bps", "_active", "_last_update",
                 "_armed", "_target", "total_bits")

    def __init__(self, sim: Simulator, capacity_bps: float):
        if capacity_bps <= 0:
            raise ValueError("capacity must be positive")
        self.sim = sim
        self.capacity_bps = capacity_bps
        self._active: list[_Transfer] = []
        self._last_update = 0.0
        #: the live wakeup timer and the transfer it completes
        self._armed: Optional[Event] = None
        self._target: Optional[_Transfer] = None
        #: cumulative bits pushed through the pipe (for accounting benches)
        self.total_bits = 0.0

    @property
    def active_count(self) -> int:
        return len(self._active)

    def set_capacity(self, capacity_bps: float) -> None:
        """Change the pipe's rate mid-flight (mobility / handover).

        In-flight transfers are advanced at the old rate up to now, then
        continue at the new rate — work done is conserved.  Setting the
        capacity the pipe already has is free: nothing about any
        transfer's finish time could change, so neither the transfers
        nor the armed wakeup are touched.
        """
        if capacity_bps <= 0:
            raise ValueError("capacity must be positive")
        if capacity_bps == self.capacity_bps:
            return
        self._advance()
        self.capacity_bps = capacity_bps
        self._reschedule()

    def transfer(self, nbytes: int) -> Event:
        """Begin a transfer of ``nbytes``; the event fires on completion."""
        ev = Event(self.sim)
        if nbytes < 0:
            raise ValueError(f"negative transfer size: {nbytes}")
        self.total_bits += nbytes * 8.0
        if nbytes == 0 or math.isinf(self.capacity_bps):
            ev.succeed(nbytes)
            return ev
        self._advance()
        self._active.append(_Transfer(nbytes * 8.0, ev))
        self._reschedule()
        return ev

    # -- internals ----------------------------------------------------------
    def _rate_per_transfer(self) -> float:
        if not self._active:
            return self.capacity_bps
        return self.capacity_bps / len(self._active)

    def _advance(self) -> None:
        """Account progress since the last queue change at the old rate."""
        now = self.sim.now
        elapsed = now - self._last_update
        self._last_update = now
        active = self._active
        if elapsed <= 0 or not active:
            return
        progressed = elapsed * (self.capacity_bps / len(active))
        for t in active:
            t.remaining_bits -= progressed

    def _reschedule(self) -> None:
        """Complete any finished transfers and arm the next wakeup.

        One fused pass both collects finished transfers and finds the
        next finisher among the survivors (first-minimum, matching the
        pre-fusion ``min()`` tie-break); the active list is only rebuilt
        when something actually finished.  The live wakeup force-completes
        its target transfer (``_target``): float drift could otherwise
        leave a sub-bit residue whose completion delay underflows to a
        zero time step, livelocking the queue.
        """
        active = self._active
        finished = None
        target = None
        min_bits = math.inf
        for t in active:
            remaining = t.remaining_bits
            if remaining <= 1e-6:
                if finished is None:
                    finished = [t]
                else:
                    finished.append(t)
            elif remaining < min_bits:
                min_bits = remaining
                target = t
        if finished is not None:
            self._active = active = [t for t in active
                                     if t.remaining_bits > 1e-6]
            for t in finished:
                t.event.succeed()
        armed = self._armed
        if armed is not None:
            # superseded: the kernel pops it with nothing to call
            armed.callbacks = None
        self._target = target
        if target is None:
            self._armed = None
            return
        delay = target.remaining_bits / (self.capacity_bps / len(active))
        self._armed = timer = self.sim.timeout(delay)
        timer.add_callback(self._on_wakeup)

    def _on_wakeup(self, _timer: Event) -> None:
        """The live timer fired: its target transfer is due."""
        self._armed = None
        self._advance()
        self._target.remaining_bits = 0.0  # guaranteed progress per wakeup
        self._reschedule()


class Link:
    """A client access link: propagation + shared up/down pipes.

    All fetches issued by one simulated browser share one :class:`Link`,
    which is what makes concurrent downloads contend for throughput the way
    they do behind a real last-mile connection.
    """

    def __init__(self, sim: Simulator, conditions: NetworkConditions,
                 fault_plan: "Optional[FaultPlan]" = None):
        self.sim = sim
        self.conditions = conditions
        #: when set, the client stack consults this plan per attempt and
        #: routes response bodies through :meth:`send_downstream_faulted`
        self.fault_plan = fault_plan
        self._down = (None if math.isinf(conditions.downlink_bps)
                      else ProcessorSharingPipe(sim, conditions.downlink_bps))
        self._up = (None if math.isinf(conditions.uplink_bps)
                    else ProcessorSharingPipe(sim, conditions.uplink_bps))
        #: bytes that actually crossed the downlink (response headers+bodies)
        self.bytes_down = 0
        self.bytes_up = 0

    # Each direction: one-way propagation, then serialization through the
    # shared pipe.  Exposed as generator-coroutines for use in processes.
    # ``span`` (optional) parents the transmission span in a trace; the
    # untraced path costs one attribute read and a branch.
    def send_upstream(self, nbytes: int, span=None):
        """Process: deliver ``nbytes`` from client to server."""
        self.bytes_up += nbytes
        tracer = self.sim.tracer
        tspan = tracer.begin("link.up", "netsim", parent=span,
                             args={"bytes": nbytes}) if tracer.enabled \
            else None
        yield self.sim.timeout(self.conditions.one_way_s)
        if self._up is not None:
            yield self._up.transfer(nbytes)
        if tspan is not None:
            tspan.end()

    def send_downstream(self, nbytes: int, span=None):
        """Process: deliver ``nbytes`` from server to client."""
        self.bytes_down += nbytes
        tracer = self.sim.tracer
        tspan = tracer.begin("link.down", "netsim", parent=span,
                             args={"bytes": nbytes}) if tracer.enabled \
            else None
        yield self.sim.timeout(self.conditions.one_way_s)
        if self._down is not None:
            yield self._down.transfer(nbytes)
        if tspan is not None:
            tspan.end()

    def send_downstream_faulted(self, nbytes: int,
                                decision: "Optional[FaultDecision]",
                                span=None):
        """Process: downstream delivery subject to an injected fault.

        Partial bytes of truncated/stalled transfers still traverse the
        shared pipe (and are billed to ``bytes_down``): a faulty network
        consumes bandwidth even when nothing usable arrives.
        """
        from .faults import faulted_downstream
        yield from faulted_downstream(self.sim, self, nbytes, decision,
                                      span=span)

    def round_trip(self):
        """Process: one full RTT with no payload (e.g. TCP SYN/SYN-ACK)."""
        yield self.sim.timeout(self.conditions.rtt_s)
