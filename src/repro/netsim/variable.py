"""Time-varying network conditions (mobility, handovers, congestion).

The paper's motivation leans on cellular access, where conditions are
anything but constant.  :class:`VariableLink` behaves like
:class:`~repro.netsim.link.Link` but follows a schedule of
:class:`~repro.netsim.link.NetworkConditions`: propagation delay is read
at send time, and the shared pipes' capacities are re-programmed at each
transition with work conservation (in-flight transfers keep their
progress).

Example — a 5G-to-congested handover mid-load::

    link = VariableLink(sim, [
        (0.0,  NetworkConditions.of(60, 40)),
        (0.35, NetworkConditions.of(8, 120)),
    ])
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Optional, Sequence, TYPE_CHECKING

from .link import Link, NetworkConditions, ProcessorSharingPipe
from .sim import Simulator

if TYPE_CHECKING:  # pragma: no cover - types only
    from .faults import FaultPlan

__all__ = ["VariableLink"]


class VariableLink(Link):
    """An access link whose conditions follow a time schedule.

    A :class:`~repro.netsim.link.Link` whose ``conditions`` are read
    from the schedule: the inherited transfers look up the one-way delay
    and RTT at send time, and the shared pipes are re-programmed at
    each transition.
    """

    def __init__(self, sim: Simulator,
                 schedule: Sequence[tuple[float, NetworkConditions]],
                 fault_plan: "Optional[FaultPlan]" = None):
        if not schedule:
            raise ValueError("schedule must have at least one entry")
        entries = sorted(schedule, key=lambda item: item[0])
        if entries[0][0] > sim.now:
            raise ValueError(
                f"schedule must cover the present (starts at "
                f"{entries[0][0]}, now is {sim.now})")
        for _, conditions in entries:
            if math.isinf(conditions.downlink_bps):
                raise ValueError(
                    "VariableLink requires finite downlink rates")
        # Link.__init__ would assign ``conditions``, which the schedule
        # computes here, so the state it sets up is set up directly.
        self.sim = sim
        self.fault_plan = fault_plan
        self._times = [at for at, _ in entries]
        self._entries = [conditions for _, conditions in entries]
        initial = self.conditions
        self._down = ProcessorSharingPipe(sim, initial.downlink_bps)
        self._up = (None if math.isinf(initial.uplink_bps)
                    else ProcessorSharingPipe(sim, initial.uplink_bps))
        self.bytes_down = 0
        self.bytes_up = 0
        self._arm_transitions()

    # -- schedule ------------------------------------------------------------
    @property
    def conditions(self) -> NetworkConditions:
        """The conditions in force right now."""
        index = bisect_right(self._times, self.sim.now) - 1
        return self._entries[max(index, 0)]

    def _arm_transitions(self) -> None:
        for at, conditions in zip(self._times, self._entries):
            if at <= self.sim.now:
                continue
            timer = self.sim.timeout(at - self.sim.now)
            timer.add_callback(
                lambda _ev, c=conditions: self._apply(c))

    def _apply(self, conditions: NetworkConditions) -> None:
        self._down.set_capacity(conditions.downlink_bps)
        if self._up is not None and not math.isinf(conditions.uplink_bps):
            self._up.set_capacity(conditions.uplink_bps)
