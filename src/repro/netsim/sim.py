"""Discrete-event simulation kernel.

A small, deterministic, generator-coroutine event simulator in the style of
SimPy (which is not available offline).  All network and page-load timing in
this package runs on this kernel so that experiments are exactly
reproducible and take milliseconds of wall time regardless of how many
seconds of simulated time they span.

Model
-----
- A :class:`Simulator` owns a virtual clock and a priority queue of pending
  events.
- An :class:`Event` is a one-shot occurrence.  Once *triggered* with a value
  it fires its callbacks when the simulator reaches its scheduled time.
- A :class:`Process` wraps a generator.  The generator ``yield``\\ s events;
  the process resumes when the yielded event fires, receiving the event's
  value as the result of the ``yield`` expression.  A process is itself an
  event that triggers when the generator returns (its value is the
  generator's return value), so processes can wait on each other.

Example
-------
>>> sim = Simulator()
>>> def worker(sim, results):
...     yield sim.timeout(2.0)
...     results.append(sim.now)
>>> results = []
>>> _ = sim.process(worker(sim, results))
>>> sim.run()
>>> results
[2.0]
"""

from __future__ import annotations

import itertools
import sys
from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "Process",
    "AnyOf",
    "AllOf",
    "Resource",
    "Interrupt",
    "SimulationError",
]


#: CPython refcount probe used by the timeout free-list; absent on
#: runtimes without refcounts, which simply disables recycling.
_getrefcount = getattr(sys, "getrefcount", None)


class SimulationError(Exception):
    """Raised for kernel misuse (double trigger, yielding non-events...)."""


class Interrupt(Exception):
    """Raised inside a process that another process interrupted.

    The ``cause`` attribute carries the value passed to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence on the simulation timeline.

    Lifecycle: *pending* -> *triggered* (value decided, scheduled on the
    queue) -> *processed* (callbacks ran).  Callbacks added after processing
    are deferred through the queue.

    ``callbacks`` is lazily allocated: most events (every timeout, every
    pipe completion) collect exactly zero or one waiter, so the common
    case never pays for an empty list.  ``None`` means "no callbacks yet"
    while the event is live, and "already dispatched" once ``_processed``
    is set — always register through :meth:`add_callback`, never by
    appending to ``callbacks`` directly.  The one owner of a pending
    timer may disarm it by setting ``callbacks`` back to ``None``: it
    keeps its queue slot, so no other event moves, and fires with
    nothing to call.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_triggered",
                 "_processed")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[list[Callable[["Event"], None]]] = None
        self._value: Any = None
        self._ok: bool = True
        self._triggered = False
        self._processed = False

    # -- state ------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once a value (or failure) has been decided."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True when the event succeeded (valid only after triggering)."""
        return self._ok

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError("value of untriggered event")
        return self._value

    # -- transitions ------------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Trigger the event successfully with ``value`` after ``delay``.

        Pushes onto the queue itself (what :meth:`Simulator._schedule`
        does, without the call): most events in a run trigger here.
        """
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self._value = value
        self._ok = True
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past: {delay}")
        sim = self.sim
        heappush(sim._queue, (sim.now + delay, next(sim._counter), self))
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Trigger the event as failed; waiters will see ``exception``."""
        if self._triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._triggered = True
        self._value = exception
        self._ok = False
        self.sim._schedule(self, 0.0 if delay is None else delay)
        return self

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Register ``fn`` to run when the event fires.

        Adding to an already-processed event defers ``fn`` through the
        queue (same simulated time, later step) instead of invoking it
        synchronously — this keeps resumption order deterministic and
        bounds recursion when long chains of completed events are awaited.

        This is the single registration point for waiters; it owns the
        lazy allocation of ``callbacks``.
        """
        if self._processed:
            relay = Event(self.sim)
            relay._triggered = True
            relay._ok = self._ok
            relay._value = self._value
            relay.callbacks = [fn]
            self.sim._schedule(relay, 0.0)
        elif self.callbacks is None:
            self.callbacks = [fn]
        else:
            self.callbacks.append(fn)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self.processed else (
            "triggered" if self._triggered else "pending")
        return f"<{type(self).__name__} {state} at t={self.sim.now:g}>"


class Timeout(Event):
    """An event that fires ``delay`` simulated seconds after creation.

    Instances are recycled through the simulator's free-list (see
    :meth:`Simulator.timeout`): grids schedule millions of timeouts, and
    reusing the objects keeps the dispatch loop off the allocator.
    """

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        super().__init__(sim)
        self.delay = delay
        self.succeed(value, delay=delay)


class Process(Event):
    """Drives a generator coroutine; itself an event (fires on return)."""

    __slots__ = ("_gen", "name", "_waiting_on")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = ""):
        super().__init__(sim)
        if not hasattr(gen, "send"):
            raise SimulationError("Process requires a generator")
        self._gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        self._waiting_on: Optional[Event] = None
        # Kick off at the current time: one event, born triggered with
        # its one waiter, in the queue slot ``succeed(None)`` would take.
        start = Event(sim)
        start._triggered = True
        start.callbacks = [self._resume]
        heappush(sim._queue, (sim.now, next(sim._counter), start))

    @property
    def is_alive(self) -> bool:
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self._triggered:
            return
        target = self._waiting_on
        if target is not None and target.callbacks:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._waiting_on = None
        wake = Event(self.sim)
        wake.fail(Interrupt(cause))
        wake.add_callback(self._resume)

    def _resume(self, event: Event) -> None:
        # ``event`` was dispatched, so it is triggered: its slots are
        # read directly rather than through the checked properties.
        if self._triggered:
            return
        self._waiting_on = None
        try:
            if event._ok:
                target = self._gen.send(event._value)
            else:
                target = self._gen.throw(event._value)
        except StopIteration as stop:
            # drop the spent generator: one less object the cyclic
            # collector tracks while this event stays referenced
            self._gen = None
            self.succeed(stop.value)
            return
        except Interrupt as exc:
            # An unhandled interrupt terminates the process as failed.
            self.fail(exc)
            return
        except Exception as exc:
            if self.sim.strict:
                self.fail(exc)
                return
            raise
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}, not an Event")
        if target.sim is not self.sim:
            raise SimulationError("yielded event belongs to another simulator")
        self._waiting_on = target
        target.add_callback(self._resume)


class AnyOf(Event):
    """Fires when the first of ``events`` fires.

    Value is a dict of the already-fired events to their values (at the
    moment of first firing; simultaneous events at the same timestamp that
    were processed earlier are included).
    """

    __slots__ = ("events",)

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = list(events)
        if not self.events:
            self.succeed({})
            return
        for ev in self.events:
            ev.add_callback(self._check)

    def _check(self, event: Event) -> None:
        if self._triggered:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self.succeed({ev: ev._value for ev in self.events if ev._processed
                      or ev is event})


class AllOf(Event):
    """Fires when every one of ``events`` has fired; value maps event->value."""

    __slots__ = ("events", "_remaining")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = list(events)
        self._remaining = len(self.events)
        if self._remaining == 0:
            self.succeed({})
            return
        for ev in self.events:
            ev.add_callback(self._check)

    def _check(self, event: Event) -> None:
        if self._triggered:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            # every event has fired, so every ``_value`` is decided
            self.succeed({ev: ev._value for ev in self.events})


class Resource:
    """A counted resource (e.g. an origin's connection pool slots).

    ``request()`` returns an event that fires when a slot is granted;
    ``release()`` returns the slot.  FIFO granting keeps behaviour
    deterministic.
    """

    __slots__ = ("sim", "capacity", "_in_use", "_queue")

    def __init__(self, sim: "Simulator", capacity: int):
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self._in_use = 0
        self._queue: deque[Event] = deque()

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queued(self) -> int:
        return len(self._queue)

    def request(self) -> Event:
        ev = Event(self.sim)
        if self._in_use < self.capacity:
            self._in_use += 1
            ev.succeed(self)
        else:
            self._queue.append(ev)
        return ev

    def release(self) -> None:
        if self._in_use <= 0:
            raise SimulationError("release() without matching request()")
        if self._queue:
            nxt = self._queue.popleft()
            nxt.succeed(self)
        else:
            self._in_use -= 1

    def use(self):
        """Context-manager style helper for use inside processes::

            grant = resource.request()
            yield grant
            try: ...
            finally: resource.release()
        """
        return _ResourceUsage(self)


class _ResourceUsage:
    __slots__ = ("resource", "grant")

    def __init__(self, resource: Resource):
        self.resource = resource
        self.grant = resource.request()

    def __enter__(self) -> Event:
        return self.grant

    def __exit__(self, *exc) -> None:
        self.resource.release()


class Simulator:
    """The event queue and virtual clock.

    Parameters
    ----------
    strict:
        When True (default), exceptions escaping a process fail the process
        event (and propagate to waiters) instead of unwinding ``run()``.
    """

    #: recycled Timeout instances kept per simulator (bounds memory while
    #: still absorbing the bursts a page load schedules)
    _TIMEOUT_POOL_MAX = 256

    def __init__(self, strict: bool = True, tracer=None):
        #: current simulated time in seconds; only the kernel writes it
        self.now = 0.0
        self._queue: list[tuple[float, int, Event]] = []
        self._counter = itertools.count()
        self._timeout_pool: list[Timeout] = []
        self.strict = strict
        # The tracer rides the simulator so every layer holding a ``sim``
        # reference (links, fetchers, loaders) shares one trace without
        # constructor plumbing.  NULL_TRACER's no-op fast path keeps the
        # untraced kernel exactly as fast as before.
        if tracer is None:
            from ..obs.trace import NULL_TRACER
            tracer = NULL_TRACER
        self.tracer = tracer

    # -- event factories ---------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        pool = self._timeout_pool
        if pool:
            if delay < 0:
                raise SimulationError(f"negative timeout delay: {delay}")
            # Reuse a retired instance; the dispatch loop only pools
            # timeouts that nothing else references, so the reset is
            # externally unobservable.
            timer = pool.pop()
            timer.delay = delay
            timer._value = value
            timer._ok = True
            timer._triggered = True
            timer._processed = False
            timer.callbacks = None
            heappush(self._queue, (self.now + delay, next(self._counter),
                                   timer))
            return timer
        return Timeout(self, delay, value)

    def process(self, gen: Generator, name: str = "") -> Process:
        return Process(self, gen, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def resource(self, capacity: int) -> Resource:
        return Resource(self, capacity)

    # -- scheduling ---------------------------------------------------------
    def _schedule(self, event: Event, delay: float) -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past: {delay}")
        heappush(self._queue, (self.now + delay, next(self._counter),
                               event))

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or the clock would pass ``until``.

        When stopped by ``until`` the clock is advanced exactly to
        ``until``.

        This loop is the simulator's only dispatcher and its hottest
        code: everything is bound to locals, dispatch is inlined, and
        retired timeouts are returned to the free-list.
        A timeout is recycled only when this frame holds the last
        reference (``getrefcount == 2``: the local plus the call
        argument), which makes reuse invisible to any code that kept the
        event — e.g. an :class:`AnyOf` still reading ``.value``.
        """
        if until is not None and until < self.now:
            raise SimulationError("until lies in the past")
        queue = self._queue
        pool = self._timeout_pool
        pool_max = self._TIMEOUT_POOL_MAX
        getrefcount = _getrefcount
        while queue:
            if until is not None and queue[0][0] > until:
                self.now = until
                return
            when, _, event = heappop(queue)
            self.now = when
            callbacks = event.callbacks
            event.callbacks = None
            event._processed = True
            if callbacks is not None:
                for fn in callbacks:
                    fn(event)
            if (type(event) is Timeout and getrefcount is not None
                    and getrefcount(event) == 2 and len(pool) < pool_max):
                pool.append(event)
        if until is not None:
            self.now = until

    def run_process(self, gen: Generator, name: str = "") -> Any:
        """Convenience: run ``gen`` to completion and return its value.

        Raises the process's exception if it failed.
        """
        proc = self.process(gen, name=name)
        self.run()
        if not proc.triggered:
            raise SimulationError(
                f"process {proc.name!r} never finished (deadlock?)")
        if not proc.ok:
            raise proc.value
        return proc.value
