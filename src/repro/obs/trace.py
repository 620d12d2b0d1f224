"""Span-based tracing for every layer of the reproduction.

The paper's argument is about *where time goes* — revalidation RTTs vs.
cache hits — so the tracer's job is to attribute latency across layers:
which spans of a page load were spent queueing on the connection pool,
serializing bytes through the shared pipe, waiting out a retry backoff,
or answered locally by the Service-Worker cache.

Design constraints, in order:

1. **Zero overhead when off.**  Tracing is disabled by default via
   :data:`NULL_TRACER`, whose ``enabled`` flag lets every
   instrumentation point bail with one attribute read and a branch.  All
   ``begin``/``instant`` calls on the null tracer return the shared
   :data:`NULL_SPAN` singleton — no allocation on the fast path, which
   is what keeps PLT numbers and perfbench's untraced timings unaffected.
2. **Clock-agnostic.**  The discrete-event stack traces on the *sim*
   clock (``sim.now``); the asyncio stack traces on the wall clock.  A
   tracer takes any zero-arg ``clock`` callable and all timestamps are
   floats in seconds on that axis.
3. **Bounded retention.**  Finished spans land in a ring
   (``collections.deque(maxlen=...)``): a long-lived traced server keeps
   the most recent window instead of growing without bound.
4. **Explicit parents across suspension points.**  Generator processes
   interleave, so an ambient "current span" stack would mis-parent spans
   across ``yield``\\ s.  Instrumented code threads parents explicitly;
   :attr:`Tracer.current_parent` exists only for *synchronous* call
   boundaries (e.g. the fetcher invoking the origin handler inline),
   where no interleaving can occur between set and read.

Propagation: every span carries the tracer's ``trace_id`` plus its own
``span_id`` and its ``parent_id``, so exporters can rebuild the tree and
correlate entries across sim, browser, Service Worker, server, and
asyncio layers.
"""

from __future__ import annotations

import itertools
import os
import time
import uuid
from collections import deque
from contextlib import contextmanager, nullcontext
from typing import Any, Callable, Iterator, Optional

__all__ = ["Span", "Tracer", "NullTracer", "NULL_TRACER", "NULL_SPAN",
           "DEFAULT_MAX_SPANS"]

#: default finished-span ring capacity
DEFAULT_MAX_SPANS = 65_536


class Span:
    """One timed operation: name, category, [start, end), tree links."""

    __slots__ = ("trace_id", "span_id", "parent_id", "remote_parent",
                 "name", "category", "start_s", "end_s", "args", "_tracer")

    def __init__(self, tracer: "Tracer", trace_id: str, span_id: int,
                 parent_id: Optional[int], name: str, category: str,
                 start_s: float, args: Optional[dict] = None,
                 remote_parent: Optional[tuple] = None):
        self._tracer = tracer
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        #: cross-process parent as ``(pid, span_id)`` — set when a W3C
        #: trace context arrived over the wire (see obs/tracecontext.py)
        self.remote_parent = remote_parent
        self.name = name
        self.category = category
        self.start_s = start_s
        self.end_s: Optional[float] = None
        self.args: dict = args if args is not None else {}

    # -- annotation ---------------------------------------------------------
    def set(self, key: str, value: Any) -> "Span":
        """Attach one key/value annotation (chainable)."""
        self.args[key] = value
        return self

    def annotate(self, **kv: Any) -> "Span":
        self.args.update(kv)
        return self

    # -- lifecycle ----------------------------------------------------------
    @property
    def finished(self) -> bool:
        return self.end_s is not None

    @property
    def duration_s(self) -> float:
        if self.end_s is None:
            return 0.0
        return self.end_s - self.start_s

    def end(self, at: Optional[float] = None) -> "Span":
        """Finish the span (idempotent) and retain it in the ring."""
        if self.end_s is None:
            self._tracer._finish(self, at)
        return self

    # Wall-clock instrumentation reads nicely as a context manager; the
    # DES stack must not use this across yields (end explicitly instead).
    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, _tb) -> None:
        if exc is not None:
            self.args.setdefault("error", type(exc).__name__)
        self.end()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"{self.duration_s * 1000:.3f}ms" if self.finished \
            else "open"
        return (f"<Span {self.name!r} cat={self.category!r} "
                f"id={self.span_id} parent={self.parent_id} {state}>")


class _NullSpan:
    """The do-nothing span every disabled instrumentation point shares."""

    __slots__ = ()

    trace_id = ""
    span_id = 0
    parent_id = None
    remote_parent = None
    name = ""
    category = ""
    start_s = 0.0
    end_s = 0.0
    finished = True
    duration_s = 0.0

    @property
    def args(self) -> dict:
        return {}

    def set(self, key: str, value: Any) -> "_NullSpan":
        return self

    def annotate(self, **kv: Any) -> "_NullSpan":
        return self

    def end(self, at: Optional[float] = None) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None

    def __bool__(self) -> bool:
        return False


#: the singleton no-op span — identity-testable in overhead tests
NULL_SPAN = _NullSpan()


class Tracer:
    """Collects spans on one clock into one bounded trace.

    ``clock`` is any zero-arg callable returning seconds; rebind it with
    :meth:`bind_clock` when the time source is created later than the
    tracer (e.g. a :class:`~repro.netsim.sim.Simulator` built inside
    ``run_visit_sequence``).
    """

    enabled = True

    def __init__(self, clock: Optional[Callable[[], float]] = None,
                 max_spans: int = DEFAULT_MAX_SPANS,
                 trace_id: Optional[str] = None):
        self.clock: Callable[[], float] = clock or time.monotonic
        self.trace_id = trace_id or uuid.uuid4().hex[:16]
        #: the process this tracer records in — span IDs are only unique
        #: per tracer, so cross-process exports namespace by (pid, id)
        self.pid = os.getpid()
        self._ids = itertools.count(1)
        self._finished: deque[Span] = deque(maxlen=max_spans)
        #: spans begun this run, finished or not (drops with the ring)
        self.spans_started = 0
        #: synchronous-call parent hand-off; never valid across a yield
        self.current_parent: Optional[Span] = None

    def bind_clock(self, clock: Callable[[], float]) -> "Tracer":
        self.clock = clock
        return self

    # -- span creation ------------------------------------------------------
    def begin(self, name: str, category: str = "",
              parent: Optional[Span] = None,
              args: Optional[dict] = None,
              at: Optional[float] = None,
              remote_parent: Optional[tuple] = None) -> Span:
        """Open a span at ``at`` (default: now on the tracer's clock).

        ``remote_parent`` is a ``(pid, span_id)`` pair naming a parent
        span in *another process* (decoded from a ``traceparent``
        header); it takes precedence over ``parent`` in exports.
        """
        self.spans_started += 1
        parent_id = parent.span_id if parent is not None and parent else None
        return Span(self, self.trace_id, next(self._ids), parent_id,
                    name, category,
                    self.clock() if at is None else at, args,
                    remote_parent=remote_parent)

    def instant(self, name: str, category: str = "",
                parent: Optional[Span] = None,
                args: Optional[dict] = None,
                at: Optional[float] = None) -> Span:
        """A zero-duration event (cache verdicts, retries, faults)."""
        span = self.begin(name, category, parent=parent, args=args, at=at)
        span.end(at=span.start_s)
        return span

    def add_span(self, name: str, category: str, start_s: float,
                 end_s: float, parent: Optional[Span] = None,
                 args: Optional[dict] = None) -> Span:
        """Record an already-measured interval with explicit times."""
        span = self.begin(name, category, parent=parent, args=args,
                          at=start_s)
        span.end(at=max(end_s, start_s))
        return span

    def _finish(self, span: Span, at: Optional[float]) -> None:
        span.end_s = self.clock() if at is None else at
        if span.end_s < span.start_s:
            span.end_s = span.start_s
        self._finished.append(span)

    # -- synchronous parent hand-off ---------------------------------------
    @contextmanager
    def parenting(self, span: Optional[Span]) -> Iterator[None]:
        """Make ``span`` the ambient parent for a *synchronous* call.

        Safe only when no simulator yield / await happens inside the
        ``with`` body — the whole point is handing a parent across a
        plain function-call boundary (fetcher -> origin handler).
        """
        previous = self.current_parent
        self.current_parent = span if span else None
        try:
            yield
        finally:
            self.current_parent = previous

    # -- access -------------------------------------------------------------
    def spans(self) -> list[Span]:
        """Finished spans, oldest first (bounded by the ring)."""
        return list(self._finished)

    def spans_named(self, name: str) -> list[Span]:
        return [span for span in self._finished if span.name == name]

    def categories(self) -> set[str]:
        return {span.category for span in self._finished}

    def clear(self) -> None:
        self._finished.clear()
        self.spans_started = 0

    def __len__(self) -> int:
        return len(self._finished)

    def summary(self) -> dict:
        """Machine-readable one-glance state (feeds the stats endpoint)."""
        return {
            "trace_id": self.trace_id,
            "enabled": self.enabled,
            "spans_started": self.spans_started,
            "spans_retained": len(self._finished),
            "categories": sorted(self.categories()),
        }


_NO_PARENTING = nullcontext()


class NullTracer:
    """The disabled tracer: every operation is a cheap no-op.

    Instrumentation points guard allocation with ``tracer.enabled``; any
    call that slips through still costs nothing and returns
    :data:`NULL_SPAN`.
    """

    enabled = False
    trace_id = ""
    pid = 0
    current_parent = None
    spans_started = 0

    def bind_clock(self, clock: Callable[[], float]) -> "NullTracer":
        return self

    def begin(self, name: str, category: str = "", parent=None,
              args=None, at=None, remote_parent=None) -> _NullSpan:
        return NULL_SPAN

    def instant(self, name: str, category: str = "", parent=None,
                args=None, at=None) -> _NullSpan:
        return NULL_SPAN

    def add_span(self, name: str, category: str, start_s: float,
                 end_s: float, parent=None, args=None) -> _NullSpan:
        return NULL_SPAN

    def parenting(self, span) -> nullcontext:
        # one shared, reusable no-op context: the untraced browser
        # enters this on every Service-Worker call
        return _NO_PARENTING

    def spans(self) -> list:
        return []

    def spans_named(self, name: str) -> list:
        return []

    def categories(self) -> set:
        return set()

    def clear(self) -> None:
        return None

    def __len__(self) -> int:
        return 0

    def summary(self) -> dict:
        return {"trace_id": "", "enabled": False, "spans_started": 0,
                "spans_retained": 0, "categories": []}


#: the shared default — tracing is off unless somebody installs a Tracer
NULL_TRACER = NullTracer()
