"""The metrics registry: named counters, gauges, and histograms.

Any layer can register series without new plumbing: get or create an
instrument by name, bump it inline, read everything back in one
:meth:`MetricsRegistry.snapshot`.  Analysis (percentiles, means)
happens off the hot path.  :func:`percentile` here is the repo's one
linear-interpolation percentile; :mod:`repro.experiments.stats`
re-exports it.

Histograms are two-tier.  A bounded ring of raw samples gives *exact*
percentiles while it still covers every observation; once the cap is
exceeded a :class:`~repro.obs.sketch.LogHistogram` — fed on every
observe, fixed memory, bounded relative error — takes over, so a
long-lived server or a million-visit sweep reports all-time percentiles
instead of either growing without bound or silently narrowing to a
recent window.

Every instrument **merges**: :meth:`MetricsRegistry.dump` produces a
portable (pickle- and JSON-safe) state and
:meth:`MetricsRegistry.merge` folds such a dump — or another live
registry — back in.  That is what lets the serving fleet ship each
worker's registry back to the parent and report fleet-wide aggregates
(see :meth:`repro.http.fleet.ServerFleet.stats`).

A process-wide default registry is available through :func:`registry`
for code with no natural injection point; experiments that need
isolation construct their own.
"""

from __future__ import annotations

import math
from typing import Iterator, Mapping, Optional, Sequence, Union

from .sketch import DEFAULT_RELATIVE_ERROR, LogHistogram

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "registry", "percentile", "DEFAULT_HISTOGRAM_SAMPLES"]

#: default histogram raw-sample cap (exact percentiles below this)
DEFAULT_HISTOGRAM_SAMPLES = 8_192


def percentile(values: Sequence[float], q: float) -> float:
    """The q-th percentile (0..100), interpolated between closest ranks.

    >>> percentile([1, 2, 3, 4], 50)
    2.5
    >>> percentile([1.0, 2.0, 3.0, 4.0], 100)
    4.0
    """
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile out of range: {q}")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    frac = rank - low
    if frac == 0.0:
        return float(ordered[low])
    return float(ordered[low] * (1.0 - frac) + ordered[low + 1] * frac)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self.value += amount

    def merge(self, other: Union["Counter", int]) -> None:
        """Counts from disjoint shards add."""
        self.inc(other.value if isinstance(other, Counter) else int(other))

    def snapshot(self) -> int:
        return self.value

    def dump(self) -> dict:
        return {"kind": "counter", "value": self.value}


class Gauge:
    """A value that goes up and down (pool sizes, cache entry counts)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def merge(self, other: Union["Gauge", float]) -> None:
        """Gauges sum across shards (each worker owns a disjoint part
        of the fleet, so "entries per worker" merge to "entries")."""
        self.value += other.value if isinstance(other, Gauge) \
            else float(other)

    def snapshot(self) -> float:
        return self.value

    def dump(self) -> dict:
        return {"kind": "gauge", "value": self.value}


class Histogram:
    """Capped raw-sample window backed by a mergeable log sketch.

    Exact percentiles while ``count <= max_samples`` (nothing dropped
    yet); beyond the cap, :meth:`percentile` routes through the sketch,
    which has seen *every* observation at fixed memory and bounded
    relative error — not just the newest window.
    """

    __slots__ = ("name", "max_samples", "count", "total",
                 "_samples", "_ring_pos", "_sketch")

    def __init__(self, name: str,
                 max_samples: int = DEFAULT_HISTOGRAM_SAMPLES,
                 relative_error: float = DEFAULT_RELATIVE_ERROR):
        if max_samples < 1:
            raise ValueError(f"max_samples must be >= 1, got {max_samples}")
        self.name = name
        self.max_samples = max_samples
        self.count = 0
        self.total = 0.0
        self._samples: list[float] = []
        self._ring_pos = 0
        self._sketch = LogHistogram(relative_error=relative_error)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self._sketch.observe(value)
        if len(self._samples) < self.max_samples:
            self._samples.append(value)
        else:
            self._samples[self._ring_pos] = value
            self._ring_pos = (self._ring_pos + 1) % self.max_samples

    @property
    def samples(self) -> list[float]:
        """The retained raw window — capped at ``max_samples``."""
        return list(self._samples)

    @property
    def sketch(self) -> LogHistogram:
        """The all-time sketch (read-only use, please)."""
        return self._sketch

    @property
    def exact(self) -> bool:
        """True while the raw window still covers every observation."""
        return self.count <= len(self._samples)

    def mean(self) -> float:
        if self.count == 0:
            return 0.0
        return self.total / self.count

    def percentile(self, q: float) -> float:
        """Exact below the cap, sketch-estimated beyond; 0.0 when empty."""
        if self.count == 0:
            return 0.0
        if self.exact:
            return percentile(self._samples, q)
        return self._sketch.percentile(q)

    def merge(self, other: Union["Histogram", Mapping]) -> None:
        """Fold another histogram (or its :meth:`dump`) into this one.

        Raw windows concatenate up to the cap — so small merged
        histograms stay exact — and the sketches merge losslessly.
        """
        if isinstance(other, Histogram):
            state = other.dump()
        else:
            state = dict(other)
        # Extract and validate *everything* before mutating anything:
        # a dump from an incompatible schema version must fail loudly
        # and leave this histogram exactly as it was, not half-merged.
        try:
            count = int(state["count"])
            total = float(state["total"])
            samples = list(state["samples"])
            sketch_state = state["sketch"]
        except KeyError as exc:
            raise ValueError(
                f"histogram {self.name!r}: merge state missing {exc} "
                f"(incompatible dump schema)") from None
        # sketch geometry mismatches raise inside merge() before the
        # sketch itself mutates, so ordering it first keeps the whole
        # merge atomic
        self._sketch.merge(sketch_state)
        self.count += count
        self.total += total
        room = self.max_samples - len(self._samples)
        if room > 0:
            self._samples.extend(samples[:room])

    def snapshot(self) -> dict:
        """Stats shape; p50/p90/p99 always present (0.0 when empty)."""
        return {"count": self.count, "total": self.total,
                "mean": self.mean(),
                "p50": self.percentile(50),
                "p90": self.percentile(90),
                "p99": self.percentile(99)}

    def dump(self) -> dict:
        return {"kind": "histogram", "count": self.count,
                "total": self.total, "max_samples": self.max_samples,
                "samples": list(self._samples),
                "sketch": self._sketch.to_dict()}


Instrument = Union[Counter, Gauge, Histogram]

_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Name -> instrument map with get-or-create accessors."""

    def __init__(self):
        self._instruments: dict[str, Instrument] = {}

    # -- get-or-create ------------------------------------------------------
    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str,
                  max_samples: int = DEFAULT_HISTOGRAM_SAMPLES) -> Histogram:
        existing = self._instruments.get(name)
        if existing is None:
            created = Histogram(name, max_samples=max_samples)
            self._instruments[name] = created
            return created
        if not isinstance(existing, Histogram):
            raise TypeError(f"metric {name!r} is a "
                            f"{type(existing).__name__}, not a Histogram")
        return existing

    def _get(self, name: str, kind: type) -> Instrument:
        existing = self._instruments.get(name)
        if existing is None:
            created = kind(name)
            self._instruments[name] = created
            return created
        if not isinstance(existing, kind):
            raise TypeError(f"metric {name!r} is a "
                            f"{type(existing).__name__}, not a "
                            f"{kind.__name__}")
        return existing

    # -- bulk ---------------------------------------------------------------
    def snapshot(self) -> dict:
        """All instruments, by name, machine-readable."""
        return {name: instrument.snapshot()
                for name, instrument in sorted(self._instruments.items())}

    # -- fleet merge --------------------------------------------------------
    def dump(self) -> dict:
        """Portable mergeable state: plain dicts, pickle- and JSON-safe.

        This — not pickled instruments — is what crosses the process-
        pool boundary, so the wire format stays inspectable and version-
        tolerant.
        """
        return {name: instrument.dump()
                for name, instrument in sorted(self._instruments.items())}

    def merge(self, other: Union["MetricsRegistry", Mapping[str, Mapping]]
              ) -> "MetricsRegistry":
        """Fold another registry's state (live or :meth:`dump`) into this.

        Instruments are created on first sight; kind mismatches raise —
        a worker disagreeing with the parent about what ``fleet.x`` *is*
        should fail loudly, not average nonsense.
        """
        entries = other.dump() if isinstance(other, MetricsRegistry) \
            else other
        for name, state in entries.items():
            kind = _KINDS.get(state.get("kind", ""))
            if kind is None:
                raise ValueError(f"metric {name!r}: unknown kind "
                                 f"{state.get('kind')!r}")
            if kind is Histogram:
                instrument = self.histogram(
                    name, max_samples=state.get("max_samples",
                                                DEFAULT_HISTOGRAM_SAMPLES))
                instrument.merge(state)
            elif kind is Counter:
                try:
                    value = state["value"]
                except KeyError:
                    raise ValueError(f"metric {name!r}: counter state has "
                                     "no 'value' (incompatible dump "
                                     "schema)") from None
                self.counter(name).merge(value)
            else:
                try:
                    value = state["value"]
                except KeyError:
                    raise ValueError(f"metric {name!r}: gauge state has "
                                     "no 'value' (incompatible dump "
                                     "schema)") from None
                self.gauge(name).merge(value)
        return self

    def get(self, name: str) -> Optional[Instrument]:
        return self._instruments.get(name)

    def reset(self) -> None:
        self._instruments.clear()

    def __len__(self) -> int:
        return len(self._instruments)

    def __iter__(self) -> Iterator[Instrument]:
        return iter(self._instruments.values())

    def __contains__(self, name: str) -> bool:
        return name in self._instruments


_DEFAULT = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _DEFAULT
