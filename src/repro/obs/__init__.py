"""repro.obs — the unified observability spine.

One subsystem, three capabilities, zero dependencies:

- **Tracing** (:mod:`repro.obs.trace`): :class:`Tracer`/:class:`Span`
  with trace-/parent-ID propagation, sim- or wall-clock timestamps, and
  ring-buffered retention.  Disabled by default through
  :data:`NULL_TRACER`'s no-op fast path, so the hot paths this package
  benchmarks are unaffected until a trace is explicitly requested.
- **Metrics** (:mod:`repro.obs.metrics`): a named-series registry
  (counters / gauges / histograms) so any layer can register series
  without new plumbing, plus the repo's one interpolating
  ``percentile()``.
- **Exporters** (:mod:`repro.obs.export`): Chrome trace-event JSON
  (Perfetto / ``chrome://tracing``), JSONL structured event logs, and
  HAR enrichment (``_traceId`` per entry).

Fleet-scale additions:

- **Sketches** (:mod:`repro.obs.sketch`): :class:`LogHistogram`, a
  fixed-memory log-bucketed quantile sketch with bounded relative
  error whose ``merge()`` is lossless — the registry's histograms ride
  on it, and worker-pool registries merge back into one fleet view.
- **Profiling** (:mod:`repro.obs.profile`): per-span *self time*
  (exclusive of children) computed from the tracer ring, exported as
  collapsed-stack flamegraphs (``repro trace --flame-out``).
- **Manifests** (:mod:`repro.obs.manifest`): provenance stamps
  (config, seeds, git rev, interpreter, workers, wall time) for result
  artifacts such as the ``repro loadtest --out`` payload.

Cross-process telemetry (the distributed-tracing PR):

- **Trace context** (:mod:`repro.obs.tracecontext`): W3C
  ``traceparent``/``tracestate`` encode/parse, carrying (pid, span-id)
  identities across the asyncio client/fleet boundary so one Perfetto
  trace shows a client retry parenting the worker that served it.
- **Time series** (:mod:`repro.obs.timeseries`): one interval sampler
  diffing each registry on a grid fixed by one origin (fleet workers
  stream its deltas up their control pipes), and an interval-bucketed
  recorder — JSONL on disk, sketch-backed per-interval percentiles.
- **Exposition** (:mod:`repro.obs.promtext`): Prometheus text-format
  rendering of any registry (``/__repro/metrics``), plus the minimal
  parser CI uses to validate it.
- **SLOs** (:mod:`repro.obs.slo`): declarative objectives (latency
  percentiles, shed/error ratios) evaluated over the time series with
  sliding burn-rate windows; drives ``repro loadtest --slo``.

Plus :mod:`repro.obs.log`, the structured stderr logger behind the CLI's
``--quiet`` and ``REPRO_LOG_LEVEL``.
"""

from .export import (enrich_har, namespaced_span_id, span_to_dict,
                     to_chrome_trace, to_chrome_trace_json, to_jsonl)
from .log import Logger, get_logger, set_level
from .manifest import build_manifest, stamp, validate_manifest
from .metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                      registry)
from .profile import (collapsed_stacks, format_self_times, self_times,
                      to_collapsed)
from .promtext import (parse_prometheus_text, to_prometheus_text)
from .sketch import LogHistogram
from .slo import Objective, SloReport, default_loadtest_policy
from .slo import evaluate as evaluate_slo
from .timeseries import TimeSeriesRecorder, diff_dumps
from .trace import (DEFAULT_MAX_SPANS, NULL_SPAN, NULL_TRACER, NullTracer,
                    Span, Tracer)
from .tracecontext import (TraceContext, extract_context, inject_context,
                           parse_traceparent)

__all__ = [
    "Tracer", "Span", "NullTracer", "NULL_TRACER", "NULL_SPAN",
    "DEFAULT_MAX_SPANS",
    "MetricsRegistry", "Counter", "Gauge", "Histogram", "registry",
    "LogHistogram",
    "self_times", "collapsed_stacks", "to_collapsed", "format_self_times",
    "build_manifest", "stamp", "validate_manifest",
    "to_chrome_trace", "to_chrome_trace_json", "to_jsonl", "enrich_har",
    "span_to_dict", "namespaced_span_id",
    "TraceContext", "parse_traceparent", "inject_context",
    "extract_context",
    "TimeSeriesRecorder", "diff_dumps",
    "to_prometheus_text", "parse_prometheus_text",
    "Objective", "SloReport", "evaluate_slo", "default_loadtest_policy",
    "Logger", "get_logger", "set_level",
]
