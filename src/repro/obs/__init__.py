"""``repro.obs`` — structured tracing and exportable metrics.

The observability spine of the project: every layer (core MOT
operations, the concurrent simulators, the serve layer) reports cost
through the same two channels —

- **spans** (:mod:`repro.obs.trace`): per-operation records with the
  per-hop ``(u, v, dist)`` message story, level reached, summed cost,
  and annotations; zero-overhead when the process-wide :data:`TRACER`
  is disabled (the default);
- **metrics export** (:mod:`repro.obs.prometheus`): the perf
  registry's counters/timers and a service's metrics rendered into
  Prometheus text format.

Traces serialize to JSONL (:mod:`repro.obs.export`) and are consumed
by ``python -m repro trace`` (summarize / diff). See
``docs/OBSERVABILITY.md`` for the span model and schema.
"""

from repro.obs.export import (
    JsonlTraceWriter,
    diff_traces,
    encode_event,
    read_trace,
    summarize_trace,
)
from repro.obs.prometheus import metric_name, render_prometheus
from repro.obs.trace import (
    NULL_SPAN,
    TRACER,
    NullSpan,
    Span,
    SpanEvent,
    Tracer,
    tracing,
)

__all__ = [
    "JsonlTraceWriter",
    "NULL_SPAN",
    "NullSpan",
    "Span",
    "SpanEvent",
    "TRACER",
    "Tracer",
    "diff_traces",
    "encode_event",
    "metric_name",
    "read_trace",
    "render_prometheus",
    "summarize_trace",
    "tracing",
]
