"""Observability: metrics registry, trace spans, JSON export.

The uniform way every experiment reports what it did — see
``docs/observability.md`` for the artifact schema and usage patterns.
"""

from .export import (
    SCHEMA,
    dumps,
    load_metrics_json,
    snapshot_document,
    write_metrics_json,
)
from .registry import (
    Counter,
    Gauge,
    Histogram,
    LatencyView,
    MetricsRegistry,
    WindowSampler,
    expose_fields,
)
from .trace import NULL_SPAN, NULL_TRACER, NullTracer, Span, TraceEvent, Tracer

__all__ = [
    "SCHEMA",
    "Counter",
    "Gauge",
    "Histogram",
    "LatencyView",
    "MetricsRegistry",
    "NULL_SPAN",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "TraceEvent",
    "Tracer",
    "WindowSampler",
    "dumps",
    "expose_fields",
    "load_metrics_json",
    "snapshot_document",
    "write_metrics_json",
]
