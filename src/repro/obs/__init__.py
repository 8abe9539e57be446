"""Deterministic observability for the collection/auction/audit pipeline.

See :mod:`repro.obs.metrics` for the registry/snapshot model and
:mod:`repro.obs.timing` for clock-explicit timing spans.  The package
depends only on the standard library (plus the repo's own table
renderer), so every other ``repro`` package may instrument itself with
it without creating an import cycle.
"""

from repro.obs.events import (
    DEFAULT_SHARD_EVENT_CAPACITY,
    EVENTS_SCHEMA,
    NULL_EVENTS,
    Event,
    EventLog,
    EventSchemaError,
    dumps_events_jsonl,
    validate_event_dict,
    validate_events_jsonl,
)
from repro.obs.memwatch import (
    TRACEMALLOC_ENV,
    MemoryWatch,
    StageStats,
    current_rss_bytes,
    memory_watermarks,
    tracemalloc_enabled_from_env,
)
from repro.obs.metrics import (
    SIM,
    WALL,
    Counter,
    Gauge,
    Histogram,
    HistogramSnapshot,
    MetricsError,
    MetricsRegistry,
    MetricsSnapshot,
    merge_snapshots,
)
from repro.obs.progress import ProgressRenderer, format_heartbeat
from repro.obs.render import render_metrics
from repro.obs.timing import (
    WALL_TIME_EDGES,
    Timer,
    wall_timer,
)
from repro.obs.trace import (
    NULL_TRACER,
    FlightRecorder,
    NullTracer,
    SpanRecord,
    TraceArchive,
    TraceError,
    Tracer,
    TraceRecord,
    trace_id_for,
)
from repro.obs.traceio import (
    AuditVerdict,
    chrome_trace_events,
    dumps_chrome_trace,
    dumps_trace_jsonl,
    loads_trace_jsonl,
    render_explain,
    render_trace_tree,
    with_audit_spans,
)

__all__ = [
    "DEFAULT_SHARD_EVENT_CAPACITY",
    "EVENTS_SCHEMA",
    "NULL_EVENTS",
    "Event",
    "EventLog",
    "EventSchemaError",
    "dumps_events_jsonl",
    "validate_event_dict",
    "validate_events_jsonl",
    "TRACEMALLOC_ENV",
    "MemoryWatch",
    "StageStats",
    "current_rss_bytes",
    "memory_watermarks",
    "tracemalloc_enabled_from_env",
    "ProgressRenderer",
    "format_heartbeat",
    "SIM",
    "WALL",
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramSnapshot",
    "MetricsError",
    "MetricsRegistry",
    "MetricsSnapshot",
    "merge_snapshots",
    "render_metrics",
    "WALL_TIME_EDGES",
    "Timer",
    "wall_timer",
    "NULL_TRACER",
    "FlightRecorder",
    "NullTracer",
    "SpanRecord",
    "TraceArchive",
    "TraceError",
    "Tracer",
    "TraceRecord",
    "trace_id_for",
    "AuditVerdict",
    "chrome_trace_events",
    "dumps_chrome_trace",
    "dumps_trace_jsonl",
    "loads_trace_jsonl",
    "render_explain",
    "render_trace_tree",
    "with_audit_spans",
]
