"""Observability: metrics registry, structured protocol tracing, spans.

Quick start::

    from repro import ingest, obs

    tele = obs.Telemetry(sinks=[obs.RingSink()])
    report = ingest("distinct", stream, n=..., m=..., telemetry=tele)
    print(tele.expose())                  # Prometheus-style metrics
    switches = tele.sinks[0].by_kind("switch")

or simply ``ingest(..., telemetry="jsonl:run.jsonl")`` and then
``python -m repro trace run.jsonl``.

The package is dependency-free (stdlib only) and is imported by
``repro.core``; nothing here may import ``repro.core`` or
``repro.engine``.
"""

from repro.obs.events import (
    EVENT_TYPES,
    BandTestEvent,
    CopyBurnEvent,
    CopyRetireEvent,
    GenerationEvent,
    LadderAnchorEvent,
    LadderInvalidateEvent,
    LadderPromoteEvent,
    PhasesEvent,
    PlannerFallbackEvent,
    PrefetchFaultEvent,
    RingAdvanceEvent,
    SpanEvent,
    SvtChargeEvent,
    SwitchEvent,
    TraceEvent,
    event_from_dict,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.sinks import CallbackSink, JsonlSink, RingSink, read_trace
from repro.obs.telemetry import (
    NULL_TELEMETRY,
    NullTelemetry,
    Telemetry,
    WorkerTelemetry,
    resolve_telemetry,
)
from repro.obs.trace_cli import summarize_events, summarize_trace

__all__ = [
    # bundle
    "Telemetry", "NullTelemetry", "NULL_TELEMETRY", "WorkerTelemetry",
    "resolve_telemetry",
    # metrics
    "MetricsRegistry", "Counter", "Gauge", "Histogram", "NULL_REGISTRY",
    "DEFAULT_BUCKETS",
    # events
    "TraceEvent", "SwitchEvent", "BandTestEvent", "CopyBurnEvent",
    "RingAdvanceEvent", "CopyRetireEvent", "GenerationEvent",
    "SvtChargeEvent", "LadderAnchorEvent", "LadderPromoteEvent",
    "LadderInvalidateEvent", "PlannerFallbackEvent", "PrefetchFaultEvent",
    "SpanEvent", "PhasesEvent", "EVENT_TYPES", "event_from_dict",
    # sinks
    "RingSink", "JsonlSink", "CallbackSink", "read_trace",
    # trace summarizer
    "summarize_trace", "summarize_events",
]
