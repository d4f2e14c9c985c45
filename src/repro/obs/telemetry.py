"""The :class:`Telemetry` bundle: registry + sinks + spans, and its no-op twin.

One ``Telemetry`` object travels with an estimator (installed on its
:class:`~repro.core.copies.CopyManager`, which every protocol seam can
reach) and collects three things:

* **metrics** — a :class:`~repro.obs.metrics.MetricsRegistry`;
* **events** — typed records fanned out to the configured sinks;
* **spans** — nested timing scopes (``ingest`` → ``chunk`` →
  ``worker-chunk``) with parent/child linkage that survives the
  ProcessEngine fork boundary: ring workers buffer span/event records
  locally (:class:`WorkerTelemetry`) and the coordinator folds them in
  with :meth:`Telemetry.absorb_worker` at collect time.

The disabled default is :data:`NULL_TELEMETRY`: ``enabled`` is False,
``emit`` is a no-op, ``span()`` returns a shared do-nothing context
manager, and ``metrics`` is the null registry — so instrumented code
costs one attribute test on the paths that matter.

Everything here is observation-only by construction: no RNG is drawn
and no protocol state is touched, which is what makes the tracing
on/off bit-for-bit equivalence guarantee hold.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Union

from repro.obs.events import SpanEvent, TraceEvent, event_from_dict
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry
from repro.obs.sinks import CallbackSink, JsonlSink, RingSink

__all__ = [
    "Telemetry",
    "NullTelemetry",
    "NULL_TELEMETRY",
    "WorkerTelemetry",
    "resolve_telemetry",
]


class _Span:
    """Reusable span context manager; emits a SpanEvent on exit."""

    __slots__ = ("_tele", "name", "id", "parent", "_start")

    def __init__(self, tele: "Telemetry", name: str,
                 parent: Optional[Union[int, str]]) -> None:
        self._tele = tele
        self.name = name
        self.id = tele._next_span_id()
        self.parent = parent
        self._start = 0.0

    def __enter__(self) -> "_Span":
        self._start = time.time()
        self._tele._push_span(self.id)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tele._pop_span(self.id)
        self._tele.emit(SpanEvent(
            span=self.parent,
            id=self.id,
            name=self.name,
            start=self._start,
            end=time.time(),
        ))


class _NullSpan:
    """Shared no-op context manager for disabled telemetry."""

    __slots__ = ()
    id = None
    parent = None
    name = ""

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_SPAN = _NullSpan()


class Telemetry:
    """Enabled telemetry: metrics registry, event sinks, span stack.

    ``emit`` is serialized under a lock because the prefetcher's
    producer thread can report faults concurrently with the ingest
    loop; everything else is coordinator-thread only.
    """

    enabled = True

    def __init__(self, metrics: Optional[MetricsRegistry] = None,
                 sinks: Iterable[Any] = ()) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.sinks = list(sinks)
        self.event_counts: Dict[str, int] = {}
        self._lock = threading.Lock()
        self._span_serial = 0
        self._span_stack: List[Union[int, str]] = []

    # -- events ---------------------------------------------------------

    def emit(self, event: TraceEvent) -> None:
        if event.t == 0.0:
            event.t = time.time()
        if event.span is None:
            event.span = self.current_span_id
        with self._lock:
            self.event_counts[event.kind] = (
                self.event_counts.get(event.kind, 0) + 1
            )
            for sink in self.sinks:
                sink.emit(event)

    # -- spans ----------------------------------------------------------

    def _next_span_id(self) -> int:
        self._span_serial += 1
        return self._span_serial

    def _push_span(self, span_id: Union[int, str]) -> None:
        self._span_stack.append(span_id)

    def _pop_span(self, span_id: Union[int, str]) -> None:
        if self._span_stack and self._span_stack[-1] == span_id:
            self._span_stack.pop()

    @property
    def current_span_id(self) -> Optional[Union[int, str]]:
        return self._span_stack[-1] if self._span_stack else None

    def span(self, name: str,
             parent: Optional[Union[int, str]] = None) -> _Span:
        """Open a nested timing scope: ``with tele.span("chunk"): ...``"""
        return _Span(self, name,
                     parent if parent is not None else self.current_span_id)

    # -- cross-worker merge ---------------------------------------------

    def absorb_worker(self, worker: int, payload: Dict[str, Any]) -> None:
        """Fold one worker's buffered telemetry into this bundle.

        ``payload`` is a :meth:`WorkerTelemetry.drain` dict shipped
        over the result pipe: serialized events (worker spans included)
        and a metrics snapshot.  Worker span records carry the
        coordinator-side parent span id they were tagged with, so the
        merged trace keeps ``chunk → worker-chunk`` linkage.
        """
        for record in payload.get("events", ()):
            event = event_from_dict(record)
            event.worker = worker
            if isinstance(event, SpanEvent) and event.id is None:
                event.id = f"w{worker}:{self._next_span_id()}"
            self.emit(event)
        snap = payload.get("metrics")
        if snap:
            self.metrics.merge_snapshot(snap)

    # -- lifecycle / exposition -----------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Merged summary for ``IngestReport.telemetry``."""
        return {
            "metrics": self.metrics.snapshot(),
            "events": dict(self.event_counts),
            "spans": self._span_serial,
        }

    def expose(self) -> str:
        """Prometheus-style text dump of the metrics registry."""
        return self.metrics.expose()

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()

    def __enter__(self) -> "Telemetry":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class NullTelemetry:
    """Disabled telemetry: every operation is a near-free no-op."""

    enabled = False
    metrics = NULL_REGISTRY
    sinks: tuple = ()
    event_counts: Dict[str, int] = {}
    current_span_id = None

    def emit(self, event: TraceEvent) -> None:
        pass

    def span(self, name: str, parent=None) -> _NullSpan:
        return _NULL_SPAN

    def absorb_worker(self, worker: int, payload: Dict[str, Any]) -> None:
        pass

    def snapshot(self) -> None:
        return None

    def expose(self) -> str:
        return ""

    def close(self) -> None:
        pass


#: The process-wide disabled default installed on every CopyManager.
NULL_TELEMETRY = NullTelemetry()


class WorkerTelemetry:
    """Worker-side buffer: phase timings + event records, shipped on drain.

    Lives inside a forked ProcessEngine ring worker.  Phase timings are
    *always* accumulated (two ``perf_counter`` calls per backend
    command — noise next to the sketch work) because
    ``IngestReport.phase_seconds`` wants them even with tracing off;
    span/event buffering only happens when the coordinator enabled
    tracing.  The coordinator tags each staged chunk with its span id
    via a ``("span", id)`` pipe command; ops observed between two tags
    become one ``worker-chunk`` span parented under that chunk.
    """

    #: Map timed backend command -> phase bucket.
    PHASE_OF = {"feed": "feed", "replace": "replace"}

    def __init__(self, worker: int, trace: bool) -> None:
        self.worker = worker
        self.trace = trace
        self.phases: Dict[str, float] = {"feed": 0.0, "replace": 0.0}
        self.events: List[Dict[str, Any]] = []
        self._span: Optional[Union[int, str]] = None
        self._span_start: Optional[float] = None
        self._span_end = 0.0
        self._ops = 0

    def op(self, command: str, seconds: float) -> None:
        """Record one timed backend command."""
        phase = self.PHASE_OF.get(command)
        if phase is not None:
            self.phases[phase] += seconds
        if self.trace and self._span is not None:
            now = time.time()
            if self._span_start is None:
                self._span_start = now - seconds
            self._span_end = now
            self._ops += 1

    def begin_span(self, span_id: Optional[Union[int, str]]) -> None:
        """Coordinator staged a new chunk under ``span_id``."""
        self._close_span()
        self._span = span_id
        self._span_start = None
        self._ops = 0

    def _close_span(self) -> None:
        if self.trace and self._span is not None and self._span_start is not None:
            self.events.append({
                "kind": "span",
                "span": self._span,       # parent: coordinator chunk span
                "name": "worker-chunk",
                "start": self._span_start,
                "end": self._span_end,
                "t": self._span_end,
                "ops": self._ops,
            })
        self._span = None
        self._span_start = None

    def drain(self) -> Dict[str, Any]:
        """Close the open span and hand everything to the coordinator."""
        self._close_span()
        payload: Dict[str, Any] = {"phases": dict(self.phases)}
        if self.events:
            payload["events"] = self.events
            self.events = []
        return payload


def resolve_telemetry(spec: Any) -> Optional[Telemetry]:
    """Resolve the ``telemetry=`` argument accepted by ``api.ingest``.

    ``None``/``False``
        Telemetry stays disabled (returns ``None``).
    a :class:`Telemetry` instance
        Used as-is (caller owns sinks and ``close()``).
    ``"metrics"``
        Metrics registry only, no event sinks.
    ``"ring"`` / ``True``
        Full tracing into an in-memory :class:`RingSink`.
    ``"jsonl:PATH"`` or a path ending in ``.jsonl``
        Full tracing appended to a JSONL file at ``PATH``.
    a callable
        Full tracing through a :class:`CallbackSink`.
    """
    if spec is None or spec is False:
        return None
    if isinstance(spec, Telemetry):
        return spec
    if spec is True:
        return Telemetry(sinks=[RingSink()])
    if callable(spec):
        return Telemetry(sinks=[CallbackSink(spec)])
    if isinstance(spec, str):
        if spec == "metrics":
            return Telemetry()
        if spec == "ring":
            return Telemetry(sinks=[RingSink()])
        if spec.startswith("jsonl:"):
            return Telemetry(sinks=[JsonlSink(spec[len("jsonl:"):])])
        if spec.endswith(".jsonl"):
            return Telemetry(sinks=[JsonlSink(spec)])
        raise ValueError(
            f"unknown telemetry spec {spec!r}: expected 'metrics', 'ring', "
            "'jsonl:PATH', a '*.jsonl' path, a callable, or a Telemetry"
        )
    raise TypeError(f"cannot build telemetry from {type(spec).__name__}")
