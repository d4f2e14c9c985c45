"""Typed trace events for the switching protocol.

Every dynamic decision the framework makes — a copy switch, a band
test, an SVT budget charge, a ladder promotion — is modelled as a
small mutable dataclass with a ``kind`` tag.  Events serialize to
plain dicts (``to_dict``) for the JSONL sink and the worker→coordinator
pipe, and round-trip back with :func:`event_from_dict` so the ``repro
trace`` summarizer and tests can work on typed records again.

Common fields (filled by :meth:`repro.obs.Telemetry.emit` when left at
their defaults):

``t``
    Wall-clock timestamp (``time.time()``).
``span``
    Id of the enclosing span (the per-chunk span during ingest), or
    ``None`` outside any span.
``worker``
    ProcessEngine worker index the event originated from; ``None``
    means the coordinator process.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, Optional, Type, Union

__all__ = [
    "TraceEvent",
    "SwitchEvent",
    "BandTestEvent",
    "CopyBurnEvent",
    "RingAdvanceEvent",
    "CopyRetireEvent",
    "GenerationEvent",
    "SvtChargeEvent",
    "LadderAnchorEvent",
    "LadderPromoteEvent",
    "LadderInvalidateEvent",
    "PlannerFallbackEvent",
    "PrefetchFaultEvent",
    "SpanEvent",
    "PhasesEvent",
    "event_from_dict",
    "EVENT_TYPES",
]


@dataclass
class TraceEvent:
    """Base record; concrete events add their payload fields."""

    kind: ClassVar[str] = "event"

    t: float = 0.0
    span: Optional[Union[int, str]] = None
    worker: Optional[int] = None

    def to_dict(self) -> Dict[str, Any]:
        d = dataclasses.asdict(self)
        d["kind"] = self.kind
        return d


@dataclass
class SwitchEvent(TraceEvent):
    """A publication: the protocol switched to a fresh copy's estimate."""

    kind: ClassVar[str] = "switch"

    published: float = 0.0
    estimate: float = 0.0       # raw aggregate the discipline decided on
    switches: int = 0           # cumulative count after this switch
    discipline: str = ""
    band: str = ""
    position: Optional[int] = None  # offset within the chunk (chunked path)


@dataclass
class BandTestEvent(TraceEvent):
    """Chunk-boundary band test: did the estimate stay in-band?"""

    kind: ClassVar[str] = "band-test"

    clean: bool = True
    published: float = 0.0
    estimate: float = 0.0


@dataclass
class CopyBurnEvent(TraceEvent):
    """Plain burn-and-advance: the active copy moved forward."""

    kind: ClassVar[str] = "copy-burn"

    index: int = 0              # copy index that was burned


@dataclass
class RingAdvanceEvent(TraceEvent):
    """Theorem 4.1 restart ring advanced: slot burned, rho bumped."""

    kind: ClassVar[str] = "ring-advance"

    slot: int = 0
    rho: int = 0


@dataclass
class CopyRetireEvent(TraceEvent):
    """A copy left the live set (generation refresh, tier refresh...)."""

    kind: ClassVar[str] = "copy-retire"

    index: int = 0


@dataclass
class GenerationEvent(TraceEvent):
    """DP discipline exhausted its SVT budget and rotated a generation."""

    kind: ClassVar[str] = "generation-retire"

    generation: int = 0
    copies: int = 0             # copies refreshed in the rotation


@dataclass
class SvtChargeEvent(TraceEvent):
    """A sparse-vector budget charge (DP publication or ladder strong)."""

    kind: ClassVar[str] = "svt-charge"

    charges: int = 0            # spent so far in the current window
    budget: int = 0             # window size (0 = unbounded)
    spent: float = 0.0          # charges / budget, 0 when unbounded
    scope: str = "publication"  # "publication" | "strong"


@dataclass
class LadderAnchorEvent(TraceEvent):
    """Difference ladder re-anchored on a fresh strong checkpoint."""

    kind: ClassVar[str] = "ladder-anchor"

    checkpoint: float = 0.0
    checkpoints: int = 0        # cumulative anchor count


@dataclass
class LadderPromoteEvent(TraceEvent):
    """Ladder tier handed off to the next tier (or back to strong)."""

    kind: ClassVar[str] = "ladder-promote"

    from_level: Union[int, str] = 0
    to_level: Union[int, str] = "strong"
    reason: str = ""            # "span" | "capacity" | "budget"


@dataclass
class LadderInvalidateEvent(TraceEvent):
    """Ladder dropped its anchor (estimate left the strong band)."""

    kind: ClassVar[str] = "ladder-invalidate"

    checkpoint: float = 0.0


@dataclass
class PlannerFallbackEvent(TraceEvent):
    """Shard planner fell back to the serial path."""

    kind: ClassVar[str] = "planner-fallback"

    reason: str = ""


@dataclass
class PrefetchFaultEvent(TraceEvent):
    """Prefetcher lifecycle fault (producer crash, join timeout)."""

    kind: ClassVar[str] = "prefetch-fault"

    fault: str = ""             # "producer-exception" | "join-timeout" | ...
    detail: str = ""


@dataclass
class SpanEvent(TraceEvent):
    """A completed span.  ``span`` is the *parent*; ``id`` is its own."""

    kind: ClassVar[str] = "span"

    id: Optional[Union[int, str]] = None
    name: str = ""
    start: float = 0.0
    end: float = 0.0
    ops: int = 0                # backend ops folded in (worker spans)

    @property
    def seconds(self) -> float:
        return max(0.0, self.end - self.start)


@dataclass
class PhasesEvent(TraceEvent):
    """Final per-phase wall-clock totals for a session (seconds)."""

    kind: ClassVar[str] = "phases"

    phases: Dict[str, float] = field(default_factory=dict)


EVENT_TYPES: Dict[str, Type[TraceEvent]] = {
    cls.kind: cls
    for cls in (
        SwitchEvent, BandTestEvent, CopyBurnEvent, RingAdvanceEvent,
        CopyRetireEvent, GenerationEvent, SvtChargeEvent,
        LadderAnchorEvent, LadderPromoteEvent, LadderInvalidateEvent,
        PlannerFallbackEvent, PrefetchFaultEvent, SpanEvent, PhasesEvent,
    )
}


def event_from_dict(payload: Dict[str, Any]) -> TraceEvent:
    """Rebuild a typed event from a ``to_dict()`` / JSONL record.

    Unknown kinds degrade to a bare :class:`TraceEvent` rather than
    raising, so newer traces stay readable by older summarizers.
    """
    data = dict(payload)
    kind = data.pop("kind", "event")
    cls = EVENT_TYPES.get(kind, TraceEvent)
    names = {f.name for f in dataclasses.fields(cls)}
    return cls(**{k: v for k, v in data.items() if k in names})
