"""In-memory spans recorded by the harness around each call into a layer.

A span is ``(name, start, end, parent, call)``: ``parent`` is the index of
the enclosing span (or -1 for a root) and every span opened while serving
one harness call (one chunk, one game round, one setup) carries that
call's id.  Spans stay in memory until the run ends; :meth:`Tracer.write`
then dumps them as JSON lines.  Nothing is recorded inside the library:
the spans sit at the public surfaces the harness calls.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter


class _Span:
    __slots__ = ("_tracer", "_name", "_call", "_index")

    def __init__(self, tracer: "Tracer", name: str, call):
        self._tracer = tracer
        self._name = name
        self._call = call

    def __enter__(self):
        tracer = self._tracer
        stack = tracer._stack
        parent = stack[-1] if stack else -1
        call = self._call
        if call is None:
            call = tracer.spans[parent][4] if parent >= 0 else None
        self._index = len(tracer.spans)
        tracer.spans.append([self._name, perf_counter(), 0.0, parent, call])
        stack.append(self._index)
        return self

    def __exit__(self, *exc):
        tracer = self._tracer
        tracer.spans[self._index][2] = perf_counter()
        tracer._stack.pop()
        return False


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracing off: every span is one shared no-op context manager."""

    def span(self, name: str, call=None):
        return _NULL_SPAN


class Tracer:
    """Tracing on: spans appended to :attr:`spans` as they open."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def span(self, name: str, call=None) -> _Span:
        return _Span(self, name, call)

    def totals(self) -> dict[str, float]:
        """Summed duration per span name."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _, _ in self.spans:
            out[name] += end - start
        return dict(out)

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name: duration minus child coverage.

        Children of one span run one after another, so the part of the
        parent they cover is the sum of their durations.
        """
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - covered[i]
        return dict(out)

    def write(self, path) -> None:
        """Dump the spans, one JSON object per line."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent, call) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end,
                    "parent": parent, "call": call,
                }) + "\n")


NULL_TRACER = NullTracer()
