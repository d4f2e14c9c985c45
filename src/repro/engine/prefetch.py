"""Double-buffered chunk prefetching.

Chunk *production* — drawing synthetic batches from a generator, or
paging a columnar store's memmapped arrays off disk — and chunk
*ingestion* are serialized in a naive replay loop: the estimator idles
while the next chunk materialises.  :func:`prefetch_chunks` overlaps the
two with a bounded hand-off queue filled by a background thread: while
the consumer ingests chunk ``t``, the producer is already building chunk
``t+1`` (and with ``depth=2``, the default, ``t+2``).  NumPy generation
and memmap page-ins release the GIL for their hot parts, so the overlap
is real even on CPython.

Order is preserved, the producer is throttled by the queue bound (no
unbounded buffering of a 10^9-update stream), and a producer exception
is re-raised at the consuming site — or logged if the consumer has
already gone away, never dropped.  Closing the returned generator early
(``break`` in the consumer) stops the producer thread promptly: every
producer-side put, including the terminal sentinel, is stop-aware, the
close path drains the queue fully, and a producer that still fails to
join is logged instead of silently leaking.
"""

from __future__ import annotations

import logging
import queue
import threading
from collections.abc import Iterable, Iterator

from repro.obs import NULL_TELEMETRY, PrefetchFaultEvent

_log = logging.getLogger(__name__)

#: Default queue depth: classic double buffering (one chunk being
#: consumed, one being produced).
DEFAULT_DEPTH = 2

#: How long the consumer's close path waits for the producer thread.
#: Module-level so lifecycle tests can shrink it.
JOIN_TIMEOUT = 5.0

_DONE = object()


def prefetch_chunks(chunks: Iterable, depth: int = DEFAULT_DEPTH,
                    telemetry=None) -> Iterator:
    """Yield from ``chunks`` with production overlapped in a worker thread.

    ``depth`` bounds how many chunks may exist between producer and
    consumer at once; ``depth=2`` is double buffering.  ``telemetry``
    optionally mirrors the lifecycle-fault ``logging`` calls (producer
    exception, join timeout) as :class:`~repro.obs.PrefetchFaultEvent`
    records, so trace files capture faults alongside the protocol
    events.  ``Telemetry.emit`` is thread-safe; faults surface from the
    producer thread.
    """
    if depth < 1:
        raise ValueError(f"prefetch depth must be >= 1, got {depth}")
    tele = telemetry if telemetry is not None else NULL_TELEMETRY

    def fault(kind: str, detail: str) -> None:
        if tele.enabled:
            tele.emit(PrefetchFaultEvent(fault=kind, detail=detail))
            tele.metrics.counter(
                "prefetch_faults_total", "prefetcher lifecycle faults"
            ).inc()
    handoff: queue.Queue = queue.Queue(maxsize=depth)
    stop = threading.Event()

    def offer(value) -> bool:
        """Stop-aware blocking put: True once enqueued, False on close.

        Every producer-side put goes through here — chunks, the
        terminal ``_DONE``, and exceptions alike — so a consumer that
        closes the generator while the queue is full can never strand
        the producer in an unconditional ``put``.
        """
        while not stop.is_set():
            try:
                handoff.put(value, timeout=0.1)
                return True
            except queue.Full:
                continue
        return False

    def produce() -> None:
        try:
            for chunk in chunks:
                if not offer(chunk):
                    return
            offer(_DONE)
        except BaseException as exc:
            # Deliver the failure to the consuming site; if the consumer
            # has closed, drain one stale slot so the put cannot block
            # and park the exception for the close path's post-join
            # drain to log — a producer failure must never vanish.  Only
            # if even the park fails does the producer log it itself
            # (otherwise the two sides would double-report one failure).
            if offer(exc):
                return
            try:
                handoff.get_nowait()
            except queue.Empty:
                pass
            try:
                handoff.put_nowait(exc)
            except queue.Full:  # pragma: no cover - racing producer only
                _log.error(
                    "chunk-prefetch producer failed after the consumer "
                    "closed: %r", exc, exc_info=exc,
                )
                fault("producer-exception", repr(exc))

    worker = threading.Thread(target=produce, daemon=True, name="chunk-prefetch")
    worker.start()
    try:
        while True:
            got = handoff.get()
            if got is _DONE:
                return
            if isinstance(got, BaseException):
                raise got
            yield got
    finally:
        stop.set()

        def drain() -> None:
            # Drain the queue fully: with in-flight chunks on a deep
            # queue a single-slot drain could leave the producer blocked
            # mid-put (it frees at most one slot), and the buffered
            # chunks are dead weight once the consumer is gone.  Any
            # exception found is a failure the consumer will never
            # read: log it, don't drop it.
            while True:
                try:
                    got = handoff.get_nowait()
                except queue.Empty:
                    return
                if isinstance(got, BaseException):
                    _log.error(
                        "chunk-prefetch producer failed after the "
                        "consumer stopped reading: %r", got, exc_info=got,
                    )
                    fault("producer-exception", repr(got))

        drain()
        worker.join(timeout=JOIN_TIMEOUT)
        if worker.is_alive():
            # The chunk source itself is stuck (e.g. blocked I/O inside
            # the generator): surface the leak instead of quietly
            # abandoning a daemon thread.
            _log.error(
                "chunk-prefetch producer thread failed to join within "
                "%.1fs of close; the chunk source is blocked and the "
                "thread is leaked", JOIN_TIMEOUT,
            )
            fault("join-timeout",
                  f"producer thread still alive after {JOIN_TIMEOUT}s")
        else:
            # A put that was already in flight past its stop check can
            # land *after* the first drain; with the producer joined the
            # queue is now final, so this second pass closes the window
            # in which a parked exception could slip away unlogged.
            drain()
