"""Stream runners shared by every experiment.

These feed a stream to an estimator while scoring every published output
against the exact ground truth — the measurement protocol behind all the
Table-1 rows.  Both multiplicative (Fp, F0, heavy hitters) and additive
(entropy) judging are provided, plus a contender sweep helper.

Two ingestion modes:

* **per-item** (``chunk_size=None``) — the historical path: one
  ``process_update`` per update, judged after every step.  This is the
  round structure of the adversarial setting and stays the only mode the
  adversarial game uses.
* **batched** (``chunk_size=k``) — oblivious replay through the
  vectorized ``update_batch`` pipeline: the stream is sliced into
  :class:`~repro.streams.model.StreamChunk` arrays, estimator and ground
  truth consume whole chunks, and the published output is judged at chunk
  boundaries.  Orders of magnitude faster; ``items_per_sec`` in
  :class:`RunStats` records the achieved throughput in both modes.

Batched runs additionally accept an execution engine (``engine=`` — a
name like ``"process:4"`` or an :class:`repro.engine.ExecutionEngine`):
the estimator is driven through an engine session with the same
boundary judging.  Switching estimators run the serial session's
shared-work hoists under every engine; only the heavy-hitters ring and
mergeable sketches fork worker processes.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from repro.engine.executor import resolve_engine
from repro.streams.frequency import FrequencyVector
from repro.streams.model import Update, chunk_updates, iter_updates

TruthFn = Callable[[FrequencyVector], float]


@dataclass(frozen=True)
class RunStats:
    """Error/timing/space summary of one algorithm over one stream."""

    worst_error: float
    mean_error: float
    seconds: float
    space_bits: int
    steps_judged: int
    items_per_sec: float = 0.0


def _finalize(
    worst: float, total: float, judged: int, secs: float, items: int, algo
) -> RunStats:
    return RunStats(
        worst_error=worst,
        mean_error=total / judged if judged else 0.0,
        seconds=secs,
        space_bits=algo.space_bits(),
        steps_judged=judged,
        items_per_sec=items / secs if secs > 0 else 0.0,
    )


def run_relative(
    algo,
    updates: Sequence[Update],
    truth_fn: TruthFn,
    skip: int = 100,
    floor: float = 0.0,
    chunk_size: int | None = None,
    engine=None,
    telemetry=None,
) -> RunStats:
    """Relative-error scoring: err = |R_t - g| / |g| per judged step.

    With ``chunk_size`` set, the stream is replayed batched and judged at
    chunk boundaries (oblivious-replay semantics); ``engine`` then
    selects the execution engine for the batched feeds, and
    ``telemetry`` (anything :func:`repro.obs.resolve_telemetry` accepts)
    binds an observability hub to the estimator's switching core for the
    replay — judging is unchanged; telemetry only observes.
    """
    if chunk_size is not None:
        return _run_chunked(
            algo, updates, truth_fn, chunk_size,
            skip=skip, floor=floor, additive=False, engine=engine,
            telemetry=telemetry,
        )
    if telemetry is not None:
        raise ValueError("telemetry= requires chunk_size= (batched replay)")
    if engine is not None:
        raise ValueError("engine= requires chunk_size= (batched replay)")
    truth = FrequencyVector()
    worst = total = 0.0
    judged = 0
    count = 0
    start = time.perf_counter()
    for t, u in enumerate(updates):
        truth.update(u.item, u.delta)
        out = algo.process_update(u.item, u.delta)
        count += 1
        g = truth_fn(truth)
        if t >= skip and abs(g) > floor:
            err = abs(out - g) / abs(g)
            worst = max(worst, err)
            total += err
            judged += 1
    secs = time.perf_counter() - start
    return _finalize(worst, total, judged, secs, count, algo)


def run_additive(
    algo,
    updates: Sequence[Update],
    truth_fn: TruthFn,
    skip: int = 100,
    chunk_size: int | None = None,
    engine=None,
    telemetry=None,
) -> RunStats:
    """Additive-error scoring: err = |R_t - g| per judged step (entropy)."""
    if chunk_size is not None:
        return _run_chunked(
            algo, updates, truth_fn, chunk_size, skip=skip, additive=True,
            engine=engine, telemetry=telemetry,
        )
    if telemetry is not None:
        raise ValueError("telemetry= requires chunk_size= (batched replay)")
    if engine is not None:
        raise ValueError("engine= requires chunk_size= (batched replay)")
    truth = FrequencyVector()
    worst = total = 0.0
    judged = 0
    count = 0
    start = time.perf_counter()
    for t, u in enumerate(updates):
        truth.update(u.item, u.delta)
        out = algo.process_update(u.item, u.delta)
        count += 1
        g = truth_fn(truth)
        if t >= skip:
            err = abs(out - g)
            worst = max(worst, err)
            total += err
            judged += 1
    secs = time.perf_counter() - start
    return _finalize(worst, total, judged, secs, count, algo)


def _run_chunked(
    algo,
    updates,
    truth_fn: TruthFn,
    chunk_size: int,
    skip: int = 100,
    floor: float = 0.0,
    additive: bool = False,
    engine=None,
    telemetry=None,
) -> RunStats:
    """Batched oblivious replay, judged at chunk boundaries.

    Accepts anything :func:`repro.streams.model.chunk_updates` accepts —
    a list of Updates, plain items, or an iterable of StreamChunks (the
    array-native generators), so million-update streams never materialise
    per-update Python objects.  With ``engine`` set, the estimator is
    fed through an engine session instead of direct ``update_batch``
    calls (same boundary outputs for exact-state sketches).
    """
    resolved = resolve_engine(engine)
    if telemetry is not None:
        # Lazy import: repro.api pulls in every robust wrapper; keep the
        # runner import-light for experiments that never trace.
        from repro.api import install_telemetry
        from repro.obs import resolve_telemetry

        tele = resolve_telemetry(telemetry)
        if tele is not None:
            install_telemetry(algo, tele)
    truth = FrequencyVector()
    worst = total = 0.0
    judged = 0
    count = 0
    session = None
    start = time.perf_counter()
    try:
        if resolved is not None:
            session = resolved.session(algo)
        for chunk in chunk_updates(updates, chunk_size):
            truth.update_batch(chunk.items, chunk.deltas)
            if session is None:
                algo.update_batch(chunk.items, chunk.deltas)
                out = algo.query()
            else:
                session.feed(chunk.items, chunk.deltas)
                out = session.query()
            count += len(chunk)
            g = truth_fn(truth)
            if count >= skip:
                if additive:
                    err = abs(out - g)
                elif abs(g) > floor:
                    err = abs(out - g) / abs(g)
                else:
                    continue
                worst = max(worst, err)
                total += err
                judged += 1
        if session is not None:
            session.finalize()
            session = None
    finally:
        if session is not None:
            session.close()
    secs = time.perf_counter() - start
    return _finalize(worst, total, judged, secs, count, algo)


def sweep_contenders(
    contenders: Sequence[tuple[str, object]],
    updates: Sequence[Update],
    truth_fn: TruthFn,
    skip: int = 100,
    floor: float = 0.0,
    additive: bool = False,
    chunk_size: int | None = None,
    engine=None,
    telemetry=None,
) -> dict[str, RunStats]:
    """Run every (name, algorithm) pair over the same stream.

    Generator inputs (e.g. the array-native chunk generators) are
    materialised once up front — each contender must see the *same*
    stream, and a consumable iterable would leave every contender after
    the first with an empty replay.
    """
    if not isinstance(updates, Sequence):
        updates = list(updates)
        if chunk_size is None:
            # Per-item judging needs Update granularity even when the
            # materialised stream arrived as StreamChunks.
            updates = list(iter_updates(updates))
    out: dict[str, RunStats] = {}
    for name, algo in contenders:
        if additive:
            out[name] = run_additive(
                algo, updates, truth_fn, skip=skip, chunk_size=chunk_size,
                engine=engine, telemetry=telemetry,
            )
        else:
            out[name] = run_relative(
                algo, updates, truth_fn, skip=skip, floor=floor,
                chunk_size=chunk_size, engine=engine, telemetry=telemetry,
            )
    return out
