"""Execution engines: serial and process-pool drivers for shard plans.

The paper's robustness frameworks multiply work — sketch switching runs
``Theta(eps^-1 log eps^-1)`` independent copies of a static sketch.
This module executes the plans of :mod:`repro.engine.shards` two ways:

* :class:`SerialEngine` — everything on the calling process, but with the
  plan's shared-work hoists applied: the chunk is deduped/aggregated
  *once* and the result fanned out to every copy, instead of every copy
  re-deduping the same chunk.  Switching sessions drive the
  :class:`~repro.core.sketch_switching.SwitchingProtocol` over a
  :class:`~repro.core.copies.LocalCopyBackend` (or the universe fast
  path's :class:`~repro.core.copies.UniverseLocalBackend`).
* :class:`ProcessEngine` — two plan kinds fork: the heavy-hitters epoch
  ring (:class:`EpochShardPlan`: ring copies sharded across workers, the
  inner L2 switcher and the epoch clock on the coordinator) and merge
  plans (:class:`MergeShardPlan`: one partial per worker).  Chunks
  travel as bytes through shared-memory buffers (one ``memcpy`` in,
  zero copies out), and only tiny messages cross the command pipes.
  Requires the ``fork`` start method (the workers inherit sketch state
  and factories by address space, not pickling).  Switching plans, and
  everything else without a forking kind, open exactly the
  :class:`SerialEngine` session, bit-for-bit: the copies of a switching
  estimator all read the same chunk, and sharding them across workers
  lost to the serial session on every workload measured.

Every switching session drives the **same** protocol that serial chunked
ingestion (``update_chunk``) uses — the coordinator asks the
estimator's :class:`~repro.core.bands.BandPolicy` whether the boundary
estimate ``band.crossed(...)`` the publish band, and the protocol
resolves crossings by snapshot bisection of the probed copies — per-item
exact for bisectable bands, cell-granularity coalescing for the
additive band (see :mod:`repro.core.bands`).  Sessions differ from
``update_chunk`` only in the shard plan's shared-work hoists and, for
the epoch ring, in where the ring copies live; published outputs,
switch counts, and restart RNG draws agree across the direct chunked
path and both engines by construction.

Bit-for-bit caveats are inherited from the chunked pipeline, not added
by the engines: exact-state sketches reproduce the per-item protocol
exactly; float accumulators match up to summation order; non-monotone
trackers (entropy) coalesce a transient band exit that fully reverts
within one clean chunk — the same oblivious-replay semantics the serial
``update_chunk`` documents.

The adversarial game is untouched: it stays per item, per update, on one
process — adaptivity requires round granularity.  Engines are an
**oblivious replay** surface, like the rest of the batched pipeline.
"""

from __future__ import annotations

import abc
import multiprocessing as mp
import os
import time
import traceback
from multiprocessing import shared_memory

import numpy as np

from repro.core.copies import (
    CopyManager,
    LocalCopyBackend,
    UniverseLocalBackend,
)
from repro.obs import PhasesEvent, WorkerTelemetry
from repro.core.sketch_switching import REPLAY_LEAF, SwitchingProtocol
from repro.engine.shards import (
    EpochShardPlan,
    MergeShardPlan,
    SwitchingShardPlan,
    plan_shards,
    source_mode_for,
)
from repro.sketches.base import Sketch, aggregate_batch, as_batch_arrays

#: Default shared-buffer capacity in updates; chunks larger than this are
#: split (each split gets its own boundary band check, so keep ingestion
#: chunk sizes at or below it for bit-for-bit serial equivalence).
DEFAULT_CHUNK_CAPACITY = 1 << 20


class EngineError(RuntimeError):
    """A worker process failed; the session is no longer usable."""


# ----------------------------------------------------------------------
# Process ring backend: where sharded ring copies live and how they are fed
# ----------------------------------------------------------------------


def _ring_worker(conn, copies, factories, views, unique_hint: bool,
                 worker_id: int = 0, trace: bool = False) -> None:
    """Forked worker: owns a shard of a uniform-feed ring's copies.

    ``copies`` is a list of ``[global_index, sketch]`` pairs inherited
    through fork; ``factories`` maps each owned global index to the
    factory that rebuilds it on a ring restart; ``views`` maps region
    name -> (items, deltas) NumPy views over the shared-memory buffers.
    Every ``feed`` reaches every owned copy (the ring has no probed
    copy), commands arrive in order per pipe, and that order is the
    only one the coordinator relies on.

    Telemetry: per-command wall seconds are always accumulated into a
    :class:`~repro.obs.WorkerTelemetry` buffer (feeding
    ``IngestReport.phase_seconds``'s ``worker_*`` keys); with ``trace``
    on, the coordinator tags each staged chunk via a fire-and-forget
    ``("span", id)`` command and the buffer turns the ops between two
    tags into one ``worker-chunk`` span.  Everything ships back in the
    ``("obs",)`` reply at collect time — workers never write to the
    coordinator's sinks (a forked ``Telemetry`` may hold an open file).
    """
    obs = WorkerTelemetry(worker_id, trace)

    def lookup(idx):
        for slot in copies:
            if slot[0] == idx:
                return slot
        raise RuntimeError(f"copy {idx} not owned by this worker")

    try:
        while True:
            msg = conn.recv()
            op = msg[0]
            if op == "span":
                obs.begin_span(msg[1])
                continue
            if op == "obs":
                conn.send(("ok", obs.drain()))
                continue
            timed = op in WorkerTelemetry.PHASE_OF
            tick = time.perf_counter() if timed else 0.0
            if op == "feed":
                _, region, hi, unit, assume_unique = msg
                items, deltas = views[region]
                its, dts = items[:hi], (None if unit else deltas[:hi])
                for _, s in copies:
                    if assume_unique and unique_hint:
                        s.update_batch(its, dts, assume_unique=True)
                    else:
                        s.update_batch(its, dts)
            elif op == "replace":
                _, idx, rng = msg
                lookup(idx)[1] = factories[idx](rng)
            elif op == "get":
                _, idx = msg
                conn.send(("ok", lookup(idx)[1]))
            elif op == "sync":
                conn.send(("ok", None))
            elif op == "collect":
                conn.send(("ok", [(i, s) for i, s in copies]))
            elif op == "stop":
                break
            else:  # pragma: no cover - protocol bug
                raise RuntimeError(f"unknown command {op!r}")
            if timed:
                obs.op(op, time.perf_counter() - tick)
    except (EOFError, KeyboardInterrupt):  # coordinator went away
        pass
    except Exception:  # surface the traceback instead of hanging the pipe
        try:
            conn.send(("error", traceback.format_exc()))
        except (OSError, ValueError):
            pass
    finally:
        conn.close()


def _send(conn, msg) -> None:
    """Send a command, surfacing a dead worker's queued traceback.

    A worker that fails during a fire-and-forget command sends
    ``("error", traceback)`` and closes its pipe end; the coordinator
    only notices at its *next* send.  Drain that queued error into an
    :class:`EngineError` instead of leaking a bare ``BrokenPipeError``.
    """
    try:
        conn.send(msg)
    except (BrokenPipeError, OSError) as exc:
        detail = ""
        try:
            while conn.poll(0):
                kind, payload = conn.recv()
                if kind == "error":
                    detail = f":\n{payload}"
        except (EOFError, OSError):
            pass
        raise EngineError(f"engine worker died{detail}") from exc


def _recv_checked(conn):
    """Receive a reply, converting worker errors/deaths to EngineError."""
    try:
        kind, payload = conn.recv()
    except EOFError as exc:
        raise EngineError("engine worker died without a reply") from exc
    if kind == "error":
        raise EngineError(f"engine worker failed:\n{payload}")
    return payload


class _SharedBuffers:
    """Shared-memory chunk regions: raw stream arrays + preprocessed feed."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        nbytes = capacity * 8
        self._blocks = {
            name: shared_memory.SharedMemory(create=True, size=nbytes)
            for name in ("raw_i", "raw_d", "sub_i", "sub_d")
        }
        arr = {
            name: np.ndarray(capacity, dtype=np.int64, buffer=block.buf)
            for name, block in self._blocks.items()
        }
        self.views = {
            "raw": (arr["raw_i"], arr["raw_d"]),
            "sub": (arr["sub_i"], arr["sub_d"]),
        }

    def write(self, region: str, items, deltas) -> int:
        dst_i, dst_d = self.views[region]
        count = len(items)
        dst_i[:count] = items
        if deltas is not None:
            dst_d[:count] = deltas
        return count

    def close(self, unlink: bool) -> None:
        self.views = {}
        for block in self._blocks.values():
            block.close()
            if unlink:
                try:
                    block.unlink()
                except FileNotFoundError:  # pragma: no cover
                    pass
        self._blocks = {}


class _ProcessCopyBackend:
    """A uniform-feed ring's copies sharded across forked workers.

    Backs the heavy-hitters epoch ring under :class:`ProcessEngine`: it
    implements the part of the copy-backend interface that
    :class:`_EpochSession` calls on a ring — stage a chunk, feed it to
    every copy, replace a copy on a ring restart, fetch one copy for an
    epoch snapshot, collect them all home — with the copies living in
    worker address spaces and chunks travelling through shared-memory
    buffers.  It has no probed copy, so it has no probe or search ops.
    """

    def __init__(
        self,
        copies: CopyManager,
        shards: list[list[int]],
        unique_hint: bool,
        capacity: int,
    ):
        self._tele = copies.telemetry
        #: Per-phase worker wall seconds, summed across workers at
        #: collect time (None until then).
        self.worker_phases: dict[str, float] | None = None
        # Workers drive per-copy object state (each owns a shard, so
        # there is no cross-copy batching to win); detach any stacked
        # groups *before* the fork captures the sketches below, so the
        # sketches shipped into worker address spaces own their arrays.
        copies.unstack()
        self._buffers = _SharedBuffers(capacity)
        ctx = mp.get_context("fork")
        self._owner: dict[int, int] = {}
        self._conns = []
        self._procs = []
        self._dirty = False  # fire-and-forget commands since last barrier
        self._raw_len = 0
        self._sub_len = 0
        self._sub_unit = True
        self._sub_unique = False
        for w, indices in enumerate(shards):
            parent, child = ctx.Pipe()
            owned = [[i, copies.sketches[i]] for i in indices]
            factories = {i: copies.factory_for(i) for i in indices}
            proc = ctx.Process(
                target=_ring_worker,
                args=(child, owned, factories, self._buffers.views,
                      unique_hint, w, self._tele.enabled),
                daemon=True,
            )
            proc.start()
            child.close()
            for i in indices:
                self._owner[i] = w
            self._conns.append(parent)
            self._procs.append(proc)

    @property
    def workers(self) -> int:
        return len(self._procs)

    @property
    def capacity(self) -> int:
        return self._buffers.capacity

    def _barrier(self) -> None:
        if not self._dirty:
            return
        for conn in self._conns:
            _send(conn, ("sync",))
        for conn in self._conns:
            _recv_checked(conn)
        self._dirty = False

    def stage(self, items: np.ndarray, deltas: np.ndarray) -> None:
        # Workers may still be consuming the previous chunk's buffer via
        # fire-and-forget feeds; fence before overwriting it.
        self._barrier()
        self._raw_len = self._buffers.write("raw", items, deltas)
        if self._tele.enabled:
            # Tag the workers' upcoming ops with the coordinator's
            # current (chunk) span so their buffered worker-chunk spans
            # merge back under the right parent.  Fire-and-forget and
            # pipe-ordered; it touches no shared buffers, so it needs no
            # barrier — and the disabled path sends nothing at all.
            span_id = self._tele.current_span_id
            for conn in self._conns:
                _send(conn, ("span", span_id))

    def stage_sub(self, items, deltas, assume_unique: bool) -> None:
        """Stage a pre-processed (aggregated) feed right after
        :meth:`stage` (which fenced the previous chunk); the next
        ``feed_all_sub()`` fans it to every copy."""
        self._sub_len = self._buffers.write("sub", items, deltas)
        self._sub_unit = deltas is None
        self._sub_unique = assume_unique

    def _feed_all(self, msg) -> None:
        for conn in self._conns:
            _send(conn, msg)
        self._dirty = True

    def feed_all_sub(self) -> None:
        self._feed_all(("feed", "sub", self._sub_len, self._sub_unit,
                        self._sub_unique))

    def feed_all_raw(self) -> None:
        self._feed_all(("feed", "raw", self._raw_len, False, False))

    def replace(self, idx: int, rng: np.random.Generator) -> None:
        _send(self._conns[self._owner[idx]], ("replace", idx, rng))
        self._dirty = True

    def fetch(self, idx: int) -> Sketch:
        """Pull one copy's current state (epoch snapshot publishing)."""
        self._barrier()
        conn = self._conns[self._owner[idx]]
        _send(conn, ("get", idx))
        return _recv_checked(conn)

    def collect_into(self, copies: CopyManager) -> None:
        self._barrier()
        for conn in self._conns:
            _send(conn, ("collect",))
        for conn in self._conns:
            for idx, sketch in _recv_checked(conn):
                copies.sketches[idx] = sketch
        # Re-adopt the collected sketches into stacked groups (no-op when
        # stacking is disabled or nothing qualifies).
        copies.restack()
        # Pull the workers' telemetry buffers: phase timings always
        # (they feed phase_seconds' worker_* keys), buffered events and
        # spans when tracing is on (merged into the coordinator bundle).
        for conn in self._conns:
            _send(conn, ("obs",))
        phases: dict[str, float] = {}
        for worker, conn in enumerate(self._conns):
            payload = _recv_checked(conn)
            for key, seconds in payload.get("phases", {}).items():
                phases[key] = phases.get(key, 0.0) + seconds
            self._tele.absorb_worker(worker, payload)
        self.worker_phases = phases

    def close(self) -> None:
        for conn in self._conns:
            try:
                conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for proc in self._procs:
            proc.join(timeout=10)
            if proc.is_alive():  # pragma: no cover - hung worker
                proc.terminate()
                proc.join(timeout=5)
        for conn in self._conns:
            conn.close()
        self._conns, self._procs = [], []
        if self._buffers is not None:
            self._buffers.close(unlink=True)
            self._buffers = None


# ----------------------------------------------------------------------
# Merge (per-partial) process execution
# ----------------------------------------------------------------------


def _merge_worker(conn, partial: Sketch, views) -> None:
    """Forked worker owning one merge partial."""
    try:
        while True:
            msg = conn.recv()
            op = msg[0]
            if op == "feed":
                _, lo, hi = msg
                items, deltas = views["raw"]
                partial.update_batch(items[lo:hi], deltas[lo:hi])
                conn.send(("ok", None))
            elif op == "collect":
                conn.send(("ok", partial))
            elif op == "stop":
                break
            else:  # pragma: no cover - protocol bug
                raise RuntimeError(f"unknown command {op!r}")
    except (EOFError, KeyboardInterrupt):
        pass
    except Exception:
        try:
            conn.send(("error", traceback.format_exc()))
        except (OSError, ValueError):
            pass
    finally:
        conn.close()


# ----------------------------------------------------------------------
# Sessions (what api.ingest and the runner drive)
# ----------------------------------------------------------------------


def _merge_phases(timings: dict, backend) -> dict[str, float]:
    """Coordinator protocol timings + a ring backend's worker timings.

    Worker seconds land under separate ``worker_*`` keys rather than
    being summed into the coordinator phases: the ring's feeds are
    fire-and-forget, so they overlap the coordinator entirely and their
    cost only shows up worker-side.  Worker phases appear once the
    backend has collected (session finalize); a local backend has none.
    """
    phases = dict(timings)
    for key, seconds in (getattr(backend, "worker_phases", None) or {}).items():
        phases[f"worker_{key}"] = seconds
    return phases


class IngestSession(abc.ABC):
    """One engine-managed ingestion pass over an oblivious stream."""

    #: Human-readable execution mode, recorded by IngestReport/benchmarks.
    mode: str = "serial"

    #: Band-policy name driving this session, if any ("multiplicative",
    #: "additive", "epoch") — surfaced by IngestReport.  (The probe
    #: discipline is *not* mirrored here: IngestReport derives it from
    #: the one authoritative surface, ``api.discipline_state``.)
    policy: str | None = None

    #: Why the planner fell back to plain serial feeding, if it did —
    #: surfaced by IngestReport so a fallback is observable, not silent.
    fallback_reason: str | None = None

    #: How the planner decided to execute a ChunkSource, if one was
    #: supplied: "universe" or "bytes: <reason>" — surfaced by
    #: IngestReport so the fallback to bytes-shipping is observable.
    source_mode: str | None = None

    @property
    def phase_seconds(self) -> dict[str, float] | None:
        """Cumulative per-phase wall-clock (probe / band_test / feed /
        replace) for protocol-driven sessions; None when the session has
        no switching protocol to instrument."""
        return None

    @abc.abstractmethod
    def feed(self, items, deltas=None) -> None:
        """Ingest one chunk."""

    @abc.abstractmethod
    def query(self) -> float:
        """The estimator's current published output."""

    def finalize(self) -> None:
        """Sync all sharded state back into the estimator."""

    def close(self) -> None:
        """Release workers/buffers without finalizing (error path)."""

    def __enter__(self) -> "IngestSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.finalize()
        else:
            self.close()


class _PlainSession(IngestSession):
    """Deterministic fallback: plain ``update_batch`` on this process."""

    def __init__(self, estimator: Sketch, fallback_reason: str | None = None):
        self._est = estimator
        self.fallback_reason = fallback_reason

    def feed(self, items, deltas=None) -> None:
        self._est.update_batch(items, deltas)

    def query(self) -> float:
        return self._est.query()


class _SwitchingSession(IngestSession):
    """Per-copy fan-out session for switching estimators (any band)."""

    def __init__(self, estimator, plan: SwitchingShardPlan, backend,
                 raw_hoists: bool = False):
        self._est = estimator
        self._backend = backend
        # The universe fast path's backend consumes the unaggregated
        # stream positionally: the coordinator never materializes a
        # deduped view to hand it, so the plan's seen-filter/
        # aggregate-once hoists are turned off and the backend does its
        # own shared-work hoisting.
        self._protocol = SwitchingProtocol(
            plan.switcher, backend,
            seen_filter=None if raw_hoists else plan.hoists.make_seen_filter(),
            aggregate_once=False if raw_hoists else plan.aggregate_once,
            unique_hint=False if raw_hoists else plan.unique_hint,
        )
        self.policy = plan.band.name
        self._tele = plan.switcher._copies.telemetry

    @property
    def phase_seconds(self) -> dict[str, float]:
        return dict(self._protocol.timings)

    def feed(self, items, deltas=None) -> None:
        if self._tele.enabled:
            with self._tele.span("chunk"):
                self._protocol.feed(items, deltas)
        else:
            self._protocol.feed(items, deltas)

    def query(self) -> float:
        return self._est.query()

    def finalize(self) -> None:
        self._backend.close()
        if self._tele.enabled:
            self._tele.emit(PhasesEvent(phases=self.phase_seconds))

    def close(self) -> None:
        self._backend.close()


class _EpochSession(IngestSession):
    """Theorem 6.5 fan-out: L2 switching protocol + uniform ring feeds.

    The inner robust L2 tracker runs through the same switching protocol
    as any other switching estimator, on this process; the point-query
    ring is fed every chunk uniformly through ``ring_backend`` — local,
    or sharded across workers under :class:`ProcessEngine` —
    (aggregated once when the ring licenses it).  The epoch clock — the
    wrapper's :class:`~repro.core.bands.EpochBand` over the published L2
    estimate — ticks on the coordinator at chunk boundaries, exactly as
    the wrapper's own ``update_batch`` does, so published snapshots,
    epoch counts, and ring restarts agree with the direct chunked path.
    """

    def __init__(self, plan: EpochShardPlan, ring_backend,
                 mode: str = "serial"):
        self._wrapper = plan.wrapper
        self._plan = plan
        l2_plan = plan.l2_plan
        self._l2_backend = LocalCopyBackend(
            l2_plan.switcher._copies, l2_plan.unique_hint
        )
        self._ring_backend = ring_backend
        self._l2_protocol = SwitchingProtocol(
            l2_plan.switcher, self._l2_backend,
            seen_filter=l2_plan.hoists.make_seen_filter(),
            aggregate_once=l2_plan.aggregate_once,
            unique_hint=l2_plan.unique_hint,
        )
        self.mode = mode
        self.policy = "epoch"
        self._tele = l2_plan.switcher._copies.telemetry

    @property
    def phase_seconds(self) -> dict[str, float]:
        # The inner L2 switcher is the protocol-driven half; ring feeds
        # are uniform fan-outs with no probe/band phases to attribute
        # coordinator-side (their worker seconds do show up).
        return _merge_phases(self._l2_protocol.timings, self._ring_backend)

    def feed(self, items, deltas=None) -> None:
        if self._tele.enabled:
            with self._tele.span("chunk"):
                self._feed(items, deltas)
        else:
            self._feed(items, deltas)

    def _feed(self, items, deltas=None) -> None:
        items, deltas = as_batch_arrays(items, deltas)
        if len(items) == 0:
            return
        cap = self._ring_backend.capacity
        for lo in range(0, len(items), cap):
            self._feed_one(items[lo:lo + cap], deltas[lo:lo + cap])
        # The epoch clock ticks once per *caller* chunk, after any
        # capacity splits, exactly where the wrapper's own update_batch
        # ticks it; the session only supplies the hooks that reach
        # copies living in worker processes.
        self._wrapper._tick_epoch_clock(fetch=self._ring_backend.fetch,
                                        replace=self._ring_backend.replace)

    def _feed_one(self, items: np.ndarray, deltas: np.ndarray) -> None:
        hoists = self._plan.ring_hoists
        # Both the L2 probe and the ring feed want the same aggregated
        # chunk; compute it once for whichever of them is licensed.
        aggregated = None
        if hoists.aggregate_once or self._plan.l2_plan.aggregate_once:
            aggregated = aggregate_batch(items, deltas)
        self._l2_protocol.feed(items, deltas, aggregated=aggregated)
        ring = self._ring_backend
        ring.stage(items, deltas)
        if hoists.aggregate_once:
            ring.stage_sub(aggregated[0], aggregated[1], hoists.unique_hint)
            ring.feed_all_sub()
        else:
            ring.feed_all_raw()

    def query(self) -> float:
        # Published snapshots and the L2 estimate are coordinator state.
        return self._wrapper.query()

    def finalize(self) -> None:
        self._ring_backend.collect_into(self._plan.ring)
        self.close()
        if self._tele.enabled:
            self._tele.emit(PhasesEvent(phases=self.phase_seconds))

    def close(self) -> None:
        self._ring_backend.close()
        self._l2_backend.close()


class _ProcessMergeSession(IngestSession):
    """Per-partial fan-out for one mergeable sketch.

    Worker partials are pure deltas (they start from ``empty_like``), so
    the sketch's pre-session state merges correctly.  Note that
    :meth:`query` must collect and merge every partial — boundary-judged
    runs (``run_relative(engine=...)``) pay one full state transfer per
    chunk boundary; the merged view is cached between feeds.
    """

    def __init__(self, plan: MergeShardPlan, workers: int, capacity: int):
        self._sketch = plan.sketch
        self._buffers = _SharedBuffers(capacity)
        ctx = mp.get_context("fork")
        self._conns = []
        self._procs = []
        for partial in plan.make_partials(workers):
            parent, child = ctx.Pipe()
            proc = ctx.Process(
                target=_merge_worker,
                args=(child, partial, self._buffers.views),
                daemon=True,
            )
            proc.start()
            child.close()
            self._conns.append(parent)
            self._procs.append(proc)
        self.mode = f"process[{len(self._procs)}]"
        self._finalized = False
        self._merged_view: Sketch | None = None

    def feed(self, items, deltas=None) -> None:
        items, deltas = as_batch_arrays(items, deltas)
        self._merged_view = None
        cap = self._buffers.capacity
        for start in range(0, len(items), cap):
            part_i = items[start:start + cap]
            part_d = deltas[start:start + cap]
            count = self._buffers.write("raw", part_i, part_d)
            workers = len(self._conns)
            bounds = np.linspace(0, count, workers + 1).astype(int)
            for conn, lo, hi in zip(self._conns, bounds[:-1], bounds[1:]):
                _send(conn, ("feed", int(lo), int(hi)))
            for conn in self._conns:
                _recv_checked(conn)

    def _collect(self) -> list[Sketch]:
        for conn in self._conns:
            _send(conn, ("collect",))
        return [_recv_checked(conn) for conn in self._conns]

    def query(self) -> float:
        if self._finalized:
            return self._sketch.query()
        if self._merged_view is None:
            merged = self._sketch.snapshot()
            for partial in self._collect():
                merged.merge(partial)
            self._merged_view = merged
        return self._merged_view.query()

    def finalize(self) -> None:
        if self._finalized:
            return
        for partial in self._collect():
            self._sketch.merge(partial)
        self._finalized = True
        self.close()

    def close(self) -> None:
        for conn in self._conns:
            try:
                conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for proc in self._procs:
            proc.join(timeout=10)
            if proc.is_alive():  # pragma: no cover - hung worker
                proc.terminate()
                proc.join(timeout=5)
        for conn in self._conns:
            conn.close()
        self._conns, self._procs = [], []
        if self._buffers is not None:
            self._buffers.close(unlink=True)
            self._buffers = None


# ----------------------------------------------------------------------
# Engines
# ----------------------------------------------------------------------


def fork_available() -> bool:
    """Process engines need ``fork`` (state travels by address space)."""
    return "fork" in mp.get_all_start_methods()


class ExecutionEngine(abc.ABC):
    """Factory of :class:`IngestSession` objects for one estimator each."""

    name: str = "engine"

    @abc.abstractmethod
    def session(self, estimator: Sketch, source=None) -> IngestSession:
        """Open an ingestion session; use as a context manager.

        ``source`` is an optional :class:`~repro.streams.sources.ChunkSource`
        whose chunks the caller will feed; serial switching sessions use
        its promised item universe for the counts-based fast path when
        the copy set licenses it.  ``session.source_mode`` records the
        decision.
        """


class SerialEngine(ExecutionEngine):
    """In-process execution of the shard plan's shared-work hoists.

    No extra processes: the win over plain ``update_batch`` is that a
    chunk is deduped/aggregated once on the coordinator instead of once
    per fanned-out copy.  Also the deterministic fallback everywhere
    process parallelism is unavailable.
    """

    name = "serial"

    def session(self, estimator: Sketch, source=None) -> IngestSession:
        plan = plan_shards(estimator)
        source_mode = source_mode_for(plan, source)
        if isinstance(plan, SwitchingShardPlan):
            universe = source_mode == "universe"
            backend = (
                UniverseLocalBackend(plan.switcher._copies, source.universe)
                if universe
                else LocalCopyBackend(plan.switcher._copies, plan.unique_hint)
            )
            session = _SwitchingSession(
                estimator, plan, backend, raw_hoists=universe
            )
        elif isinstance(plan, EpochShardPlan):
            session = _EpochSession(
                plan, LocalCopyBackend(plan.ring, plan.ring_hoists.unique_hint)
            )
        else:
            session = _PlainSession(
                estimator, fallback_reason=getattr(plan, "reason", None)
            )
        session.source_mode = source_mode
        return session


class ProcessEngine(ExecutionEngine):
    """Shard a ring's copies or a sketch's merge partials across forked
    worker processes.

    Parameters
    ----------
    workers:
        Worker process count (defaults to ``os.cpu_count()``).
    chunk_capacity:
        Shared-buffer size in updates; feeds larger than this are split.

    Two plan kinds fork: the heavy-hitters epoch ring
    (:class:`EpochShardPlan`, ring copies sharded, the L2 tracker on the
    coordinator) and merge plans (:class:`MergeShardPlan`, one partial
    per worker).  Every chunk reaches the workers as bytes through the
    shared buffers.  Everything else — switching plans (all their copies
    read the same chunk, and sharding them lost to the serial session on
    every workload measured), ``fork`` unavailable, one worker, a
    one-copy ring, no parallel plan — opens exactly
    :class:`SerialEngine`'s session: same outputs, same ``mode`` and
    ``source_mode``, universe fast path included.
    """

    name = "process"

    def __init__(
        self,
        workers: int | None = None,
        chunk_capacity: int = DEFAULT_CHUNK_CAPACITY,
    ):
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers or (os.cpu_count() or 1)
        if chunk_capacity < REPLAY_LEAF + 1:
            raise ValueError(
                f"chunk_capacity must exceed REPLAY_LEAF={REPLAY_LEAF}"
            )
        self.chunk_capacity = chunk_capacity

    def session(self, estimator: Sketch, source=None) -> IngestSession:
        if self.workers < 2 or not fork_available():
            return SerialEngine().session(estimator, source)
        plan = plan_shards(estimator)
        if isinstance(plan, EpochShardPlan) and plan.ring.count > 1:
            ring_backend = _ProcessCopyBackend(
                plan.ring,
                plan.ring_shards(self.workers),
                plan.ring_hoists.unique_hint,
                self.chunk_capacity,
            )
            session = _EpochSession(
                plan, ring_backend, f"process[{ring_backend.workers}]"
            )
        elif isinstance(plan, MergeShardPlan):
            session = _ProcessMergeSession(
                plan, self.workers, self.chunk_capacity
            )
        else:
            return SerialEngine().session(estimator, source)
        session.source_mode = source_mode_for(plan, source)
        return session


def resolve_engine(spec) -> ExecutionEngine | None:
    """Normalise an engine spec: None, name string, worker count, instance.

    ``None`` → no engine (the historical direct path); ``"serial"`` →
    :class:`SerialEngine`; ``"process"`` / ``"process:N"`` / an int →
    :class:`ProcessEngine`; an :class:`ExecutionEngine` passes through.
    """
    if spec is None or isinstance(spec, ExecutionEngine):
        return spec
    if isinstance(spec, bool):
        raise ValueError("engine must be a name, worker count, or engine")
    if isinstance(spec, int):
        return ProcessEngine(workers=spec)
    if isinstance(spec, str):
        if spec == "serial":
            return SerialEngine()
        if spec == "process":
            return ProcessEngine()
        if spec.startswith("process:"):
            return ProcessEngine(workers=int(spec.split(":", 1)[1]))
    raise ValueError(
        f"unknown engine spec {spec!r}; expected None, 'serial', 'process', "
        f"'process:N', a worker count, or an ExecutionEngine"
    )
