"""Execution engines: serial and process-pool drivers for shard plans.

The paper's robustness frameworks multiply work — sketch switching runs
``Theta(eps^-1 log eps^-1)`` independent copies of a static sketch — and
that work is embarrassingly parallel per copy.  This module executes the
plans of :mod:`repro.engine.shards` two ways:

* :class:`SerialEngine` — everything on the calling process, but with the
  plan's shared-work hoists applied: the chunk is deduped/aggregated
  *once* and the result fanned out to every copy, instead of every copy
  re-deduping the same chunk.  This is also the deterministic fallback
  when process parallelism is unavailable.
* :class:`ProcessEngine` — copies (or merge partials) live in forked
  worker processes; every chunk, including one materialized from a
  :class:`~repro.streams.sources.ChunkSource`, travels as bytes through
  shared-memory buffers (one ``memcpy`` in, zero copies out), and only
  tiny protocol messages cross the command pipes.  Requires the
  ``fork`` start method (the workers inherit sketch state and factories
  by address space, not pickling).  It has one process session per plan
  kind (switching, epoch ring, merge); for everything else — ``fork``
  unavailable, one worker, one copy, no parallel plan — it opens
  exactly the :class:`SerialEngine` session, bit-for-bit.

Both engines drive the **same**
:class:`~repro.core.sketch_switching.SwitchingProtocol` that serial
chunked ingestion (``update_chunk``) uses — the coordinator asks the
estimator's :class:`~repro.core.bands.BandPolicy` whether the boundary
estimate ``band.crossed(...)`` the publish band, and the protocol
resolves crossings by snapshot bisection of the active copy — per-item
exact for bisectable bands, cell-granularity coalescing for the
additive band (see :mod:`repro.core.bands`).  The engines
differ from ``update_chunk`` only in *where the copies live* (a
:class:`~repro.core.copies.LocalCopyBackend` versus forked workers) and
in the shard plan's shared-work hoists; published outputs, switch
counts, and restart RNG draws agree across serial chunked, SerialEngine,
and ProcessEngine by construction — one drive loop, one band
implementation, one coordinator-side replacement-RNG derivation.  This
covers every band policy: multiplicative (F0/Fp/L2), additive (entropy,
previously stuck on the serial path), and the heavy-hitters epoch
construction (:class:`EpochShardPlan`: the inner L2 switcher is driven
through the switching protocol while the CountSketch ring fans out as a
uniform feed with the epoch clock on the coordinator).

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
    partition_copies,
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
# Process backend: where sharded copies live and how they are fed
# ----------------------------------------------------------------------


def _switching_worker(conn, copies, factories, views, unique_hint: bool,
                      worker_id: int = 0, trace: bool = False) -> None:
    """Forked worker: owns a shard of copies, obeys coordinator commands.

    ``copies`` is a list of ``[global_index, sketch]`` pairs inherited
    through fork; ``factories`` maps each owned global index to the
    factory that rebuilds it (heterogeneous under grouped copy sets —
    a difference-ladder tier copy and a strong copy rebuild
    differently); ``views`` maps region name -> (items, deltas) NumPy
    views over the shared-memory buffers.  Commands arrive in order per
    pipe, which is the only ordering the protocol relies on; probe/search
    commands name the *probed* copies this worker owns (the active copy
    under the active-copy discipline, this worker's slice of the probed
    group under the aggregate disciplines' group fan-out) and replies
    carry ``(index, estimate)`` pairs so the coordinator can reassemble
    the probe set in discipline order.  Band policies arrive inside the
    scan command (small frozen dataclasses), so the worker resolves a
    per-item crossing with the coordinator's exact predicate.

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

    def slice_of(region, lo, hi, unit):
        items, deltas = views[region]
        return items[lo:hi], (None if unit else deltas[lo:hi])

    # Stack of probed-copy snapshot lists: [[(idx, snapshot), ...], ...]
    snap_stack: list = []
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
                # Feed every owned copy except the probed `exclude` set
                # (which took the same updates through probe/search ops;
                # an empty exclude feeds all, the uniform-ring case).
                _, region, lo, hi, unit, assume_unique, exclude = msg
                its, dts = slice_of(region, lo, hi, unit)
                excluded = set(exclude)
                for i, s in copies:
                    if i in excluded:
                        continue
                    if assume_unique and unique_hint:
                        s.update_batch(its, dts, assume_unique=True)
                    else:
                        s.update_batch(its, dts)
            elif op == "probe":
                _, region, lo, hi, unit, assume_unique, probed = msg
                its, dts = slice_of(region, lo, hi, unit)
                snaps, out = [], []
                for idx in probed:
                    slot = lookup(idx)
                    snaps.append((idx, slot[1].snapshot()))
                    if assume_unique and unique_hint:
                        slot[1].update_batch(its, dts, assume_unique=True)
                    else:
                        slot[1].update_batch(its, dts)
                    out.append((idx, slot[1].query()))
                snap_stack.append(snaps)
                conn.send(("ok", out))
            elif op == "akeep":
                snap_stack.pop()
            elif op == "aroll":
                for idx, snap in snap_stack.pop():
                    lookup(idx)[1] = snap
            elif op == "asnap":
                _, probed = msg
                snap_stack.append(
                    [(idx, lookup(idx)[1].snapshot()) for idx in probed]
                )
            elif op == "afeed":
                _, lo, hi, probed = msg
                its, dts = slice_of("raw", lo, hi, False)
                out = []
                for idx in probed:
                    slot = lookup(idx)
                    slot[1].update_batch(its, dts)
                    out.append((idx, slot[1].query()))
                conn.send(("ok", out))
            elif op == "astep":
                _, pos, probed = msg
                items, deltas = views["raw"]
                item, delta = int(items[pos]), int(deltas[pos])
                out = []
                for idx in probed:
                    sk = lookup(idx)[1]
                    sk.update(item, delta)
                    out.append((idx, sk.query()))
                conn.send(("ok", out))
            elif op == "ascan":
                _, lo, hi, active, published, band = msg
                sk = lookup(active)[1]
                its, dts = slice_of("raw", lo, hi, False)
                result = None
                for off, (item, delta) in enumerate(
                    zip(its.tolist(), dts.tolist())
                ):
                    sk.update(item, delta)
                    y = sk.query()
                    if band.crossed(published, y):
                        result = (lo + off, y)
                        break
                conn.send(("ok", result))
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
    """Copies of one :class:`CopyManager` sharded across forked workers.

    The process twin of :class:`~repro.core.copies.LocalCopyBackend`:
    same interface, driven by the same
    :class:`~repro.core.sketch_switching.SwitchingProtocol`, with the
    copies living in worker address spaces and chunks travelling through
    shared-memory buffers.
    """

    def __init__(
        self,
        copies: CopyManager,
        shards: list[list[int]],
        unique_hint: bool,
        capacity: int,
        telemetry=None,
    ):
        self._copies = copies
        self._tele = telemetry if telemetry is not None else copies.telemetry
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
                target=_switching_worker,
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

    def _recv(self, conn):
        return _recv_checked(conn)

    def _barrier(self) -> None:
        if not self._dirty:
            return
        for conn in self._conns:
            _send(conn, ("sync",))
        for conn in self._conns:
            self._recv(conn)
        self._dirty = False

    def stage(self, items: np.ndarray, deltas: np.ndarray) -> None:
        # Workers may still be consuming the previous chunk's buffer via
        # fire-and-forget feeds; fence before overwriting it.
        self._barrier()
        self._buffers.write("raw", items, deltas)
        self._raw_len = len(items)
        self._sub_len = 0
        self._sub_unit = True
        self._sub_unique = False
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
        """Stage a pre-processed feed without probing (uniform fan-outs).

        Safe to call right after :meth:`stage` (which fenced the previous
        chunk); the subsequent ``feed_others_sub(())`` then fans the
        staged arrays to every copy.
        """
        self._sub_len = self._buffers.write("sub", items, deltas)
        self._sub_unit = deltas is None
        self._sub_unique = assume_unique

    def _owner_conn(self, idx: int):
        return self._conns[self._owner[idx]]

    def _group(self, probes: tuple[int, ...]) -> dict[int, list[int]]:
        """Group probed copy indices by owning worker (insertion order)."""
        groups: dict[int, list[int]] = {}
        for idx in probes:
            groups.setdefault(self._owner[idx], []).append(idx)
        return groups

    def _gather(self, groups: dict[int, list[int]], probes) -> np.ndarray:
        """Collect (index, estimate) replies and order them like probes."""
        by_index: dict[int, float] = {}
        for worker in groups:
            for idx, y in self._recv(self._conns[worker]):
                by_index[idx] = y
        return np.array([by_index[idx] for idx in probes], dtype=np.float64)

    # -- probed-copy probe/search ops -----------------------------------

    def probe_sub(
        self, items, deltas, assume_unique: bool, probes: tuple[int, ...]
    ) -> np.ndarray:
        self._barrier()
        self.stage_sub(items, deltas, assume_unique)
        groups = self._group(probes)
        for worker, owned in groups.items():
            _send(self._conns[worker],
                  ("probe", "sub", 0, self._sub_len, self._sub_unit,
                   assume_unique, owned))
        return self._gather(groups, probes)

    def probe_raw(self, probes: tuple[int, ...]) -> np.ndarray:
        self._sub_len = 0
        groups = self._group(probes)
        for worker, owned in groups.items():
            _send(self._conns[worker],
                  ("probe", "raw", 0, self._raw_len, False, False, owned))
        return self._gather(groups, probes)

    def keep_probed(self, probes: tuple[int, ...]) -> None:
        for worker in self._group(probes):
            _send(self._conns[worker], ("akeep",))
        self._dirty = True

    def roll_probed(self, probes: tuple[int, ...]) -> None:
        for worker in self._group(probes):
            _send(self._conns[worker], ("aroll",))
        self._dirty = True

    def snap_probed(self, probes: tuple[int, ...]) -> None:
        for worker, owned in self._group(probes).items():
            _send(self._conns[worker], ("asnap", owned))
        self._dirty = True

    def feed_probed(
        self, lo: int, hi: int, probes: tuple[int, ...]
    ) -> np.ndarray:
        groups = self._group(probes)
        for worker, owned in groups.items():
            _send(self._conns[worker], ("afeed", lo, hi, owned))
        return self._gather(groups, probes)

    def step_probed(self, pos: int, probes: tuple[int, ...]) -> np.ndarray:
        groups = self._group(probes)
        for worker, owned in groups.items():
            _send(self._conns[worker], ("astep", pos, owned))
        return self._gather(groups, probes)

    def prefix_probed(self, lo: int, hi: int, probes: tuple[int, ...]):
        return None  # leaves are stepped or scanned in the workers

    def scan_probed(
        self, lo: int, hi: int, probe: int, published: float, band
    ) -> tuple[int, float] | None:
        conn = self._owner_conn(probe)
        _send(conn, ("ascan", lo, hi, probe, published, band))
        got = self._recv(conn)
        return None if got is None else tuple(got)

    # -- non-probed copies ----------------------------------------------

    def feed_others_sub(self, exclude: tuple[int, ...]) -> None:
        for conn in self._conns:
            _send(conn, ("feed", "sub", 0, self._sub_len, self._sub_unit,
                       self._sub_unique, tuple(exclude)))
        self._dirty = True

    def feed_others_raw(self, exclude: tuple[int, ...]) -> None:
        self.catch_up(0, self._raw_len, exclude)

    def catch_up(self, lo: int, hi: int, exclude: tuple[int, ...]) -> None:
        for conn in self._conns:
            _send(conn, ("feed", "raw", lo, hi, False, False,
                         tuple(exclude)))
        self._dirty = True

    def replace(self, idx: int, rng: np.random.Generator) -> None:
        _send(self._conns[self._owner[idx]], ("replace", idx, rng))
        self._dirty = True

    def fetch(self, idx: int) -> Sketch:
        """Pull one copy's current state (epoch snapshot publishing)."""
        self._barrier()
        conn = self._conns[self._owner[idx]]
        _send(conn, ("get", idx))
        return self._recv(conn)

    def collect_into(self, copies: CopyManager) -> None:
        self._barrier()
        for conn in self._conns:
            _send(conn, ("collect",))
        for conn in self._conns:
            for idx, sketch in self._recv(conn):
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
            payload = self._recv(conn)
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


def _merge_phases(timings: dict, *backends) -> dict[str, float]:
    """Coordinator protocol timings + collected worker timings.

    Worker seconds land under separate ``worker_*`` keys rather than
    being summed into the coordinator phases: the coordinator's
    ``probe`` already *includes* the wall time spent blocked on worker
    probe replies (adding would double-count), while fire-and-forget
    feeds overlap the coordinator entirely (their cost only shows up
    worker-side).  Worker phases appear once the backend has collected
    (session finalize); multiple backends (the epoch session's ring +
    L2) sum per key.
    """
    phases = dict(timings)
    for backend in backends:
        worker_phases = getattr(backend, "worker_phases", None)
        if not worker_phases:
            continue
        for key, seconds in worker_phases.items():
            key = f"worker_{key}"
            phases[key] = phases.get(key, 0.0) + seconds
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

    def __init__(
        self, estimator: Sketch, mode: str = "serial",
        fallback_reason: str | None = None,
    ):
        self._est = estimator
        self.mode = mode
        self.fallback_reason = fallback_reason

    def feed(self, items, deltas=None) -> None:
        self._est.update_batch(items, deltas)

    def query(self) -> float:
        return self._est.query()


class _SwitchingSession(IngestSession):
    """Per-copy fan-out session for switching estimators (any band)."""

    def __init__(self, estimator, plan: SwitchingShardPlan, backend,
                 mode: str, raw_hoists: bool = False):
        self._est = estimator
        self._plan = plan
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
        self.mode = mode
        self.policy = plan.band.name
        self._tele = plan.switcher._copies.telemetry

    @property
    def phase_seconds(self) -> dict[str, float]:
        return _merge_phases(self._protocol.timings, self._backend)

    def feed(self, items, deltas=None) -> None:
        if self._tele.enabled:
            with self._tele.span("chunk"):
                self._protocol.feed(items, deltas)
        else:
            self._protocol.feed(items, deltas)

    def query(self) -> float:
        # The published value is coordinator state; no worker round trip.
        return self._est.query()

    def finalize(self) -> None:
        self._backend.collect_into(self._plan.switcher._copies)
        self._backend.close()
        if self._tele.enabled:
            self._tele.emit(PhasesEvent(phases=self.phase_seconds))

    def close(self) -> None:
        self._backend.close()


class _EpochSession(IngestSession):
    """Theorem 6.5 fan-out: L2 switching protocol + uniform ring feeds.

    The inner robust L2 tracker runs through the same switching protocol
    as any other switching estimator (its own backend); the point-query
    ring is fed every chunk uniformly through a copy backend of its own
    (aggregated once when the ring licenses it).  The epoch clock — the
    wrapper's :class:`~repro.core.bands.EpochBand` over the published L2
    estimate — ticks on the coordinator at chunk boundaries, exactly as
    the wrapper's own ``update_batch`` does, so published snapshots,
    epoch counts, and ring restarts agree with the direct chunked path.
    """

    def __init__(self, plan: EpochShardPlan, l2_backend, ring_backend, mode):
        self._wrapper = plan.wrapper
        self._plan = plan
        self._l2_backend = l2_backend
        self._ring_backend = ring_backend
        self._l2_protocol = SwitchingProtocol(
            plan.l2_plan.switcher, l2_backend,
            seen_filter=plan.l2_plan.hoists.make_seen_filter(),
            aggregate_once=plan.l2_plan.aggregate_once,
            unique_hint=plan.l2_plan.unique_hint,
        )
        self.mode = mode
        self.policy = "epoch"
        self._tele = plan.l2_plan.switcher._copies.telemetry

    @property
    def phase_seconds(self) -> dict[str, float]:
        # The inner L2 switcher is the protocol-driven half; ring feeds
        # are uniform fan-outs with no probe/band phases to attribute
        # coordinator-side (their worker seconds do show up).
        return _merge_phases(self._l2_protocol.timings,
                             self._ring_backend, self._l2_backend)

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
        cap = min(self._l2_backend.capacity, self._ring_backend.capacity)
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
            ring.feed_others_sub(())
        else:
            ring.feed_others_raw(())

    def query(self) -> float:
        # Published snapshots and the L2 estimate are coordinator state.
        return self._wrapper.query()

    def finalize(self) -> None:
        self._ring_backend.collect_into(self._plan.ring)
        self._l2_backend.collect_into(self._plan.l2_plan.switcher._copies)
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

    def _recv(self, conn):
        return _recv_checked(conn)

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
                self._recv(conn)

    def _collect(self) -> list[Sketch]:
        for conn in self._conns:
            _send(conn, ("collect",))
        return [self._recv(conn) for conn in self._conns]

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
        source_mode = source_mode_for(plan, source, parallel=False)
        if isinstance(plan, SwitchingShardPlan):
            universe = source_mode == "universe"
            backend = (
                UniverseLocalBackend(plan.switcher._copies, source.universe)
                if universe
                else LocalCopyBackend(plan.switcher._copies, plan.unique_hint)
            )
            session = _SwitchingSession(
                estimator, plan, backend, mode="serial", raw_hoists=universe
            )
        elif isinstance(plan, EpochShardPlan):
            session = _EpochSession(
                plan,
                LocalCopyBackend(
                    plan.l2_plan.switcher._copies, plan.l2_plan.unique_hint
                ),
                LocalCopyBackend(plan.ring, plan.ring_hoists.unique_hint),
                mode="serial",
            )
        else:
            session = _PlainSession(
                estimator, fallback_reason=getattr(plan, "reason", None)
            )
        session.source_mode = source_mode
        return session


class ProcessEngine(ExecutionEngine):
    """Shard copies/partials across forked worker processes.

    Parameters
    ----------
    workers:
        Worker process count (defaults to ``os.cpu_count()``).
    chunk_capacity:
        Shared-buffer size in updates; feeds larger than this are split.

    Every chunk reaches the workers as bytes through the shared buffers.
    Opens exactly :class:`SerialEngine`'s session — same outputs, same
    ``mode`` and ``source_mode`` — when ``fork`` is unavailable, when a
    plan has no parallel decomposition, or when one worker would own
    everything anyway.
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

    def _process_backend(
        self, copies: CopyManager, unique_hint: bool
    ) -> _ProcessCopyBackend:
        return _ProcessCopyBackend(
            copies,
            partition_copies(copies.count, self.workers),
            unique_hint,
            self.chunk_capacity,
        )

    def session(self, estimator: Sketch, source=None) -> IngestSession:
        if self.workers < 2 or not fork_available():
            return SerialEngine().session(estimator, source)
        plan = plan_shards(estimator)
        if isinstance(plan, SwitchingShardPlan) and plan.switcher.copies > 1:
            backend = self._process_backend(
                plan.switcher._copies, plan.unique_hint
            )
            session = _SwitchingSession(
                estimator, plan, backend, f"process[{backend.workers}]"
            )
        elif isinstance(plan, EpochShardPlan) and plan.ring.count > 1:
            # The ring carries the bulk of the copies; the (smaller) L2
            # tracker stays on the coordinator.
            ring_backend = self._process_backend(
                plan.ring, plan.ring_hoists.unique_hint
            )
            session = _EpochSession(
                plan,
                LocalCopyBackend(
                    plan.l2_plan.switcher._copies, plan.l2_plan.unique_hint
                ),
                ring_backend,
                f"process[{ring_backend.workers}]",
            )
        elif isinstance(plan, MergeShardPlan):
            session = _ProcessMergeSession(
                plan, self.workers, self.chunk_capacity
            )
        else:
            return SerialEngine().session(estimator, source)
        session.source_mode = source_mode_for(plan, source, parallel=True)
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
