"""Sketch switching (Algorithm 1, Lemma 3.6) — one protocol, many bands.

Every switching construction in the paper is the same loop: feed every
copy of a static tracker, compare the published value against the active
copy's estimate, and on a crossing publish a rounded fresh estimate,
**burn** the active copy (its randomness is now correlated with the
adversary's view), and activate the next one.  Correctness: between
switches the adversary learns nothing about the active instance beyond
the already-published value, so each instance faces an (adaptively
chosen but) fixed stream, to which its static tracking guarantee
applies; the flip number bounds how many switches can ever happen.

This module implements that loop **once**, layered over three orthogonal
pieces:

* :mod:`repro.core.bands` — the :class:`~repro.core.bands.BandPolicy`
  deciding *when* to switch and *what* to publish: multiplicative
  ``(1 ± eps/2)`` with power-of-``(1+eps/2)`` rounding (F0/Fp/L2),
  additive ``± eps/2`` with step rounding (entropy), or the epoch band
  driving the heavy-hitters construction;
* :mod:`repro.core.copies` — the :class:`~repro.core.copies.CopyManager`
  owning the copy lifecycle: allocation, burn-and-advance, the
  Theorem 4.1 restart ring, retirement, and replacement-RNG derivation;
* :mod:`repro.core.disciplines` — the
  :class:`~repro.core.disciplines.ProbeDiscipline` deciding *which
  copies* a publish decision reads and what a publication does to them:
  Algorithm 1's active-copy probe-and-burn, the DP framework's private
  aggregate over all copies (Hassidim et al. 2020) with sparse-vector
  budget accounting, or the difference-estimator ladder (Attias et al.
  2022, :mod:`repro.core.ladder`) whose probe set walks heterogeneous
  copy *groups* — the current cheap tier between checkpoints, every
  group at a checkpoint.

:class:`SwitchingEstimator` composes ``band + copies + discipline`` into
the paper's estimator: ``band=MultiplicativeBand(eps)`` (the default)
for F0/Fp/L2, ``band=AdditiveBand(eps)`` for entropy.  A new robustness
scheme — DP aggregation over all copies, importance sampling — is one
new :class:`BandPolicy` and/or one new
:class:`~repro.core.disciplines.ProbeDiscipline`, not a fifth
hand-rolled loop (:mod:`repro.robust.dp` is the existence proof).

Two copy-budget modes:

* ``restart=False`` — verbatim Algorithm 1 with ``copies = lambda``;
* ``restart=True`` — the Theorem 4.1 optimization: a ring of
  ``O(eps^-1 log eps^-1)`` copies, each restarted after use.  A restarted
  copy only sees a suffix of the stream, but it is next activated after
  the tracked norm has grown by ``(1+eps/2)^copies``, at which point the
  missed prefix is an O(eps) fraction of the current mass.  Requires the
  tracked function to be a monotone norm-like quantity (true for the
  Fp/F0/L2 uses in the paper); do not combine with turnstile streams.

Batched ingestion (``update_chunk`` / ``update_batch``) drives the same
:class:`SwitchingProtocol` the execution engine uses, over an in-process
:class:`~repro.core.copies.LocalCopyBackend`: the discipline's *probe
set* is probed first (the active copy alone for Algorithm 1, every copy
for the DP aggregate), the publish band is checked once at the chunk
boundary, and the remaining copies receive one batch feed per clean
chunk.  A crossing chunk is rolled back and
resolved on the raw updates by snapshot bisection of the probed copies —
per-item exact for bisectable bands (multiplicative/epoch over monotone
quantities), cell-granularity coalescing for the additive band (see
:mod:`repro.core.bands`) — while the remaining copies are fed late: each
once, when it enters the probe set or at the end of the chunk, from the
offset where it still lacks updates.  A switch on a chunk's last update
sends the next chunk through the same exact search, since the per-item
protocol checks the fresh estimate on that chunk's first update.
Published outputs and switch counts are bit-for-bit identical
to the per-item protocol whenever the inner sketches' ``update_batch``
reproduces per-item state exactly (true for the exact-state sketches:
KMV, HLL, CountMin, F1, the exact baselines; float accumulators match up
to summation order).  For non-monotone trackers (entropy) a transient
band exit that fully reverts within one *clean* chunk is coalesced away
— the band is only consulted at the boundary — so the adversarial game
always runs per item (adaptivity needs round granularity) and batching
is reserved for oblivious replay.

The execution engine (:mod:`repro.engine`) runs the identical
:class:`SwitchingProtocol` with the shard plan's shared-work hoists
applied (on the calling process under every engine); because serial
chunked ingestion and the engine sessions share one drive loop, one switch-commit site (:meth:`SwitchingEstimator._commit_switch`,
also used by the per-item path), one band implementation, and one
replacement-RNG derivation (:meth:`CopyManager.replacement_rng`, always
called on the coordinator), their published outputs and switch counts
agree by construction.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.core.bands import BandPolicy, MultiplicativeBand
from repro.core.copies import (
    CopyManager,
    LocalCopyBackend,
    SketchExhaustedError,
)
from repro.core.disciplines import ActiveCopyDiscipline, ProbeDiscipline
from repro.obs import BandTestEvent, SwitchEvent
from repro.sketches.base import Sketch, SketchFactory, aggregate_batch, as_batch_arrays

__all__ = [
    "REPLAY_LEAF",
    "SketchExhaustedError",
    "SwitchingEstimator",
    "SwitchingProtocol",
    "restart_ring_size",
]


def _unpack_chunk(items, deltas):
    """Accept a StreamChunk-like object or aligned arrays."""
    if deltas is None and hasattr(items, "items") and hasattr(items, "deltas"):
        return items.items, items.deltas
    return items, deltas


#: Below this many updates a crossing run is scanned per item instead of
#: bisected further; keeps recursion depth and snapshot count small while
#: bounding the per-item work triggered by one switch.
REPLAY_LEAF = 64


def restart_ring_size(eps: float, constant: float = 2.0) -> int:
    """The Theorem 4.1 ring size Theta(eps^-1 log eps^-1).

    Sized so the norm grows by ``(1+eps/2)^size >= 100/eps`` between
    reuses of a slot, making the missed prefix an eps/100 fraction.
    """
    if not 0 < eps < 1:
        raise ValueError(f"eps must be in (0,1), got {eps}")
    size = math.ceil(constant * math.log(100.0 / eps) / math.log1p(eps / 2))
    return max(4, size)


class SwitchingEstimator(Sketch):
    """The generic switching estimator: ``band policy x copy manager``.

    Parameters
    ----------
    factory:
        Builds one independent static tracker per call (already sized for
        the target (eps0, delta0) of Lemma 3.6).  Ignored when ``copies``
        is a pre-built :class:`~repro.core.copies.CopyManager`.
    copies:
        Instance count (int) or a pre-built
        :class:`~repro.core.copies.CopyManager`.
    eps:
        Approximation parameter; only consulted when ``band`` is omitted
        (defaulting to the Algorithm 1 multiplicative band).
    rng:
        Seeds the copies (int form only).
    band:
        The :class:`~repro.core.bands.BandPolicy` deciding switches and
        publications.  Defaults to ``MultiplicativeBand(eps)``.
    discipline:
        The :class:`~repro.core.disciplines.ProbeDiscipline` deciding
        which copies a publish decision reads and what a publication
        does to them.  Defaults to the Algorithm 1
        :class:`~repro.core.disciplines.ActiveCopyDiscipline`.
    restart, on_exhausted:
        Copy-lifecycle knobs, forwarded to the
        :class:`~repro.core.copies.CopyManager` (int form only).
    stacked:
        Forwarded to the :class:`~repro.core.copies.CopyManager` (int
        form only): whether eligible homogeneous copy groups fuse into
        stacked arrays with a shared per-chunk hash pass.  ``False``
        forces the bit-for-bit-identical per-object path.
    """

    def __init__(
        self,
        factory: SketchFactory | None = None,
        copies: int | CopyManager = None,
        eps: float | None = None,
        rng: np.random.Generator | None = None,
        band: BandPolicy | None = None,
        discipline: ProbeDiscipline | None = None,
        restart: bool = False,
        on_exhausted: str = "raise",
        stacked: bool = True,
    ):
        if band is None:
            if eps is None:
                raise ValueError("provide a band policy or an eps")
            band = MultiplicativeBand(eps)
        self.band = band
        self.eps = getattr(band, "eps", eps)
        if isinstance(copies, CopyManager):
            self._copies = copies
        else:
            if factory is None or copies is None or rng is None:
                raise ValueError(
                    "provide factory/copies/rng, or a pre-built CopyManager"
                )
            self._copies = CopyManager(
                factory, copies, rng, restart=restart,
                on_exhausted=on_exhausted, stacked=stacked,
            )
        self.discipline = discipline if discipline is not None \
            else ActiveCopyDiscipline()
        self.discipline.bind(self._copies)
        self.supports_deletions = (
            all(s.supports_deletions for s in self._copies.sketches)
            and not self._copies.restart
        )
        self._published = 0.0
        self.switches = 0
        #: Did the last switch land on the last update seen?  Then the
        #: fresh decision estimate has not been checked against the new
        #: band on any update yet, and the next chunk must start with
        #: the exact search (whose first item is stepped per item)
        #: instead of a boundary probe that could coalesce an exit on
        #: its first item.  The per-item path sets it on every switch
        #: and never clears it; the chunk drive loop sets it exactly.
        self._edge_switch = False
        #: Any update ingested yet?  Guards set_discipline: a switch-free
        #: prefix still carries copy state (and observable publications)
        #: the new discipline's accounting would not cover.
        self._ingested = False

    def set_discipline(self, discipline: ProbeDiscipline) -> None:
        """Install a probe discipline (``api.ingest(discipline=...)``).

        Must happen before any updates: a mid-stream discipline change
        would mix two protocols' published-value semantics — and for the
        DP discipline, start the privacy-budget accounting over a
        history it never covered.
        """
        if self._ingested or self.switches or self._published:
            raise ValueError(
                "cannot change the probe discipline mid-stream; build the "
                "estimator with discipline=... instead"
            )
        discipline.bind(self._copies)
        self.discipline = discipline

    # -- compatibility / introspection surfaces --------------------------

    @property
    def copies(self) -> int:
        return self._copies.count

    @property
    def active_index(self) -> int:
        return self._copies.active_index

    @property
    def restart(self) -> bool:
        return self._copies.restart

    @property
    def on_exhausted(self) -> str:
        return self._copies.on_exhausted

    @property
    def _sketches(self) -> list[Sketch]:
        """The live copy list (tests and planners introspect it)."""
        return self._copies.sketches

    # -- the per-item protocol -------------------------------------------

    def update(self, item: int, delta: int = 1) -> None:
        self._ingested = True
        for s in self._copies.sketches:
            s.update(item, delta)
        d = self.discipline
        y = d.decide(self._copies.estimate_all(d.probe_indices(self._copies)))
        if not self.band.within(self._published, y):
            self._commit_switch(y)

    def _commit_switch(self, y: float, replace=None, position=None) -> None:
        """Publish the rounded decision estimate ``y`` and apply the
        discipline's copy-lifecycle consequence (burn-and-advance for the
        active-copy discipline, budget accounting for DP).

        The one switch site of both the per-item path and
        :class:`SwitchingProtocol`; called only on a crossing, so the
        in-band hot path pays nothing for it (telemetry included).
        ``replace`` installs rebuilt copies wherever the backend keeps
        them; ``position`` is the crossing's offset within the chunk.
        """
        d = self.discipline
        self._published = d.publish(self.band, y)
        self.switches += 1
        self._edge_switch = True
        d.on_publish(self._copies, self.switches, replace=replace)
        tele = self._copies.telemetry
        if tele.enabled:
            tele.emit(SwitchEvent(
                published=self._published, estimate=y,
                switches=self.switches, discipline=d.name,
                band=self.band.name, position=position,
            ))
            tele.metrics.counter(
                "protocol_switches_total", "publications (copy switches)"
            ).inc()

    # -- chunked ingestion (the shared protocol, in-process) -------------

    def update_chunk(self, items, deltas=None) -> None:
        """Batched ingestion of one chunk (see the module docstring).

        Drives the same :class:`SwitchingProtocol` the execution engine
        uses, over an in-process backend and with no cross-chunk hoists:
        the active copy is probed, the band is checked at the boundary,
        and a crossing chunk is resolved exactly on the raw updates
        (including ring restarts and their RNG draws).
        """
        items, deltas = _unpack_chunk(items, deltas)
        backend = LocalCopyBackend(self._copies)
        try:
            SwitchingProtocol(self, backend).feed(items, deltas)
        finally:
            backend.close()

    def update_batch(self, items, deltas=None) -> None:
        """Sketch-contract alias for :meth:`update_chunk`."""
        self.update_chunk(items, deltas)

    def query(self) -> float:
        return self._published

    def space_bits(self) -> int:
        return sum(s.space_bits() for s in self._copies.sketches) + 128


# ----------------------------------------------------------------------
# The switching protocol driver (shared by serial chunking and engines)
# ----------------------------------------------------------------------


class SwitchingProtocol:
    """The chunk discipline of Algorithm 1 over a copy backend.

    Owns the protocol state transitions (published value, switch count,
    copy lifecycle consequences) on the coordinator; the backend owns
    the copies — :class:`~repro.core.copies.LocalCopyBackend` (used by
    ``update_chunk`` and the engine sessions) or the universe fast
    path's :class:`~repro.core.copies.UniverseLocalBackend`.  The estimator's
    :class:`~repro.core.disciplines.ProbeDiscipline` names the copies a
    band decision reads — the active copy alone for Algorithm 1, every
    copy for the DP private aggregate — so the driver probes *those*
    first and touches the remaining copies exactly once per clean chunk.
    On a crossing chunk a copy outside the probe set is fed once per
    life in the chunk — when it enters the probe set, or at the end —
    with copies sharing an offset fed together (:meth:`_drive_raw`).

    The optional *hoists* — pre-aggregating each chunk once instead of
    once per copy, and dropping items every live copy has already seen —
    are supplied by the engine's shard planner, which verifies the inner
    sketches license them (``aggregation_invariant`` /
    ``duplicate_insensitive``); the serial ``update_chunk`` path runs
    with hoists off.
    """

    def __init__(
        self,
        estimator: SwitchingEstimator,
        backend,
        seen_filter=None,
        aggregate_once: bool = False,
        unique_hint: bool = False,
    ):
        self._sw = estimator
        self._band = estimator.band
        self._disc = estimator.discipline
        self._copies = estimator._copies
        self._backend = backend
        self._seen = seen_filter
        self._aggregate_once = aggregate_once
        self._unique_hint = unique_hint
        self._tele = estimator._copies.telemetry
        #: Cumulative per-phase wall seconds, measured once per chunk (and
        #: once per switch segment on crossing chunks): probing the
        #: discipline's read set, the boundary band test, the non-probed
        #: fan-out feed, and copy replacement/publication bookkeeping.
        #: Surfaced through the engine sessions into ``IngestReport``.
        self.timings: dict[str, float] = {
            "probe": 0.0, "band_test": 0.0, "feed": 0.0, "replace": 0.0,
        }

    def _probes(self) -> tuple[int, ...]:
        return self._disc.probe_indices(self._copies)

    # -- feeding --------------------------------------------------------

    def feed(self, items, deltas=None, aggregated=None) -> None:
        """Ingest one chunk.

        ``aggregated`` optionally passes a precomputed
        ``aggregate_batch(items, deltas)`` result so a caller feeding the
        same chunk to several protocol instances (the epoch session) pays
        the aggregation once; it is only consulted on the aggregate-once
        probe path and ignored when the chunk must be split.
        """
        items, deltas = _unpack_chunk(items, deltas)
        items, deltas = as_batch_arrays(items, deltas)
        cap = self._backend.capacity
        if len(items) > cap:
            aggregated = None  # splits invalidate the precomputed aggregate
        for lo in range(0, len(items), cap):
            self._feed_one(items[lo:lo + cap], deltas[lo:lo + cap],
                           aggregated)

    def _feed_one(
        self, items: np.ndarray, deltas: np.ndarray, aggregated=None
    ) -> None:
        count = len(items)
        if count == 0:
            return
        sw = self._sw
        sw._ingested = True
        self._backend.stage(items, deltas)
        if count <= REPLAY_LEAF or sw._edge_switch:
            # Tiny chunks replay per item with the band checked every
            # update (no chunk-level coalescing), like the per-item path;
            # so does the chunk after a switch on the previous chunk's
            # last update, whose first item may already cross the new
            # band (the per-item path switches there, a boundary probe
            # would not).
            self._drive_raw(count)
            return
        timings = self.timings
        probes = self._probes()
        uniq = None
        probed_sub = True
        tick = time.perf_counter()
        if self._seen is not None and int(deltas.min()) > 0:
            uniq = np.unique(items)
            fresh = self._seen.fresh(uniq)
            if len(fresh) == 0:
                # Every live copy has seen every item here: no copy's
                # state — hence no band check — can change.
                timings["probe"] += time.perf_counter() - tick
                return
            ys = self._backend.probe_sub(fresh, None, True, probes)
        elif self._aggregate_once:
            agg_items, agg_deltas = (
                aggregated if aggregated is not None
                else aggregate_batch(items, deltas)
            )
            ys = self._backend.probe_sub(
                agg_items, agg_deltas, self._unique_hint, probes
            )
        else:
            probed_sub = False
            ys = self._backend.probe_raw(probes)
        tock = time.perf_counter()
        timings["probe"] += tock - tick
        y = self._disc.decide(ys)
        clean = self._band.within(sw._published, y)
        tick = time.perf_counter()
        timings["band_test"] += tick - tock
        tele = self._tele
        if tele.enabled:
            # One event per chunk boundary, never per item.
            tele.emit(BandTestEvent(
                clean=clean, published=sw._published, estimate=y,
            ))
            tele.metrics.counter(
                "protocol_band_tests_total", "chunk-boundary band tests"
            ).inc()
            if not clean:
                tele.metrics.counter(
                    "protocol_crossing_chunks_total",
                    "chunks resolved by exact replay",
                ).inc()
        if clean:
            # Clean chunk (the common case): the probed copies already
            # have it; give the others the same pre-processed feed.  An
            # all-copy probe (the DP discipline) leaves no others — skip
            # the guaranteed no-op.
            self._backend.keep_probed(probes)
            if len(probes) < self._copies.count:
                others = tuple(
                    i for i in range(self._copies.count) if i not in probes
                )
                if probed_sub:
                    self._backend.feed_sub(others)
                else:
                    self._backend.feed_range(0, count, others)
            if uniq is not None:
                self._seen.mark(uniq)
            timings["feed"] += time.perf_counter() - tick
            return
        # Crossed somewhere inside: rewind the probed copies and resolve
        # the switch positions exactly on the raw updates.
        self._backend.roll_probed(probes)
        self._drive_raw(count, probed_sub)

    def _drive_raw(self, count: int, probed_sub: bool = False) -> None:
        """Resolve the staged chunk exactly: locate each switch via the
        probed copies, and feed every other copy once, late.

        On entry no copy has seen the chunk.  The probed copies advance
        through :meth:`_search`; every other copy is *deferred*: a
        publish decision reads only the discipline's probe set (and
        ``on_publish`` only its own stash), so a copy needs the chunk
        only once it is read.  ``start[i]`` is the offset from which
        copy ``i`` still lacks updates.  A copy entering the probe set
        is fed from its offset up to the search position; a copy that
        ``replace`` rebuilds at a switch is born at the next offset and
        drops what it lacked; at the end of the chunk every copy is fed
        from its offset, one stacked feed per distinct offset.  Copies
        that lack the whole chunk take the boundary probe's
        pre-processed feed when it made one (``probed_sub``: the seen
        filter or the aggregate-once hoist) — the feed a clean chunk
        gives them — so only the planes fed raw updates are hashed for
        the raw chunk.
        """
        sw = self._sw
        timings = self.timings
        backend = self._backend
        switches_before = sw.switches
        start = [0] * self._copies.count
        born = 0

        def replace(idx: int, rng) -> None:
            backend.replace(idx, rng)
            start[idx] = born

        pos = 0
        last = -1
        while pos < count:
            probes = self._probes()
            tick = time.perf_counter()
            lagging = [i for i in probes if start[i] < pos]
            if lagging:
                self._feed_from(start, lagging, pos)
                tock = time.perf_counter()
                timings["feed"] += tock - tick
                tick = tock
            crossing = self._search(pos, count, probes)
            tock = time.perf_counter()
            timings["probe"] += tock - tick
            if crossing is None:
                for i in probes:
                    start[i] = count
                break
            last, y = crossing
            born = pos = last + 1
            for i in probes:
                start[i] = pos
            sw._commit_switch(y, replace=replace, position=last)
            timings["replace"] += time.perf_counter() - tock
        tick = time.perf_counter()
        if probed_sub:
            whole = [i for i, off in enumerate(start) if off == 0]
            if whole:
                backend.feed_sub(tuple(whole))
                for i in whole:
                    start[i] = count
        self._feed_from(start, range(len(start)), count)
        timings["feed"] += time.perf_counter() - tick
        sw._edge_switch = last == count - 1
        if self._seen is not None and sw.switches != switches_before:
            # A switch invalidates the filter: a replacement (or newly
            # active) copy was born mid-chunk and must re-see later
            # occurrences of items the older copies already absorbed.
            self._seen.reset()

    def _feed_from(self, start: list[int], indices, hi: int) -> None:
        """Feed each copy in ``indices`` from ``start[i]`` up to ``hi``:
        one backend feed per distinct offset."""
        groups: dict[int, list[int]] = {}
        for i in indices:
            if start[i] < hi:
                groups.setdefault(start[i], []).append(i)
        for lo, group in sorted(groups.items()):
            self._backend.feed_range(lo, hi, tuple(group))

    def _search(
        self, lo: int, hi: int, probes: tuple[int, ...]
    ) -> tuple[int, float] | None:
        """First band crossing in [lo, hi), reading only the probe set.

        The first item is stepped **per item**, exactly as the protocol
        would: right after a switch the new decision estimate can sit
        outside the just-published band (independent copies disagree;
        fresh SVT noise shifts the aggregate), and the per-item protocol
        switches again immediately — an exit a batch probe would
        coalesce once the estimate moves back into the band.  The rest
        of the range goes through snapshot bisection of the probed
        copies, treating an in-band cell boundary as a clean prefix.
        For a *bisectable* band (multiplicative or epoch over a monotone
        tracked quantity) that treatment is exact: after one in-band
        check every later crossing is one-sided and unique, so bisection
        pins the per-item switch position — and it stays exact under the
        private-aggregate discipline, whose within-epoch decision
        estimate (a fixed-noise scaling of the median of monotone copy
        estimates) is itself monotone.  For a non-bisectable band
        (additive/entropy — H oscillates) it is the documented
        coalescing rule applied at bisect-cell granularity: a transient
        excursion that enters and fully exits the band inside a cell
        whose boundary lands in band is coalesced, just as at chunk
        boundaries; for trajectories monotone across each cell the
        result is still per-item exact (the band is an interval).
        Crossing chunks are rare, and only the probed copies pay the
        search.

        Returns ``(position, estimate)`` with the probed copies fed
        through ``position`` (or through ``hi - 1`` if no crossing).
        """
        sw = self._sw
        y = self._disc.decide(self._backend.step_probed(lo, probes))
        if self._band.crossed(sw._published, y):
            return lo, y
        if lo + 1 >= hi:
            return None
        return self._bisect(lo + 1, hi, probes)

    def _bisect(
        self, lo: int, hi: int, probes: tuple[int, ...]
    ) -> tuple[int, float] | None:
        """Bisect for the unique one-sided crossing; leaves scan per item."""
        sw = self._sw
        if hi - lo <= REPLAY_LEAF:
            return self._scan(lo, hi, probes)
        mid = (lo + hi) // 2
        self._backend.snap_probed(probes)
        y = self._disc.decide(self._backend.feed_probed(lo, mid, probes))
        if self._band.within(sw._published, y):
            self._backend.keep_probed(probes)
            return self._bisect(mid, hi, probes)
        self._backend.roll_probed(probes)
        return self._bisect(lo, mid, probes)

    def _scan(
        self, lo: int, hi: int, probes: tuple[int, ...]
    ) -> tuple[int, float] | None:
        """Resolve a bisection leaf exactly.

        A backend that can derive the probed copies' estimates after
        every prefix of the leaf without feeding it (either local backend,
        for probes in column-wise stacks) answers in one pass:
        :meth:`ProbeDiscipline.decide_many`
        turns them into decision estimates, the first one outside the
        band is the crossing, and one ``feed_probed`` brings the probed
        copies up to it.  Otherwise identity-decide disciplines with a
        single probed copy resolve the scan in the backend's one tight
        per-item loop (``scan_probed``: no probe array or ``decide``
        call per item), and aggregating disciplines step the probe set
        per item and decide here — leaves are at most ``REPLAY_LEAF``
        updates and crossing chunks are rare, so the per-item steps are
        bounded.
        """
        sw = self._sw
        backend = self._backend
        prefixes = backend.prefix_probed(lo, hi, probes)
        if prefixes is not None:
            ys = self._disc.decide_many(prefixes)
            for off, y in enumerate(ys.tolist()):
                if self._band.crossed(sw._published, y):
                    pos = lo + off
                    # Decide again on the fed copies: stateful
                    # disciplines stash this read for on_publish, and a
                    # prefix pass that was not exact fails loudly here
                    # instead of moving the switch.
                    fed = self._disc.decide(
                        backend.feed_probed(lo, pos + 1, probes)
                    )
                    if fed != y:
                        raise RuntimeError(
                            f"leaf prefix pass decided {y!r} at position "
                            f"{pos}, the fed copies {fed!r}"
                        )
                    return pos, fed
            backend.feed_probed(lo, hi, probes)
            return None
        if len(probes) == 1 and self._disc.identity_decide:
            return backend.scan_probed(
                lo, hi, probes[0], sw._published, self._band
            )
        for pos in range(lo, hi):
            y = self._disc.decide(backend.step_probed(pos, probes))
            if self._band.crossed(sw._published, y):
                return pos, y
        return None
