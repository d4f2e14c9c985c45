"""Shard planning: how an estimator's work splits across copies and workers.

Sketch switching derives robustness from many independent copies of a
static sketch: every copy must see every update, but no copy's state
depends on any other's, and the publish-band decision reads only the
estimator's *probe set* — the active copy under
:class:`~repro.core.disciplines.ActiveCopyDiscipline`, every copy under
the DP :class:`~repro.core.disciplines.PrivateAggregateDiscipline`.
That holds for **every** band policy (multiplicative, additive, epoch)
and every discipline; they only change how the coordinator resolves a
boundary check, so the planner is band- and discipline-agnostic and
simply carries the estimator's :class:`~repro.core.bands.BandPolicy`
and :class:`~repro.core.disciplines.ProbeDiscipline` into the plan.  A
single mergeable sketch parallelises differently — *per partial*: the
stream is sliced, each worker folds its slice into a private partial,
and partials combine through :meth:`repro.sketches.base.Sketch.merge`.

:func:`plan_shards` inspects an estimator and picks the plan:

* :class:`SwitchingShardPlan` — a
  :class:`~repro.core.sketch_switching.SwitchingEstimator` (possibly
  wrapped by a robust wrapper exposing ``_switcher``): the coordinator
  keeps the protocol state and fans each chunk out to the copies on
  its own process (the engines never fork for it: all copies read the
  same chunk, and sharding them lost to the serial session).  This
  includes the additive/entropy band — its crossing-chunk bisection
  coalesces transient excursions at cell granularity rather than being
  per-item exact (see :mod:`repro.core.bands`), a coordinator concern
  the plan doesn't care about.
* :class:`EpochShardPlan` — the heavy-hitters construction (Theorem
  6.5): a switching plan for the inner robust L2 tracker plus a ring of
  point-query copies fed uniformly, with the epoch clock on the
  coordinator; the ring is what :class:`~repro.engine.ProcessEngine`
  shards across workers.
* :class:`MergeShardPlan` — a mergeable sketch: per-partial sharding.
* :class:`SerialPlan` — everything else: the deterministic fallback
  (plain ``update_batch`` on the calling process).  Wrapped estimators
  whose inner switcher is absent or malformed land here *explicitly*
  (with a reason) rather than being driven through active-copy
  assumptions that don't hold for them.

The switching plan also carries the *shared-work hoists* that make the
engine path cheaper than feeding each copy independently:

* chunk aggregation — dedupe/aggregate the chunk once instead of once
  per copy (valid when every inner sketch is ``aggregation_invariant``);
* first-occurrence filtering — drop items every live copy has already
  seen (valid when every inner sketch is ``duplicate_insensitive``: a
  re-occurring item provably cannot move any copy's state, hence cannot
  move any boundary band check).  The :class:`SeenFilter` tracking this
  must be reset whenever a switch replaces or burns a copy, because a
  restarted copy is born blank and re-occurrences are first occurrences
  *to it*; the protocol driver does exactly that.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass

import numpy as np

from repro.core.bands import BandPolicy
from repro.core.copies import CopyManager, universe_licensed
from repro.core.sketch_switching import SwitchingEstimator
from repro.sketches.base import Sketch

#: Above this universe size the seen-filter switches from a dense boolean
#: mask (O(1) lookups) to sorted-array membership (O(log) via searchsorted).
DENSE_SEEN_LIMIT = 1 << 26


class SeenFilter:
    """Tracks which items every live sketch copy has seen since its birth.

    ``fresh(unique_items)`` returns the subset not yet marked;
    ``mark(unique_items)`` records a successfully committed chunk;
    ``reset()`` forgets everything (called after any switch, because the
    youngest copy was born mid-stream and must re-see later occurrences).
    """

    def __init__(self, universe: int | None):
        self._dense = (
            np.zeros(universe, dtype=bool)
            if universe is not None and 0 < universe <= DENSE_SEEN_LIMIT
            else None
        )
        self._sorted = np.zeros(0, dtype=np.int64)

    def fresh(self, unique_items: np.ndarray) -> np.ndarray:
        if len(unique_items) == 0:
            return unique_items
        if self._dense is not None:
            if (
                int(unique_items[0]) < 0
                or int(unique_items[-1]) >= self._dense.shape[0]
            ):
                # Items outside the declared universe: treat all as fresh
                # (correct, merely less effective).
                return unique_items
            return unique_items[~self._dense[unique_items]]
        if len(self._sorted) == 0:
            return unique_items
        pos = np.searchsorted(self._sorted, unique_items)
        pos[pos >= len(self._sorted)] = len(self._sorted) - 1
        return unique_items[self._sorted[pos] != unique_items]

    def mark(self, unique_items: np.ndarray) -> None:
        if len(unique_items) == 0:
            return
        if self._dense is not None:
            if (
                int(unique_items[0]) >= 0
                and int(unique_items[-1]) < self._dense.shape[0]
            ):
                self._dense[unique_items] = True
            return
        self._sorted = np.union1d(self._sorted, unique_items)

    def reset(self) -> None:
        if self._dense is not None:
            self._dense[:] = False
        self._sorted = np.zeros(0, dtype=np.int64)


def partition_copies(count: int, workers: int) -> list[list[int]]:
    """Split copy indices 0..count-1 into at most ``workers`` balanced shards.

    Contiguous and deterministic so the copy→worker assignment is stable
    across a session (the coordinator routes active-copy commands by it).
    Empty shards are dropped: more workers than copies is just fewer
    workers.
    """
    if count < 1:
        raise ValueError(f"copy count must be >= 1, got {count}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    workers = min(workers, count)
    base, extra = divmod(count, workers)
    shards: list[list[int]] = []
    start = 0
    for w in range(workers):
        size = base + (1 if w < extra else 0)
        shards.append(list(range(start, start + size)))
        start += size
    return shards


def _accepts_assume_unique(cls: type) -> bool:
    """Does this sketch class's ``update_batch`` take the dedup hint?"""
    try:
        params = inspect.signature(cls.update_batch).parameters
        return "assume_unique" in params
    except (TypeError, ValueError):  # builtins / odd callables
        return False


@dataclass
class CopyHoists:
    """The shared-work hoists a set of uniform copies licenses."""

    #: Universe-size hint for the seen-filter (dense mask when small).
    universe: int | None = None
    #: All copies are duplicate-insensitive: first-occurrence filtering
    #: is exact.
    filter_duplicates: bool = False
    #: All copies are aggregation-invariant: the chunk can be aggregated
    #: once on the coordinator instead of once per copy.
    aggregate_once: bool = False
    #: ``update_batch`` accepts ``assume_unique=True`` (KMV): pre-deduped
    #: feeds skip the per-copy dedup entirely.
    unique_hint: bool = False

    @classmethod
    def licensed_by(cls, sketches, universe: int | None) -> "CopyHoists":
        return cls(
            universe=universe,
            filter_duplicates=all(s.duplicate_insensitive for s in sketches),
            aggregate_once=all(s.aggregation_invariant for s in sketches),
            unique_hint=all(
                _accepts_assume_unique(t) for t in {type(s) for s in sketches}
            ),
        )

    def make_seen_filter(self) -> SeenFilter | None:
        return SeenFilter(self.universe) if self.filter_duplicates else None


@dataclass
class SwitchingShardPlan:
    """Per-copy fan-out for a switching estimator (any band policy and
    any probe discipline)."""

    switcher: SwitchingEstimator
    hoists: CopyHoists

    @property
    def band(self) -> BandPolicy:
        return self.switcher.band

    @property
    def discipline(self):
        """The estimator's :class:`~repro.core.disciplines.ProbeDiscipline`."""
        return self.switcher.discipline

    @property
    def unique_hint(self) -> bool:
        return self.hoists.unique_hint

    @property
    def aggregate_once(self) -> bool:
        return self.hoists.aggregate_once

    @property
    def filter_duplicates(self) -> bool:
        return self.hoists.filter_duplicates

    @property
    def universe(self) -> int | None:
        return self.hoists.universe


@dataclass
class EpochShardPlan:
    """Theorem 6.5 fan-out: inner L2 switching plan + point-query ring.

    The wrapper (``RobustHeavyHitters``) keeps the epoch clock and the
    published snapshot on the coordinator; the ring copies are fed every
    chunk uniformly (no band probing) and one of them is fetched and
    frozen at each epoch boundary.  ``ring_hoists`` mirrors the
    switching hoists for the ring feeds (CountSketch is
    aggregation-invariant, so chunks aggregate once for the whole ring).
    """

    wrapper: Sketch
    l2_plan: SwitchingShardPlan
    ring: CopyManager
    ring_hoists: CopyHoists

    def ring_shards(self, workers: int) -> list[list[int]]:
        return partition_copies(self.ring.count, workers)


@dataclass
class MergeShardPlan:
    """Per-partial sharding for one mergeable sketch.

    Worker partials start from :meth:`Sketch.empty_like` — zero state
    sharing the sketch's randomness — so each partial is a pure delta of
    the updates its worker ingested and merging back into a sketch with
    *existing* state stays correct (nothing is double counted).
    """

    sketch: Sketch

    def make_partials(self, workers: int) -> list[Sketch]:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        return [self.sketch.empty_like() for _ in range(workers)]


@dataclass
class SerialPlan:
    """No parallel decomposition known: deterministic in-process feeding."""

    estimator: Sketch
    reason: str = "estimator is neither a switching estimator nor mergeable"


ShardPlan = SwitchingShardPlan | EpochShardPlan | MergeShardPlan | SerialPlan


def _switching_plan(switcher: SwitchingEstimator, universe) -> SwitchingShardPlan:
    return SwitchingShardPlan(
        switcher=switcher,
        hoists=CopyHoists.licensed_by(switcher._sketches, universe),
    )


def plan_shards(estimator: Sketch) -> ShardPlan:
    """Pick the sharding decomposition for ``estimator``.

    Robust wrappers built on sketch switching expose their inner
    :class:`SwitchingEstimator` as ``_switcher`` (and delegate their
    entire ingestion to it); the planner unwraps it so e.g.
    ``RobustDistinctElements`` and ``RobustEntropy`` fan out per copy.
    The heavy-hitters wrapper exposes an inner L2 tracker (``_l2``) and
    a point-query ring (``_ring``) and gets the epoch plan.  A wrapper
    whose inner switcher is absent or malformed — a disabled tracker, a
    duck-typed stand-in without the switching contract — falls back to
    an explicit :class:`SerialPlan` instead of being driven through
    active-copy assumptions that no longer hold.
    """
    universe = getattr(estimator, "n", None)
    # Epoch wrappers first: they contain an L2 switcher one level deeper,
    # and must not be mistaken for a plain switching delegator.
    ring = getattr(estimator, "_ring", None)
    if isinstance(ring, CopyManager):
        l2 = getattr(estimator, "_l2", None)
        inner = getattr(l2, "_switcher", None)
        if not isinstance(inner, SwitchingEstimator):
            return SerialPlan(
                estimator=estimator,
                reason="epoch wrapper without a switching L2 tracker",
            )
        return EpochShardPlan(
            wrapper=estimator,
            l2_plan=_switching_plan(inner, getattr(l2, "n", universe)),
            ring=ring,
            ring_hoists=CopyHoists.licensed_by(ring.sketches, universe),
        )
    switcher = estimator if isinstance(
        estimator, SwitchingEstimator
    ) else getattr(estimator, "_switcher", None)
    if isinstance(switcher, SwitchingEstimator):
        return _switching_plan(switcher, universe)
    if hasattr(estimator, "_switcher"):
        # The wrapper advertises a switching delegate but it isn't one
        # (absent, disabled, or a stand-in): explicit serial fallback.
        return SerialPlan(
            estimator=estimator,
            reason="wrapper's inner switcher is absent or not a "
                   "SwitchingEstimator",
        )
    if isinstance(estimator, Sketch) and estimator.mergeable:
        return MergeShardPlan(sketch=estimator)
    return SerialPlan(estimator=estimator)


def source_mode_for(plan: ShardPlan, source) -> str | None:
    """How a session consumes a chunk source (``IngestReport.source_mode``).

    * ``"universe"`` — a switching session whose copy set licenses the
      counts-based fast path prepares chunks from ``bincount`` over the
      source's promised universe;
    * ``"bytes: <reason>"`` — the ordinary staged-bytes path, with the
      reason the fast path did not apply (so the fallback is observable,
      not silent).  Every non-switching plan (epoch, merge, serial)
      takes this path.

    ``None`` when no source is involved.
    """
    if source is None:
        return None
    if not isinstance(plan, SwitchingShardPlan):
        return (
            f"bytes: {type(plan).__name__} sessions have no universe fast "
            "path; shipping bytes"
        )
    copies = plan.switcher._copies
    if universe_licensed(copies, source.universe, source.unit_deltas):
        return "universe"
    return (
        "bytes: universe fast path not licensed (needs a known item "
        "universe, unit deltas, and a stacked copy group); shipping bytes"
    )
