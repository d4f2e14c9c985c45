"""Common sketch interfaces.

Every estimator in the repository — static sketch, deterministic baseline,
or robust wrapper — satisfies the same small contract so the adversarial
game, the tracking wrappers, and the benchmark harness can treat them
uniformly:

* ``update(item, delta)`` — process one stream update;
* ``update_batch(items, deltas)`` — process a whole chunk of updates at
  once.  The base-class implementation is a per-item loop, so every sketch
  supports it; the hot sketches (CountMin, CountSketch, AMS, Misra–Gries,
  KMV, HLL, F1, the exact baselines) override it with NumPy-vectorized
  implementations that hash whole arrays through the k-wise families.
  For *linear and order-insensitive* sketches the batched state is
  identical to the per-item state; order-sensitive summaries (Misra–Gries)
  document their aggregation semantics in place.  The batched path is the
  ingestion surface for **oblivious** stream replay; the adversarial game
  stays per-item because adaptivity requires round granularity (the
  adversary observes the published output after every update);
* ``merge(other)`` — fold another instance's state into this one, for
  sketches whose state forms a commutative monoid (linear sketches add
  their tables; KMV/HLL take unions/maxima of their summaries).  The
  parallel execution engine (:mod:`repro.engine`) shards a stream across
  worker processes as per-worker *partials* and merges them back; the
  merged state equals the serial state exactly for integer/union state
  and up to float summation order for float accumulators.  Sketches that
  cannot merge (order-sensitive summaries such as Misra–Gries) simply
  don't override it; :attr:`Sketch.mergeable` reports the capability;
* ``query()`` — current response to the fixed query Q (tracking semantics:
  callable after every update);
* ``space_bits()`` — explicit accounting of the bits a C implementation of
  the same state would store;
* ``process_update(item, delta)`` — convenience combining the two, matching
  the round structure of the adversarial game (the algorithm outputs its
  response R_t after every update).

Factories: the robustification wrappers of Section 3 need many independent
copies of a static sketch.  A ``SketchFactory`` is any callable taking a
``numpy.random.Generator`` and returning a fresh sketch; helper
:func:`spawn_rngs` derives independent child generators.
"""

from __future__ import annotations

import abc
import copy
from collections.abc import Callable

import numpy as np

#: A callable producing a fresh, independently seeded sketch.
SketchFactory = Callable[[np.random.Generator], "Sketch"]


def as_batch_arrays(items, deltas=None) -> tuple[np.ndarray, np.ndarray]:
    """Normalise batch inputs to aligned ``int64`` arrays.

    ``deltas=None`` means unit insertions (the "simplified definition" of
    the insertion-only model).
    """
    items = np.ascontiguousarray(items, dtype=np.int64)
    if deltas is None:
        deltas = np.ones(items.shape, dtype=np.int64)
    else:
        deltas = np.ascontiguousarray(deltas, dtype=np.int64)
        if deltas.shape != items.shape:
            raise ValueError(
                f"items/deltas shape mismatch: {items.shape} vs {deltas.shape}"
            )
    return items, deltas


def aggregate_batch(
    items: np.ndarray, deltas: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Collapse a batch to (unique items, summed deltas).

    Linear sketches and frequency vectors are insensitive to this
    aggregation; it turns per-update work into per-distinct-item work,
    which is the main structural win of batched ingestion on skewed
    streams.
    """
    unique, inverse = np.unique(items, return_inverse=True)
    summed = np.bincount(inverse, weights=deltas, minlength=len(unique))
    return unique, summed.astype(np.int64)


def row_median(values):
    """``np.median(values, axis=-1)`` bit for bit, for short float rows.

    Sorts and indexes instead of partitioning: on the rows the switching
    layer reduces (a CountSketch's rows, a probe set of a few dozen
    copies) that is several times cheaper than ``np.median``'s call
    chain.  An odd row takes its middle element; an even row the sum of
    its middle pair halved, which is ``np.mean`` of those two.  A row
    holding a NaN sorts it last; such rows take ``np.median``'s own
    answer, since the sort may not keep a NaN's payload.  Rows must be
    non-empty.
    """
    ordered = np.sort(values, axis=-1)
    half, odd = divmod(ordered.shape[-1], 2)
    if ordered.ndim == 1:
        last = ordered[-1]
        if last != last:
            return np.median(values)
        if odd:
            return ordered[half]
        return (ordered[half - 1] + ordered[half]) / 2.0
    if odd:
        out = ordered[..., half]
    else:
        out = (ordered[..., half - 1] + ordered[..., half]) / 2.0
    nan = np.isnan(ordered[..., -1])
    if nan.any():
        out = np.where(nan, np.median(values, axis=-1), out)
    return out


class Sketch(abc.ABC):
    """Abstract streaming estimator with tracking semantics."""

    #: Whether the sketch tolerates negative deltas (turnstile updates).
    supports_deletions: bool = False

    #: Whether the state depends only on the *set* of items ever inserted
    #: (with positive delta) — true for KMV and HLL, whose docstrings prove
    #: it.  The execution engine exploits this to drop re-occurring items
    #: from a chunk before fanning it out to many copies.
    duplicate_insensitive: bool = False

    #: Whether ``update_batch(aggregate_batch(chunk))`` lands in the same
    #: state as ``update_batch(chunk)`` — true for linear sketches (which
    #: aggregate internally anyway) and for duplicate-insensitive ones,
    #: false for order-sensitive summaries (Misra–Gries).  Lets the engine
    #: aggregate a chunk once instead of once per fanned-out copy.
    aggregation_invariant: bool = False

    #: Whether homogeneous copy groups of this sketch can fuse their array
    #: state into a :class:`repro.sketches.stacking.SketchStack` — one
    #: stacked array and one shared per-chunk hash pass for all k copies.
    #: Requires fixed-shape array state mutated strictly in place, equal
    #: hash degrees across copies, and aggregation-invariant batches
    #: (KMV qualifies through its sentinel-padded sorted bottom-k array);
    #: sketches with map-shaped state (Misra–Gries) stay on the
    #: per-object path.  Opting in means also overriding :meth:`make_stack`.
    stackable: bool = False

    @classmethod
    def make_stack(cls, sketches):
        """Build a :class:`~repro.sketches.stacking.SketchStack` over copies.

        Returns ``None`` when the group cannot be stacked (the default for
        every sketch that does not opt in via :attr:`stackable`).
        """
        return None

    @abc.abstractmethod
    def update(self, item: int, delta: int = 1) -> None:
        """Process one stream update."""

    def update_batch(self, items, deltas=None) -> None:
        """Process a chunk of updates.

        Fallback implementation: a per-item loop, semantically identical
        to calling :meth:`update` on each pair in order.  Subclasses
        override this with vectorized kernels.
        """
        items, deltas = as_batch_arrays(items, deltas)
        for item, delta in zip(items.tolist(), deltas.tolist()):
            self.update(item, delta)

    def snapshot(self) -> "Sketch":
        """An independent copy of the current state.

        The chunked sketch-switching path snapshots every copy before a
        batch feed so a chunk that crosses the publish band can be rolled
        back and replayed exactly.  The default is a generic deepcopy;
        hot sketches override it to share immutable members (hash
        functions, projection matrices, deterministic memo caches) and
        copy only the mutable counters, which makes snapshots O(state)
        array copies instead of a Python object walk.
        """
        return copy.deepcopy(self)

    def merge(self, other: "Sketch") -> None:
        """Fold ``other``'s state into this sketch (commutative, associative).

        Both operands must be *partials of the same sketch*: built from the
        same randomness (hash functions, sign matrices), each having
        ingested a disjoint part of the stream.  Mergeable sketches
        override this; the default declares the capability absent.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support merging"
        )

    def empty_like(self) -> "Sketch":
        """A zero-state partial sharing this sketch's randomness.

        The engine's per-partial sharding starts every worker from
        ``empty_like()``, so each partial is a pure delta and merging
        back into a sketch with *existing* state stays correct (nothing
        is double counted).  Mergeable sketches implement this alongside
        :meth:`merge`.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support empty partials"
        )

    @property
    def mergeable(self) -> bool:
        """Whether this sketch overrides :meth:`merge` and :meth:`empty_like`."""
        return (
            type(self).merge is not Sketch.merge
            and type(self).empty_like is not Sketch.empty_like
        )

    @abc.abstractmethod
    def query(self) -> float:
        """Current response to the query (may be called after every update)."""

    @abc.abstractmethod
    def space_bits(self) -> int:
        """Bits of state a native implementation of this sketch would store."""

    def process_update(self, item: int, delta: int = 1) -> float:
        """One adversarial-game round: ingest the update, publish R_t."""
        if delta < 0 and not self.supports_deletions:
            raise ValueError(
                f"{type(self).__name__} is insertion-only but got delta={delta}"
            )
        self.update(item, delta)
        return self.query()


class PointQuerySketch(Sketch):
    """Sketches that additionally answer per-coordinate frequency queries."""

    @abc.abstractmethod
    def point_query(self, item: int) -> float:
        """Estimate of ``f_item``."""

    def point_query_batch(self, items) -> np.ndarray:
        """Vectorized point queries; fallback loops over :meth:`point_query`."""
        items = np.ascontiguousarray(items, dtype=np.int64)
        return np.array(
            [self.point_query(i) for i in items.tolist()], dtype=np.float64
        )

    def estimate_vector(self, items) -> dict[int, float]:
        """Point-query a batch of items (vectorized where available)."""
        items = np.ascontiguousarray(list(items), dtype=np.int64)
        estimates = self.point_query_batch(items)
        return dict(zip(items.tolist(), estimates.tolist()))


def spawn_rngs(rng: np.random.Generator, count: int) -> list[np.random.Generator]:
    """Derive ``count`` statistically independent child generators.

    Uses ``SeedSequence.spawn`` so copies made by the robust wrappers share
    no randomness — the independence assumption of Lemmas 3.6 and 3.8.
    """
    seed_seq = rng.bit_generator.seed_seq
    if seed_seq is None:  # generator built without a SeedSequence
        seeds = rng.integers(0, 2**63, size=count)
        return [np.random.default_rng(int(s)) for s in seeds]
    return [np.random.default_rng(child) for child in seed_seq.spawn(count)]
