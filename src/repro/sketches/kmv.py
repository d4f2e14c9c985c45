"""KMV (k minimum values / bottom-k) distinct elements sketch.

The static F0 estimator the robust wrappers build on.  We use KMV rather
than reimplementing Blasiok's constant-optimal tracker [6] because KMV
provides the same *interface* — a (1 ± eps) F0 estimate at every step with
failure probability controlled by k — and, crucially for Theorem 10.1, the
same structural property the paper's cryptographic transformation needs:

    "when given an element that appeared before, [the algorithm] does not
     change its state at all (with probability 1)."

A KMV state is the set of k smallest hash values seen; re-inserting any
previously seen item never changes it.  :meth:`state_fingerprint` exposes
the state so tests can verify this property directly.

The state is stored as a fixed-shape sorted ``(k,)`` uint64 array.  Hash
values are 61-bit, so unfilled slots hold the sentinel ``2**64 - 1``,
which sorts after every hash: the last slot is the k-th minimum once the
sketch is saturated and the sentinel before, so "is this hash below the
k-th minimum?" is one comparison in both regimes.  Updates merge new
hashes into the sorted array in place (a ``searchsorted`` scatter, never
a re-sort), which is what lets a homogeneous group of copies share
one ``(copies, k)`` block — :class:`KMVStack` — with one stacked hash
pass per chunk.

The estimator: with v_k the k-th smallest normalised hash in [0,1),
``F0_hat = (k - 1) / v_k``; below k distinct hashes the count is exact.
Hashing uses a high-independence polynomial family (k-wise, default 8) so
no random-oracle assumption is needed for the static guarantee.
"""

from __future__ import annotations

import copy
import math
from bisect import bisect_left

import numpy as np

from repro.hashing.kwise import KWiseHash, hash_many_stacked
from repro.sketches.base import Sketch, as_batch_arrays
from repro.sketches.stacking import SketchStack, stack_rows

_HASH_RANGE = float(1 << 61)

#: Fill value of unused slots: above every 61-bit hash, so it sorts last.
_EMPTY_INT = (1 << 64) - 1
_EMPTY = np.uint64(_EMPTY_INT)
#: Read-only zero-stride sentinel row, longer than any k: a fresh state is
#: a slice of it, so building many copies writes no memory until their
#: first insertion (or their stack) copies the row out.
_EMPTY_ROW = np.broadcast_to(_EMPTY, (1 << 40,))


def _merge_bottom_k(row: np.ndarray, hashes: np.ndarray) -> None:
    """Merge candidate hashes into one sorted bottom-k row, in place.

    Only candidates below the row's k-th minimum (the sentinel while the
    row is unfilled) can enter; they are sorted, values already in the
    row and repeats among the candidates (distinct items may collide) are
    dropped, and the survivors are scattered to their ``searchsorted``
    positions with the row's values filling the gaps.  The result is the
    k smallest distinct values of the union — exactly what re-sorting the
    union would give.
    """
    hashes = np.sort(hashes[hashes < row[-1]])
    if len(hashes) == 0:
        return
    pos = row.searchsorted(hashes)
    keep = row[pos] != hashes
    keep[1:] &= hashes[1:] != hashes[:-1]
    if not keep.all():
        hashes, pos = hashes[keep], pos[keep]
        if len(hashes) == 0:
            return
    k, n = len(row), len(hashes)
    dest = pos + np.arange(n)  # each survivor's slot in the merged order
    merged = np.empty(k + n, dtype=np.uint64)
    old = np.ones(k + n, dtype=bool)
    old[dest] = False
    merged[dest] = hashes
    merged[old] = row
    row[:] = merged[:k]


def _positive_distinct(items, deltas, assume_unique=False):
    """Validate a chunk; its distinct items with positive delta, or None.

    Only distinct items can move a bottom-k state (duplicate
    insensitivity), so dedupe before paying for the hash evaluations —
    unless the caller guarantees the items are already distinct.
    """
    items, deltas = as_batch_arrays(items, deltas)
    if len(items) == 0:
        return None
    if np.any(deltas < 0):
        raise ValueError("KMV requires non-negative updates")
    items = items[deltas > 0]
    if len(items) == 0:
        return None
    return items if assume_unique else np.unique(items)


class KMVSketch(Sketch):
    """Bottom-k distinct elements estimator."""

    supports_deletions = False
    duplicate_insensitive = True
    aggregation_invariant = True
    stackable = True

    @classmethod
    def make_stack(cls, sketches):
        return KMVStack(sketches)

    def __init__(self, k: int, rng: np.random.Generator, independence: int = 8):
        if k < 2:
            raise ValueError(f"k must be >= 2, got {k}")
        self.k = k
        self._hash = KWiseHash(independence, rng, out_bits=61)
        # Sorted k smallest distinct hash values, sentinel-padded.
        self._mins = _EMPTY_ROW[:k]

    @classmethod
    def for_accuracy(
        cls, eps: float, delta: float, rng: np.random.Generator,
        constant: float = 4.0,
    ) -> "KMVSketch":
        """k = constant / eps^2 * ln(1/delta) for a (1 ± eps) estimate.

        KMV's relative error is ~ 1/sqrt(k) per the standard analysis; the
        ln(1/delta) factor buys the tail (in place of median amplification,
        which would break the duplicate-insensitivity property).
        """
        if not 0 < eps < 1:
            raise ValueError(f"eps must be in (0,1), got {eps}")
        k = max(2, math.ceil(constant / eps**2 * max(1.0, math.log(1.0 / delta))))
        return cls(k, rng)

    def update(self, item: int, delta: int = 1) -> None:
        if delta < 0:
            raise ValueError("KMV requires non-negative updates")
        if delta == 0:
            return
        h = self._hash(item)
        if h >= self._mins.item(-1):
            return  # not among the k smallest: state unchanged
        # Bisect the row's buffer as exact Python ints (``searchsorted``
        # with a bare int would compare in float64) and shift in place.
        row = memoryview(self._writable_mins())
        pos = bisect_left(row, h)
        if row[pos] == h:
            return  # duplicate item (or hash collision): state unchanged
        row[pos + 1:] = row[pos:-1]
        row[pos] = h

    def update_batch(self, items, deltas=None, *, assume_unique: bool = False) -> None:
        """Vectorized ingestion: hash the chunk, merge the k smallest.

        The KMV state is *exactly* the set of the k smallest distinct hash
        values seen, which is order-insensitive — the merged state is
        bit-for-bit identical to the per-item loop.  ``assume_unique``
        skips the internal dedup when the caller guarantees the items are
        already distinct (the execution engine dedups a chunk once before
        fanning it out to many copies).
        """
        items = _positive_distinct(items, deltas, assume_unique)
        if items is not None:
            _merge_bottom_k(self._writable_mins(), self._hash.hash_many(items))

    def snapshot(self) -> "KMVSketch":
        """Cheap snapshot: share the immutable hash, copy the min array."""
        clone = copy.copy(self)
        clone._mins = self._mins.copy()
        return clone

    def merge(self, other: "KMVSketch") -> None:
        """Union the bottom-k sets and keep the k smallest (idempotent).

        The state is the set of the k smallest distinct hash values seen,
        so the merged state equals the serial state bit for bit (partials
        must share the same hash function).
        """
        if not isinstance(other, KMVSketch) or other.k != self.k:
            raise ValueError("can only merge KMV partials with the same k")
        _merge_bottom_k(self._writable_mins(), other._mins)

    def empty_like(self) -> "KMVSketch":
        """Empty bottom-k set, same hash function."""
        clone = copy.copy(self)
        clone._mins = _EMPTY_ROW[: self.k]
        return clone

    def _writable_mins(self) -> np.ndarray:
        """The min array, copied out of the shared empty row on first write."""
        if not self._mins.flags.writeable:
            self._mins = self._mins.copy()
        return self._mins

    def _filled(self) -> int:
        return int(self._mins.searchsorted(_EMPTY))

    def query(self) -> float:
        kth = self._mins.item(-1)
        if kth == _EMPTY_INT:
            return float(self._filled())  # exact in the small regime
        v_k = kth / _HASH_RANGE
        if v_k <= 0.0:
            return float(self.k)
        return (self.k - 1) / v_k

    def state_fingerprint(self) -> tuple[int, ...]:
        """The full state, for duplicate-insensitivity tests (Thm 10.1)."""
        return tuple(self._mins[: self._filled()].tolist())

    def space_bits(self) -> int:
        return self.k * 64 + self._hash.space_bits()


class _KMVPrep:
    """A chunk deduped once and hashed for every plane.

    ``ready`` is ``None`` when every plane's hash column holds; otherwise
    it masks the planes whose columns are current, and a feed hashes the
    missing planes it selects first (deferred preps, refreshed planes).
    ``inverse`` maps each position of the staged chunk to its column
    (``-1`` for non-positive deltas); built on the first positional
    subrange.
    """

    __slots__ = ("unique", "hashes", "ready", "inverse", "gaps")

    def __init__(self, unique, hashes, ready=None):
        self.unique = unique  # sorted distinct items with positive delta
        self.hashes = hashes  # (planes, distinct) uint64 hash columns
        self.ready = ready
        self.inverse = None
        self.gaps = False  # inverse holds -1 entries


class _KMVRange:
    """A contiguous subrange of a staged chunk, as column positions into
    its whole-chunk prep: repeats are kept (the merge drops them)."""

    __slots__ = ("prep", "cols")

    def __init__(self, prep, cols):
        self.prep = prep
        self.cols = cols


class KMVStack(SketchStack):
    """Stacked bottom-k arrays for k KMV copies: one ``(planes, k)``
    uint64 block, one shared dedupe + stacked hash pass per chunk, and a
    per-plane sorted merge of only the hashes below each plane's own k-th
    minimum."""

    def _adopt(self):
        first = self.sketches[0]
        self.k = first.k
        for s in self.sketches:
            if s.k != self.k or s._hash.k != first._hash.k:
                raise ValueError(
                    "cannot stack KMV copies of mixed k or hash degree"
                )
        self._block = None

    @property
    def mins(self) -> np.ndarray:
        """The ``(planes, k)`` block, adopted on first bulk use.

        Until then the templates keep their own rows, so a group driven
        only per item (the adaptive game) never builds the block.
        """
        if self._block is None:
            self._block = stack_rows([s._mins for s in self.sketches])
            for p, s in enumerate(self.sketches):
                s._mins = self._block[p]
        return self._block

    def prepare(self, items, deltas=None, *, assume_unique: bool = False):
        unique = _positive_distinct(items, deltas, assume_unique)
        if unique is None:
            return None
        hashes = hash_many_stacked([s._hash for s in self.sketches], unique)
        return _KMVPrep(unique, hashes)

    def prepare_lazy(self, items, deltas=None):
        unique = _positive_distinct(items, deltas)
        if unique is None:
            return None
        return _KMVPrep(
            unique, np.empty((self.planes, len(unique)), dtype=np.uint64),
            np.zeros(self.planes, dtype=bool),
        )

    def subset(self, prepared, items, deltas=None):
        unique = _positive_distinct(items, deltas)
        if unique is None:
            return None
        # Every distinct item of the slice is in the full chunk's sorted
        # unique array; gather its hash columns instead of re-hashing.
        idx = np.searchsorted(prepared.unique, unique)
        ready = None if prepared.ready is None else prepared.ready.copy()
        return _KMVPrep(unique, prepared.hashes[:, idx], ready)

    def subrange(self, prepared, items, deltas, lo, hi):
        if prepared is None:
            return None
        inv = prepared.inverse
        if inv is None:
            # One lookup per staged chunk; every later subrange is a
            # slice of it, with no dedupe or search of its own.
            inv = np.searchsorted(prepared.unique, items)
            gaps = deltas <= 0
            if gaps.any():
                inv[gaps] = -1
                prepared.gaps = True
            prepared.inverse = inv
        cols = inv[lo:hi]
        if prepared.gaps:
            cols = cols[cols >= 0]
        return _KMVRange(prepared, cols) if len(cols) else None

    def refresh(self, prepared, plane: int) -> None:
        # Deferred: the plane is re-hashed by the next feed that selects
        # it, so a prep that never feeds it again pays nothing.
        if prepared.ready is None:
            prepared.ready = np.ones(self.planes, dtype=bool)
        prepared.ready[plane] = False

    def _columns(self, prepared, sel: np.ndarray) -> np.ndarray:
        """``prepared``'s hash columns, with ``sel``'s planes current."""
        ready = prepared.ready
        if ready is not None:
            missing = sel[~ready[sel]]
            if len(missing):
                prepared.hashes[missing] = hash_many_stacked(
                    [self.sketches[p]._hash for p in missing.tolist()],
                    prepared.unique,
                )
                ready[missing] = True
        return prepared.hashes

    def feed(self, prepared, planes) -> None:
        if prepared is None:
            return
        sel = np.asarray(planes, dtype=np.intp)
        if len(sel) == 0:
            return
        block = self.mins
        if type(prepared) is _KMVRange:
            columns = self._columns(prepared.prep, sel)
            hashes = columns[sel[:, None], prepared.cols]
        else:
            hashes = self._columns(prepared, sel)[sel]
        # Each plane keeps only hashes below its own k-th minimum; planes
        # with no survivor skip the merge.
        live = hashes < block[sel, -1:]
        for i in np.flatnonzero(live.any(axis=1)).tolist():
            _merge_bottom_k(block[sel[i]], hashes[i][live[i]])

    def query_all(self) -> np.ndarray:
        kth = self.mins[:, -1]
        v = kth.astype(np.float64) / _HASH_RANGE
        out = np.full(self.planes, float(self.k))
        np.divide(float(self.k - 1), v, out=out, where=v > 0.0)
        small = kth == _EMPTY
        if small.any():
            out[small] = np.count_nonzero(self.mins[small] != _EMPTY, axis=1)
        return out

    def install(self, plane: int, sketch) -> None:
        if sketch.k != self.k:
            raise ValueError("cannot install a KMV sketch of different k")
        if self._block is not None:
            self._block[plane] = sketch._mins
            sketch._mins = self._block[plane]
        self.sketches[plane] = sketch

    def save(self, planes):
        sel = np.asarray(planes, dtype=np.intp)
        return sel, self.mins[sel]

    def restore(self, saved) -> None:
        sel, mins = saved
        self.mins[sel] = mins

    def detach(self) -> None:
        if self._block is not None:
            for p, s in enumerate(self.sketches):
                s._mins = self._block[p].copy()
