"""CountSketch [10] — static L2 point queries and heavy hitters (Lemma 6.4).

``rows`` independent (bucket, sign) hash pairs over a table of ``width``
counters per row.  The point query for item i is the median over rows of
``sign_r(i) * C[r, bucket_r(i)]``; with ``width = Theta(1/eps^2)`` and
``rows = Theta(log(n/delta))`` every coordinate is recovered to within
``eps * |f|_2`` with probability 1 - delta — the (eps, delta) point query
problem of Definition 6.2, which is how Theorem 6.5 consumes it.

The sketch also tracks a candidate heap of items seen in the stream so it
can propose heavy hitters without an external candidate list.
"""

from __future__ import annotations

import copy
import math

import numpy as np

from repro.hashing.kwise import (
    KWiseHash,
    KWiseSignHash,
    hash_many_stacked,
    sign_many_stacked,
)
from repro.sketches.base import (
    PointQuerySketch,
    aggregate_batch,
    as_batch_arrays,
    row_median,
    spawn_rngs,
)
from repro.sketches.stacking import SketchStack, stack_rows


class CountSketch(PointQuerySketch):
    """CountSketch table with median-of-rows point queries."""

    supports_deletions = True
    aggregation_invariant = True
    stackable = True

    @classmethod
    def make_stack(cls, sketches):
        return CountSketchStack(sketches)

    def __init__(
        self,
        width: int,
        rows: int,
        rng: np.random.Generator,
        track_candidates: int = 64,
        cache_items: bool = True,
    ):
        if width < 1 or rows < 1:
            raise ValueError("width and rows must both be >= 1")
        self.width = width
        self.rows = rows
        child = spawn_rngs(rng, 2 * rows)
        self._buckets = [KWiseHash(2, child[2 * r], out_bits=61) for r in range(rows)]
        self._signs = [KWiseSignHash(4, child[2 * r + 1]) for r in range(rows)]
        self._table = np.zeros((rows, width), dtype=np.float64)
        self._track_candidates = track_candidates
        self._candidates: dict[int, None] = {}
        self._row_idx = np.arange(rows)
        # Simulation-only memo of per-item (bucket, sign) vectors; a native
        # implementation recomputes them, so space_bits does not charge it.
        self._item_cache: dict[int, tuple[np.ndarray, np.ndarray]] | None = (
            {} if cache_items else None
        )

    @classmethod
    def for_accuracy(
        cls, eps: float, delta: float, n: int, rng: np.random.Generator,
        width_constant: float = 3.0, rows_constant: float = 2.0,
    ) -> "CountSketch":
        """Size for the (eps, delta) point query problem over universe [n].

        ``width = width_constant / eps^2``, ``rows = rows_constant *
        log2(n/delta)`` — the Lemma 6.4 parameterization
        ``O(eps^-2 log n log(n/delta))`` bits.
        """
        if not 0 < eps < 1:
            raise ValueError(f"eps must be in (0,1), got {eps}")
        width = max(2, math.ceil(width_constant / eps**2))
        rows = max(1, math.ceil(rows_constant * math.log2(max(2.0, n / delta))))
        if rows % 2 == 0:
            rows += 1
        return cls(width, rows, rng)

    def _bucket(self, r: int, item: int) -> int:
        return self._buckets[r](item) % self.width

    def _vectors(self, item: int) -> tuple[np.ndarray, np.ndarray]:
        """Per-item bucket and sign vectors across all rows (memoised)."""
        if self._item_cache is not None:
            cached = self._item_cache.get(item)
            if cached is not None:
                return cached
        buckets = np.array(
            [self._bucket(r, item) for r in range(self.rows)], dtype=np.intp
        )
        signs = np.array(
            [self._signs[r](item) for r in range(self.rows)], dtype=np.float64
        )
        if self._item_cache is not None:
            self._item_cache[item] = (buckets, signs)
        return buckets, signs

    def _vectors_many(self, items: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(len(items), rows) bucket and sign matrices, sharing the memo.

        Cached rows are gathered from ``_item_cache``; the rest are hashed
        in one vectorized pass per row and written back to the cache, so
        the per-item and batched paths always agree.
        """
        count = len(items)
        buckets = np.empty((count, self.rows), dtype=np.intp)
        signs = np.empty((count, self.rows), dtype=np.float64)
        cache = self._item_cache
        if cache is None:
            missing = list(range(count))
        else:
            missing = []
            for pos, item in enumerate(items.tolist()):
                cached = cache.get(item)
                if cached is None:
                    missing.append(pos)
                else:
                    buckets[pos] = cached[0]
                    signs[pos] = cached[1]
        if missing:
            fresh = items[missing]
            width = np.uint64(self.width)
            for r in range(self.rows):
                buckets[missing, r] = (
                    self._buckets[r].hash_many(fresh) % width
                ).astype(np.intp)
                signs[missing, r] = self._signs[r].sign_many(fresh)
            if cache is not None:
                for pos in missing:
                    cache[int(items[pos])] = (
                        buckets[pos].copy(), signs[pos].copy()
                    )
        return buckets, signs

    def update(self, item: int, delta: int = 1) -> None:
        buckets, signs = self._vectors(item)
        self._table[self._row_idx, buckets] += signs * float(delta)
        if self._track_candidates:
            self._candidates[item] = None
            if len(self._candidates) > 4 * self._track_candidates:
                self._prune_candidates()

    def update_batch(self, items, deltas=None) -> None:
        """Vectorized ingestion; linear, so per-item aggregation is exact.

        Candidate bookkeeping prunes once per chunk instead of every
        fourth insertion — the tracked *set* may differ from the per-item
        path (candidates are heuristic state), the table never does.
        """
        items, deltas = as_batch_arrays(items, deltas)
        if len(items) == 0:
            return
        unique, summed = aggregate_batch(items, deltas)
        buckets, signs = self._vectors_many(unique)
        weighted = signs * summed[:, None].astype(np.float64)
        for r in range(self.rows):
            self._table[r] += np.bincount(
                buckets[:, r], weights=weighted[:, r], minlength=self.width
            )
        if self._track_candidates:
            for item in unique.tolist():
                self._candidates[item] = None
            if len(self._candidates) > 4 * self._track_candidates:
                self._prune_candidates()

    def _prune_candidates(self) -> None:
        candidates = list(self._candidates)
        scores = np.abs(self.point_query_batch(candidates))
        order = np.argsort(-scores, kind="stable")[: self._track_candidates]
        self._candidates = {candidates[int(pos)]: None for pos in order}

    def snapshot(self) -> "CountSketch":
        """Cheap snapshot: share hashes and memo, copy table/candidates."""
        clone = copy.copy(self)
        clone._table = self._table.copy()
        clone._candidates = dict(self._candidates)
        return clone

    def merge(self, other: "CountSketch") -> None:
        """Add another partial's table (linear); union the candidate sets.

        The merged table equals the serial one up to float summation
        order; candidates are heuristic state, so the union may differ
        from the serial candidate set the same way batched pruning does.
        """
        if not isinstance(other, CountSketch) or other._table.shape != self._table.shape:
            raise ValueError("can only merge CountSketch partials of the same shape")
        self._table += other._table
        self._candidates.update(other._candidates)
        if self._track_candidates and len(self._candidates) > 4 * self._track_candidates:
            self._prune_candidates()

    def empty_like(self) -> "CountSketch":
        """Zero table and no candidates, same hash functions and memo."""
        clone = copy.copy(self)
        clone._table = np.zeros_like(self._table)
        clone._candidates = {}
        return clone

    def point_query(self, item: int) -> float:
        buckets, signs = self._vectors(item)
        return float(np.median(signs * self._table[self._row_idx, buckets]))

    def point_query_batch(self, items) -> np.ndarray:
        """Median-over-rows estimates for a whole array of items."""
        items = np.ascontiguousarray(items, dtype=np.int64)
        if len(items) == 0:
            return np.zeros(0, dtype=np.float64)
        buckets, signs = self._vectors_many(items)
        gathered = np.empty((len(items), self.rows), dtype=np.float64)
        for r in range(self.rows):
            gathered[:, r] = self._table[r, buckets[:, r]]
        return np.median(signs * gathered, axis=1)

    def f2_estimate(self) -> float:
        """Median over rows of the row's squared mass — an AMS-style F2.

        Each CountSketch row is itself an AMS row partitioned into buckets,
        so ``sum_b C[r,b]^2`` estimates F2; the median over rows
        concentrates.  Used by the heavy-hitter threshold logic.
        """
        row_mass = (self._table * self._table).sum(axis=1)
        return float(np.median(row_mass))

    def heavy_hitters(self, threshold: float) -> set[int]:
        """Tracked candidates whose point estimate clears ``threshold``."""
        self._prune_candidates()
        return {i for i in self._candidates if abs(self.point_query(i)) >= threshold}

    def query(self) -> float:
        return self.f2_estimate()

    def space_bits(self) -> int:
        table = self.rows * self.width * 64
        hashes = sum(h.space_bits() for h in self._buckets) + sum(
            s.space_bits() for s in self._signs
        )
        candidates = self._track_candidates * 64
        return table + hashes + candidates


#: Bound on ``(sqrt(row mass) + sum |weight|)^2`` under which
#: :meth:`CountSketchStack.prefix_estimates` is exact.  Every table cell
#: and row mass reached by a prefix stays below the bound, and each
#: per-update mass step ``2cw + w^2`` below three times it, so with the
#: bound at 2^51 all of them are integers float64 holds exactly (< 2^53).
EXACT_MASS_LIMIT = 2.0 ** 51


class _CountSketchColumns:
    """Cells and signs of a sorted set of distinct items, for all planes.

    The universe fast path hashes all of ``[0, universe)`` once per
    session; the bytes path hashes one staged chunk's distinct items,
    and then ``counts`` holds their summed deltas, so the object is also
    that chunk's whole prep, fed as one dense counts vector.  Either way
    a feed, a step or a prefix pass addresses an item by its *column*:
    its index in ``unique``.
    """

    __slots__ = ("unique", "cells", "signs", "counts", "work",
                 "inverse", "source")

    def __init__(self, unique, cells, signs, counts=None, inverse=None,
                 source=None):
        self.unique = unique  # the hashed items, sorted
        # (planes, rows, distinct) offsets of each item's bucket into the
        # flattened (planes, rows, width) tables
        self.cells = cells
        self.signs = signs  # (planes, rows, distinct) +-1.0 sign columns
        self.counts = counts  # float64 summed deltas (a chunk's columns)
        self.work = None  # sign * count buffer, made on the first dense feed
        # Column of each position of ``source``, the update array the
        # columns were built from or first addressed with.
        self.inverse = inverse
        self.source = source


class _CountSketchCounts:
    """Summed deltas over a columns object, fed through those columns live
    (it holds no hash columns of its own, so a copy installed mid-chunk
    only needs the columns refreshed).

    ``support`` is ``None`` when the counts cover at least an eighth of
    the columns and ``counts`` is then the dense float64 count vector;
    otherwise ``counts`` holds the counts at the sorted column indices
    ``support`` only.
    """

    __slots__ = ("cols", "counts", "support")

    def __init__(self, cols, counts, support):
        self.cols = cols
        self.counts = counts
        self.support = support

    @property
    def unique(self) -> np.ndarray:
        """Sorted distinct items with a nonzero count (candidate
        bookkeeping)."""
        if self.support is not None:
            return self.cols.unique[self.support]
        return self.cols.unique[np.flatnonzero(self.counts)]


class CountSketchStack(SketchStack):
    """Stacked tables for k CountSketch copies: one ``(k, rows, width)``
    float64 block, one shared bucket + sign hash pass per chunk, and one
    weighted bincount over flat cell offsets to scatter into any subset
    of planes.  A chunk's prep is its columns (:class:`_CountSketchColumns`)
    and acts as that chunk's own universe: subranges, per-item steps and
    prefix passes address its distinct items by column, exactly as the
    universe fast path addresses ``[0, universe)``.  Candidate
    bookkeeping stays on the per-plane templates (it is heuristic scalar
    state), exactly mirroring ``update_batch``."""

    supports_universe = True

    def _adopt(self):
        first = self.sketches[0]
        self.rows, self.width = first.rows, first.width
        for s in self.sketches:
            if s.rows != self.rows or s.width != self.width:
                raise ValueError("cannot stack CountSketch copies of mixed shape")
        self.tables = stack_rows([s._table for s in self.sketches])
        for p, s in enumerate(self.sketches):
            s._table = self.tables[p]
        # The block is C-contiguous, so this is a view every cell offset
        # of the columns indexes into.
        self._cells_view = self.tables.reshape(-1)
        self._square = np.empty_like(self.tables)  # query_all's t * t
        self._spare: list[np.ndarray] = []  # released whole-stack snapshots
        self._all_planes = np.arange(self.planes, dtype=np.intp)

    def _whole(self, sel: np.ndarray) -> bool:
        return len(sel) == self.planes and bool((sel == self._all_planes).all())

    def _tracking(self) -> bool:
        return any(s._track_candidates for s in self.sketches)

    def _cells(self, planes, items):
        """``(len(planes), rows, len(items))`` flat cell offsets and sign
        columns of the given planes' copies, in one stacked hash pass."""
        sketches = [self.sketches[p] for p in planes]
        hashed = hash_many_stacked(
            [h for s in sketches for h in s._buckets], items
        )
        width = self.width
        if width & (width - 1):
            hashed %= np.uint64(width)
        else:
            hashed &= np.uint64(width - 1)  # == % width for a power of two
        shape = (len(sketches), self.rows, len(items))
        # Buckets are below the width, so reading them as int64 is exact.
        cells = hashed.view(np.int64).reshape(shape)
        cells += self._row_offsets(planes)
        signs = sign_many_stacked(
            [g for s in sketches for g in s._signs], items
        ).reshape(shape)
        return cells, signs

    def _row_offsets(self, planes) -> np.ndarray:
        """``(len(planes), rows, 1)`` offsets of each (plane, row) block
        in the flattened tables."""
        blocks = np.asarray(planes, dtype=np.intp)[:, None] * self.rows
        return ((blocks + np.arange(self.rows)) * self.width)[:, :, None]

    def prepare(self, items, deltas=None):
        """The chunk's columns: its sorted distinct items hashed for all
        planes, their summed deltas, and the column of every update (the
        inverse ``np.unique`` computes anyway), kept for
        :meth:`subrange`."""
        source = items
        items, deltas = as_batch_arrays(items, deltas)
        if len(items) == 0:
            return None
        unique, inverse = np.unique(items, return_inverse=True)
        counts = np.bincount(inverse, weights=deltas, minlength=len(unique))
        return _CountSketchColumns(
            unique, *self._cells(self._all_planes, unique),
            counts=counts, inverse=inverse, source=source,
        )

    def prepare_universe(self, universe: int):
        """Cells and signs for all of ``[0, universe)``, hashed once.

        Each item's bucket is stored as its flat offset into the
        ``(planes, rows, width)`` tables, so feeding every plane is one
        bincount over the columns with no per-chunk index arithmetic.
        This trades ``planes * rows * universe * 16`` bytes (plus as much
        again for the dense-feed buffer) held for the session for never
        hashing or sorting a chunk again.
        """
        ids = np.arange(universe, dtype=np.int64)
        return _CountSketchColumns(ids, *self._cells(self._all_planes, ids))

    def prepare_counts(self, cols, counts):
        """Prepared chunk from a dense count vector over ``cols``.

        For universe columns and an insertion-only chunk,
        ``np.nonzero(counts)`` is exactly ``np.unique(items)`` and
        ``counts`` at the support is exactly ``aggregate_batch``'s summed
        deltas, so feeding the result equals feeding :meth:`prepare`'s
        bit for bit while skipping both the sort and the hash pass.  The
        result references ``cols`` rather than copying columns out of it.
        """
        support = np.flatnonzero(counts)
        if len(support) == 0:
            return None
        counts = counts.astype(np.float64, copy=False)
        # A sparse feed gathers cells and signs at the support: about
        # three dense elements' work each, plus heap temporaries a dense
        # feed (into the columns' work buffer) avoids.
        if 8 * len(support) >= len(counts):
            return _CountSketchCounts(cols, counts, None)
        return _CountSketchCounts(cols, counts[support], support)

    def columns_at(self, prepared, items, lo: int, hi: int) -> np.ndarray:
        """Column indices of ``items[lo:hi]`` in ``prepared``, the columns
        of the whole ``items`` or of its aggregate.

        One inverse index per staged array: the one :meth:`prepare` took
        from ``np.unique``, or a single ``searchsorted`` when the columns
        came from the chunk's aggregate; every later call is a slice.
        """
        if prepared.source is not items:
            prepared.inverse = np.searchsorted(prepared.unique, items)
            prepared.source = items
        return prepared.inverse[lo:hi]

    def step_item(self, cols, column, delta, planes) -> None:
        """One per-item update across a set of planes, via columns.

        The same scatter-adds ``CountSketch.update`` issues — one cell
        per (plane, row), no duplicate targets — grouped into a single
        fancy-indexed add.  ``column`` indexes ``cols`` (the item itself
        for universe columns).  Candidate bookkeeping is *not* mirrored;
        callers gate on ``_track_candidates == 0``.
        """
        sel = np.asarray(planes, dtype=np.intp)
        if len(sel) == 0:
            return
        self._cells_view[cols.cells[sel, :, column]] += (
            cols.signs[sel, :, column] * float(delta)
        )

    def prefix_estimates(self, cols, columns, deltas, planes):
        """Per-plane estimates after every prefix of a run of updates.

        ``columns`` are the run's column indices into ``cols`` (the items
        themselves for universe columns, :meth:`columns_at` for a
        chunk's).  Returns a ``(len(columns), len(planes))`` array whose
        row ``t`` equals ``query_all()[planes]`` after stepping the first
        ``t + 1`` updates one by one — without touching the tables — or
        ``None`` when the run could leave float64's exact-integer range
        (:data:`EXACT_MASS_LIMIT`), where the caller steps per item.

        Tables only ever hold integers here, so a row's mass moves by
        exactly ``2cw + w^2`` when weight ``w`` lands on a cell holding
        ``c``.  ``c`` is the cell's value before the run plus the earlier
        weights that landed on it: an exclusive running sum grouped by
        (plane, row, cell).  A cumulative sum of the steps then gives
        every prefix's row masses, and one median over rows the
        estimates, exactly as ``query_all`` reduces them.
        """
        sel = np.asarray(planes, dtype=np.intp)
        whole = self._whole(sel)
        deltas = np.asarray(deltas, dtype=np.float64)
        tables = self.tables if whole else self.tables[sel]
        square = self._square if whole else None
        mass = np.multiply(tables, tables, out=square).sum(axis=2)
        # Signs are +-1, so every row's weights sum to |deltas| in size.
        reach = np.sqrt(mass) + np.abs(deltas).sum()
        if not bool((reach * reach < EXACT_MASS_LIMIT).all()):
            return None
        cells = (cols.cells if whole else cols.cells[sel])[:, :, columns]
        weights = (cols.signs if whole else cols.signs[sel])[:, :, columns]
        weights *= deltas
        steps = self._cells_view[cells]  # each cell's value before the run
        order = np.argsort(cells, axis=2, kind="stable")
        grouped = np.take_along_axis(cells, order, axis=2)
        del cells
        # Position of the first update of each run of equal cells.
        head = np.ones(grouped.shape, dtype=bool)
        head[:, :, 1:] = grouped[:, :, 1:] != grouped[:, :, :-1]
        del grouped
        first = np.where(head, np.arange(head.shape[2]), 0)
        del head
        np.maximum.accumulate(first, axis=2, out=first)
        ordered = np.take_along_axis(weights, order, axis=2)
        earlier = np.cumsum(ordered, axis=2)
        earlier -= ordered
        earlier -= np.take_along_axis(earlier, first, axis=2)
        del first
        np.put_along_axis(ordered, order, earlier, axis=2)
        del earlier, order
        steps += ordered  # c: the cell's value just before each update
        del ordered
        steps *= 2.0
        steps += weights
        steps *= weights  # (2c + w) * w: the row-mass step of each update
        np.cumsum(steps, axis=2, out=steps)
        steps += mass[:, :, None]
        return row_median(steps.transpose(2, 0, 1))

    def subset(self, prepared, items, deltas=None):
        items, deltas = as_batch_arrays(items, deltas)
        if len(items) == 0:
            return None
        unique, summed = aggregate_batch(items, deltas)
        # Gather the slice's cells/sign columns from the full chunk's
        # hash pass; per-cell sums of the recombined weights match a
        # fresh prepare bit for bit.
        idx = np.searchsorted(prepared.unique, unique)
        return _CountSketchColumns(
            unique, prepared.cells[:, :, idx], prepared.signs[:, :, idx],
            counts=summed.astype(np.float64),
        )

    def subrange(self, prepared, items, deltas, lo, hi):
        """``items[lo:hi]`` as counts over the whole chunk's columns: one
        ``bincount`` of the slice's column indices, no dedupe, search or
        gather.  Zero-sum items drop out, which only candidate tracking
        could observe, so stacks that track candidates keep
        :meth:`subset`."""
        if prepared is None:
            return None
        if self._tracking():
            return self.subset(prepared, items[lo:hi], deltas[lo:hi])
        counts = np.bincount(
            self.columns_at(prepared, items, lo, hi),
            weights=deltas[lo:hi], minlength=len(prepared.unique),
        )
        return self.prepare_counts(prepared, counts)

    def refresh(self, prepared, plane: int) -> None:
        if isinstance(prepared, _CountSketchCounts):
            return  # reads its columns, which are refreshed
        cells, signs = self._cells([plane], prepared.unique)
        prepared.cells[plane], prepared.signs[plane] = cells[0], signs[0]

    def feed(self, prepared, planes) -> None:
        if prepared is None:
            return
        sel = np.asarray(planes, dtype=np.intp)
        if len(sel) == 0:
            return
        if isinstance(prepared, _CountSketchCounts):
            self._feed_counts(prepared.cols, prepared.counts,
                              prepared.support, sel)
        else:
            self._feed_counts(prepared, prepared.counts, None, sel)
        tracking = [
            self.sketches[p] for p in sel.tolist()
            if self.sketches[p]._track_candidates
        ]
        if not tracking:
            return
        unique_items = prepared.unique.tolist()
        for sketch in tracking:
            for item in unique_items:
                sketch._candidates[item] = None
            if len(sketch._candidates) > 4 * sketch._track_candidates:
                sketch._prune_candidates()

    def _feed_counts(self, cols, counts, support, sel: np.ndarray) -> None:
        """Scatter counts over ``cols`` (at ``support``, or dense): one
        sign * count product, one bincount over the flat cell offsets,
        one in-place add.  Per-cell sums are integers, so they equal the
        object path's bit for bit."""
        whole = self._whole(sel)
        # A dense feed to most planes scatters every plane (no gather of
        # the selected columns) and adds only the selected planes' sums.
        most = support is None and 2 * len(sel) >= self.planes
        if most:
            if cols.work is None:
                cols.work = np.empty_like(cols.signs)
            cells = cols.cells
            weights = np.multiply(cols.signs, counts, out=cols.work)
        else:
            cells = cols.cells if whole else cols.cells[sel]
            weights = cols.signs if whole else cols.signs[sel]
            if support is not None:
                cells = cells[:, :, support]
                weights = weights[:, :, support]
            weights = weights * counts
        sums = np.bincount(
            cells.reshape(-1), weights=weights.reshape(-1),
            minlength=self.tables.size,
        ).reshape(self.tables.shape)
        if whole:
            self.tables += sums
        elif most:
            fed = np.zeros((self.planes, 1, 1), dtype=bool)
            fed[sel] = True
            np.add(self.tables, sums, out=self.tables, where=fed)
        else:
            self.tables[sel] += sums[sel]

    def query_all(self) -> np.ndarray:
        row_mass = np.multiply(self.tables, self.tables, out=self._square)
        return row_median(row_mass.sum(axis=2))

    def install(self, plane: int, sketch) -> None:
        if sketch._table.shape != self.tables[plane].shape:
            raise ValueError("cannot install a CountSketch of different shape")
        self.tables[plane] = sketch._table
        sketch._table = self.tables[plane]
        self.sketches[plane] = sketch

    def save(self, planes):
        sel = np.asarray(planes, dtype=np.intp)
        if self._whole(sel) and self._spare:
            tables = self._spare.pop()
            np.copyto(tables, self.tables)
        else:
            tables = self.tables[sel]
        return (
            sel,
            tables,
            [dict(self.sketches[p]._candidates) for p in sel.tolist()],
        )

    def release(self, saved) -> None:
        tables = saved[1]
        if tables.shape == self.tables.shape:
            self._spare.append(tables)

    def restore(self, saved) -> None:
        sel, tables, candidates = saved
        self.tables[sel] = tables
        for p, cands in zip(sel.tolist(), candidates):
            self.sketches[p]._candidates = cands

    def detach(self) -> None:
        for p, s in enumerate(self.sketches):
            s._table = self.tables[p].copy()
