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


class _CountSketchPrep:
    """A chunk aggregated, bucket-hashed and sign-weighted for all planes."""

    __slots__ = ("unique", "summed", "buckets", "signs", "weighted")

    def __init__(self, unique, summed, buckets, signs):
        self.unique = unique  # sorted distinct items (np.unique order)
        self.summed = summed  # float64 summed deltas
        self.buckets = buckets  # (planes, rows, distinct) bucket columns
        self.signs = signs  # (planes, rows, distinct) +-1.0 sign columns
        self.weighted = signs * summed  # (planes, rows, distinct) sign * delta


class _CountSketchColumns:
    """Cells and signs of every item of ``[0, universe)``, for all planes."""

    __slots__ = ("unique", "cells", "signs", "work")

    def __init__(self, unique, cells, signs):
        self.unique = unique  # arange(universe): the hashed items
        # (planes, rows, universe) offsets of each item's bucket into the
        # flattened (planes, rows, width) tables
        self.cells = cells
        self.signs = signs  # (planes, rows, universe) +-1.0 sign columns
        self.work = None  # sign * count buffer, made on the first dense feed


class _CountSketchCounts:
    """A chunk as item counts over the universe, fed through the live
    universe columns (it holds no hash columns of its own, so a copy
    installed mid-chunk only needs the columns refreshed).

    ``support`` is ``None`` when the chunk covers at least an eighth of
    the universe and ``counts`` is then the dense float64 count vector;
    otherwise ``counts`` holds the counts at the sorted ``support`` only.
    """

    __slots__ = ("cols", "counts", "support")

    def __init__(self, cols, counts, support):
        self.cols = cols
        self.counts = counts
        self.support = support

    @property
    def unique(self) -> np.ndarray:
        """Sorted distinct items of the chunk (candidate bookkeeping)."""
        if self.support is not None:
            return self.support
        return np.flatnonzero(self.counts)


class CountSketchStack(SketchStack):
    """Stacked tables for k CountSketch copies: one ``(k, rows, width)``
    float64 block, one shared bucket + sign hash pass per chunk, and one
    weighted bincount to scatter into any subset of planes.  Candidate
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
        # of the universe columns indexes into.
        self._cells_view = self.tables.reshape(-1)
        self._square = np.empty_like(self.tables)  # query_all's t * t
        self._spare: list[np.ndarray] = []  # released whole-stack snapshots
        self._all_planes = np.arange(self.planes, dtype=np.intp)

    def _whole(self, sel: np.ndarray) -> bool:
        return len(sel) == self.planes and bool((sel == self._all_planes).all())

    def _columns(self, sketches, items):
        """``(len(sketches), rows, len(items))`` bucket and sign columns
        of the given copies, in one stacked hash pass."""
        buckets = [h for s in sketches for h in s._buckets]
        signs = [g for s in sketches for g in s._signs]
        cols = (
            hash_many_stacked(buckets, items) % np.uint64(self.width)
        ).astype(np.intp)
        shape = (len(sketches), self.rows, len(items))
        sign_cols = sign_many_stacked(signs, items).reshape(shape)
        return cols.reshape(shape), sign_cols

    def _row_offsets(self, planes) -> np.ndarray:
        """``(len(planes), rows, 1)`` offsets of each (plane, row) block
        in the flattened tables."""
        blocks = np.asarray(planes, dtype=np.intp)[:, None] * self.rows
        return ((blocks + np.arange(self.rows)) * self.width)[:, :, None]

    def prepare(self, items, deltas=None):
        items, deltas = as_batch_arrays(items, deltas)
        if len(items) == 0:
            return None
        unique, summed = aggregate_batch(items, deltas)
        return _CountSketchPrep(
            unique, summed.astype(np.float64),
            *self._columns(self.sketches, unique),
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
        buckets, signs = self._columns(self.sketches, ids)
        buckets += self._row_offsets(self._all_planes)
        return _CountSketchColumns(ids, buckets, signs)

    def prepare_counts(self, ucols, counts):
        """Prepared chunk from a dense count vector over the universe.

        For an insertion-only chunk, ``np.nonzero(counts)`` is exactly
        ``np.unique(items)`` and ``counts`` at the support is exactly
        ``aggregate_batch``'s summed deltas, so feeding the result equals
        feeding :meth:`prepare`'s bit for bit while skipping both the
        sort and the hash pass.  The result references ``ucols`` rather
        than copying columns out of it.
        """
        support = np.flatnonzero(counts)
        if len(support) == 0:
            return None
        # A sparse feed gathers cells and signs at the support: about
        # three dense elements' work each, plus heap temporaries a dense
        # feed (into the columns' work buffer) avoids.
        if 8 * len(support) >= len(counts):
            return _CountSketchCounts(ucols, counts.astype(np.float64), None)
        return _CountSketchCounts(
            ucols, counts[support].astype(np.float64), support
        )

    def step_item(self, ucols, item, delta, planes) -> None:
        """One per-item update across a set of planes, via universe columns.

        The same scatter-adds ``CountSketch.update`` issues — one cell
        per (plane, row), no duplicate targets — grouped into a single
        fancy-indexed add.  Candidate bookkeeping is *not* mirrored;
        callers gate on ``_track_candidates == 0``.
        """
        sel = np.asarray(planes, dtype=np.intp)
        if len(sel) == 0:
            return
        self._cells_view[ucols.cells[sel, :, item]] += (
            ucols.signs[sel, :, item] * float(delta)
        )

    def prefix_estimates(self, ucols, items, deltas, planes):
        """Per-plane estimates after every prefix of a run of updates.

        Returns a ``(len(items), len(planes))`` array whose row ``t``
        equals ``query_all()[planes]`` after stepping ``items[:t + 1]``
        one by one — without touching the tables — or ``None`` when the
        run could leave float64's exact-integer range
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
        cells = (ucols.cells if whole else ucols.cells[sel])[:, :, items]
        weights = (ucols.signs if whole else ucols.signs[sel])[:, :, items]
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
        return np.median(steps.transpose(2, 0, 1), axis=2)

    def subset(self, prepared, items, deltas=None):
        items, deltas = as_batch_arrays(items, deltas)
        if len(items) == 0:
            return None
        unique, summed = aggregate_batch(items, deltas)
        # Gather the slice's bucket/sign columns from the full chunk's
        # hash pass; sign * delta is exact (+-1.0 times an integer-valued
        # float), so the recombined weights match a fresh prepare bit for
        # bit.
        idx = np.searchsorted(prepared.unique, unique)
        return _CountSketchPrep(
            unique, summed.astype(np.float64),
            prepared.buckets[:, :, idx], prepared.signs[:, :, idx],
        )

    def refresh(self, prepared, plane: int) -> None:
        if isinstance(prepared, _CountSketchCounts):
            return  # reads the universe columns, which are refreshed
        cols, signs = self._columns([self.sketches[plane]], prepared.unique)
        if isinstance(prepared, _CountSketchColumns):
            prepared.cells[plane] = cols[0] + self._row_offsets([plane])[0]
            prepared.signs[plane] = signs[0]
            return
        prepared.buckets[plane], prepared.signs[plane] = cols[0], signs[0]
        prepared.weighted[plane] = prepared.signs[plane] * prepared.summed

    def feed(self, prepared, planes) -> None:
        if prepared is None:
            return
        sel = np.asarray(planes, dtype=np.intp)
        if len(sel) == 0:
            return
        if isinstance(prepared, _CountSketchCounts):
            self._feed_counts(prepared, sel)
        else:
            distinct = prepared.buckets.shape[2]
            rows = len(sel) * self.rows
            flat = prepared.buckets[sel].reshape(rows, distinct)
            flat = flat + np.arange(rows, dtype=np.intp)[:, None] * self.width
            counts = np.bincount(
                flat.ravel(),
                weights=prepared.weighted[sel].ravel(),
                minlength=rows * self.width,
            )
            self.tables[sel] += counts.reshape(len(sel), self.rows, self.width)
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

    def _feed_counts(self, prepared, sel: np.ndarray) -> None:
        """Scatter a counts prep: one sign * count product, one bincount
        over the flat cell offsets, one in-place add.  Per-cell sums are
        integers, so they equal the object path's bit for bit."""
        cols = prepared.cols
        whole = self._whole(sel)
        if prepared.support is None and whole:
            if cols.work is None:
                cols.work = np.empty_like(cols.signs)
            cells = cols.cells
            weights = np.multiply(cols.signs, prepared.counts, out=cols.work)
        else:
            cells = cols.cells if whole else cols.cells[sel]
            weights = cols.signs if whole else cols.signs[sel]
            if prepared.support is not None:
                cells = cells[:, :, prepared.support]
                weights = weights[:, :, prepared.support]
            weights = weights * prepared.counts
        sums = np.bincount(
            cells.reshape(-1), weights=weights.reshape(-1),
            minlength=self.tables.size,
        ).reshape(self.tables.shape)
        if whole:
            self.tables += sums
        else:
            self.tables[sel] += sums[sel]

    def query_all(self) -> np.ndarray:
        row_mass = np.multiply(self.tables, self.tables, out=self._square)
        return np.median(row_mass.sum(axis=2), axis=1)

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
