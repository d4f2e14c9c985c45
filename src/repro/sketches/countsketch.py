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


class _CountSketchPrep:
    """A chunk aggregated, bucket-hashed and sign-weighted for all planes."""

    __slots__ = ("unique", "summed", "buckets", "signs", "weighted")

    def __init__(self, unique, summed, buckets, signs):
        self.unique = unique  # sorted distinct items (np.unique order)
        self.summed = summed  # float64 summed deltas (None: universe columns)
        self.buckets = buckets  # (planes, rows, distinct) bucket columns
        self.signs = signs  # (planes, rows, distinct) +-1.0 sign columns
        # (planes, rows, distinct) sign * delta
        self.weighted = None if summed is None else signs * summed


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
        """Bucket/sign columns for all of ``[0, universe)``, hashed once.

        Returned as a :class:`_CountSketchPrep` whose ``unique`` is the
        full identity ``arange(universe)`` and whose ``weighted`` is
        unset — :meth:`prepare_counts` gathers per-chunk supports out of
        it, and :meth:`step_item` single items.  This trades
        ``planes * rows * universe * 16`` bytes (held for the session)
        for never hashing or sorting a chunk again.
        """
        ids = np.arange(universe, dtype=np.int64)
        return _CountSketchPrep(ids, None, *self._columns(self.sketches, ids))

    def prepare_counts(self, ucols, counts):
        """Prepared chunk from a dense count vector over the universe.

        For an insertion-only chunk, ``np.nonzero(counts)`` is exactly
        ``np.unique(items)`` and ``counts`` at the support is exactly
        ``aggregate_batch``'s summed deltas, so the result equals
        :meth:`prepare` bit for bit while skipping both the sort and the
        hash pass.
        """
        support = np.nonzero(counts)[0]
        if len(support) == 0:
            return None
        return _CountSketchPrep(
            support.astype(np.int64), counts[support].astype(np.float64),
            ucols.buckets[:, :, support], ucols.signs[:, :, support],
        )

    def step_item(self, ucols, item, delta, planes) -> None:
        """One per-item update across a set of planes, via universe columns.

        The same scatter-adds ``CountSketch.update`` issues — one cell
        per (plane, row), no duplicate targets — grouped into a single
        fancy-indexed add.  Candidate bookkeeping is *not* mirrored;
        callers gate on ``_track_candidates == 0``.
        """
        sel = np.asarray(list(planes), dtype=np.intp)
        if len(sel) == 0:
            return
        buckets = ucols.buckets[sel, :, item]
        signs = ucols.signs[sel, :, item]
        rows = np.arange(self.rows)
        self.tables[sel[:, None], rows[None, :], buckets] += signs * float(delta)

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
        cols, signs = self._columns([self.sketches[plane]], prepared.unique)
        prepared.buckets[plane], prepared.signs[plane] = cols[0], signs[0]
        if prepared.weighted is not None:
            prepared.weighted[plane] = prepared.signs[plane] * prepared.summed

    def feed(self, prepared, planes) -> None:
        if prepared is None:
            return
        sel = np.asarray(list(planes), dtype=np.intp)
        if len(sel) == 0:
            return
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
        unique_items = prepared.unique.tolist()
        for p in sel.tolist():
            sketch = self.sketches[p]
            if sketch._track_candidates:
                for item in unique_items:
                    sketch._candidates[item] = None
                if len(sketch._candidates) > 4 * sketch._track_candidates:
                    sketch._prune_candidates()

    def query_all(self) -> np.ndarray:
        row_mass = (self.tables * self.tables).sum(axis=2)
        return np.median(row_mass, axis=1)

    def install(self, plane: int, sketch) -> None:
        if sketch._table.shape != self.tables[plane].shape:
            raise ValueError("cannot install a CountSketch of different shape")
        self.tables[plane] = sketch._table
        sketch._table = self.tables[plane]
        self.sketches[plane] = sketch

    def save(self, planes):
        sel = np.asarray(list(planes), dtype=np.intp)
        return (
            sel,
            self.tables[sel],
            [dict(self.sketches[p]._candidates) for p in sel.tolist()],
        )

    def restore(self, saved) -> None:
        sel, tables, candidates = saved
        self.tables[sel] = tables
        for p, cands in zip(sel.tolist(), candidates):
            self.sketches[p]._candidates = cands

    def detach(self) -> None:
        for p, s in enumerate(self.sketches):
            s._table = self.tables[p].copy()
