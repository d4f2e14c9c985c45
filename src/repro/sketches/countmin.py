"""CountMin sketch — an extra point-query baseline.

Not used by the paper's theorems (CountSketch is), but included because its
one-sided error makes it the cleanest *attackable* point-query sketch: the
adaptive collision attack in :mod:`repro.adversary.attacks` inflates a
victim's CountMin estimate without bound, a second concrete instance — in
the spirit of Section 9 — of a classic static sketch failing adaptively.
"""

from __future__ import annotations

import copy
import math

import numpy as np

from repro.hashing.kwise import KWiseHash, hash_many_stacked
from repro.sketches.base import (
    PointQuerySketch,
    aggregate_batch,
    as_batch_arrays,
    spawn_rngs,
)
from repro.sketches.stacking import SketchStack, stack_rows


class CountMinSketch(PointQuerySketch):
    """CountMin with ``rows`` pairwise bucket hashes over ``width`` counters.

    Point query = min over rows (never an underestimate for insertion-only
    streams); overestimate is at most ``eps * |f|_1`` with probability
    ``1 - delta`` for ``width = e/eps`` and ``rows = ln(1/delta)``.
    """

    supports_deletions = False
    aggregation_invariant = True
    stackable = True

    @classmethod
    def make_stack(cls, sketches):
        return CountMinStack(sketches)

    def __init__(self, width: int, rows: int, rng: np.random.Generator):
        if width < 1 or rows < 1:
            raise ValueError("width and rows must both be >= 1")
        self.width = width
        self.rows = rows
        self._hashes = [KWiseHash(2, r, out_bits=61) for r in spawn_rngs(rng, rows)]
        self._table = np.zeros((rows, width), dtype=np.int64)
        self._f1 = 0

    @classmethod
    def for_accuracy(
        cls, eps: float, delta: float, rng: np.random.Generator
    ) -> "CountMinSketch":
        """Standard (eps, delta) sizing: width e/eps, rows ln(1/delta)."""
        if not 0 < eps < 1:
            raise ValueError(f"eps must be in (0,1), got {eps}")
        width = max(2, math.ceil(math.e / eps))
        rows = max(1, math.ceil(math.log(1.0 / delta)))
        return cls(width, rows, rng)

    def _bucket(self, r: int, item: int) -> int:
        return self._hashes[r](item) % self.width

    def update(self, item: int, delta: int = 1) -> None:
        if delta < 0:
            raise ValueError("CountMin requires non-negative updates")
        for r in range(self.rows):
            self._table[r, self._bucket(r, item)] += delta
        self._f1 += delta

    def update_batch(self, items, deltas=None) -> None:
        """Vectorized ingestion: hash whole arrays, scatter-add per row.

        CountMin is linear, so aggregating the chunk per distinct item
        first leaves the final table identical to the per-item loop.
        """
        items, deltas = as_batch_arrays(items, deltas)
        if len(items) == 0:
            return
        if np.any(deltas < 0):
            raise ValueError("CountMin requires non-negative updates")
        unique, summed = aggregate_batch(items, deltas)
        width = np.uint64(self.width)
        for r, h in enumerate(self._hashes):
            buckets = (h.hash_many(unique) % width).astype(np.intp)
            # bincount beats np.add.at by a wide margin; float64 partial
            # sums are exact far beyond any conforming stream's counts.
            row = np.bincount(buckets, weights=summed, minlength=self.width)
            self._table[r] += row.astype(np.int64)
        self._f1 += int(summed.sum())

    def snapshot(self) -> "CountMinSketch":
        """Cheap snapshot: share the hashes, copy the counter table."""
        clone = copy.copy(self)
        clone._table = self._table.copy()
        return clone

    def merge(self, other: "CountMinSketch") -> None:
        """Add another partial's counters (CountMin is linear in the stream)."""
        if not isinstance(other, CountMinSketch) or other._table.shape != self._table.shape:
            raise ValueError("can only merge CountMin partials of the same shape")
        self._table += other._table
        self._f1 += other._f1

    def empty_like(self) -> "CountMinSketch":
        """Zero counters, same hash functions."""
        clone = copy.copy(self)
        clone._table = np.zeros_like(self._table)
        clone._f1 = 0
        return clone

    def point_query(self, item: int) -> float:
        return float(
            min(self._table[r, self._bucket(r, item)] for r in range(self.rows))
        )

    def point_query_batch(self, items) -> np.ndarray:
        """Min over rows of the hashed counters, for a whole array of items."""
        items = np.ascontiguousarray(items, dtype=np.int64)
        if len(items) == 0:
            return np.zeros(0, dtype=np.float64)
        width = np.uint64(self.width)
        estimates = np.empty((self.rows, len(items)), dtype=np.int64)
        for r, h in enumerate(self._hashes):
            buckets = (h.hash_many(items) % width).astype(np.intp)
            estimates[r] = self._table[r, buckets]
        return estimates.min(axis=0).astype(np.float64)

    def query(self) -> float:
        """Returns F1 (exact) — CountMin's 'global' query surface."""
        return float(self._f1)

    def space_bits(self) -> int:
        return self.rows * self.width * 64 + sum(
            h.space_bits() for h in self._hashes
        )


class _CountMinPrep:
    """A chunk aggregated and hashed once, ready to feed any plane subset."""

    __slots__ = ("unique", "summed", "buckets", "f1")

    def __init__(self, unique, summed, buckets, f1):
        self.unique = unique  # sorted distinct items (np.unique order)
        self.summed = summed
        self.buckets = buckets  # (planes, rows, distinct) bucket columns
        self.f1 = f1


class CountMinStack(SketchStack):
    """Stacked counter tables for k CountMin copies: one ``(k, rows, width)``
    int64 block, one shared bucket-hash pass per chunk, one flat bincount
    to scatter into any subset of planes."""

    def _adopt(self):
        first = self.sketches[0]
        self.rows, self.width = first.rows, first.width
        for s in self.sketches:
            if s.rows != self.rows or s.width != self.width:
                raise ValueError("cannot stack CountMin copies of mixed shape")
        self.tables = stack_rows([s._table for s in self.sketches])
        for p, s in enumerate(self.sketches):
            s._table = self.tables[p]

    def prepare(self, items, deltas=None):
        items, deltas = as_batch_arrays(items, deltas)
        if len(items) == 0:
            return None
        if np.any(deltas < 0):
            raise ValueError("CountMin requires non-negative updates")
        unique, summed = aggregate_batch(items, deltas)
        return _CountMinPrep(
            unique, summed, self._buckets(self.sketches, unique),
            int(summed.sum()),
        )

    def _buckets(self, sketches, items):
        """``(len(sketches), rows, len(items))`` bucket columns of the
        given copies, in one stacked hash pass."""
        hashes = [h for s in sketches for h in s._hashes]
        buckets = (
            hash_many_stacked(hashes, items) % np.uint64(self.width)
        ).astype(np.intp)
        return buckets.reshape(len(sketches), self.rows, -1)

    def subset(self, prepared, items, deltas=None):
        items, deltas = as_batch_arrays(items, deltas)
        if len(items) == 0:
            return None
        if np.any(deltas < 0):
            raise ValueError("CountMin requires non-negative updates")
        unique, summed = aggregate_batch(items, deltas)
        # Every distinct item of the slice is in the full chunk's sorted
        # unique array; gather its bucket columns instead of re-hashing.
        idx = np.searchsorted(prepared.unique, unique)
        return _CountMinPrep(
            unique, summed, prepared.buckets[:, :, idx], int(summed.sum())
        )

    def refresh(self, prepared, plane: int) -> None:
        prepared.buckets[plane] = self._buckets(
            [self.sketches[plane]], prepared.unique
        )[0]

    def feed(self, prepared, planes) -> None:
        if prepared is None:
            return
        sel = np.asarray(planes, dtype=np.intp)
        if len(sel) == 0:
            return
        distinct = prepared.buckets.shape[2]
        rows = len(sel) * self.rows
        flat = prepared.buckets[sel].reshape(rows, distinct)
        flat = flat + np.arange(rows, dtype=np.intp)[:, None] * self.width
        # One bincount over all (plane, row) blocks: flat indices are
        # disjoint per block and C-order keeps items in stream order per
        # bin, so per-bin float accumulation matches the per-row bincount
        # of the object path exactly.
        counts = np.bincount(
            flat.ravel(),
            weights=np.broadcast_to(prepared.summed, (rows, distinct)).ravel(),
            minlength=rows * self.width,
        )
        self.tables[sel] += counts.reshape(
            len(sel), self.rows, self.width
        ).astype(np.int64)
        for p in sel.tolist():
            self.sketches[p]._f1 += prepared.f1

    def query_all(self) -> np.ndarray:
        return np.array([float(s._f1) for s in self.sketches], dtype=np.float64)

    def install(self, plane: int, sketch) -> None:
        if sketch._table.shape != self.tables[plane].shape:
            raise ValueError("cannot install a CountMin of different shape")
        self.tables[plane] = sketch._table
        sketch._table = self.tables[plane]
        self.sketches[plane] = sketch

    def save(self, planes):
        sel = np.asarray(planes, dtype=np.intp)
        return sel, self.tables[sel], [self.sketches[p]._f1 for p in sel.tolist()]

    def restore(self, saved) -> None:
        sel, tables, f1s = saved
        self.tables[sel] = tables
        for p, f1 in zip(sel.tolist(), f1s):
            self.sketches[p]._f1 = f1

    def detach(self) -> None:
        for p, s in enumerate(self.sketches):
            s._table = self.tables[p].copy()
