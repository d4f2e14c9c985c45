"""Alon–Matias–Szegedy F2 sketches.

Two variants, matching the two roles AMS plays in the paper:

* :class:`AMSFullSketch` — the *fully independent* sketch of Section 9:
  an explicit matrix ``S in R^{t x n}`` of i.i.d. Rademacher entries scaled
  by ``t^{-1/2}``, estimate ``|Sf|_2^2``.  This is the attack target of
  Theorem 9.1 (footnote 10: the attack is shown against the fully
  independent variant, which is only *stronger* than 4-wise AMS).

* :class:`AMSSketch` — the classical space-efficient estimator [3]:
  4-wise independent sign hashes, means of groups of rows, median of group
  means.  This is the static F2 algorithm the robust wrappers transform.

Both are linear sketches and therefore support turnstile updates.
"""

from __future__ import annotations

import copy
import math

import numpy as np

from repro.hashing.kwise import KWiseSignHash
from repro.sketches.base import (
    Sketch,
    aggregate_batch,
    as_batch_arrays,
    spawn_rngs,
)
from repro.sketches.stacking import SketchStack, stack_rows


class AMSFullSketch(Sketch):
    """Fully independent AMS: ``S`` stored explicitly, estimate ``|Sf|^2``.

    Parameters
    ----------
    t:
        Number of rows; the static guarantee is a (1 ± eps) estimate with
        constant probability for ``t = Theta(1/eps^2)``.
    n:
        Universe size (the matrix has ``n`` columns).
    rng:
        Source of the Rademacher entries.

    Notes
    -----
    ``space_bits`` charges only the sketch vector ``y = Sf`` (t words): in
    the streaming model the matrix is random-oracle/PRG-derived state, and
    the attack of Section 9 does not depend on how S is stored.  The
    explicit matrix here is a simulation device.
    """

    supports_deletions = True
    aggregation_invariant = True

    def __init__(self, t: int, n: int, rng: np.random.Generator):
        if t < 1:
            raise ValueError(f"rows t must be >= 1, got {t}")
        if n < 1:
            raise ValueError(f"universe n must be >= 1, got {n}")
        self.t = t
        self.n = n
        signs = rng.integers(0, 2, size=(t, n)).astype(np.float64) * 2.0 - 1.0
        self._S = signs / math.sqrt(t)
        self._y = np.zeros(t, dtype=np.float64)

    def update(self, item: int, delta: int = 1) -> None:
        if not 0 <= item < self.n:
            raise ValueError(f"item {item} outside [0, {self.n})")
        self._y += self._S[:, item] * float(delta)

    def update_batch(self, items, deltas=None) -> None:
        """Linear-sketch batch: ``y += S[:, items] @ deltas`` on aggregates.

        Identical to the per-item path up to floating-point summation
        order (the matmul accumulates per column, the loop per update).
        """
        items, deltas = as_batch_arrays(items, deltas)
        if len(items) == 0:
            return
        if int(items.min()) < 0 or int(items.max()) >= self.n:
            raise ValueError(f"batch contains items outside [0, {self.n})")
        unique, summed = aggregate_batch(items, deltas)
        self._y += self._S[:, unique] @ summed.astype(np.float64)

    def snapshot(self) -> "AMSFullSketch":
        """Cheap snapshot: share the (fixed) matrix S, copy the sketch y."""
        clone = copy.copy(self)
        clone._y = self._y.copy()
        return clone

    def merge(self, other: "AMSFullSketch") -> None:
        """Add another partial's sketch vector (``S(f + g) = Sf + Sg``)."""
        if not isinstance(other, AMSFullSketch) or other._y.shape != self._y.shape:
            raise ValueError("can only merge AMSFull partials of the same shape")
        self._y += other._y

    def empty_like(self) -> "AMSFullSketch":
        """Zero sketch vector, same projection matrix S."""
        clone = copy.copy(self)
        clone._y = np.zeros_like(self._y)
        return clone

    def query(self) -> float:
        """The AMS estimate ``|Sf|_2^2`` of ``F2 = |f|_2^2``."""
        return float(self._y @ self._y)

    def column(self, item: int) -> np.ndarray:
        """The column ``S e_item`` (used by the attack's analysis/tests)."""
        return self._S[:, item].copy()

    def space_bits(self) -> int:
        return self.t * 64


class AMSSketch(Sketch):
    """Classical AMS with 4-wise signs and median-of-means amplification.

    ``groups`` independent groups of ``rows_per_group`` rows each; a row
    maintains ``y_r = sum_i f_i s_r(i)`` with a 4-wise sign hash ``s_r``.
    The estimate is the median over groups of the mean of ``y_r^2`` within
    the group — a (1 ± eps) approximation of F2 with failure probability
    ``exp(-Omega(groups))`` when ``rows_per_group = Theta(1/eps^2)``.
    """

    supports_deletions = True
    aggregation_invariant = True
    stackable = True

    @classmethod
    def make_stack(cls, sketches):
        return AMSStack(sketches)

    def __init__(
        self,
        rows_per_group: int,
        groups: int,
        rng: np.random.Generator,
        sign_independence: int = 4,
    ):
        if rows_per_group < 1 or groups < 1:
            raise ValueError("rows_per_group and groups must both be >= 1")
        self.rows_per_group = rows_per_group
        self.groups = groups
        total = rows_per_group * groups
        self._signs = [
            KWiseSignHash(sign_independence, r) for r in spawn_rngs(rng, total)
        ]
        self._y = np.zeros(total, dtype=np.float64)
        # Simulation-only memos of per-item sign columns (not charged).
        # The dict serves the scalar path; the batched path uses a dense
        # item-indexed int8 matrix so gathers stay in NumPy.
        self._sign_cache: dict[int, np.ndarray] = {}
        self._batch_cols: np.ndarray | None = None  # (capacity, total) int8
        self._batch_seen: np.ndarray | None = None
        #: Dense-cache budget in int8 entries (~64 MB); batches over larger
        #: universes fall back to the dict memo.
        self._dense_cache_limit = 64 * (1 << 20)

    @classmethod
    def for_accuracy(
        cls, eps: float, delta: float, rng: np.random.Generator,
        mean_constant: float = 6.0, median_constant: float = 4.0,
    ) -> "AMSSketch":
        """Size the sketch for a (1 ± eps) estimate w.p. 1 - delta.

        ``rows_per_group = mean_constant / eps^2`` (Chebyshev) and
        ``groups = median_constant * ln(1/delta)`` (Chernoff on the median).
        """
        if not 0 < eps < 1:
            raise ValueError(f"eps must be in (0,1), got {eps}")
        if not 0 < delta < 1:
            raise ValueError(f"delta must be in (0,1), got {delta}")
        rows = max(1, math.ceil(mean_constant / eps**2))
        groups = max(1, math.ceil(median_constant * math.log(1.0 / delta)))
        # An even group count makes the median an average of two central
        # values; keep it odd for a clean order statistic.
        if groups % 2 == 0:
            groups += 1
        return cls(rows, groups, rng)

    def update(self, item: int, delta: int = 1) -> None:
        col = self._sign_cache.get(item)
        if col is None:
            col = np.array([s(item) for s in self._signs], dtype=np.float64)
            self._sign_cache[item] = col
        self._y += col * float(delta)

    def _signs_matrix(self, items: np.ndarray) -> np.ndarray:
        """(len(items), total_rows) ±1 sign matrix, vectorized per family."""
        cols = np.empty((len(items), len(self._y)), dtype=np.float64)
        for j, sign in enumerate(self._signs):
            cols[:, j] = sign.sign_many(items)
        return cols

    def _columns_many(self, items: np.ndarray) -> np.ndarray:
        """(len(items), total_rows) sign matrix for *non-negative* items.

        Uncached items are hashed one sign family at a time but vectorized
        across the whole batch, so each item is still hashed exactly once
        over its lifetime — the same amortized cost as the per-item path,
        paid in array-sized strides.  Small universes use a dense
        item-indexed int8 memo so the gather itself is a NumPy fancy
        index; larger ones fall back to the per-item dict memo.
        """
        total = len(self._y)
        max_item = int(items.max())
        if (max_item + 1) * total <= self._dense_cache_limit:
            if self._batch_cols is None or self._batch_cols.shape[0] <= max_item:
                capacity = max(2 * (max_item + 1), 1024)
                cols = np.zeros((capacity, total), dtype=np.int8)
                seen = np.zeros(capacity, dtype=bool)
                if self._batch_cols is not None:
                    cols[: self._batch_cols.shape[0]] = self._batch_cols
                    seen[: self._batch_seen.shape[0]] = self._batch_seen
                self._batch_cols, self._batch_seen = cols, seen
            fresh = items[~self._batch_seen[items]]
            if len(fresh):
                self._batch_cols[fresh] = self._signs_matrix(fresh).astype(
                    np.int8
                )
                self._batch_seen[fresh] = True
            return self._batch_cols[items].astype(np.float64)
        cols = np.empty((len(items), total), dtype=np.float64)
        missing = []
        for pos, item in enumerate(items.tolist()):
            cached = self._sign_cache.get(item)
            if cached is None:
                missing.append(pos)
            else:
                cols[pos] = cached
        if missing:
            cols[missing] = self._signs_matrix(items[missing])
            for pos in missing:
                self._sign_cache[int(items[pos])] = cols[pos].copy()
        return cols

    def update_batch(self, items, deltas=None) -> None:
        """Batch the linear map: one matmul per chunk instead of m adds.

        Identical to the per-item path up to floating-point summation
        order.
        """
        items, deltas = as_batch_arrays(items, deltas)
        if len(items) == 0:
            return
        if int(items.min()) < 0:
            raise ValueError("AMS items must be non-negative")
        unique, summed = aggregate_batch(items, deltas)
        cols = self._columns_many(unique)
        self._y += cols.T @ summed.astype(np.float64)

    def snapshot(self) -> "AMSSketch":
        """Cheap snapshot: copy the counters, share the sign memos.

        The memo caches hold deterministic values derived from the fixed
        hash functions, so sharing them between the live sketch and a
        snapshot is safe — any writer stores the same entries.
        """
        clone = copy.copy(self)
        clone._y = self._y.copy()
        return clone

    def merge(self, other: "AMSSketch") -> None:
        """Add another partial's counter vector (the sketch map is linear)."""
        if not isinstance(other, AMSSketch) or other._y.shape != self._y.shape:
            raise ValueError("can only merge AMS partials of the same shape")
        self._y += other._y

    def empty_like(self) -> "AMSSketch":
        """Zero counters, same sign hashes and memo caches."""
        clone = copy.copy(self)
        clone._y = np.zeros_like(self._y)
        return clone

    def query(self) -> float:
        sq = self._y * self._y
        means = sq.reshape(self.groups, self.rows_per_group).mean(axis=1)
        return float(np.median(means))

    def query_l2(self) -> float:
        """Estimate of the norm ``|f|_2`` (sqrt of the F2 estimate)."""
        return math.sqrt(max(self.query(), 0.0))

    def space_bits(self) -> int:
        counters = len(self._y) * 64
        hashes = sum(s.space_bits() for s in self._signs)
        return counters + hashes


class _AMSPrep:
    """A chunk aggregated once; per-plane sign columns gather lazily."""

    __slots__ = ("unique", "summed_f", "cols")

    def __init__(self, unique, summed_f):
        self.unique = unique
        self.summed_f = summed_f
        self.cols = {}  # plane -> (distinct, total) float64 sign columns


class AMSStack(SketchStack):
    """Stacked accumulators for k AMS copies: one ``(k, total_rows)``
    float64 block with vectorized median-of-means over all planes.

    The per-plane matmul ``y += cols.T @ summed`` is kept at exactly the
    object path's shapes so BLAS accumulation order (and hence the bits)
    cannot change; the shared work is the chunk aggregation/validation,
    the stacked snapshot, and the one-pass ``query_all`` reduction.  Sign
    columns amortize through each template's dense memo, exactly as on
    the object path.
    """

    def _adopt(self):
        first = self.sketches[0]
        self.rows_per_group = first.rows_per_group
        self.groups = first.groups
        total = len(first._y)
        for s in self.sketches:
            if s.rows_per_group != self.rows_per_group or s.groups != self.groups:
                raise ValueError("cannot stack AMS copies of mixed shape")
        self.total = total
        self.ys = stack_rows([s._y for s in self.sketches])
        for p, s in enumerate(self.sketches):
            s._y = self.ys[p]

    def prepare(self, items, deltas=None):
        items, deltas = as_batch_arrays(items, deltas)
        if len(items) == 0:
            return None
        if int(items.min()) < 0:
            raise ValueError("AMS items must be non-negative")
        unique, summed = aggregate_batch(items, deltas)
        return _AMSPrep(unique, summed.astype(np.float64))

    def refresh(self, prepared, plane: int) -> None:
        prepared.cols.pop(plane, None)  # regathered lazily on next feed

    def feed(self, prepared, planes) -> None:
        if prepared is None:
            return
        for p in planes:
            cols = prepared.cols.get(p)
            if cols is None:
                cols = self.sketches[p]._columns_many(prepared.unique)
                prepared.cols[p] = cols
            self.ys[p] += cols.T @ prepared.summed_f

    def query_all(self) -> np.ndarray:
        sq = self.ys * self.ys
        means = sq.reshape(self.planes, self.groups, self.rows_per_group).mean(
            axis=2
        )
        return np.median(means, axis=1)

    def install(self, plane: int, sketch) -> None:
        if sketch._y.shape != self.ys[plane].shape:
            raise ValueError("cannot install an AMS sketch of different shape")
        self.ys[plane] = sketch._y
        sketch._y = self.ys[plane]
        self.sketches[plane] = sketch

    def save(self, planes):
        sel = np.asarray(planes, dtype=np.intp)
        return sel, self.ys[sel]

    def restore(self, saved) -> None:
        sel, ys = saved
        self.ys[sel] = ys

    def detach(self) -> None:
        for p, s in enumerate(self.sketches):
            s._y = self.ys[p].copy()
