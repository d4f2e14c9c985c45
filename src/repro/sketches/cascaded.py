"""Cascaded norms of matrix streams (the Section 3 remark after Cor 3.5).

For a matrix ``A`` receiving coordinate-wise updates, the (p, k) cascaded
norm is ``|A|_(p,k) = ( sum_i ( sum_j |A_ij|^k )^(p/k) )^(1/p)`` — the Lp
norm of the vector of row Lk norms.  The paper notes that Proposition 3.4
applies to cascaded norms of insertion-only matrix streams (they are
monotone with poly(n d M) range), so both robustification frameworks
carry over, using e.g. the static cascaded sketches of [24].

This module provides the pieces needed to exercise that remark end to
end:

* :class:`ExactCascadedNorm` — exact baseline;
* :class:`CascadedNormSketch` — a simplified static estimator: one
  p-stable row-norm sketch per *touched* row (faithful interface, not
  [24]'s nested-sketch space bound; documented substitution);
* :class:`RobustCascadedNorm` — sketch switching over the above with the
  :func:`repro.core.flip_number.cascaded_norm_flip_number_bound` budget.

Matrix entries are addressed through flattened item ids
``item = row * num_cols + col`` so everything speaks the standard stream
``Update`` vocabulary.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.bands import MultiplicativeBand
from repro.core.sketch_switching import SwitchingEstimator, restart_ring_size
from repro.sketches.base import Sketch, spawn_rngs
from repro.sketches.stable import PStableSketch
from repro.streams.frequency import FrequencyVector


def flatten_index(row: int, col: int, num_cols: int) -> int:
    """Matrix coordinate -> stream item id."""
    if col < 0 or col >= num_cols:
        raise ValueError(f"column {col} outside [0, {num_cols})")
    if row < 0:
        raise ValueError(f"row must be >= 0, got {row}")
    return row * num_cols + col


def unflatten_index(item: int, num_cols: int) -> tuple[int, int]:
    """Stream item id -> matrix coordinate."""
    return divmod(item, num_cols)


class ExactCascadedNorm(Sketch):
    """Exact ``|A|_(p,k)`` from the full matrix (deterministic baseline)."""

    supports_deletions = True

    def __init__(self, p: float, k: float, num_cols: int):
        if p <= 0 or k <= 0:
            raise ValueError("cascaded orders p, k must be positive")
        if num_cols < 1:
            raise ValueError(f"num_cols must be >= 1, got {num_cols}")
        self.p = p
        self.k = k
        self.num_cols = num_cols
        self._rows: dict[int, FrequencyVector] = {}

    def update(self, item: int, delta: int = 1) -> None:
        row, col = unflatten_index(item, self.num_cols)
        if row not in self._rows:
            self._rows[row] = FrequencyVector()
        self._rows[row].update(col, delta)

    def query(self) -> float:
        total = 0.0
        for vec in self._rows.values():
            row_norm = vec.lp(self.k)
            total += row_norm**self.p
        return total ** (1.0 / self.p)

    def space_bits(self) -> int:
        entries = sum(v.support_size for v in self._rows.values())
        return max(64, entries * 128)


class CascadedNormSketch(Sketch):
    """Static (p, k) cascaded-norm estimator via per-row Lk sketches.

    Each touched row gets a small p-stable Lk sketch; the query combines
    the row-norm estimates with the outer Lp sum.  The interface and
    estimator structure match [24]; the space grows with the number of
    touched rows rather than [24]'s nested-sketch bound — recorded as a
    substitution in DESIGN.md (the robustness wrapper consumes only the
    tracking interface, which is what the Section 3 remark needs).
    """

    supports_deletions = True

    def __init__(
        self,
        p: float,
        k: float,
        num_cols: int,
        rows_per_sketch: int,
        rng: np.random.Generator,
    ):
        if not 0 < k <= 2:
            raise ValueError(f"inner order k must be in (0, 2], got {k}")
        if p <= 0:
            raise ValueError(f"outer order p must be positive, got {p}")
        self.p = p
        self.k = k
        self.num_cols = num_cols
        self.rows_per_sketch = rows_per_sketch
        self._seed_rng = rng
        self._sketches: dict[int, PStableSketch] = {}

    def _row_sketch(self, row: int) -> PStableSketch:
        sketch = self._sketches.get(row)
        if sketch is None:
            sketch = PStableSketch(
                self.k, self.rows_per_sketch,
                seed=int(self._seed_rng.integers(0, 2**62)),
            )
            self._sketches[row] = sketch
        return sketch

    def update(self, item: int, delta: int = 1) -> None:
        row, col = unflatten_index(item, self.num_cols)
        self._row_sketch(row).update(col, delta)

    def query(self) -> float:
        total = 0.0
        for sketch in self._sketches.values():
            total += sketch.query() ** self.p
        return total ** (1.0 / self.p)

    def space_bits(self) -> int:
        return max(64, sum(s.space_bits() for s in self._sketches.values()))


class RobustCascadedNorm(Sketch):
    """Adversarially robust cascaded-norm tracking (Section 3 remark).

    Sketch switching over :class:`CascadedNormSketch` copies with the
    Proposition 3.4 flip budget instantiated for cascaded norms.
    """

    supports_deletions = False

    def __init__(
        self,
        p: float,
        k: float,
        num_rows: int,
        num_cols: int,
        m: int,
        eps: float,
        rng: np.random.Generator,
        copies: int | None = None,
        rows_per_sketch: int | None = None,
    ):
        if not 0 < eps < 1:
            raise ValueError(f"eps must be in (0,1), got {eps}")
        self.p = p
        self.k = k
        self.num_cols = num_cols
        self.eps = eps
        if copies is None:
            copies = restart_ring_size(eps, constant=1.0)
        if rows_per_sketch is None:
            rows_per_sketch = max(16, math.ceil(24.0 / (eps * eps)))
        inner_rows = rows_per_sketch

        def factory(child: np.random.Generator) -> CascadedNormSketch:
            return CascadedNormSketch(p, k, num_cols, inner_rows, child)

        self._switcher = SwitchingEstimator(
            factory, copies=copies, rng=rng, band=MultiplicativeBand(eps),
            restart=True,
        )

    @property
    def switches(self) -> int:
        return self._switcher.switches

    def update(self, item: int, delta: int = 1) -> None:
        self._switcher.update(item, delta)

    def update_entry(self, row: int, col: int, delta: int = 1) -> None:
        """Matrix-coordinate convenience wrapper."""
        self.update(flatten_index(row, col, self.num_cols), delta)

    def query(self) -> float:
        return self._switcher.query()

    def space_bits(self) -> int:
        return self._switcher.space_bits()
