"""Small kernels the stacked copy groups share, pinned bit for bit.

* ``row_median`` — the sort-and-index median the stacked CountSketch
  reduction and the DP aggregate use — equals ``np.median`` over the
  last axis, odd and even lengths, infinities and NaN rows included;
* ``CountSketchStack._cells`` — the stacked bucket and sign pass — equals
  every copy's per-object ``_bucket`` and ``sign_many``, for
  power-of-two widths (a mask) and other widths (a modulus);
* ``KMVStack.prepare`` with the dedupe hint builds the same prep, and
  feeds the same states, as the deduping prepare, and the backend passes
  the hint for a seen filter's fresh items.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.copies import CopyManager, LocalCopyBackend
from repro.sketches import kmv
from repro.sketches.base import row_median
from repro.sketches.countsketch import CountSketch
from repro.sketches.kmv import KMVSketch

_VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, width=64),
    st.sampled_from([0.0, 1.0, 2.0, 1e300, -1e300]),
)


def _bits(values) -> np.ndarray:
    # Signed zeros compare equal and np.median does not order them, so
    # both medians see +0.0 only; everything else is compared bitwise.
    values = np.asarray(values, dtype=np.float64) + 0.0
    return values.view(np.uint64)


class TestRowMedian:
    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.integers(1, 6),
        width=st.integers(1, 30),
        data=st.data(),
    )
    def test_matches_np_median(self, rows, width, data):
        flat = data.draw(st.lists(_VALUES, min_size=rows * width,
                                  max_size=rows * width))
        values = np.array(flat, dtype=np.float64).reshape(rows, width)
        values += 0.0
        with np.errstate(invalid="ignore", over="ignore"):
            want = np.median(values, axis=-1)
            got = row_median(values)
        assert np.array_equal(_bits(got), _bits(want))
        with np.errstate(invalid="ignore", over="ignore"):
            one_want = np.median(values[0])
            one_got = row_median(values[0])
        assert type(one_got) is type(one_want)
        assert _bits(one_got) == _bits(one_want)

    def test_three_dimensional_rows(self):
        values = np.random.default_rng(0).normal(size=(7, 24, 5))
        values[3, 2, 1] = np.nan
        assert np.array_equal(row_median(values), np.median(values, axis=-1),
                              equal_nan=True)


class TestStackedColumns:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        width=st.one_of(st.sampled_from([1, 2, 64, 256]),
                        st.integers(3, 300)),
        rows=st.integers(1, 5),
        items=st.lists(st.integers(0, 2**40), min_size=1, max_size=60,
                       unique=True),
    )
    def test_matches_per_object_hashes(self, seed, width, rows, items):
        manager = CopyManager(
            lambda rng: CountSketch(width, rows, rng, track_candidates=0),
            3, np.random.default_rng(seed),
        )
        stack = manager.stacks[0]
        xs = np.array(sorted(items), dtype=np.int64)
        cells, signs = stack._cells(stack._all_planes, xs)
        offsets = stack._row_offsets(stack._all_planes)
        for p, sketch in enumerate(manager.sketches):
            for r in range(rows):
                buckets = [sketch._bucket(r, x) for x in xs.tolist()]
                assert (cells[p, r] - offsets[p, r]).tolist() == buckets
                want = sketch._signs[r].sign_many(xs)
                assert np.array_equal(signs[p, r].view(np.uint64),
                                      want.view(np.uint64))


class TestKMVUniqueHint:
    @staticmethod
    def _manager():
        return CopyManager(lambda rng: KMVSketch(16, rng), 5,
                           np.random.default_rng(4))

    def test_hinted_prep_feeds_like_the_deduped_one(self):
        fresh = np.unique(np.random.default_rng(1).integers(0, 10**6, 300))
        a, b = self._manager(), self._manager()
        sa, sb = a.stacks[0], b.stacks[0]
        hinted = sa.prepare(fresh, None, assume_unique=True)
        deduped = sb.prepare(fresh, None)
        assert np.array_equal(hinted.unique, deduped.unique)
        assert np.array_equal(hinted.hashes, deduped.hashes)
        sa.feed(hinted, range(5))
        sb.feed(deduped, range(5))
        assert np.array_equal(sa.mins, sb.mins)

    def test_backend_passes_the_hint(self, monkeypatch):
        hints = []
        prepare = kmv.KMVStack.prepare

        def spy(self, items, deltas=None, **kwargs):
            hints.append(kwargs.get("assume_unique", False))
            return prepare(self, items, deltas, **kwargs)

        monkeypatch.setattr(kmv.KMVStack, "prepare", spy)
        fresh = np.arange(0, 600, 3, dtype=np.int64)
        a, b = self._manager(), self._manager()
        hinted = LocalCopyBackend(a, unique_hint=True)
        plain = LocalCopyBackend(b)
        for backend in (hinted, plain):
            backend.stage(fresh, np.ones(len(fresh), dtype=np.int64))
            backend.probe_sub(fresh, None, True, (0, 1))
            backend.keep_probed((0, 1))
            backend.feed_sub((2, 3, 4))
        assert hints == [True, False]
        assert np.array_equal(a.stacks[0].mins, b.stacks[0].mins)
