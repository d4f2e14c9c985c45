"""Tests for the distinct-elements sketches: KMV, fast level lists, HLL."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sketches.fast_f0 import FastF0Sketch
from repro.sketches.hll import HyperLogLog
from repro.sketches.kmv import KMVSketch


class TestKMV:
    def test_exact_small_regime(self):
        k = KMVSketch(64, np.random.default_rng(0))
        for i in range(30):
            k.update(i)
        assert k.query() == 30.0

    def test_accuracy_large_regime(self):
        errors = []
        for seed in range(8):
            k = KMVSketch(256, np.random.default_rng(seed))
            for i in range(5000):
                k.update(i)
            errors.append(abs(k.query() - 5000) / 5000)
        assert float(np.median(errors)) < 0.15

    def test_duplicates_never_change_state(self):
        """The Theorem 10.1 property: re-inserting old items is a no-op."""
        k = KMVSketch(16, np.random.default_rng(1))
        for i in range(100):
            k.update(i)
        before = k.state_fingerprint()
        for i in range(100):
            k.update(i)  # all duplicates
        assert k.state_fingerprint() == before

    @given(st.lists(st.integers(0, 50), min_size=1, max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_estimate_depends_only_on_distinct_set(self, items):
        k1 = KMVSketch(8, np.random.default_rng(2))
        k2 = KMVSketch(8, np.random.default_rng(2))
        for x in items:
            k1.update(x)
        for x in sorted(set(items)):
            k2.update(x)
        assert k1.query() == k2.query()
        assert k1.state_fingerprint() == k2.state_fingerprint()

    def test_monotone_in_distinct_count(self):
        k = KMVSketch(32, np.random.default_rng(3))
        estimates = []
        for i in range(2000):
            k.update(i)
            estimates.append(k.query())
        # Bottom-k estimates are non-decreasing on fresh-item streams.
        assert all(b >= a - 1e-9 for a, b in zip(estimates, estimates[1:]))

    def test_for_accuracy_sizing(self):
        k = KMVSketch.for_accuracy(0.1, 0.05, np.random.default_rng(4))
        assert k.k >= 1 / 0.1**2

    def test_rejects_deletions(self):
        with pytest.raises(ValueError):
            KMVSketch(4, np.random.default_rng(0)).update(1, -1)

    def test_fresh_sketches_share_no_state(self):
        """Fresh states start as one shared read-only sentinel row; every
        write path must copy it out instead of writing through it."""
        a, b, c, d = (KMVSketch(8, np.random.default_rng(i)) for i in range(4))
        a.update(5)
        b.update_batch(np.arange(20))
        c.merge(b)
        for sketch, size in ((a, 1), (b, 8), (c, 8), (d, 0)):
            assert len(sketch.state_fingerprint()) == size
        assert d.query() == 0.0 and d.empty_like().query() == 0.0

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            KMVSketch(1, np.random.default_rng(0))


class TestFastF0:
    def test_exact_before_saturation(self):
        f = FastF0Sketch(n=1 << 12, eps=0.3, delta=0.1, rng=np.random.default_rng(5))
        for i in range(50):
            f.update(i)
            assert f.query() == float(i + 1)

    def test_accuracy_after_saturation(self):
        errors = []
        for seed in range(6):
            f = FastF0Sketch(n=1 << 14, eps=0.2, delta=0.05,
                             rng=np.random.default_rng(seed))
            for i in range(6000):
                f.update(i)
            errors.append(abs(f.query() - 6000) / 6000)
        assert max(errors) < 0.25
        assert float(np.median(errors)) < 0.1

    def test_duplicates_do_not_inflate(self):
        f = FastF0Sketch(n=1 << 12, eps=0.25, delta=0.1,
                         rng=np.random.default_rng(6))
        for _ in range(10):
            for i in range(500):
                f.update(i)
        assert f.query() == pytest.approx(500, rel=0.3)

    def test_batched_mode_matches_semantics(self):
        direct = FastF0Sketch(n=1 << 10, eps=0.3, delta=0.1,
                              rng=np.random.default_rng(7), batch=False)
        batched = FastF0Sketch(n=1 << 10, eps=0.3, delta=0.1,
                               rng=np.random.default_rng(7), batch=True)
        for i in range(800):
            direct.update(i)
            batched.update(i)
        # Different hash polynomials, same estimator: both near truth.
        assert direct.query() == pytest.approx(800, rel=0.3)
        assert batched.query() == pytest.approx(800, rel=0.3)

    def test_batched_delay_bounded(self):
        f = FastF0Sketch(n=1 << 10, eps=0.3, delta=0.1,
                         rng=np.random.default_rng(8), batch=True)
        for i in range(3):
            f.update(i)
        # Pending items are still counted exactly via the pending buffer.
        assert f.query() == 3.0

    def test_space_depends_on_delta(self):
        small = FastF0Sketch(n=1 << 12, eps=0.2, delta=0.1,
                             rng=np.random.default_rng(9))
        tiny = FastF0Sketch(n=1 << 12, eps=0.2, delta=2.0**-30,
                            rng=np.random.default_rng(9))
        assert tiny.B > small.B
        assert tiny.d > small.d

    def test_rejects_deletions(self):
        f = FastF0Sketch(n=16, eps=0.5, delta=0.1, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            f.update(1, -1)

    def test_invalid_params(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            FastF0Sketch(n=1, eps=0.2, delta=0.1, rng=rng)
        with pytest.raises(ValueError):
            FastF0Sketch(n=16, eps=0.0, delta=0.1, rng=rng)
        with pytest.raises(ValueError):
            FastF0Sketch(n=16, eps=0.2, delta=0.0, rng=rng)


class TestHyperLogLog:
    def test_accuracy(self):
        errors = []
        for seed in range(6):
            h = HyperLogLog(b=10, rng=np.random.default_rng(seed))
            for i in range(20_000):
                h.update(i)
            errors.append(abs(h.query() - 20_000) / 20_000)
        assert float(np.median(errors)) < 0.12

    def test_small_range_linear_counting(self):
        h = HyperLogLog(b=8, rng=np.random.default_rng(10))
        for i in range(40):
            h.update(i)
        assert h.query() == pytest.approx(40, rel=0.3)

    def test_duplicate_insensitive(self):
        h = HyperLogLog(b=6, rng=np.random.default_rng(11))
        for i in range(1000):
            h.update(i)
        snapshot = h._registers.copy()
        for i in range(1000):
            h.update(i)
        assert np.array_equal(h._registers, snapshot)

    def test_for_accuracy_sizing(self):
        h = HyperLogLog.for_accuracy(0.05, np.random.default_rng(12))
        assert 1.04 / np.sqrt(h.m_registers) <= 0.06

    def test_invalid_b(self):
        with pytest.raises(ValueError):
            HyperLogLog(b=2, rng=np.random.default_rng(0))
