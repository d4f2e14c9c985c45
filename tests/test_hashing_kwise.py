"""Tests for the k-wise independent hash families."""

import numpy as np
import pytest

from repro.hashing.field import MERSENNE_P, poly_eval
from repro.hashing.kwise import KWiseHash, KWiseSignHash, TabulationHash


class TestKWiseHash:
    def test_deterministic(self):
        h1 = KWiseHash(4, np.random.default_rng(7))
        h2 = KWiseHash(4, np.random.default_rng(7))
        for x in (0, 1, 999, 123456):
            assert h1(x) == h2(x)

    def test_output_range(self):
        h = KWiseHash(3, np.random.default_rng(0), out_bits=16)
        values = [h(x) for x in range(500)]
        assert all(0 <= v < 2**16 for v in values)

    def test_distinct_seeds_differ(self):
        h1 = KWiseHash(4, np.random.default_rng(1))
        h2 = KWiseHash(4, np.random.default_rng(2))
        assert any(h1(x) != h2(x) for x in range(32))

    def test_roughly_uniform(self):
        h = KWiseHash(2, np.random.default_rng(3), out_bits=8)
        counts = np.bincount([h(x) for x in range(8000)], minlength=256)
        # Mean 31.25 per bucket; allow generous Chernoff-style slack.
        assert counts.max() < 90
        assert counts.min() > 2

    def test_pairwise_collision_rate(self):
        h = KWiseHash(2, np.random.default_rng(4), out_bits=12)
        values = [h(x) for x in range(1000)]
        collisions = len(values) - len(set(values))
        # Expected ~ C(1000,2)/4096 ~ 122; allow wide slack.
        assert collisions < 400

    def test_hash_many_matches_scalar(self):
        h = KWiseHash(5, np.random.default_rng(5), out_bits=32)
        xs = np.array([3, 99, 12345, 0], dtype=np.int64)
        assert list(h.hash_many(xs)) == [h(int(x)) for x in xs]

    def test_call_matches_poly_eval(self):
        """The inlined scalar Horner loop is ``poly_eval``, truncated."""
        xs = [0, 1, 2, 2**32 - 1, 2**32, 2**40 + 7, MERSENNE_P - 1, 10**30]
        xs += np.random.default_rng(6).integers(0, 2**62, size=64).tolist()
        for k in (1, 2, 8):
            for out_bits in (61, 20):
                h = KWiseHash(k, np.random.default_rng(k), out_bits=out_bits)
                for x in xs:
                    assert h(x) == poly_eval(h._coeffs, x) >> (61 - out_bits)

    def test_invalid_args(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            KWiseHash(0, rng)
        with pytest.raises(ValueError):
            KWiseHash(2, rng, out_bits=0)
        with pytest.raises(ValueError):
            KWiseHash(2, rng, out_bits=62)

    def test_space_accounting(self):
        h = KWiseHash(4, np.random.default_rng(0))
        assert h.space_bits() == 4 * 61


class TestKWiseSignHash:
    def test_outputs_plus_minus_one(self):
        s = KWiseSignHash(4, np.random.default_rng(0))
        assert set(s(x) for x in range(200)) <= {-1, 1}

    def test_roughly_balanced(self):
        s = KWiseSignHash(4, np.random.default_rng(1))
        total = sum(s(x) for x in range(4000))
        assert abs(total) < 400  # ~6 sigma for fair signs


class TestTabulationHash:
    def test_deterministic_and_range(self):
        t1 = TabulationHash(np.random.default_rng(9), out_bits=20)
        t2 = TabulationHash(np.random.default_rng(9), out_bits=20)
        for x in (0, 1, 77, 2**31 - 1):
            assert t1(x) == t2(x)
            assert 0 <= t1(x) < 2**20

    def test_invalid_out_bits(self):
        with pytest.raises(ValueError):
            TabulationHash(np.random.default_rng(0), out_bits=65)


class TestVectorizedHashing:
    def test_hash_many_matches_scalar(self):
        rng = np.random.default_rng(0)
        xs = np.concatenate([
            rng.integers(0, 2**40, size=512),
            np.array([0, 1, 2, (1 << 61) - 2]),
        ])
        for k in (1, 2, 4, 8):
            for out_bits in (61, 32, 16):
                h = KWiseHash(k, np.random.default_rng(k), out_bits=out_bits)
                scalar = np.array([h(int(x)) for x in xs], dtype=np.uint64)
                assert np.array_equal(h.hash_many(xs), scalar), (k, out_bits)

    def test_sign_many_matches_scalar(self):
        rng = np.random.default_rng(1)
        xs = rng.integers(0, 2**40, size=512)
        s = KWiseSignHash(4, np.random.default_rng(2))
        scalar = np.array([s(int(x)) for x in xs], dtype=np.float64)
        assert np.array_equal(s.sign_many(xs), scalar)
        assert set(np.unique(s.sign_many(xs))) <= {-1.0, 1.0}
