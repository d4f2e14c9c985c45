"""Unit and property tests for the Mersenne-prime field arithmetic."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.hashing.field import (
    MERSENNE_P,
    field_add,
    field_inv,
    field_mul,
    field_pow,
    mod_mersenne,
    poly_eval,
    poly_eval_many,
)

elements = st.integers(min_value=0, max_value=MERSENNE_P - 1)


class TestModMersenne:
    def test_small_values_unchanged(self):
        for x in (0, 1, 17, MERSENNE_P - 1):
            assert mod_mersenne(x) == x

    def test_wraps_at_p(self):
        assert mod_mersenne(MERSENNE_P) == 0
        assert mod_mersenne(MERSENNE_P + 5) == 5

    @given(st.integers(min_value=0, max_value=(1 << 122) - 1))
    def test_matches_builtin_mod(self, x):
        assert mod_mersenne(x) == x % MERSENNE_P

    def test_product_of_max_elements(self):
        x = (MERSENNE_P - 1) * (MERSENNE_P - 1)
        assert mod_mersenne(x) == x % MERSENNE_P


class TestFieldOps:
    @given(elements, elements)
    def test_add_matches_mod(self, a, b):
        assert field_add(a, b) == (a + b) % MERSENNE_P

    @given(elements, elements)
    def test_mul_matches_mod(self, a, b):
        assert field_mul(a, b) == (a * b) % MERSENNE_P

    @given(elements.filter(lambda a: a != 0))
    def test_inverse(self, a):
        assert field_mul(a, field_inv(a)) == 1

    def test_inverse_of_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            field_inv(0)

    @given(elements, st.integers(min_value=0, max_value=100))
    def test_pow_matches_builtin(self, a, e):
        assert field_pow(a, e) == pow(a, e, MERSENNE_P)


class TestPolyEval:
    def test_constant(self):
        assert poly_eval([7], 123) == 7

    def test_linear(self):
        # 3 + 5x at x = 10
        assert poly_eval([3, 5], 10) == 53

    @given(
        st.lists(elements, min_size=1, max_size=6),
        st.lists(elements, min_size=1, max_size=5),
    )
    def test_many_matches_single(self, coeffs, xs):
        assert poly_eval_many(coeffs, xs) == [poly_eval(coeffs, x) for x in xs]

    @given(st.lists(elements, min_size=1, max_size=6), elements)
    def test_horner_matches_naive(self, coeffs, x):
        naive = sum(c * pow(x, j, MERSENNE_P) for j, c in enumerate(coeffs))
        assert poly_eval(coeffs, x) == naive % MERSENNE_P


class TestVectorizedKernels:
    """The batched-ingestion kernels match the exact scalar arithmetic."""

    @given(st.lists(elements, min_size=1, max_size=64))
    def test_mod_mersenne_vec(self, xs):
        import numpy as np

        from repro.hashing.field import mod_mersenne_vec

        arr = np.array(xs, dtype=np.uint64)
        expected = np.array([mod_mersenne(x) for x in xs], dtype=np.uint64)
        assert np.array_equal(mod_mersenne_vec(arr), expected)

    @given(
        st.lists(elements, min_size=1, max_size=32),
        st.lists(elements, min_size=1, max_size=32),
    )
    def test_field_mul_vec(self, aa, bb):
        import numpy as np

        from repro.hashing.field import field_mul_vec

        size = min(len(aa), len(bb))
        a = np.array(aa[:size], dtype=np.uint64)
        b = np.array(bb[:size], dtype=np.uint64)
        a_orig, b_orig = a.copy(), b.copy()
        got = field_mul_vec(a, b)
        expected = np.array(
            [field_mul(int(x), int(y)) for x, y in zip(a_orig, b_orig)],
            dtype=np.uint64,
        )
        assert np.array_equal(got, expected)
        # Inputs must not be mutated.
        assert np.array_equal(a, a_orig) and np.array_equal(b, b_orig)

    @given(
        st.lists(elements, min_size=1, max_size=6),
        st.lists(elements, min_size=1, max_size=32),
    )
    def test_poly_eval_vec(self, coeffs, xs):
        import numpy as np

        from repro.hashing.field import poly_eval_vec

        got = poly_eval_vec(coeffs, np.array(xs, dtype=np.uint64))
        assert got.tolist() == poly_eval_many(coeffs, xs)

    def test_boundary_values(self):
        import numpy as np

        from repro.hashing.field import field_mul_vec

        edge = [0, 1, 2, MERSENNE_P - 2, MERSENNE_P - 1]
        a = np.array(edge * len(edge), dtype=np.uint64)
        b = np.repeat(np.array(edge, dtype=np.uint64), len(edge))
        expected = [(int(x) * int(y)) % MERSENNE_P for x, y in zip(a, b)]
        assert field_mul_vec(a, b).tolist() == expected


narrow_points = st.one_of(
    st.sampled_from([0, 1, 2**32 - 1]), st.integers(0, 2**32 - 1)
)
wide_points = st.one_of(
    st.sampled_from([2**32, MERSENNE_P - 1]),
    st.integers(2**32, MERSENNE_P - 1),
)


class TestNarrowHorner:
    """The two-product Horner step for points below 2^32 matches the
    wide four-product kernel, and dispatch falls back on wider points."""

    @given(
        st.lists(elements, min_size=1, max_size=32),
        st.lists(narrow_points, min_size=1, max_size=32),
        elements,
    )
    def test_mul_add_matches_wide_kernel(self, accs, xs, c):
        import numpy as np

        from repro.hashing.field import _mul_add_narrow, field_mul_vec

        size = min(len(accs), len(xs))
        acc = np.array(accs[:size], dtype=np.uint64)
        x = np.array(xs[:size], dtype=np.uint64)
        wide = (field_mul_vec(acc.copy(), x) + np.uint64(c)) % np.uint64(
            MERSENNE_P
        )
        got = acc.copy()
        _mul_add_narrow(got, x, np.uint64(c), np.empty_like(got),
                        np.empty_like(got))
        assert np.array_equal(got, wide)

    @given(
        st.lists(elements, min_size=1, max_size=8),
        st.lists(st.one_of(narrow_points, wide_points), min_size=1,
                 max_size=32),
    )
    def test_poly_eval_dispatch_matches_scalar(self, coeffs, xs):
        import numpy as np

        from repro.hashing.field import poly_eval_stacked, poly_eval_vec

        arr = np.array(xs, dtype=np.uint64)
        expected = poly_eval_many(coeffs, xs)
        assert poly_eval_vec(coeffs, arr).tolist() == expected
        matrix = np.array([coeffs, coeffs[::-1]], dtype=np.uint64)
        stacked = poly_eval_stacked(matrix, arr)
        assert stacked[0].tolist() == expected
        assert stacked[1].tolist() == poly_eval_many(coeffs[::-1], xs)
