"""Prime-field arithmetic over the Mersenne prime 2^61 - 1.

All hash families in :mod:`repro.hashing` evaluate polynomials over a fixed
prime field.  We use the Mersenne prime ``P = 2**61 - 1`` because reduction
modulo a Mersenne prime needs only shifts and masks, which is the standard
choice in production sketch implementations, and because it comfortably
exceeds every universe size used in the experiments (``n <= 2**40``).

Python integers are arbitrary precision, so the arithmetic here is exact.
The functions are written so that a C port could use 128-bit intermediates.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

#: The Mersenne prime 2^61 - 1 used as the field modulus everywhere.
MERSENNE_P: int = (1 << 61) - 1

#: Bit width of a field element.
FIELD_BITS: int = 61

# uint64 constants for the vectorized kernels (plain Python ints promote
# unpredictably across numpy versions; pinned scalars do not).
_P64 = np.uint64(MERSENNE_P)
_MASK32 = np.uint64(0xFFFFFFFF)
_MASK29 = np.uint64((1 << 29) - 1)
_S3 = np.uint64(3)
_S29 = np.uint64(29)
_S32 = np.uint64(32)
_S61 = np.uint64(61)


def mod_mersenne(x: int) -> int:
    """Reduce a non-negative integer modulo ``2**61 - 1``.

    Uses the Mersenne identity ``2**61 === 1 (mod P)`` so the reduction is a
    few shifts instead of a division.  Accepts any ``x < 2**122`` (the result
    of multiplying two field elements).
    """
    x = (x & MERSENNE_P) + (x >> 61)
    # One fold handles x < 2**122; a conditional subtraction finishes it.
    x = (x & MERSENNE_P) + (x >> 61)
    if x >= MERSENNE_P:
        x -= MERSENNE_P
    return x


def field_add(a: int, b: int) -> int:
    """Return ``(a + b) mod P``."""
    s = a + b
    if s >= MERSENNE_P:
        s -= MERSENNE_P
    return s


def field_mul(a: int, b: int) -> int:
    """Return ``(a * b) mod P``."""
    return mod_mersenne(a * b)


def field_pow(a: int, e: int) -> int:
    """Return ``a**e mod P`` by square-and-multiply."""
    return pow(a, e, MERSENNE_P)


def field_inv(a: int) -> int:
    """Return the multiplicative inverse of ``a`` modulo ``P``.

    Raises
    ------
    ZeroDivisionError
        If ``a`` is zero modulo ``P``.
    """
    a %= MERSENNE_P
    if a == 0:
        raise ZeroDivisionError("0 has no inverse in GF(P)")
    return pow(a, MERSENNE_P - 2, MERSENNE_P)


def poly_eval(coefficients: Sequence[int], x: int) -> int:
    """Evaluate a polynomial at ``x`` over GF(P) using Horner's rule.

    ``coefficients`` are given from the constant term upward, i.e.
    ``coefficients[j]`` multiplies ``x**j``.
    """
    acc = 0
    for c in reversed(coefficients):
        acc = mod_mersenne(acc * x + c)
    return acc


def poly_eval_many(coefficients: Sequence[int], xs: Iterable[int]) -> list[int]:
    """Evaluate one polynomial at many points (repeated Horner).

    This is the baseline that :mod:`repro.hashing.multipoint` improves on for
    large batches; for the small degrees used by the sketches it is already
    the fastest option in CPython.
    """
    rev = list(reversed([c % MERSENNE_P for c in coefficients]))
    out = []
    for x in xs:
        acc = 0
        for c in rev:
            acc = mod_mersenne(acc * x + c)
        out.append(acc)
    return out


# ----------------------------------------------------------------------
# Vectorized kernels (the batched-ingestion hot path)
# ----------------------------------------------------------------------

def mod_mersenne_vec(x: np.ndarray) -> np.ndarray:
    """Vectorized :func:`mod_mersenne` for ``uint64`` arrays with ``x < 2**64``."""
    x = (x & _P64) + (x >> _S61)
    x = (x & _P64) + (x >> _S61)
    return np.where(x >= _P64, x - _P64, x)


def field_mul_vec(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vectorized ``(a * b) mod P`` for ``uint64`` arrays of field elements.

    A 61x61-bit product does not fit in 64 bits, so the operands are split
    into 32-bit halves and each partial product is folded with the Mersenne
    identities ``2**64 === 8`` and ``2**61 === 1 (mod P)``.  Every
    intermediate stays strictly below ``2**64``, so uint64 arithmetic is
    exact (no wraparound before the final reduction).
    """
    a_hi = a >> _S32
    a_lo = a & _MASK32
    b_hi = b >> _S32
    b_lo = b & _MASK32
    acc = a_hi * b_hi
    acc <<= _S3  # (a_hi*b_hi) * 2^64 === * 8
    m = a_hi * b_lo  # < 2^61
    acc += m >> _S29  # m * 2^32 folded as (m >> 29) + (m & mask29) << 32
    m &= _MASK29
    m <<= _S32
    acc += m
    np.multiply(a_lo, b_hi, out=a_hi)  # reuse the a_hi buffer; < 2^61
    acc += a_hi >> _S29
    a_hi &= _MASK29
    a_hi <<= _S32
    acc += a_hi
    a_lo *= b_lo  # < 2^64
    acc += a_lo >> _S61
    a_lo &= _P64
    acc += a_lo
    # acc < 5 * 2^61 < 2^64: two folds plus a conditional subtraction.
    acc = (acc & _P64) + (acc >> _S61)
    acc = (acc & _P64) + (acc >> _S61)
    acc -= np.where(acc >= _P64, _P64, np.uint64(0))
    return acc


def _narrow(xs: np.ndarray) -> bool:
    """Whether every point is below ``2**32`` (the narrow Horner kernel)."""
    return xs.size == 0 or int(xs.max()) <= 0xFFFFFFFF


def _mul_add_narrow(acc: np.ndarray, xs: np.ndarray, c, hi, t) -> None:
    """In place: ``acc = (acc * xs + c) mod P`` for points ``xs < 2**32``.

    Splitting the field element ``acc`` at bit 29 leaves two partial
    products instead of :func:`field_mul_vec`'s four: ``lo * x < 2**61``
    needs no fold, and ``hi * x < 2**64`` carries ``2**29`` folded as
    ``(m >> 32) + (m & mask32) << 29`` via ``2**61 === 1 (mod P)``.  The
    sum plus ``c`` stays below ``2**63``, so one fold and one conditional
    subtraction (``min(a, a - P)``: the wrapped difference is huge exactly
    when ``a < P``) give the canonical residue — bit-for-bit the wide
    kernel's.  ``hi`` and ``t`` are scratch buffers shaped like ``acc``.
    """
    np.right_shift(acc, _S29, out=hi)
    hi *= xs  # < 2^32 * 2^32
    acc &= _MASK29
    acc *= xs  # < 2^29 * 2^32
    np.bitwise_and(hi, _MASK32, out=t)
    t <<= _S29
    hi >>= _S32
    acc += t
    acc += hi
    acc += c  # < 2^63
    np.right_shift(acc, _S61, out=t)
    acc &= _P64
    acc += t  # <= P + 3
    np.subtract(acc, _P64, out=t)
    np.minimum(acc, t, out=acc)


def poly_eval_vec(coefficients: Sequence[int], xs: np.ndarray) -> np.ndarray:
    """Evaluate one polynomial at a ``uint64`` array of points over GF(P).

    Horner's rule with :func:`field_mul_vec` (or the two-product narrow
    kernel when every point is below ``2**32``); coefficients are given
    from the constant term upward, exactly as in :func:`poly_eval`.
    Matches :func:`poly_eval` bit-for-bit on every input in ``[0, P)``.
    """
    xs = np.ascontiguousarray(xs, dtype=np.uint64)
    rev = [c % MERSENNE_P for c in reversed(coefficients)]
    # Horner's first round multiplies the (zero) accumulator, so start the
    # accumulator at the leading coefficient directly.
    acc = np.full(xs.shape, np.uint64(rev[0]), dtype=np.uint64)
    if _narrow(xs):
        hi, t = np.empty_like(acc), np.empty_like(acc)
        for c in rev[1:]:
            _mul_add_narrow(acc, xs, np.uint64(c), hi, t)
        return acc
    for c in rev[1:]:
        acc = field_mul_vec(acc, xs)
        acc += np.uint64(c)  # < 2^62: one fold suffices
        acc = (acc & _P64) + (acc >> _S61)
        acc -= np.where(acc >= _P64, _P64, np.uint64(0))
    return acc


def poly_eval_stacked(coeff_matrix: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Evaluate many degree-equal polynomials at the same points, at once.

    ``coeff_matrix`` is a ``(polys, degree)`` uint64 array of field
    elements, constant term upward per row — one row per polynomial.
    Returns a ``(polys, len(xs))`` uint64 array where row ``i`` equals
    ``poly_eval_vec(coeff_matrix[i], xs)`` bit-for-bit: the shared Horner
    recursion runs over a 2-D accumulator, and both multiply kernels are
    elementwise, so stacking rows never changes any row's arithmetic.

    This is the shared-hash-pass kernel for stacked copy groups: the k
    copies of a switching estimator hold k independent hash functions of
    the same degree, and one call here replaces k separate Horner sweeps
    over the same chunk of items.
    """
    coeff_matrix = np.ascontiguousarray(coeff_matrix, dtype=np.uint64)
    if coeff_matrix.ndim != 2 or coeff_matrix.shape[1] < 1:
        raise ValueError(
            f"coeff_matrix must be (polys, degree>=1), got {coeff_matrix.shape}"
        )
    xs = np.ascontiguousarray(xs, dtype=np.uint64)
    rev = coeff_matrix[:, ::-1]
    acc = np.repeat(rev[:, 0:1], len(xs), axis=1)
    if _narrow(xs):
        hi, t = np.empty_like(acc), np.empty_like(acc)
        for j in range(1, rev.shape[1]):
            _mul_add_narrow(acc, xs, rev[:, j : j + 1], hi, t)
        return acc
    for j in range(1, rev.shape[1]):
        acc = field_mul_vec(acc, xs)
        acc += rev[:, j : j + 1]  # < 2^62: one fold suffices
        acc = (acc & _P64) + (acc >> _S61)
        acc -= np.where(acc >= _P64, _P64, np.uint64(0))
    return acc
