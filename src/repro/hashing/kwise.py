"""k-wise independent hash families (Carter--Wegman polynomials).

A degree-``(k-1)`` polynomial with uniformly random coefficients over a prime
field is a k-wise independent function from the field to itself.  All the
sketches take their randomness from this family:

* CountSketch / CountMin rows use pairwise (k=2) bucket hashes and 4-wise
  sign hashes;
* the classic AMS estimator uses 4-wise signs;
* Algorithm 2 of the paper (fast distinct elements) uses a d-wise family with
  ``d = Theta(log log n + log 1/delta)``.

The family maps ``[n] -> [2**out_bits]`` by evaluating the polynomial over
GF(2^61 - 1) and truncating to the requested number of output bits, the
standard construction (the truncation preserves k-wise independence up to a
negligible bias of ``2**out_bits / P``).
"""

from __future__ import annotations

import numpy as np

from repro.hashing.field import (
    FIELD_BITS,
    MERSENNE_P,
    poly_eval_stacked,
    poly_eval_vec,
)

#: ``sign_many_stacked``'s bit mapping: the hash's low bit shifted to the
#: float64 sign bit, XORed with the bit pattern of -1.0.
_SIGN_SHIFT = np.uint64(63)
_MINUS_ONE_BITS = np.uint64(0xBFF0_0000_0000_0000)


class KWiseHash:
    """A single function drawn from a k-wise independent family.

    Parameters
    ----------
    k:
        Independence parameter; the polynomial has degree ``k - 1``.
    rng:
        Source of the random coefficients.
    out_bits:
        Output values are uniform in ``[0, 2**out_bits)``.  Must satisfy
        ``out_bits <= 61``.
    """

    def __init__(self, k: int, rng: np.random.Generator, out_bits: int = FIELD_BITS):
        if k < 1:
            raise ValueError(f"independence k must be >= 1, got {k}")
        if not 1 <= out_bits <= FIELD_BITS:
            raise ValueError(f"out_bits must be in [1, {FIELD_BITS}], got {out_bits}")
        self.k = k
        self.out_bits = out_bits
        # Draw coefficients uniformly from the field.  The leading coefficient
        # is allowed to be zero; that only makes the family larger.
        coeffs = rng.integers(0, MERSENNE_P, size=k, dtype=np.uint64)
        self._coeffs: list[int] = coeffs.tolist()
        self._shift = FIELD_BITS - out_bits

    def __call__(self, x: int) -> int:
        """Hash a single item (inlined Horner; same residues as
        :func:`~repro.hashing.field.poly_eval`)."""
        acc = 0
        for c in reversed(self._coeffs):
            acc = (acc * x + c) % MERSENNE_P
        return acc >> self._shift

    def hash_many(self, xs: np.ndarray) -> np.ndarray:
        """Hash a vector of items, returning ``uint64`` outputs.

        Vectorised Horner evaluation over GF(2^61 - 1) using the split-word
        kernels in :mod:`repro.hashing.field`; bit-for-bit identical to
        mapping :meth:`__call__` over ``xs``.  This is the hot inner loop of
        every ``update_batch`` implementation.
        """
        xs = np.ascontiguousarray(xs, dtype=np.uint64)
        out = poly_eval_vec(self._coeffs, xs)
        if self._shift:
            out = out >> np.uint64(self._shift)
        return out

    def space_bits(self) -> int:
        """Bits needed to store this function (k field elements)."""
        return self.k * FIELD_BITS

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"KWiseHash(k={self.k}, out_bits={self.out_bits})"


def stack_coefficients(hashes) -> np.ndarray:
    """Collect the coefficient rows of degree-equal hashes into one matrix.

    Returns a ``(len(hashes), k)`` uint64 array suitable for
    :func:`hash_many_stacked`.  All hashes must share the same independence
    ``k`` and output truncation — the stacked Horner sweep runs every row
    through the identical recursion, so mixed degrees cannot share a pass.
    """
    hashes = list(hashes)
    if not hashes:
        raise ValueError("need at least one hash to stack")
    k = hashes[0].k
    shift = hashes[0]._shift
    for h in hashes:
        if h.k != k or h._shift != shift:
            raise ValueError("stacked hashes must share k and out_bits")
    return np.array([h._coeffs for h in hashes], dtype=np.uint64)


def hash_many_stacked(hashes, xs: np.ndarray) -> np.ndarray:
    """Evaluate many same-degree :class:`KWiseHash` functions in one pass.

    Returns a ``(len(hashes), len(xs))`` uint64 array whose row ``i`` is
    bit-for-bit identical to ``hashes[i].hash_many(xs)``.  This is the
    shared per-chunk hash pass that stacked copy groups reuse across all
    planes: one Horner sweep over a coefficient matrix instead of one
    NumPy call chain per copy per row.
    """
    hashes = list(hashes)
    coeffs = stack_coefficients(hashes)
    xs = np.ascontiguousarray(xs, dtype=np.uint64)
    out = poly_eval_stacked(coeffs, xs)
    shift = hashes[0]._shift
    if shift:
        out = out >> np.uint64(shift)
    return out


def sign_many_stacked(sign_hashes, xs: np.ndarray) -> np.ndarray:
    """Evaluate many same-degree :class:`KWiseSignHash` functions at once.

    Returns a ``(len(sign_hashes), len(xs))`` float64 array of ±1 whose
    row ``i`` matches ``sign_hashes[i].sign_many(xs)`` bit-for-bit.
    """
    out = hash_many_stacked([s._h for s in sign_hashes], xs)
    # Shift the low bit into the float64 sign position and flip it into
    # -1.0's bit pattern: bit 1 gives 0x3FF0... (+1.0), bit 0 gives
    # 0xBFF0... (-1.0).  Two in-place integer passes, no float casts.
    np.left_shift(out, _SIGN_SHIFT, out=out)
    np.bitwise_xor(out, _MINUS_ONE_BITS, out=out)
    return out.view(np.float64)


class KWiseSignHash:
    """k-wise independent hash into {-1, +1}.

    Uses the low bit of a :class:`KWiseHash`.  CountSketch and AMS use
    ``k = 4``; 4-wise independence is exactly what the classical variance
    analysis of both estimators requires.
    """

    def __init__(self, k: int, rng: np.random.Generator):
        self._h = KWiseHash(k, rng, out_bits=FIELD_BITS)

    def __call__(self, x: int) -> int:
        return 1 if (self._h(x) & 1) else -1

    def sign_many(self, xs: np.ndarray) -> np.ndarray:
        """Vectorised signs: a ``float64`` array of ±1 matching ``__call__``."""
        bits = self._h.hash_many(xs) & np.uint64(1)
        return bits.astype(np.float64) * 2.0 - 1.0

    def space_bits(self) -> int:
        return self._h.space_bits()


class TabulationHash:
    """Simple tabulation hashing: 3-independent but Chernoff-like in practice.

    Included as a faster substrate alternative for the level-list structure;
    splits a 32-bit key into 4 bytes and XORs random 64-bit table entries.
    """

    CHUNKS = 4
    CHUNK_BITS = 8

    def __init__(self, rng: np.random.Generator, out_bits: int = 64):
        if not 1 <= out_bits <= 64:
            raise ValueError(f"out_bits must be in [1, 64], got {out_bits}")
        self.out_bits = out_bits
        self._tables = rng.integers(
            0, 2**63, size=(self.CHUNKS, 2**self.CHUNK_BITS), dtype=np.uint64
        ) * np.uint64(2) + rng.integers(0, 2, size=(self.CHUNKS, 2**self.CHUNK_BITS),
                                        dtype=np.uint64)
        self._shift = 64 - out_bits

    def __call__(self, x: int) -> int:
        h = 0
        for c in range(self.CHUNKS):
            h ^= int(self._tables[c][(x >> (c * self.CHUNK_BITS)) & 0xFF])
        return h >> self._shift

    def space_bits(self) -> int:
        return self.CHUNKS * (2**self.CHUNK_BITS) * 64
