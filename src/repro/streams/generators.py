"""Synthetic workload generators.

The paper evaluates no datasets (it is a theory paper), but its introduction
motivates the algorithms with database query optimization, network traffic
logs, and financial streams.  These generators produce the corresponding
synthetic stream families used by the experiment harness:

* ``uniform_stream`` / ``zipfian_stream`` — classic static workloads;
* ``distinct_ramp_stream`` — fresh items, drives F0/Fp monotonically (the
  worst case for flip number);
* ``planted_heavy_hitters_stream`` — known heavy set over noise floor
  (heavy-hitter experiments);
* ``phased_support_stream`` — disjoint support phases (entropy swings);
* ``bounded_deletion_stream`` — alpha-bounded-deletion streams built to
  satisfy Definition 8.1 *by construction*;
* ``turnstile_wave_stream`` — insert/delete waves with a controlled Fp flip
  number (the Theorem 4.3 class ``S_lambda``).

All generators return ``list[Update]`` and take an explicit numpy
``Generator`` so experiments are reproducible.

For production-scale oblivious replay there are array-native *chunked*
twins (``*_stream_chunks``) that yield :class:`StreamChunk` batches
without ever materialising per-update Python objects — the memory and
throughput foundation of the batched ingestion pipeline.  A chunked
generator with the same seed produces the same *distribution* as its
list twin; ``distinct_ramp_chunks`` is deterministic and produces the
identical stream.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.streams.frequency import FrequencyVector
from repro.streams.model import StreamChunk, Update


def uniform_stream(n: int, m: int, rng: np.random.Generator) -> list[Update]:
    """m insertions drawn uniformly from [n]."""
    items = rng.integers(0, n, size=m)
    return [Update(int(a), 1) for a in items]


def zipfian_stream(
    n: int, m: int, rng: np.random.Generator, s: float = 1.2
) -> list[Update]:
    """m insertions from a Zipf(s) distribution over [n].

    Zipfian data is the canonical "skewed" workload in the streaming
    literature (frequency moments measure exactly this skew, cf. the
    parallel-databases motivation [12] cited in Section 1.1).
    """
    if s <= 0:
        raise ValueError(f"zipf exponent must be positive, got {s}")
    weights = 1.0 / np.arange(1, n + 1, dtype=float) ** s
    weights /= weights.sum()
    items = rng.choice(n, size=m, p=weights)
    return [Update(int(a), 1) for a in items]


def distinct_ramp_stream(n: int, m: int) -> list[Update]:
    """Insert items 0, 1, 2, ... — F0 grows by one per update.

    This stream achieves the flip-number upper bound of Corollary 3.5 up to
    constants, so it is the stress workload for both robustification
    frameworks (it forces the maximum number of sketch switches).
    """
    return [Update(t % n, 1) for t in range(m)]


def planted_heavy_hitters_stream(
    n: int,
    m: int,
    rng: np.random.Generator,
    heavy_items: int = 8,
    heavy_mass: float = 0.5,
) -> list[Update]:
    """Noise floor plus ``heavy_items`` planted items carrying ``heavy_mass``.

    The heavy items are 0..heavy_items-1; noise is uniform over the rest.
    With the default split each heavy item receives about
    ``heavy_mass * m / heavy_items`` updates, comfortably above the
    ``eps * |f|_2`` threshold for moderate eps.
    """
    if not 0 < heavy_mass < 1:
        raise ValueError(f"heavy_mass must be in (0,1), got {heavy_mass}")
    if not 0 < heavy_items < n:
        raise ValueError(f"need 0 < heavy_items < n, got {heavy_items}")
    out: list[Update] = []
    for _ in range(m):
        if rng.random() < heavy_mass:
            out.append(Update(int(rng.integers(0, heavy_items)), 1))
        else:
            out.append(Update(int(rng.integers(heavy_items, n)), 1))
    return out


def phased_support_stream(
    n: int, m: int, rng: np.random.Generator, phases: int = 4
) -> list[Update]:
    """Phases with disjoint supports and varying skew.

    Early phases hammer a few items (low entropy), later phases spread
    uniformly (high entropy): the stream sweeps the entropy range, which is
    the regime the robust entropy tracker must follow.
    """
    if phases < 1:
        raise ValueError(f"phases must be >= 1, got {phases}")
    out: list[Update] = []
    block = n // phases
    per_phase = m // phases
    for ph in range(phases):
        lo = ph * block
        width = max(1, int(block * (ph + 1) / phases))
        items = lo + rng.integers(0, width, size=per_phase)
        out.extend(Update(int(a), 1) for a in items)
    return out


def bounded_deletion_stream(
    n: int,
    m: int,
    rng: np.random.Generator,
    alpha: float = 4.0,
    p: float = 1.0,
) -> list[Update]:
    """An Fp alpha-bounded-deletion stream (Definition 8.1), by construction.

    Each step is a unit insert of a random item, or — when doing so provably
    preserves ``F_p(f) >= F_p(h) / alpha`` — a unit delete of an item with
    positive frequency.  ``h`` is the absolute-value stream's vector, which
    the generator tracks alongside ``f``.  Deletions are attempted with the
    maximum sustainable rate for the requested alpha.
    """
    if alpha < 1:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    f = FrequencyVector()
    h = FrequencyVector()
    # Fraction of deletes that keeps F1(f) ~ F1(h)/alpha in steady state:
    # inserts I, deletes D: (I-D) >= (I+D)/alpha  =>  D/I <= (a-1)/(a+1).
    delete_rate = (alpha - 1.0) / (alpha + 1.0) * 0.9
    out: list[Update] = []
    positive: list[int] = []  # items known to have f_i > 0 (may be stale)
    for _ in range(m):
        do_delete = positive and rng.random() < delete_rate
        if do_delete:
            # Pick a random positive item; drop stale entries lazily.
            while positive:
                idx = int(rng.integers(0, len(positive)))
                cand = positive[idx]
                if f[cand] > 0:
                    break
                positive[idx] = positive[-1]
                positive.pop()
            else:
                do_delete = False
            if do_delete:
                # Verify the alpha property survives this deletion.
                fi = f[cand]
                new_fp = f.fp(p) - abs(fi) ** p + abs(fi - 1) ** p
                new_hp = h.fp(p) - h[cand] ** p + (h[cand] + 1) ** p
                if new_fp >= 1.0 and new_fp * alpha >= new_hp:
                    f.update(cand, -1)
                    h.update(cand, 1)
                    out.append(Update(cand, -1))
                    continue
        item = int(rng.integers(0, n))
        f.update(item, 1)
        h.update(item, 1)
        positive.append(item)
        out.append(Update(item, 1))
    return out


# ----------------------------------------------------------------------
# Chunked (array-native) generators for batched oblivious replay
# ----------------------------------------------------------------------

def _chunk_sizes(m: int, chunk_size: int) -> Iterator[int]:
    if m < 0:
        raise ValueError(f"stream length must be >= 0, got {m}")
    if chunk_size < 1:
        raise ValueError(f"chunk size must be >= 1, got {chunk_size}")
    remaining = m
    while remaining > 0:
        take = min(chunk_size, remaining)
        yield take
        remaining -= take


def uniform_stream_chunks(
    n: int, m: int, rng: np.random.Generator, chunk_size: int = 65536
) -> Iterator[StreamChunk]:
    """m uniform insertions, yielded as arrays ``chunk_size`` at a time."""
    for take in _chunk_sizes(m, chunk_size):
        yield StreamChunk.insertions(rng.integers(0, n, size=take))


def zipfian_stream_chunks(
    n: int,
    m: int,
    rng: np.random.Generator,
    s: float = 1.2,
    chunk_size: int = 65536,
) -> Iterator[StreamChunk]:
    """m Zipf(s) insertions as chunks (weights computed once, not per chunk)."""
    if s <= 0:
        raise ValueError(f"zipf exponent must be positive, got {s}")
    weights = 1.0 / np.arange(1, n + 1, dtype=float) ** s
    weights /= weights.sum()
    for take in _chunk_sizes(m, chunk_size):
        yield StreamChunk.insertions(rng.choice(n, size=take, p=weights))


def distinct_ramp_chunks(
    n: int, m: int, chunk_size: int = 65536
) -> Iterator[StreamChunk]:
    """The :func:`distinct_ramp_stream` updates, chunked; identical stream."""
    produced = 0
    for take in _chunk_sizes(m, chunk_size):
        yield StreamChunk.insertions(
            np.arange(produced, produced + take, dtype=np.int64) % n
        )
        produced += take


#: Chunked generators by name: the registry
#: :class:`repro.streams.sources.GeneratorChunkSource` materializes
#: through.  Every entry takes ``(n, m, [rng,] chunk_size=..., **params)``
#: and regenerates bit-for-bit from the same seed, which is what makes a
#: generator source repeatable.
CHUNKED_GENERATORS = {
    "uniform": uniform_stream_chunks,
    "zipfian": zipfian_stream_chunks,
    "distinct-ramp": distinct_ramp_chunks,
}

#: Registry entries that are deterministic (no RNG argument).
SEEDLESS_CHUNKED = frozenset({"distinct-ramp"})


def turnstile_wave_stream(
    n: int, m: int, rng: np.random.Generator, waves: int = 4
) -> list[Update]:
    """Insert/delete waves producing ~2*waves Fp flips.

    Each wave inserts a fresh block of items then deletes most of it again,
    so any Fp moment rises and collapses ``waves`` times.  This is the hard
    turnstile instance of [25] cited after Theorem 4.3 (flip number about
    twice the insertion-only one per wave), and the class ``S_lambda`` that
    Theorem 4.3's algorithm is promised.
    """
    if waves < 1:
        raise ValueError(f"waves must be >= 1, got {waves}")
    out: list[Update] = []
    per_wave = m // waves
    ins = per_wave // 2
    for w in range(waves):
        base = (w * ins) % max(1, n - ins)
        inserted: list[int] = []
        for j in range(ins):
            item = base + (j % max(1, min(ins, n - base)))
            inserted.append(item)
            out.append(Update(item, 1))
        dels = min(per_wave - ins, max(0, len(inserted) - 1))
        order = rng.permutation(len(inserted))[:dels]
        out.extend(Update(inserted[int(k)], -1) for k in order)
    return out
