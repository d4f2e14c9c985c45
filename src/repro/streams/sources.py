"""Chunk sources: repeatable stream descriptions with a local materializer.

A :class:`ChunkSource` describes a stream — a chunked generator name +
parameters + seed, or a :class:`~repro.streams.store.ColumnarStreamStore`
path + row range — and :meth:`ChunkSource.chunks` materializes it as a
:class:`~repro.streams.model.StreamChunk` sequence.  Generator-backed
sources rebuild their RNG on every :meth:`~ChunkSource.chunks` call, and
NumPy draws are bit-for-bit identical whether drawn monolithically or
chunk by chunk, so every materialization yields the same stream.
Store-backed sources memmap a read-only view of the column files on
each :meth:`~ChunkSource.chunks` call (zero-copy, page-cache shared).

A source also states what it promises about its items: ``universe``
(every item is below it) and ``unit_deltas``.  Those promises license
the serial engine's counts-based prepare fast path
(``IngestReport.source_mode == "universe"``); every other session feeds
the materialized chunk bytes.

Sequentiality contract: :meth:`~ChunkSource.chunks` materializes the
stream **in order** — generator state advances chunk by chunk, so there
is no random access.  The switching protocol drives chunks strictly in
order, and boundary/bisect replay works positionally *within* the
current chunk, so sequential materialization is all the engines need.
"""

from __future__ import annotations

import pathlib
from abc import ABC, abstractmethod
from collections.abc import Iterator

import numpy as np

from repro.streams.generators import CHUNKED_GENERATORS, SEEDLESS_CHUNKED
from repro.streams.model import StreamChunk
from repro.streams.store import DEFAULT_CHUNK_SIZE, ColumnarStreamStore

__all__ = [
    "ChunkSource",
    "GeneratorChunkSource",
    "StoreChunkSource",
    "as_chunk_source",
]


class ChunkSource(ABC):
    """A repeatable stream description plus a local materializer."""

    #: Total number of updates the source yields.
    total: int
    #: Materialization granularity (last chunk may be shorter).
    chunk_size: int
    #: Item universe size: every item is in ``[0, universe)`` — or
    #: ``None`` when the source cannot promise a bound.  A known universe
    #: licenses the serial engine's counts-based prepare fast path.
    universe: int | None
    #: True when every delta is +1 (insertion-only with unit weights).
    unit_deltas: bool

    @abstractmethod
    def chunks(self) -> Iterator[StreamChunk]:
        """Materialize the stream, strictly in order."""

    def __len__(self) -> int:
        return self.total


def _check_geometry(m: int, chunk_size: int) -> None:
    if m < 0:
        raise ValueError(f"stream length must be >= 0, got {m}")
    if chunk_size < 1:
        raise ValueError(f"chunk size must be >= 1, got {chunk_size}")


class GeneratorChunkSource(ChunkSource):
    """A synthetic stream described by (generator name, params, seed).

    ``name`` selects a chunked generator from
    :data:`repro.streams.generators.CHUNKED_GENERATORS`.  Seeded
    generators rebuild their RNG as ``np.random.default_rng(seed)`` on
    every :meth:`chunks` call, so materialization is repeatable.
    """

    unit_deltas = True

    def __init__(
        self,
        name: str,
        n: int,
        m: int,
        seed: int | None = None,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        **params,
    ):
        if name not in CHUNKED_GENERATORS:
            known = ", ".join(sorted(CHUNKED_GENERATORS))
            raise ValueError(f"unknown chunked generator {name!r} (have: {known})")
        _check_geometry(m, chunk_size)
        if name in SEEDLESS_CHUNKED:
            if seed is not None:
                raise ValueError(f"generator {name!r} is deterministic; seed must be None")
        elif seed is None:
            raise ValueError(
                f"generator {name!r} needs a seed so its chunks are repeatable"
            )
        self.name = name
        self.n = int(n)
        self.total = int(m)
        self.seed = seed
        self.chunk_size = int(chunk_size)
        self.params = dict(params)
        self.universe = self.n

    def chunks(self) -> Iterator[StreamChunk]:
        fn = CHUNKED_GENERATORS[self.name]
        if self.name in SEEDLESS_CHUNKED:
            return fn(self.n, self.total, chunk_size=self.chunk_size, **self.params)
        rng = np.random.default_rng(self.seed)
        return fn(self.n, self.total, rng, chunk_size=self.chunk_size, **self.params)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"GeneratorChunkSource({self.name!r}, n={self.n}, m={self.total}, "
            f"seed={self.seed}, chunk_size={self.chunk_size})"
        )


class StoreChunkSource(ChunkSource):
    """A row range of an on-disk columnar store, materialized by memmap.

    The source holds only the path and row range; every
    :meth:`chunks` call opens its **own** :class:`ColumnarStreamStore`
    and memmaps its own read-only view, so a forked process
    materializing an inherited source shares no file handles with its
    parent, and chunk views stay zero-copy (the OS shares the pages).
    """

    def __init__(
        self,
        path,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        start: int = 0,
        stop: int | None = None,
    ):
        store = ColumnarStreamStore(path)
        if stop is None:
            stop = store.updates
        if not 0 <= start <= stop <= store.updates:
            raise ValueError(
                f"row range [{start}, {stop}) out of bounds for "
                f"{store.updates} updates"
            )
        _check_geometry(stop - start, chunk_size)
        self.path = pathlib.Path(path)
        self.start = int(start)
        self.stop = int(stop)
        self.total = self.stop - self.start
        self.chunk_size = int(chunk_size)
        self.unit_deltas = store.unit_deltas
        params = store.params
        self.universe = params.n if params is not None else None

    def chunks(self) -> Iterator[StreamChunk]:
        store = ColumnarStreamStore(self.path)
        items = store.items
        deltas = store.deltas
        for lo in range(self.start, self.stop, self.chunk_size):
            hi = min(lo + self.chunk_size, self.stop)
            yield StreamChunk(
                items[lo:hi],
                store._unit_run(hi - lo) if deltas is None else deltas[lo:hi],
            )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"StoreChunkSource({str(self.path)!r}, rows=[{self.start}, "
            f"{self.stop}), chunk_size={self.chunk_size})"
        )


def as_chunk_source(obj, chunk_size: int = DEFAULT_CHUNK_SIZE):
    """Coerce ``obj`` to a :class:`ChunkSource`, or return ``None``.

    Accepts a :class:`ChunkSource` (returned as-is), a
    :class:`ColumnarStreamStore` or a store path (wrapped in a
    :class:`StoreChunkSource`).  A ``str``/``Path`` must open as a
    store: one that does not raises the store's error (a
    :class:`~repro.streams.store.StoreFormatError` for a missing or
    malformed store) rather than being replayed as a sequence of
    characters.  Anything else — ad-hoc iterables, materialized arrays
    — returns ``None``, and the caller replays it as a plain stream.
    """
    if isinstance(obj, ChunkSource):
        return obj
    if isinstance(obj, ColumnarStreamStore):
        return StoreChunkSource(obj.path, chunk_size=chunk_size)
    if isinstance(obj, (str, pathlib.Path)):
        return StoreChunkSource(obj, chunk_size=chunk_size)
    return None
