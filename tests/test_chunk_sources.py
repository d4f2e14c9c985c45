"""Chunk sources: repeatable materialization, fork safety, path equivalence.

A chunk source must materialize bit-for-bit identically every time and
in any process — coordinator, serial fast path, or a forked child — so
published outputs, switch counts, and DP budget state agree across the
per-item path and the serial session (bytes and universe fast path),
which the process engine also opens for switching estimators.
"""

import multiprocessing as mp
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ingest
from repro.core.bands import MultiplicativeBand
from repro.core.disciplines import PrivateAggregateDiscipline
from repro.core.sketch_switching import SwitchingEstimator
from repro.engine.executor import (
    ProcessEngine,
    SerialEngine,
    fork_available,
)
from repro.sketches.countsketch import CountSketch
from repro.streams.model import Update
from repro.streams.sources import (
    ChunkSource,
    GeneratorChunkSource,
    StoreChunkSource,
    as_chunk_source,
)
from repro.streams.store import (
    ColumnarStreamStore,
    StoreFormatError,
    write_stream,
)

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="process engine requires the fork start method"
)


def _materialize(source: ChunkSource):
    items = [c.items for c in source.chunks()]
    deltas = [c.deltas for c in source.chunks()]
    return (np.concatenate(items) if items else np.empty(0, np.int64),
            np.concatenate(deltas) if deltas else np.empty(0, np.int64))


# ----------------------------------------------------------------------
# Materialization
# ----------------------------------------------------------------------


class TestGeneratorSource:
    def test_rematerialization_is_repeatable(self):
        src = GeneratorChunkSource("uniform", n=100, m=5_000, seed=3,
                                   chunk_size=512)
        a_i, _ = _materialize(src)
        b_i, _ = _materialize(src)  # chunks() rebuilds the RNG every call
        np.testing.assert_array_equal(a_i, b_i)

    def test_chunked_draws_match_monolithic(self):
        # Chunk-by-chunk RNG draws concatenate to the monolithic stream
        # bit for bit, whatever the chunk geometry.
        src = GeneratorChunkSource("uniform", n=256, m=10_000, seed=11,
                                   chunk_size=999)
        items, _ = _materialize(src)
        whole = np.random.default_rng(11).integers(
            0, 256, size=10_000, dtype=np.int64
        )
        np.testing.assert_array_equal(items, whole)

    def test_chunk_lengths_match_geometry(self):
        src = GeneratorChunkSource("uniform", n=10, m=2_500, seed=0,
                                   chunk_size=1_000)
        lengths = [len(c.items) for c in src.chunks()]
        assert lengths == [1_000, 1_000, 500]
        assert sum(lengths) == src.total == len(src)

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown chunked generator"):
            GeneratorChunkSource("nope", n=10, m=10, seed=1)
        with pytest.raises(ValueError, match="needs a seed"):
            GeneratorChunkSource("uniform", n=10, m=10)
        with pytest.raises(ValueError, match="seed must be None"):
            GeneratorChunkSource("distinct-ramp", n=10, m=10, seed=1)
        with pytest.raises(ValueError, match="chunk size"):
            GeneratorChunkSource("uniform", n=10, m=10, seed=1, chunk_size=0)

    def test_seedless_generator_is_repeatable(self):
        src = GeneratorChunkSource("distinct-ramp", n=64, m=200,
                                   chunk_size=33)
        np.testing.assert_array_equal(_materialize(src)[0],
                                      _materialize(src)[0])


class TestStoreSource:
    @pytest.fixture()
    def store_path(self, tmp_path):
        updates = [Update(i % 17, (-1) ** i * (1 + i % 3)) for i in range(400)]
        write_stream(tmp_path / "s", updates, chunk_size=64)
        return tmp_path / "s"

    def test_row_range_materializes_store_rows(self, store_path):
        src = StoreChunkSource(store_path, chunk_size=100, start=50, stop=350)
        assert src.total == 300
        store = ColumnarStreamStore(store_path)
        items, deltas = _materialize(src)
        np.testing.assert_array_equal(items, store.items[50:350])
        np.testing.assert_array_equal(deltas, store.deltas[50:350])

    def test_row_range_validation(self, store_path):
        with pytest.raises(ValueError, match="out of bounds"):
            StoreChunkSource(store_path, start=10, stop=1_000)
        with pytest.raises(ValueError, match="out of bounds"):
            StoreChunkSource(store_path, start=-1)

    def test_as_chunk_source_coercions(self, store_path):
        store = ColumnarStreamStore(store_path)
        assert isinstance(as_chunk_source(store, 128), StoreChunkSource)
        assert isinstance(as_chunk_source(str(store_path), 128),
                          StoreChunkSource)
        src = GeneratorChunkSource("uniform", n=4, m=4, seed=0)
        assert as_chunk_source(src, 128) is src
        assert as_chunk_source([1, 2, 3], 128) is None
        with pytest.raises(StoreFormatError):
            as_chunk_source("/nonexistent/store/path", 128)


# ----------------------------------------------------------------------
# Fork safety (regression): inherited memmaps are dropped post-fork
# ----------------------------------------------------------------------


@needs_fork
class TestForkSafety:
    def test_child_reopens_own_mapping(self, tmp_path):
        updates = [Update(i % 5, 1) for i in range(300)]
        write_stream(tmp_path / "s", updates, chunk_size=50)
        store = ColumnarStreamStore(tmp_path / "s")
        parent_items = np.asarray(store.items[:]).copy()  # open the memmap
        parent_pid = store._map_pid
        assert parent_pid == os.getpid()

        ctx = mp.get_context("fork")
        parent_conn, child_conn = ctx.Pipe()

        def child(conn):
            try:
                # The inherited handle must be detected as foreign and
                # dropped before first use...
                stale = store._map_pid != os.getpid()
                items = np.asarray(store.items[:]).copy()
                # ...and the reopened mapping is stamped with this pid.
                conn.send((stale, store._map_pid == os.getpid(), items))
            finally:
                conn.close()

        proc = ctx.Process(target=child, args=(child_conn,), daemon=True)
        proc.start()
        child_conn.close()
        stale, restamped, child_items = parent_conn.recv()
        proc.join(timeout=10)
        assert stale, "child should have seen the parent's pid stamp"
        assert restamped, "child should own its mapping after first access"
        np.testing.assert_array_equal(child_items, parent_items)
        # The parent's mapping is untouched by the child's reopen.
        assert store._map_pid == parent_pid
        np.testing.assert_array_equal(store.items[:], parent_items)

    def test_store_source_chunks_in_child(self, tmp_path):
        # StoreChunkSource.chunks() opens its own store, so a forked
        # child materializing the inherited source object never shares
        # the parent's file handles.
        updates = [Update(i % 9, 1) for i in range(500)]
        write_stream(tmp_path / "s", updates, chunk_size=64)
        src = StoreChunkSource(tmp_path / "s", chunk_size=128)
        expect_i, expect_d = _materialize(src)

        ctx = mp.get_context("fork")
        parent_conn, child_conn = ctx.Pipe()

        def child(conn):
            try:
                i, d = _materialize(src)
                conn.send((i, d))
            finally:
                conn.close()

        proc = ctx.Process(target=child, args=(child_conn,), daemon=True)
        proc.start()
        child_conn.close()
        child_i, child_d = parent_conn.recv()
        proc.join(timeout=10)
        np.testing.assert_array_equal(child_i, expect_i)
        np.testing.assert_array_equal(child_d, expect_d)


# ----------------------------------------------------------------------
# Equivalence: per-item vs serial sessions, bit for bit
# ----------------------------------------------------------------------


def _stacked_dp(copies=8, width=32, seed=1, band=0.5):
    return SwitchingEstimator(
        factory=lambda rng: CountSketch(width, 5, rng, track_candidates=0),
        copies=copies,
        rng=np.random.default_rng(seed),
        band=MultiplicativeBand(band),
        discipline=PrivateAggregateDiscipline(noise_scale=0.01),
        stacked=True,
    )


def _state(est):
    return (est.query(), est.switches, est.discipline.budget_state())


def _per_item(source, **kwargs):
    est = _stacked_dp(**kwargs)
    for it in _materialize(source)[0].tolist():
        est.update(it, 1)
    return est


def _feed(session, source):
    for chunk in source.chunks():
        session.feed(chunk.items, chunk.deltas)


class TestSerialEquivalence:
    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.sampled_from([32, 64, 128]),
        m=st.integers(1_000, 6_000),
        chunk=st.sampled_from([97, 256, 1024]),
    )
    def test_per_item_vs_bytes_vs_universe(self, seed, n, m, chunk):
        """The three serial drives agree bit for bit.

        ``chunk`` exceeds REPLAY_LEAF for the larger draws, so band
        crossings force mid-chunk bisection through the source-fed
        chunks — the equivalence must hold through the replay machinery,
        not just at clean boundaries.
        """
        src = GeneratorChunkSource("uniform", n=n, m=m, seed=seed,
                                   chunk_size=chunk)
        items, deltas = _materialize(src)

        per_item = _stacked_dp()
        for it in items.tolist():
            per_item.update(it, 1)

        chunked = _stacked_dp()
        for c in src.chunks():
            chunked.update_batch(c.items, c.deltas)

        universe = _stacked_dp()
        with SerialEngine().session(universe, source=src) as session:
            assert session.source_mode == "universe"
            _feed(session, src)

        assert _state(chunked) == _state(per_item)
        assert _state(universe) == _state(per_item)

    def test_mid_chunk_bisection_occurs(self):
        # Sanity for the docstring above: this workload really does
        # switch more often than it has chunk boundaries.
        src = GeneratorChunkSource("uniform", n=64, m=20_000, seed=9,
                                   chunk_size=777)
        est = _stacked_dp()
        with SerialEngine().session(est, source=src) as session:
            _feed(session, src)
        assert est.switches > -(-src.total // src.chunk_size)


@needs_fork
class TestProcessSourceEquivalence:
    """Chunk sources on the process engine: a switching estimator opens
    the serial session, universe fast path included, and forks nothing."""

    @pytest.mark.parametrize("workers", [2, 3])
    def test_generator_source_matches_per_item(self, workers):
        src = GeneratorChunkSource("uniform", n=64, m=12_000, seed=9,
                                   chunk_size=777)
        est = _stacked_dp()
        report = ingest(est, source=src, engine=f"process:{workers}")
        assert report.mode == "serial"
        assert report.source_mode == "universe"
        assert _state(est) == _state(_per_item(src))

    def test_store_source_matches_per_item(self, tmp_path):
        rng = np.random.default_rng(4)
        updates = [Update(int(x), 1)
                   for x in rng.integers(0, 64, size=6_000)]
        write_stream(tmp_path / "s", updates, chunk_size=512)
        src = StoreChunkSource(tmp_path / "s", chunk_size=512)

        est = _stacked_dp(seed=2)
        report = ingest(est, source=src, engine="process:2")
        assert report.mode == "serial"
        assert report.source_mode.startswith("bytes:")
        assert _state(est) == _state(_per_item(src, seed=2))

    def test_source_report_has_no_generate_phase(self):
        src = GeneratorChunkSource("uniform", n=32, m=4_000, seed=5,
                                   chunk_size=512)
        report = ingest(_stacked_dp(), source=src, engine="process:2",
                        telemetry=True)
        assert report.source_mode == "universe"
        # Coordinator phases only: no worker ran, nothing was generated
        # off this process.
        assert set(report.phase_seconds) == {
            "probe", "band_test", "feed", "replace",
        }

    @pytest.mark.parametrize("licensed", [True, False])
    @pytest.mark.parametrize("workers,copies", [(1, 8), (2, 1), (2, 8)])
    def test_serial_fallbacks_open_the_serial_session(
        self, tmp_path, licensed, workers, copies
    ):
        # One worker, one copy, or any switching estimator at all: the
        # process engine must open exactly the serial engine's session,
        # universe fast path included, and fork no worker.
        if licensed:
            src = GeneratorChunkSource("uniform", n=32, m=2_000, seed=3,
                                       chunk_size=500)
        else:
            write_stream(tmp_path / "s", [Update(i % 16, 1)
                                          for i in range(1_000)])
            src = StoreChunkSource(tmp_path / "s", chunk_size=500)
        est = _stacked_dp(copies=copies)
        serial_est = _stacked_dp(copies=copies)
        with ProcessEngine(workers=workers).session(est, source=src) as got, \
                SerialEngine().session(serial_est, source=src) as want:
            assert type(got) is type(want)
            assert got.mode == want.mode == "serial"
            assert mp.active_children() == []
            assert got.source_mode == want.source_mode
            # The universe license needs a stacked group (two or more
            # copies) and a known universe (the store has none).
            if licensed and copies > 1:
                assert got.source_mode == "universe"
            else:
                assert got.source_mode.startswith("bytes:")
            _feed(got, src)
            _feed(want, src)
        assert _state(est) == _state(serial_est)


# ----------------------------------------------------------------------
# api.ingest surface
# ----------------------------------------------------------------------


class TestIngestSourceSurface:
    def test_stream_and_source_are_exclusive(self):
        src = GeneratorChunkSource("uniform", n=4, m=4, seed=0)
        with pytest.raises(ValueError, match="not both"):
            ingest(_stacked_dp(), [1, 2], source=src)
        with pytest.raises(ValueError, match="stream= or a source="):
            ingest(_stacked_dp())

    def test_source_positional_and_keyword_agree(self):
        src = GeneratorChunkSource("uniform", n=32, m=3_000, seed=7,
                                   chunk_size=500)
        a = ingest(_stacked_dp(), src, engine="serial")
        b = ingest(_stacked_dp(), source=src, engine="serial")
        assert a.final_estimate == b.final_estimate
        assert a.source_mode == b.source_mode == "universe"

    def test_adhoc_iterable_falls_back_to_bytes(self):
        report = ingest(_stacked_dp(), source=[1, 2, 3, 1, 2],
                        engine="serial")
        assert report.source_mode.startswith("bytes:")
        assert "not a chunk source" in report.source_mode

    def test_direct_path_reports_bytes(self):
        src = GeneratorChunkSource("uniform", n=32, m=2_000, seed=7,
                                   chunk_size=500)
        report = ingest(_stacked_dp(), source=src)
        assert report.source_mode.startswith("bytes:")
        assert report.updates == 2_000

    def test_spill_store_forces_bytes(self, tmp_path):
        src = GeneratorChunkSource("uniform", n=32, m=2_000, seed=7,
                                   chunk_size=500)
        report = ingest(_stacked_dp(), source=src, engine="serial",
                        spill_store=tmp_path / "tee")
        assert "spill_store" in report.source_mode
        replay = ColumnarStreamStore(tmp_path / "tee")
        np.testing.assert_array_equal(
            np.asarray(replay.items[:]), _materialize(src)[0]
        )

    def test_universe_gate_reason_surfaced(self, tmp_path):
        # A store written without stream parameters promises no item
        # universe, so the serial fast path isn't licensed; the planner
        # must say so rather than silently shipping bytes.
        updates = [Update(i % 16, 1) for i in range(1_000)]
        write_stream(tmp_path / "s", updates, chunk_size=128)
        src = StoreChunkSource(tmp_path / "s", chunk_size=500)
        assert src.universe is None
        report = ingest(_stacked_dp(), source=src, engine="serial")
        assert report.source_mode.startswith("bytes:")
        assert "not licensed" in report.source_mode

    @pytest.mark.parametrize("path", ["2024", "no-such-store"])
    def test_missing_store_path_raises(self, tmp_path, monkeypatch, path):
        # A str/Path source opens as a store or raises; it is never
        # replayed as its characters (a digits-only path once ingested
        # items 2, 0, 2, 4).
        monkeypatch.chdir(tmp_path)
        est = _stacked_dp()
        with pytest.raises(StoreFormatError, match="no header"):
            ingest(est, source=path)
        with pytest.raises(StoreFormatError):
            ingest(est, source=tmp_path / path, engine="serial")
        # The positional (stream=) form routes the same way.
        with pytest.raises(StoreFormatError, match="no header"):
            ingest(est, path)
        with pytest.raises(StoreFormatError):
            ingest(est, tmp_path / path, engine="serial")
        assert est.query() == 0.0 and not est._ingested

    def test_store_path_positional_replays_the_store(self, tmp_path):
        updates = [Update(i % 16, 1) for i in range(1_000)]
        write_stream(tmp_path / "s", updates, chunk_size=128)
        a = ingest(_stacked_dp(), str(tmp_path / "s"), chunk_size=250)
        b = ingest(_stacked_dp(), source=tmp_path / "s", chunk_size=250)
        assert a.updates == b.updates == 1_000
        assert a.final_estimate == b.final_estimate
