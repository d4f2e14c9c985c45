"""End-to-end tests for the vectorized batch ingestion pipeline.

Covers the three layers the pipeline spans:

* per-sketch ``update_batch`` equivalence against the per-item loop;
* the chunked sketch-switching discipline — the load-bearing equivalence:
  batched and per-item runs publish identical outputs and identical
  switch counts on the same seeded streams (plain, restart, and clamp
  modes);
* the harness surfaces: ``run_relative(chunk_size=...)``, ``api.ingest``,
  and the chunked stream generators.
"""

import numpy as np
import pytest

from repro.api import ingest
from repro.core.computation_paths import ComputationPathsEstimator
from repro.core.bands import AdditiveBand, MultiplicativeBand
from repro.core.sketch_switching import SwitchingEstimator
from repro.experiments.runner import run_relative
from repro.robust.crypto_distinct import CryptoRobustDistinctElements
from repro.robust.distinct import RobustDistinctElements
from repro.sketches.ams import AMSFullSketch, AMSSketch
from repro.sketches.countmin import CountMinSketch
from repro.sketches.countsketch import CountSketch
from repro.sketches.exact import ExactDistinctCounter, ExactMomentCounter
from repro.sketches.f1 import F1Counter
from repro.sketches.hll import HyperLogLog
from repro.sketches.kmv import KMVSketch
from repro.sketches.misra_gries import MisraGries
from repro.streams.frequency import FrequencyVector
from repro.streams.generators import (
    distinct_ramp_chunks,
    distinct_ramp_stream,
    uniform_stream_chunks,
)
from repro.streams.model import StreamChunk, Update, chunk_updates, iter_updates


def _uniform_items(m=4000, n=400, seed=0):
    return np.random.default_rng(seed).integers(0, n, size=m)


def _feed_per_item(sketch, items, deltas=None):
    if deltas is None:
        for item in items.tolist():
            sketch.update(item)
    else:
        for item, delta in zip(items.tolist(), deltas.tolist()):
            sketch.update(item, delta)


def _feed_batched(sketch, items, deltas=None, chunk=512):
    for lo in range(0, len(items), chunk):
        sketch.update_batch(
            items[lo:lo + chunk],
            None if deltas is None else deltas[lo:lo + chunk],
        )


class TestSketchBatchEquivalence:
    """update_batch lands in the same state as the per-item loop."""

    def test_countmin_exact(self):
        a = CountMinSketch(128, 4, np.random.default_rng(7))
        b = CountMinSketch(128, 4, np.random.default_rng(7))
        items = _uniform_items()
        _feed_per_item(a, items)
        _feed_batched(b, items)
        assert np.array_equal(a._table, b._table)
        assert a.query() == b.query()

    def test_countsketch_turnstile(self):
        a = CountSketch(128, 5, np.random.default_rng(7))
        b = CountSketch(128, 5, np.random.default_rng(7))
        items = _uniform_items()
        deltas = np.random.default_rng(1).integers(-2, 3, size=len(items))
        _feed_per_item(a, items, deltas)
        _feed_batched(b, items, deltas)
        assert np.allclose(a._table, b._table)

    def test_ams_classic_and_full(self):
        items = _uniform_items()
        a = AMSSketch(16, 3, np.random.default_rng(5))
        b = AMSSketch(16, 3, np.random.default_rng(5))
        _feed_per_item(a, items)
        _feed_batched(b, items)
        assert np.allclose(a._y, b._y)
        c = AMSFullSketch(24, 400, np.random.default_rng(5))
        d = AMSFullSketch(24, 400, np.random.default_rng(5))
        _feed_per_item(c, items)
        _feed_batched(d, items)
        assert np.allclose(c._y, d._y)

    def test_kmv_bitwise(self):
        a = KMVSketch(48, np.random.default_rng(9))
        b = KMVSketch(48, np.random.default_rng(9))
        items = _uniform_items(n=5000)
        _feed_per_item(a, items)
        _feed_batched(b, items, chunk=333)
        assert a.state_fingerprint() == b.state_fingerprint()

    def test_hll_bitwise(self):
        a = HyperLogLog(6, np.random.default_rng(9))
        b = HyperLogLog(6, np.random.default_rng(9))
        items = _uniform_items(n=5000)
        _feed_per_item(a, items)
        _feed_batched(b, items, chunk=777)
        assert np.array_equal(a._registers, b._registers)

    def test_f1_and_exact(self):
        items = _uniform_items()
        deltas = np.random.default_rng(2).integers(-1, 4, size=len(items))
        for make in (F1Counter, lambda: ExactMomentCounter(2.0),
                     ExactDistinctCounter):
            a, b = make(), make()
            _feed_per_item(a, items, deltas)
            _feed_batched(b, items, deltas)
            assert a.query() == b.query()

    def test_frequency_vector(self):
        items = _uniform_items()
        deltas = np.random.default_rng(3).integers(-2, 3, size=len(items))
        a, b = FrequencyVector(), FrequencyVector()
        for item, delta in zip(items.tolist(), deltas.tolist()):
            a.update(item, delta)
        b.update_batch(items, deltas)
        assert a.to_dict() == b.to_dict()
        assert a.f1() == b.f1()

    def test_misra_gries_valid_summary(self):
        items = _uniform_items(m=3000, n=50)
        a, b = MisraGries(10), MisraGries(10)
        _feed_per_item(a, items)
        _feed_batched(b, items)
        # Order-sensitive: same F1 / underestimate bound, and every batched
        # estimate obeys the MG guarantee against the exact counts.
        assert a._f1 == b._f1
        exact = FrequencyVector()
        exact.update_batch(items)
        for item in range(50):
            est = b.point_query(item)
            assert est <= exact[item]
            assert est >= exact[item] - b.underestimate_bound()

    def test_negative_delta_rejected(self):
        for sketch in (
            CountMinSketch(16, 2, np.random.default_rng(0)),
            KMVSketch(8, np.random.default_rng(0)),
            HyperLogLog(4, np.random.default_rng(0)),
            MisraGries(4),
        ):
            with pytest.raises(ValueError):
                sketch.update_batch([1, 2], [1, -1])

    def test_default_loop_fallback(self):
        # A sketch without an override still supports the batch contract
        # through the base-class per-item loop.
        from repro.sketches.base import Sketch

        class Plain(Sketch):
            def __init__(self):
                self.seen = []

            def update(self, item, delta=1):
                self.seen.append((item, delta))

            def query(self):
                return float(len(self.seen))

            def space_bits(self):
                return 64

        a = Plain()
        a.update_batch([1, 2, 3], [1, 2, 3])
        assert a.seen == [(1, 1), (2, 2), (3, 3)]


class TestPointQueryBatch:
    def test_countmin_matches_scalar(self):
        sk = CountMinSketch(64, 3, np.random.default_rng(1))
        sk.update_batch(_uniform_items())
        queries = np.arange(50)
        batched = sk.point_query_batch(queries)
        assert np.array_equal(
            batched, [sk.point_query(i) for i in range(50)]
        )

    def test_countsketch_matches_scalar(self):
        sk = CountSketch(64, 5, np.random.default_rng(1))
        sk.update_batch(_uniform_items())
        batched = sk.point_query_batch(np.arange(50))
        assert np.allclose(batched, [sk.point_query(i) for i in range(50)])

    def test_estimate_vector_uses_batch(self):
        sk = CountMinSketch(64, 3, np.random.default_rng(1))
        sk.update_batch(_uniform_items())
        vec = sk.estimate_vector(range(20))
        assert vec == {i: sk.point_query(i) for i in range(20)}

    def test_fallback_for_plain_point_query_sketch(self):
        mg = MisraGries(16)
        mg.update_batch(_uniform_items(n=30))
        vec = mg.estimate_vector([0, 1, 2])
        assert vec == {i: mg.point_query(i) for i in range(3)}


class TestSwitchingEquivalence:
    """The acceptance-criterion test: batched == per-item bit-for-bit."""

    @staticmethod
    def _make(restart, copies, seed=3):
        return SwitchingEstimator(
            lambda r: KMVSketch(64, r),
            copies=copies,
            band=MultiplicativeBand(0.3),
            rng=np.random.default_rng(seed),
            restart=restart,
            on_exhausted="clamp",
        )

    @pytest.mark.parametrize(
        "restart,copies", [(False, 40), (True, 12), (False, 6)]
    )
    @pytest.mark.parametrize("chunk", [64, 512, 4096])
    def test_published_outputs_and_switch_counts(self, restart, copies, chunk):
        rng = np.random.default_rng(0)
        updates = [Update(int(i), 1) for i in rng.integers(0, 5000, size=12000)]
        a = self._make(restart, copies)
        b = self._make(restart, copies)
        outs_a = [a.process_update(u.item, u.delta) for u in updates]
        outs_b = []
        consumed = 0
        for piece in chunk_updates(updates, chunk):
            b.update_chunk(piece)
            consumed += len(piece)
            outs_b.append((consumed, b.query()))
        for consumed, out in outs_b:
            assert out == outs_a[consumed - 1]
        assert a.switches == b.switches
        assert a.query() == b.query()

    def test_streamchunk_object_accepted(self):
        a = self._make(False, 30)
        b = self._make(False, 30)
        items = np.arange(2000) % 500
        _feed_per_item(a, items)
        b.update_chunk(StreamChunk.insertions(items))
        assert a.query() == b.query() and a.switches == b.switches

    def test_additive_switching_chunked(self):
        def make():
            return SwitchingEstimator(
                lambda r: _CountTracker(),
                copies=200,
                band=AdditiveBand(2.0),
                rng=np.random.default_rng(1),
                on_exhausted="clamp",
            )

        items = np.zeros(3000, dtype=np.int64)
        a, b = make(), make()
        _feed_per_item(a, items)
        for lo in range(0, 3000, 256):
            b.update_chunk(items[lo:lo + 256])
        # The tracked count is monotone, so the chunked path must agree.
        assert a.query() == b.query()
        assert a.switches == b.switches


class _CountTracker:
    """Deterministic monotone tracker used by the additive test."""

    supports_deletions = True

    def __init__(self):
        self._count = 0.0

    def update(self, item, delta=1):
        self._count += delta

    def update_batch(self, items, deltas=None):
        self._count += (
            len(np.asarray(items)) if deltas is None
            else int(np.asarray(deltas).sum())
        )

    def snapshot(self):
        import copy

        return copy.copy(self)

    def query(self):
        return self._count

    def space_bits(self):
        return 64


class TestComputationPathsBatched:
    def test_rounded_outputs_stay_in_band(self):
        inner = KMVSketch(256, np.random.default_rng(4))
        paths = ComputationPathsEstimator(inner, eps=0.2)
        exact = FrequencyVector()
        for chunk in distinct_ramp_chunks(100_000, 20_000, chunk_size=1000):
            paths.update_batch(chunk.items, chunk.deltas)
            exact.update_batch(chunk.items, chunk.deltas)
            assert paths.query() == pytest.approx(exact.f0(), rel=0.35)

    def test_changes_no_more_than_per_item(self):
        per_item = ComputationPathsEstimator(
            KMVSketch(64, np.random.default_rng(4)), eps=0.2
        )
        batched = ComputationPathsEstimator(
            KMVSketch(64, np.random.default_rng(4)), eps=0.2
        )
        updates = distinct_ramp_stream(10_000, 5000)
        for u in updates:
            per_item.update(u.item, u.delta)
        for chunk in chunk_updates(updates, 500):
            batched.update_batch(chunk.items, chunk.deltas)
        assert batched.changes <= per_item.changes


class TestCryptoDistinctBatched:
    def test_state_matches_per_item(self):
        a = CryptoRobustDistinctElements(
            n=1 << 12, eps=0.2, rng=np.random.default_rng(6)
        )
        b = CryptoRobustDistinctElements(
            n=1 << 12, eps=0.2, rng=np.random.default_rng(6)
        )
        items = _uniform_items(m=3000, n=1 << 12)
        _feed_per_item(a, items)
        _feed_batched(b, items)
        assert a.state_fingerprint() == b.state_fingerprint()


class TestHarnessSurfaces:
    def test_run_relative_chunked_records_throughput(self):
        algo = ExactDistinctCounter()
        updates = [Update(i % 300, 1) for i in range(2000)]
        stats = run_relative(
            algo, updates, lambda f: f.f0(), skip=100, chunk_size=256
        )
        assert stats.worst_error == 0.0
        assert stats.items_per_sec > 0
        assert stats.steps_judged == 8  # one judgment per chunk boundary

    def test_ingest_accepts_every_stream_form(self):
        n, m = 1 << 10, 4000
        for stream in (
            [Update(i % n, 1) for i in range(m)],
            list(range(m)),
            uniform_stream_chunks(n, m, np.random.default_rng(0),
                                  chunk_size=512),
        ):
            est = ExactDistinctCounter()
            report = ingest(est, stream, chunk_size=512)
            assert report.updates == m
            assert report.items_per_sec > 0
            assert report.final_estimate == est.query()

    def test_ingest_robust_estimator_tracks(self):
        n, m = 1 << 12, 20_000
        est = RobustDistinctElements(
            n=n, m=m, eps=0.25, rng=np.random.default_rng(5)
        )
        report = ingest(est, distinct_ramp_chunks(n, m, chunk_size=2048))
        truth = min(m, n)
        assert report.final_estimate == pytest.approx(truth, rel=0.3)

    def test_sweep_contenders_materialises_generators(self):
        from repro.experiments.runner import sweep_contenders

        n, m = 256, 3000
        contenders = [
            ("a", ExactDistinctCounter()),
            ("b", ExactDistinctCounter()),
        ]
        stats = sweep_contenders(
            contenders,
            uniform_stream_chunks(n, m, np.random.default_rng(0),
                                  chunk_size=512),
            lambda f: f.f0(),
            skip=100,
            chunk_size=512,
        )
        # Every contender must see the whole stream, not just the first.
        assert all(s.steps_judged == 6 for s in stats.values())
        assert all(s.worst_error == 0.0 for s in stats.values())
        assert all(s.items_per_sec > 0 for s in stats.values())

    def test_chunk_generators_cover_stream(self):
        chunks = list(
            uniform_stream_chunks(100, 2500, np.random.default_rng(0),
                                  chunk_size=400)
        )
        assert sum(len(c) for c in chunks) == 2500
        assert all(c.insertion_only for c in chunks)
        ramp_list = distinct_ramp_stream(64, 500)
        ramp_chunks = list(iter_updates(distinct_ramp_chunks(64, 500, 128)))
        assert ramp_chunks == ramp_list
