"""Equivalence and unit tests for the parallel execution engine.

The load-bearing suite: serial direct path, :class:`SerialEngine`, and
:class:`ProcessEngine` must produce identical published outputs and
switch counts for switching estimators (which :class:`ProcessEngine`
runs in its serial session, forking nothing), and identical merged
state for mergeable sketches.  Also covers the shard planner, the
seen-filter, the prefetcher, and the engine plumbing through
``api.ingest`` and the experiment runner.
"""

import multiprocessing as mp

import numpy as np
import pytest

from repro.api import ingest
from repro.core.bands import MultiplicativeBand
from repro.core.sketch_switching import (
    SketchExhaustedError,
    SwitchingEstimator,
)
from repro.engine import (
    EngineError,
    ProcessEngine,
    SeenFilter,
    SerialEngine,
    fork_available,
    partition_copies,
    plan_shards,
    prefetch_chunks,
    resolve_engine,
)
from repro.engine.shards import (
    EpochShardPlan,
    MergeShardPlan,
    SerialPlan,
    SwitchingShardPlan,
)
from repro.experiments.runner import run_relative
from repro.robust.distinct import RobustDistinctElements
from repro.robust.entropy import RobustEntropy
from repro.sketches.ams import AMSSketch
from repro.sketches.countmin import CountMinSketch
from repro.sketches.countsketch import CountSketch
from repro.sketches.exact import ExactDistinctCounter, ExactMomentCounter
from repro.sketches.f1 import F1Counter
from repro.sketches.hll import HyperLogLog
from repro.sketches.kmv import KMVSketch
from repro.sketches.misra_gries import MisraGries
from repro.streams.frequency import FrequencyVector
from repro.streams.model import StreamChunk

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="process engine requires the fork start method"
)


def _uniform(m=30_000, n=1 << 11, seed=5):
    return np.random.default_rng(seed).integers(0, n, size=m)


def _fresh_robust(n, m, seed=3, **kwargs):
    return RobustDistinctElements(
        n=n, m=m, eps=kwargs.pop("eps", 0.3),
        rng=np.random.default_rng(seed), **kwargs,
    )


def _boundary_trace(est, items, chunk, engine):
    """Feed chunk by chunk, recording the published output per boundary."""
    trace = []
    if engine is None:
        for lo in range(0, len(items), chunk):
            est.update_batch(items[lo:lo + chunk])
            trace.append(est.query())
        return trace
    with engine.session(est) as session:
        if isinstance(engine, ProcessEngine):
            # Switching plans never fork: the serial session opens.
            assert session.mode == "serial"
            assert mp.active_children() == []
        for lo in range(0, len(items), chunk):
            session.feed(items[lo:lo + chunk])
            trace.append(session.query())
    return trace


class TestSwitchingEquivalence:
    """Engines reproduce the serial batched path bit for bit."""

    @pytest.mark.parametrize("restart", [True, False])
    def test_serial_engine_matches_direct(self, restart):
        n, m, chunk = 1 << 11, 30_000, 4096
        items = _uniform(m, n)
        copies = None if restart else 80
        direct = _fresh_robust(n, m, restart=restart, copies=copies)
        engined = _fresh_robust(n, m, restart=restart, copies=copies)
        t0 = _boundary_trace(direct, items, chunk, None)
        t1 = _boundary_trace(engined, items, chunk, SerialEngine())
        assert t0 == t1
        assert direct.switches == engined.switches
        for a, b in zip(
            direct._switcher._sketches, engined._switcher._sketches
        ):
            assert a.state_fingerprint() == b.state_fingerprint()

    @needs_fork
    @pytest.mark.parametrize("workers", [2, 4])
    def test_process_engine_matches_direct(self, workers):
        n, m, chunk = 1 << 11, 30_000, 4096
        items = _uniform(m, n)
        direct = _fresh_robust(n, m)
        engined = _fresh_robust(n, m)
        t0 = _boundary_trace(direct, items, chunk, None)
        t1 = _boundary_trace(
            engined, items, chunk, ProcessEngine(workers=workers)
        )
        assert t0 == t1
        assert direct.switches == engined.switches
        # Full state equality, so the estimator keeps working per item
        # after the session.
        for a, b in zip(
            direct._switcher._sketches, engined._switcher._sketches
        ):
            assert a.state_fingerprint() == b.state_fingerprint()
        direct.update(7, 1)
        engined.update(7, 1)
        assert direct.query() == engined.query()

    @needs_fork
    def test_process_engine_plain_mode_and_clamp(self):
        n, m, chunk = 1 << 10, 12_000, 2048
        items = _uniform(m, n, seed=11)

        def build(copies, on_exhausted):
            return SwitchingEstimator(
                lambda r: KMVSketch(96, r), copies=copies,
                band=MultiplicativeBand(0.3),
                rng=np.random.default_rng(1), restart=False,
                on_exhausted=on_exhausted,
            )

        for copies, mode in ((60, "raise"), (6, "clamp")):
            direct = build(copies, mode)
            engined = build(copies, mode)
            t0 = _boundary_trace(direct, items, chunk, None)
            t1 = _boundary_trace(
                engined, items, chunk, ProcessEngine(workers=2)
            )
            assert t0 == t1
            assert direct.switches == engined.switches

    def test_exhaustion_raises_like_serial(self):
        n, m = 1 << 10, 8_000
        items = _uniform(m, n, seed=2)
        direct = _fresh_robust(n, m, restart=False, copies=4)
        with pytest.raises(SketchExhaustedError):
            _boundary_trace(direct, items, 1024, None)
        engined = _fresh_robust(n, m, restart=False, copies=4)
        with pytest.raises(SketchExhaustedError):
            _boundary_trace(engined, items, 1024, SerialEngine())

    def test_small_chunks_replay_per_item(self):
        # Chunks at or below REPLAY_LEAF take the per-item replay path.
        n, m = 1 << 10, 2_000
        items = _uniform(m, n, seed=7)
        direct = _fresh_robust(n, m)
        engined = _fresh_robust(n, m)
        t0 = _boundary_trace(direct, items, 64, None)
        t1 = _boundary_trace(engined, items, 64, SerialEngine())
        assert t0 == t1
        assert direct.switches == engined.switches

    def test_bare_switching_estimator_plans_per_copy(self):
        rng = np.random.default_rng(0)
        est = SwitchingEstimator(
            lambda r: KMVSketch(64, r), copies=8,
            band=MultiplicativeBand(0.25), rng=rng,
        )
        plan = plan_shards(est)
        assert isinstance(plan, SwitchingShardPlan)
        assert plan.filter_duplicates and plan.aggregate_once
        assert plan.unique_hint

    def test_hll_inner_sketches_filter_without_unique_hint(self):
        rng = np.random.default_rng(0)
        est = SwitchingEstimator(
            lambda r: HyperLogLog(5, r), copies=4,
            band=MultiplicativeBand(0.3), rng=rng,
        )
        plan = plan_shards(est)
        assert isinstance(plan, SwitchingShardPlan)
        assert plan.filter_duplicates
        assert not plan.unique_hint
        items = _uniform(6_000, 1 << 9, seed=4)
        direct = SwitchingEstimator(
            lambda r: HyperLogLog(5, r), copies=4, band=MultiplicativeBand(0.3),
            rng=np.random.default_rng(1), restart=False,
            on_exhausted="clamp",
        )
        engined = SwitchingEstimator(
            lambda r: HyperLogLog(5, r), copies=4, band=MultiplicativeBand(0.3),
            rng=np.random.default_rng(1), restart=False,
            on_exhausted="clamp",
        )
        t0 = _boundary_trace(direct, items, 1024, None)
        t1 = _boundary_trace(engined, items, 1024, SerialEngine())
        assert t0 == t1
        assert direct.switches == engined.switches


class TestAdditiveEngine:
    """RobustEntropy (additive band, float CC copies) through the engine."""

    def _entropy(self, seed=3):
        return RobustEntropy(n=256, m=20_000, eps=0.5,
                             rng=np.random.default_rng(seed), copies=16)

    def test_serial_engine_matches_direct_and_per_item(self):
        items = _uniform(20_000, 256, seed=8)
        per_item = self._entropy()
        for item in items.tolist():
            per_item.update(item, 1)
        direct = self._entropy()
        engined = self._entropy()
        t0 = _boundary_trace(direct, items, 4096, None)
        t1 = _boundary_trace(engined, items, 4096, SerialEngine())
        assert t0 == t1
        assert direct.switches == engined.switches
        # The uniform ramp is monotone between boundary checks on this
        # stream: the chunked paths reproduce the per-item protocol.
        assert per_item.query() == direct.query()
        assert per_item.switches == direct.switches

    @needs_fork
    def test_process_engine_matches_direct(self):
        items = _uniform(20_000, 256, seed=9)
        direct = self._entropy(seed=4)
        engined = self._entropy(seed=4)
        t0 = _boundary_trace(direct, items, 4096, None)
        t1 = _boundary_trace(engined, items, 4096, ProcessEngine(workers=3))
        assert t0 == t1
        assert direct.switches == engined.switches

    def test_ingest_reports_additive_policy(self):
        est = self._entropy(seed=5)
        report = ingest(est, _uniform(4_000, 256, seed=5), chunk_size=1024,
                        engine="serial")
        assert report.policy == "additive"
        assert report.mode == "serial"

    def test_ingest_reports_epoch_policy(self):
        from repro.robust.heavy_hitters import RobustHeavyHitters

        est = RobustHeavyHitters(n=256, m=4_000, eps=0.3,
                                 rng=np.random.default_rng(2))
        report = ingest(est, _uniform(4_000, 256, seed=6), chunk_size=1024,
                        engine="serial")
        assert report.policy == "epoch"
        # the direct path resolves the policy from the estimator itself
        est2 = RobustHeavyHitters(n=256, m=4_000, eps=0.3,
                                  rng=np.random.default_rng(2))
        report2 = ingest(est2, _uniform(4_000, 256, seed=6), chunk_size=1024)
        assert report2.policy == "epoch"
        assert report2.mode == "direct"


class TestMergeContract:
    """Sketch.merge: partials combine to the serial state."""

    def _partial_pair(self, make, items, deltas=None):
        serial, left = make(), make()
        right = left.snapshot()
        mid = len(items) // 2
        serial.update_batch(items, deltas)
        left.update_batch(items[:mid], None if deltas is None else deltas[:mid])
        right.update_batch(items[mid:], None if deltas is None else deltas[mid:])
        left.merge(right)
        return serial, left

    def test_countmin_exact(self):
        items = _uniform(8_000, 512)
        serial, merged = self._partial_pair(
            lambda: CountMinSketch(256, 4, np.random.default_rng(1)), items
        )
        assert np.array_equal(serial._table, merged._table)
        assert serial.query() == merged.query()

    def test_countsketch_turnstile(self):
        items = _uniform(8_000, 512)
        deltas = np.random.default_rng(2).integers(-2, 3, size=len(items))
        serial, merged = self._partial_pair(
            lambda: CountSketch(128, 5, np.random.default_rng(1)),
            items, deltas,
        )
        assert np.allclose(serial._table, merged._table)

    def test_ams(self):
        items = _uniform(8_000, 512)
        serial, merged = self._partial_pair(
            lambda: AMSSketch(16, 3, np.random.default_rng(1)), items
        )
        assert np.allclose(serial._y, merged._y)

    def test_kmv_bitwise(self):
        items = _uniform(8_000, 4096)
        serial, merged = self._partial_pair(
            lambda: KMVSketch(64, np.random.default_rng(1)), items
        )
        assert serial.state_fingerprint() == merged.state_fingerprint()

    def test_hll_bitwise(self):
        items = _uniform(8_000, 4096)
        serial, merged = self._partial_pair(
            lambda: HyperLogLog(6, np.random.default_rng(1)), items
        )
        assert np.array_equal(serial._registers, merged._registers)

    def test_f1_and_exact(self):
        items = _uniform(4_000, 128)
        for make in (F1Counter, ExactDistinctCounter,
                     lambda: ExactMomentCounter(2.0)):
            serial, merged = self._partial_pair(make, items)
            assert serial.query() == merged.query()

    def test_merge_validates_operands(self):
        a = CountMinSketch(64, 3, np.random.default_rng(0))
        b = CountMinSketch(32, 3, np.random.default_rng(0))
        with pytest.raises(ValueError):
            a.merge(b)
        with pytest.raises(ValueError):
            KMVSketch(16, np.random.default_rng(0)).merge(
                KMVSketch(32, np.random.default_rng(0))
            )

    def test_mergeable_flag(self):
        assert CountMinSketch(8, 1, np.random.default_rng(0)).mergeable
        assert not MisraGries(8).mergeable
        with pytest.raises(NotImplementedError):
            MisraGries(8).merge(MisraGries(8))
        with pytest.raises(NotImplementedError):
            MisraGries(8).empty_like()

    def test_empty_like_shares_randomness_with_zero_state(self):
        items = _uniform(2_000, 256)
        for make in (
            lambda: CountMinSketch(64, 3, np.random.default_rng(4)),
            lambda: CountSketch(64, 3, np.random.default_rng(4)),
            lambda: AMSSketch(8, 3, np.random.default_rng(4)),
            lambda: KMVSketch(32, np.random.default_rng(4)),
            lambda: HyperLogLog(5, np.random.default_rng(4)),
            F1Counter,
            ExactDistinctCounter,
        ):
            full = make()
            full.update_batch(items)
            empty = full.empty_like()
            assert empty.query() == make().query()  # zero state
            empty.update_batch(items)               # same randomness
            assert empty.query() == full.query()

    @needs_fork
    def test_process_merge_preserves_pre_session_state(self):
        # Updates fed BEFORE the engine session must be counted exactly
        # once after finalize (partials are pure deltas, not snapshots).
        items = _uniform(12_000, 512)
        serial = CountMinSketch(128, 3, np.random.default_rng(2))
        serial.update_batch(items)
        split = CountMinSketch(128, 3, np.random.default_rng(2))
        split.update_batch(items[:4_000])
        report = ingest(
            split, StreamChunk.insertions(items[4_000:]), chunk_size=2048,
            engine=ProcessEngine(workers=2),
        )
        assert report.mode == "process[2]"
        assert np.array_equal(serial._table, split._table)

    @needs_fork
    def test_process_merge_session_matches_serial(self):
        items = _uniform(40_000, 2048)
        serial = CountMinSketch(256, 4, np.random.default_rng(6))
        serial.update_batch(items)
        parallel = CountMinSketch(256, 4, np.random.default_rng(6))
        report = ingest(
            parallel, StreamChunk.insertions(items), chunk_size=8192,
            engine=ProcessEngine(workers=3),
        )
        assert report.mode == "process[3]"
        assert np.array_equal(serial._table, parallel._table)
        # mid-session query merges without disturbing the partials
        a = KMVSketch(64, np.random.default_rng(8))
        b = KMVSketch(64, np.random.default_rng(8))
        a.update_batch(items)
        engine = ProcessEngine(workers=2)
        with engine.session(b) as session:
            session.feed(items[:20_000])
            assert session.query() > 0
            session.feed(items[20_000:])
        assert a.state_fingerprint() == b.state_fingerprint()


class TestPlanner:
    def test_wrapper_unwraps_to_switching_plan(self):
        est = _fresh_robust(1 << 11, 10_000)
        plan = plan_shards(est)
        assert isinstance(plan, SwitchingShardPlan)
        assert plan.universe == 1 << 11
        assert plan.filter_duplicates and plan.unique_hint

    def test_mergeable_plan(self):
        sketch = CountMinSketch(64, 3, np.random.default_rng(0))
        sketch.update(5, 3)
        plan = plan_shards(sketch)
        assert isinstance(plan, MergeShardPlan)
        partials = plan.make_partials(3)
        assert len(partials) == 3
        assert all(p is not plan.sketch for p in partials)
        assert all(p.query() == 0.0 for p in partials)  # pure deltas

    def test_entropy_plans_per_copy_with_additive_band(self):
        # The additive (entropy) band fans out per copy like any other
        # switching estimator; the plan carries the band policy.
        est = RobustEntropy(n=256, m=2_000, eps=0.5,
                            rng=np.random.default_rng(0))
        plan = plan_shards(est)
        assert isinstance(plan, SwitchingShardPlan)
        assert plan.band.name == "additive"
        assert not plan.band.bisectable
        assert isinstance(plan_shards(MisraGries(8)), SerialPlan)

    def test_heavy_hitters_gets_epoch_plan(self):
        from repro.robust.heavy_hitters import RobustHeavyHitters

        est = RobustHeavyHitters(n=512, m=4_000, eps=0.3,
                                 rng=np.random.default_rng(0))
        plan = plan_shards(est)
        assert isinstance(plan, EpochShardPlan)
        assert plan.l2_plan.band.name == "multiplicative"
        assert plan.ring.count == est._ring.count

    def test_wrapper_with_absent_switcher_falls_back_serial(self):
        # Regression (ISSUE 3 satellite): a wrapper advertising a
        # switching delegate that is absent/disabled must get an
        # explicit SerialPlan, not silent active-copy assumptions.
        class _Disabled(MisraGries):
            def __init__(self):
                super().__init__(8)
                self._switcher = None

        plan = plan_shards(_Disabled())
        assert isinstance(plan, SerialPlan)
        assert "absent" in plan.reason

        # The serial fallback must still ingest correctly end to end,
        # AND the planner's reason must be *surfaced* by the report —
        # a fallback that only shows up as matching results is silent.
        est = _Disabled()
        items = _uniform(2_000, 128, seed=3)
        report = ingest(est, items, chunk_size=512, engine="serial")
        assert report.updates == 2_000
        assert report.policy is None
        assert report.fallback_reason == plan.reason
        assert "absent" in report.fallback_reason

        # Same surfacing through the process engine's fallback path.
        report = ingest(_Disabled(), items, chunk_size=512,
                        engine=ProcessEngine(workers=2))
        assert "absent" in report.fallback_reason

        # Estimators the planner *can* shard report no fallback.
        sharded = RobustEntropy(n=256, m=2_000, eps=0.5,
                                rng=np.random.default_rng(0))
        report = ingest(sharded, items, chunk_size=512, engine="serial")
        assert report.fallback_reason is None

    def test_epoch_wrapper_without_switching_l2_falls_back_serial(self):
        from repro.robust.heavy_hitters import RobustHeavyHitters

        est = RobustHeavyHitters(n=256, m=2_000, eps=0.4,
                                 rng=np.random.default_rng(1))

        class _FlatTracker:
            """Duck-typed L2 stand-in without a switching core."""

            def query(self):
                return 1.0

            def update_batch(self, items, deltas=None):
                pass

        est._l2 = _FlatTracker()
        plan = plan_shards(est)
        assert isinstance(plan, SerialPlan)
        assert "epoch wrapper" in plan.reason

    def test_partition_copies(self):
        assert partition_copies(5, 2) == [[0, 1, 2], [3, 4]]
        assert partition_copies(2, 8) == [[0], [1]]
        assert partition_copies(6, 3) == [[0, 1], [2, 3], [4, 5]]
        with pytest.raises(ValueError):
            partition_copies(0, 2)
        with pytest.raises(ValueError):
            partition_copies(4, 0)

    @pytest.mark.parametrize("universe", [512, None])
    def test_seen_filter(self, universe):
        f = SeenFilter(universe)
        uniq = np.array([3, 7, 11], dtype=np.int64)
        assert np.array_equal(f.fresh(uniq), uniq)
        f.mark(uniq)
        assert len(f.fresh(uniq)) == 0
        mixed = np.array([7, 8, 11, 12], dtype=np.int64)
        assert np.array_equal(f.fresh(mixed), [8, 12])
        f.reset()
        assert np.array_equal(f.fresh(uniq), uniq)

    def test_seen_filter_out_of_universe_items_stay_fresh(self):
        f = SeenFilter(16)
        big = np.array([5, 999], dtype=np.int64)
        assert np.array_equal(f.fresh(big), big)
        f.mark(big)  # ignored: outside the dense mask
        assert np.array_equal(f.fresh(big), big)


def _prefetch_threads():
    import threading

    return [
        t for t in threading.enumerate()
        if t.name == "chunk-prefetch" and t.is_alive()
    ]


class TestPrefetch:
    def test_order_and_completeness(self):
        chunks = [np.arange(i, i + 4) for i in range(0, 40, 4)]
        got = list(prefetch_chunks(iter(chunks), depth=2))
        assert all(np.array_equal(a, b) for a, b in zip(chunks, got))
        assert len(got) == len(chunks)

    def test_producer_exception_propagates(self):
        def bad():
            yield 1
            raise RuntimeError("producer died")

        it = prefetch_chunks(bad())
        assert next(it) == 1
        with pytest.raises(RuntimeError, match="producer died"):
            list(it)

    def test_early_close_stops_producer(self):
        produced = []

        def source():
            for i in range(1000):
                produced.append(i)
                yield i

        it = prefetch_chunks(source(), depth=2)
        assert next(it) == 0
        it.close()
        assert len(produced) < 1000

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            list(prefetch_chunks([1, 2], depth=0))

    # -- lifecycle regressions (ISSUE 5 satellites) ----------------------

    def test_early_close_full_queue_depth1_joins_producer(self):
        """The terminal _DONE put must be stop-aware.

        depth=1 with an early close: the close-path drain frees one
        slot, the producer's in-flight chunk put grabs it, and the
        producer then reaches the terminal put with the queue full and
        the consumer gone — an unconditional put would block forever
        and leak the thread past the join timeout.
        """
        import time

        it = prefetch_chunks(iter([0, 1, 2]), depth=1)
        assert next(it) == 0
        time.sleep(0.2)  # producer now parked putting a chunk
        start = time.perf_counter()
        it.close()
        assert time.perf_counter() - start < 2.0, "close hit the join timeout"
        deadline = time.time() + 2.0
        while time.time() < deadline and _prefetch_threads():
            time.sleep(0.01)
        assert not _prefetch_threads(), "producer thread leaked after close"

    def test_slow_producer_early_close_joins_thread(self):
        """Early break with depth=1 and a slow producer: no leaked thread."""
        import time

        def source():
            for i in range(100):
                time.sleep(0.02)
                yield i

        it = prefetch_chunks(source(), depth=1)
        assert next(it) == 0
        it.close()
        deadline = time.time() + 2.0
        while time.time() < deadline and _prefetch_threads():
            time.sleep(0.01)
        assert not _prefetch_threads(), "producer thread leaked after close"

    def test_producer_exception_after_close_is_logged(self, caplog):
        """A failure after the consumer went away is surfaced, not dropped."""
        import logging
        import time

        def source():
            yield 0
            yield 1
            time.sleep(0.3)  # let the consumer close first
            raise RuntimeError("late producer failure")

        it = prefetch_chunks(source(), depth=1)
        assert next(it) == 0
        with caplog.at_level(logging.ERROR, logger="repro.engine.prefetch"):
            it.close()
            deadline = time.time() + 2.0
            while time.time() < deadline and _prefetch_threads():
                time.sleep(0.01)
        assert not _prefetch_threads()
        assert "late producer failure" in caplog.text

    def test_producer_exception_delivered_through_full_queue(self):
        """Delivery retries past a transiently full queue (no 1s give-up)."""
        import time

        def source():
            yield 0
            yield 1
            yield 2
            raise RuntimeError("post-chunk failure")

        it = prefetch_chunks(source(), depth=1)
        got = []
        with pytest.raises(RuntimeError, match="post-chunk failure"):
            for chunk in it:
                got.append(chunk)
                time.sleep(0.05)  # slow consumer: queue stays full
        assert got == [0, 1, 2]

    def test_blocked_source_join_timeout_is_logged(self, monkeypatch, caplog):
        """A producer that cannot be stopped is reported, not silently leaked."""
        import logging
        import threading

        import repro.engine.prefetch as prefetch_mod

        monkeypatch.setattr(prefetch_mod, "JOIN_TIMEOUT", 0.05)
        gate = threading.Event()

        def source():
            yield 0
            gate.wait(5.0)  # simulates blocked I/O inside the chunk source
            yield 1

        it = prefetch_chunks(source(), depth=1)
        assert next(it) == 0
        with caplog.at_level(logging.ERROR, logger="repro.engine.prefetch"):
            it.close()
        assert "failed to join" in caplog.text
        gate.set()  # release the thread so it exits before the next test


class TestPlumbing:
    def test_resolve_engine(self):
        assert resolve_engine(None) is None
        assert isinstance(resolve_engine("serial"), SerialEngine)
        assert isinstance(resolve_engine("process"), ProcessEngine)
        engine = resolve_engine("process:3")
        assert isinstance(engine, ProcessEngine) and engine.workers == 3
        assert resolve_engine(engine) is engine
        assert resolve_engine(2).workers == 2
        for bad in ("turbo", True, 1.5):
            with pytest.raises(ValueError):
                resolve_engine(bad)

    def test_ingest_reports_mode_and_prefetch(self):
        items = _uniform(6_000, 256)
        est = CountMinSketch(128, 3, np.random.default_rng(0))
        report = ingest(est, items, chunk_size=1024, prefetch=2)
        assert report.mode == "direct"
        assert report.updates == len(items)
        est2 = _fresh_robust(256, 6_000)
        report2 = ingest(est2, items, chunk_size=1024, engine="serial")
        assert report2.mode == "serial"
        assert report2.final_estimate == est2.query()

    def test_runner_engine_path_matches_direct(self):
        n, m = 512, 8_000
        items = _uniform(m, n, seed=9)
        a = _fresh_robust(n, m, seed=4)
        b = _fresh_robust(n, m, seed=4)
        s0 = run_relative(a, items, lambda f: f.f0(), chunk_size=1024)
        s1 = run_relative(b, items, lambda f: f.f0(), chunk_size=1024,
                          engine=SerialEngine())
        assert s0.worst_error == s1.worst_error
        assert s0.steps_judged == s1.steps_judged
        with pytest.raises(ValueError):
            run_relative(a, items, lambda f: f.f0(), engine=SerialEngine())

    @needs_fork
    def test_worker_error_surfaces(self):
        # A merge session forks one KMV partial per worker; negative
        # deltas are invalid for KMV, so each worker dies mid-feed and
        # the failure must come back as an EngineError, not a hang.
        engine = ProcessEngine(workers=2)
        session = engine.session(KMVSketch(64, np.random.default_rng(0)))
        assert session.mode == "process[2]"
        try:
            with pytest.raises(EngineError, match="ValueError"):
                session.feed(
                    np.arange(200, dtype=np.int64),
                    -np.ones(200, dtype=np.int64),
                )
        finally:
            session.close()
