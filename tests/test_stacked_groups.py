"""Stacked copy groups: bit-for-bit equivalence with the per-object path.

The ISSUE 6 tentpole restructures :class:`~repro.core.copies.CopyManager`
so homogeneous copy groups hold their array state as one stacked NumPy
block and every bulk feed/probe runs as a single kernel over the stack —
one shared hash pass per chunk for all k copies.  The load-bearing claim
is that this is a pure execution-strategy change: published outputs,
switch counts, and every intermediate table are **bit-for-bit identical**
to the per-object twin (``stacked=False``).

Layers under test:

* kernel level — ``poly_eval_stacked`` / ``hash_many_stacked`` /
  ``sign_many_stacked`` against their per-hash counterparts;
* sketch level — each :class:`~repro.sketches.stacking.SketchStack`
  (CountMin, CountSketch, AMS, KMV) against per-object ``update_batch``,
  including subrange preps, save/restore, install, and detach;
* manager level — stacking eligibility rules and the ndarray
  ``estimate_all`` contract;
* protocol level (Hypothesis) — whole switching estimators, stacked vs
  twin, across per-item / chunked / engine sessions, with
  restart rings, DP budget-exhaustion refreshes, and difference-ladder
  tier refreshes forcing mid-stream retirement through the stacks —
  including the Theorem 5.1 KMV ring and regression cases for prepared
  hash columns that must be refreshed when a copy is replaced mid-chunk;
* fork level — the heavy-hitters ring, the one copy set ProcessEngine
  shards, detaches its stacks before the fork and rebuilds them after
  collect.
"""

import multiprocessing as mp

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bands import MultiplicativeBand
from repro.core.copies import CopyManager
from repro.core.disciplines import (
    ActiveCopyDiscipline,
    DifferenceAggregateDiscipline,
    PrivateAggregateDiscipline,
)
from repro.core.ladder import DifferenceLadder, LadderTier
from repro.core.sketch_switching import SwitchingEstimator
from repro.engine import ProcessEngine, SerialEngine, fork_available
from repro.engine.shards import plan_shards
from repro.hashing.field import poly_eval_stacked, poly_eval_vec
from repro.hashing.kwise import (
    KWiseHash,
    KWiseSignHash,
    hash_many_stacked,
    sign_many_stacked,
    stack_coefficients,
)
from repro.sketches.ams import AMSSketch
from repro.sketches.countmin import CountMinSketch
from repro.sketches.countsketch import CountSketch
from repro.sketches.kmv import KMVSketch
from repro.sketches.misra_gries import MisraGries
from repro.streams.sources import GeneratorChunkSource

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="process engine requires the fork start method"
)


# ----------------------------------------------------------------------
# Kernel level
# ----------------------------------------------------------------------


class TestStackedHashKernels:
    def test_poly_eval_stacked_matches_per_poly(self):
        rng = np.random.default_rng(0)
        hashes = [KWiseHash(3, np.random.default_rng(i), out_bits=61)
                  for i in range(6)]
        xs = rng.integers(0, 1 << 50, size=513).astype(np.uint64)
        coeffs = stack_coefficients(hashes)
        stacked = poly_eval_stacked(coeffs, xs)
        for i in range(len(hashes)):
            assert np.array_equal(
                stacked[i], poly_eval_vec(list(coeffs[i]), xs)
            )

    def test_hash_many_stacked_matches_each_hash(self):
        rng = np.random.default_rng(1)
        hashes = [KWiseHash(2, np.random.default_rng(10 + i), out_bits=61)
                  for i in range(9)]
        xs = rng.integers(0, 1 << 40, size=300).astype(np.uint64)
        stacked = hash_many_stacked(hashes, xs)
        for i, h in enumerate(hashes):
            assert np.array_equal(stacked[i], h.hash_many(xs))

    def test_sign_many_stacked_matches_each_sign(self):
        rng = np.random.default_rng(2)
        signs = [KWiseSignHash(4, np.random.default_rng(20 + i))
                 for i in range(5)]
        xs = rng.integers(0, 1 << 32, size=257).astype(np.uint64)
        stacked = sign_many_stacked(signs, xs)
        for i, s in enumerate(signs):
            assert np.array_equal(stacked[i], s.sign_many(xs))

    def test_stack_coefficients_rejects_mixed_degree(self):
        a = KWiseHash(2, np.random.default_rng(0), out_bits=61)
        b = KWiseHash(4, np.random.default_rng(1), out_bits=61)
        with pytest.raises(ValueError):
            stack_coefficients([a, b])


# ----------------------------------------------------------------------
# Sketch level
# ----------------------------------------------------------------------


def _twins(cls, args, k, seed0=100, **kwargs):
    """Two identically-seeded copy lists: one stacked, one per-object."""
    obj = [cls(*args, np.random.default_rng(seed0 + i), **kwargs)
           for i in range(k)]
    stk = [cls(*args, np.random.default_rng(seed0 + i), **kwargs)
           for i in range(k)]
    return obj, cls.make_stack(stk)


STACKED_CASES = [
    (CountMinSketch, (32, 4), {}),
    (CountSketch, (32, 5), {}),
    (CountSketch, (32, 5), {"track_candidates": 4}),
    (AMSSketch, (6, 3), {}),
    (KMVSketch, (16,), {}),
    (KMVSketch, (300,), {}),  # stays in the exact small regime
]


def _state(sketch):
    if isinstance(sketch, (CountMinSketch, CountSketch)):
        return sketch._table
    if isinstance(sketch, KMVSketch):
        return sketch._mins
    return sketch._y


def _block(stack):
    for name in ("tables", "mins", "ys"):
        if hasattr(stack, name):
            return getattr(stack, name)
    raise AssertionError(f"no stacked block on {type(stack).__name__}")


class TestSketchStacks:
    @pytest.mark.parametrize("cls,args,kwargs", STACKED_CASES)
    def test_feed_matches_update_batch(self, cls, args, kwargs):
        rng = np.random.default_rng(7)
        items = rng.integers(0, 100, size=3000).astype(np.int64)
        obj, stack = _twins(cls, args, 4, **kwargs)
        stack.feed(stack.prepare(items, None), range(4))
        for o in obj:
            o.update_batch(items)
        for i in range(4):
            assert np.array_equal(_state(obj[i]), _state(stack.sketches[i]))
            assert obj[i].query() == stack.sketches[i].query()
        assert np.array_equal(
            stack.query_all(),
            np.array([o.query() for o in obj], dtype=np.float64),
        )

    @pytest.mark.parametrize("cls,args,kwargs", STACKED_CASES)
    def test_partial_plane_feed(self, cls, args, kwargs):
        rng = np.random.default_rng(8)
        items = rng.integers(0, 64, size=500).astype(np.int64)
        obj, stack = _twins(cls, args, 4, **kwargs)
        stack.feed(stack.prepare(items, None), [1, 3])
        obj[1].update_batch(items)
        obj[3].update_batch(items)
        for i in range(4):
            assert np.array_equal(_state(obj[i]), _state(stack.sketches[i]))

    @pytest.mark.parametrize("cls,args,kwargs", STACKED_CASES)
    def test_subset_prep_matches_fresh_prepare(self, cls, args, kwargs):
        rng = np.random.default_rng(9)
        items = rng.integers(0, 80, size=1000).astype(np.int64)
        lo, hi = 117, 803
        obj, stack = _twins(cls, args, 3, **kwargs)
        full = stack.prepare(items, None)
        stack.feed(stack.subset(full, items[lo:hi], None), range(3))
        _, fresh_stack = _twins(cls, args, 3, **kwargs)
        fresh_stack.feed(fresh_stack.prepare(items[lo:hi], None), range(3))
        for i in range(3):
            assert np.array_equal(
                _state(stack.sketches[i]), _state(fresh_stack.sketches[i])
            )

    @pytest.mark.parametrize("cls,args,kwargs", STACKED_CASES)
    def test_save_restore_roundtrip(self, cls, args, kwargs):
        rng = np.random.default_rng(10)
        items = rng.integers(0, 64, size=400).astype(np.int64)
        _, stack = _twins(cls, args, 4, **kwargs)
        stack.feed(stack.prepare(items, None), range(4))
        before = [_state(s).copy() for s in stack.sketches]
        queries = [s.query() for s in stack.sketches]
        saved = stack.save([0, 2])
        stack.feed(stack.prepare(items, None), [0, 2])
        stack.restore(saved)
        for i in range(4):
            assert np.array_equal(_state(stack.sketches[i]), before[i])
            assert stack.sketches[i].query() == queries[i]

    @pytest.mark.parametrize("cls,args,kwargs", STACKED_CASES)
    def test_install_rebinding(self, cls, args, kwargs):
        rng = np.random.default_rng(11)
        items = rng.integers(0, 64, size=300).astype(np.int64)
        _, stack = _twins(cls, args, 3, **kwargs)
        stack.feed(stack.prepare(items, None), range(3))
        fresh = cls(*args, np.random.default_rng(999), **kwargs)
        stack.install(1, fresh)
        assert stack.sketches[1] is fresh
        assert np.shares_memory(_state(fresh), _block(stack))
        # Feeding through the stack reaches the installed copy's plane.
        stack.feed(stack.prepare(items, None), [1])
        twin = cls(*args, np.random.default_rng(999), **kwargs)
        twin.update_batch(items)
        assert np.array_equal(_state(fresh), _state(twin))

    @pytest.mark.parametrize("cls,args,kwargs", STACKED_CASES)
    def test_detach_gives_templates_ownership(self, cls, args, kwargs):
        rng = np.random.default_rng(12)
        items = rng.integers(0, 64, size=300).astype(np.int64)
        _, stack = _twins(cls, args, 3, **kwargs)
        stack.feed(stack.prepare(items, None), range(3))
        states = [_state(s).copy() for s in stack.sketches]
        sketches = list(stack.sketches)
        stack.detach()
        block = _block(stack)
        for i, s in enumerate(sketches):
            assert np.array_equal(_state(s), states[i])
            assert not np.shares_memory(_state(s), block)

    @pytest.mark.parametrize("cls,args,kwargs", STACKED_CASES)
    def test_refresh_after_install(self, cls, args, kwargs):
        """A prep (and a subrange of it) cached across an install feeds
        the installed copy exactly like a fresh prepare would."""
        rng = np.random.default_rng(13)
        items = rng.integers(0, 90, size=700).astype(np.int64)
        _, stack = _twins(cls, args, 3, **kwargs)
        full = stack.prepare(items, None)
        sub = stack.subset(full, items[100:500], None)
        stack.install(2, cls(*args, np.random.default_rng(777), **kwargs))
        stack.refresh(full, 2)
        stack.refresh(sub, 2)
        stack.feed(sub, [2])
        stack.feed(full, [2])
        twin = cls(*args, np.random.default_rng(777), **kwargs)
        twin.update_batch(items[100:500])
        twin.update_batch(items)
        assert np.array_equal(_state(stack.sketches[2]), _state(twin))


# ----------------------------------------------------------------------
# Manager level
# ----------------------------------------------------------------------


class TestCopyManagerStacking:
    def test_homogeneous_group_stacks(self):
        mgr = CopyManager(
            lambda r: CountMinSketch(16, 3, r), 5, np.random.default_rng(0)
        )
        assert mgr.stacks and 0 in mgr.stacks

    def test_stacked_false_disables(self):
        mgr = CopyManager(
            lambda r: CountMinSketch(16, 3, r), 5,
            np.random.default_rng(0), stacked=False,
        )
        assert not mgr.stacks

    def test_unstackable_sketch_keeps_object_path(self):
        mgr = CopyManager(
            lambda r: MisraGries(16), 5, np.random.default_rng(0)
        )
        assert not mgr.stacks

    def test_single_copy_group_not_stacked(self):
        mgr = CopyManager.grouped(
            [(lambda r: CountMinSketch(16, 3, r), 1),
             (lambda r: MisraGries(16), 2)],
            np.random.default_rng(0),
        )
        assert not mgr.stacks

    def test_estimate_all_is_ndarray_on_both_paths(self):
        for stacked in (True, False):
            mgr = CopyManager(
                lambda r: CountMinSketch(16, 3, r), 4,
                np.random.default_rng(0), stacked=stacked,
            )
            ys = mgr.estimate_all()
            assert isinstance(ys, np.ndarray) and ys.dtype == np.float64
            assert len(ys) == 4
            sub = mgr.estimate_all((2, 0))
            assert isinstance(sub, np.ndarray) and len(sub) == 2
            assert sub[0] == ys[2] and sub[1] == ys[0]

    def test_unstack_restack_roundtrip(self):
        mgr = CopyManager(
            lambda r: CountMinSketch(16, 3, r), 4, np.random.default_rng(0)
        )
        items = np.arange(50, dtype=np.int64)
        for s in mgr.sketches:
            s.update_batch(items)
        tables = [s._table.copy() for s in mgr.sketches]
        mgr.unstack()
        assert not mgr.stacks
        for s, t in zip(mgr.sketches, tables):
            assert np.array_equal(s._table, t)
        mgr.restack()
        assert mgr.stacks
        for s, t in zip(mgr.sketches, tables):
            assert np.array_equal(s._table, t)


# ----------------------------------------------------------------------
# Protocol level: stacked estimator vs per-object twin (Hypothesis)
# ----------------------------------------------------------------------


def _cs_estimator(stacked, budget=None):
    return SwitchingEstimator(
        factory=lambda rng: CountSketch(24, 3, rng, track_candidates=0),
        copies=5, rng=np.random.default_rng(42),
        band=MultiplicativeBand(0.4),
        discipline=PrivateAggregateDiscipline(
            noise_scale=0.02, switch_budget=budget, on_exhausted="retire"
        ),
        stacked=stacked,
    )


def _cm_ring(stacked):
    return SwitchingEstimator(
        factory=lambda rng: CountMinSketch(24, 3, rng),
        copies=5, rng=np.random.default_rng(42),
        band=MultiplicativeBand(0.4),
        discipline=ActiveCopyDiscipline(), restart=True,
        stacked=stacked,
    )


def _ladder_estimator(stacked):
    ladder = DifferenceLadder([
        LadderTier(copies=2, noise_scale=0.1, capacity=3, span=0.35),
        LadderTier(copies=2, noise_scale=0.05, capacity=2, span=0.7),
    ])
    fac = lambda rng: AMSSketch(4, 3, rng)
    manager = CopyManager.grouped(
        [(fac, 2), (fac, 2), (fac, 4)],
        np.random.default_rng(42), stacked=stacked,
    )
    return SwitchingEstimator(
        copies=manager, band=MultiplicativeBand(0.4),
        discipline=DifferenceAggregateDiscipline(
            ladder=ladder, noise_scale=0.05, on_exhausted="retire"
        ),
        stacked=stacked,
    )


def _trace_chunked(est, items, chunk):
    trace = []
    for lo in range(0, len(items), chunk):
        est.update_chunk(np.asarray(items[lo:lo + chunk], dtype=np.int64))
        trace.append((est.query(), est.switches))
    return trace


def _trace_engine(est, items, chunk, engine):
    trace = []
    with engine.session(est) as session:
        if isinstance(engine, ProcessEngine):
            # Switching plans never fork: the serial session opens.
            assert session.mode == "serial"
            assert mp.active_children() == []
        for lo in range(0, len(items), chunk):
            session.feed(np.asarray(items[lo:lo + chunk], dtype=np.int64))
            trace.append((session.query(), est.switches))
    return trace


def _trace_per_item(est, items):
    trace = []
    for item in items:
        est.process_update(int(item), 1)
    trace.append((est.query(), est.switches))
    return trace


class TestStackedTwinEquivalence:
    """Stacked vs ``stacked=False`` twin along each execution path.

    Compared *per path* (not across paths): float-state sketches only
    promise cross-path equality up to summation order, but within one
    path the stacked run must be bit-for-bit the object run.
    """

    @settings(max_examples=12, deadline=None)
    @given(
        items=st.lists(st.integers(0, 63), min_size=100, max_size=600),
        chunk=st.sampled_from([37, 128, 250]),
    )
    def test_dp_chunked(self, items, chunk):
        t1 = _trace_chunked(_cs_estimator(True), items, chunk)
        t0 = _trace_chunked(_cs_estimator(False), items, chunk)
        assert t1 == t0

    @settings(max_examples=8, deadline=None)
    @given(items=st.lists(st.integers(0, 63), min_size=50, max_size=300))
    def test_dp_per_item(self, items):
        t1 = _trace_per_item(_cs_estimator(True), items)
        t0 = _trace_per_item(_cs_estimator(False), items)
        assert t1 == t0

    @settings(max_examples=10, deadline=None)
    @given(
        items=st.lists(st.integers(0, 63), min_size=100, max_size=600),
        chunk=st.sampled_from([64, 200]),
    )
    def test_dp_serial_engine(self, items, chunk):
        t1 = _trace_engine(_cs_estimator(True), items, chunk, SerialEngine())
        t0 = _trace_engine(_cs_estimator(False), items, chunk, SerialEngine())
        assert t1 == t0

    @needs_fork
    @settings(max_examples=4, deadline=None)
    @given(
        items=st.lists(st.integers(0, 63), min_size=100, max_size=400),
        chunk=st.sampled_from([64, 200]),
    )
    def test_dp_process_engine(self, items, chunk):
        engine = ProcessEngine(workers=2)
        t1 = _trace_engine(_cs_estimator(True), items, chunk, engine)
        t0 = _trace_engine(_cs_estimator(False), items, chunk, engine)
        assert t1 == t0
        t2 = _trace_engine(_cs_estimator(True), items, chunk, SerialEngine())
        assert t1 == t2

    @settings(max_examples=10, deadline=None)
    @given(
        items=st.lists(st.integers(0, 63), min_size=200, max_size=800),
        chunk=st.sampled_from([50, 160, 320]),
    )
    def test_dp_budget_refresh_mid_stream(self, items, chunk):
        """A tiny SVT budget forces whole-copy-set retirement (every
        plane reseeded through ``CopyManager.install``) mid-stream."""
        a = _cs_estimator(True, budget=2)
        b = _cs_estimator(False, budget=2)
        t1 = _trace_chunked(a, items, chunk)
        t0 = _trace_chunked(b, items, chunk)
        assert t1 == t0
        assert a.discipline.generations == b.discipline.generations

    @settings(max_examples=12, deadline=None)
    @given(
        items=st.lists(st.integers(0, 63), min_size=100, max_size=600),
        chunk=st.sampled_from([48, 130, 260]),
    )
    def test_restart_ring_chunked(self, items, chunk):
        t1 = _trace_chunked(_cm_ring(True), items, chunk)
        t0 = _trace_chunked(_cm_ring(False), items, chunk)
        assert t1 == t0

    @settings(max_examples=8, deadline=None)
    @given(
        items=st.lists(st.integers(0, 31), min_size=150, max_size=600),
        chunk=st.sampled_from([64, 220]),
    )
    def test_difference_ladder_chunked(self, items, chunk):
        """Grouped AMS manager under the difference ladder: tier-group
        refreshes and strong checkpoints run through three stacks."""
        a = _ladder_estimator(True)
        b = _ladder_estimator(False)
        t1 = _trace_chunked(a, items, chunk)
        t0 = _trace_chunked(b, items, chunk)
        assert t1 == t0
        assert a.discipline.strong_charges == b.discipline.strong_charges

    @settings(max_examples=6, deadline=None)
    @given(
        items=st.lists(st.integers(0, 31), min_size=150, max_size=500),
        chunk=st.sampled_from([64, 200]),
    )
    def test_difference_ladder_serial_engine(self, items, chunk):
        t1 = _trace_engine(_ladder_estimator(True), items, chunk,
                           SerialEngine())
        t0 = _trace_engine(_ladder_estimator(False), items, chunk,
                           SerialEngine())
        assert t1 == t0


# ----------------------------------------------------------------------
# KMV groups (Theorem 5.1) and copy replacement under cached preps
# ----------------------------------------------------------------------


def _kmv_ring(stacked):
    return SwitchingEstimator(
        factory=lambda rng: KMVSketch(24, rng),
        copies=6, rng=np.random.default_rng(42),
        band=MultiplicativeBand(0.3), restart=True, stacked=stacked,
    )


def _kmv_dp(stacked, budget=None):
    return SwitchingEstimator(
        factory=lambda rng: KMVSketch(24, rng),
        copies=5, rng=np.random.default_rng(42),
        band=MultiplicativeBand(0.3),
        discipline=PrivateAggregateDiscipline(
            noise_scale=0.02, switch_budget=budget, on_exhausted="retire"
        ),
        stacked=stacked,
    )


def _kmv_ladder(stacked):
    ladder = DifferenceLadder([
        LadderTier(copies=2, noise_scale=0.1, capacity=3, span=0.35),
    ])
    manager = CopyManager.grouped(
        [(lambda r: KMVSketch(8, r), 2), (lambda r: KMVSketch(32, r), 4)],
        np.random.default_rng(42), stacked=stacked,
    )
    return SwitchingEstimator(
        copies=manager, band=MultiplicativeBand(0.4),
        discipline=DifferenceAggregateDiscipline(
            ladder=ladder, noise_scale=0.05, on_exhausted="retire"
        ),
        stacked=stacked,
    )


def _cs_ring(stacked, copies=6, band=0.4):
    return SwitchingEstimator(
        factory=lambda rng: CountSketch(32, 3, rng, track_candidates=0),
        copies=copies, rng=np.random.default_rng(42),
        band=MultiplicativeBand(band), restart=True, stacked=stacked,
    )


def _trace_items(est, items):
    trace = []
    for item in items:
        est.update(int(item))
        trace.append((est.query(), est.switches))
    return trace


def _trace_source(est, source):
    trace = []
    with SerialEngine().session(est, source=source) as session:
        mode = session.source_mode
        for chunk in source.chunks():
            session.feed(chunk.items, chunk.deltas)
            trace.append((session.query(), est.switches))
    return trace, mode


growing = st.lists(st.integers(0, 2000), min_size=150, max_size=900)


class TestStackedKMVEquivalence:
    """KMV copy groups stack; every path must match the object twin."""

    def test_kmv_groups_stack(self):
        assert _kmv_ring(True)._copies.stacks
        assert not _kmv_ring(False)._copies.stacks
        assert len(_kmv_ladder(True)._copies.stacks) == 2

    @settings(max_examples=8, deadline=None)
    @given(items=growing)
    def test_ring_per_item(self, items):
        t1 = _trace_items(_kmv_ring(True), items)
        t0 = _trace_items(_kmv_ring(False), items)
        assert t1 == t0

    @settings(max_examples=8, deadline=None)
    @given(items=growing, chunk=st.sampled_from([37, 130]))
    def test_ring_per_item_then_chunked(self, items, chunk):
        """Per-item updates write the templates' own rows before the
        stack first adopts them into its block."""
        half = len(items) // 2
        traces = []
        for stacked in (True, False):
            est = _kmv_ring(stacked)
            trace = _trace_items(est, items[:half])
            traces.append(trace + _trace_chunked(est, items[half:], chunk))
        assert traces[0] == traces[1]

    @settings(max_examples=12, deadline=None)
    @given(items=growing, chunk=st.sampled_from([37, 130, 400]))
    def test_ring_chunked(self, items, chunk):
        a, b = _kmv_ring(True), _kmv_ring(False)
        t1 = _trace_chunked(a, items, chunk)
        assert t1 == _trace_chunked(b, items, chunk)
        # KMV state is exact, so the chunked path also lands on the
        # per-item path's published value and switch count.
        c = _kmv_ring(False)
        _trace_items(c, items)
        assert (a.query(), a.switches) == (c.query(), c.switches)

    @settings(max_examples=10, deadline=None)
    @given(items=growing, chunk=st.sampled_from([64, 200]))
    def test_ring_serial_engine_seen_filter(self, items, chunk):
        assert plan_shards(_kmv_ring(True)).hoists.filter_duplicates
        t1 = _trace_engine(_kmv_ring(True), items, chunk, SerialEngine())
        t0 = _trace_engine(_kmv_ring(False), items, chunk, SerialEngine())
        assert t1 == t0

    @settings(max_examples=10, deadline=None)
    @given(items=growing, chunk=st.sampled_from([50, 160, 320]))
    def test_private_aggregate(self, items, chunk):
        """All-copy probes read ``query_all``; a tiny SVT budget forces
        whole-set retirement mid-stream."""
        a, b = _kmv_dp(True, budget=2), _kmv_dp(False, budget=2)
        t1 = _trace_chunked(a, items, chunk)
        assert t1 == _trace_chunked(b, items, chunk)
        assert a.discipline.generations == b.discipline.generations

    @settings(max_examples=8, deadline=None)
    @given(items=growing, chunk=st.sampled_from([64, 220]))
    def test_difference_ladder(self, items, chunk):
        a, b = _kmv_ladder(True), _kmv_ladder(False)
        t1 = _trace_chunked(a, items, chunk)
        assert t1 == _trace_chunked(b, items, chunk)
        assert a.discipline.strong_charges == b.discipline.strong_charges

    @needs_fork
    def test_process_engine_unstack_restack(self):
        # The heavy-hitters ring is the copy set ProcessEngine forks: its
        # stacks are detached before the fork (workers run the object
        # path) and rebuilt after the workers' collect.
        from repro.robust.heavy_hitters import RobustHeavyHitters

        items = np.random.default_rng(6).zipf(1.4, size=6000) % 512

        def run(engine):
            est = RobustHeavyHitters(n=512, m=len(items), eps=0.3,
                                     rng=np.random.default_rng(11))
            assert est._ring.stacks
            with engine.session(est) as session:
                for lo in range(0, len(items), 512):
                    session.feed(items[lo:lo + 512])
            return est, session.mode

        forked, mode = run(ProcessEngine(workers=2))
        assert mode == "process[2]"
        assert forked._ring.stacks  # restacked after the workers' collect
        serial, _ = run(SerialEngine())
        assert (forked.query(), forked.epochs) == (serial.query(),
                                                   serial.epochs)
        assert forked.heavy_hitters() == serial.heavy_hitters()
        for a, b in zip(forked._ring.sketches, serial._ring.sketches):
            assert np.array_equal(a._table, b._table)


class TestReplacedCopyColumns:
    """A copy replaced mid-chunk brings new hash functions; prepared
    columns cached before the replacement must not keep feeding it the
    burned copy's hashes.  CountSketch's F2 query reads the hashed
    table, so stale columns change published values and switch counts
    (CountMin's F1 query cannot see them)."""

    @settings(max_examples=12, deadline=None)
    @given(
        items=st.lists(st.integers(0, 300), min_size=300, max_size=1500),
        chunk=st.sampled_from([130, 512, 1500]),
    )
    def test_countsketch_ring_chunked(self, items, chunk):
        t1 = _trace_chunked(_cs_ring(True), items, chunk)
        t0 = _trace_chunked(_cs_ring(False), items, chunk)
        assert t1 == t0

    def test_countsketch_ring_regression(self):
        items = np.random.default_rng(0).integers(0, 2000, 8192)
        a, b = _cs_ring(True, copies=8), _cs_ring(False, copies=8)
        assert _trace_chunked(a, items, 4096) == _trace_chunked(b, items, 4096)
        assert a.switches > 50  # many mid-chunk replacements

    def test_countsketch_ring_universe_path(self):
        source = GeneratorChunkSource(
            "uniform", n=500, m=4096, seed=0, chunk_size=2048
        )
        t1, mode = _trace_source(_cs_ring(True, copies=8, band=0.3), source)
        assert mode == "universe"
        t0, twin_mode = _trace_source(
            _cs_ring(False, copies=8, band=0.3), source
        )
        assert twin_mode.startswith("bytes")
        assert t1 == t0
