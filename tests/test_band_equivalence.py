"""Property tests: band-policy and probe-discipline equivalence across
execution paths.

The refactor's load-bearing claim (ISSUE 3 satellite, extended by the
ISSUE 4 discipline axis): for every
:class:`~repro.core.bands.BandPolicy` and both
:class:`~repro.core.disciplines.ProbeDiscipline` implementations, the
per-item protocol, the serial chunked path (``update_chunk``), and the
engine sessions publish identical outputs and switch counts on
exact-state sketches (a :class:`ProcessEngine` opens the serial session
for every switching estimator and forks only the heavy-hitters ring) —
with the one *documented* exception that
non-monotone trackers under the additive band coalesce a transient band
exit that fully reverts between two boundary checks.  Hypothesis drives
the stream shapes and chunk sizes; the forced mid-chunk revert case pins
the coalescing behaviour explicitly.
"""

import math
import multiprocessing as mp

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bands import AdditiveBand, MultiplicativeBand
from repro.core.copies import CopyManager
from repro.core.disciplines import (
    DifferenceAggregateDiscipline,
    PrivateAggregateDiscipline,
)
from repro.core.ladder import DifferenceLadder, LadderTier
from repro.core.sketch_switching import SwitchingEstimator
from repro.engine import ProcessEngine, SerialEngine, fork_available
from repro.robust.heavy_hitters import RobustHeavyHitters
from repro.sketches.base import Sketch
from repro.sketches.kmv import KMVSketch

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="process engine requires the fork start method"
)


class _ExactEntropy(Sketch):
    """Deterministic exact Shannon entropy — an exact-state additive
    tracker (integer counts; queries recomputed from scratch)."""

    supports_deletions = False

    def __init__(self, rng=None):
        self._counts: dict[int, int] = {}
        self._total = 0

    def update(self, item: int, delta: int = 1) -> None:
        self._counts[item] = self._counts.get(item, 0) + delta
        self._total += delta

    def query(self) -> float:
        if self._total <= 0:
            return 0.0
        h = 0.0
        for c in self._counts.values():
            if c > 0:
                p = c / self._total
                h -= p * math.log2(p)
        return h

    def space_bits(self) -> int:
        return 64 * (len(self._counts) + 1)


def _per_item_trace(est, items, chunk):
    """Per chunk: published value, switch count, and the stream
    positions (item indices) of the switches inside the chunk."""
    trace = []
    for lo in range(0, len(items), chunk):
        positions = []
        for off, item in enumerate(items[lo:lo + chunk]):
            before = est.switches
            est.update(int(item), 1)
            if est.switches != before:
                positions.append(lo + off)
        trace.append((est.query(), est.switches, tuple(positions)))
    return trace


def _log_switch_offsets(est):
    """Record each switch's offset within its chunk: the ``position`` the
    chunk drive loop hands the switch site, which ``SwitchEvent.position``
    reports."""
    offsets = []
    commit = est._commit_switch

    def logged(y, replace=None, position=None):
        offsets.append(position)
        commit(y, replace=replace, position=position)

    est._commit_switch = logged
    return offsets


def _chunked_trace(est, items, chunk, engine=None):
    """Like :func:`_per_item_trace`, so a switch moved to another
    position inside a chunk fails even when the published values
    coincide."""
    trace = []
    offsets = _log_switch_offsets(est)

    def record(lo, value):
        trace.append((value, est.switches, tuple(lo + o for o in offsets)))
        offsets.clear()

    if engine is None:
        for lo in range(0, len(items), chunk):
            est.update_chunk(np.asarray(items[lo:lo + chunk], dtype=np.int64))
            record(lo, est.query())
        return trace
    with engine.session(est) as session:
        if isinstance(engine, ProcessEngine):
            # Switching plans never fork: the serial session opens.
            assert session.mode == "serial"
            assert mp.active_children() == []
        for lo in range(0, len(items), chunk):
            session.feed(np.asarray(items[lo:lo + chunk], dtype=np.int64))
            record(lo, session.query())
    return trace


def _kmv_estimator(restart):
    return SwitchingEstimator(
        lambda r: KMVSketch(48, r), copies=6, rng=np.random.default_rng(7),
        band=MultiplicativeBand(0.35), restart=restart,
        on_exhausted="clamp" if not restart else "raise",
    )


def _entropy_estimator(eps=0.5):
    return SwitchingEstimator(
        lambda r: _ExactEntropy(), copies=8, rng=np.random.default_rng(3),
        band=AdditiveBand(eps), on_exhausted="clamp",
    )


class TestMultiplicativeEquivalence:
    """Monotone tracked quantity: all paths are per-item exact."""

    @settings(max_examples=25, deadline=None)
    @given(
        items=st.lists(st.integers(0, 255), min_size=150, max_size=500),
        chunk=st.sampled_from([48, 96, 200, 333]),
        restart=st.booleans(),
    )
    def test_per_item_chunked_engine_identical(self, items, chunk, restart):
        t0 = _per_item_trace(_kmv_estimator(restart), items, chunk)
        t1 = _chunked_trace(_kmv_estimator(restart), items, chunk)
        t2 = _chunked_trace(_kmv_estimator(restart), items, chunk,
                            SerialEngine())
        assert t0 == t1 == t2

    @needs_fork
    def test_process_engine_matches(self):
        items = [i % 200 for i in range(600)] + list(range(200, 450))
        t1 = _chunked_trace(_kmv_estimator(True), items, 128)
        t2 = _chunked_trace(_kmv_estimator(True), items, 128,
                            ProcessEngine(workers=2))
        assert t1 == t2


def _dp_estimator(copies=7, noise=0.04, budget=None):
    return SwitchingEstimator(
        lambda r: KMVSketch(48, r), copies=copies,
        rng=np.random.default_rng(7),
        band=MultiplicativeBand(0.35),
        discipline=PrivateAggregateDiscipline(
            noise_scale=noise, switch_budget=budget
        ),
    )


class TestPrivateAggregateEquivalence:
    """The DP discipline through the same protocol: noisy median over
    all copies, coordinator noise keyed to the publication count — so
    per-item, chunked, and engine paths agree bit for bit, exactly like
    the active-copy discipline."""

    @settings(max_examples=25, deadline=None)
    @given(
        items=st.lists(st.integers(0, 255), min_size=150, max_size=500),
        chunk=st.sampled_from([48, 96, 200, 333]),
    )
    def test_per_item_chunked_engine_identical(self, items, chunk):
        t0 = _per_item_trace(_dp_estimator(), items, chunk)
        t1 = _chunked_trace(_dp_estimator(), items, chunk)
        t2 = _chunked_trace(_dp_estimator(), items, chunk, SerialEngine())
        assert t0 == t1 == t2

    @settings(max_examples=10, deadline=None)
    @given(
        items=st.lists(st.integers(0, 127), min_size=200, max_size=400),
        chunk=st.sampled_from([64, 150]),
    )
    def test_retirement_inside_a_chunk_is_deterministic(self, items, chunk):
        # A tiny switch budget forces whole-set retirements mid-stream;
        # the refresh RNG draws happen on the coordinator in index
        # order, so every path still agrees bit for bit.
        t0 = _per_item_trace(_dp_estimator(copies=4, budget=3), items, chunk)
        t1 = _chunked_trace(_dp_estimator(copies=4, budget=3), items, chunk)
        t2 = _chunked_trace(_dp_estimator(copies=4, budget=3), items, chunk,
                            SerialEngine())
        assert t0 == t1 == t2

    @needs_fork
    def test_process_engine_matches(self):
        # The all-copy probe runs in the serial session, no worker forked.
        items = [i % 100 for i in range(700)] + list(range(100, 400))
        t1 = _chunked_trace(_dp_estimator(), items, 128)
        t2 = _chunked_trace(_dp_estimator(), items, 128,
                            ProcessEngine(workers=3))
        assert t1 == t2

    @needs_fork
    def test_process_engine_retirement_matches(self):
        items = list(range(500)) + [i % 64 for i in range(400)]
        t1 = _chunked_trace(_dp_estimator(copies=5, budget=4), items, 128)
        t2 = _chunked_trace(_dp_estimator(copies=5, budget=4), items, 128,
                            ProcessEngine(workers=2))
        assert t1 == t2


def _ladder_estimator(capacity0=3, capacity1=2, tier_budget=None,
                      strong_budget=None):
    ladder = DifferenceLadder([
        LadderTier(copies=2, noise_scale=0.08, capacity=capacity0, span=0.3,
                   budget=tier_budget),
        LadderTier(copies=2, noise_scale=0.04, capacity=capacity1, span=0.6,
                   budget=tier_budget),
    ])
    return SwitchingEstimator(
        lambda r: KMVSketch(48, r), copies=9, rng=np.random.default_rng(7),
        band=MultiplicativeBand(0.35),
        discipline=DifferenceAggregateDiscipline(
            ladder=ladder, noise_scale=0.04, switch_budget=strong_budget
        ),
    )


def _grouped_ladder_estimator(tier_budget=None):
    """Heterogeneous copy groups: a cheap tier sketch + strong sketches.

    Exercises the per-group backend fan-out with *different* factories
    per group — in particular the worker-side replace on tier refresh.
    """
    ladder = DifferenceLadder([
        LadderTier(copies=2, noise_scale=0.08, capacity=3, span=0.4,
                   budget=tier_budget),
    ])
    manager = CopyManager.grouped(
        [(lambda r: KMVSketch(24, r), 2), (lambda r: KMVSketch(48, r), 4)],
        np.random.default_rng(11),
    )
    return SwitchingEstimator(
        copies=manager, band=MultiplicativeBand(0.35),
        discipline=DifferenceAggregateDiscipline(
            ladder=ladder, noise_scale=0.04
        ),
    )


class TestDifferenceLadderEquivalence:
    """The ladder discipline through the same protocol: group probe sets
    (the current tier's copies between checkpoints, every group at a
    checkpoint), coordinator-side anchoring and noise keyed to the
    publication count — per-item, chunked, and the engines bit for bit,
    including windows where a promotion lands mid-chunk."""

    @settings(max_examples=25, deadline=None)
    @given(
        items=st.lists(st.integers(0, 255), min_size=150, max_size=500),
        chunk=st.sampled_from([48, 96, 200, 333]),
    )
    def test_per_item_chunked_engine_identical(self, items, chunk):
        t0 = _per_item_trace(_ladder_estimator(), items, chunk)
        t1 = _chunked_trace(_ladder_estimator(), items, chunk)
        t2 = _chunked_trace(_ladder_estimator(), items, chunk,
                            SerialEngine())
        assert t0 == t1 == t2

    def test_promotion_forced_mid_chunk(self):
        """A single chunk spans several checkpoint windows: tier-0 and
        tier-1 publications, span promotions, and at least two strong
        checkpoints all resolve inside one crossing chunk — and the
        paths still agree bit for bit."""
        items = list(range(900))  # F0 ramp: every item fresh
        chunk = len(items)
        ests = [_ladder_estimator(capacity0=2, capacity1=1)
                for _ in range(3)]
        t0 = _per_item_trace(ests[0], items, chunk)
        t1 = _chunked_trace(ests[1], items, chunk)
        t2 = _chunked_trace(ests[2], items, chunk, SerialEngine())
        assert t0 == t1 == t2
        state = ests[1].discipline.budget_state()
        assert state["checkpoints"] >= 2, "stream did not force promotions"
        assert state["publications"] > state["strong_charges"], (
            "no publication was answered below the strong group"
        )

    @settings(max_examples=10, deadline=None)
    @given(
        items=st.lists(st.integers(0, 127), min_size=200, max_size=400),
        chunk=st.sampled_from([64, 150]),
    )
    def test_strong_retirement_inside_a_chunk_is_deterministic(
        self, items, chunk
    ):
        # A tiny strong budget forces whole-set retirements mid-stream;
        # refresh RNG draws happen on the coordinator in index order.
        t1 = _chunked_trace(_ladder_estimator(strong_budget=2), items, chunk)
        t2 = _chunked_trace(_ladder_estimator(strong_budget=2), items, chunk,
                            SerialEngine())
        t0 = _per_item_trace(_ladder_estimator(strong_budget=2), items, chunk)
        assert t0 == t1 == t2

    @needs_fork
    def test_process_engine_matches(self):
        # Group probe sets run in the serial session, no worker forked.
        items = [i % 100 for i in range(700)] + list(range(100, 400))
        t1 = _chunked_trace(_ladder_estimator(), items, 128)
        t2 = _chunked_trace(_ladder_estimator(), items, 128,
                            ProcessEngine(workers=3))
        assert t1 == t2

    @needs_fork
    def test_process_engine_heterogeneous_tier_refresh_matches(self):
        # Tier budget exhaustion rebuilds the *tier* group in-place with
        # its own (cheaper) factory, in the serial session.
        items = list(range(800))
        a = _grouped_ladder_estimator(tier_budget=2)
        b = _grouped_ladder_estimator(tier_budget=2)
        t1 = _chunked_trace(a, items, 128)
        t2 = _chunked_trace(b, items, 128, ProcessEngine(workers=2))
        assert t1 == t2
        assert a.discipline.ladder.tier_generations[0] >= 1, (
            "stream did not force a tier refresh"
        )


class TestChunkEdgeSwitch:
    """A switch on a chunk's last update: the fresh decision estimate is
    first checked on the next chunk's first item, where the per-item
    path may switch again at once.  The next chunk must not be resolved
    by a boundary probe, which would coalesce that exit whenever the
    estimate is back in band by the chunk's end."""

    @pytest.mark.parametrize("seed,chunk", [(335, 96), (492, 200)])
    def test_restart_ring(self, seed, chunk):
        items = np.random.default_rng(seed).integers(0, 256, 500).tolist()
        t0 = _per_item_trace(_kmv_estimator(True), items, chunk)
        t1 = _chunked_trace(_kmv_estimator(True), items, chunk)
        t2 = _chunked_trace(_kmv_estimator(True), items, chunk,
                            SerialEngine())
        assert t0 == t1 == t2
        edges = [p for _, _, ps in t0 for p in ps if p % chunk == 0 and p]
        assert any(p - 1 in ps for _, _, ps in t0 for p in edges), (
            "stream did not switch on both sides of a chunk edge"
        )

    def test_ladder(self):
        items = np.random.default_rng(794).integers(0, 256, 300).tolist()
        chunk = 186
        trace = []
        for engine in (None, None, SerialEngine()):
            est = _ladder_estimator(capacity0=2, capacity1=1)
            trace.append(
                _per_item_trace(est, items, chunk) if not trace
                else _chunked_trace(est, items, chunk, engine)
            )
        assert trace[0] == trace[1] == trace[2]
        assert {184, 185, 186} <= set(trace[0][0][2] + trace[0][1][2])


class TestDeferredFanOut:
    """Crossing chunks with several switches each, where copies enter
    the probe set (and are reborn) mid-chunk: the copies fed late must
    end every chunk exactly where the per-item path leaves them."""

    @staticmethod
    def _assert_identical(make, items, chunk):
        t0 = _per_item_trace(make(), items, chunk)
        t1 = _chunked_trace(make(), items, chunk)
        t2 = _chunked_trace(make(), items, chunk, SerialEngine())
        assert t0 == t1 == t2
        assert max(len(ps) for _, _, ps in t0) >= 3, (
            "no chunk held three switches"
        )
        return t0

    @pytest.mark.parametrize("restart", [True, False])
    def test_active_copy(self, restart):
        items = list(range(700)) + [i % 300 for i in range(300)]
        self._assert_identical(lambda: _kmv_estimator(restart), items, 350)

    def test_dp_retirement(self):
        items = list(range(600)) + [i % 97 for i in range(200)]
        self._assert_identical(
            lambda: _dp_estimator(copies=4, budget=3), items, 400
        )

    def test_ladder_tier_refresh_and_promotion(self):
        items = list(range(900))
        ests = []

        def make():
            ests.append(_ladder_estimator(capacity0=2, capacity1=1,
                                          tier_budget=2))
            return ests[-1]

        self._assert_identical(make, items, 450)
        ladder = ests[1].discipline.ladder
        assert sum(ladder.tier_generations) >= 1, "no tier refresh"
        assert ests[1].discipline.budget_state()["checkpoints"] >= 2

    @settings(max_examples=15, deadline=None)
    @given(
        items=st.lists(st.integers(0, 511), min_size=200, max_size=600),
        chunk=st.sampled_from([96, 200, 333]),
        restart=st.booleans(),
    )
    def test_random_streams(self, items, chunk, restart):
        t0 = _per_item_trace(_kmv_estimator(restart), items, chunk)
        t1 = _chunked_trace(_kmv_estimator(restart), items, chunk)
        t2 = _chunked_trace(_kmv_estimator(restart), items, chunk,
                            SerialEngine())
        assert t0 == t1 == t2


class TestAdditiveEquivalence:
    """Entropy-style tracker: chunked == engine always; == per-item on
    trajectories monotone between boundary checks."""

    @settings(max_examples=25, deadline=None)
    @given(
        items=st.lists(st.integers(0, 63), min_size=150, max_size=500),
        chunk=st.sampled_from([48, 96, 200, 333]),
    )
    def test_chunked_equals_engine_on_any_stream(self, items, chunk):
        t1 = _chunked_trace(_entropy_estimator(), items, chunk)
        t2 = _chunked_trace(_entropy_estimator(), items, chunk,
                            SerialEngine())
        assert t1 == t2

    @settings(max_examples=25, deadline=None)
    @given(
        size=st.integers(120, 400),
        chunk=st.sampled_from([48, 96, 200]),
    )
    def test_per_item_exact_on_monotone_streams(self, size, chunk):
        # All-distinct items: H = log2(t) is strictly increasing, so the
        # band-interval convexity argument makes every boundary-checked
        # path per-item exact.
        items = list(range(size))
        t0 = _per_item_trace(_entropy_estimator(), items, chunk)
        t1 = _chunked_trace(_entropy_estimator(), items, chunk)
        t2 = _chunked_trace(_entropy_estimator(), items, chunk,
                            SerialEngine())
        assert t0 == t1 == t2

    @needs_fork
    def test_process_engine_matches(self):
        items = [i % 64 for i in range(997)] + list(range(64, 256))
        t1 = _chunked_trace(_entropy_estimator(), items, 128)
        t2 = _chunked_trace(_entropy_estimator(), items, 128,
                            ProcessEngine(workers=2))
        assert t1 == t2

    def test_forced_mid_chunk_revert_coalesces(self):
        """The documented additive-band caveat, pinned.

        Inside one chunk the stream first spreads over fresh items
        (entropy rises out of the band) and then hammers a single item
        (entropy collapses back inside it by the boundary).  The
        per-item protocol switches during the excursion; the chunked and
        engine paths check the band at the boundary only, see an in-band
        estimate, and coalesce the transient exit — identically.
        """
        warm = [i % 4 for i in range(192)]     # settle H near log2(4)
        burst = list(range(100, 164))           # 64 fresh items: H rises
        collapse = [0] * 1200                   # re-concentrate: H falls
        items = warm + burst + collapse
        chunk = len(items)                      # single chunk
        per_item = _per_item_trace(_entropy_estimator(0.8), items, chunk)
        chunked = _chunked_trace(_entropy_estimator(0.8), items, chunk)
        engine = _chunked_trace(_entropy_estimator(0.8), items, chunk,
                                SerialEngine())
        assert chunked == engine
        # The excursion really happened per item...
        assert per_item[-1][1] > chunked[-1][1], (
            "stream did not force a mid-chunk revert; per-item and "
            "chunked switch counts agree"
        )
        # ...and the boundary estimates still agree within the band.
        assert abs(per_item[-1][0] - chunked[-1][0]) <= 0.8


class TestEpochEquivalence:
    """The heavy-hitters epoch band: direct chunked vs engine sessions."""

    def _traces(self, engine, items, chunk=512):
        est = RobustHeavyHitters(
            n=512, m=len(items), eps=0.3, rng=np.random.default_rng(11)
        )
        trace = []
        if engine is None:
            for lo in range(0, len(items), chunk):
                est.update_batch(items[lo:lo + chunk])
                trace.append((est.query(), est.epochs, est.l2_estimate()))
        else:
            with engine.session(est) as session:
                for lo in range(0, len(items), chunk):
                    session.feed(items[lo:lo + chunk])
                    trace.append((est.query(), est.epochs, est.l2_estimate()))
        return est, trace

    def test_serial_engine_identical(self):
        items = (np.random.default_rng(5).zipf(1.4, size=6000) % 512)
        direct, t0 = self._traces(None, items)
        engined, t1 = self._traces(SerialEngine(), items)
        assert t0 == t1
        assert direct._published == engined._published
        assert direct.heavy_hitters() == engined.heavy_hitters()

    @needs_fork
    def test_process_engine_identical(self):
        items = (np.random.default_rng(6).zipf(1.4, size=6000) % 512)
        direct, t0 = self._traces(None, items)
        engined, t1 = self._traces(ProcessEngine(workers=2), items)
        assert t0 == t1
        assert direct._published == engined._published
        assert direct.heavy_hitters() == engined.heavy_hitters()


class TestTelemetryEquivalence:
    """ISSUE 7: telemetry observes only — no RNG draws, no protocol
    state — so enabling full tracing leaves every published output and
    switch count bit-for-bit identical on every path."""

    @staticmethod
    def _traced(est):
        from repro.obs import RingSink, Telemetry

        est._copies.telemetry = Telemetry(sinks=[RingSink(capacity=1 << 16)])
        return est

    @settings(max_examples=25, deadline=None)
    @given(
        items=st.lists(st.integers(0, 255), min_size=150, max_size=500),
        chunk=st.sampled_from([48, 96, 200, 333]),
        restart=st.booleans(),
    )
    def test_tracing_is_invisible_per_item_and_chunked(
        self, items, chunk, restart
    ):
        t0 = _per_item_trace(_kmv_estimator(restart), items, chunk)
        t0t = _per_item_trace(self._traced(_kmv_estimator(restart)),
                              items, chunk)
        t1 = _chunked_trace(_kmv_estimator(restart), items, chunk)
        t1t = _chunked_trace(self._traced(_kmv_estimator(restart)),
                             items, chunk)
        assert t0 == t0t
        assert t1 == t1t

    @settings(max_examples=15, deadline=None)
    @given(
        items=st.lists(st.integers(0, 255), min_size=150, max_size=500),
        chunk=st.sampled_from([48, 96, 200]),
    )
    def test_tracing_is_invisible_dp_serial_engine(self, items, chunk):
        t1 = _chunked_trace(_dp_estimator(), items, chunk, SerialEngine())
        t1t = _chunked_trace(self._traced(_dp_estimator()), items, chunk,
                             SerialEngine())
        assert t1 == t1t

    @settings(max_examples=15, deadline=None)
    @given(
        items=st.lists(st.integers(0, 255), min_size=150, max_size=400),
        chunk=st.sampled_from([48, 96, 200]),
    )
    def test_tracing_is_invisible_ladder(self, items, chunk):
        t1 = _chunked_trace(_ladder_estimator(), items, chunk)
        t1t = _chunked_trace(self._traced(_ladder_estimator()), items, chunk)
        assert t1 == t1t

    @needs_fork
    def test_tracing_is_invisible_process_engine(self):
        # The heavy-hitters ring is sharded across forked workers; its
        # worker spans merge back without moving a published value.
        from repro.api import install_telemetry
        from repro.obs import RingSink, Telemetry

        items = np.random.default_rng(7).zipf(1.4, size=6000) % 512
        ring = RingSink(capacity=1 << 16)
        runs = []
        for traced in (False, True):
            est = RobustHeavyHitters(
                n=512, m=len(items), eps=0.3, rng=np.random.default_rng(11)
            )
            if traced:
                install_telemetry(est, Telemetry(sinks=[ring]))
            trace = []
            with ProcessEngine(workers=2).session(est) as session:
                assert session.mode == "process[2]"
                for lo in range(0, len(items), 512):
                    session.feed(items[lo:lo + 512])
                    trace.append((est.query(), est.epochs))
            runs.append((trace, est.heavy_hitters()))
        assert runs[0] == runs[1]
        assert any(e.worker is not None for e in ring.by_kind("span"))
