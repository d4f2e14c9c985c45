"""The universe fast path: counts preps, the vectorized leaf pass, retention.

:class:`~repro.core.copies.UniverseLocalBackend` feeds stacked CountSketch
copies from per-chunk item counts read through session-wide universe
columns, and resolves bisection leaves with one vectorized prefix pass
(``CountSketchStack.prefix_estimates`` + ``ProbeDiscipline.decide_many``)
instead of stepping per item.  Everything here must be bit-for-bit the
per-item / ``prepare`` path:

* stack level — counts preps (dense and sparse supports, all planes or a
  subset) feed exactly like ``prepare``; the prefix pass equals stepping
  ``step_item`` + ``query_all`` per item, and declines (returns ``None``)
  where float64 could stop being exact;
* backend level — the prefix pass plus ``decide_many`` matches the
  per-item ``step_probed`` loop, and a copy replaced mid-chunk feeds its
  new hashes through a cached whole-chunk counts prep;
* protocol level — forcing the exactness guard makes every leaf take the
  per-item fallback with identical outputs, and a crossing chunk keeps
  only whole-chunk preps cached however deep it bisects.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bands import MultiplicativeBand
from repro.core.copies import CopyManager, LocalCopyBackend, UniverseLocalBackend
from repro.core.disciplines import PrivateAggregateDiscipline
from repro.core.sketch_switching import REPLAY_LEAF, SwitchingEstimator, SwitchingProtocol
from repro.engine.executor import SerialEngine
from repro.sketches import countsketch
from repro.sketches.countsketch import CountSketch
from repro.streams.sources import GeneratorChunkSource


def _manager(copies=6, width=32, rows=5, seed=3):
    return CopyManager(
        lambda rng: CountSketch(width, rows, rng, track_candidates=0),
        copies, np.random.default_rng(seed),
    )


def _prefilled(items, **kwargs):
    """A stacked manager whose copies have all seen ``items``."""
    manager = _manager(**kwargs)
    stack = manager.stacks[0]
    if len(items):
        stack.feed(stack.prepare(items, None), range(manager.count))
    return manager


def _probes(draw_subset, count, rng):
    if not draw_subset:
        return tuple(range(count))
    k = int(rng.integers(1, count))
    return tuple(sorted(rng.choice(count, size=k, replace=False).tolist()))


# ----------------------------------------------------------------------
# Stack level
# ----------------------------------------------------------------------


class TestCountsPrep:
    @pytest.mark.parametrize("universe,length,dense", [
        (64, 2000, True),   # the chunk covers the universe
        (64, 6, False),     # support under an eighth of the universe
        (500, 40, False),
        (500, 300, True),
    ])
    @pytest.mark.parametrize("subset", [False, True])
    def test_feed_matches_prepare(self, universe, length, dense, subset):
        rng = np.random.default_rng(universe + length)
        prefix = rng.integers(0, universe, 300)
        items = rng.integers(0, universe, length)
        a, b = _prefilled(prefix), _prefilled(prefix)
        sa, sb = a.stacks[0], b.stacks[0]
        planes = _probes(subset, a.count, rng)
        cols = sa.prepare_universe(universe)
        prep = sa.prepare_counts(cols, np.bincount(items, minlength=universe))
        assert (prep.support is None) == dense
        sa.feed(prep, planes)
        sb.feed(sb.prepare(items, None), planes)
        assert np.array_equal(sa.tables, sb.tables)
        assert np.array_equal(sa.query_all(), sb.query_all())

    def test_counts_prep_reads_refreshed_columns(self):
        """A counts prep built before an install feeds the installed
        copy's hashes once the universe columns are refreshed."""
        universe = 80
        items = np.random.default_rng(5).integers(0, universe, 900)
        a, b = _manager(), _manager()
        sa, sb = a.stacks[0], b.stacks[0]
        cols = sa.prepare_universe(universe)
        prep = sa.prepare_counts(cols, np.bincount(items, minlength=universe))
        fresh = lambda: CountSketch(32, 5, np.random.default_rng(77),
                                    track_candidates=0)
        a.install(2, fresh())
        b.install(2, fresh())
        sa.refresh(prep, 2)  # a no-op: the prep holds no columns
        sa.refresh(cols, 2)
        sa.feed(prep, range(a.count))
        sb.feed(sb.prepare(items, None), range(b.count))
        assert np.array_equal(sa.tables, sb.tables)


class TestPrefixEstimates:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        universe=st.sampled_from([8, 64, 300]),
        run=st.integers(1, REPLAY_LEAF),
        prefill=st.integers(0, 500),
        subset=st.booleans(),
        weighted=st.booleans(),
    )
    def test_matches_stepping(self, seed, universe, run, prefill, subset,
                              weighted):
        rng = np.random.default_rng(seed)
        items = rng.integers(0, universe, prefill + run)
        deltas = (rng.integers(-3, 4, run) if weighted
                  else np.ones(run, dtype=np.int64))
        a = _prefilled(items[:prefill])
        b = _prefilled(items[:prefill])
        sa, sb = a.stacks[0], b.stacks[0]
        planes = _probes(subset, a.count, rng)
        before = sa.tables.copy()
        got = sa.prefix_estimates(
            sa.prepare_universe(universe), items[prefill:], deltas, planes
        )
        assert np.array_equal(sa.tables, before)  # nothing was fed
        cols = sb.prepare_universe(universe)
        want = []
        for item, delta in zip(items[prefill:].tolist(), deltas.tolist()):
            sb.step_item(cols, item, delta, planes)
            want.append(sb.query_all()[list(planes)])
        assert got.shape == (run, len(planes))
        assert np.array_equal(got, np.array(want))

    def test_declines_beyond_exact_range(self):
        manager = _prefilled(np.arange(40))
        stack = manager.stacks[0]
        cols = stack.prepare_universe(64)
        items = np.arange(10)
        ones = np.ones(10, dtype=np.int64)
        assert stack.prefix_estimates(cols, items, ones, range(6)) is not None
        # One cell per row at 2^26 puts the row mass at 2^52.
        stack.tables[:, :, 0] = 2.0 ** 26
        assert stack.prefix_estimates(cols, items, ones, range(6)) is None
        assert stack.prefix_estimates(cols, items, ones, [1, 4]) is None


# ----------------------------------------------------------------------
# Backend level
# ----------------------------------------------------------------------


class TestLeafPass:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        universe=st.sampled_from([16, 64, 300]),
        leaf=st.integers(1, REPLAY_LEAF),
        prefill=st.integers(0, 500),
        subset=st.booleans(),
    )
    def test_prefix_pass_and_decide_many_match_step_probed(
        self, seed, universe, leaf, prefill, subset
    ):
        rng = np.random.default_rng(seed)
        items = rng.integers(0, universe, prefill + leaf)
        chunk, ones = items[prefill:], np.ones(leaf, dtype=np.int64)
        a, b = _prefilled(items[:prefill]), _prefilled(items[:prefill])
        probes = _probes(subset, a.count, rng)
        disc = PrivateAggregateDiscipline(noise_scale=0.05)
        disc.bind(a)
        ua, ub = UniverseLocalBackend(a, universe), UniverseLocalBackend(b, universe)
        ua.stage(chunk, ones)
        ub.stage(chunk, ones)
        prefixes = ua.prefix_probed(0, leaf, probes)
        stepped = np.array([ub.step_probed(pos, probes) for pos in range(leaf)])
        assert np.array_equal(prefixes, stepped)
        decided = disc.decide_many(prefixes)
        assert decided.tolist() == [disc.decide(row) for row in stepped]
        ua.feed_probed(0, leaf, probes)
        assert np.array_equal(a.stacks[0].tables, b.stacks[0].tables)

    def test_object_path_probes_decline(self):
        manager = CopyManager(
            lambda rng: CountSketch(16, 3, rng, track_candidates=0),
            1, np.random.default_rng(0),
        )
        assert not manager.stacks
        backend = UniverseLocalBackend(manager, 32)
        backend.stage(np.arange(10), np.ones(10, dtype=np.int64))
        assert backend.prefix_probed(0, 10, (0,)) is None
        assert LocalCopyBackend(manager).prefix_probed(0, 10, (0,)) is None

    def test_mid_chunk_replacement_matches_bytes_path(self):
        """A replace between feeds of one staged chunk: the cached
        whole-chunk counts prep and its subranges feed the new copy's
        hashes, exactly like the bytes path's refreshed prepare."""
        universe = 120
        rng = np.random.default_rng(11)
        prefix = rng.integers(0, universe, 700)
        chunk = rng.integers(0, universe, 1500)
        ones = np.ones(len(chunk), dtype=np.int64)
        a, b = _prefilled(prefix), _prefilled(prefix)
        ua, lb = UniverseLocalBackend(a, universe), LocalCopyBackend(b)
        for backend in (ua, lb):
            backend.stage(chunk, ones)
        assert np.array_equal(ua.probe_raw((0,)), lb.probe_raw((0,)))
        ua.keep_probed((0,))
        lb.keep_probed((0,))
        for backend in (ua, lb):
            backend.replace(3, np.random.default_rng(99))
        assert np.array_equal(
            ua.feed_probed(200, 900, (3, 4)), lb.feed_probed(200, 900, (3, 4))
        )
        others = tuple(i for i in range(a.count) if i not in (0, 3, 4))
        ua.feed_range(0, len(chunk), others)
        lb.feed_range(0, len(chunk), others)
        assert np.array_equal(a.stacks[0].tables, b.stacks[0].tables)


# ----------------------------------------------------------------------
# Protocol level
# ----------------------------------------------------------------------


def _dp_estimator(seed=1):
    return SwitchingEstimator(
        factory=lambda rng: CountSketch(32, 5, rng, track_candidates=0),
        copies=8, rng=np.random.default_rng(seed),
        band=MultiplicativeBand(0.5),
        discipline=PrivateAggregateDiscipline(noise_scale=0.01),
    )


def _universe_trace(est, source):
    trace = []
    with SerialEngine().session(est, source=source) as session:
        assert session.source_mode == "universe"
        for chunk in source.chunks():
            session.feed(chunk.items, chunk.deltas)
            trace.append((est.query(), est.switches))
    return trace


def _per_item_trace(est, source):
    trace = []
    for chunk in source.chunks():
        for item in chunk.items.tolist():
            est.update(item, 1)
        trace.append((est.query(), est.switches))
    return trace


class TestExactnessFallback:
    def test_forced_fallback_steps_per_item(self, monkeypatch):
        """With the exactness bound at zero every leaf declines the
        prefix pass and steps per item; outputs stay bit for bit."""
        calls = {"none": 0}
        original = countsketch.CountSketchStack.prefix_estimates

        def spy(self, *args):
            got = original(self, *args)
            calls["none"] += got is None
            return got

        monkeypatch.setattr(countsketch, "EXACT_MASS_LIMIT", 0.0)
        monkeypatch.setattr(countsketch.CountSketchStack, "prefix_estimates", spy)
        source = GeneratorChunkSource("uniform", n=64, m=8_000, seed=4,
                                      chunk_size=1000)
        got = _universe_trace(_dp_estimator(), source)
        assert calls["none"] > 0
        assert got == _per_item_trace(_dp_estimator(), source)

    def test_inexact_prefix_pass_fails_loudly(self, monkeypatch):
        """A prefix pass that disagrees with the fed copies at the
        crossing raises instead of publishing at a shifted position."""
        original = countsketch.CountSketchStack.prefix_estimates

        def skewed(self, *args):
            got = original(self, *args)
            return None if got is None else got * 1.5

        monkeypatch.setattr(countsketch.CountSketchStack, "prefix_estimates",
                            skewed)
        source = GeneratorChunkSource("uniform", n=64, m=8_000, seed=4,
                                      chunk_size=1000)
        with pytest.raises(RuntimeError, match="prefix pass"):
            _universe_trace(_dp_estimator(), source)


class TestCrossingRetention:
    @pytest.mark.parametrize("universe", [None, 64])
    def test_only_whole_chunk_preps_are_cached(self, universe):
        est = _dp_estimator()
        copies = est._copies
        backend = (LocalCopyBackend(copies) if universe is None
                   else UniverseLocalBackend(copies, universe))
        protocol = SwitchingProtocol(est, backend)
        depth = {"now": 0, "max": 0}
        bisect = protocol._bisect

        def counted(lo, hi, probes):
            depth["now"] += 1
            depth["max"] = max(depth["max"], depth["now"])
            try:
                return bisect(lo, hi, probes)
            finally:
                depth["now"] -= 1

        protocol._bisect = counted
        feed_probed = backend.feed_probed
        seen = []

        def checked(lo, hi, probes):
            ys = feed_probed(lo, hi, probes)
            seen.append(sorted(backend._prep))
            return ys

        backend.feed_probed = checked
        whole = {("raw", id(copies.stacks[0]))}
        items = np.random.default_rng(2).integers(0, 64, 4 * 4096)
        ones = np.ones(4096, dtype=np.int64)
        crossed = False
        for lo in range(0, len(items), 4096):
            before = est.switches
            protocol.feed(items[lo:lo + 4096], ones)
            crossed |= est.switches > before
            assert set(backend._prep) <= whole
        assert crossed and depth["max"] >= 3
        assert seen and all(set(keys) <= whole for keys in seen)


class TestStackPlanMemo:
    def test_plans_are_memoized_and_invalidated(self):
        manager = _manager()
        plan = manager.stack_plan((0, 2, 4))
        assert manager.stack_plan((0, 2, 4)) is plan
        assert manager.stack_plan([0, 2, 4]) is plan
        (stack, planes, positions), = plan[0]
        assert planes.tolist() == [0, 2, 4] and positions.tolist() == [0, 1, 2]
        with pytest.raises(ValueError):
            planes[0] = 1
        manager.unstack()
        parts, rest = manager.stack_plan((0, 2, 4))
        assert parts == [] and rest == [(0, 0), (1, 2), (2, 4)]
        manager.restack()
        (restacked, _, _), = manager.stack_plan((0, 2, 4))[0]
        assert restacked is manager.stacks[0] and restacked is not stack
