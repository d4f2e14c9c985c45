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

The bytes path (:class:`~repro.core.copies.LocalCopyBackend`, every
session without a universe-licensed source) resolves crossings with the
same machinery over each staged chunk's own columns: positional counts
subranges, column-wise first-item steps and the same prefix pass.  The
last section pins it against the universe path, ``update_batch`` and the
per-object path: equal published values, switch positions, switch
counts and DP budget, a mid-chunk ring restart, cancelling and
non-unit deltas, the candidate-tracking fallback, and what a crossing
no longer calls.
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
from repro.sketches.base import aggregate_batch
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


# ----------------------------------------------------------------------
# The bytes path: each staged chunk as its own universe
# ----------------------------------------------------------------------


def _f2_estimator(seed=1, copies=8, discipline=True, restart=False,
                  track=0, stacked=True):
    return SwitchingEstimator(
        factory=lambda rng: CountSketch(32, 5, rng, track_candidates=track),
        copies=copies, rng=np.random.default_rng(seed),
        band=MultiplicativeBand(0.5),
        discipline=(PrivateAggregateDiscipline(noise_scale=0.01)
                    if discipline else None),
        restart=restart, stacked=stacked,
    )


def _path_trace(est, chunks, path):
    """Per chunk: published value, switch count and the switch offsets
    inside the chunk; then the final budget.  ``path`` is ``"bytes"``
    (a serial session without a source: the aggregate-once bytes path),
    ``"batch"`` (``update_batch``: raw probes, no hoists), ``"universe"``
    (a session opened with ``chunks``, a chunk source) or ``"item"``."""
    offsets = []
    commit = est._commit_switch

    def logged(y, replace=None, position=None):
        if position is not None:  # the per-item loop records its own
            offsets.append(position)
        commit(y, replace=replace, position=position)

    est._commit_switch = logged
    trace = []

    def record(value):
        trace.append((value, est.switches, tuple(offsets)))
        offsets.clear()

    pairs = [(c.items, c.deltas) for c in chunks.chunks()] if hasattr(
        chunks, "chunks") else chunks
    if path in ("bytes", "universe"):
        source = chunks if path == "universe" else None
        with SerialEngine().session(est, source=source) as session:
            assert session.source_mode == (
                "universe" if path == "universe" else None
            )
            for items, deltas in pairs:
                session.feed(items, deltas)
                record(session.query())
    elif path == "batch":
        for items, deltas in pairs:
            est.update_batch(items, deltas)
            record(est.query())
    else:
        for items, deltas in pairs:
            for off, (item, delta) in enumerate(
                zip(items.tolist(), deltas.tolist())
            ):
                before = est.switches
                est.update(item, delta)
                if est.switches != before:
                    offsets.append(off)
            record(est.query())
    budget = est.discipline.budget_state() if hasattr(
        est.discipline, "budget_state") else None
    return trace, budget


def _assert_paths_equal(make, chunks, paths):
    traces = [_path_trace(make(), chunks, path) for path in paths]
    for other in traces[1:]:
        assert other == traces[0]
    return traces[0][0]


class TestBytesPathCrossings:
    @pytest.mark.parametrize("seed,chunk", [(8, 97), (6, 211)])
    def test_dp_f2_matches_universe_and_batch(self, seed, chunk):
        """Several crossings per chunk, a switch on a chunk's last
        update, and the same published values, switch positions, counts
        and budget on the bytes, ``update_batch``, universe and per-item
        paths."""
        source = GeneratorChunkSource("uniform", n=64, m=3000, seed=seed,
                                      chunk_size=chunk)
        trace = _assert_paths_equal(
            _f2_estimator, source, ("bytes", "batch", "universe", "item")
        )
        assert max(len(offs) for _, _, offs in trace) >= 3
        assert any(chunk - 1 in offs for _, _, offs in trace), (
            "no switch landed on a chunk's last update"
        )

    def test_restart_ring_replaces_mid_chunk(self, monkeypatch):
        """A CountSketch restart ring rebuilds copies mid-chunk; each
        rebuild refreshes the chunk's cached columns once, though the
        aggregate-once probe's prep also serves as the raw chunk's."""
        refreshed = []
        original = countsketch.CountSketchStack.refresh

        def spy(self, prepared, plane):
            refreshed.append((id(prepared), plane))
            return original(self, prepared, plane)

        monkeypatch.setattr(countsketch.CountSketchStack, "refresh", spy)
        replaced = []
        backend_replace = LocalCopyBackend.replace

        def counted(self, idx, rng):
            before = len(refreshed)
            backend_replace(self, idx, rng)
            replaced.append(refreshed[before:])

        monkeypatch.setattr(LocalCopyBackend, "replace", counted)
        source = GeneratorChunkSource("uniform", n=48, m=4000, seed=2,
                                      chunk_size=500)

        def make():
            return _f2_estimator(copies=6, discipline=False, restart=True)

        trace = _assert_paths_equal(make, source, ("item", "bytes"))
        mid = [off for _, _, offs in trace for off in offs if off > 0]
        assert mid, "no copy was rebuilt mid-chunk"
        assert replaced and all(len(calls) <= 1 for calls in replaced)
        assert any(len(calls) == 1 for calls in replaced)
        assert _path_trace(make(), source, "batch") == _path_trace(
            make(), source, "universe")

    @pytest.mark.parametrize("chunk", [120, 333])
    def test_cancelling_and_weighted_deltas(self, chunk):
        """Turnstile chunks with zero-sum items and non-unit deltas: the
        stacked bytes path equals the per-object path update for update."""
        rng = np.random.default_rng(17)
        items = rng.integers(0, 40, 3000)
        deltas = rng.choice([1, 1, 2, 3, -1], size=3000)
        # Cancelling pairs inside each chunk: items whose sums are zero.
        deltas[1::7] = -deltas[0::7][: len(deltas[1::7])]
        items[1::7] = items[0::7][: len(items[1::7])]
        pairs = [(items[lo:lo + chunk], deltas[lo:lo + chunk])
                 for lo in range(0, len(items), chunk)]
        assert any(
            (aggregate_batch(i, d)[1] == 0).any() for i, d in pairs
        )

        def stacked():
            return _f2_estimator(seed=5)

        def objects():
            return _f2_estimator(seed=5, stacked=False)

        want = _path_trace(objects(), pairs, "batch")
        assert _path_trace(stacked(), pairs, "bytes") == want
        assert _path_trace(stacked(), pairs, "batch") == want
        assert _path_trace(objects(), pairs, "bytes") == want
        assert max(len(offs) for _, _, offs in want[0]) >= 2

    def test_candidate_tracking_falls_back(self, monkeypatch):
        """Stacks that track candidates keep ``subset`` and per-item
        steps, and still equal the per-object path, candidates included."""
        calls = {"subset": 0, "prefix": 0}
        subset = countsketch.CountSketchStack.subset
        prefix = countsketch.CountSketchStack.prefix_estimates

        def counted_subset(self, *args):
            calls["subset"] += 1
            return subset(self, *args)

        def counted_prefix(self, *args):
            calls["prefix"] += 1
            return prefix(self, *args)

        monkeypatch.setattr(countsketch.CountSketchStack, "subset",
                            counted_subset)
        monkeypatch.setattr(countsketch.CountSketchStack, "prefix_estimates",
                            counted_prefix)
        source = GeneratorChunkSource("uniform", n=64, m=3000, seed=8,
                                      chunk_size=400)
        a = _f2_estimator(track=4)
        b = _f2_estimator(track=4, stacked=False)
        assert a._copies.stacks and not b._copies.stacks
        assert _path_trace(a, source, "bytes") == _path_trace(b, source,
                                                              "bytes")
        assert calls["subset"] > 0 and calls["prefix"] == 0
        for x, y in zip(a._copies.sketches, b._copies.sketches):
            assert np.array_equal(x._table, y._table)
            assert x._candidates == y._candidates

    def test_crossing_spy(self, monkeypatch):
        """A bytes-path crossing steps no template in its leaves and
        runs no ``np.unique`` per bisection half: the per-chunk sort of
        the aggregate-once probe and its prep is all a chunk sorts."""
        updates = {"n": 0}
        update = CountSketch.update

        def counted_update(self, item, delta=1):
            updates["n"] += 1
            return update(self, item, delta)

        monkeypatch.setattr(CountSketch, "update", counted_update)
        sorts = {"n": 0}
        unique = np.unique

        def counted_unique(*args, **kwargs):
            sorts["n"] += 1
            return unique(*args, **kwargs)

        monkeypatch.setattr(np, "unique", counted_unique)
        est = _f2_estimator()
        halves = {"n": 0}
        with SerialEngine().session(est) as session:
            protocol = session._protocol
            bisect = protocol._bisect

            def counted_bisect(lo, hi, probes):
                halves["n"] += hi - lo > REPLAY_LEAF
                return bisect(lo, hi, probes)

            protocol._bisect = counted_bisect
            items = np.random.default_rng(3).integers(0, 64, 8 * 1024)
            chunks = 0
            for lo in range(1024, len(items), 1024):
                # The first chunk crosses many times from an empty
                # sketch; count from the second on.
                if chunks == 0:
                    session.feed(items[:1024])
                    updates["n"] = sorts["n"] = halves["n"] = 0
                session.feed(items[lo:lo + 1024])
                chunks += 1
        assert est.switches > 0 and halves["n"] >= 3
        assert updates["n"] == 0
        # One sort for the protocol's aggregate, one for its prep.
        assert sorts["n"] <= 2 * chunks


class TestPositionalSubrange:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        length=st.integers(1, 400),
        universe=st.sampled_from([4, 40, 1000]),
        weighted=st.booleans(),
        aggregated=st.booleans(),
        subset=st.booleans(),
    )
    def test_counts_subrange_feeds_what_subset_feeds(
        self, seed, length, universe, weighted, aggregated, subset
    ):
        """``subrange``'s positional counts over the chunk's columns
        (built from the raw chunk or from its aggregate) feed exactly
        what ``subset`` of the slice feeds."""
        rng = np.random.default_rng(seed)
        items = rng.integers(0, universe, length)
        deltas = (rng.integers(-3, 4, length) if weighted
                  else np.ones(length, dtype=np.int64))
        lo = int(rng.integers(0, length))
        hi = int(rng.integers(lo + 1, length + 1))
        prefix = rng.integers(0, universe, 200)
        a, b = _prefilled(prefix), _prefilled(prefix)
        sa, sb = a.stacks[0], b.stacks[0]
        planes = _probes(subset, a.count, rng)
        whole = (sa.prepare(*aggregate_batch(items, deltas)) if aggregated
                 else sa.prepare(items, deltas))
        sa.feed(sa.subrange(whole, items, deltas, lo, hi), planes)
        full = sb.prepare(items, deltas)
        sb.feed(sb.subset(full, items[lo:hi], deltas[lo:hi]), planes)
        assert np.array_equal(sa.tables, sb.tables)
        assert np.array_equal(sa.query_all(), sb.query_all())
