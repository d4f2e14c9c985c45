"""Deferred copy fan-out on crossing chunks, and KMV's positional gathers.

A crossing chunk is resolved on its raw updates by the probed copies
alone; every other copy is fed late — once at the end of the chunk, or
when it enters the probe set — from the offset where it still lacks
updates.  These tests pin *how often* copies are fed (the equivalence
suite pins *what* they end up holding), and that a KMV subrange
gathered positionally from a whole-chunk prep feeds exactly what a
deduplicated subset of the same slice feeds.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sketches.kmv as kmv
from repro.core.bands import MultiplicativeBand
from repro.core.copies import LocalCopyBackend
from repro.core.disciplines import ActiveCopyDiscipline
from repro.core.sketch_switching import SwitchingEstimator
from repro.engine import SerialEngine
from repro.sketches.kmv import KMVSketch


def _ring(copies=8):
    return SwitchingEstimator(
        lambda r: KMVSketch(48, r), copies=copies,
        rng=np.random.default_rng(7), band=MultiplicativeBand(0.35),
        restart=True,
    )


class _FeedSpy:
    """Log fan-out feeds, rebirths and probe-set entries per chunk."""

    def __init__(self, monkeypatch, est):
        self.events = []
        self.position = None
        spy = self
        feed_range = LocalCopyBackend.feed_range
        feed_sub = LocalCopyBackend.feed_sub
        replace = LocalCopyBackend.replace

        def logged_range(backend, lo, hi, indices):
            spy.events.append(("feed", lo, hi, tuple(indices)))
            feed_range(backend, lo, hi, indices)

        def logged_sub(backend, indices):
            spy.events.append(("feed", 0, None, tuple(indices)))
            feed_sub(backend, indices)

        def logged_replace(backend, idx, rng):
            spy.events.append(("birth", idx, spy.position + 1))
            replace(backend, idx, rng)

        monkeypatch.setattr(LocalCopyBackend, "feed_range", logged_range)
        monkeypatch.setattr(LocalCopyBackend, "feed_sub", logged_sub)
        monkeypatch.setattr(LocalCopyBackend, "replace", logged_replace)
        commit = est._commit_switch

        def logged_commit(y, replace=None, position=None):
            spy.position = position
            burned = est.active_index
            commit(y, replace=replace, position=position)
            spy.events.append(("switch", burned, est.active_index))

        est._commit_switch = logged_commit

    def take(self):
        events, self.events = self.events, []
        return events


def _check_chunk(events, count, copies, active):
    """Every copy is fed at most once per life in the chunk (from the
    chunk start, or from its rebirth), from where that life began; on a
    crossing chunk a copy never active in it is fed exactly once."""
    life_start = [0] * copies
    fed_in_life = [0] * copies
    for event in events:
        if event[0] == "switch":
            active.update(event[1:])
        elif event[0] == "birth":
            _, idx, born = event
            life_start[idx] = born
            fed_in_life[idx] = 0
        else:
            _, lo, hi, indices = event
            for idx in indices:
                assert lo == life_start[idx], (idx, lo, life_start[idx])
                fed_in_life[idx] += 1
                assert fed_in_life[idx] == 1, f"copy {idx} fed twice"
    if not any(e[0] == "switch" for e in events):
        return
    for idx in range(copies):
        if idx not in active:
            whole = [e for e in events if e[0] == "feed" and idx in e[3]]
            assert len(whole) == 1
            assert whole[0][2] in (count, None)


@pytest.mark.parametrize("engine", [None, "serial"])
def test_each_copy_fed_once_per_life(monkeypatch, engine):
    est = _ring()
    spy = _FeedSpy(monkeypatch, est)
    rng = np.random.default_rng(3)
    chunks = [np.arange(0, 400), rng.integers(0, 400, 300),
              np.arange(400, 1300), np.arange(1300, 1400)]
    session = SerialEngine().session(est) if engine else None
    crossing = 0
    for chunk in chunks:
        chunk = np.asarray(chunk, dtype=np.int64)
        before, active = est.switches, est.active_index
        if session is None:
            est.update_chunk(chunk)
        else:
            session.feed(chunk)
        events = spy.take()
        if est.switches - before >= 3:
            crossing += 1
        _check_chunk(events, len(chunk), est.copies, {active})
    if session is not None:
        session.close()
    assert crossing >= 2, "stream did not cross with three switches"


def test_one_all_plane_hash_pass_per_chunk(monkeypatch):
    """Under the seen-filter hoist the boundary probe hashes the chunk's
    fresh items for every plane; a crossing chunk hashes its raw updates
    only for the planes it feeds them to."""
    est = _ring(copies=12)
    passes = []
    stacked = kmv.hash_many_stacked

    def logged(hashes, xs):
        hashes = list(hashes)
        passes.append(len(hashes))
        return stacked(hashes, xs)

    monkeypatch.setattr(kmv, "hash_many_stacked", logged)
    chunks = [np.arange(0, 200), np.arange(200, 2000), np.arange(2000, 2200)]
    with SerialEngine().session(est) as session:
        for chunk in chunks:
            before = est.switches
            passes.clear()
            session.feed(chunk.astype(np.int64))
            switched = est.switches - before
            assert passes.count(est.copies) <= 1
            assert sum(passes) <= est.copies + 2 * switched + 1
    assert est.switches >= 3


def _stack(planes=4):
    rng = np.random.default_rng(5)
    return KMVSketch.make_stack([KMVSketch(16, r) for r in
                                 (np.random.default_rng(s) for s in
                                  rng.integers(0, 1 << 30, planes))])


@settings(max_examples=60, deadline=None)
@given(
    data=st.lists(
        st.tuples(st.integers(0, 60), st.sampled_from([0, 1, 1, 2])),
        min_size=1, max_size=300,
    ),
    bounds=st.tuples(st.integers(0, 300), st.integers(0, 300)),
    planes=st.lists(st.integers(0, 3), min_size=1, max_size=4, unique=True),
    lazy=st.booleans(),
    refresh=st.booleans(),
)
def test_positional_gather_equals_subset(data, bounds, planes, lazy,
                                         refresh):
    items = np.array([i for i, _ in data], dtype=np.int64)
    deltas = np.array([d for _, d in data], dtype=np.int64)
    lo, hi = sorted(min(b, len(items)) for b in bounds)
    gathered, reference = _stack(), _stack()
    whole = (gathered.prepare_lazy if lazy else gathered.prepare)(
        items, deltas
    )
    full = reference.prepare(items, deltas)
    if refresh and whole is not None:
        # A copy rebuilt between the whole-chunk prep and the feed.
        for stack, prep in ((gathered, whole), (reference, full)):
            stack.install(planes[0], KMVSketch(16, np.random.default_rng(9)))
            stack.refresh(prep, planes[0])
    part = gathered.subrange(whole, items, deltas, lo, hi)
    gathered.feed(part, planes)
    if full is not None:
        reference.feed(
            reference.subset(full, items[lo:hi], deltas[lo:hi]), planes
        )
    assert np.array_equal(gathered.mins, reference.mins)


class _RetireAhead(ActiveCopyDiscipline):
    """Algorithm 1 plus a retirement of the copy two slots ahead at every
    publication: a copy outside the probe set is reborn mid-chunk."""

    def on_publish(self, copies, switches, replace=None):
        copies.retire((copies.active_index + 2) % copies.count,
                      replace=replace)
        super().on_publish(copies, switches, replace=replace)


def _retire_ahead():
    return SwitchingEstimator(
        lambda r: KMVSketch(48, r), copies=6, rng=np.random.default_rng(7),
        band=MultiplicativeBand(0.35), discipline=_RetireAhead(),
        on_exhausted="clamp",
    )


def test_reborn_copy_outside_the_probe_set_starts_at_its_birth():
    items = list(range(900))
    per_item = _retire_ahead()
    for item in items:
        per_item.update(item)
    for chunk in (900, 300):
        est = _retire_ahead()
        for lo in range(0, len(items), chunk):
            est.update_chunk(np.arange(lo, min(lo + chunk, len(items))))
        assert (est.query(), est.switches) == (
            per_item.query(), per_item.switches
        )
        assert np.array_equal(est._copies.estimate_all(),
                              per_item._copies.estimate_all())
