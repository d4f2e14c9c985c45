"""Tests for the band-policy / copy-manager layering of the switching core.

The tentpole contract: one switching protocol, parameterized by a
:class:`~repro.core.bands.BandPolicy` (the band test, the publication
rounding, the bisect-comparability rule) and a
:class:`~repro.core.copies.CopyManager` (allocation, burn, restart ring,
replacement RNGs).  These tests pin each policy against the legacy
formulas it replaced and the manager against the Algorithm 1 /
Theorem 4.1 lifecycles.
"""

import pickle

import numpy as np
import pytest

from repro.core.bands import (
    AdditiveBand,
    EpochBand,
    MultiplicativeBand,
    relative_within,
)
from repro.core.copies import CopyManager, SketchExhaustedError
from repro.core.rounding import RoundedSequence, round_to_power
from repro.core.sketch_switching import SwitchingEstimator
from repro.sketches.base import Sketch
from repro.sketches.kmv import KMVSketch


class _ExactCounter(Sketch):
    supports_deletions = True

    def __init__(self, rng=None):
        self._count = 0.0

    def update(self, item: int, delta: int = 1) -> None:
        self._count += delta

    def query(self) -> float:
        return self._count

    def space_bits(self) -> int:
        return 64


class TestMultiplicativeBand:
    def test_matches_legacy_within_band(self):
        # The Algorithm 1 predicate: published inside (1 ± eps/2) of the
        # estimate, i.e. relative_within at eps/2.
        band = MultiplicativeBand(0.3)
        rng = np.random.default_rng(0)
        for _ in range(200):
            published = float(rng.uniform(-50, 50))
            estimate = float(rng.uniform(-50, 50))
            assert band.within(published, estimate) == relative_within(
                published, estimate, 0.15
            )
            assert band.crossed(published, estimate) != band.within(
                published, estimate
            )
        band = MultiplicativeBand(0.2)
        assert band.within(100.0, 100.0)
        assert band.within(100.0, 105.0)
        assert not band.within(100.0, 150.0)
        assert band.within(0.0, 0.0)
        assert not band.within(0.0, 10.0)

    def test_publish_matches_legacy_rounding(self):
        band = MultiplicativeBand(0.4)
        assert band.publish(0.0) == 0.0
        for y in (0.3, 1.0, 17.2, -5.5, 1e6):
            assert band.publish(y) == round_to_power(y, 0.2)

    def test_validation(self):
        for bad in (0.0, 1.0, -0.1, 2.0):
            with pytest.raises(ValueError):
                MultiplicativeBand(bad)

    def test_flags_and_pickling(self):
        band = MultiplicativeBand(0.25)
        assert band.name == "multiplicative"
        assert band.bisectable
        clone = pickle.loads(pickle.dumps(band))
        assert clone == band and clone.within(1.0, 1.1)


class TestAdditiveBand:
    def test_band_and_rounding(self):
        band = AdditiveBand(0.4)
        assert band.within(2.0, 2.19)
        assert band.within(2.0, 1.81)
        assert not band.within(2.0, 2.25)
        # publication rounds to multiples of eps/2
        assert band.publish(2.09) == pytest.approx(2.0)
        assert band.publish(2.11) == pytest.approx(2.2)
        assert band.publish(0.0) == 0.0

    def test_validation_and_flags(self):
        with pytest.raises(ValueError):
            AdditiveBand(0.0)
        with pytest.raises(ValueError):
            AdditiveBand(-1.0)
        band = AdditiveBand(2.0)  # eps >= 1 is legal additively
        assert band.name == "additive"
        assert not band.bisectable


class TestEpochBand:
    def test_none_published_always_crosses(self):
        band = EpochBand(0.2)
        assert band.crossed(None, 5.0)
        assert band.crossed(None, 0.0)

    def test_reproduces_rounded_sequence(self):
        """The epoch band is Definition 3.1's stateful rounding, stateless."""
        eps = 0.15
        band = EpochBand(eps)
        rounder = RoundedSequence(eps)
        rng = np.random.default_rng(3)
        published = None
        walk = np.cumsum(rng.uniform(0.0, 2.0, size=300)) + 1.0
        for y in walk.tolist():
            if band.crossed(published, y):
                published = band.publish(y)
            assert published == rounder.push(y)

    def test_validation(self):
        with pytest.raises(ValueError):
            EpochBand(0.0)
        assert EpochBand(0.3).name == "epoch"


class TestRelativeWithin:
    def test_sign_aware(self):
        assert relative_within(-1.0, -1.05, 0.1)
        assert not relative_within(1.0, -1.0, 0.5)
        assert relative_within(0.0, 0.0, 0.2)


class TestCopyManager:
    def _mgr(self, copies=4, **kwargs):
        return CopyManager(
            lambda r: _ExactCounter(), copies, np.random.default_rng(0),
            **kwargs,
        )

    def test_allocation_and_active(self):
        mgr = self._mgr(5)
        assert mgr.count == 5
        assert mgr.active_index == 0
        assert mgr.active is mgr.sketches[0]

    def test_plain_advance_walks_and_raises(self):
        mgr = self._mgr(3)
        mgr.advance(1)
        mgr.advance(2)
        assert mgr.active_index == 2
        with pytest.raises(SketchExhaustedError, match="flip-number budget"):
            mgr.advance(3)

    def test_clamp_keeps_last(self):
        mgr = self._mgr(2, on_exhausted="clamp")
        mgr.advance(1)
        mgr.advance(2)  # must not raise
        assert mgr.active_index == 1

    def test_restart_replaces_burned_slot(self):
        mgr = self._mgr(3, restart=True)
        first = mgr.sketches[0]
        mgr.advance(1)
        assert mgr.sketches[0] is not first
        assert mgr.active_index == 1

    def test_restart_replace_hook_builds_elsewhere(self):
        mgr = self._mgr(3, restart=True)
        built = []
        mgr.advance(1, replace=lambda idx, rng: built.append((idx, rng)))
        assert built and built[0][0] == 0
        assert isinstance(built[0][1], np.random.Generator)

    def test_replacement_rng_sequence_is_deterministic(self):
        draws_a = [
            g.integers(0, 2**32)
            for g in (self._mgr().replacement_rng() for _ in range(3))
        ]
        draws_b = [
            g.integers(0, 2**32)
            for g in (self._mgr().replacement_rng() for _ in range(3))
        ]
        # A fresh manager restarts the fresh pool: first draws agree.
        assert draws_a[0] == draws_b[0]

    def test_seeding_matches_switching_estimator(self):
        """The manager's spawn pass is the one the estimators always used."""
        mgr = CopyManager(
            lambda r: KMVSketch(32, r), 4, np.random.default_rng(9)
        )
        est = SwitchingEstimator(
            lambda r: KMVSketch(32, r), 4, rng=np.random.default_rng(9),
            band=MultiplicativeBand(0.3),
        )
        for a, b in zip(mgr.sketches, est._sketches):
            assert a.state_fingerprint() == b.state_fingerprint()

    def test_validation(self):
        with pytest.raises(ValueError):
            self._mgr(0)
        with pytest.raises(ValueError):
            self._mgr(2, on_exhausted="explode")


class TestGenericSwitchingEstimator:
    def test_band_keyword_drives_the_protocol(self):
        a = SwitchingEstimator(
            lambda r: _ExactCounter(), 64, rng=np.random.default_rng(1),
            band=MultiplicativeBand(0.2),
        )
        # eps alone defaults to the same multiplicative band.
        b = SwitchingEstimator(
            lambda r: _ExactCounter(), 64, 0.2, np.random.default_rng(1)
        )
        for t in range(500):
            a.update(0, 1)
            b.update(0, 1)
        assert a.query() == b.query()
        assert a.switches == b.switches

    def test_prebuilt_copy_manager(self):
        mgr = CopyManager(
            lambda r: _ExactCounter(), 8, np.random.default_rng(2)
        )
        est = SwitchingEstimator(copies=mgr, band=MultiplicativeBand(0.3))
        assert est.copies == 8
        assert est._copies is mgr
        est.update(1, 1)
        assert est.query() > 0

    def test_epoch_band_estimator_runs(self):
        # The generic estimator accepts any policy — an EpochBand-driven
        # counter publishes Definition 3.1 roundings of the count.
        est = SwitchingEstimator(
            lambda r: _ExactCounter(), 200, rng=np.random.default_rng(4),
            band=EpochBand(0.5),
        )
        for t in range(1, 300):
            out = est.process_update(0, 1)
            assert relative_within(out, float(t), 0.5)

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="band policy or an eps"):
            SwitchingEstimator(lambda r: _ExactCounter(), 4,
                               rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="factory/copies/rng"):
            SwitchingEstimator(band=MultiplicativeBand(0.2))
        with pytest.raises(ValueError):
            SwitchingEstimator(lambda r: _ExactCounter(), 0, 0.2,
                               np.random.default_rng(0))

    def test_eps_mirrors_band(self):
        est = SwitchingEstimator(
            lambda r: _ExactCounter(), 4, rng=np.random.default_rng(0),
            band=AdditiveBand(0.7),
        )
        assert est.eps == 0.7
        assert est.band == AdditiveBand(0.7)
        est = SwitchingEstimator(
            lambda r: _ExactCounter(), 4, 0.5, np.random.default_rng(0)
        )
        assert est.band == MultiplicativeBand(0.5)
