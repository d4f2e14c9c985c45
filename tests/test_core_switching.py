"""Tests for the sketch-switching framework (Algorithm 1 / Lemma 3.6)."""

import numpy as np
import pytest

from repro.core.bands import AdditiveBand, MultiplicativeBand
from repro.core.sketch_switching import (
    SketchExhaustedError,
    SwitchingEstimator,
    restart_ring_size,
)
from repro.sketches.base import Sketch
from repro.sketches.kmv import KMVSketch


class _ExactCounter(Sketch):
    """Exact F1 counter as a deterministic 'tracker' test double."""

    supports_deletions = True

    def __init__(self, rng=None):
        self._count = 0.0

    def update(self, item: int, delta: int = 1) -> None:
        self._count += delta

    def query(self) -> float:
        return self._count

    def space_bits(self) -> int:
        return 64


class TestRestartRingSize:
    def test_shrinks_with_eps(self):
        assert restart_ring_size(0.5) < restart_ring_size(0.05)

    def test_growth_dominates_prefix(self):
        import math

        for eps in (0.1, 0.2, 0.5):
            size = restart_ring_size(eps, constant=1.0)
            growth = (1 + eps / 2) ** size
            assert growth >= 100.0 / eps * 0.99

    def test_invalid(self):
        with pytest.raises(ValueError):
            restart_ring_size(0.0)


class TestSketchSwitching:
    def test_publishes_within_band(self):
        sw = SwitchingEstimator(
            lambda r: _ExactCounter(), copies=200, band=MultiplicativeBand(0.2),
            rng=np.random.default_rng(0),
        )
        for t in range(1, 300):
            out = sw.process_update(0, 1)
            assert abs(out - t) <= 0.2 * t + 1e-9

    def test_output_changes_rarely(self):
        sw = SwitchingEstimator(
            lambda r: _ExactCounter(), copies=200, band=MultiplicativeBand(0.2),
            rng=np.random.default_rng(1),
        )
        outputs = [sw.process_update(0, 1) for _ in range(1000)]
        distinct_runs = 1 + sum(
            1 for a, b in zip(outputs, outputs[1:]) if a != b
        )
        # log_{1.1}(1000) ~ 72 >> distinct output values needed.
        assert distinct_runs < 90
        assert sw.switches == distinct_runs

    def test_initial_output_is_zero(self):
        sw = SwitchingEstimator(
            lambda r: _ExactCounter(), copies=4, band=MultiplicativeBand(0.5),
            rng=np.random.default_rng(2),
        )
        assert sw.query() == 0.0

    def test_exhaustion_raises(self):
        sw = SwitchingEstimator(
            lambda r: _ExactCounter(), copies=2, band=MultiplicativeBand(0.1),
            rng=np.random.default_rng(3),
        )
        with pytest.raises(SketchExhaustedError):
            for _ in range(100):
                sw.process_update(0, 1)

    def test_exhaustion_clamp_mode(self):
        sw = SwitchingEstimator(
            lambda r: _ExactCounter(), copies=2, band=MultiplicativeBand(0.1),
            rng=np.random.default_rng(4), on_exhausted="clamp",
        )
        for _ in range(100):
            sw.process_update(0, 1)  # must not raise
        assert sw.query() > 0

    def test_restart_mode_reuses_ring(self):
        # The ring must satisfy the Theorem 4.1 size requirement, or the
        # restarted copies miss a non-negligible prefix of the stream.
        eps = 0.4
        ring = restart_ring_size(eps, constant=1.0)
        sw = SwitchingEstimator(
            lambda r: KMVSketch(256, r), copies=ring,
            band=MultiplicativeBand(eps),
            rng=np.random.default_rng(5), restart=True,
        )
        worst = 0.0
        for i in range(4000):
            out = sw.process_update(i, 1)
            truth = i + 1
            if truth > 50:
                worst = max(worst, abs(out - truth) / truth)
        assert sw.switches > ring  # ring wrapped at least once
        assert worst <= eps + 1e-9

    def test_undersized_restart_ring_degrades(self):
        """Control for the ring-size requirement: a tiny ring loses the
        prefix mass and the estimate collapses below the error band."""
        sw = SwitchingEstimator(
            lambda r: KMVSketch(256, r), copies=4, band=MultiplicativeBand(0.4),
            rng=np.random.default_rng(6), restart=True,
        )
        worst = 0.0
        for i in range(4000):
            out = sw.process_update(i, 1)
            if i > 1000:
                worst = max(worst, abs(out - (i + 1)) / (i + 1))
        assert worst > 0.4

    def test_restart_disables_deletions(self):
        sw = SwitchingEstimator(
            lambda r: _ExactCounter(), copies=4, band=MultiplicativeBand(0.5),
            rng=np.random.default_rng(6), restart=True,
        )
        assert not sw.supports_deletions

    def test_space_sums_copies(self):
        sw = SwitchingEstimator(
            lambda r: _ExactCounter(), copies=5, band=MultiplicativeBand(0.5),
            rng=np.random.default_rng(7),
        )
        assert sw.space_bits() == 5 * 64 + 128

    def test_invalid_params(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            SwitchingEstimator(lambda r: _ExactCounter(), 0, 0.1, rng)
        with pytest.raises(ValueError):
            SwitchingEstimator(lambda r: _ExactCounter(), 1, 1.5, rng)
        with pytest.raises(ValueError):
            SwitchingEstimator(
                lambda r: _ExactCounter(), 1, 0.1, rng, on_exhausted="explode"
            )


class _ExactEntropyLike(Sketch):
    """Deterministic additive test double: reports log2(t + 1)."""

    supports_deletions = False

    def __init__(self):
        self._t = 0

    def update(self, item: int, delta: int = 1) -> None:
        self._t += 1

    def query(self) -> float:
        import math

        return math.log2(self._t + 1)

    def space_bits(self) -> int:
        return 64


class TestAdditiveSwitching:
    def test_additive_band(self):
        sw = SwitchingEstimator(
            lambda r: _ExactEntropyLike(), copies=64, band=AdditiveBand(0.3),
            rng=np.random.default_rng(8),
        )
        import math

        for t in range(1, 500):
            out = sw.process_update(0, 1)
            assert abs(out - math.log2(t + 1)) <= 0.3 + 1e-9

    def test_switch_count_bounded_by_range(self):
        sw = SwitchingEstimator(
            lambda r: _ExactEntropyLike(), copies=100, band=AdditiveBand(0.5),
            rng=np.random.default_rng(9),
        )
        for _ in range(1000):
            sw.process_update(0, 1)
        import math

        # log2(1001) / (eps/2) ~ 40 switches maximum.
        assert sw.switches <= math.log2(1001) / 0.25 + 2

    def test_exhaustion_raises(self):
        sw = SwitchingEstimator(
            lambda r: _ExactEntropyLike(), copies=2, band=AdditiveBand(0.1),
            rng=np.random.default_rng(10),
        )
        with pytest.raises(SketchExhaustedError):
            for _ in range(1000):
                sw.process_update(0, 1)

    def test_invalid_params(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            SwitchingEstimator(lambda r: _ExactEntropyLike(), 0,
                               rng=rng, band=AdditiveBand(0.1))
        with pytest.raises(ValueError):
            SwitchingEstimator(lambda r: _ExactEntropyLike(), 1,
                               rng=rng, band=AdditiveBand(-1))


class TestExhaustionPaths:
    """The on_exhausted="clamp" degradation modes and ring reuse."""

    def test_plain_clamp_keeps_last_copy_active(self):
        sw = SwitchingEstimator(
            lambda r: _ExactCounter(), copies=3, band=MultiplicativeBand(0.2),
            rng=np.random.default_rng(1), on_exhausted="clamp",
        )
        for _ in range(2000):
            sw.process_update(0, 1)
        # All copies burned long ago, yet the estimator keeps tracking by
        # clamping to the last copy; switches keep counting past `copies`.
        assert sw.switches > sw.copies
        assert sw.active_index == sw.copies - 1
        assert sw.query() == pytest.approx(2000.0, rel=0.2 / 2 + 1e-9)

    def test_plain_clamp_never_raises_on_long_streams(self):
        sw = SwitchingEstimator(
            lambda r: _ExactCounter(), copies=1, band=MultiplicativeBand(0.5),
            rng=np.random.default_rng(2), on_exhausted="clamp",
        )
        for _ in range(500):
            sw.process_update(0, 1)  # must not raise

    def test_additive_clamp_keeps_tracking(self):
        import math

        sw = SwitchingEstimator(
            lambda r: _ExactEntropyLike(), copies=2, band=AdditiveBand(0.1),
            rng=np.random.default_rng(3), on_exhausted="clamp",
        )
        for t in range(1, 1500):
            out = sw.process_update(0, 1)
            assert abs(out - math.log2(t + 1)) <= 0.1 + 1e-9
        assert sw.switches > sw.copies

    def test_clamp_chunked_matches_per_item(self):
        def make(mode_copies):
            return SwitchingEstimator(
                lambda r: _ExactCounter(), copies=mode_copies,
                band=MultiplicativeBand(0.2),
                rng=np.random.default_rng(4), on_exhausted="clamp",
            )

        a, b = make(3), make(3)
        for _ in range(1500):
            a.process_update(0, 1)
        items = np.zeros(1500, dtype=np.int64)
        for lo in range(0, 1500, 128):
            b.update_chunk(items[lo:lo + 128])
        assert a.switches == b.switches
        assert a.query() == b.query()

    def test_invalid_on_exhausted_rejected(self):
        with pytest.raises(ValueError):
            SwitchingEstimator(
                lambda r: _ExactCounter(), copies=2,
                band=MultiplicativeBand(0.2),
                rng=np.random.default_rng(0), on_exhausted="ignore",
            )
        with pytest.raises(ValueError):
            SwitchingEstimator(
                lambda r: _ExactEntropyLike(), copies=2, band=AdditiveBand(0.2),
                rng=np.random.default_rng(0), on_exhausted="ignore",
            )


class TestRestartRingReuse:
    def test_full_cycle_replaces_every_slot(self):
        ring = 5
        sw = SwitchingEstimator(
            lambda r: _ExactCounter(), copies=ring,
            band=MultiplicativeBand(0.2),
            rng=np.random.default_rng(5), restart=True,
        )
        originals = list(sw._sketches)
        for _ in range(5000):
            sw.process_update(0, 1)
        # The ring cycled at least once: every slot holds a restarted copy
        # and the switch count exceeds the ring size.
        assert sw.switches > ring
        assert all(s is not o for s, o in zip(sw._sketches, originals))
        # Restarted copies only saw a suffix, so each restarted counter is
        # strictly behind the true count.
        assert all(s.query() < 5000 for s in sw._sketches)

    def test_restart_rng_derivation_is_deterministic(self):
        def make():
            return SwitchingEstimator(
                lambda r: KMVSketch(16, r), copies=4,
                band=MultiplicativeBand(0.3),
                rng=np.random.default_rng(6), restart=True,
            )

        a, b = make(), make()
        for t in range(3000):
            a.process_update(t % 512, 1)
            b.process_update(t % 512, 1)
        assert a.switches == b.switches
        assert a.query() == b.query()
        # Identical seeding must reproduce identical ring states.
        for sa, sb in zip(a._sketches, b._sketches):
            assert sa.state_fingerprint() == sb.state_fingerprint()
