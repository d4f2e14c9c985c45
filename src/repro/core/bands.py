"""Band policies: the publish-band decision of every switching protocol.

Each robustness construction in the paper runs the same loop — feed all
copies, compare the published value against the current estimate, and
burn/rotate a copy when the comparison fails — and differs only in *how*
the comparison and the re-published value are computed:

* Algorithm 1 / Theorem 4.1 (F0, Fp, L2): the **multiplicative** band
  ``published in (1 ± eps/2) * estimate`` with ``[.]_{eps/2}`` rounding
  (powers of ``1 + eps/2``);
* Theorem 7.3 (entropy): the **additive** band
  ``|published - estimate| <= eps/2`` with rounding to multiples of
  ``eps/2`` (the multiplicative machinery applied to ``g = 2^H`` and
  expressed in the exponent);
* Theorem 6.5 (heavy hitters): the **epoch** band — the stateful
  epsilon-rounding of Definition 3.1 applied to the robust L2 estimate,
  whose re-publications partition time into the ``Theta(eps^-1 log n)``
  epochs of Corollary 3.5.

A :class:`BandPolicy` owns exactly those three rules — the band test,
the published-value rounding, and the bisect-comparability contract —
and nothing else: copy lifecycle lives in :mod:`repro.core.copies`, the
chunked/sharded drive loop in :mod:`repro.core.sketch_switching` and
:mod:`repro.engine.executor`.  A new robustness scheme (DP aggregation a
la Hassidim et al. 2020, importance sampling) is one new policy, not a
new hand-rolled loop.

Policies are small frozen dataclasses: hashable, picklable, and
comparable.

The *bisectable* contract
-------------------------
Crossing chunks are resolved by snapshot bisection of the active copy,
which treats an in-band cell boundary as a clean prefix.
``bisectable=True`` promises that treatment is *exact*: once a band
check has passed in band, the first later crossing within an oblivious
run is unique and one-sided, so bisection pins the per-item switch
position.  This holds for the multiplicative and epoch bands over the
monotone norm-like quantities they are applied to (the band edges only
move toward the published value).  The additive band over entropy is
**not** bisectable — H oscillates — so the same treatment is instead the
documented *coalescing* rule at every granularity the protocol checks
the band (chunk boundaries and bisect cells alike): a transient exit
that fully reverts between two checks is coalesced away, while
trajectories monotone between checks still resolve per-item exactly
(the band is an interval).  Oblivious replay accepts this; the
adversarial game always runs per item.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.core.rounding import round_to_power


def relative_within(published: float, estimate: float, width: float) -> bool:
    """Is ``published`` inside ``(1 ± width)`` of ``estimate`` (sign-aware)?

    The single comparison underlying the multiplicative and epoch bands
    (and Definition 3.1's stateful rounding).  ``sorted`` keeps the test
    correct for negative estimates.
    """
    lo, hi = sorted(((1 - width) * estimate, (1 + width) * estimate))
    return lo <= published <= hi


class BandPolicy(abc.ABC):
    """The switch predicate + publication rule of one robustness scheme."""

    #: Short policy name, surfaced by shard plans and ingest reports.
    name: str = "band"

    #: Whether bisection's clean-prefix treatment is exact (see the
    #: module docstring for the contract); when False it is the
    #: coalescing rule applied at bisect-cell granularity.
    bisectable: bool = False

    @abc.abstractmethod
    def within(self, published: float, estimate: float) -> bool:
        """Does the published value still cover the fresh estimate?"""

    def crossed(self, published: float, estimate: float) -> bool:
        """The switch predicate: has the estimate left the publish band?"""
        return not self.within(published, estimate)

    @abc.abstractmethod
    def publish(self, estimate: float) -> float:
        """Round a fresh estimate for publication (information hiding)."""

    def publish_aggregate(self, estimate: float) -> float:
        """Rounding for *privately aggregated* publications.

        The DP probe discipline publishes a noisy aggregate over all
        copies; rounding is free post-processing under DP and keeps the
        flip-number accounting identical to the active-copy path, so the
        default is the band's own :meth:`publish`.  Bands whose rounding
        assumes a sign (the multiplicative/epoch power rounding over
        monotone non-negative quantities) clamp the Laplace tail that
        can push a near-zero aggregate negative.
        """
        return self.publish(estimate)


@dataclass(frozen=True)
class MultiplicativeBand(BandPolicy):
    """Algorithm 1's band: ``published in (1 ± eps/2) estimate``.

    Publications are ``[estimate]_{eps/2}`` — the nearest signed power of
    ``(1 + eps/2)`` (Definition 3.7), with ``[0] = 0``.
    """

    eps: float
    name = "multiplicative"
    bisectable = True

    def __post_init__(self):
        if not 0 < self.eps < 1:
            raise ValueError(f"eps must be in (0,1), got {self.eps}")

    def within(self, published: float, estimate: float) -> bool:
        return relative_within(published, estimate, self.eps / 2)

    def publish(self, estimate: float) -> float:
        if estimate == 0:
            return 0.0
        return round_to_power(estimate, self.eps / 2)

    def publish_aggregate(self, estimate: float) -> float:
        """Power rounding with the negative Laplace tail clamped to 0.

        The multiplicative band is applied to monotone non-negative
        quantities (F0, Fp, L2); a noisy aggregate that lands below zero
        carries no signal and publishes as 0 rather than as a signed
        power.
        """
        return self.publish(max(0.0, estimate))


@dataclass(frozen=True)
class AdditiveBand(BandPolicy):
    """Theorem 7.3's band: ``|published - estimate| <= eps/2``.

    Publications round to multiples of ``eps/2``; additive eps on H is
    multiplicative ``2^(±eps)`` on ``g = 2^H``, so the flip-number bound
    of Proposition 7.2 carries over unchanged.  Entropy is not monotone,
    hence ``bisectable=False``: crossing-chunk bisection coalesces
    transient excursions at cell granularity (the module docstring's
    contract) instead of being per-item exact.
    """

    eps: float
    name = "additive"
    bisectable = False

    def __post_init__(self):
        if self.eps <= 0:
            raise ValueError(f"eps must be positive, got {self.eps}")

    def within(self, published: float, estimate: float) -> bool:
        return abs(published - estimate) <= self.eps / 2

    def publish(self, estimate: float) -> float:
        step = self.eps / 2
        return round(estimate / step) * step


@dataclass(frozen=True)
class EpochBand(BandPolicy):
    """Theorem 6.5's epoch clock: Definition 3.1 rounding of the L2 track.

    ``within`` uses the full ``(1 ± eps)`` width and ``publish`` rounds
    to powers of ``(1 + eps)`` — each re-publication opens a new epoch,
    and Corollary 3.5 bounds the epoch count by the flip number.  The
    first observation always publishes (there is no epoch zero): callers
    represent that with ``published=None`` and :meth:`crossed` treats it
    as an immediate crossing.
    """

    eps: float
    name = "epoch"
    bisectable = True

    def __post_init__(self):
        if self.eps <= 0:
            raise ValueError(f"eps must be positive, got {self.eps}")

    def within(self, published: float | None, estimate: float) -> bool:
        if published is None:
            return False
        return relative_within(published, estimate, self.eps)

    def publish(self, estimate: float) -> float:
        if estimate == 0:
            return 0.0
        return round_to_power(estimate, self.eps)

    def publish_aggregate(self, estimate: float) -> float:
        """Same clamp as the multiplicative band (monotone L2 track)."""
        return self.publish(max(0.0, estimate))

