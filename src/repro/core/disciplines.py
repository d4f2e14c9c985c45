"""Probe disciplines: *how* a publish decision reads the copies.

The band policies of :mod:`repro.core.bands` decide *when* to switch and
*what* to publish; the copy manager of :mod:`repro.core.copies` owns the
copy lifecycle.  A :class:`ProbeDiscipline` is the third orthogonal axis
of the switching protocol: which copies a publish decision reads, how
their estimates collapse into one decision estimate, and what happens to
the copies when a publication occurs.

* :class:`ActiveCopyDiscipline` — the paper's Algorithm 1: the decision
  reads exactly the *active* copy, and every publication **burns** it
  (its randomness is now correlated with the adversary's view) and
  activates the next.  The robustness budget is paid linearly: one copy
  per switch (or a Theorem 4.1 restart-ring slot).

* :class:`PrivateAggregateDiscipline` — the differential-privacy
  framework of Hassidim et al. 2020 ("Adversarially Robust Streaming
  Algorithms via Differential Privacy"): the decision reads **all**
  live copies and publishes a *privately aggregated* estimate (a noisy
  median behind a sparse-vector/AboveThreshold epoch discipline).  No
  copy is burned on a switch — the Laplace noise, not retirement, hides
  each copy's randomness — so the same number of switches is supported
  by ``O(sqrt(lambda))`` copies instead of ``Theta(lambda)``: with ``k``
  copies, advanced composition lets each copy participate in ``~k^2``
  eps-DP aggregate answers before its privacy budget is exhausted.  The
  discipline accounts that budget explicitly and *retires* the copy set
  (refreshing every instance from the coordinator's replacement pool)
  only when the budget runs out — which a stream respecting the flip
  bound the budget was sized for never triggers.

* :class:`DifferenceAggregateDiscipline` — the Attias et al. 2022
  sharpening via difference estimators (:mod:`repro.core.ladder`): most
  publications are answered by the lowest live tier of a geometric
  ladder of cheap difference estimators — ``checkpoint + noisy
  difference`` — and charge that tier's own (cheap) budget; only when
  the accumulated difference out-grows the ladder does a publication
  read the strong copies, pay one sparse-vector charge, and open a
  fresh checkpoint window.  The strong budget is therefore spent per
  *checkpoint*, not per publication, so the same strong copy set
  supports a multiple of the publications — or equivalently fewer
  strong copies (and less space) support the same stream.

The protocol driver (:class:`~repro.core.sketch_switching
.SwitchingProtocol`) is discipline-agnostic: it asks the discipline
which copies a probe (and a crossing search) may read, collapses their
estimates through :meth:`ProbeDiscipline.decide`, and hands publication
side effects to :meth:`ProbeDiscipline.on_publish`.  Determinism across
execution paths (per-item, serial chunked, engine sessions) holds by the same argument as for bands and copies: every noise draw and
every replacement RNG derivation happens on the coordinator, keyed to
the publication count, which all paths agree on.

Reproduction notes on the DP mechanism
--------------------------------------
The sparse-vector discipline is implemented with *per-epoch* noise: one
relative Laplace perturbation ``nu ~ Lap(noise_scale)`` is drawn at each
publication (the AboveThreshold reset) and held fixed until the next —
the decision estimate within an epoch is ``median(copies) * (1 + nu)``.
Holding the comparison noise fixed between publications is what makes
the decision trajectory a deterministic function of the stream within an
epoch, so the chunked bisection machinery (and its band-policy
exactness/coalescing contract) applies to the DP path unchanged; it is
the standard SVT threshold-noise sharing, with the per-comparison noise
folded into the band width.  Post-processing (the band's publication
rounding) is free under DP.
"""

from __future__ import annotations

import abc
import math
from collections.abc import Sequence

import numpy as np

from repro.core.bands import BandPolicy
from repro.core.copies import CopyManager
from repro.core.ladder import (
    STRONG,
    DifferenceLadder,
    default_difference_ladder,
    require_count,
    require_positive_finite,
)
from repro.obs import GenerationEvent, SvtChargeEvent
from repro.sketches.base import row_median

__all__ = [
    "ActiveCopyDiscipline",
    "DifferenceAggregateDiscipline",
    "PrivacyBudgetExhaustedError",
    "PrivateAggregateDiscipline",
    "ProbeDiscipline",
    "default_switch_budget",
    "dp_copy_count",
    "resolve_discipline",
]


# Budgeted-discipline parameter validation is shared with the ladder's
# tier specs (repro.core.ladder.require_positive_finite/require_count):
# NaN/inf/bool scales a plain `<= 0` comparison lets through, and
# fractional/bool budgets, are rejected eagerly at construction instead
# of failing deep inside the protocol at the first publication; NumPy
# scalars from sizing arithmetic pass.


def _svt_budget_fields(disc, charges: int) -> dict:
    """The sparse-vector generation accounting both budgeted disciplines
    share: ``charges`` is whatever each discipline pays its budget in —
    every publication for the private aggregate, strong checkpoints for
    the difference ladder."""
    budget = disc.switch_budget
    in_generation = (
        charges - disc.generations * budget
        if budget is not None
        else charges
    )
    spent = in_generation / budget if budget else 0.0
    return {
        "discipline": disc.name,
        "noise_scale": disc.noise_scale,
        "switch_budget": budget,
        "budget_spent": round(spent, 6),
        "budget_remaining": round(max(0.0, 1.0 - spent), 6),
        "generations": disc.generations,
    }


def _svt_exhausted(disc, charges: int) -> bool:
    """Has the current generation's sparse-vector budget run out?"""
    return charges - disc.generations * disc.switch_budget \
        >= disc.switch_budget


def _emit_svt_charge(tele, disc, charges: int, scope: str) -> None:
    """Trace one sparse-vector budget step (caller checked enabled)."""
    budget = disc.switch_budget or 0
    in_generation = charges - disc.generations * budget if budget else charges
    tele.emit(SvtChargeEvent(
        charges=in_generation,
        budget=budget,
        spent=in_generation / budget if budget else 0.0,
        scope=scope,
    ))
    tele.metrics.counter(
        "svt_charges_total", "sparse-vector budget steps spent"
    ).inc()


class PrivacyBudgetExhaustedError(RuntimeError):
    """Every copy's sparse-vector budget is spent: the flip bound the
    budget was sized for has been exceeded (``on_exhausted="raise"``)."""


class ProbeDiscipline(abc.ABC):
    """How the switching protocol reads copies to make publish decisions.

    One discipline instance belongs to one estimator: :meth:`bind` is
    called once when the estimator is built (or when a discipline is
    installed through ``api.ingest(discipline=...)``) and pins the
    discipline to that estimator's :class:`CopyManager`.
    """

    #: Short discipline name, surfaced by shard plans and ingest reports.
    name: str = "discipline"

    #: True when ``decide([y]) == y`` — a single-copy probe needs no
    #: coordinator-side aggregation, so the backend may resolve a
    #: per-item crossing scan in one tight loop (its ``scan_probed``
    #: fast path).  Aggregating disciplines return their estimates to
    #: the protocol instead.
    identity_decide: bool = True

    def bind(self, copies: CopyManager) -> None:
        """Attach to one estimator's copy manager (idempotent per manager)."""
        bound = getattr(self, "_bound", None)
        if bound is not None and bound is not copies:
            raise ValueError(
                f"{type(self).__name__} is already bound to another "
                f"estimator's copies; disciplines are not shareable"
            )
        self._bound = copies

    @abc.abstractmethod
    def probe_indices(self, copies: CopyManager) -> tuple[int, ...]:
        """The copy indices a publish decision — and therefore a
        crossing search — may read."""

    @abc.abstractmethod
    def decide(self, estimates: Sequence[float]) -> float:
        """Collapse the probed copies' estimates (aligned with
        :meth:`probe_indices`) into the decision estimate."""

    def decide_many(self, estimates: np.ndarray) -> np.ndarray:
        """:meth:`decide` applied to each row of a ``(prefixes, probes)``
        array, as a float64 array bit-for-bit equal to the row-by-row
        calls.  Subclasses may vectorize it; the default loops.
        """
        return np.array([self.decide(row) for row in estimates],
                        dtype=np.float64)

    @abc.abstractmethod
    def publish(self, band: BandPolicy, estimate: float) -> float:
        """Round the decision estimate for publication."""

    @abc.abstractmethod
    def on_publish(
        self, copies: CopyManager, switches: int, replace=None
    ) -> None:
        """Copy-lifecycle side effects of one publication.

        ``replace(index, rng)`` installs a rebuilt copy through the
        backend; RNGs are always derived on the coordinator via
        :meth:`CopyManager.replacement_rng`.
        """

    def budget_state(self) -> dict | None:
        """Budget introspection for :class:`repro.api.IngestReport`
        (None for budget-free disciplines)."""
        return None


class ActiveCopyDiscipline(ProbeDiscipline):
    """Algorithm 1's discipline: probe the active copy, burn it on a switch.

    Bit-for-bit the pre-discipline protocol: the decision estimate *is*
    the active copy's estimate, publication applies the band's rounding,
    and every publication advances the copy manager (plain burn or
    Theorem 4.1 ring restart).
    """

    name = "active-copy"
    identity_decide = True

    def probe_indices(self, copies: CopyManager) -> tuple[int, ...]:
        return (copies.active_index,)

    def decide(self, estimates: Sequence[float]) -> float:
        return float(estimates[0])

    def publish(self, band: BandPolicy, estimate: float) -> float:
        return band.publish(estimate)

    def on_publish(
        self, copies: CopyManager, switches: int, replace=None
    ) -> None:
        copies.advance(switches, replace=replace)


def default_switch_budget(copies: int) -> int:
    """Publications ``copies`` instances support before SVT exhaustion.

    The advanced-composition accounting of Hassidim et al.: answering
    ``T`` adaptive eps0-DP aggregate queries costs each copy
    ``~sqrt(T) * eps0`` of budget, so ``k`` copies sized for per-answer
    privacy ``eps0 ~ 1/k`` support ``T ~ k^2`` publications — the
    inverse of the ``copies ~ sqrt(flips)`` sizing rule.
    """
    if copies < 1:
        raise ValueError(f"copies must be >= 1, got {copies}")
    return copies * copies


class PrivateAggregateDiscipline(ProbeDiscipline):
    """DP aggregate publishing: noisy median over all copies, SVT budget.

    Parameters
    ----------
    noise_scale:
        Relative Laplace scale ``b`` of the per-epoch perturbation: the
        decision estimate is ``median(copy estimates) * (1 + nu)`` with
        ``nu ~ Lap(b)`` redrawn at each publication.  Must sit well
        inside the band's inner accuracy budget (the DP wrappers default
        to ``eps/12``); a tail draw merely triggers one extra switch.
    switch_budget:
        Publications the copy set supports before the sparse-vector
        budget is exhausted.  Size it to the tracked function's flip
        bound; defaults to :func:`default_switch_budget` (``copies^2``)
        at bind time.
    on_exhausted:
        ``"retire"`` (default): on exhaustion, retire the whole copy set
        — every instance is refreshed from the coordinator's replacement
        pool — reset the budget, and open a new generation.  The
        guarantee window restarts (the estimate dips until the refreshed
        copies regrow their state), which is the documented degradation
        mode for streams that out-flip the provisioned budget.
        ``"raise"``: raise :class:`PrivacyBudgetExhaustedError` instead.
    rng:
        Coordinator-side noise generator.  Defaults (at bind) to a child
        spawned from the copy manager's fresh-randomness pool, so the
        noise stream — like replacement RNGs — is a pure function of the
        estimator's seed and its publication count.
    """

    name = "private-aggregate"
    identity_decide = False

    def __init__(
        self,
        noise_scale: float = 0.05,
        switch_budget: int | None = None,
        on_exhausted: str = "retire",
        rng: np.random.Generator | None = None,
    ):
        require_positive_finite("noise_scale", noise_scale)
        if switch_budget is not None:
            require_count("switch_budget", switch_budget)
        if on_exhausted not in ("retire", "raise"):
            raise ValueError(f"unknown on_exhausted mode {on_exhausted!r}")
        self.noise_scale = noise_scale
        self.switch_budget = switch_budget
        self.on_exhausted = on_exhausted
        self._rng = rng
        self._noise: float | None = None
        self.publications = 0
        self.generations = 0
        self._bound: CopyManager | None = None

    def bind(self, copies: CopyManager) -> None:
        rebind = getattr(self, "_bound", None) is copies
        super().bind(copies)
        if rebind:
            return
        if self.switch_budget is None:
            self.switch_budget = default_switch_budget(copies.count)
        if self._rng is None:
            # One child from the fresh pool; subsequent replacement
            # draws stay on the pool's own derivation chain.
            self._rng = copies.replacement_rng()
        self._noise = float(self._rng.laplace(0.0, self.noise_scale))

    def probe_indices(self, copies: CopyManager) -> tuple[int, ...]:
        return tuple(range(copies.count))

    def _noise_factor(self) -> float:
        if self._noise is None:
            raise RuntimeError(
                "PrivateAggregateDiscipline used before bind(); construct "
                "the estimator with discipline=... or call set_discipline"
            )
        return 1.0 + self._noise

    def decide(self, estimates: Sequence[float]) -> float:
        # Probe paths deliver a float64 ndarray (CopyManager.estimate_all
        # and the backends return arrays); row_median is np.median's
        # value bit for bit.
        return float(row_median(estimates)) * self._noise_factor()

    def decide_many(self, estimates: np.ndarray) -> np.ndarray:
        # One median per row, the value decide takes of each row alone,
        # times the same factor.
        return row_median(estimates) * self._noise_factor()

    def publish(self, band: BandPolicy, estimate: float) -> float:
        return band.publish_aggregate(estimate)

    def on_publish(
        self, copies: CopyManager, switches: int, replace=None
    ) -> None:
        # AboveThreshold reset: fresh epoch noise, one budget step spent
        # by every copy (they all contributed to the released aggregate).
        self.publications += 1
        self._noise = float(self._rng.laplace(0.0, self.noise_scale))
        tele = copies.telemetry
        if tele.enabled:
            _emit_svt_charge(tele, self, self.publications, "publication")
        if not _svt_exhausted(self, self.publications):
            return
        if self.on_exhausted == "raise":
            raise PrivacyBudgetExhaustedError(
                f"sparse-vector budget exhausted after {self.publications} "
                f"publications (switch_budget={self.switch_budget}); the "
                f"stream out-flipped the provisioned bound"
            )
        copies.refresh(replace=replace)
        self.generations += 1
        if tele.enabled:
            tele.emit(GenerationEvent(
                generation=self.generations, copies=copies.count,
            ))
            tele.metrics.counter(
                "generation_retires_total",
                "whole-set rebirths on budget exhaustion",
            ).inc()

    def budget_state(self) -> dict:
        state = _svt_budget_fields(self, self.publications)
        state["publications"] = self.publications
        return state


class DifferenceAggregateDiscipline(ProbeDiscipline):
    """DP publishing through a difference-estimator ladder (Attias 2022).

    The third probe discipline: publications are answered by the lowest
    live tier of a :class:`~repro.core.ladder.DifferenceLadder` —
    ``checkpoint + (median(tier) - base) * (1 + nu)`` with tier-scale
    Laplace noise, charged against the tier's own budget — and only a
    publication at the top of the ladder reads the strong copy group,
    pays one sparse-vector charge (``switch_budget`` accounting exactly
    as in :class:`PrivateAggregateDiscipline`), re-anchors every tier's
    base, and opens a new checkpoint window.

    Probe sets follow the ladder: between checkpoints only the current
    tier's (small) copy group is probed — the strong copies and the
    other tiers ride along as batch-fed "others" — and the checkpoint
    publication probes **all** groups, because anchoring needs every
    group's aggregate at the same stream position.

    Parameters
    ----------
    ladder:
        The :class:`~repro.core.ladder.DifferenceLadder` (tier sizes,
        noise tiers, capacities, spans).  Defaults to
        :func:`~repro.core.ladder.default_difference_ladder`.
    noise_scale:
        Relative Laplace scale of *strong* (checkpoint) publications.
    switch_budget:
        Strong-group sparse-vector budget: checkpoint publications per
        generation.  Defaults to ``strong_copies ** 2`` at bind.
    on_exhausted:
        ``"retire"`` (default) refreshes the whole copy set and opens a
        new generation when the strong budget runs out; ``"raise"``
        raises :class:`PrivacyBudgetExhaustedError`.
    rng:
        Coordinator noise generator; defaults (at bind) to a child of
        the copy manager's fresh pool, so the noise stream is a pure
        function of the estimator seed and the publication count.
    """

    name = "difference-ladder"
    identity_decide = False

    def __init__(
        self,
        ladder: DifferenceLadder | None = None,
        noise_scale: float = 0.05,
        switch_budget: int | None = None,
        on_exhausted: str = "retire",
        rng: np.random.Generator | None = None,
    ):
        require_positive_finite("noise_scale", noise_scale)
        if switch_budget is not None:
            require_count("switch_budget", switch_budget)
        if on_exhausted not in ("retire", "raise"):
            raise ValueError(f"unknown on_exhausted mode {on_exhausted!r}")
        self.ladder = ladder if ladder is not None \
            else default_difference_ladder()
        if not isinstance(self.ladder, DifferenceLadder):
            raise ValueError(
                f"ladder must be a DifferenceLadder, got {ladder!r}"
            )
        self.noise_scale = noise_scale
        self.switch_budget = switch_budget
        self.on_exhausted = on_exhausted
        self._rng = rng
        self._noise: float | None = None
        #: Stash of the decide() call that precedes a publication:
        #: (level, per-tier medians | diff, decision estimate).
        self._last: tuple | None = None
        self.publications = 0
        #: Sparse-vector charges actually paid by the strong group.
        self.strong_charges = 0
        self.generations = 0
        self._bound: CopyManager | None = None

    def bind(self, copies: CopyManager) -> None:
        bound = getattr(self, "_bound", None)
        if bound is not None:
            # Raises on a different manager; a same-manager rebind is a
            # no-op (the ladder is already fitted).
            super().bind(copies)
            return
        # Fit the ladder *before* committing any bound state, so a
        # rejected manager (too few copies, mismatched groups) leaves
        # both the discipline and the ladder reusable.
        self.ladder.bind(copies, strong_noise_scale=self.noise_scale)
        super().bind(copies)
        if self.switch_budget is None:
            self.switch_budget = default_switch_budget(
                self.ladder.strong_count
            )
        if self._rng is None:
            self._rng = copies.replacement_rng()
        self._noise = float(
            self._rng.laplace(0.0, self._noise_scale_at(self.ladder.level))
        )

    def _noise_scale_at(self, level) -> float:
        if level is STRONG:
            return self.noise_scale
        return self.ladder.tiers[level].noise_scale

    def probe_indices(self, copies: CopyManager) -> tuple[int, ...]:
        level = self.ladder.level
        if level is STRONG:
            # Checkpoint epoch: every group, so anchoring reads all
            # aggregates at the publication position.
            return tuple(range(copies.count))
        lo, hi = self.ladder.tier_slice(level)
        return tuple(range(lo, hi))

    def decide(self, estimates: Sequence[float]) -> float:
        if self._noise is None:
            raise RuntimeError(
                "DifferenceAggregateDiscipline used before bind(); "
                "construct the estimator with discipline=... or call "
                "set_discipline"
            )
        lad = self.ladder
        # Already a float64 ndarray on every internal path; asarray is a
        # no-op there and only exists for external list callers.
        arr = np.asarray(estimates, dtype=np.float64)
        if lad.level is STRONG:
            tier_medians = [
                float(np.median(arr[slice(*lad.tier_slice(j))]))
                for j in range(len(lad.tiers))
            ]
            slo, shi = lad.strong_slice
            y = float(np.median(arr[slo:shi])) * (1.0 + self._noise)
            self._last = (STRONG, tier_medians, y)
            return y
        diff = float(np.median(arr)) - lad.bases[lad.level]
        y = lad.checkpoint + diff * (1.0 + self._noise)
        self._last = (lad.level, diff, y)
        return y

    def publish(self, band: BandPolicy, estimate: float) -> float:
        return band.publish_aggregate(estimate)

    def on_publish(
        self, copies: CopyManager, switches: int, replace=None
    ) -> None:
        # The protocol publishes immediately after the decide() at the
        # crossing position, so the stash is the deciding read.
        level, payload, y = self._last
        lad = self.ladder
        tele = copies.telemetry
        self.publications += 1
        if level is STRONG:
            self.strong_charges += 1
            if tele.enabled:
                _emit_svt_charge(tele, self, self.strong_charges, "strong")
            if _svt_exhausted(self, self.strong_charges):
                # The exhausting publication opens no window: the whole
                # copy set is reborn, so anchoring to pre-refresh state
                # would be meaningless (and would overstate the
                # `checkpoints` introspection counter).
                if self.on_exhausted == "raise":
                    raise PrivacyBudgetExhaustedError(
                        f"strong sparse-vector budget exhausted after "
                        f"{self.strong_charges} checkpoint publications "
                        f"(switch_budget={self.switch_budget}); the stream "
                        f"out-flipped the provisioned bound"
                    )
                copies.refresh(replace=replace)
                self.generations += 1
                lad.invalidate()
                if tele.enabled:
                    tele.emit(GenerationEvent(
                        generation=self.generations, copies=copies.count,
                    ))
                    tele.metrics.counter(
                        "generation_retires_total",
                        "whole-set rebirths on budget exhaustion",
                    ).inc()
            else:
                lad.anchor(y, payload)
        else:
            if lad.charge_tier(level, payload):
                # Tier budget exhausted: rebirth that tier's group alone;
                # the ladder already points at STRONG for re-anchoring.
                lo, hi = lad.tier_slice(level)
                copies.refresh(indices=range(lo, hi), replace=replace)
        self._noise = float(
            self._rng.laplace(0.0, self._noise_scale_at(lad.level))
        )

    def budget_state(self) -> dict:
        # The strong budget is paid in checkpoints, not publications.
        state = _svt_budget_fields(self, self.strong_charges)
        state["publications"] = self.publications
        state["strong_charges"] = self.strong_charges
        state["publications_per_charge"] = round(
            self.publications / self.strong_charges, 3
        ) if self.strong_charges else 0.0
        state.update(self.ladder.state())
        return state


def dp_copy_count(flips: int, constant: float = 2.0, floor: int = 4) -> int:
    """The DP framework's copy count ``O(sqrt(lambda))`` for flip bound
    ``lambda`` — versus sketch switching's ``Theta(lambda)``."""
    if flips < 1:
        raise ValueError(f"flip bound must be >= 1, got {flips}")
    return max(floor, math.ceil(constant * math.sqrt(flips)))


def resolve_discipline(spec) -> ProbeDiscipline | None:
    """Normalise a discipline spec: None, name string, or instance.

    ``None`` passes through (keep the estimator's own discipline);
    ``"active"``/``"active-copy"``, ``"private"``/
    ``"private-aggregate"``/``"dp"``, and ``"dp-diff"``/
    ``"difference"``/``"difference-ladder"`` build the named discipline
    with defaults; a :class:`ProbeDiscipline` instance passes through.
    """
    if spec is None or isinstance(spec, ProbeDiscipline):
        return spec
    if isinstance(spec, str):
        if spec in ("active", "active-copy"):
            return ActiveCopyDiscipline()
        if spec in ("private", "private-aggregate", "dp"):
            return PrivateAggregateDiscipline()
        if spec in ("dp-diff", "difference", "difference-ladder"):
            return DifferenceAggregateDiscipline()
    raise ValueError(
        f"unknown probe discipline {spec!r}; expected None, 'active', "
        f"'private', 'dp-diff', or a ProbeDiscipline instance"
    )
