"""Difference-estimator ladders (Attias et al. 2022) for DP publishing.

"A Framework for Adversarial Streaming via Differential Privacy and
Difference Estimators" (Attias, Cohen, Shechner, Stemmer 2022) sharpens
the Hassidim et al. 2020 framework with one observation: most
publications do not need a fresh read of the *strong* estimator at all.
Between two strong publications the tracked value moves by at most a
band step or two, so a cheap **difference estimator** — an instance that
only has to track ``f(stream) - f(prefix)`` accurately *relative to the
difference* — suffices, and its privacy cost is charged against its own
(cheap) budget tier instead of the strong copies' sparse-vector budget.

This module owns the ladder **structure and coordinator state**; the
protocol adapter lives in
:class:`repro.core.disciplines.DifferenceAggregateDiscipline`:

* the **strong checkpoint** — the last group of the copy set holds the
  full-accuracy sketches.  A publication answered there charges one
  sparse-vector budget step (exactly a PR-4
  :class:`~repro.core.disciplines.PrivateAggregateDiscipline`
  publication), records the published aggregate as the *checkpoint*
  value, and re-anchors every tier's *base* — the tier's raw aggregate
  at the checkpoint position;
* a **geometric ladder of tiers** — each tier is a small group of
  cheaper copies.  Within a checkpoint window, tier ``j`` answers
  publications with ``checkpoint + (median(tier) - base_j) * (1 + nu)``:
  the same sketch instances are read at both endpoints, so the endpoint
  errors are strongly correlated and the estimate is accurate relative
  to the *growth* since the checkpoint, not the absolute value.  A tier
  serves while the accumulated difference stays inside its **band
  share** (``span * checkpoint``) and its per-window publication
  ``capacity``; exceeding either promotes the ladder to the next tier,
  and past the last tier the next publication reads the strong group —
  one sparse-vector charge, a fresh checkpoint, and the ladder drops
  back to tier 0;
* **per-tier budgets** — a tier of ``k`` copies publishing with Laplace
  scale ``b`` supports ``~k^2 * (b / b_strong)^2`` answers by the same
  advanced-composition accounting that sizes the strong budget (noisier
  answers cost each copy proportionally less privacy).  Exhausting a
  tier's budget refreshes that tier's group alone and forces the next
  publication to re-checkpoint (the reborn tier's base is meaningless
  until re-anchored).

Determinism across execution paths holds by the PR-4 argument extended
per group: every promotion, anchoring, and budget decision is a pure
function of the decision estimates at publication positions, and every
noise/replacement RNG draw happens on the coordinator keyed to the
publication count — so per-item, chunked, and engine replays agree
bit for bit.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from repro.obs import (
    NULL_TELEMETRY,
    LadderAnchorEvent,
    LadderInvalidateEvent,
    LadderPromoteEvent,
)

__all__ = [
    "DifferenceLadder",
    "LadderTier",
    "default_difference_ladder",
    "require_count",
    "require_positive_finite",
]

#: Sentinel level: publications are answered by the strong group.
STRONG = None


def require_positive_finite(name: str, value: float) -> None:
    """Eager scale validation (shared with :mod:`repro.core.disciplines`).

    ``numbers.Real`` rather than ``(int, float)`` so NumPy scalars from
    sizing arithmetic (``np.ceil``/``np.sqrt``) pass; bools and NaN —
    which sail through plain comparisons — do not.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real) \
            or not math.isfinite(value) or value <= 0:
        raise ValueError(f"{name} must be a positive finite number, "
                         f"got {value!r}")


def require_count(name: str, value, minimum: int = 1) -> None:
    """Eager copy/budget-count validation (shared across disciplines)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) \
            or value < minimum:
        raise ValueError(f"{name} must be an int >= {minimum}, "
                         f"got {value!r}")


@dataclass(frozen=True)
class LadderTier:
    """One difference-estimator tier: a copy group + its budget terms.

    Parameters
    ----------
    copies:
        Copy-group size of this tier (its noisy median width).
    noise_scale:
        Relative Laplace scale of publications answered here.  Tiers are
        meant to be *noisier* than the strong group — that is what makes
        their per-answer privacy cost cheap.
    capacity:
        Publications this tier may answer per checkpoint window before
        the ladder promotes past it.
    span:
        The tier's band share: the accumulated |difference| (relative to
        the checkpoint value) this tier may cover.  Geometric across the
        ladder — each tier roughly doubles the previous one's span.
    budget:
        Lifetime publications before the tier's copy group is refreshed
        (None: derived at bind from ``copies`` and the noise ratio by
        the scaled advanced-composition rule).
    """

    copies: int
    noise_scale: float
    capacity: int
    span: float
    budget: int | None = None

    def __post_init__(self):
        require_count("tier copies", self.copies)
        require_positive_finite("tier noise_scale", self.noise_scale)
        require_count("tier capacity", self.capacity)
        require_positive_finite("tier span", self.span)
        if self.budget is not None:
            require_count("tier budget", self.budget)


class DifferenceLadder:
    """Coordinator state of one difference-estimator ladder.

    Owns the tier specs, the copy-group slices (resolved at bind), the
    checkpoint/base anchoring, and the promotion/budget bookkeeping.
    The discipline asks it which group to probe and tells it about each
    publication; it never touches a sketch itself.
    """

    def __init__(self, tiers, span_scale_floor: float = 1.0) -> None:
        self.tiers: tuple[LadderTier, ...] = tuple(tiers)
        if not self.tiers:
            raise ValueError("a difference ladder needs at least one tier")
        require_positive_finite("span_scale_floor", span_scale_floor)
        #: Absolute floor on the promotion scale ``max(|checkpoint|,
        #: floor)``.  The default of 1.0 suits counting-style quantities
        #: (F0, moments), where it stops a near-zero first checkpoint
        #: from promoting every publication; installing the ladder on a
        #: tracker whose values live below 1 wants a smaller floor, or
        #: the tier spans silently turn from band shares into absolute
        #: thresholds.
        self.span_scale_floor = span_scale_floor
        count = len(self.tiers)
        #: Current answering level: a tier index, or STRONG (None) when
        #: the next publication must read the strong group.  Starts at
        #: STRONG — the first publication anchors the first checkpoint.
        self.level: int | None = STRONG
        #: The strong reference value published at the last checkpoint.
        self.checkpoint: float | None = None
        #: Per-tier raw aggregate at the checkpoint position.
        self.bases: list[float] = [0.0] * count
        #: Publications answered per tier inside the current window.
        self.window_spent: list[int] = [0] * count
        #: Lifetime publications per tier since its last group refresh.
        self.tier_spent: list[int] = [0] * count
        self.tier_generations: list[int] = [0] * count
        #: Checkpoint windows opened so far (strong publications).
        self.checkpoints = 0
        #: Resolved per-tier lifetime budgets (set at bind).
        self.tier_budgets: list[int] | None = None
        self._bound = None
        self._slices: list[tuple[int, int]] | None = None
        self._strong: tuple[int, int] | None = None

    # -- binding ---------------------------------------------------------

    def bind(self, copies, strong_noise_scale: float) -> None:
        """Resolve tier/strong copy-group slices against one manager.

        A grouped manager (``CopyManager.grouped``) must carry exactly
        ``len(tiers) + 1`` groups (tiers in order, strong last) whose
        sizes match the tier specs.  A homogeneous manager is
        partitioned from the front — tier copies first, the remainder
        is the strong group — which is what lets
        ``api.ingest(discipline="dp-diff")`` install a ladder on any
        switching estimator (no space win then, but the budget win
        stands).

        One ladder belongs to one estimator: its checkpoint/base/budget
        state is coordinator state of that estimator's stream, so
        binding a second copy manager is rejected (mirroring the
        discipline-level not-shareable guard).  No state is committed
        until validation succeeds, so a failed bind leaves the ladder
        reusable against a corrected manager.
        """
        bound = getattr(self, "_bound", None)
        if bound is not None and bound is not copies:
            raise ValueError(
                "DifferenceLadder is already bound to another estimator's "
                "copies; ladders are not shareable — build one per "
                "estimator"
            )
        slices = list(copies.group_slices)
        want = [t.copies for t in self.tiers]
        if len(slices) == len(self.tiers) + 1:
            got = [hi - lo for lo, hi in slices[:-1]]
            if got != want:
                raise ValueError(
                    f"copy-group sizes {got} do not match the ladder's "
                    f"tier sizes {want}"
                )
            tier_slices = slices[:-1]
            strong = slices[-1]
        elif len(slices) == 1:
            start = 0
            tier_slices = []
            for t in self.tiers:
                tier_slices.append((start, start + t.copies))
                start += t.copies
            if start >= copies.count:
                raise ValueError(
                    f"ladder tiers need {start} copies plus a non-empty "
                    f"strong group; the manager only has {copies.count}"
                )
            strong = (start, copies.count)
        else:
            raise ValueError(
                f"copy manager has {len(slices)} groups; a "
                f"{len(self.tiers)}-tier ladder needs {len(self.tiers) + 1} "
                f"(tiers in order, strong last) or one homogeneous group"
            )
        self._bound = copies
        self._slices = tier_slices
        self._strong = strong
        self.tier_budgets = [
            t.budget if t.budget is not None
            else t.copies * t.copies * max(
                1, round((t.noise_scale / strong_noise_scale) ** 2)
            )
            for t in self.tiers
        ]

    @property
    def _telemetry(self):
        """The bound manager's telemetry hub (no-op until bind)."""
        bound = getattr(self, "_bound", None)
        return bound.telemetry if bound is not None else NULL_TELEMETRY

    @property
    def strong_slice(self) -> tuple[int, int]:
        if self._strong is None:
            raise RuntimeError("DifferenceLadder used before bind()")
        return self._strong

    @property
    def strong_count(self) -> int:
        lo, hi = self.strong_slice
        return hi - lo

    def tier_slice(self, level: int) -> tuple[int, int]:
        if self._slices is None:
            raise RuntimeError("DifferenceLadder used before bind()")
        return self._slices[level]

    # -- publication bookkeeping -----------------------------------------

    def anchor(self, checkpoint: float, tier_medians) -> None:
        """Open a new checkpoint window from a strong publication."""
        self.checkpoint = float(checkpoint)
        self.bases = [float(m) for m in tier_medians]
        self.window_spent = [0] * len(self.tiers)
        self.checkpoints += 1
        self.level = 0
        tele = self._telemetry
        if tele.enabled:
            tele.emit(LadderAnchorEvent(
                checkpoint=self.checkpoint, checkpoints=self.checkpoints,
            ))
            tele.metrics.counter(
                "ladder_anchors_total", "checkpoint windows opened"
            ).inc()

    def invalidate(self) -> None:
        """Full copy-set refresh: all anchors are stale; re-checkpoint."""
        tele = self._telemetry
        if tele.enabled:
            tele.emit(LadderInvalidateEvent(
                checkpoint=float(self.checkpoint or 0.0),
            ))
        self.level = STRONG
        self.checkpoint = None
        self.bases = [0.0] * len(self.tiers)
        self.window_spent = [0] * len(self.tiers)
        self.tier_spent = [0] * len(self.tiers)

    def charge_tier(self, level: int, diff: float) -> bool:
        """Account one publication answered at ``level``.

        Applies the promotion rules (band-share span and per-window
        capacity) and the tier's lifetime budget.  Returns True when the
        tier's budget is exhausted — the caller must refresh the tier's
        copy group, after which the ladder already points at STRONG (the
        reborn tier's base is meaningless until re-anchored).
        """
        tier = self.tiers[level]
        self.window_spent[level] += 1
        self.tier_spent[level] += 1
        if self.tier_spent[level] >= self.tier_budgets[level]:
            self.tier_spent[level] = 0
            self.tier_generations[level] += 1
            self.level = STRONG
            self._emit_promote(level, STRONG, "budget")
            return True
        scale = max(abs(self.checkpoint or 0.0), self.span_scale_floor)
        over_span = abs(diff) > tier.span * scale
        if over_span or self.window_spent[level] >= tier.capacity:
            nxt = level + 1
            self.level = nxt if nxt < len(self.tiers) else STRONG
            self._emit_promote(level, self.level,
                               "span" if over_span else "capacity")
        return False

    def _emit_promote(self, from_level, to_level, reason: str) -> None:
        tele = self._telemetry
        if tele.enabled:
            tele.emit(LadderPromoteEvent(
                from_level="strong" if from_level is STRONG else from_level,
                to_level="strong" if to_level is STRONG else to_level,
                reason=reason,
            ))
            tele.metrics.counter(
                "ladder_promotions_total", "tier handoffs by reason"
            ).inc()

    def state(self) -> dict:
        """Introspection payload folded into the discipline's budget dict."""
        return {
            "level": "strong" if self.level is STRONG else self.level,
            "checkpoints": self.checkpoints,
            "tier_copies": [t.copies for t in self.tiers],
            "tier_capacities": [t.capacity for t in self.tiers],
            "tier_budgets": list(self.tier_budgets or []),
            "tier_publications": list(self.tier_spent),
            "tier_generations": list(self.tier_generations),
        }


def default_difference_ladder() -> DifferenceLadder:
    """The stock two-tier geometric ladder.

    Tier 0 (cheapest, noisiest) serves small differences — up to 35% of
    the checkpoint value and 8 publications per window; tier 1 doubles
    the span at half the capacity and half the noise.  Past it, the
    strong group re-checkpoints.  Sized so a homogeneous copy set of
    ~10+ copies can host it (6 tier copies + the strong remainder).
    """
    return DifferenceLadder([
        LadderTier(copies=3, noise_scale=0.10, capacity=8, span=0.35),
        LadderTier(copies=3, noise_scale=0.05, capacity=4, span=0.70),
    ])
