"""The paper's contribution: flip numbers, rounding, and the two frameworks.

The switching framework is layered: :mod:`repro.core.bands` owns the
publish-band policies (multiplicative, additive, epoch),
:mod:`repro.core.copies` the copy lifecycle (allocation, burn, restart
ring, retirement), :mod:`repro.core.disciplines` the probe disciplines
(active-copy probe-and-burn vs the DP private aggregate over all
copies), and :mod:`repro.core.sketch_switching` composes them into the
one switching protocol every robust wrapper and execution engine drives.
"""

from repro.core.bands import (
    AdditiveBand,
    BandPolicy,
    EpochBand,
    MultiplicativeBand,
    relative_within,
)
from repro.core.computation_paths import (
    ComputationPathsEstimator,
    paths_log2_count,
    required_delta0,
    required_log2_delta0,
)
from repro.core.flip_number import (
    bounded_deletion_flip_number_bound,
    cascaded_norm_flip_number_bound,
    entropy_flip_number_bound,
    flip_number_dp,
    fp_flip_number_bound,
    greedy_flip_lower_bound,
    lp_norm_flip_number_bound,
    measured_flip_number,
    monotone_flip_number_bound,
)
from repro.core.copies import CopyManager, LocalCopyBackend
from repro.core.disciplines import (
    ActiveCopyDiscipline,
    DifferenceAggregateDiscipline,
    PrivacyBudgetExhaustedError,
    PrivateAggregateDiscipline,
    ProbeDiscipline,
    default_switch_budget,
    dp_copy_count,
    resolve_discipline,
)
from repro.core.ladder import (
    DifferenceLadder,
    LadderTier,
    default_difference_ladder,
)
from repro.core.rounding import RoundedSequence, num_rounded_values, round_to_power
from repro.core.sketch_switching import (
    SketchExhaustedError,
    SwitchingEstimator,
    SwitchingProtocol,
    restart_ring_size,
)
from repro.core.tracking import MedianTracker, median_copies, union_bound_delta

__all__ = [
    "ActiveCopyDiscipline",
    "AdditiveBand",
    "BandPolicy",
    "CopyManager",
    "DifferenceAggregateDiscipline",
    "DifferenceLadder",
    "LadderTier",
    "default_difference_ladder",
    "PrivacyBudgetExhaustedError",
    "PrivateAggregateDiscipline",
    "ProbeDiscipline",
    "default_switch_budget",
    "dp_copy_count",
    "resolve_discipline",
    "EpochBand",
    "LocalCopyBackend",
    "MultiplicativeBand",
    "SwitchingEstimator",
    "SwitchingProtocol",
    "relative_within",
    "ComputationPathsEstimator",
    "paths_log2_count",
    "required_delta0",
    "required_log2_delta0",
    "bounded_deletion_flip_number_bound",
    "cascaded_norm_flip_number_bound",
    "entropy_flip_number_bound",
    "flip_number_dp",
    "fp_flip_number_bound",
    "greedy_flip_lower_bound",
    "lp_norm_flip_number_bound",
    "measured_flip_number",
    "monotone_flip_number_bound",
    "RoundedSequence",
    "num_rounded_values",
    "round_to_power",
    "SketchExhaustedError",
    "restart_ring_size",
    "MedianTracker",
    "median_copies",
    "union_bound_delta",
]
