"""Execution engine: planned multi-copy ingestion.

Sketch switching's robustness budget is paid in *copies* — many
independent instances of a static sketch, every one fed every update —
and since the band-policy refactor the same is true of every robustness
scheme in the repo: multiplicative (F0/Fp/L2), additive (entropy), and
the heavy-hitters epoch construction all drive the one switching
protocol in :mod:`repro.core.sketch_switching`.  This package turns that
multiplied work into a sharded execution plan:

* :mod:`repro.engine.shards` — decide the decomposition (per-copy for
  switching estimators under *any* :class:`~repro.core.bands.BandPolicy`,
  an epoch plan for the heavy-hitters wrapper, per-partial for mergeable
  sketches, explicit serial fallback otherwise) and the shared-work
  hoists it licenses;
* :mod:`repro.engine.executor` — run the plan on this process
  (:class:`SerialEngine`), or fork it across workers over shared-memory
  chunk buffers (:class:`ProcessEngine`: the heavy-hitters epoch ring
  and merge partials; switching plans open the serial session), all
  bit-for-bit equivalent to the serial batched path for exact-state
  sketches;
* :mod:`repro.engine.prefetch` — double-buffered chunk prefetching that
  overlaps chunk generation / disk reads with ingestion.

Entry points: ``api.ingest(..., engine="process:4", prefetch=2)``, the
experiment runners' ``engine=`` parameter, or driving an
:class:`IngestSession` directly.  The adversarial game never uses an
engine — adaptivity requires per-item round granularity.
"""

from repro.engine.executor import (
    DEFAULT_CHUNK_CAPACITY,
    EngineError,
    ExecutionEngine,
    IngestSession,
    ProcessEngine,
    SerialEngine,
    fork_available,
    resolve_engine,
)
from repro.engine.prefetch import DEFAULT_DEPTH, prefetch_chunks
from repro.engine.shards import (
    CopyHoists,
    EpochShardPlan,
    MergeShardPlan,
    SeenFilter,
    SerialPlan,
    SwitchingShardPlan,
    partition_copies,
    plan_shards,
)

__all__ = [
    "CopyHoists",
    "DEFAULT_CHUNK_CAPACITY",
    "DEFAULT_DEPTH",
    "EngineError",
    "EpochShardPlan",
    "ExecutionEngine",
    "IngestSession",
    "MergeShardPlan",
    "ProcessEngine",
    "SeenFilter",
    "SerialEngine",
    "SerialPlan",
    "SwitchingShardPlan",
    "fork_available",
    "partition_copies",
    "plan_shards",
    "prefetch_chunks",
    "resolve_engine",
]
