"""High-level facade: one entry point per streaming problem.

``robust_estimator(problem, ...)`` builds the paper's recommended robust
algorithm for each problem with sensible defaults, so downstream users
don't need to know which theorem applies:

====================  =============================  ==================
problem               algorithm                      paper
====================  =============================  ==================
"distinct"            sketch switching over KMV      Theorem 5.1
"distinct-fast"       computation paths over Alg 2   Theorem 5.4
"distinct-crypto"     PRP preprocessing              Theorem 10.1
"distinct-dp"         DP aggregate over KMV copies   Hassidim et al. '20
"distinct-dpde"       DP difference ladder over KMV  Attias et al. '22
"fp"                  switching over p-stable        Theorem 4.1
"fp-small-delta"      computation paths, p-stable    Theorem 4.2
"fp-high"             computation paths, level sets  Theorem 4.4
"f2-dp"               DP aggregate over p-stable     Hassidim et al. '20
"f2-dpde"             DP difference ladder, p-stable Attias et al. '22
"heavy-hitters"       epoch-frozen CountSketch ring  Theorem 6.5
"entropy"             additive switching over CC     Theorem 7.3
"bounded-deletion"    computation paths, turnstile   Theorem 8.3
====================  =============================  ==================

Every estimator satisfies the :class:`repro.sketches.base.Sketch`
contract (``process_update`` / ``query`` / ``space_bits``), including the
batched ``update_batch`` surface; :func:`ingest` is the convenience
front-end that replays any stream representation through the vectorized
pipeline — optionally through the parallel execution engine
(``engine="process:4"``) and with double-buffered chunk prefetching
(``prefetch=2``) — and reports throughput.
"""

from __future__ import annotations

import contextlib
import pathlib
import time
from dataclasses import dataclass

import numpy as np

from repro.core.disciplines import resolve_discipline
from repro.engine.executor import resolve_engine
from repro.engine.prefetch import prefetch_chunks
from repro.engine.shards import EpochShardPlan, SwitchingShardPlan, plan_shards
from repro.obs import NULL_TELEMETRY, PlannerFallbackEvent, resolve_telemetry
from repro.robust.bounded_deletion import RobustBoundedDeletionFp
from repro.robust.crypto_distinct import CryptoRobustDistinctElements
from repro.robust.dp import (
    RobustDPDEDistinctElements,
    RobustDPDEF2,
    RobustDPDistinctElements,
    RobustDPF2,
)
from repro.robust.distinct import (
    FastRobustDistinctElements,
    RobustDistinctElements,
)
from repro.robust.entropy import RobustEntropy
from repro.robust.heavy_hitters import RobustHeavyHitters
from repro.robust.moments import (
    RobustFpHigh,
    RobustFpPaths,
    RobustFpSwitching,
)
from repro.sketches.base import Sketch
from repro.streams.model import StreamParameters, chunk_updates
from repro.streams.sources import ChunkSource, as_chunk_source
from repro.streams.store import StreamWriter

#: Reentrant no-op context for the untraced ingest path.
_NOOP_CTX = contextlib.nullcontext()

PROBLEMS = (
    "distinct",
    "distinct-fast",
    "distinct-crypto",
    "distinct-dp",
    "distinct-dpde",
    "fp",
    "fp-small-delta",
    "fp-high",
    "f2-dp",
    "f2-dpde",
    "heavy-hitters",
    "entropy",
    "bounded-deletion",
)


def robust_estimator(
    problem: str,
    n: int,
    m: int,
    eps: float,
    seed: int = 0,
    p: float = 2.0,
    alpha: float = 4.0,
    delta: float = 0.05,
    **kwargs,
) -> Sketch:
    """Build the adversarially robust estimator for ``problem``.

    Parameters
    ----------
    problem:
        One of :data:`PROBLEMS`.
    n, m:
        Universe size and stream-length bound (drive the flip budgets).
    eps:
        Approximation parameter ((1 ± eps) multiplicative, or additive
        eps bits for "entropy").
    seed:
        Seeds all internal randomness (reproducible).
    p:
        Moment order for the Fp problems.
    alpha:
        Deletion bound for "bounded-deletion".
    delta:
        Target failure probability.
    kwargs:
        Forwarded to the underlying constructor (expert knobs such as
        ``copies`` or ``stable_constant``).
    """
    rng = np.random.default_rng(seed)
    if problem == "distinct":
        return RobustDistinctElements(n=n, m=m, eps=eps, rng=rng,
                                      delta=delta, **kwargs)
    if problem == "distinct-fast":
        return FastRobustDistinctElements(n=n, m=m, eps=eps, rng=rng,
                                          delta=delta, **kwargs)
    if problem == "distinct-crypto":
        return CryptoRobustDistinctElements(n=n, eps=eps, rng=rng,
                                            delta=delta, **kwargs)
    if problem == "distinct-dp":
        return RobustDPDistinctElements(n=n, m=m, eps=eps, rng=rng,
                                        delta=delta, **kwargs)
    if problem == "distinct-dpde":
        return RobustDPDEDistinctElements(n=n, m=m, eps=eps, rng=rng,
                                          delta=delta, **kwargs)
    if problem == "f2-dp":
        return RobustDPF2(n=n, m=m, eps=eps, rng=rng, delta=delta, **kwargs)
    if problem == "f2-dpde":
        return RobustDPDEF2(n=n, m=m, eps=eps, rng=rng, delta=delta,
                            **kwargs)
    if problem == "fp":
        if p > 2:
            raise ValueError("use problem='fp-high' for p > 2")
        return RobustFpSwitching(p=p, n=n, m=m, eps=eps, rng=rng,
                                 delta=delta, **kwargs)
    if problem == "fp-small-delta":
        if p > 2:
            raise ValueError("use problem='fp-high' for p > 2")
        return RobustFpPaths(p=p, n=n, m=m, eps=eps, rng=rng,
                             delta=delta, **kwargs)
    if problem == "fp-high":
        if p <= 2:
            raise ValueError("fp-high requires p > 2")
        return RobustFpHigh(p=p, n=n, m=m, eps=eps, rng=rng,
                            delta=delta, **kwargs)
    if problem == "heavy-hitters":
        return RobustHeavyHitters(n=n, m=m, eps=eps, rng=rng,
                                  delta=delta, **kwargs)
    if problem == "entropy":
        return RobustEntropy(n=n, m=m, eps=eps, rng=rng,
                             delta=delta, **kwargs)
    if problem == "bounded-deletion":
        return RobustBoundedDeletionFp(p=min(p, 2.0), n=n, m=m, eps=eps,
                                       alpha=alpha, rng=rng, delta=delta,
                                       **kwargs)
    raise ValueError(
        f"unknown problem {problem!r}; choose from {PROBLEMS}"
    )


@dataclass(frozen=True)
class IngestReport:
    """What :func:`ingest` observed while replaying a stream."""

    updates: int
    chunks: int
    seconds: float
    items_per_sec: float
    final_estimate: float
    #: Execution mode: "direct" (plain update_batch), "serial" (engine
    #: shared-work path), or "process[N]" (N forked workers — only the
    #: heavy-hitters epoch ring and merge sessions fork; switching
    #: estimators under a process engine report "serial").
    mode: str = "direct"
    #: Band-policy name driving the estimator's switching protocol
    #: ("multiplicative", "additive", "epoch"), or None when the
    #: estimator has no switching core.
    policy: str | None = None
    #: Probe-discipline name driving the switching protocol
    #: ("active-copy", "private-aggregate"), or None without one.
    discipline: str | None = None
    #: Sparse-vector budget state after the replay (publications, spent,
    #: remaining, generations) — only for budgeted disciplines (DP).
    dp_budget: dict | None = None
    #: Why the planner fell back to plain serial feeding, if it did
    #: (engine paths only; the direct path never plans).
    fallback_reason: str | None = None
    #: Cumulative per-phase wall-clock seconds of the switching protocol
    #: — engine sessions with a switching core only; None on the direct
    #: path and for sessions without a protocol.  Coordinator-side keys:
    #: "probe" (probing the discipline's read set), "band_test"
    #: (boundary band decisions), "feed" (non-probed fan-out feeds),
    #: "replace" (publication bookkeeping and copy replacement).  A
    #: heavy-hitters session whose ring ran on ProcessEngine workers adds
    #: the workers' totals, summed across workers, under separate keys —
    #: "worker_feed" and "worker_replace": the ring's feeds are
    #: fire-and-forget, so that is where their work shows up.
    phase_seconds: dict | None = None
    #: How a ``source=`` chunk source was executed — "universe" (serial
    #: counts-based fast path) or "bytes: <reason>" (the ordinary
    #: staged-bytes path, with the planner's reason) — or None when no
    #: chunk source drove the replay.
    source_mode: str | None = None
    #: Merged telemetry snapshot (metric values, event counts by kind,
    #: span count) when :func:`ingest` ran with ``telemetry=`` enabled;
    #: None otherwise.  See :mod:`repro.obs`.
    telemetry: dict | None = None
    #: Directory the replay was teed into (``spill_store=``), if any.
    spill_path: str | None = None


def band_policy_name(estimator: Sketch) -> str | None:
    """The band-policy name an estimator's switching core runs under.

    Derived from the engine's shard planner — the one place that knows
    how to unwrap robust wrappers — so the reported policy can never
    disagree with how the engines would actually drive the estimator;
    estimators the planner runs serially (no switching core) return
    None.
    """
    plan = plan_shards(estimator)
    if isinstance(plan, SwitchingShardPlan):
        return plan.band.name
    if isinstance(plan, EpochShardPlan):
        return "epoch"
    return None


def _unwrap_switcher(estimator: Sketch):
    """The switching core the planner would drive, or None."""
    plan = plan_shards(estimator)
    if isinstance(plan, SwitchingShardPlan):
        return plan.switcher
    return None


def install_telemetry(estimator: Sketch, telemetry) -> bool:
    """Bind a :class:`repro.obs.Telemetry` hub to an estimator's copies.

    The :class:`~repro.core.copies.CopyManager` is the telemetry hub the
    switching core, the probe disciplines, and the difference ladder all
    read through, so binding there lights up every instrumented site at
    once.  Unwraps through the shard planner exactly like
    :func:`band_policy_name`; for the heavy-hitters epoch plan both the
    inner L2 copies and the point-query ring are bound.  Returns True if
    anything was bound — estimators the planner runs serially have no
    switching core and report False (metrics/spans from :func:`ingest`
    itself still work; there are just no protocol events to emit).
    """
    plan = plan_shards(estimator)
    if isinstance(plan, SwitchingShardPlan):
        plan.switcher._copies.telemetry = telemetry
        return True
    if isinstance(plan, EpochShardPlan):
        plan.l2_plan.switcher._copies.telemetry = telemetry
        plan.ring.telemetry = telemetry
        return True
    return False


def discipline_state(estimator: Sketch) -> tuple[str | None, dict | None]:
    """(discipline name, budget state) of an estimator's switching core.

    Unwraps through the shard planner like :func:`band_policy_name`;
    estimators without a switching core — including the heavy-hitters
    epoch wrapper, whose inner L2 tracker always runs active-copy —
    report ``(None, None)``.
    """
    switcher = _unwrap_switcher(estimator)
    if switcher is None:
        return None, None
    return switcher.discipline.name, switcher.discipline.budget_state()


def ingest(
    estimator: Sketch,
    stream=None,
    chunk_size: int = 65536,
    engine=None,
    prefetch: int = 0,
    discipline=None,
    telemetry=None,
    spill_store=None,
    spill_params: StreamParameters | None = None,
    source=None,
) -> IngestReport:
    """Replay an **oblivious** stream through the batched pipeline.

    ``stream`` may be a plain item sequence, ``(item, delta)`` pairs,
    ``Update`` tuples, a ``StreamChunk``, an iterable of chunks (the
    array-native generators in :mod:`repro.streams.generators`), or a
    :class:`repro.streams.store.ColumnarStreamStore` replayed zero-copy.
    A ``str``/``Path`` ``stream`` is taken as ``source=`` (below): it
    opens as a store or raises.  Updates are sliced into ``chunk_size``-sized chunks and fed through
    ``update_batch``, which every estimator supports (vectorized for the
    hot sketches, loop fallback otherwise).

    ``engine`` selects the execution engine (``None`` for the direct
    path, ``"serial"``, ``"process"``, ``"process:N"``, a worker count,
    or an :class:`repro.engine.ExecutionEngine`): switching estimators —
    multiplicative or additive (entropy) — fan each chunk out to their
    copies on this process under every engine, the heavy-hitters epoch
    wrapper shards its point-query ring across process workers,
    mergeable sketches shard per partial, and everything else falls back
    to the deterministic serial path with identical outputs.  ``prefetch`` (a queue depth;
    ``2`` = double buffering) overlaps chunk generation or disk reads
    with ingestion.

    ``discipline`` installs a probe discipline on the estimator's
    switching core before the replay (``"active"``, ``"private"``/
    ``"dp"``, ``"dp-diff"``/``"difference"``, or a
    :class:`repro.core.disciplines.ProbeDiscipline` instance): the DP
    private-aggregate discipline publishes a noisy median over all
    copies under a sparse-vector budget instead of burning the active
    copy, and the difference-ladder discipline answers most
    publications from cheap difference-estimator tiers (partitioned off
    the front of the copy set) so the strong sparse-vector budget is
    charged only at checkpoints.  Requires a fresh estimator whose
    planner resolves to a switching core; the report's ``discipline``
    and ``dp_budget`` fields record what ran and what the budget looked
    like afterwards.

    ``telemetry`` turns on the observability subsystem for this replay
    (see :mod:`repro.obs`): pass ``True``/``"ring"`` for an in-memory
    ring of trace events, ``"jsonl:PATH"`` (or any ``*.jsonl`` path) to
    stream events to a JSONL trace file readable by ``repro trace``,
    ``"metrics"`` for counters/histograms only, a callable to receive
    each event, or a pre-built :class:`repro.obs.Telemetry`.  The hub is
    bound to the estimator's switching core via
    :func:`install_telemetry`, threaded through the prefetcher and the
    execution engine (ProcessEngine ring workers buffer events and span
    timings locally and ship them back at collection), and the merged
    snapshot lands in ``IngestReport.telemetry``.  Telemetry observes —
    it never draws randomness or touches protocol state — so outputs
    are bit-for-bit identical with it on or off.

    ``spill_store`` tees the replay into a columnar on-disk store at the
    given directory while feeding the estimator: every chunk drawn from
    the source is appended through a
    :class:`repro.streams.store.StreamWriter` before it is ingested, and
    the header is sealed even if ingestion fails mid-stream — so a
    generated (or otherwise ephemeral) stream becomes replayable as a
    side effect.  ``spill_params`` embeds the ``(n, m, M)`` regime in
    the header; when the source itself is a store, its params carry over
    by default.

    ``source`` (mutually exclusive with ``stream``) replays a
    :class:`repro.streams.sources.ChunkSource` — a seeded generator, or
    a store row range — or a store (path or
    :class:`~repro.streams.store.ColumnarStreamStore`); a path that does
    not open as a store raises.  Chunks are materialized on this process
    and fed like any other stream.  Switching sessions — under either
    engine — use the source's declared item universe for the
    counts-based fast path when the copy set licenses it; every other
    session (epoch, merge, plain), ad-hoc iterables passed as ``source``
    and any replay teeing through ``spill_store`` take the ordinary
    bytes path.
    ``IngestReport.source_mode`` records which path ran and why.
    Applies to oblivious replay only, like the rest of this surface.

    This is the high-throughput replay surface only: adaptive adversaries
    must go through :class:`repro.adversary.game.AdversarialGame`, which
    keeps per-update round granularity by design.
    """
    if stream is not None and source is not None:
        raise ValueError("pass either stream= or source=, not both")
    if stream is None and source is None:
        raise ValueError("ingest needs a stream= or a source=")
    if isinstance(stream, (ChunkSource, str, pathlib.Path)):
        # A ChunkSource or a store path in stream position is a source:
        # a path opens as a store or raises, never replays its characters.
        source, stream = stream, None
    src = None
    src_reason = None
    if source is not None:
        src = as_chunk_source(source, chunk_size)
        if src is None:
            # Ad-hoc iterable: replay it as a plain stream.
            stream = source
            src_reason = (
                f"{type(source).__name__} is not a chunk source; "
                "shipping bytes"
            )
        elif spill_store is not None:
            # The tee needs every chunk as staged bytes.
            src_reason = "spill_store tees every chunk; shipping bytes"
    resolved = resolve_engine(engine)
    wanted = resolve_discipline(discipline)
    if wanted is not None:
        switcher = _unwrap_switcher(estimator)
        if switcher is None:
            raise ValueError(
                f"{type(estimator).__name__} has no switching core to "
                f"apply a probe discipline to"
            )
        switcher.set_discipline(wanted)
    tele = resolve_telemetry(telemetry)
    if tele is None:
        tele = NULL_TELEMETRY
    else:
        # Bind the hub *after* any discipline swap so the installed
        # discipline is the one that gets observed.
        install_telemetry(estimator, tele)
    if spill_params is None and stream is not None:
        spill_params = getattr(stream, "params", None)

    def make_chunk_iter():
        # Built lazily, once a session has opened, so a failed session
        # open leaves no prefetch producer behind.
        if src is not None:
            chunk_iter = src.chunks()
        elif hasattr(stream, "chunks") and not isinstance(stream, Sketch):
            # Chunked sources (ColumnarStreamStore) slice themselves.
            chunk_iter = stream.chunks(chunk_size)
        else:
            chunk_iter = chunk_updates(stream, chunk_size)
        if prefetch:
            chunk_iter = prefetch_chunks(chunk_iter, depth=prefetch,
                                         telemetry=tele)
        return chunk_iter

    writer = None
    if spill_store is not None:
        writer = StreamWriter(
            spill_store, params=spill_params,
            metadata={"source": "api.ingest", "chunk_size": chunk_size},
        )
    count = 0
    chunks = 0

    def replay(feed):
        nonlocal count, chunks
        for chunk in make_chunk_iter():
            if writer is not None:
                writer.append(chunk.items, chunk.deltas)
            feed(chunk.items, chunk.deltas)
            if traced:
                chunk_sizes.observe(len(chunk))
            count += len(chunk)
            chunks += 1

    def traced_update_batch(items, deltas):
        with tele.span("chunk"):
            estimator.update_batch(items, deltas)

    mode = "direct"
    policy = None
    fallback = None
    phases = None
    traced = tele.enabled
    chunk_sizes = (
        tele.metrics.histogram(
            "ingest_chunk_updates", "updates per ingested chunk"
        ) if traced else None
    )
    source_mode = None
    start = time.perf_counter()
    try:
        with tele.span("ingest") if traced else _NOOP_CTX:
            if resolved is None:
                # Direct path: no session planned the estimator, so
                # resolve the policy name from the planner ourselves.
                policy = band_policy_name(estimator)
                if src is not None or src_reason is not None:
                    source_mode = "bytes: " + (
                        src_reason
                        or "direct path has no engine session; shipping bytes"
                    )
                replay(traced_update_batch if traced
                       else estimator.update_batch)
            else:
                session_src = src if src_reason is None else None
                with resolved.session(estimator, source=session_src) as session:
                    mode = session.mode
                    policy = session.policy
                    fallback = session.fallback_reason
                    source_mode = session.source_mode
                    if src_reason is not None:
                        source_mode = f"bytes: {src_reason}"
                    replay(session.feed)
                # Read after the session has finalized: ProcessEngine
                # worker phase timings only exist once collect() merged
                # them on session exit.
                phases = session.phase_seconds
                if traced and fallback is not None:
                    tele.emit(PlannerFallbackEvent(reason=fallback))
                    tele.metrics.counter(
                        "planner_fallbacks_total",
                        "engine sessions that fell back to serial feeding",
                    ).inc()
    finally:
        if writer is not None:
            writer.close()
    secs = time.perf_counter() - start
    if traced:
        tele.metrics.counter(
            "ingest_updates_total", "stream updates replayed"
        ).inc(count)
        tele.metrics.counter(
            "ingest_chunks_total", "stream chunks replayed"
        ).inc(chunks)
    disc_name, budget = discipline_state(estimator)
    return IngestReport(
        updates=count,
        chunks=chunks,
        seconds=secs,
        items_per_sec=count / secs if secs > 0 else 0.0,
        final_estimate=estimator.query(),
        mode=mode,
        policy=policy,
        discipline=disc_name,
        dp_budget=budget,
        fallback_reason=fallback,
        phase_seconds=phases,
        source_mode=source_mode,
        telemetry=tele.snapshot() if traced else None,
        spill_path=None if spill_store is None else str(writer.path),
    )
