"""The benchmark's workloads: inputs, exact truth, references and timed passes.

A *pass* replays one fixed amount of work from a fresh estimator: set
up (estimator construction + engine session open), then every timed
call, then session exit.  A run repeats passes over the same seeded
inputs until its time is up, so every pass of a run must publish the
same final digest, and that digest must equal the reference recorded
beforehand from an independent path: direct ``update_batch`` for the
replay workloads; for the game, ``update`` + ``query`` per round, whose
transcript must also replay identically through ``update_batch`` chunks.

Only public surfaces are timed: ``resolve_engine(spec).session(...)``,
``IngestSession.feed``, session exit, ``ChunkSource.chunks()`` and
``Sketch.process_update``.  Truth, guarantee checks and digests are
computed outside every timer.
"""

from __future__ import annotations

import gc
import hashlib
import os
import sys
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro.adversary.attacks import EstimateProbingAdversary
from repro.core.bands import MultiplicativeBand
from repro.core.disciplines import PrivateAggregateDiscipline
from repro.core.sketch_switching import SwitchingEstimator
from repro.engine.executor import resolve_engine
from repro.robust.distinct import RobustDistinctElements
from repro.sketches.countsketch import CountSketch
from repro.streams.generators import zipfian_stream_chunks
from repro.streams.sources import GeneratorChunkSource

from tracing import NULL_TRACER

# -- F2 under the DP private-aggregate discipline (stacked CountSketch) --
F2_N = 256
F2_ITEMS = 4_000_000
F2_CHUNK = 8192
F2_COPIES = 24
F2_WIDTH = 256
F2_ROWS = 5
F2_EPS = 0.9
F2_NOISE = 0.01
F2_EST_SEED = 42

# -- Theorem 5.1 distinct elements (KMV copies + restart ring) ----------
F0_N = 1 << 20
F0_EPS = 0.25
F0_EST_SEED = 7
KMV_ZIPF = 1.1
KMV_CHUNK = 4096
KMV_CHUNKS = 64
GAME_ROUNDS = 8000
GAME_REPLAY_CHUNK = 256

PROCESS_WORKERS = min(2, os.cpu_count() or 1)


def _f2_estimator() -> SwitchingEstimator:
    return SwitchingEstimator(
        factory=lambda rng: CountSketch(
            F2_WIDTH, F2_ROWS, rng, track_candidates=0
        ),
        copies=F2_COPIES,
        rng=np.random.default_rng(F2_EST_SEED),
        band=MultiplicativeBand(F2_EPS),
        discipline=PrivateAggregateDiscipline(noise_scale=F2_NOISE),
        stacked=True,
    )


def _f0_estimator(m: int) -> RobustDistinctElements:
    return RobustDistinctElements(
        n=F0_N, m=m, eps=F0_EPS, rng=np.random.default_rng(F0_EST_SEED)
    )


def _budget(est) -> dict | None:
    discipline = getattr(est, "discipline", None)
    return discipline.budget_state() if discipline is not None else None


def _in_guarantee(published: float, truth: float, eps: float) -> bool:
    return abs(published - truth) <= eps * truth


@dataclass
class Inputs:
    """Everything a pass needs, built from the seed before any timer."""

    seed: int
    calls: int
    items: int
    truth: np.ndarray
    source: GeneratorChunkSource | None = None
    chunks: list | None = None

    def chunk_iter(self):
        return iter(self.source.chunks() if self.source is not None
                    else self.chunks)


@dataclass
class PassResult:
    """One pass: setup, per-call latencies and switch flags, digest."""

    setup_s: float
    wall_s: float
    items: int
    latencies: list = field(default_factory=list)
    switch_calls: list = field(default_factory=list)
    failed: int = 0
    digest: dict = field(default_factory=dict)
    phases: dict | None = None
    space_bits: int = 0
    labels: dict = field(default_factory=dict)


class ReplayWorkload:
    """Oblivious replay through one engine session, timed per chunk.

    Subclasses supply ``inputs(seed)``, ``estimator()`` and the guarantee
    ``eps``; ``open_with_source`` passes the chunk source to the session
    so serial engines can take the universe fast path.
    """

    eps: float

    def __init__(self, name: str, engine: str, open_with_source: bool):
        self.name = name
        self.engine = engine
        self.open_with_source = open_with_source

    def reference(self, inp: Inputs) -> dict:
        """The direct ``update_batch`` path over the same chunks."""
        est = self.estimator()
        published = []
        for chunk in inp.chunk_iter():
            est.update_batch(chunk.items, chunk.deltas)
            published.append(est.query())
        return _digest(est, published)

    def _open(self, inp: Inputs, tracer, call):
        with tracer.span("setup", call=call):
            with tracer.span("core.construct"):
                est = self.estimator()
            with tracer.span("engine.session_open"):
                session = resolve_engine(self.engine).session(
                    est, source=inp.source if self.open_with_source else None
                )
        return est, session

    def setup_only(self, inp: Inputs) -> float:
        gc.collect()
        start = perf_counter()
        _, session = self._open(inp, NULL_TRACER, None)
        elapsed = perf_counter() - start
        session.close()
        return elapsed

    def run_pass(self, inp: Inputs, tracer=NULL_TRACER, tag: int = 0):
        gc.collect()
        start = perf_counter()
        est, session = self._open(inp, tracer, f"{tag}:setup")
        setup = perf_counter() - start
        res = PassResult(setup_s=setup, wall_s=0.0, items=inp.items)
        res.labels = {
            "engine": self.engine,
            "session.mode": session.mode,
            "session.source_mode": session.source_mode,
        }
        truth, eps = inp.truth, self.eps
        latencies, flags = res.latencies, res.switch_calls
        published = []
        switches = est.switches
        try:
            chunks = inp.chunk_iter()
            for k in range(inp.calls):
                tick = perf_counter()
                with tracer.span("chunk", call=f"{tag}:{k}"):
                    with tracer.span("streams.next"):
                        chunk = next(chunks)
                    with tracer.span("engine.feed"):
                        session.feed(chunk.items, chunk.deltas)
                latencies.append(perf_counter() - tick)
                now = est.switches
                flags.append(now != switches)
                switches = now
                published.append(est.query())
                if not _in_guarantee(published[-1], truth[k], eps):
                    res.failed += 1
            tick = perf_counter()
            with tracer.span("engine.finalize", call=f"{tag}:finalize"):
                session.__exit__(None, None, None)
            res.wall_s = sum(latencies) + perf_counter() - tick
        except BaseException:
            session.__exit__(*sys.exc_info())
            raise
        res.phases = session.phase_seconds
        res.digest = _digest(est, published)
        res.space_bits = est.space_bits()
        return res


def _digest(est, published: list) -> dict:
    """Final published value, switches, DP budget, and a hash of the
    value published after every chunk."""
    transcript = hashlib.sha256(np.array(published, dtype=np.float64).tobytes())
    return {
        "published": float(est.query()).hex(),
        "switches": int(est.switches),
        "budget": _budget(est),
        "transcript": transcript.hexdigest(),
    }


class F2Workload(ReplayWorkload):
    eps = F2_EPS

    def inputs(self, seed: int) -> Inputs:
        source = GeneratorChunkSource(
            "uniform", n=F2_N, m=F2_ITEMS, seed=seed, chunk_size=F2_CHUNK
        )
        counts = np.zeros(F2_N, dtype=np.int64)
        truth = []
        for chunk in source.chunks():
            counts += np.bincount(chunk.items, minlength=F2_N)
            truth.append(float(int((counts * counts).sum())))
        return Inputs(seed, len(truth), F2_ITEMS, np.array(truth), source=source)

    def estimator(self):
        return _f2_estimator()


class KMVWorkload(ReplayWorkload):
    eps = F0_EPS

    def inputs(self, seed: int) -> Inputs:
        m = KMV_CHUNK * KMV_CHUNKS
        chunks = list(zipfian_stream_chunks(
            F0_N, m, np.random.default_rng(seed), s=KMV_ZIPF,
            chunk_size=KMV_CHUNK,
        ))
        seen = np.zeros(F0_N, dtype=bool)
        truth = []
        for chunk in chunks:
            seen[chunk.items] = True
            truth.append(float(np.count_nonzero(seen)))
        return Inputs(seed, len(chunks), m, np.array(truth), chunks=chunks)

    def estimator(self):
        return _f0_estimator(KMV_CHUNK * KMV_CHUNKS)


class GameWorkload:
    """The adaptive game: one closed-loop caller, one update per round."""

    name = "distinct-adaptive"
    eps = F0_EPS

    def inputs(self, seed: int) -> Inputs:
        # The adversary picks every update from the published answers, so
        # truth is computed inside the loop, outside each round's timer.
        return Inputs(seed, GAME_ROUNDS, GAME_ROUNDS, np.empty(0))

    def _adversary(self, seed: int) -> EstimateProbingAdversary:
        return EstimateProbingAdversary(n=F0_N, rng=np.random.default_rng(seed))

    def reference(self, inp: Inputs) -> dict:
        """The same game answered through ``update`` + ``query`` (the
        per-item path, not ``process_update``), cross-checked by replaying
        its transcript obliviously through ``update_batch`` chunks: every
        chunk must end on the response the game published there."""
        est = _f0_estimator(inp.calls)
        adv = self._adversary(inp.seed)
        items = np.empty(inp.calls, dtype=np.int64)
        responses = np.empty(inp.calls, dtype=np.float64)
        last = None
        for t in range(inp.calls):
            upd = adv.next_update(t, last)
            est.update(upd.item, upd.delta)
            last = est.query()
            adv.observe(t, last)
            items[t], responses[t] = upd.item, last
        digest = _game_digest(est, items, responses)
        replay = _f0_estimator(inp.calls)
        for lo in range(0, inp.calls, GAME_REPLAY_CHUNK):
            hi = min(lo + GAME_REPLAY_CHUNK, inp.calls)
            replay.update_batch(items[lo:hi])
            if replay.query() != responses[hi - 1]:
                raise RuntimeError(
                    f"chunked replay published {replay.query()!r} after "
                    f"round {hi - 1}; the per-item game published "
                    f"{responses[hi - 1]!r}"
                )
        if replay.switches != digest["switches"]:
            raise RuntimeError(
                f"chunked replay made {replay.switches} switches; the "
                f"per-item game made {digest['switches']}"
            )
        return digest

    def setup_only(self, inp: Inputs) -> float:
        gc.collect()
        start = perf_counter()
        _f0_estimator(inp.calls)
        return perf_counter() - start

    def run_pass(self, inp: Inputs, tracer=NULL_TRACER, tag: int = 0):
        gc.collect()
        start = perf_counter()
        with tracer.span("setup", call=f"{tag}:setup"):
            with tracer.span("core.construct"):
                est = _f0_estimator(inp.calls)
        setup = perf_counter() - start
        res = PassResult(setup_s=setup, wall_s=0.0, items=inp.calls)
        res.labels = {"engine": None, "session.mode": "per-item",
                      "session.source_mode": None}
        adv = self._adversary(inp.seed)
        seen = np.zeros(F0_N, dtype=bool)
        f0 = 0
        items = np.empty(inp.calls, dtype=np.int64)
        responses = np.empty(inp.calls, dtype=np.float64)
        latencies, flags = res.latencies, res.switch_calls
        switches = est.switches
        last = None
        for t in range(inp.calls):
            tick = perf_counter()
            with tracer.span("round", call=f"{tag}:{t}"):
                with tracer.span("adversary.next_update"):
                    upd = adv.next_update(t, last)
                with tracer.span("core.process_update"):
                    last = est.process_update(upd.item, upd.delta)
                with tracer.span("adversary.observe"):
                    adv.observe(t, last)
            latencies.append(perf_counter() - tick)
            now = est.switches
            flags.append(now != switches)
            switches = now
            if not seen[upd.item]:
                seen[upd.item] = True
                f0 += 1
            if not _in_guarantee(last, f0, self.eps):
                res.failed += 1
            items[t], responses[t] = upd.item, last
        res.wall_s = sum(latencies)
        res.digest = _game_digest(est, items, responses)
        res.space_bits = est.space_bits()
        return res


def _game_digest(est, items: np.ndarray, responses: np.ndarray) -> dict:
    transcript = hashlib.sha256(items.tobytes() + responses.tobytes())
    return {
        "published": float(est.query()).hex(),
        "switches": int(est.switches),
        "transcript": transcript.hexdigest(),
    }


#: Why each workload exists is recorded in BENCHMARK.json and, with the
#: layer-to-metric mapping, in layers.json.
WORKLOADS = {
    wl.name: wl for wl in (
        F2Workload("f2-dp-serial", "serial", open_with_source=True),
        F2Workload("f2-dp-process", f"process:{PROCESS_WORKERS}",
                   open_with_source=False),
        KMVWorkload("distinct-kmv", "serial", open_with_source=False),
        GameWorkload(),
    )
}
