"""PARALLEL — the execution-engine throughput gates, one test per row family.

Every family replays one oblivious stream through the engines and
asserts bit-for-bit equivalence (identical published outputs and switch
counts) and its speed gate.  Each family is its own test and emits its
own ``out/parallel_<family>.{txt,json}`` payload only once every assert
has passed, so a failed gate blanks only that family's rows.
Switching estimators run on :class:`SerialEngine` only: a
:class:`ProcessEngine` opens the same serial session for them.

Families, in run order:

* **engine** — the Theorem 5.1 robust KMV switching estimator over a
  1M-update uniform stream: the serial batched ``update_batch`` path
  (``pr1_serial_batched``, the baseline every ``speedup_vs_pr1`` column
  of this family divides by) and :class:`SerialEngine` with the shard
  plan's shared-work hoists (chunk deduped once, first-occurrence
  filtering over the duplicate-insensitive KMV copies).
* **entropy** — the Theorem 7.3 additive-band entropy tracker the same
  two ways; the hoist is chunk aggregation (the Clifford–Cosma copies
  consume a linear map of per-item delta sums).
  ``entropy_engine_serial`` must be >= ``MIN_PARALLEL_SPEEDUP`` over the
  batched path.
* **stacked** — one F2 switching estimator over k CountSketch copies
  under the DP aggregate discipline, per-object twin vs stacked copy
  groups (one ``(k, rows, width)`` block, every chunk hashed once for
  all planes); stacked must be >= ``MIN_STACKED_SPEEDUP`` over the twin.
* **traced** — the stacked run again with full telemetry (every event to
  a JSONL sink, ``out/trace_sample.jsonl``, plus the metrics registry):
  identical outputs, at most ``MAX_TELEMETRY_OVERHEAD`` throughput cost.
* **source** — the stacked run driven from a
  :class:`~repro.streams.sources.GeneratorChunkSource`: its promised item
  universe licenses the counts-based prepare fast path; the row
  ``stacked_spec_engine_serial`` must be >= ``MIN_SPEC_SPEEDUP`` over the
  stacked bytes row.
* **store** — a CountMin replay from a columnar store with double
  buffered prefetch, exact against in-memory ingestion.
* **merge** — per-partial merge sharding (CountMin across forked
  workers over shared-memory chunk buffers), exact against serial.

``benchmarks/check_regression.py`` gates CI on the ``speedup_vs_pr1``
columns against the committed ``BENCH_parallel.json``.
"""

import tempfile
import time

import numpy as np
import pytest

from repro.api import ingest, install_telemetry
from repro.core.bands import MultiplicativeBand
from repro.core.disciplines import PrivateAggregateDiscipline
from repro.core.sketch_switching import SwitchingEstimator
from repro.engine import ProcessEngine, SerialEngine, fork_available
from repro.obs import JsonlSink, Telemetry
from repro.robust.distinct import RobustDistinctElements
from repro.robust.entropy import RobustEntropy
from repro.sketches.countmin import CountMinSketch
from repro.sketches.countsketch import CountSketch
from repro.streams.frequency import FrequencyVector
from repro.streams.model import StreamChunk, StreamParameters
from repro.streams.sources import GeneratorChunkSource
from repro.streams.store import write_stream
from tables import OUT_DIR, emit, emit_json, format_row

N = 1 << 14
M = 1_000_000
CHUNK = 65536
EPS = 0.25
WORKERS = 4
WIDTHS = (30, 14, 10, 10, 10)
MIN_PARALLEL_SPEEDUP = 2.0

# Entropy (additive band) case: a small universe gives chunk aggregation
# — the hoist the engine adds for linear-map sketches — its headroom
# (65536-update chunks collapse to <= 256 distinct items), the long
# stream amortizes the one crossing-heavy ramp chunk that every path
# pays identically, and explicit copies/row constants keep the replay
# laptop-sized.
ENT_N = 1 << 8
ENT_M = 2_000_000
ENT_EPS = 0.6
ENT_COPIES = 24

# Stacked copy groups case: many copies of a small CountSketch make the
# per-copy Python dispatch the dominant cost on the object path, which
# is exactly the overhead the stacked kernels amortize; the small
# universe keeps chunks aggregation-friendly like the entropy case.
STK_N = 1 << 8
STK_M = 2_000_000
STK_COPIES = 24
STK_WIDTH = 256
STK_ROWS = 5
MIN_STACKED_SPEEDUP = 2.0

# Driving the stacked workload from a chunk source with a known item
# universe must be at least this much faster than the stacked bytes row.
MIN_SPEC_SPEEDUP = 1.3

# Full tracing (every protocol event to a JSONL sink + live metrics) may
# cost at most this fraction of stacked-run throughput.  Events ride
# switch/boundary branches, never the per-item hot loop, so the bound is
# loose headroom, not a target.
MAX_TELEMETRY_OVERHEAD = 0.25

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="process engine requires fork"
)


def _robust(seed=11):
    return RobustDistinctElements(
        n=N, m=M, eps=EPS, rng=np.random.default_rng(seed)
    )


def _robust_entropy(seed=13):
    return RobustEntropy(
        n=ENT_N, m=ENT_M, eps=ENT_EPS, rng=np.random.default_rng(seed),
        copies=ENT_COPIES, cc_constant=0.5,
    )


def _stacked_switching(stacked):
    return SwitchingEstimator(
        factory=lambda rng: CountSketch(
            STK_WIDTH, STK_ROWS, rng, track_candidates=0
        ),
        copies=STK_COPIES, rng=np.random.default_rng(42),
        band=MultiplicativeBand(0.9),
        discipline=PrivateAggregateDiscipline(noise_scale=0.01),
        stacked=stacked,
    )


def _run_engine(est, items, engine):
    m = len(items)
    start = time.perf_counter()
    if engine is None:
        for lo in range(0, m, CHUNK):
            est.update_batch(StreamChunk.insertions(items[lo:lo + CHUNK]))
    else:
        with engine.session(est) as session:
            for lo in range(0, m, CHUNK):
                session.feed(items[lo:lo + CHUNK])
    return m / (time.perf_counter() - start)


def _header():
    return [format_row(
        ("path", "items/s", "speedup", "switches", "err"), WIDTHS
    )]


def _emit(family, rows, payload, note):
    payload["note"] = note
    rows.append("")
    rows.append(note)
    emit(f"parallel_{family}", rows)
    emit_json(f"parallel_{family}", payload)


def _bench(benchmark, fn):
    return benchmark.pedantic(fn, rounds=1, iterations=1)


# ----------------------------------------------------------------------
# Shared inputs and baselines (measured once per session)
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def items():
    return np.random.default_rng(2024).integers(0, N, size=M)


@pytest.fixture(scope="module")
def f0_truth(items):
    truth = FrequencyVector()
    truth.update_batch(items)
    return truth.f0()


@pytest.fixture(scope="module")
def switching_baseline(items):
    """The robust switching estimator on the serial batched path."""
    est = _robust()
    return _run_engine(est, items, None), est


@pytest.fixture(scope="module")
def ent_items():
    return np.random.default_rng(77).integers(0, ENT_N, size=ENT_M)


@pytest.fixture(scope="module")
def ent_truth(ent_items):
    truth = FrequencyVector()
    truth.update_batch(ent_items)
    return truth.shannon_entropy()


@pytest.fixture(scope="module")
def entropy_baseline(ent_items):
    """The entropy tracker on the serial batched path."""
    est = _robust_entropy()
    return _run_engine(est, ent_items, None), est


@pytest.fixture(scope="module")
def stk_items():
    return np.random.default_rng(11).integers(0, STK_N, size=STK_M)


def _run_stacked(stacked, stk_items):
    est = _stacked_switching(stacked)
    start = time.perf_counter()
    with SerialEngine().session(est) as session:
        for lo in range(0, STK_M, CHUNK):
            session.feed(stk_items[lo:lo + CHUNK])
    rate = STK_M / (time.perf_counter() - start)
    return rate, est, session.phase_seconds


@pytest.fixture(scope="module")
def stacked_runs(stk_items):
    """Per-object twin, then stacked: {row name: (rate, est, phases)}."""
    return {
        "stacked_object_engine_serial": _run_stacked(False, stk_items),
        "stacked_engine_serial": _run_stacked(True, stk_items),
    }


@pytest.fixture(scope="module")
def serial_countmin(items):
    cm = CountMinSketch(2048, 5, np.random.default_rng(7))
    start = time.perf_counter()
    for lo in range(0, M, CHUNK):
        cm.update_batch(items[lo:lo + CHUNK])
    return M / (time.perf_counter() - start), cm


# ----------------------------------------------------------------------
# Switching row families
# ----------------------------------------------------------------------


def _switching_row(name, rate, base_rate, est, truth):
    err = abs(est.query() - truth) / truth
    speedup = rate / base_rate
    return {
        "items_per_sec": round(rate),
        "speedup_vs_pr1": round(speedup, 2),
        "switches": est.switches,
        "final_estimate": round(est.query(), 1),
        "final_relative_error": round(err, 4),
    }, format_row((name, f"{rate:,.0f}", f"{speedup:.2f}x", est.switches,
                   f"{err:.3f}"), WIDTHS)


def _entropy_row(name, rate, base_rate, est, h_true):
    err = abs(est.query() - h_true)
    speedup = rate / base_rate
    return {
        "items_per_sec": round(rate),
        "speedup_vs_pr1": round(speedup, 2),
        "switches": est.switches,
        "final_estimate": round(est.query(), 4),
        "final_additive_error": round(err, 4),
    }, format_row((name, f"{rate:,.0f}", f"{speedup:.2f}x", est.switches,
                   f"{err:.3f}"), WIDTHS)


def _switching_family(family, stream, base, contender, make, row_fn, truth,
                      note, gated=False):
    """Run one engine contender against a batched baseline; emit both rows.

    ``base`` is ``(name, (rate, est))`` from the batched path and
    ``contender`` is ``(name, engine)``.  The rows are emitted after the
    contender matches the baseline estimator bit for bit and, when
    ``gated``, runs at least ``MIN_PARALLEL_SPEEDUP`` x the baseline.
    """
    base_name, (base_rate, base_est) = base
    name, engine = contender
    est = make()
    rate = _run_engine(est, stream, engine)
    assert est.query() == base_est.query(), f"{name} diverged in output"
    assert est.switches == base_est.switches, f"{name} switch count"
    if gated:
        assert rate / base_rate >= MIN_PARALLEL_SPEEDUP, (
            f"{name} only {rate / base_rate:.2f}x over {base_name} "
            f"(required >= {MIN_PARALLEL_SPEEDUP}x)"
        )
    rows, payload = _header(), {"results": {}}
    for row_name, (row_rate, row_est) in ((base_name, (base_rate, base_est)),
                                          (name, (rate, est))):
        payload["results"][row_name], row = row_fn(
            row_name, row_rate, base_rate, row_est, truth
        )
        rows.append(row)
    _emit(family, rows, payload, note)


ENGINE_NOTE = (
    f"n={N}, m={M:,} uniform oblivious stream, chunk={CHUNK}, eps={EPS}; "
    f"robust switching = Theorem 5.1 KMV ring"
)
ENTROPY_NOTE = (
    f"entropy = Theorem 7.3 additive band, n={ENT_N}, m={ENT_M:,}, "
    f"eps={ENT_EPS}, {ENT_COPIES} CC copies (err column is additive)"
)


def test_switching_engine_serial(benchmark, items, f0_truth,
                                 switching_baseline):
    def run():
        _switching_family(
            "engine", items, ("pr1_serial_batched", switching_baseline),
            ("engine_serial", SerialEngine()), _robust, _switching_row,
            f0_truth, ENGINE_NOTE,
        )

    _bench(benchmark, run)


def test_entropy_engine_serial(benchmark, ent_items, ent_truth,
                               entropy_baseline):
    def run():
        _switching_family(
            "entropy", ent_items,
            ("entropy_pr1_serial_batched", entropy_baseline),
            ("entropy_engine_serial", SerialEngine()), _robust_entropy,
            _entropy_row, ent_truth, ENTROPY_NOTE,
            gated=True,
        )

    _bench(benchmark, run)


# ----------------------------------------------------------------------
# Stacked copy groups, traced, and chunk-source rows
# ----------------------------------------------------------------------


STACKED_NOTE = (
    f"stacked = F2 switching over {STK_COPIES} CountSketch"
    f"({STK_WIDTH}x{STK_ROWS}) copies, n={STK_N}, m={STK_M:,}, DP "
    f"aggregate discipline, speedup vs the per-object twin"
)


def test_stacked_groups(benchmark, stacked_runs):
    # The same F2 switching estimator twice — per-object twin, then
    # stacked — over one stream.  One shared hash pass feeds and probes
    # all copies on the stacked path; outputs must be bit-for-bit
    # identical and the stacked run at least MIN_STACKED_SPEEDUP x the
    # twin.
    def run():
        object_rate = stacked_runs["stacked_object_engine_serial"][0]
        rows, payload = _header(), {"results": {}}
        for name, (rate, est, phases) in stacked_runs.items():
            speedup = rate / object_rate
            payload["results"][name] = {
                "items_per_sec": round(rate),
                "speedup_vs_pr1": round(speedup, 2),
                "switches": est.switches,
                "final_estimate": round(est.query(), 1),
                "phase_seconds": {k: round(v, 3) for k, v in phases.items()},
            }
            rows.append(format_row(
                (name, f"{rate:,.0f}", f"{speedup:.2f}x", est.switches,
                 "-"), WIDTHS,
            ))
        base = stacked_runs["stacked_object_engine_serial"][1]
        rate, est, _ = stacked_runs["stacked_engine_serial"]
        assert est.query() == base.query(), (
            "stacked copy groups diverged from the per-object twin"
        )
        assert est.switches == base.switches, (
            "stacked copy groups changed the switch count"
        )
        speedup = rate / object_rate
        assert speedup >= MIN_STACKED_SPEEDUP, (
            f"stacked copy groups only {speedup:.2f}x over the "
            f"per-object twin (required >= {MIN_STACKED_SPEEDUP}x)"
        )
        _emit("stacked", rows, payload, STACKED_NOTE)

    _bench(benchmark, run)


def test_stacked_traced(benchmark, stk_items, stacked_runs):
    # The stacked DP workload once more with *full tracing* — every
    # protocol event streamed to a JSONL sink plus the metrics registry
    # — must stay within MAX_TELEMETRY_OVERHEAD of the untraced stacked
    # run and produce bit-for-bit identical outputs.  (The
    # disabled-telemetry cost is gated implicitly: every other row runs
    # with the NULL_TELEMETRY default, and check_regression.py holds
    # those rows to the committed baseline.)
    def run():
        object_rate = stacked_runs["stacked_object_engine_serial"][0]
        stk_rate, stk_est, _ = stacked_runs["stacked_engine_serial"]
        trace_path = str(OUT_DIR / "trace_sample.jsonl")
        OUT_DIR.mkdir(exist_ok=True)
        est = _stacked_switching(True)
        tele = Telemetry(sinks=[JsonlSink(trace_path)])
        install_telemetry(est, tele)
        start = time.perf_counter()
        with SerialEngine().session(est) as session:
            for lo in range(0, STK_M, CHUNK):
                session.feed(stk_items[lo:lo + CHUNK])
        rate = STK_M / (time.perf_counter() - start)
        tele.close()
        overhead = stk_rate / rate - 1.0
        speedup = rate / object_rate
        rows, payload = _header(), {"results": {
            "stacked_traced_engine_serial": {
                "items_per_sec": round(rate),
                "speedup_vs_pr1": round(speedup, 2),
                "switches": est.switches,
                "final_estimate": round(est.query(), 1),
                "tracing_overhead": round(overhead, 4),
                "trace_events": sum(tele.event_counts.values()),
                "trace_path": trace_path,
            },
        }}
        rows.append(format_row(
            ("stacked_traced_engine_serial", f"{rate:,.0f}",
             f"{speedup:.2f}x", est.switches, "-"), WIDTHS,
        ))
        assert est.query() == stk_est.query(), (
            "tracing changed the stacked estimator's output"
        )
        assert est.switches == stk_est.switches, (
            "tracing changed the stacked estimator's switch count"
        )
        assert overhead <= MAX_TELEMETRY_OVERHEAD, (
            f"full tracing cost {overhead:.1%} over the untraced stacked "
            f"run (bound {MAX_TELEMETRY_OVERHEAD:.0%})"
        )
        _emit("traced", rows, payload, STACKED_NOTE + "; full JSONL tracing")

    _bench(benchmark, run)


def test_stacked_chunk_source(benchmark, stacked_runs):
    # The stacked DP workload driven from a ChunkSource: the source's
    # declared item universe licenses the counts-based prepare fast
    # path (one bincount over the chunk + a column gather at the
    # support, instead of hashing every update).  Outputs, switch
    # counts, and DP budget state must be bit-for-bit identical to the
    # stacked bytes row.
    def run():
        object_rate = stacked_runs["stacked_object_engine_serial"][0]
        stk_rate, stk_est, _ = stacked_runs["stacked_engine_serial"]
        src = GeneratorChunkSource(
            "uniform", n=STK_N, m=STK_M, seed=11, chunk_size=CHUNK
        )
        est = _stacked_switching(True)
        start = time.perf_counter()
        with SerialEngine().session(est, source=src) as session:
            assert session.source_mode == "universe", session.source_mode
            for chunk in src.chunks():
                session.feed(chunk.items, chunk.deltas)
        rate = STK_M / (time.perf_counter() - start)
        vs_bytes = rate / stk_rate
        rows, payload = _header(), {"results": {
            "stacked_spec_engine_serial": {
                "items_per_sec": round(rate),
                "speedup_vs_pr1": round(rate / object_rate, 2),
                "speedup_vs_bytes": round(vs_bytes, 2),
                "switches": est.switches,
                "final_estimate": round(est.query(), 1),
            },
        }}
        rows.append(format_row(
            ("stacked_spec_engine_serial", f"{rate:,.0f}",
             f"{rate / object_rate:.2f}x", est.switches, "-"), WIDTHS,
        ))
        assert est.query() == stk_est.query(), (
            "universe fast path diverged from the stacked bytes output"
        )
        assert est.switches == stk_est.switches, (
            "universe fast path changed the switch count"
        )
        assert (est.discipline.budget_state()
                == stk_est.discipline.budget_state()), (
            "universe fast path changed the DP budget state"
        )
        assert vs_bytes >= MIN_SPEC_SPEEDUP, (
            f"universe fast path only {vs_bytes:.2f}x over the stacked "
            f"bytes row (required >= {MIN_SPEC_SPEEDUP}x)"
        )
        _emit("source", rows, payload,
              STACKED_NOTE + "; chunks from a GeneratorChunkSource on the "
              "universe fast path")

    _bench(benchmark, run)


# ----------------------------------------------------------------------
# CountMin: columnar store replay, merge shards
# ----------------------------------------------------------------------


def test_columnar_store_replay(benchmark, items, serial_countmin):
    def run():
        _, serial_cm = serial_countmin
        with tempfile.TemporaryDirectory() as tmp:
            store = write_stream(
                tmp + "/stream", StreamChunk.insertions(items),
                chunk_size=CHUNK, params=StreamParameters(n=N, m=M),
            )
            reader_cm = CountMinSketch(2048, 5, np.random.default_rng(7))
            start = time.perf_counter()
            report = ingest(reader_cm, store, chunk_size=CHUNK, prefetch=2)
            rate = M / (time.perf_counter() - start)
        assert report.updates == M
        assert np.array_equal(serial_cm._table, reader_cm._table), (
            "columnar replay diverged from in-memory ingestion"
        )
        rows = _header()
        rows.append(format_row(
            ("columnar store + prefetch", f"{rate:,.0f}", "-", "-",
             "exact"), WIDTHS,
        ))
        _emit("store", rows,
              {"results": {"columnar_store_replay": {
                  "items_per_sec": round(rate)}}},
              f"CountMin(2048x5), n={N}, m={M:,}, chunk={CHUNK}, "
              f"prefetch=2")

    _bench(benchmark, run)


@needs_fork
def test_countmin_merge_shards(benchmark, items, serial_countmin):
    def run():
        serial_rate, serial_cm = serial_countmin
        merged_cm = CountMinSketch(2048, 5, np.random.default_rng(7))
        rate = _run_engine(merged_cm, items, ProcessEngine(workers=WORKERS))
        assert np.array_equal(serial_cm._table, merged_cm._table), (
            "merged CountMin table diverged from serial"
        )
        rows = _header()
        rows.append(format_row(
            ("countmin merge shards", f"{rate:,.0f}",
             f"{rate / serial_rate:.2f}x", "-", "exact"), WIDTHS,
        ))
        _emit("merge", rows,
              {"results": {"countmin_merge_shards": {
                  "items_per_sec": round(rate),
                  "speedup_vs_serial": round(rate / serial_rate, 2)}}},
              f"CountMin(2048x5) partials on {WORKERS} forked workers, "
              f"speedup vs serial update_batch")

    _bench(benchmark, run)
