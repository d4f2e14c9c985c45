"""Observability subsystem (ISSUE 7): metrics registry, trace events,
sinks, span aggregation across the ProcessEngine fork boundary (the
heavy-hitters ring's workers), the
``repro trace`` summarizer, and the ``ingest(telemetry=...)`` wiring.

The load-bearing property — tracing on/off leaves every published
output bit-for-bit identical — is pinned in
``tests/test_band_equivalence.py`` next to the other equivalence
suites; this file covers the subsystem itself.
"""

import json

import numpy as np
import pytest

from repro.api import ingest, install_telemetry, robust_estimator
from repro.core.bands import MultiplicativeBand
from repro.core.disciplines import (
    DifferenceAggregateDiscipline,
    PrivateAggregateDiscipline,
)
from repro.core.ladder import DifferenceLadder, LadderTier
from repro.core.sketch_switching import SwitchingEstimator
from repro.engine import ProcessEngine, SerialEngine, fork_available
from repro.engine.prefetch import prefetch_chunks
from repro.obs import (
    DEFAULT_BUCKETS,
    CallbackSink,
    JsonlSink,
    MetricsRegistry,
    NULL_TELEMETRY,
    NullTelemetry,
    RingSink,
    SpanEvent,
    SvtChargeEvent,
    SwitchEvent,
    Telemetry,
    WorkerTelemetry,
    event_from_dict,
    read_trace,
    resolve_telemetry,
)
from repro.obs.trace_cli import summarize_trace
from repro.sketches.kmv import KMVSketch
from repro.streams.model import StreamChunk

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="process engine requires the fork start method"
)


def _uniform_chunks(n, m, chunk, seed=7):
    rng = np.random.default_rng(seed)
    items = rng.integers(0, n, size=m)
    return [StreamChunk.insertions(items[lo:lo + chunk])
            for lo in range(0, m, chunk)]


def _estimator(problem="distinct", seed=3, n=4096, m=60_000):
    return robust_estimator(problem, n=n, m=m, eps=0.25, seed=seed)


class TestMetricsRegistry:
    def test_counter_accumulates_and_is_get_or_create(self):
        reg = MetricsRegistry()
        c = reg.counter("x_total", "help text")
        c.inc()
        reg.counter("x_total").inc(2.5)
        assert c.value == 3.5
        assert len(reg) == 1

    def test_kind_collision_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_histogram_buckets_and_overflow(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(1.0, 10.0))
        for v in (0.5, 5.0, 50.0):
            h.observe(v)
        assert h.counts == [1, 1, 1]          # <=1, <=10, +Inf
        assert h.count == 3 and h.sum == 55.5

    def test_merge_snapshot_sums_counters_and_buckets(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(2)
        b.counter("c").inc(3)
        a.histogram("h", buckets=(4.0,)).observe(1)
        b.histogram("h", buckets=(4.0,)).observe(100)
        b.gauge("g").set(-9)
        a.gauge("g").set(2)
        a.merge_snapshot(b.snapshot())
        assert a.counter("c").value == 5
        assert a.histogram("h").counts == [1, 1]
        assert a.gauge("g").value == -9       # extreme wins across workers

    def test_histogram_merge_rejects_mismatched_buckets(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("h", buckets=(1.0,))
        b.histogram("h", buckets=(2.0,)).observe(1)
        snap = b.snapshot()
        with pytest.raises(ValueError):
            a.histogram("h", buckets=(1.0,)).merge(snap["h"])

    def test_expose_prometheus_format(self):
        reg = MetricsRegistry()
        reg.counter("switches_total", "protocol switches").inc(4)
        reg.histogram("sz", buckets=(2.0,)).observe(1)
        text = reg.expose()
        assert "# HELP switches_total protocol switches" in text
        assert "# TYPE switches_total counter" in text
        assert "switches_total 4" in text
        assert 'sz_bucket{le="2"} 1' in text
        assert 'sz_bucket{le="+Inf"} 1' in text
        assert "sz_count 1" in text

    def test_null_registry_hands_out_shared_noop(self):
        a = NULL_TELEMETRY.metrics.counter("anything")
        b = NULL_TELEMETRY.metrics.histogram("other", buckets=DEFAULT_BUCKETS)
        a.inc()
        b.observe(5)
        assert a is b                          # one shared no-op instrument
        assert NULL_TELEMETRY.metrics.snapshot() == {}


class TestEvents:
    def test_round_trip_through_dict(self):
        ev = SwitchEvent(t=1.5, published=3.0, estimate=3.1, switches=7,
                         discipline="active-copy", band="multiplicative")
        back = event_from_dict(ev.to_dict())
        assert isinstance(back, SwitchEvent)
        assert back == ev

    def test_unknown_kind_degrades_to_base_event(self):
        back = event_from_dict({"kind": "from-the-future", "t": 9.0,
                                "novel_field": 1})
        assert type(back).kind == "event"
        assert back.t == 9.0

    def test_span_seconds_clamps_negative(self):
        assert SpanEvent(start=5.0, end=4.0).seconds == 0.0
        assert SpanEvent(start=1.0, end=3.0).seconds == 2.0


class TestSinks:
    def test_ring_sink_caps_and_counts_drops(self):
        ring = RingSink(capacity=2)
        for i in range(5):
            ring.emit(SwitchEvent(switches=i))
        assert [e.switches for e in ring.events] == [3, 4]
        assert ring.dropped == 3
        assert ring.by_kind("switch") == list(ring.events)
        ring.clear()
        assert not ring.events

    def test_jsonl_sink_round_trips_via_read_trace(self, tmp_path):
        path = tmp_path / "nested" / "trace.jsonl"
        sink = JsonlSink(path)
        sink.emit(SwitchEvent(t=1.0, published=2.0, switches=1))
        sink.emit(SvtChargeEvent(t=2.0, charges=3, budget=10, spent=0.3))
        sink.close()
        events = read_trace(path)
        assert [e.kind for e in events] == ["switch", "svt-charge"]
        assert isinstance(events[0], SwitchEvent)
        assert events[1].charges == 3
        # every line is plain JSON with a kind tag
        lines = path.read_text().splitlines()
        assert all(json.loads(line)["kind"] for line in lines)

    def test_callback_sink_delivers_typed_events(self):
        seen = []
        tele = Telemetry(sinks=[CallbackSink(seen.append)])
        tele.emit(SwitchEvent(published=1.0))
        assert len(seen) == 1 and isinstance(seen[0], SwitchEvent)


class TestTelemetry:
    def test_emit_fills_timestamp_and_span(self):
        ring = RingSink()
        tele = Telemetry(sinks=[ring])
        with tele.span("outer"):
            tele.emit(SwitchEvent(published=1.0))
        ev = ring.by_kind("switch")[0]
        assert ev.t > 0.0
        assert ev.span == 1                   # the outer span's id
        assert tele.event_counts == {"switch": 1, "span": 1}

    def test_span_nesting_records_parent_linkage(self):
        ring = RingSink()
        tele = Telemetry(sinks=[ring])
        with tele.span("ingest"):
            with tele.span("chunk"):
                pass
            with tele.span("chunk"):
                pass
        spans = {e.id: e for e in ring.by_kind("span")}
        ingest = next(e for e in spans.values() if e.name == "ingest")
        chunks = [e for e in spans.values() if e.name == "chunk"]
        assert ingest.span is None
        assert len(chunks) == 2
        assert all(c.span == ingest.id for c in chunks)
        assert all(c.seconds >= 0.0 for c in chunks)

    def test_snapshot_shape(self):
        tele = Telemetry()
        tele.metrics.counter("c").inc()
        tele.emit(SwitchEvent())
        snap = tele.snapshot()
        assert snap["events"] == {"switch": 1}
        assert snap["metrics"]["c"]["value"] == 1
        assert snap["spans"] == 0

    def test_null_telemetry_is_inert(self):
        assert isinstance(NULL_TELEMETRY, NullTelemetry)
        assert NULL_TELEMETRY.enabled is False
        NULL_TELEMETRY.emit(SwitchEvent())    # no-op, no error
        with NULL_TELEMETRY.span("x") as s:
            assert s.id is None
        assert NULL_TELEMETRY.snapshot() is None
        assert NULL_TELEMETRY.expose() == ""

    def test_absorb_worker_attributes_and_ids(self):
        ring = RingSink()
        tele = Telemetry(sinks=[ring])
        payload = {
            "phases": {"feed": 0.1, "replace": 0.0},
            "events": [
                {"kind": "span", "span": 7, "name": "worker-chunk",
                 "start": 1.0, "end": 2.0, "t": 2.0, "ops": 3},
                SvtChargeEvent(t=1.5, charges=1, budget=4,
                               spent=0.25).to_dict(),
            ],
            "metrics": {"svt_charges_total": {"kind": "counter", "value": 1}},
        }
        tele.absorb_worker(2, payload)
        span = ring.by_kind("span")[0]
        assert span.worker == 2 and span.span == 7
        assert span.id == "w2:1"              # coordinator-assigned id
        charge = ring.by_kind("svt-charge")[0]
        assert charge.worker == 2
        assert tele.metrics.counter("svt_charges_total").value == 1


class TestWorkerTelemetry:
    def test_phases_always_accumulate(self):
        obs = WorkerTelemetry(0, trace=False)
        obs.op("feed", 0.25)
        obs.op("replace", 0.5)
        obs.op("feed", 0.5)
        obs.op("stop", 1.0)                   # unmapped: ignored
        payload = obs.drain()
        assert payload["phases"] == {"feed": 0.75, "replace": 0.5}
        assert "events" not in payload        # tracing off: no span records

    def test_span_records_between_tags(self):
        obs = WorkerTelemetry(1, trace=True)
        obs.begin_span(11)
        obs.op("feed", 0.1)
        obs.op("replace", 0.1)
        obs.begin_span(12)                    # closes the span under 11
        obs.op("feed", 0.1)
        payload = obs.drain()                 # closes the span under 12
        events = payload["events"]
        assert [e["span"] for e in events] == [11, 12]
        assert all(e["kind"] == "span" for e in events)
        assert all(e["name"] == "worker-chunk" for e in events)
        assert events[0]["ops"] == 2 and events[1]["ops"] == 1


class TestResolveTelemetry:
    def test_specs(self, tmp_path):
        assert resolve_telemetry(None) is None
        assert resolve_telemetry(False) is None
        tele = Telemetry()
        assert resolve_telemetry(tele) is tele
        assert isinstance(resolve_telemetry(True).sinks[0], RingSink)
        assert isinstance(resolve_telemetry("ring").sinks[0], RingSink)
        assert resolve_telemetry("metrics").sinks == []
        path = str(tmp_path / "t.jsonl")
        assert isinstance(resolve_telemetry(f"jsonl:{path}").sinks[0],
                          JsonlSink)
        assert isinstance(resolve_telemetry(path).sinks[0], JsonlSink)
        assert isinstance(resolve_telemetry(print).sinks[0], CallbackSink)

    def test_bad_specs(self):
        with pytest.raises(ValueError):
            resolve_telemetry("bogus")
        with pytest.raises(TypeError):
            resolve_telemetry(123)


class TestProtocolEvents:
    """The instrumented seams emit what they claim to emit."""

    def _run(self, est, chunks, telemetry):
        install_telemetry(est, telemetry)
        for chunk in chunks:
            est.update_batch(chunk.items, chunk.deltas)

    def test_switching_emits_switch_ring_and_band_events(self):
        ring = RingSink()
        tele = Telemetry(sinks=[ring])
        est = _estimator("distinct")
        self._run(est, _uniform_chunks(4096, 60_000, 4096), tele)
        switches = ring.by_kind("switch")
        assert len(switches) == est.switches > 0
        assert switches[-1].switches == est.switches
        assert switches[-1].published == est.query()
        assert switches[-1].band == "multiplicative"
        assert len(ring.by_kind("ring-advance")) == est.switches
        assert tele.metrics.counter("protocol_switches_total").value \
            == est.switches
        assert tele.metrics.counter("copies_burned_total").value \
            == est.switches

    def test_dp_discipline_emits_svt_charges(self):
        ring = RingSink()
        tele = Telemetry(sinks=[ring])
        est = _estimator("distinct-dp")
        self._run(est, _uniform_chunks(4096, 60_000, 4096), tele)
        charges = ring.by_kind("svt-charge")
        assert charges and charges[0].scope == "publication"
        assert charges[-1].charges >= charges[0].charges
        if charges[0].budget:
            assert 0.0 < charges[0].spent <= 1.0

    def test_ladder_emits_anchor_promote_and_strong_charges(self):
        ladder = DifferenceLadder([
            LadderTier(copies=2, noise_scale=0.04, capacity=3, span=0.3),
        ])
        est = SwitchingEstimator(
            lambda r: KMVSketch(48, r), copies=9,
            rng=np.random.default_rng(7), band=MultiplicativeBand(0.35),
            discipline=DifferenceAggregateDiscipline(
                ladder=ladder, noise_scale=0.04,
            ),
        )
        ring = RingSink()
        est._copies.telemetry = Telemetry(sinks=[ring])
        for chunk in _uniform_chunks(2048, 40_000, 2048):
            est.update_batch(chunk.items, chunk.deltas)
        assert ring.by_kind("ladder-anchor")
        assert ring.by_kind("ladder-promote")
        strong = [e for e in ring.by_kind("svt-charge")
                  if e.scope == "strong"]
        assert strong

    def test_prefetch_producer_fault_becomes_event(self):
        ring = RingSink()
        tele = Telemetry(sinks=[ring])

        def broken():
            yield StreamChunk.insertions(np.arange(10))
            raise RuntimeError("source died")

        gen = prefetch_chunks(broken(), telemetry=tele)
        next(gen)
        gen.close()   # consumer walks away; the parked failure is drained
        faults = ring.by_kind("prefetch-fault")
        assert faults and faults[0].fault == "producer-exception"
        assert "source died" in faults[0].detail


class TestIngestTelemetry:
    def test_report_snapshot_and_identical_output_direct(self):
        base = ingest(_estimator(), _uniform_chunks(4096, 60_000, 4096),
                      chunk_size=4096)
        assert base.telemetry is None
        traced = ingest(_estimator(), _uniform_chunks(4096, 60_000, 4096),
                        chunk_size=4096, telemetry=True)
        assert traced.final_estimate == base.final_estimate
        snap = traced.telemetry
        assert snap["events"]["switch"] > 0
        assert snap["metrics"]["ingest_updates_total"]["value"] == 60_000
        assert snap["metrics"]["ingest_chunk_updates"]["count"] \
            == traced.chunks
        assert snap["spans"] >= traced.chunks + 1   # chunks + root ingest

    def test_serial_engine_phases_and_events(self):
        report = ingest(_estimator(), _uniform_chunks(4096, 60_000, 4096),
                        chunk_size=4096, engine="serial", telemetry=True)
        assert report.phase_seconds is not None
        assert {"probe", "band_test", "feed", "replace"} \
            <= set(report.phase_seconds)
        assert report.telemetry["events"]["phases"] == 1

    @needs_fork
    def test_process_engine_merges_worker_trace(self):
        # The heavy-hitters epoch ring is what ProcessEngine forks: its
        # workers' spans merge back under the coordinator's chunk spans.
        def run(telemetry=None):
            return ingest(_estimator("heavy-hitters", n=512, m=20_000),
                          _uniform_chunks(512, 20_000, 4096),
                          chunk_size=4096, engine="process:2",
                          telemetry=telemetry)

        ring = RingSink(capacity=65536)
        traced = run(Telemetry(sinks=[ring]))
        base = run()
        # Identical output, worker-originated spans with parent linkage,
        # worker phase totals under their own keys.
        assert traced.mode == "process[2]"
        assert traced.final_estimate == base.final_estimate
        worker_spans = [e for e in ring.by_kind("span")
                        if e.worker is not None]
        assert worker_spans
        chunk_ids = {e.id for e in ring.by_kind("span")
                     if e.name == "chunk"}
        assert all(s.span in chunk_ids for s in worker_spans)
        assert all(str(s.id).startswith("w") for s in worker_spans)
        assert {"worker_feed", "worker_replace"} <= set(traced.phase_seconds)
        assert traced.phase_seconds["worker_feed"] > 0.0
        assert "worker_probe" not in traced.phase_seconds

    def test_jsonl_spec_writes_readable_trace(self, tmp_path):
        path = tmp_path / "run.jsonl"
        ingest(_estimator(), _uniform_chunks(4096, 30_000, 4096),
               chunk_size=4096, engine="serial", telemetry=f"jsonl:{path}")
        events = read_trace(path)
        assert any(e.kind == "switch" for e in events)
        assert any(e.kind == "phases" for e in events)

    def test_tracing_overhead_is_sane(self):
        # Loose sanity bound only (CI boxes are noisy); the real gate is
        # bench_parallel.py's MAX_TELEMETRY_OVERHEAD row.  An accidental
        # per-item emission would blow past this by an order of
        # magnitude.
        import time as _time

        chunks = _uniform_chunks(4096, 200_000, 8192)

        def run(telemetry):
            est = _estimator(m=200_000)
            start = _time.perf_counter()
            ingest(est, chunks, chunk_size=8192, telemetry=telemetry)
            return _time.perf_counter() - start

        run(None)                              # warm caches
        off = min(run(None) for _ in range(3))
        on = min(run(True) for _ in range(3))
        assert on <= off * 3 + 0.05


class TestTraceCli:
    def test_summarize_trace_sections(self, tmp_path):
        path = tmp_path / "run.jsonl"
        ingest(_estimator("distinct-dp"), _uniform_chunks(4096, 60_000, 4096),
               chunk_size=4096, engine="serial", telemetry=f"jsonl:{path}")
        text = summarize_trace(path, limit=5)
        assert "switch timeline" in text
        assert "budget burn-down" in text
        assert "span phases" in text
        assert "session phase totals" in text

    def test_cli_trace_subcommand(self, tmp_path, capsys):
        from repro.experiments.cli import main

        path = tmp_path / "run.jsonl"
        ingest(_estimator(), _uniform_chunks(4096, 30_000, 4096),
               chunk_size=4096, telemetry=f"jsonl:{path}")
        assert main(["trace", str(path), "--limit", "3"]) == 0
        out = capsys.readouterr().out
        assert "switch timeline" in out

    def test_cli_trace_missing_file_fails_cleanly(self, tmp_path, capsys):
        from repro.experiments.cli import main

        assert main(["trace", str(tmp_path / "nope.jsonl")]) == 1
        assert "cannot read trace" in capsys.readouterr().err
