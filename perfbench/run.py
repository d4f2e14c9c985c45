"""Benchmark of oblivious replay and the adaptive game, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload f2-dp-serial --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --all

``--workload`` runs one workload for ``--seconds`` of timed passes.
With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced passes and reports the per-layer
metrics (spans are written to ``perfbench/out/``).  ``--all`` runs every
workload one after another in this process, untraced then traced, on
the default seed and then checks correctness on a held-out seed; it
prints the end-to-end table and each workload's layer table.

Every run checks its outputs: each timed call's published answer must
lie within the estimator's guarantee of the exact truth, and each pass's
final digest must equal a reference recorded from an independent path.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is non-zero when
any output was wrong.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import platform
import resource
import signal
import statistics
import sys
import traceback
from time import perf_counter

from tracing import NULL_TRACER, Tracer

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

DEFAULT_SEED = 0
HELD_OUT_SEED = 90210
#: Set-ups timed before each pass (besides the pass's own), so that the
#: set-up samples spread over the whole run like the timed calls do.
SETUP_PER_PASS = 3
PERCENTILES = (("latency_ms_p50", 50), ("latency_ms_p90", 90))
#: Printed with its sample count but not reported as a metric: the
#: workloads with fewer than 1000 calls per run have under ten calls
#: beyond it, so it reads one or two calls.
TAIL = ("latency_ms_p99", 99)
CORE_PHASES = ("probe", "band_test", "feed", "replace")


def _quantile(values, q: float) -> float:
    """Nearest-rank quantile (``q`` in [0, 100]): the smallest value with
    at least ``q``% of the values at or below it.  Unlike interpolation,
    it never reports a latency between two populations (switch and
    steady calls) that no call had."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def _physical_cores() -> int | None:
    try:
        with open("/proc/cpuinfo") as fh:
            text = fh.read()
    except OSError:
        return None
    cores = set()
    for block in text.split("\n\n"):
        fields = dict(
            (k.strip(), v.strip())
            for k, _, v in (line.partition(":") for line in block.splitlines())
        )
        if "core id" in fields:
            cores.add((fields.get("physical id"), fields["core id"]))
    return len(cores) or None


def machine_metadata() -> dict:
    import numpy

    meta = {
        "nproc": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "physical_cores": _physical_cores(),
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": None,
        "blas_threads": {
            var: os.environ.get(var)
            for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                        "MKL_NUM_THREADS")
        },
    }
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        meta["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        pass
    return meta


def _peak_rss_mb(workers: int) -> float:
    """Coordinator peak RSS plus ``workers`` times the largest reaped
    worker's peak (Linux reports ``ru_maxrss`` in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0


def _workers(mode: str) -> int:
    if mode.startswith("process[") and mode.endswith("]"):
        return int(mode[len("process["):-1])
    return 0


class RunResult:
    """Everything one ``--workload`` run measured and checked."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.passes = []          # (traced, PassResult)
        self.setup_samples = []
        self.errors = []
        self.reference = None
        self.tracer = None
        self.load_before = os.getloadavg()
        self.load_after = None

    @property
    def attempted(self) -> int:
        return max(1, sum(len(p.latencies) for _, p in self.passes))

    @property
    def failed(self) -> int:
        return sum(p.failed for _, p in self.passes) + len(self.errors)

    @property
    def correct(self) -> bool:
        return bool(self.passes) and self.failed == 0

    def labels(self) -> dict:
        first = self.passes[0][1].labels if self.passes else {}
        calls = [len(p.latencies) for t, p in self.passes if not t]
        samples = sum(calls)
        untraced = len(calls)
        return {
            "workload": self.workload.name,
            "seed": self.seed,
            **first,
            "passes": len(self.passes),
            "samples": {
                "latency_calls": samples,
                **{name: {"n": samples, "passes": untraced,
                          "beyond": int(samples * (100 - q) / 100)}
                   for name, q in PERCENTILES + (TAIL,)},
                "setup_s": len(self.setup_samples),
            },
            "untraced_passes": [
                {"items_per_s": p.items / p.wall_s,
                 **{name: _quantile(p.latencies, q) * 1e3
                    for name, q in PERCENTILES}}
                for t, p in self.passes if not t
            ],
            "load_before": self.load_before,
            "load_after": self.load_after,
        }


def execute(workload, seed: int, seconds: float, trace: bool) -> RunResult:
    """One run: inputs + reference (untimed), setup samples, then timed
    passes (alternating untraced and traced passes when ``trace``).

    A pass is a fixed amount of work, so the run ends on the pass
    boundary nearest to ``seconds``: another pass starts only while the
    run would end at most half a pass past ``seconds``.
    """
    run = RunResult(workload, seed)
    try:
        inp = workload.inputs(seed)
        run.reference = workload.reference(inp)
        tracer = Tracer() if trace else None
        run.tracer = tracer
        start = perf_counter()
        while True:
            traced = trace and len(run.passes) % 2 == 1
            run.setup_samples.extend(workload.setup_only(inp)
                                     for _ in range(SETUP_PER_PASS))
            res = workload.run_pass(
                inp, tracer if traced else NULL_TRACER, len(run.passes)
            )
            run.passes.append((traced, res))
            run.setup_samples.append(res.setup_s)
            if res.digest != run.reference:
                run.errors.append(
                    f"pass {len(run.passes) - 1} digest {res.digest} != "
                    f"reference {run.reference}"
                )
            enough = not trace or len(run.passes) >= 2
            elapsed = perf_counter() - start
            per_pass = elapsed / len(run.passes)
            if enough and elapsed + per_pass / 2 >= seconds:
                break
    except Exception:
        run.errors.append(traceback.format_exc())
    run.load_after = os.getloadavg()
    return run


def end_to_end(run: RunResult) -> dict:
    """The user-visible metrics, from the untraced passes.

    Throughput and each latency percentile are taken within each pass and
    the run reports their median over the passes.  On a shared host the
    CPU can move between a fast and a slow state for seconds at a time;
    the median keeps a slow spell that covers a minority of the passes
    out of the run's figure.
    """
    passes = [p for traced, p in run.passes if not traced]
    workers = _workers(passes[0].labels.get("session.mode") or "")
    metrics = {
        "items_per_s": (statistics.median(p.items / p.wall_s for p in passes),
                        "1/s"),
        **{name: (statistics.median(_quantile(p.latencies, q) for p in passes)
                  * 1e3, "ms") for name, q in PERCENTILES},
        "setup_s": (statistics.median(run.setup_samples), "s"),
        "peak_rss_mb": (_peak_rss_mb(workers), "MB"),
        "space_bits": (float(passes[-1].space_bits), "bits"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def _per_pass(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def per_layer(run: RunResult) -> dict:
    """The layer metrics, from the traced passes (per pass averages)."""
    traced = [p for t, p in run.passes if t]
    plain = [p for t, p in run.passes if not t]
    n = len(traced)
    totals = run.tracer.totals()
    span = {name: totals.get(name, 0.0) / n for name in (
        "streams.next", "engine.session_open", "engine.feed",
        "engine.finalize", "core.construct", "core.process_update",
        "adversary.next_update", "adversary.observe",
    )}
    phases = {key: _per_pass((p.phases or {}).get(key, 0.0) for p in traced)
              for key in CORE_PHASES + ("worker_probe", "worker_feed")}
    flags = [f for p in traced for f in p.switch_calls]
    lat = [x for p in traced for x in p.latencies]
    switch_lat = [x for x, f in zip(lat, flags) if f]
    steady_lat = [x for x, f in zip(lat, flags) if not f]
    budgets = [p.digest.get("budget") or {} for p in traced]

    def rate(ps):
        return sum(p.items for p in ps) / sum(p.wall_s for p in ps)

    has_session = any(p.phases is not None for p in traced)
    metrics = {
        "streams.materialize_s": (span["streams.next"], "s/pass"),
        "engine.session_open_s": (span["engine.session_open"], "s/pass"),
        "engine.feed_s": (span["engine.feed"], "s/pass"),
        "engine.finalize_s": (span["engine.finalize"], "s/pass"),
        "core.construct_s": (span["core.construct"], "s/pass"),
        "core.process_update_s": (span["core.process_update"], "s/pass"),
        **{f"core.{key}_s": (phases[key], "s/pass")
           for key in CORE_PHASES + ("worker_probe", "worker_feed")},
        "core.unattributed_s": (
            span["engine.feed"] - sum(phases[k] for k in CORE_PHASES)
            if has_session else 0.0, "s/pass"),
        "core.switches": (_per_pass(p.digest["switches"] for p in traced),
                          "count"),
        "core.switch_call_share": (sum(flags) / max(1, len(flags)), "ratio"),
        "core.switch_call_ms_p50": (_quantile(switch_lat, 50) * 1e3, "ms"),
        "core.steady_call_ms_p50": (_quantile(steady_lat, 50) * 1e3, "ms"),
        "core.dp_publications": (
            _per_pass(b.get("publications", 0) for b in budgets), "count"),
        "core.dp_budget_spent": (
            _per_pass(b.get("budget_spent", 0.0) for b in budgets), "ratio"),
        "adversary.step_s": (
            span["adversary.next_update"] + span["adversary.observe"],
            "s/pass"),
        "trace.overhead": (1.0 - rate(traced) / rate(plain), "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def boundary_warnings(run: RunResult) -> list[str]:
    """Percentiles whose rank sits near the switch/steady split.

    If ``share`` of the calls are switch calls, the slowest ``share`` of
    latencies are (mostly) switch calls, so a percentile ``q`` with
    ``1 - q`` within 25% of ``share`` reads off the cliff between the
    two populations.
    """
    flags = [f for t, p in run.passes if not t for f in p.switch_calls]
    share = sum(flags) / max(1, len(flags))
    out = []
    for name, q in PERCENTILES + (TAIL,):
        tail = (100 - q) / 100
        if share and 0.8 < share / tail < 1.25:
            out.append(f"{name}: switch-call share {share:.4f} is within "
                       f"25% of its tail {tail:.2f}")
    return out


def _fmt(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1e4 or abs(value) < 1e-3:
        return f"{value:.4e}"
    return f"{value:.4f}"


def render_end_to_end(run: RunResult, metrics: dict) -> list[str]:
    """The metrics table, plus the p99 tail and error rate (not metrics)."""
    labels = run.labels()
    samples = labels["samples"]
    counts = {
        "items_per_s": f"passes={sum(1 for t, _ in run.passes if not t)}",
        "setup_s": f"setups={samples['setup_s']}",
        "peak_rss_mb": "runs=1", "space_bits": "final=1",
        **{name: f"n={samples[name]['n']} beyond={samples[name]['beyond']} "
                 f"(median of {samples[name]['passes']} pass values)"
           for name, _ in PERCENTILES},
        TAIL[0]: f"n={samples[TAIL[0]]['n']} "
                 f"beyond={samples[TAIL[0]]['beyond']} (pooled, not a metric)",
    }
    lat = [x for t, p in run.passes if not t for x in p.latencies]
    extras = {
        TAIL[0]: (_quantile(lat, TAIL[1]) * 1e3, "ms"),
        "error_rate": (run.failed / run.attempted, "ratio"),
    }
    counts["error_rate"] = f"failed={run.failed} attempted={run.attempted}"
    lines = [f"== {run.workload.name}  engine={labels.get('engine')}  "
             f"mode={labels.get('session.mode')}  "
             f"source_mode={labels.get('session.source_mode')}  "
             f"seed={run.seed}"]
    rows = [(k, m["value"], m["unit"]) for k, m in metrics.items()]
    rows += [(k, v, u) for k, (v, u) in extras.items()]
    for name, value, unit in rows:
        lines.append(f"  {name:<18} {_fmt(value):>14} {unit:<6} "
                     f"{counts.get(name, '')}")
    lines.extend(f"  WARNING {w}" for w in boundary_warnings(run))
    return lines


def render_layers(run: RunResult, metrics: dict, layer_map: dict) -> list[str]:
    traced = sum(1 for t, _ in run.passes if t)
    lines = [f"-- layers: {run.workload.name} ({traced} traced passes, "
             f"per pass)", "  span self time (s/pass):"]
    for name, secs in sorted(run.tracer.self_times().items(),
                             key=lambda kv: -kv[1]):
        lines.append(f"    {name:<24} {secs / traced:>12.6f}")
    lines.append("  metrics:")
    for name, m in metrics.items():
        entry = layer_map.get(name, {})
        applies = run.workload.name in entry.get("workloads", ())
        note = (f"moves {entry.get('moves')}" if applies else "n/a here")
        lines.append(f"    {name:<24} {_fmt(m['value']):>12} "
                     f"{m['unit']:<7} {note}")
    return lines


def _result_line(correct, attempted, failed, metrics) -> str:
    return json.dumps({"correct": bool(correct), "attempted": int(attempted),
                       "failed": int(failed), "metrics": metrics})


def _layer_map() -> dict:
    with open(HERE / "layers.json") as fh:
        return {e["metric"]: e for e in json.load(fh)["per_layer"]}


def _report(run: RunResult, trace: bool, layer_map: dict) -> dict:
    """Print one run's labels and table; return its metrics."""
    print(json.dumps({"labels": run.labels(), "reference": run.reference}))
    if trace:
        metrics = per_layer(run)
        print("\n".join(render_layers(run, metrics, layer_map)))
        OUT_DIR.mkdir(exist_ok=True)
        run.tracer.write(OUT_DIR / f"spans-{run.workload.name}.jsonl")
    else:
        metrics = end_to_end(run)
        print("\n".join(render_end_to_end(run, metrics)))
    return metrics


def _checked(run: RunResult) -> bool:
    for err in run.errors:
        print(err, file=sys.stderr)
    if not run.passes:
        print(f"{run.workload.name}: no pass completed", file=sys.stderr)
    return bool(run.passes)


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    from workloads import WORKLOADS

    run = execute(WORKLOADS[name], seed, seconds, trace)
    if not _checked(run):
        return 1
    print(json.dumps({"machine": machine_metadata()}))
    metrics = _report(run, trace, _layer_map())
    print(_result_line(run.correct, run.attempted, run.failed, metrics))
    return 0 if run.correct else 1


def run_all(seed: int, seconds: float) -> int:
    """Every workload, one at a time: untraced and traced on ``seed``, then
    a correctness pass on the held-out seed."""
    from workloads import WORKLOADS

    layer_map = _layer_map()
    print(json.dumps({"machine": machine_metadata()}))
    ok = True
    attempted = failed = 0
    summary = {}
    for name, wl in WORKLOADS.items():
        for s, secs, trace in ((seed, seconds, False), (seed, seconds, True),
                               (HELD_OUT_SEED, 0, False)):
            run = execute(wl, s, secs, trace)
            attempted += run.attempted
            failed += run.failed
            ok = ok and run.correct
            if not _checked(run):
                continue
            metrics = _report(run, trace, layer_map)
            if s == seed:
                summary.update((f"{name}.{k}", m) for k, m in metrics.items())
            print(f"   correctness (seed {s}): "
                  f"{'ok' if run.correct else 'FAILED'}", flush=True)
    print(_result_line(ok, max(1, attempted), failed, summary))
    return 0 if ok else 1


def _stop_children() -> None:
    """Stop every process the run started and wait until each has ended.

    Engine sessions join their forked workers when they close; any still
    alive here (a run that raised mid-session) are terminated and joined.
    The multiprocessing resource tracker, which the process engine's
    shared memory starts on first use, would otherwise outlive the run:
    closing its pipe stops it and ``_stop`` waits for it (CPython has no
    public call for this).
    """
    mp = sys.modules.get("multiprocessing")
    if mp is None:
        return
    for proc in mp.active_children():
        proc.terminate()
        proc.join()
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()


def _exit_on_sigterm() -> None:
    """Turn SIGTERM into ``SystemExit`` in this process (not in forked
    workers), so that ``main``'s clean-up runs when the run is stopped."""
    pid = os.getpid()

    def handler(signum, frame):
        if os.getpid() != pid:
            os._exit(128 + signum)
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, handler)


def main(argv=None) -> int:
    try:
        return _main(argv)
    finally:
        _stop_children()


def _main(argv=None) -> int:
    _exit_on_sigterm()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no repro package under {ROOT / 'src'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
