"""Run every benchmark and fold the results into the BENCH reports.

Usage (from the repository root)::

    PYTHONPATH=src python benchmarks/run_all.py            # full suite
    PYTHONPATH=src python benchmarks/run_all.py --quick    # ingest only
    PYTHONPATH=src python benchmarks/run_all.py --engine   # engine only

Each ``bench_*.py`` file is executed as its own pytest session (they are
independent experiments with their own assertions).  Afterwards the
machine-readable payloads the benchmarks drop in ``benchmarks/out/*.json``
are merged, together with per-file pass/fail, wall-clock, and machine
metadata (cpu count, platform, numpy version — throughput numbers are
meaningless without them), into the repo-root reports:

* ``BENCH_ingest.json`` — the batched-vs-per-item ingestion trajectory
  (``bench_ingest.py`` and the accuracy benchmarks);
* ``BENCH_parallel.json`` — the execution-engine trajectory
  (``bench_parallel.py`` and ``bench_dp.py``: serial-engine switching,
  stacked copy groups, merge shards, columnar store replay).

Payloads whose name starts with ``parallel`` land in the parallel
report; everything else in the ingest report.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import subprocess
import sys
import time

BENCH_DIR = pathlib.Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
INGEST_REPORT_PATH = REPO_ROOT / "BENCH_ingest.json"
PARALLEL_REPORT_PATH = REPO_ROOT / "BENCH_parallel.json"

#: The headline benchmarks; --quick/--engine run only one of them.
QUICK = ("bench_ingest.py",)
ENGINE = ("bench_parallel.py", "bench_dp.py")

def report_key(name: str) -> str:
    """Which repo-root report a benchmark file or payload feeds.

    One rule for both: engine benchmarks are ``bench_parallel*.py`` /
    ``bench_dp.py`` and emit ``parallel*`` payloads; everything else is
    ingest/accuracy.
    """
    return (
        "parallel"
        if name.startswith(("parallel", "bench_parallel", "bench_dp"))
        else "ingest"
    )


def physical_cores() -> int | None:
    """Distinct physical cores from /proc/cpuinfo, or None off-Linux.

    ``os.cpu_count()`` counts logical CPUs (hyperthreads included), but
    multi-worker rows (the merge shards) only measure real parallelism
    on distinct physical cores; counting unique ``(physical id, core
    id)`` pairs records how many there were.
    """
    try:
        with open("/proc/cpuinfo") as fh:
            cores = set()
            phys_id = core_id = None
            for line in fh:
                key, _, value = line.partition(":")
                key = key.strip()
                if key == "physical id":
                    phys_id = value.strip()
                elif key == "core id":
                    core_id = value.strip()
                elif not line.strip():  # per-processor blocks are blank-separated
                    if core_id is not None:
                        cores.add((phys_id, core_id))
                    phys_id = core_id = None
            if core_id is not None:
                cores.add((phys_id, core_id))
            return len(cores) or None
    except OSError:
        return None


def machine_metadata() -> dict:
    """What the throughput numbers were measured on."""
    import numpy

    meta = {
        "cpu_count": os.cpu_count(),
        "physical_cores": physical_cores(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    # BLAS backend and thread caps matter for the stacked-group and AMS
    # matmul paths; np.show_config's dict mode is recent, so degrade
    # gracefully on older NumPy.
    try:
        config = numpy.show_config(mode="dicts")
        blas = config.get("Build Dependencies", {}).get("blas", {})
        meta["blas"] = {
            "name": blas.get("name"),
            "version": blas.get("version"),
        }
    except Exception:
        pass
    threads = {
        var: os.environ[var]
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
        if var in os.environ
    }
    if threads:
        meta["thread_env"] = threads
    return meta


def run_bench_file(path: pathlib.Path) -> dict:
    """Run one benchmark file under pytest; return its summary record."""
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", path.name],
        cwd=BENCH_DIR,
        env=env,
        capture_output=True,
        text=True,
    )
    seconds = time.perf_counter() - start
    tail = proc.stdout.strip().splitlines()
    return {
        "passed": proc.returncode == 0,
        "seconds": round(seconds, 1),
        "summary": tail[-1] if tail else "",
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--quick", action="store_true",
        help="run only the ingestion throughput benchmark",
    )
    group.add_argument(
        "--engine", action="store_true",
        help="run only the parallel execution engine benchmark",
    )
    args = parser.parse_args()

    if args.quick:
        files = [BENCH_DIR / name for name in QUICK]
    elif args.engine:
        files = [BENCH_DIR / name for name in ENGINE]
    else:
        files = sorted(BENCH_DIR.glob("bench_*.py"))

    meta = machine_metadata()

    def new_report() -> dict:
        return {
            "generated_by": "benchmarks/run_all.py",
            "machine": meta,
            "python": meta["python"],
            "files": {},
            "throughput": {},
        }

    reports = {"ingest": new_report(), "parallel": new_report()}

    failures = 0
    for path in files:
        print(f"== {path.name}", flush=True)
        record = run_bench_file(path)
        reports[report_key(path.name)]["files"][path.name] = record
        if not record["passed"]:
            failures += 1
            print(f"   FAILED ({record['summary']})")
        else:
            print(f"   ok in {record['seconds']}s")

    # Merge machine-readable payloads (throughput + accuracy) emitted by
    # the benchmarks themselves.
    if OUT_DIR.is_dir():
        for json_path in sorted(OUT_DIR.glob("*.json")):
            try:
                payload = json.loads(json_path.read_text())
            except json.JSONDecodeError:
                payload = {"error": "unreadable"}
            key = report_key(json_path.stem)
            reports[key]["throughput"][json_path.stem] = payload

    targets = {"ingest": INGEST_REPORT_PATH, "parallel": PARALLEL_REPORT_PATH}
    for key, target in targets.items():
        report = reports[key]
        if not report["files"]:
            continue  # no benchmark of this kind ran; keep the old report
        target.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"\nwrote {target}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
