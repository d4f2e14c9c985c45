"""Gate engine speedups against the committed BENCH_parallel.json baseline.

Raw items/sec numbers are machine-dependent, so CI compares the
machine-normalized **speedup ratios** (each engine path over its own
serial-batched baseline measured in the same run): a fresh
``speedup_vs_pr1`` may not fall more than ``--tolerance`` (default 20%)
below the committed one.  Keys present in only one of the two reports
are skipped — but never silently: every skipped row is printed, in both
directions (baseline-only rows, e.g. a benchmark that stopped emitting
a gated key, and fresh-only rows that have no committed baseline yet).
``--require <row>`` (repeatable) turns a disappearance into a hard
failure: CI names the rows it expects, so a gated row vanishing from
the fresh report fails loudly instead of being skipped.

Usage::

    cp BENCH_parallel.json /tmp/baseline.json        # before re-running
    PYTHONPATH=src python benchmarks/run_all.py --engine
    python benchmarks/check_regression.py \
        --baseline /tmp/baseline.json --fresh BENCH_parallel.json \
        --require engine_serial --require dp_engine_serial
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys


def speedups(report: dict) -> dict[str, float]:
    """Flatten a BENCH_parallel report to {result key: speedup_vs_pr1}."""
    out: dict[str, float] = {}
    for payload in report.get("throughput", {}).values():
        for key, row in payload.get("results", {}).items():
            value = row.get("speedup_vs_pr1")
            if value is not None:
                out[key] = float(value)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True,
                        help="committed BENCH_parallel.json")
    parser.add_argument("--fresh", required=True,
                        help="freshly generated BENCH_parallel.json")
    parser.add_argument("--tolerance", type=float, default=0.2,
                        help="allowed fractional speedup drop (default 0.2)")
    parser.add_argument("--require", action="append", default=[],
                        metavar="ROW",
                        help="row key that must be present in the fresh "
                             "report (repeatable); a missing required row "
                             "fails the gate instead of being skipped")
    args = parser.parse_args()

    baseline = speedups(json.loads(pathlib.Path(args.baseline).read_text()))
    fresh = speedups(json.loads(pathlib.Path(args.fresh).read_text()))

    failures = []
    missing_required = [key for key in args.require if key not in fresh]
    for key in missing_required:
        print(f"  {key:<36} REQUIRED but missing from fresh report")

    if not baseline:
        print("no speedup rows in the baseline; nothing to gate")
    for key in sorted(baseline):
        if key not in fresh:
            print(f"  {key:<36} missing from fresh report -- skipped")
            continue
        floor = (1.0 - args.tolerance) * baseline[key]
        status = "ok" if fresh[key] >= floor else "REGRESSION"
        print(f"  {key:<36} baseline {baseline[key]:6.2f}x  "
              f"fresh {fresh[key]:6.2f}x  floor {floor:6.2f}x  {status}")
        if fresh[key] < floor:
            failures.append(key)
    for key in sorted(set(fresh) - set(baseline)):
        print(f"  {key:<36} fresh {fresh[key]:6.2f}x  "
              f"no committed baseline -- skipped")

    if missing_required:
        print(f"\nrequired rows missing from the fresh report: "
              f"{', '.join(missing_required)}")
        return 1
    if failures:
        print(f"\nspeedup regression (> {args.tolerance:.0%} drop) in: "
              f"{', '.join(failures)}")
        return 1
    print("\nall engine speedups within tolerance of the committed baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
