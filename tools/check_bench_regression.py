#!/usr/bin/env python3
"""Gate a google-benchmark run against a checked-in baseline.

Usage:
    check_bench_regression.py CURRENT.json BASELINE.json \
        --bench 'BM_EpochServe/1000000/1' [--tolerance 0.25]

Both files are google-benchmark JSON exports. The run should be made
with --benchmark_repetitions so it contains aggregate rows; the gate
compares the *median* real_time of each guarded benchmark (falling back
to the plain row when no median aggregate exists, e.g. a single-shot
baseline) and fails — exit 1 — when

    current_median > baseline_median * (1 + tolerance)

It also fails — exit 2 — when the current run's context does not record
"slices_build_type": "Release" (bench/common.hpp writes it), so numbers
from a Debug or RelWithDebInfo build cannot pass. Baselines are not
checked.

Medians rather than means keep one noisy-neighbour iteration on a shared
CI runner from tripping the gate; the default tolerance of 25% is wide
for the same reason. Refresh the baseline (commit the new CURRENT.json
as the baseline file) whenever the benchmark workload or the reference
hardware changes intentionally.
"""

from __future__ import annotations

import argparse
import json
import sys

_UNIT_TO_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def _load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def median_real_time_ns(doc: dict, bench: str) -> float | None:
    """Median real_time of `bench` in nanoseconds, or None when absent."""
    median = None
    plain = None
    for row in doc.get("benchmarks", []):
        scale = _UNIT_TO_NS.get(row.get("time_unit", "ns"), 1.0)
        if row.get("name") == bench + "_median":
            median = row["real_time"] * scale
        elif row.get("name") == bench and row.get("run_type", "iteration") != "aggregate":
            plain = row["real_time"] * scale
    return median if median is not None else plain


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", help="benchmark JSON from this run")
    parser.add_argument("baseline", help="checked-in baseline benchmark JSON")
    parser.add_argument(
        "--bench",
        action="append",
        required=True,
        help="benchmark name to guard (repeatable), e.g. BM_EpochServe/1000000/1",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="allowed fractional slowdown before failing (default 0.25)",
    )
    args = parser.parse_args()

    current = _load(args.current)
    baseline = _load(args.baseline)

    build_type = current.get("context", {}).get("slices_build_type")
    if build_type != "Release":
        print(f"benchmark regression gate FAILED: {args.current} was built as "
              f"{build_type!r}, not 'Release'; only Release numbers are comparable",
              file=sys.stderr)
        return 2

    failures = []
    for bench in args.bench:
        base_ns = median_real_time_ns(baseline, bench)
        cur_ns = median_real_time_ns(current, bench)
        if base_ns is None:
            print(f"SKIP {bench}: not in baseline {args.baseline}")
            continue
        if cur_ns is None:
            failures.append(f"{bench}: present in baseline but missing from this run")
            continue
        ratio = cur_ns / base_ns
        verdict = "OK" if ratio <= 1.0 + args.tolerance else "REGRESSED"
        print(
            f"{verdict:9s} {bench}: median {cur_ns / 1e6:.3f} ms vs "
            f"baseline {base_ns / 1e6:.3f} ms ({(ratio - 1.0) * 100.0:+.1f}%)"
        )
        if verdict == "REGRESSED":
            failures.append(
                f"{bench}: {ratio:.2f}x baseline exceeds 1.{int(args.tolerance * 100):02d}x"
            )

    if failures:
        print("\nbenchmark regression gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
