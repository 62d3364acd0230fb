#!/usr/bin/env python3
"""Fails unless try_move scores moves at least N times faster than a full pass.

    ./build/bench/micro_delta_eval \
        --benchmark_filter='BM_(FullObjectivesPerMove|TryMove)/64$' \
        --benchmark_min_time=0.2 --benchmark_format=json > delta_eval.json
    python3 bench/check_delta_speedup.py delta_eval.json --min-ratio 5

Reads google-benchmark JSON, compares items_per_second of BM_TryMove/64
with BM_FullObjectivesPerMove/64, prints the ratio and exits 1 when it is
below --min-ratio or a row is missing.
"""

import argparse
import json
import sys


def items_per_second(report, name):
    for row in report.get("benchmarks", []):
        if row.get("name") == name:
            value = row.get("items_per_second")
            if value is None or value <= 0:
                raise ValueError(f"{name} has no positive items_per_second")
            return float(value)
    raise ValueError(f"{name} not found in the benchmark report")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("report", help="google-benchmark JSON file")
    parser.add_argument("--min-ratio", type=float, required=True)
    args = parser.parse_args(argv)

    try:
        with open(args.report, encoding="utf-8") as f:
            report = json.load(f)
        delta = items_per_second(report, "BM_TryMove/64")
        full = items_per_second(report, "BM_FullObjectivesPerMove/64")
    except (OSError, ValueError) as e:
        print(f"check_delta_speedup: {e}", file=sys.stderr)
        return 1

    ratio = delta / full
    verdict = "ok" if ratio >= args.min_ratio else "FAILED"
    print(f"try_move {delta:.4g} moves/s, full pass {full:.4g} moves/s: "
          f"{ratio:.1f}x (need >= {args.min_ratio:g}x) {verdict}")
    return 0 if ratio >= args.min_ratio else 1


if __name__ == "__main__":
    sys.exit(main())
