#!/usr/bin/env python3
"""Merge bench_suite reports of one build into a time-gate reference.

Usage:
    bench_max.py REPORT.json [REPORT.json ...] > REFERENCE.json

Every report must list the same benchmarks with the same checksums (they
come from one build). The output is the first report with each entry's
"seconds" replaced by its maximum over all reports: the per-entry maximum
of N runs that BENCH_baseline.json is recorded as, and that the CI
observability overhead guard compares the JIGSAW_OBS=OFF build against.
"""
import json
import sys


def main():
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    reports = []
    for path in sys.argv[1:]:
        with open(path) as f:
            reports.append(json.load(f))
    merged = reports[0]
    for i, entry in enumerate(merged["benchmarks"]):
        runs = [r["benchmarks"][i] for r in reports]
        if any(r["name"] != entry["name"] for r in runs):
            sys.exit(f"benchmark {i}: the reports list different benchmarks")
        if any(r["checksum"] != entry["checksum"] for r in runs):
            sys.exit(f"{entry['name']}: checksums differ between the reports")
        entry["seconds"] = max(r["seconds"] for r in runs)
    json.dump(merged, sys.stdout, indent=2)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
