#!/usr/bin/env python3
"""Compare two bench_suite JSON files and fail on regressions.

Usage:
    bench_compare.py BASELINE.json CANDIDATE.json
        [--threshold 0.15] [--min-seconds 0.02] [--checksum-tol 1e-6]
        [--work-tol 0.0] [--smoke]

Exit status 1 when:
  * a benchmark present in the baseline is missing from the candidate,
  * a checksum drifts beyond --checksum-tol (relative) — a correctness
    bug, never timing noise,
  * a benchmark slows down by more than --threshold (relative) and both
    measurements exceed --min-seconds (sub-threshold timings are too noisy
    to gate on, especially in --smoke mode) — only when both reports come
    from the same host class: the "machine" block (nproc, cpu_model,
    simd_isa, build_type) matches field for field. Across host classes, or
    when either report predates the block, wall time is printed but not
    gated and a NOTE says why; the checksum, work and missing-entry checks
    run on every host,
  * a work counter (the deterministic grid./nufft./fft./cg./sim. families
    in an entry's "counters" block) changes beyond --work-tol (relative,
    default exact). Unlike wall-clock, counters are noise-free: any drift
    means the algorithm now does different work. The gate only engages
    when both files were produced by JIGSAW_OBS=ON builds and both entries
    carry counters; an OFF-build candidate is reported, never failed.
    Benchmarks whose name contains "/auto/" get an indirect gate: auto
    resolves to a concrete engine, and the resolution rule may differ
    between the baseline's producer and the candidate's, so their counters
    are not compared against the baseline's auto entry. When the candidate
    entry records "resolved_engine", the gate instead compares its
    counters against the BASELINE entry of that concrete engine at the
    same problem size, e.g. an auto entry resolved to "serial" is checked
    against ".../serial/...". Candidates without resolved_engine keep the
    wholesale exemption. The checksum gate always applies — every engine
    must produce the same grid.

New benchmarks in the candidate are reported but never fail the run, so
adding coverage does not require a simultaneous baseline refresh.
"""
import argparse
import json
import sys

# Counter families that are pure functions of the workload (sample count,
# kernel width, grid size, iteration count). Excluded by design: pool.*
# (scheduling-dependent), scratch.*/fftcache.* per-entry values depend on
# suite-global cache state, memsim.* (opt-in probes).
WORK_PREFIXES = ("grid.", "nufft.", "fft.", "cg.", "sim.")


HOST_FIELDS = ("nproc", "cpu_model", "simd_isa", "build_type")


def host_class(doc):
    """The report's host class, or None when it records no machine block."""
    machine = doc.get("machine")
    if not isinstance(machine, dict):
        return None
    return tuple(str(machine.get(k)) for k in HOST_FIELDS)


def describe(host):
    return "unrecorded" if host is None else "/".join(host)


def load(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema_version") != 1:
        sys.exit(f"{path}: unsupported schema_version {doc.get('schema_version')!r}")
    return doc


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline")
    ap.add_argument("candidate")
    ap.add_argument("--threshold", type=float, default=0.15,
                    help="relative slowdown that counts as a regression")
    ap.add_argument("--min-seconds", type=float, default=0.02,
                    help="ignore timing changes when either side is faster than this")
    ap.add_argument("--checksum-tol", type=float, default=1e-6,
                    help="relative checksum drift that counts as a failure")
    ap.add_argument("--work-tol", type=float, default=0.0,
                    help="relative drift allowed in work counters (default: exact)")
    ap.add_argument("--smoke", action="store_true",
                    help="require both files to be --smoke runs")
    args = ap.parse_args()

    base_doc = load(args.baseline)
    cand_doc = load(args.candidate)
    if base_doc.get("smoke") != cand_doc.get("smoke"):
        sys.exit("refusing to compare: baseline and candidate were run in "
                 "different modes (smoke vs full) — problem sizes differ")
    if args.smoke and not (base_doc.get("smoke") and cand_doc.get("smoke")):
        sys.exit("--smoke given but the files are full-size runs")

    work_gate = bool(base_doc.get("obs_enabled")) and bool(
        cand_doc.get("obs_enabled"))
    base_host, cand_host = host_class(base_doc), host_class(cand_doc)
    time_gate = base_host is not None and base_host == cand_host

    base = {b["name"]: b for b in base_doc["benchmarks"]}
    cand = {b["name"]: b for b in cand_doc["benchmarks"]}

    failures = []
    notes = []
    rows = []
    for name, b in base.items():
        c = cand.get(name)
        if c is None:
            failures.append(f"MISSING   {name}: present in baseline, absent in candidate")
            continue

        ref = max(abs(b["checksum"]), abs(c["checksum"]), 1e-300)
        drift = abs(b["checksum"] - c["checksum"]) / ref
        if drift > args.checksum_tol:
            failures.append(
                f"CHECKSUM  {name}: {b['checksum']:.12g} -> {c['checksum']:.12g} "
                f"(rel drift {drift:.3g})")

        # Auto entries run on whichever engine auto resolved to when each
        # file was produced, so their work counters are not diffed against
        # the baseline's own auto entry. When the candidate says which
        # engine it resolved to, gate against that engine's entry in the
        # baseline instead; otherwise fall back to exempting.
        tuned_entry = "/auto/" in name
        ref_counters = b.get("counters")
        if tuned_entry:
            resolved = c.get("resolved_engine")
            if resolved:
                ref_name = name.replace("/auto/", f"/{resolved}/")
                ref_entry = base.get(ref_name)
                if ref_entry is None or "counters" not in ref_entry:
                    notes.append(f"NOTE      {name}: resolved to {resolved} but "
                                 f"baseline has no counters for {ref_name}; "
                                 "work gate skipped")
                    ref_counters = None
                else:
                    ref_counters = ref_entry["counters"]
            else:
                ref_counters = None
        if work_gate and ref_counters is not None and "counters" in c:
            bc, cc = ref_counters, c["counters"]
            for key in sorted(set(bc) | set(cc)):
                if not key.startswith(WORK_PREFIXES):
                    continue
                bv, cv = bc.get(key, 0), cc.get(key, 0)
                ref = max(abs(bv), abs(cv), 1)
                if abs(bv - cv) / ref > args.work_tol:
                    failures.append(
                        f"WORK      {name}: {key} {bv} -> {cv} "
                        f"(the engine now performs different work)")

        ratio = c["seconds"] / b["seconds"] if b["seconds"] > 0 else float("inf")
        gated = b["seconds"] >= args.min_seconds and c["seconds"] >= args.min_seconds
        status = "ok"
        if not time_gate:
            status = "not gated (host class)"
        elif gated and ratio > 1.0 + args.threshold:
            status = "REGRESSED"
            failures.append(
                f"REGRESSED {name}: {b['seconds']:.4f}s -> {c['seconds']:.4f}s "
                f"({(ratio - 1) * 100:+.1f}%, threshold {args.threshold * 100:.0f}%)")
        elif not gated:
            status = "skipped (sub-threshold)"
        rows.append((name, b["seconds"], c["seconds"], ratio, status))

    for name in cand:
        if name not in base:
            notes.append(f"NEW       {name}: not in baseline (will gate after refresh)")
    if not time_gate:
        notes.append("NOTE      wall-time gate inactive: baseline host class "
                     f"{describe(base_host)} != candidate {describe(cand_host)} "
                     "(checksum, work and missing-entry checks still ran)")
    if not work_gate:
        notes.append("NOTE      work-counter gate inactive (one side lacks "
                     "obs_enabled — JIGSAW_OBS=OFF build or pre-obs baseline)")

    width = max((len(r[0]) for r in rows), default=20)
    print(f"{'benchmark':<{width}} {'base':>10} {'cand':>10} {'ratio':>7}  status")
    for name, bs, cs, ratio, status in rows:
        print(f"{name:<{width}} {bs:>10.4f} {cs:>10.4f} {ratio:>7.2f}  {status}")

    for n in notes:
        print(n)
    if failures:
        print(f"\n{len(failures)} failure(s):", file=sys.stderr)
        for f in failures:
            print("  " + f, file=sys.stderr)
        return 1
    if time_gate:
        print(f"\nOK: {len(rows)} benchmarks within "
              f"{args.threshold * 100:.0f}% of {args.baseline}")
    else:
        print(f"\nOK: {len(rows)} benchmarks match {args.baseline} "
              "(wall time not gated across host classes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
