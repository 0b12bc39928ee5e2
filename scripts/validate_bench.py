#!/usr/bin/env python3
"""Validate a bench_suite BENCH_<tag>.json against scripts/bench_schema.json.

Usage:
    validate_bench.py BENCH.json [--schema scripts/bench_schema.json]
        [--require-counters]

Stdlib-only on purpose (CI boxes have no jsonschema); the schema file uses
a small declarative subset documented in its $comment. Beyond the schema,
a "dataset" block must account for every chunk (chunks == chunks_ok +
chunks_rejected) with at least one surviving. --require-counters
additionally fails unless every benchmark entry carries a non-empty
"counters" block and the document says obs_enabled — the CI assertion that
a JIGSAW_OBS=ON build actually counted its work.
"""
import argparse
import json
import os
import sys

TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    # bool is an int subclass in Python; exclude it explicitly.
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
}


def check(value, schema, path, errors):
    expected = schema.get("type")
    if expected and not TYPE_CHECKS[expected](value):
        errors.append(f"{path}: expected {expected}, got {type(value).__name__}")
        return
    if "minimum" in schema and TYPE_CHECKS["number"](value):
        if value < schema["minimum"]:
            errors.append(f"{path}: {value} < minimum {schema['minimum']}")
    if expected == "object":
        for key in schema.get("required", []):
            if key not in value:
                errors.append(f"{path}: missing required key \"{key}\"")
        for key, sub in schema.get("properties", {}).items():
            if key in value:
                check(value[key], sub, f"{path}.{key}", errors)
        vt = schema.get("valuesType")
        vmin = schema.get("valuesMinimum")
        prefixes = schema.get("keyPrefixOneOf")
        for key, v in value.items():
            if key in schema.get("properties", {}):
                continue
            if vt and not TYPE_CHECKS[vt](v):
                errors.append(f"{path}.{key}: expected {vt} value, "
                              f"got {type(v).__name__}")
            if vmin is not None and TYPE_CHECKS["number"](v) and v < vmin:
                errors.append(f"{path}.{key}: {v} < minimum {vmin}")
            if prefixes and not any(key.startswith(p) for p in prefixes):
                errors.append(f"{path}.{key}: counter name outside the known "
                              f"families {prefixes}")
    elif expected == "array" and "items" in schema:
        for i, item in enumerate(value):
            check(item, schema["items"], f"{path}[{i}]", errors)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("bench")
    ap.add_argument("--schema",
                    default=os.path.join(os.path.dirname(__file__),
                                         "bench_schema.json"))
    ap.add_argument("--require-counters", action="store_true",
                    help="fail unless obs_enabled and every entry has counters")
    args = ap.parse_args()

    with open(args.bench) as f:
        doc = json.load(f)

    errors = []
    with open(args.schema) as f:
        schema = json.load(f)
    check(doc, schema, "$", errors)

    # A "dataset" block (bench_suite JKSD ingest) must account for every
    # chunk the header promised — ok + rejected — and at least one chunk
    # must have survived, or the "benchmark" reconstructed nothing.
    if "dataset" in doc and not errors:
        d = doc["dataset"]
        if isinstance(d, dict):
            ok = d.get("chunks_ok", 0)
            rejected = d.get("chunks_rejected", 0)
            if d.get("chunks") != ok + rejected:
                errors.append(
                    f"$.dataset: {d.get('chunks')} chunks but "
                    f"{ok} ok + {rejected} rejected don't account for them")
            if not ok:
                errors.append("$.dataset: no chunk survived ingest — the "
                              "recon driver had nothing to reconstruct")

    if args.require_counters and not errors:
        if not doc.get("obs_enabled"):
            errors.append("$.obs_enabled: --require-counters given but the "
                          "producing build had JIGSAW_OBS=OFF")
        else:
            for i, b in enumerate(doc.get("benchmarks", [])):
                if not b.get("counters"):
                    errors.append(f"$.benchmarks[{i}] ({b.get('name')}): "
                                  "missing or empty counters block")

    if errors:
        print(f"{args.bench}: {len(errors)} schema violation(s):",
              file=sys.stderr)
        for e in errors:
            print("  " + e, file=sys.stderr)
        return 1
    n = len(doc.get("benchmarks", []))
    with_counters = sum(1 for b in doc.get("benchmarks", []) if b.get("counters"))
    ds = doc.get("dataset")
    ds_note = (f", dataset {ds.get('chunks_ok')}/{ds.get('chunks')} chunks"
               if isinstance(ds, dict) else "")
    print(f"OK: {args.bench} valid ({n} benchmarks, {with_counters} with "
          f"counters{ds_note}, obs_enabled={doc.get('obs_enabled')})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
