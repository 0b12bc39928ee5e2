#!/usr/bin/env python3
"""The repository's benchmark: build the program, run a workload, print its
metrics.

  python3 perfbench/run.py --workload offline-sense --seed 1 --trace 0
  python3 perfbench/run.py                          # every workload, seed 1
  python3 perfbench/run.py --trace 1 --out r.json   # per-layer metrics, saved
  python3 perfbench/run.py compare base1.json ... -- new1.json ...

Run it from the root of a checkout. It builds perfbench/ (which compiles
../src) into .bench_build/, runs the perfbench program, derives the
metrics named in BENCHMARK.json from its raw report and prints one JSON
object as the last line of standard output. README.md beside this file
says why each workload exists and which layer should move which metric.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("offline-sense", "serve-mixed", "realtime-stream")

sys.path.insert(0, str(HERE))
import stats  # noqa: E402


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                    "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "--target",
                    "perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return BUILD / "perfbench"


def run_program(program, workload, seed, seconds, trace):
    work = BUILD / "work" / f"{workload}-{seed}-{trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    out = work / "report.json"
    try:
        subprocess.run([str(program), "--workload", workload,
                        "--seed", str(seed), "--seconds", str(seconds),
                        "--trace", str(trace), "--work-dir", str(work),
                        "--out", str(out)],
                       check=True, stdout=sys.stderr,
                       timeout=2 * seconds + 60)
        raw = json.loads(out.read_text())
        if raw["trace_path"]:
            traces = BUILD / "traces"
            traces.mkdir(exist_ok=True)
            kept = traces / f"{workload}-{seed}.trace.json"
            shutil.move(raw["trace_path"], kept)
            raw["trace_path"] = str(kept)
        return raw
    finally:
        shutil.rmtree(work, ignore_errors=True)


def open_loop(raw):
    """Latency, lateness and deadline accounting of an open-loop run."""
    s = raw["series"]
    return stats.open_loop(s["due_ms"], s["sent_ms"], s["replied_ms"],
                           [v == 1.0 for v in s["ok"]],
                           raw["values"]["interval_ms"])


def end_to_end(raw):
    """Every end-to-end metric, plus notes on how the tail was taken."""
    latencies = raw["latencies_ms"]
    on_time = raw["on_time"]
    ok = raw["attempted"] - raw["failed"]
    if "due_ms" in raw["series"]:  # open loop: latency from the due time
        acc = open_loop(raw)
        latencies = acc["latencies_ms"]
        on_time = acc["on_time"]
    tail, pct, count, windows = stats.windowed_tail(latencies)
    metrics = {
        "slices_per_s": (ok / raw["wall_s"], "1/s"),
        "latency_p50_ms": (statistics.median(latencies), "ms"),
        "latency_tail_ms": (tail, "ms"),
        "on_time_share": (on_time / raw["attempted"], "share"),
        "nrmse": (statistics.fmean(raw["nrmse"]), "ratio"),
        "setup_s": (statistics.median(raw["setup_s"]), "s"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MiB"),
    }
    notes = {"samples": len(latencies), "tail_window": count,
             "tail_windows": windows, "tail_percentile": pct,
             "setup_repetitions": len(raw["setup_s"])}
    return metrics, notes


def per_layer(raw):
    """Every per-layer metric; 0 where the workload bypasses the layer."""
    v = raw["values"]
    get = lambda k: v.get(k, 0.0)  # noqa: E731
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
    ops = get("untraced.ops")
    spans = stats.self_times(stats.load_trace(raw["trace_path"]))
    span = lambda name, key: spans.get(name, {}).get(key, 0.0)  # noqa: E731
    mean_span = lambda name: ratio(  # noqa: E731
        span(name, "self_ms"), span(name, "count"))
    m = {}
    if "traced.path.router" in raw["series"]:
        # Serve and stream: the same operations replayed one at a time
        # through four entry points, back to back; a layer's time is the
        # median of the paired differences between adjacent entry points.
        s = raw["series"]
        paths = ("direct", "engine", "socket", "router")
        trace = {p: s[f"traced.path.{p}"] for p in paths}
        step = lambda a, b: statistics.median(  # noqa: E731
            x - y for x, y in zip(trace[a], trace[b]))
        reps = len(trace["direct"])
        codec = statistics.fmean(s["traced.codec"])
        nufft_scale = 1e3 / reps
        plan_per_op = span("pb.plan", "self_ms") / reps
        cg_self = span("pb.solve", "self_ms") / reps
        m["serve.engine_ms"] = step("engine", "direct")
        m["wire.codec_us"] = 1e3 * codec
        m["wire.bytes"] = get("traced.wire_bytes") / len(s["traced.codec"])
        m["wire.transport_ms"] = step("socket", "engine") - codec
        m["router.hop_ms"] = step("router", "socket")
        overhead = (sum(sum(trace[p]) for p in paths) /
                    sum(sum(s[f"untraced.path.{p}"]) for p in paths)) - 1.0
        # Under load an operation also waits for the ones ahead of it.
        wall_ms = statistics.fmean(open_loop(raw)["latencies_ms"]
                                   if "due_ms" in s else raw["latencies_ms"])
        m["serve.queue_ms"] = wall_ms - statistics.fmean(
            s["untraced.path.router"])
        layers = {"plan": plan_per_op, "cg": cg_self,
                  "engine": m["serve.engine_ms"],
                  "queue": m["serve.queue_ms"], "codec": codec,
                  "transport": m["wire.transport_ms"],
                  "router": m["router.hop_ms"]}
    else:
        # offline-sense: per-call times of the traced pass, scaled by the
        # untraced pass's call counts per slice; the overhead compares the
        # traced replay with the same replay untraced.
        t_ops = get("traced.ops")
        wall_ms = 1e3 * get("untraced.wall_s") / ops
        per_slice = lambda k: ratio(get(f"untraced.{k}"), ops)  # noqa: E731
        calls = per_slice("nufft.adjoints") + per_slice("nufft.forwards")
        solve_calls = calls - ratio(get("coilmap.nufft_calls"), t_ops)
        nufft_scale = 1e3 * ratio(solve_calls, get("traced.nufft.calls"))
        plan_per_op = mean_span("pb.plan") * per_slice("nufft.plans")
        cg_ratio = ratio(per_slice("cg.iterations"),
                         ratio(get("traced.cg.iterations"), t_ops))
        cg_self = ratio(span("pb.solve", "self_ms"), t_ops) * cg_ratio
        m["data.read_ms"] = (mean_span("pb.read")
                             * per_slice("data.chunks_read"))
        m["dcf.ms"] = mean_span("pb.dcf") * per_slice("dcf.runs")
        m["coilmap.ms"] = mean_span("pb.coilmap")
        overhead = (ratio(get("traced.wall_s"), t_ops) /
                    ratio(get("replay.wall_s"), get("replay.ops"))) - 1.0
        layers = {"read": m["data.read_ms"], "plan": plan_per_op,
                  "dcf": m["dcf.ms"], "coilmap": m["coilmap.ms"],
                  "cg": cg_self}
    m["dcf.iterations"] = ratio(get("untraced.dcf.iterations"), ops)
    m["plan.build_ms"] = mean_span("pb.plan")
    m["grid.ms"] = get("traced.nufft.grid_s") * nufft_scale
    m["grid.interpolations"] = ratio(get("untraced.grid.interpolations"), ops)
    m["grid.ns_per_interpolation"] = 1e9 * ratio(
        get("traced.nufft.grid_s"), get("traced.direct.interpolations"))
    m["fft.ms"] = get("traced.nufft.fft_s") * nufft_scale
    m["fft.execs"] = ratio(get("untraced.fft.execs"), ops)
    m["fft.plan_cache_hit_ratio"] = ratio(
        get("untraced.fftcache.hits"),
        get("untraced.fftcache.hits") + get("untraced.fftcache.misses"))
    m["apod.ms"] = get("traced.nufft.apod_s") * nufft_scale
    m["cg.iterations"] = ratio(get("untraced.cg.iterations"), ops)
    m["cg.self_ms"] = cg_self
    frames = get("stream.frames")
    m["stream.warm_share"] = ratio(get("stream.warm_frames"), frames)
    m["stream.guard_trips"] = get("stream.guard_trips")
    m["stream.plan_reuse_share"] = ratio(get("stream.plan_reuses"), frames)
    m["serve.batched_share"] = ratio(get("fleet.batched_jobs"),
                                     get("fleet.submitted"))
    m["serve.plan_hit_ratio"] = ratio(
        get("fleet.plan_hits"),
        get("fleet.plan_hits") + get("fleet.plan_builds"))
    m["router.max_worker_share"] = ratio(get("fleet.max_worker_forwarded"),
                                         get("fleet.forwarded"))
    m["router.reroutes"] = get("fleet.reroutes")
    for k in ("data.read_ms", "dcf.ms", "coilmap.ms", "serve.engine_ms",
              "serve.queue_ms", "wire.codec_us", "wire.bytes",
              "wire.transport_ms", "router.hop_ms"):
        m.setdefault(k, 0.0)
    layers.update(grid=m["grid.ms"], fft=m["fft.ms"], apod=m["apod.ms"])
    m["unattributed_share"] = stats.unattributed_share(layers, wall_ms)
    m["trace.overhead_share"] = overhead
    m["bench.generator_late_ms"] = (open_loop(raw)["mean_lateness_ms"]
                                    if "due_ms" in raw["series"] else 0.0)
    return m


def bench_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_one(program, workload, seed, seconds, trace):
    raw = run_program(program, workload, seed, seconds, trace)
    e2e, notes = end_to_end(raw)
    spec = bench_spec()
    if trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = per_layer(raw)
        metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]][0],
                               "unit": e2e[m["name"]][1]}
                   for m in spec["end_to_end"]}
    log(f"# {workload} seed={seed} seconds={seconds} trace={trace}")
    log("# host " + json.dumps(raw["fingerprint"], sort_keys=True))
    for name, (value, unit) in e2e.items():
        log(f"#   {name:<24} {value:14.6g} {unit}")
    pct = notes["tail_percentile"]
    tail = "maximum" if pct == 100.0 else f"p{pct:.2f} (10 samples beyond)"
    log(f"#   latency_tail_ms is the median over {notes['tail_windows']} "
        f"window(s) of {notes['tail_window']} samples of each window's "
        f"{tail} ({notes['samples']} samples); "
        f"setup_s is the median of {notes['setup_repetitions']} set-ups")
    if trace:
        for name, m in metrics.items():
            log(f"#   {name:<28} {m['value']:14.6g} {m['unit']}")
        log(f"#   trace written to {raw['trace_path']}")
    for check in raw["failed_checks"]:
        log(f"# FAILED CHECK {check['name']}: {check['detail']}")
    result = {"correct": not raw["failed_checks"],
              "attempted": raw["attempted"], "failed": raw["failed"],
              "metrics": metrics}
    record = dict(result, workload=workload, seed=seed, trace=trace,
                  fingerprint=raw["fingerprint"], notes=notes)
    return result, record


def compare(argv):
    """compare BASE.json... -- NEW.json...: per workload and end-to-end
    metric, the median of each side and whether the new side is worse by
    more than the metric's bound. Refuses result sets from different host
    classes."""
    if "--" not in argv:
        sys.exit("usage: run.py compare BASE.json... -- NEW.json...")
    cut = argv.index("--")
    sides = []
    for group in (argv[:cut], argv[cut + 1:]):
        side = []
        for p in group:
            loaded = json.loads(Path(p).read_text())
            side.extend(loaded if isinstance(loaded, list) else [loaded])
        sides.append(side)
    classes = {json.dumps(r["fingerprint"], sort_keys=True)
               for side in sides for r in side}
    if len(classes) != 1:
        sys.exit("refusing to compare results from different host classes:\n"
                 + "\n".join(sorted(classes)))
    bounds = {m["name"]: m for m in bench_spec()["end_to_end"]}
    worse = 0
    for workload in sorted({r["workload"] for side in sides for r in side}):
        for name, spec in bounds.items():
            vals = [[r["metrics"][name]["value"] for r in side
                     if r["workload"] == workload and not r["trace"]]
                    for side in sides]
            if not all(vals):
                continue
            base, new = (statistics.median(v) for v in vals)
            change = (new - base) / base if base else 0.0
            bad = change > spec["bound"] if spec["better"] == "lower" \
                else -change > spec["bound"]
            worse += bad
            print(f"{workload:<16} {name:<16} {base:12.5g} -> {new:12.5g} "
                  f"{100 * change:+7.2f}% (bound {100 * spec['bound']:.0f}%)"
                  f"{'  WORSE' if bad else ''}")
    return 1 if worse else 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        return compare(sys.argv[2:])
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS,
                   help="one workload (default: every workload)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=None,
                   help="measured seconds (default: BENCHMARK.json's)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="also write the result record(s) here")
    args = p.parse_args()
    seconds = args.seconds or bench_spec()["run_seconds"]
    try:
        program = build()
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 2
    records = []
    for workload in [args.workload] if args.workload else WORKLOADS:
        try:
            result, record = run_one(program, workload, args.seed, seconds,
                                     args.trace)
        except (subprocess.SubprocessError, OSError, KeyError,
                ValueError) as e:
            log(f"{workload}: run failed: {e!r}")
            return 1
        records.append(record)
        print(json.dumps(result if args.workload
                         else dict(result, workload=workload)), flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(
            records[0] if args.workload else records, indent=1) + "\n")
    return 0

if __name__ == "__main__":
    sys.exit(main())
