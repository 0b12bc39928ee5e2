"""Metric helpers of the benchmark: tail percentile, open-loop accounting,
span self times and the unattributed share. Pure functions, tested by
test_stats.py."""

import json
import statistics

TAIL_BEYOND = 10  # samples that must lie beyond the reported tail
TAIL_WINDOW = 1000  # samples per window of windowed_tail


def tail_percentile(samples, beyond=TAIL_BEYOND):
    """The highest percentile with at least `beyond` samples above it.

    Returns (value, percentile, count). With n sorted samples the value is
    the one at rank n - beyond (1-based), which has exactly `beyond` samples
    after it; its percentile is 100 * (n - beyond) / n. With n <= beyond no
    such rank exists and the maximum is returned as the 100th percentile.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail_percentile of no samples")
    if n <= beyond:
        return ordered[-1], 100.0, n
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n, n


def windowed_tail(samples, window=TAIL_WINDOW, beyond=TAIL_BEYOND):
    """The tail of a run: the median of per-window tails.

    `samples` are in completion order and are cut into k consecutive
    windows of equal size (a remainder shorter than one window is dropped);
    each window's tail is taken by tail_percentile and the median over
    windows is returned, so one burst of a noisy host cannot set the run's
    tail. A run of at least two `window`s uses windows of about `window`
    samples (about p99 each). A shorter run uses windows of `beyond`
    samples, whose tail is their maximum; the median of those maxima sits
    near p93. A run too short for two such windows reports its maximum.
    Returns (value, percentile of one window, samples per window, windows).
    """
    k = len(samples) // window
    if k >= 2:
        size = len(samples) // k
    else:
        size = beyond
        k = len(samples) // size
        if k < 2:
            return max(samples), 100.0, len(samples), 1
    tails = [tail_percentile(samples[i * size:(i + 1) * size], beyond)
             for i in range(k)]
    return statistics.median(t[0] for t in tails), tails[0][1], size, k


def open_loop(due_ms, sent_ms, replied_ms, ok, interval_ms):
    """Account an open-loop run from per-operation timestamps.

    All times are offsets from the same origin. Latency runs from the due
    time, so a stall also charges the operations scheduled behind it;
    lateness is how far the generator itself sent after the due time. An
    operation is on time when it succeeded and its reply came at most one
    interval after it was due; an unanswered one has replied_ms None.
    """
    latencies, lateness = [], []
    on_time = 0
    for due, sent, replied, good in zip(due_ms, sent_ms, replied_ms, ok):
        lateness.append(max(0.0, sent - due))
        if replied is None:
            continue
        latency = replied - due
        latencies.append(latency)
        if good and latency <= interval_ms:
            on_time += 1
    return {
        "latencies_ms": latencies,
        "lateness_ms": lateness,
        "on_time": on_time,
        "missed": len(due_ms) - on_time,
        "mean_lateness_ms": statistics.fmean(lateness) if lateness else 0.0,
    }


def self_times(events, prefix="pb."):
    """Per-name span totals from Chrome trace events: count, total and self
    milliseconds. Only spans whose name starts with `prefix` take part;
    a span's self time is its duration minus the part its child spans (on
    the same thread, nested inside it) cover."""
    spans = [e for e in events
             if e.get("ph") == "X" and e["name"].startswith(prefix)]
    spans.sort(key=lambda e: (e["tid"], e["ts"], -e["dur"]))
    totals = {}
    stack = []  # (tid, end, name)
    eps = 1e-3  # microseconds: the trace prints three decimals
    for e in spans:
        start, end = e["ts"], e["ts"] + e["dur"]
        while stack and (stack[-1][0] != e["tid"]
                         or stack[-1][1] <= start + eps):
            stack.pop()
        t = totals.setdefault(e["name"], {"count": 0, "total_ms": 0.0,
                                          "self_ms": 0.0})
        t["count"] += 1
        t["total_ms"] += e["dur"] / 1e3
        t["self_ms"] += e["dur"] / 1e3
        if stack and end <= stack[-1][1] + eps:
            totals[stack[-1][2]]["self_ms"] -= e["dur"] / 1e3
        stack.append((e["tid"], end, e["name"]))
    return totals


def load_trace(path):
    with open(path) as f:
        return json.load(f)["traceEvents"]


def unattributed_share(layer_ms, wall_ms):
    """1 - (sum of the layers' self times) / wall time, both per operation.
    Negative when the layers, measured in a traced run, add up to more than
    the untraced wall time."""
    if wall_ms <= 0:
        raise ValueError("unattributed_share needs a positive wall time")
    return 1.0 - sum(layer_ms.values()) / wall_ms
