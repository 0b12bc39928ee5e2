// Real-time streaming reconstruction benchmark: a sliding-window golden-
// angle frame sequence of the dynamic phantom, pushed through the ROUTED
// serve tier (real jigsaw_serve workers on loopback TCP behind an
// in-process Router) as one streaming session per run.
//
// Two runs over identical frame data: warm-start ON (each frame's CG seeds
// from the previous frame's image) and OFF (every frame solves cold). Both
// solve to the same CG tolerance, so per-frame NRMSE against the phantom's
// exact instant-t ground truth is equal by construction — the warm run must
// then spend measurably fewer total CG iterations (>= 30% fewer, the
// subsystem's acceptance invariant, asserted here). Reported per run:
// frame latency p50/p99, inter-frame jitter (p99 absolute deviation from
// the median completion interval), per-frame status totals, and the
// session's lifetime iteration count from its close reply.
//
//   bench_stream [--smoke] [--tag ci-stream] [--out BENCH_stream.json]
//                [--workers 2] [--frames N] [--n N] [--engine E]
//                [--spokes S] [--window W]
//
// Output is a BENCH_<tag>.json whose "stream" block is validated by
// scripts/validate_bench.py against scripts/bench_schema.json.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "obs/obs.hpp"
#include "serve/client.hpp"
#include "serve/router.hpp"
#include "serve/server.hpp"
#include "stream/frame_source.hpp"

namespace {

using namespace jigsaw;

struct StreamResult {
  std::string name;
  bool warm_start = false;
  int workers = 0;
  std::uint64_t frames = 0;
  std::uint64_t ok = 0;
  std::uint64_t timeout = 0;
  std::uint64_t warm_frames = 0;   // replies flagged warm (guard not tripped)
  std::uint64_t guard_trips = 0;
  std::uint64_t plan_reuses = 0;
  std::uint64_t total_iterations = 0;  // from the session's close reply
  double mean_nrmse = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double jitter_ms = 0.0;  // p99 |interval - median interval|
};

double percentile(std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

/// NRMSE of a complex reconstruction against the real ground-truth image,
/// after a least-squares complex scalar fit (removes the global scale and
/// phase the adjoint/CG chain is free to introduce).
double fitted_nrmse(const std::vector<c64>& recon,
                    const std::vector<double>& truth) {
  JIGSAW_REQUIRE(recon.size() == truth.size(), "nrmse: size mismatch");
  c64 num{};
  double den = 0.0, tnorm = 0.0;
  for (std::size_t i = 0; i < recon.size(); ++i) {
    num += truth[i] * std::conj(recon[i]);
    den += std::norm(recon[i]);
    tnorm += truth[i] * truth[i];
  }
  const c64 alpha = den > 0.0 ? num / den : c64{};
  double err = 0.0;
  for (std::size_t i = 0; i < recon.size(); ++i) {
    err += std::norm(alpha * recon[i] - truth[i]);
  }
  return tnorm > 0.0 ? std::sqrt(err / tnorm) : 0.0;
}

StreamResult run_stream(const std::string& endpoint, int workers,
                        const stream::FrameSource& source,
                        const stream::DynamicPhantom& phantom,
                        std::uint32_t n, std::uint32_t iters,
                        std::uint32_t engine, bool warm) {
  serve::ServeClient client(endpoint);

  serve::OpenSessionWire open;
  open.engine = engine;
  open.n = n;
  open.iters = iters;
  open.warm_start = warm ? 1u : 0u;
  const serve::SessionReplyWire opened = client.open_session(open);
  JIGSAW_REQUIRE(opened.status == serve::Status::kOk,
                 "open_session failed: " << opened.message);

  StreamResult result;
  result.name = std::string("routed/") + (warm ? "warm" : "cold");
  result.warm_start = warm;
  result.workers = workers;

  std::vector<double> latencies, completions;
  latencies.reserve(static_cast<std::size_t>(source.frames()));
  completions.reserve(static_cast<std::size_t>(source.frames()));
  double nrmse_sum = 0.0;
  const auto run0 = std::chrono::steady_clock::now();
  for (int f = 0; f < source.frames(); ++f) {
    serve::PushFrameWire push;
    push.session_id = opened.session_id;
    push.frame_index = static_cast<std::uint64_t>(f);
    push.coords = source.frame_coords(f);
    const double t = source.frame_time(f);
    push.values = phantom.kspace_at(push.coords, t, static_cast<int>(n));

    const auto s0 = std::chrono::steady_clock::now();
    const serve::FrameReplyWire reply = client.push_frame(push);
    const auto s1 = std::chrono::steady_clock::now();
    latencies.push_back(
        std::chrono::duration<double, std::milli>(s1 - s0).count());
    completions.push_back(
        std::chrono::duration<double, std::milli>(s1 - run0).count());

    ++result.frames;
    if (reply.status == serve::Status::kOk) {
      ++result.ok;
      nrmse_sum += fitted_nrmse(reply.image,
                                phantom.image_at(t, static_cast<int>(n)));
    } else if (reply.status == serve::Status::kTimeout) {
      ++result.timeout;
    } else {
      JIGSAW_REQUIRE(false, "frame " << f << " failed: "
                                     << serve::to_string(reply.status) << " "
                                     << reply.message);
    }
    if (reply.flags & serve::kFrameWarmFlag) {
      if (reply.flags & serve::kFrameGuardFlag) {
        ++result.guard_trips;
      } else {
        ++result.warm_frames;
      }
    }
    if (reply.flags & serve::kFramePlanReusedFlag) ++result.plan_reuses;
  }

  serve::CloseSessionWire close;
  close.session_id = opened.session_id;
  const serve::SessionReplyWire closed = client.close_session(close);
  JIGSAW_REQUIRE(closed.status == serve::Status::kOk,
                 "close_session failed: " << closed.message);
  JIGSAW_REQUIRE(closed.frames == result.ok,
                 "session close reports " << closed.frames << " frames, "
                                          << result.ok << " completed OK");
  result.total_iterations = closed.total_iterations;

  if (result.ok > 0) {
    result.mean_nrmse = nrmse_sum / static_cast<double>(result.ok);
  }
  std::sort(latencies.begin(), latencies.end());
  result.p50_ms = percentile(latencies, 0.50);
  result.p99_ms = percentile(latencies, 0.99);

  // Inter-frame jitter: p99 absolute deviation from the median completion
  // interval — the steadiness metric a real-time display cares about.
  if (completions.size() >= 2) {
    std::vector<double> intervals;
    intervals.reserve(completions.size() - 1);
    for (std::size_t i = 1; i < completions.size(); ++i) {
      intervals.push_back(completions[i] - completions[i - 1]);
    }
    std::vector<double> sorted = intervals;
    std::sort(sorted.begin(), sorted.end());
    const double median = percentile(sorted, 0.50);
    std::vector<double> dev;
    dev.reserve(intervals.size());
    for (const double d : intervals) dev.push_back(std::fabs(d - median));
    std::sort(dev.begin(), dev.end());
    result.jitter_ms = percentile(dev, 0.99);
  }
  return result;
}

void write_json(const std::string& path, const std::string& tag, bool smoke,
                const std::vector<StreamResult>& results) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  JIGSAW_REQUIRE(f != nullptr, "cannot open " << path << " for writing");
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"schema_version\": 1,\n");
  std::fprintf(f, "  \"tag\": \"%s\",\n", tag.c_str());
  std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(f, "  \"obs_enabled\": %s,\n",
               obs::kEnabled ? "true" : "false");
  std::fprintf(f, "  \"coil_threads\": 1,\n");
  std::fprintf(f, "  \"hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"benchmarks\": [],\n");
  std::fprintf(f, "  \"stream\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const StreamResult& r = results[i];
    std::fprintf(f, "    {\n");
    std::fprintf(f, "      \"name\": \"%s\",\n", r.name.c_str());
    std::fprintf(f, "      \"warm_start\": %s,\n",
                 r.warm_start ? "true" : "false");
    std::fprintf(f, "      \"workers\": %d,\n", r.workers);
    std::fprintf(f, "      \"frames\": %llu,\n",
                 static_cast<unsigned long long>(r.frames));
    std::fprintf(f, "      \"ok\": %llu,\n",
                 static_cast<unsigned long long>(r.ok));
    std::fprintf(f, "      \"timeout\": %llu,\n",
                 static_cast<unsigned long long>(r.timeout));
    std::fprintf(f, "      \"warm_frames\": %llu,\n",
                 static_cast<unsigned long long>(r.warm_frames));
    std::fprintf(f, "      \"guard_trips\": %llu,\n",
                 static_cast<unsigned long long>(r.guard_trips));
    std::fprintf(f, "      \"plan_reuses\": %llu,\n",
                 static_cast<unsigned long long>(r.plan_reuses));
    std::fprintf(f, "      \"total_iterations\": %llu,\n",
                 static_cast<unsigned long long>(r.total_iterations));
    std::fprintf(f, "      \"mean_nrmse\": %.6g,\n", r.mean_nrmse);
    std::fprintf(f, "      \"p50_ms\": %.6g,\n", r.p50_ms);
    std::fprintf(f, "      \"p99_ms\": %.6g,\n", r.p99_ms);
    std::fprintf(f, "      \"jitter_ms\": %.6g\n", r.jitter_ms);
    std::fprintf(f, "    }%s\n", i + 1 == results.size() ? "" : ",");
  }
  std::fprintf(f, "  ],\n");
  const obs::Snapshot snap = obs::snapshot();
  std::fprintf(f, "  \"counters\": {\n");
  std::size_t idx = 0;
  for (const auto& [name, value] : snap.counters) {
    ++idx;
    std::fprintf(f, "    \"%s\": %llu%s\n", name.c_str(),
                 static_cast<unsigned long long>(value),
                 idx == snap.counters.size() ? "" : ",");
  }
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"gauges\": {\n");
  idx = 0;
  for (const auto& [name, value] : snap.gauges) {
    ++idx;
    std::fprintf(f, "    \"%s\": %.12g%s\n", name.c_str(), value,
                 idx == snap.gauges.size() ? "" : ",");
  }
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const CliArgs args(argc, argv,
                       {"smoke", "tag", "out", "workers", "frames", "n",
                        "iters", "engine", "spokes", "window",
                        "spoke-samples"});
    const bool smoke = args.has("smoke");
    const std::string tag =
        args.get("tag", smoke ? "stream-smoke" : "stream");
    const std::string out_path = args.get("out", "BENCH_" + tag + ".json");
    const int workers = static_cast<int>(args.get_int("workers", 2));
    const int frames =
        static_cast<int>(args.get_int("frames", smoke ? 32 : 48));
    const auto n =
        static_cast<std::uint32_t>(args.get_int("n", smoke ? 48 : 96));
    const auto iters = static_cast<std::uint32_t>(args.get_int("iters", 60));
    const std::uint32_t engine =
        serve::engine_code(core::parse_gridder_kind(
            args.get("engine", core::to_string(core::kDefaultEngine))));

    stream::FrameWindow window;
    window.spokes_per_frame = static_cast<int>(args.get_int("spokes", 13));
    window.window_spokes = static_cast<int>(args.get_int("window", 34));
    window.samples_per_spoke = static_cast<int>(
        args.get_int("spoke-samples", static_cast<std::int64_t>(n)));
    const stream::FrameSource source(window, frames);
    const stream::DynamicPhantom phantom;

    // Worker fleet on loopback TCP behind an in-process router — the same
    // topology bench_serve's --workers mode uses. CG tolerance is the
    // binding convergence criterion (the iteration cap is headroom), so
    // warm and cold runs reach the same per-frame accuracy and the
    // iteration count is the honest cost metric.
    std::vector<std::unique_ptr<serve::ReconServer>> fleet;
    std::vector<std::string> specs;
    for (int w = 0; w < workers; ++w) {
      serve::ServeConfig config;
      config.listen = "127.0.0.1:0";
      config.cg_tolerance = 1e-4;
      config.max_iters = 128;
      fleet.push_back(std::make_unique<serve::ReconServer>(config));
      fleet.back()->start();
      specs.push_back(
          serve::to_string(fleet.back()->bound_endpoints().front()));
    }
    serve::RouterConfig rconfig;
    rconfig.listen = "127.0.0.1:0";
    rconfig.workers = specs;
    serve::Router router(rconfig);
    router.start();
    const std::string endpoint =
        serve::to_string(router.bound_endpoints().front());

    std::printf("bench_stream: n=%u frames=%d window=%d/%d workers=%d %s\n",
                n, frames, window.spokes_per_frame, window.window_spokes,
                workers, smoke ? "(smoke)" : "");

    std::vector<StreamResult> results;
    for (const bool warm : {false, true}) {
      results.push_back(run_stream(endpoint, workers, source, phantom, n,
                                   iters, engine, warm));
      const StreamResult& r = results.back();
      std::printf("  %-12s %3llu/%llu ok  p50 %6.2f ms  p99 %6.2f ms  "
                  "jitter %5.2f ms  %llu CG iters  (%llu warm, %llu guard, "
                  "%llu plan reuses)  nrmse %.4f\n",
                  r.name.c_str(), static_cast<unsigned long long>(r.ok),
                  static_cast<unsigned long long>(r.frames), r.p50_ms,
                  r.p99_ms, r.jitter_ms,
                  static_cast<unsigned long long>(r.total_iterations),
                  static_cast<unsigned long long>(r.warm_frames),
                  static_cast<unsigned long long>(r.guard_trips),
                  static_cast<unsigned long long>(r.plan_reuses),
                  r.mean_nrmse);
    }
    router.stop();
    for (auto& w : fleet) w->stop();

    const StreamResult& cold = results[0];
    const StreamResult& warm = results[1];
    // The subsystem's acceptance invariants: warm-start must cut total CG
    // iterations by >= 30% at equal per-frame accuracy (same tolerance;
    // NRMSE parity within 5%).
    JIGSAW_REQUIRE(warm.warm_frames >= warm.frames - 1 - warm.guard_trips,
                   "only " << warm.warm_frames << " of " << warm.frames
                           << " frames warm-started");
    JIGSAW_REQUIRE(
        warm.total_iterations * 10 <= cold.total_iterations * 7,
        "warm run spent " << warm.total_iterations << " CG iterations vs "
                          << cold.total_iterations
                          << " cold — less than the required 30% savings");
    JIGSAW_REQUIRE(warm.mean_nrmse <= cold.mean_nrmse * 1.05 + 1e-12,
                   "warm NRMSE " << warm.mean_nrmse
                                 << " worse than cold " << cold.mean_nrmse);

    write_json(out_path, tag, smoke, results);
    std::printf("bench_stream: wrote %s (warm saved %.1f%% of CG "
                "iterations)\n",
                out_path.c_str(),
                100.0 * (1.0 - static_cast<double>(warm.total_iterations) /
                                   static_cast<double>(
                                       std::max<std::uint64_t>(
                                           1, cold.total_iterations))));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
