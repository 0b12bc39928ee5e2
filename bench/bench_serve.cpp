// Closed-loop throughput/latency benchmark for the reconstruction service.
//
// C client threads each submit same-geometry adjoint requests back-to-back
// (closed loop: next request issues when the previous reply lands) through
// the in-process ServeSession — the full admission/batching/plan-pool
// pipeline without socket noise. Reported per client count: requests/s,
// p50/p99 latency, and the scheduler's batching/plan-pool counters. Output
// is a BENCH_<tag>.json whose "serve" block is validated by
// scripts/validate_bench.py against scripts/bench_schema.json.
//
//   bench_serve [--smoke] [--tag ci-serve] [--out BENCH_serve.json]
//               [--threads 2] [--n 64] [--samples 8192]
//               [--engine serial|slice-dice|auto|...] [--workers N]
//
// --engine auto lets each worker resolve the engine by plan reuse
// (core::resolve_auto); each serve block then reports the CONCRETE engine
// plus "tuned": true, so an auto run and a default run are directly
// comparable.
//
// --workers N switches to the scale-out topology: N real jigsaw_serve
// workers on loopback TCP behind an in-process Router, closed-loop clients
// speaking the JSRV wire protocol end to end. Requests cycle through
// several geometry classes; rendezvous sharding pins each class to one
// worker, so each serve block's "per_worker" array shows one plan build
// per geometry class per worker (serve.plan_builds / serve.tuned_plans).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "obs/obs.hpp"
#include "serve/client.hpp"
#include "serve/router.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "trajectory/phantom.hpp"
#include "trajectory/trajectory.hpp"

namespace {

using namespace jigsaw;

/// One worker's share of a routed run (scale-out mode only).
struct WorkerBench {
  std::string endpoint;
  std::uint64_t requests = 0;
  std::uint64_t ok = 0;
  std::uint64_t plan_builds = 0;
  std::uint64_t tuned_plans = 0;
};

struct ServeResult {
  std::string name;
  int clients = 0;
  std::uint64_t requests = 0;
  std::uint64_t ok = 0;
  std::uint64_t timeout = 0;
  std::uint64_t rejected = 0;
  double rps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::uint64_t plan_builds = 0;
  std::uint64_t batches = 0;
  std::uint64_t batched_jobs = 0;
  std::string engine;  // concrete engine the plans ran on (resolved when
                       // the request asked for auto)
  bool tuned = false;  // true when plans resolved engine=auto
  int workers = 0;                      // routed mode: worker tier size
  std::vector<WorkerBench> per_worker;  // routed mode: per-worker shares
};

double percentile(std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

/// The engine a one-shot adjoint plan of side n runs on: engine=auto
/// resolves by core::resolve_auto, as the workers' plan pools do.
std::string resolved_engine(core::GridderKind kind) {
  core::GridderOptions options;
  options.kind = kind;
  return core::to_string(core::resolve_auto(options, /*reused=*/false).kind);
}

ServeResult run_closed_loop(int clients, int requests_per_client,
                            std::int64_t n,
                            const std::vector<Coord<2>>& coords,
                            const std::vector<c64>& values,
                            unsigned exec_threads,
                            core::GridderKind engine_kind) {
  serve::ServeConfig config;
  config.max_queue = static_cast<std::size_t>(clients) * 2 + 8;
  config.exec_threads = exec_threads;
  serve::ServeSession session(config);

  std::vector<std::vector<double>> latencies(
      static_cast<std::size_t>(clients));
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      auto& lat = latencies[static_cast<std::size_t>(c)];
      lat.reserve(static_cast<std::size_t>(requests_per_client));
      for (int r = 0; r < requests_per_client; ++r) {
        serve::ReconJob job;
        job.options.kind = engine_kind;
        job.options.width = 4;
        job.n = n;
        job.samples.coords = coords;
        job.samples.values = values;
        job.client_tag = static_cast<std::uint64_t>(c);
        const auto s0 = std::chrono::steady_clock::now();
        const serve::ReconOutcome outcome = session.recon(std::move(job));
        const double ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - s0)
                              .count();
        JIGSAW_REQUIRE(outcome.status == serve::Status::kOk,
                       "closed-loop request failed: "
                           << serve::to_string(outcome.status) << " "
                           << outcome.message);
        lat.push_back(ms);
      }
    });
  }
  for (auto& t : threads) t.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  session.drain();

  std::vector<double> all;
  for (const auto& lat : latencies) {
    all.insert(all.end(), lat.begin(), lat.end());
  }
  std::sort(all.begin(), all.end());

  const serve::EngineCounts counts = session.counts();
  ServeResult result;
  result.name = "closed-loop/clients" + std::to_string(clients);
  result.clients = clients;
  result.requests = counts.submitted;
  result.ok = counts.ok;
  result.timeout = counts.timeout;
  result.rejected = counts.rejected;
  result.rps = static_cast<double>(all.size()) / elapsed;
  result.p50_ms = percentile(all, 0.50);
  result.p99_ms = percentile(all, 0.99);
  result.plan_builds = counts.plan_builds;
  result.batches = counts.batches;
  result.batched_jobs = counts.batched_jobs;
  result.tuned = counts.tuned_plans > 0;
  result.engine = resolved_engine(engine_kind);
  return result;
}

ServeResult run_routed_loop(int workers, int clients, int requests_per_client,
                            std::int64_t n, std::int64_t m_base,
                            unsigned exec_threads,
                            core::GridderKind engine_kind) {
  // Several geometry classes (distinct N — the trajectory generator rounds
  // M to whole spokes, so distinct-M classes could collide): rendezvous
  // sharding pins each class to one worker, and repeats of a class must hit
  // that worker's plan pool — one plan build per class fleet-wide.
  constexpr int kGeometries = 3;
  std::vector<serve::ReconRequestWire> geometry;
  geometry.reserve(kGeometries);
  for (int g = 0; g < kGeometries; ++g) {
    serve::ReconRequestWire req;
    req.engine = static_cast<std::uint32_t>(engine_kind);
    req.n = static_cast<std::uint32_t>(n + 16 * g);
    req.kernel_width = 4;
    req.client_tag = static_cast<std::uint64_t>(g);
    req.coords =
        trajectory::make_2d(trajectory::TrajectoryType::Radial, m_base);
    req.values = trajectory::kspace_samples(
        trajectory::shepp_logan(), req.coords, static_cast<int>(req.n));
    geometry.push_back(std::move(req));
  }

  std::vector<std::unique_ptr<serve::ReconServer>> fleet;
  std::vector<std::string> specs;
  for (int w = 0; w < workers; ++w) {
    serve::ServeConfig config;
    config.listen = "127.0.0.1:0";
    config.max_queue = static_cast<std::size_t>(clients) * 2 + 8;
    config.exec_threads = exec_threads;
    fleet.push_back(std::make_unique<serve::ReconServer>(config));
    fleet.back()->start();
    specs.push_back(serve::to_string(fleet.back()->bound_endpoints().front()));
  }
  serve::RouterConfig rconfig;
  rconfig.listen = "127.0.0.1:0";
  rconfig.workers = specs;
  serve::Router router(rconfig);
  router.start();
  const std::string endpoint =
      serve::to_string(router.bound_endpoints().front());

  std::vector<std::vector<double>> latencies(
      static_cast<std::size_t>(clients));
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      serve::ServeClient client(endpoint);
      auto& lat = latencies[static_cast<std::size_t>(c)];
      lat.reserve(static_cast<std::size_t>(requests_per_client));
      for (int r = 0; r < requests_per_client; ++r) {
        const auto s0 = std::chrono::steady_clock::now();
        const serve::ReconReplyWire reply =
            client.recon(geometry[(c + r) % kGeometries]);
        const double ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - s0)
                              .count();
        JIGSAW_REQUIRE(reply.status == serve::Status::kOk,
                       "routed closed-loop request failed: "
                           << serve::to_string(reply.status) << " "
                           << reply.message);
        lat.push_back(ms);
      }
    });
  }
  for (auto& t : threads) t.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  router.stop();

  std::vector<double> all;
  for (const auto& lat : latencies) {
    all.insert(all.end(), lat.begin(), lat.end());
  }
  std::sort(all.begin(), all.end());

  ServeResult result;
  result.name = "routed/workers" + std::to_string(workers) + "/clients" +
                std::to_string(clients);
  result.clients = clients;
  result.workers = workers;
  result.rps = static_cast<double>(all.size()) / elapsed;
  result.p50_ms = percentile(all, 0.50);
  result.p99_ms = percentile(all, 0.99);
  result.engine = resolved_engine(engine_kind);
  for (int w = 0; w < workers; ++w) {
    const serve::EngineCounts c = fleet[static_cast<std::size_t>(w)]
                                      ->engine()
                                      .counts();
    WorkerBench wb;
    wb.endpoint = specs[static_cast<std::size_t>(w)];
    wb.requests = c.submitted;
    wb.ok = c.ok;
    wb.plan_builds = c.plan_builds;
    wb.tuned_plans = c.tuned_plans;
    result.requests += c.submitted;
    result.ok += c.ok;
    result.timeout += c.timeout;
    result.rejected += c.rejected;
    result.plan_builds += c.plan_builds;
    result.batches += c.batches;
    result.batched_jobs += c.batched_jobs;
    result.tuned = result.tuned || c.tuned_plans > 0;
    result.per_worker.push_back(std::move(wb));
  }
  return result;
}

void write_json(const std::string& path, const std::string& tag, bool smoke,
                unsigned exec_threads,
                const std::vector<ServeResult>& results) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  JIGSAW_REQUIRE(f != nullptr, "cannot open " << path << " for writing");
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"schema_version\": 1,\n");
  std::fprintf(f, "  \"tag\": \"%s\",\n", tag.c_str());
  std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(f, "  \"obs_enabled\": %s,\n",
               obs::kEnabled ? "true" : "false");
  std::fprintf(f, "  \"coil_threads\": %u,\n", exec_threads);
  std::fprintf(f, "  \"hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"benchmarks\": [],\n");
  std::fprintf(f, "  \"serve\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ServeResult& r = results[i];
    std::fprintf(f, "    {\n");
    std::fprintf(f, "      \"name\": \"%s\",\n", r.name.c_str());
    std::fprintf(f, "      \"clients\": %d,\n", r.clients);
    std::fprintf(f, "      \"requests\": %llu,\n",
                 static_cast<unsigned long long>(r.requests));
    std::fprintf(f, "      \"ok\": %llu,\n",
                 static_cast<unsigned long long>(r.ok));
    std::fprintf(f, "      \"timeout\": %llu,\n",
                 static_cast<unsigned long long>(r.timeout));
    std::fprintf(f, "      \"rejected\": %llu,\n",
                 static_cast<unsigned long long>(r.rejected));
    std::fprintf(f, "      \"rps\": %.6g,\n", r.rps);
    std::fprintf(f, "      \"p50_ms\": %.6g,\n", r.p50_ms);
    std::fprintf(f, "      \"p99_ms\": %.6g,\n", r.p99_ms);
    std::fprintf(f, "      \"plan_builds\": %llu,\n",
                 static_cast<unsigned long long>(r.plan_builds));
    std::fprintf(f, "      \"batches\": %llu,\n",
                 static_cast<unsigned long long>(r.batches));
    std::fprintf(f, "      \"batched_jobs\": %llu,\n",
                 static_cast<unsigned long long>(r.batched_jobs));
    std::fprintf(f, "      \"engine\": \"%s\",\n", r.engine.c_str());
    std::fprintf(f, "      \"tuned\": %s%s\n", r.tuned ? "true" : "false",
                 r.per_worker.empty() ? "" : ",");
    if (!r.per_worker.empty()) {
      std::fprintf(f, "      \"workers\": %d,\n", r.workers);
      std::fprintf(f, "      \"per_worker\": [\n");
      for (std::size_t w = 0; w < r.per_worker.size(); ++w) {
        const WorkerBench& wb = r.per_worker[w];
        std::fprintf(f, "        {\"endpoint\": \"%s\", \"requests\": %llu, "
                     "\"ok\": %llu, \"plan_builds\": %llu, "
                     "\"tuned_plans\": %llu}%s\n",
                     wb.endpoint.c_str(),
                     static_cast<unsigned long long>(wb.requests),
                     static_cast<unsigned long long>(wb.ok),
                     static_cast<unsigned long long>(wb.plan_builds),
                     static_cast<unsigned long long>(wb.tuned_plans),
                     w + 1 == r.per_worker.size() ? "" : ",");
      }
      std::fprintf(f, "      ]\n");
    }
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
                       {"smoke", "tag", "out", "threads", "n", "samples",
                        "engine", "workers"});
    const bool smoke = args.has("smoke");
    const std::string tag = args.get("tag", smoke ? "serve-smoke" : "serve");
    const std::string out_path = args.get("out", "BENCH_" + tag + ".json");
    const auto exec_threads =
        static_cast<unsigned>(args.get_int("threads", 2));
    const std::int64_t n = args.get_int("n", smoke ? 48 : 64);
    const std::int64_t m = args.get_int("samples", smoke ? 4000 : 8192);
    const core::GridderKind engine_kind =
        core::parse_gridder_kind(
            args.get("engine", core::to_string(core::kDefaultEngine)));
    const int requests_per_client = smoke ? 20 : 100;
    const std::vector<int> client_counts =
        smoke ? std::vector<int>{1, 4} : std::vector<int>{1, 2, 4, 8};

    const auto coords =
        trajectory::make_2d(trajectory::TrajectoryType::Radial, m);
    const auto values = trajectory::kspace_samples(trajectory::shepp_logan(),
                                                   coords,
                                                   static_cast<int>(n));

    const int workers = static_cast<int>(args.get_int("workers", 0));

    std::printf("bench_serve: n=%lld m=%zu lanes=%u engine=%s workers=%d %s\n",
                static_cast<long long>(n), coords.size(), exec_threads,
                core::to_string(engine_kind).c_str(), workers,
                smoke ? "(smoke)" : "");
    std::vector<ServeResult> results;
    for (const int clients : client_counts) {
      results.push_back(
          workers > 0
              ? run_routed_loop(workers, clients, requests_per_client, n, m,
                                exec_threads, engine_kind)
              : run_closed_loop(clients, requests_per_client, n, coords,
                                values, exec_threads, engine_kind));
      const ServeResult& r = results.back();
      std::printf("  %-22s %6.1f req/s  p50 %6.2f ms  p99 %6.2f ms  "
                  "batches %llu (fused jobs %llu), plans %llu, engine %s%s\n",
                  r.name.c_str(), r.rps, r.p50_ms, r.p99_ms,
                  static_cast<unsigned long long>(r.batches),
                  static_cast<unsigned long long>(r.batched_jobs),
                  static_cast<unsigned long long>(r.plan_builds),
                  r.engine.c_str(), r.tuned ? " (tuned)" : "");
      for (const WorkerBench& wb : r.per_worker) {
        std::printf("    worker %-21s %5llu requests, %llu plan builds, "
                    "%llu tuned\n",
                    wb.endpoint.c_str(),
                    static_cast<unsigned long long>(wb.requests),
                    static_cast<unsigned long long>(wb.plan_builds),
                    static_cast<unsigned long long>(wb.tuned_plans));
      }
    }
    write_json(out_path, tag, smoke, exec_threads, results);
    std::printf("bench_serve: wrote %s\n", out_path.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
