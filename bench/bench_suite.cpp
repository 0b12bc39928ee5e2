// bench_suite — unified performance/regression harness.
//
// One binary exercises every gridding engine (adjoint + forward, 2D and
// 3D), the NuFFT with per-phase breakdown, end-to-end iterative recon
// (direct and Toeplitz Gram), and multi-coil CG-SENSE with the serial coil
// loop vs the coil-parallel path. Results are emitted as machine-readable
// BENCH_<tag>.json for scripts/bench_compare.py to diff against a committed
// baseline — the perf trajectory every later optimization PR is measured
// on (see docs/benchmarking.md for the schema and the refresh policy).
//
//   bench_suite [--smoke] [--tag TAG] [--out FILE] [--coil-threads T]
//               [--coils C]
//
// --smoke shrinks every problem so the suite finishes in CI time while
// keeping each timed region long enough to be meaningful on one core.
// Checksums are seeded and deterministic: a checksum drift between two
// runs of the same code is a correctness bug, not noise.
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <functional>
#include <memory>

#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/batch.hpp"
#include "data/driver.hpp"
#include "data/synthetic.hpp"
#include "fft/fft.hpp"
#include "core/gridder.hpp"
#include "core/metrics.hpp"
#include "core/nufft.hpp"
#include "core/recon.hpp"
#include "core/sense.hpp"
#include "kernels/simd/simd.hpp"
#include "obs/obs.hpp"
#include "trajectory/phantom.hpp"
#include "trajectory/trajectory.hpp"

using namespace jigsaw;

namespace {

struct Entry {
  std::string name;
  int dim = 0;
  std::int64_t n = 0;
  std::int64_t m = 0;
  double seconds = 0.0;
  std::vector<std::pair<std::string, double>> phases;
  double checksum = 0.0;
  std::vector<std::pair<std::string, double>> extra;
  // Non-empty only on "/auto/" entries: the concrete engine auto resolved
  // to, in kEngines spelling. Lets
  // bench_compare.py work-gate the entry against that engine's own
  // baseline counters instead of exempting it wholesale.
  std::string resolved_engine;
  // Registry counter deltas for ONE invocation of the workload (captured
  // outside the timing loop — time_best's rep count varies run to run, so
  // counting inside it would make these nondeterministic).
  std::vector<std::pair<std::string, std::uint64_t>> counters;
};

/// Run `fn` exactly once and return the global counter deltas it produced.
/// Doubles as the warm-up invocation for the timing loop that follows.
std::vector<std::pair<std::string, std::uint64_t>> counted_run(
    const std::function<void()>& fn) {
  if constexpr (!obs::kEnabled) {
    fn();
    return {};
  }
  const obs::Snapshot before = obs::snapshot();
  fn();
  const obs::Snapshot after = obs::snapshot();
  std::vector<std::pair<std::string, std::uint64_t>> delta;
  for (const auto& [name, value] : after.counters) {
    const auto it = before.counters.find(name);
    const std::uint64_t prev = it == before.counters.end() ? 0 : it->second;
    if (value > prev) delta.emplace_back(name, value - prev);
  }
  return delta;
}

struct EngineSpec {
  const char* name;
  core::GridderKind kind;
  bool model_faithful;
};

const EngineSpec kEngines[] = {
    {"serial", core::GridderKind::Serial, false},
    {"output-driven", core::GridderKind::OutputDriven, false},
    {"binning", core::GridderKind::Binning, false},
    {"slice-dice", core::GridderKind::SliceDice, false},
    {"slice-dice-model", core::GridderKind::SliceDice, true},
    {"sparse", core::GridderKind::Sparse, false},
    {"float", core::GridderKind::FloatSerial, false},
    {"jigsaw", core::GridderKind::Jigsaw, false},
};

/// The bench-local name of an engine — kEngines spelling ("slice-dice",
/// not "slice-and-dice"). bench_compare.py uses it to work-gate /auto/
/// entries against the matching concrete entry's counters.
std::string bench_engine_name(core::GridderKind kind) {
  for (const EngineSpec& spec : kEngines) {
    if (spec.kind == kind && !spec.model_faithful) return spec.name;
  }
  return core::to_string(kind);
}

template <int D>
core::SampleSet<D> random_samples(std::int64_t m, std::uint64_t seed) {
  Rng rng(seed);
  core::SampleSet<D> s;
  s.coords.resize(static_cast<std::size_t>(m));
  s.values.resize(static_cast<std::size_t>(m));
  for (std::int64_t j = 0; j < m; ++j) {
    for (int d = 0; d < D; ++d) {
      s.coords[static_cast<std::size_t>(j)][static_cast<std::size_t>(d)] =
          rng.uniform(-0.5, 0.5);
    }
    s.values[static_cast<std::size_t>(j)] =
        c64(rng.uniform(-1, 1), rng.uniform(-1, 1));
  }
  return s;
}

std::string size_suffix(std::int64_t n, std::int64_t m) {
  return "/n" + std::to_string(n) + "/m" + std::to_string(m);
}

/// Gridding adjoint + forward for one engine at one problem size.
template <int D>
void bench_gridder(const EngineSpec& spec, std::int64_t n, std::int64_t m,
                   int width, std::vector<Entry>& out) {
  core::GridderOptions opt;
  opt.kind = spec.kind;
  opt.model_faithful_checks = spec.model_faithful;
  opt.width = width;
  opt.tile = 8;
  auto g = core::make_gridder<D>(n, opt);
  const auto in = random_samples<D>(m, 42 + static_cast<std::uint64_t>(n));
  core::Grid<D> grid(g->grid_size());

  const std::string base =
      "grid" + std::to_string(D) + "d/";
  {
    Entry e;
    e.name = base + "adjoint/" + spec.name + size_suffix(n, m);
    e.dim = D;
    e.n = n;
    e.m = m;
    e.counters = counted_run([&] { g->adjoint(in, grid); });
    e.seconds = time_best([&] { g->adjoint(in, grid); }, 0.1, 3);
    e.phases = {{"grid", e.seconds - 0.0}};
    e.checksum = core::norm2(
        std::vector<c64>(grid.data(), grid.data() + grid.total()));
    e.extra = {{"boundary_checks",
                static_cast<double>(g->stats().boundary_checks)},
               {"interpolations",
                static_cast<double>(g->stats().interpolations)}};
    out.push_back(std::move(e));
  }
  {
    core::SampleSet<D> fwd;
    fwd.coords = in.coords;
    fwd.values.assign(in.coords.size(), c64{});
    Entry e;
    e.name = base + "forward/" + spec.name + size_suffix(n, m);
    e.dim = D;
    e.n = n;
    e.m = m;
    e.counters = counted_run([&] { g->forward(grid, fwd); });
    e.seconds = time_best([&] { g->forward(grid, fwd); }, 0.1, 3);
    e.checksum = core::norm2(fwd.values);
    out.push_back(std::move(e));
  }
}

/// engine=auto as a one-shot gridding pass resolves it (core::resolve_auto),
/// timed like any other engine. bench_compare.py work-gates the entries
/// against the resolved engine's own entries; the checksum gate applies as
/// everywhere.
void bench_auto(std::int64_t n, std::int64_t m, int width,
                std::vector<Entry>& out) {
  core::GridderOptions opt;
  opt.kind = core::GridderKind::Auto;
  opt.width = width;
  opt.tile = 8;
  const auto resolved = core::resolve_auto(opt, /*reused=*/false);
  const std::string resolved_name = bench_engine_name(resolved.kind);
  std::printf("auto: n%lld -> %s\n", static_cast<long long>(n),
              resolved_name.c_str());

  auto g = core::make_gridder<2>(n, resolved);
  const auto in = random_samples<2>(m, 42 + static_cast<std::uint64_t>(n));
  core::Grid<2> grid(g->grid_size());
  {
    Entry e;
    e.name = "grid2d/adjoint/auto" + size_suffix(n, m);
    e.dim = 2;
    e.n = n;
    e.m = m;
    e.counters = counted_run([&] { g->adjoint(in, grid); });
    e.seconds = time_best([&] { g->adjoint(in, grid); }, 0.1, 3);
    e.checksum = core::norm2(
        std::vector<c64>(grid.data(), grid.data() + grid.total()));
    e.extra = {{"resolved_engine_code",
                static_cast<double>(static_cast<int>(resolved.kind))}};
    e.resolved_engine = resolved_name;
    out.push_back(std::move(e));
  }
  {
    core::SampleSet<2> fwd;
    fwd.coords = in.coords;
    fwd.values.assign(in.coords.size(), c64{});
    Entry e;
    e.name = "grid2d/forward/auto" + size_suffix(n, m);
    e.resolved_engine = resolved_name;
    e.dim = 2;
    e.n = n;
    e.m = m;
    e.counters = counted_run([&] { g->forward(grid, fwd); });
    e.seconds = time_best([&] { g->forward(grid, fwd); }, 0.1, 3);
    e.checksum = core::norm2(fwd.values);
    out.push_back(std::move(e));
  }
}

/// NuFFT adjoint + forward with the per-phase breakdown, on the default
/// engine (entries carry its name).
template <int D>
void bench_nufft(std::int64_t n, std::int64_t m, int width,
                 std::vector<Entry>& out) {
  core::GridderOptions opt;
  opt.width = width;
  opt.tile = 8;
  const std::string engine = bench_engine_name(opt.kind);
  const auto in = random_samples<D>(m, 7);

  core::NufftTimings t;
  std::vector<c64> image;
  std::unique_ptr<core::NufftPlan<D>> plan;
  {
    Entry e;
    e.name = "nufft" + std::to_string(D) + "d/adjoint/" + engine +
             size_suffix(n, m);
    e.dim = D;
    e.n = n;
    e.m = m;
    // Plan construction sits inside the counted (not timed) region so the
    // entry's counters include the FFT plan-cache traffic it causes.
    e.counters = counted_run([&] {
      plan = std::make_unique<core::NufftPlan<D>>(n, in.coords, opt);
      image = plan->adjoint(in.values, &t);
    });
    e.seconds = time_best([&] { image = plan->adjoint(in.values, &t); }, 0.1, 3);
    e.phases = {{"grid", t.grid_seconds},
                {"fft", t.fft_seconds},
                {"apod", t.apod_seconds},
                {"presort", t.presort_seconds}};
    e.checksum = core::norm2(image);
    out.push_back(std::move(e));
  }
  {
    std::vector<c64> samples;
    Entry e;
    e.name = "nufft" + std::to_string(D) + "d/forward/" + engine +
             size_suffix(n, m);
    e.dim = D;
    e.n = n;
    e.m = m;
    e.counters = counted_run([&] { samples = plan->forward(image, &t); });
    e.seconds = time_best([&] { samples = plan->forward(image, &t); }, 0.1, 3);
    e.phases = {{"grid", t.grid_seconds},
                {"fft", t.fft_seconds},
                {"apod", t.apod_seconds},
                {"presort", t.presort_seconds}};
    e.checksum = core::norm2(samples);
    out.push_back(std::move(e));
  }
}

/// A NuFFT's FFT alone: forward and inverse 2D executes on a g^2 grid with
/// the σ=2 band g/2 (the forward input embedded in it, the inverse read
/// back from it). One timed call runs `reps` executes, each on a fresh copy
/// of the input, so that it clears bench_compare.py's 20 ms time-gate floor
/// even in --smoke. The checksum covers the in-band outputs only: the
/// others of a banded inverse are unspecified.
void bench_fft2d(std::size_t g, int reps, std::vector<Entry>& out) {
  const fft::FftNd plan({g, g});
  const std::size_t band = g / 2;
  const auto in_band = [&](std::size_t i) {
    return i < band - band / 2 || i >= g - band / 2;
  };
  const auto in_image = [&](std::size_t lin) {
    return in_band(lin / g) && in_band(lin % g);
  };
  Rng rng(17 + g);
  std::vector<c64> input(g * g);
  for (auto& v : input) v = c64(rng.uniform(-1, 1), rng.uniform(-1, 1));

  for (const fft::Direction dir :
       {fft::Direction::Forward, fft::Direction::Inverse}) {
    const bool forward = dir == fft::Direction::Forward;
    std::vector<c64> source = input;
    for (std::size_t i = 0; i < g * g; ++i) {
      if (forward && !in_image(i)) source[i] = c64{};
    }
    std::vector<c64> work(g * g);
    const auto run = [&] {
      for (int r = 0; r < reps; ++r) {
        work = source;
        plan.execute(work.data(), dir, 1, band);
      }
    };
    Entry e;
    e.name = std::string("fft2d/") + (forward ? "forward" : "inverse") +
             "/g" + std::to_string(g);
    e.dim = 2;
    e.n = static_cast<std::int64_t>(band);
    e.m = 0;
    e.counters = counted_run(run);
    e.seconds = time_best(run, 0.1, 3);
    std::vector<c64> kept;
    for (std::size_t i = 0; i < g * g; ++i) {
      if (in_image(i)) kept.push_back(work[i]);
    }
    e.checksum = core::norm2(kept);
    e.extra = {{"reps", static_cast<double>(reps)}};
    out.push_back(std::move(e));
  }
}

/// End-to-end iterative recon (radial, phantom data), direct and Toeplitz.
void bench_recon(std::int64_t n, int spokes, int per_spoke, int iters,
                 std::vector<Entry>& out) {
  const auto coords = trajectory::radial_2d(spokes, per_spoke);
  const auto kdata = trajectory::kspace_samples(
      trajectory::shepp_logan(), coords, static_cast<int>(n));
  core::GridderOptions opt;
  opt.width = 6;
  opt.tile = 8;
  core::NufftPlan<2> plan(n, coords, opt);

  for (const bool toeplitz : {false, true}) {
    core::CgResult cg;
    std::vector<c64> image;
    Entry e;
    e.name = std::string("recon2d/") + (toeplitz ? "toeplitz" : "cg") +
             size_suffix(n, static_cast<std::int64_t>(coords.size()));
    e.dim = 2;
    e.n = n;
    e.m = static_cast<std::int64_t>(coords.size());
    const auto run = [&] {
      image = core::iterative_recon<2>(plan, kdata, iters, 1e-12, toeplitz, &cg);
    };
    e.counters = counted_run(run);
    e.seconds = time_best(run, 0.25, 4);
    e.checksum = core::norm2(image);
    e.extra = {{"cg_iterations", static_cast<double>(cg.iterations)}};
    out.push_back(std::move(e));
  }
}

/// Multi-coil CG-SENSE: serial coil loop vs the coil-parallel path. The two
/// must agree to the last bit (recorded as nrmse_vs_serial); the speedup is
/// the headline number of this PR's scaling rung.
void bench_sense(std::int64_t n, int coils, unsigned coil_threads, int spokes,
                 int per_spoke, int iters, std::vector<Entry>& out) {
  const auto coords = trajectory::radial_2d(spokes, per_spoke);
  core::GridderOptions opt;
  opt.width = 6;
  opt.tile = 8;
  core::NufftPlan<2> plan(n, coords, opt);
  const auto maps = core::make_birdcage_maps(n, coils);
  const auto truth =
      trajectory::rasterize(trajectory::shepp_logan(), static_cast<int>(n));
  std::vector<c64> truth_c(truth.size());
  for (std::size_t i = 0; i < truth.size(); ++i) truth_c[i] = truth[i];
  const auto y = simulate_multicoil(plan, maps, truth_c);

  const std::string suffix = size_suffix(
      n, static_cast<std::int64_t>(coords.size()) * coils);

  std::vector<c64> serial_image;
  double serial_seconds = 0.0;
  {
    Entry e;
    e.name = "sense2d/serial/coils" + std::to_string(coils) + suffix;
    e.dim = 2;
    e.n = n;
    e.m = static_cast<std::int64_t>(coords.size()) * coils;
    const auto run = [&] {
      serial_image = core::cg_sense(plan, maps, y, iters, 1e-12, nullptr, 1);
    };
    e.counters = counted_run(run);
    e.seconds = serial_seconds = time_best(run, 0.25, 4);
    e.checksum = core::norm2(serial_image);
    out.push_back(std::move(e));
  }
  {
    Entry e;
    e.name = "sense2d/coil-parallel-x" + std::to_string(coil_threads) +
             "/coils" + std::to_string(coils) + suffix;
    e.dim = 2;
    e.n = n;
    e.m = static_cast<std::int64_t>(coords.size()) * coils;
    std::vector<c64> parallel_image;
    const auto run = [&] {
      parallel_image =
          core::cg_sense(plan, maps, y, iters, 1e-12, nullptr, coil_threads);
    };
    e.counters = counted_run(run);
    e.seconds = time_best(run, 0.25, 4);
    e.checksum = core::norm2(parallel_image);
    e.extra = {{"speedup_vs_serial", serial_seconds / e.seconds},
               {"nrmse_vs_serial", core::nrmsd(parallel_image, serial_image)}};
    out.push_back(std::move(e));
  }
}

/// Ingest accounting for the top-level "dataset" JSON block. The schema's
/// semantic gate (validate_bench.py) requires chunks == chunks_ok +
/// chunks_rejected and chunks_ok > 0.
struct DatasetSummary {
  std::uint64_t chunks = 0;
  std::uint64_t chunks_ok = 0;
  std::uint64_t chunks_rejected = 0;
  std::uint64_t samples = 0;
  double mean_nrmse = -1.0;
  double seconds = 0.0;
};

/// Dataset ingest + recon: synthesize a multi-coil JKSD acquisition, then
/// time the full driver path over it — streaming chunked read, Pipe-Menon
/// DCF, data-estimated coil maps, weighted adjoint, RSS combine. The
/// counted region captures the data.* / dcf.* counter families the ingest
/// layer emits; the checksum is the (deterministic) mean NRMSE against the
/// generator's analytic source.
DatasetSummary bench_dataset(bool smoke, std::vector<Entry>& out) {
  const std::string path = "bench_dataset_tmp.jksd";
  data::SyntheticOptions gen;
  gen.n = smoke ? 48 : 96;
  gen.coils = smoke ? 4 : 8;
  gen.chunks = smoke ? 2 : 4;
  gen.samples_per_chunk = smoke ? 4000 : 16000;
  generate_synthetic(path, gen);

  data::ReconDatasetOptions opt;
  opt.gridding.width = 6;
  opt.gridding.tile = 8;
  opt.dcf = data::DcfMode::kPipeMenon;

  data::ReconDatasetResult result;
  const auto run = [&] { result = data::recon_dataset(path, opt); };
  Entry e;
  e.name = "dataset2d/recon/" +
           bench_engine_name(opt.gridding.kind) +
           size_suffix(gen.n, static_cast<std::int64_t>(gen.chunks) *
                                  gen.samples_per_chunk);
  e.dim = 2;
  e.n = gen.n;
  e.m = static_cast<std::int64_t>(gen.chunks) * gen.samples_per_chunk;
  e.counters = counted_run(run);
  e.seconds = time_best(run, 0.1, 2);
  e.checksum = result.mean_nrmse;
  e.extra = {{"chunks_ok", static_cast<double>(result.chunks.size())},
             {"chunks_rejected",
              static_cast<double>(result.report.rejects.size())},
             {"coils", static_cast<double>(result.info.coils)},
             {"mean_nrmse", result.mean_nrmse}};

  DatasetSummary s;
  s.chunks = result.chunks.size() + result.report.rejects.size();
  s.chunks_ok = result.chunks.size();
  s.chunks_rejected = result.report.rejects.size();
  s.samples = result.report.samples_read;
  s.mean_nrmse = result.mean_nrmse;
  s.seconds = e.seconds;
  out.push_back(std::move(e));
  std::remove(path.c_str());
  return s;
}

/// The first "model name" of /proc/cpuinfo, minus characters a JSON
/// string would need escaped ("unknown" when there is none).
std::string cpu_model() {
  std::ifstream info("/proc/cpuinfo");
  for (std::string line; std::getline(info, line);) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) break;
    std::string model;
    for (const char c : line.substr(colon + 1)) {
      if (c != '"' && c != '\\' && static_cast<unsigned char>(c) >= 0x20) {
        model += c;
      }
    }
    const auto first = model.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : model.substr(first);
  }
  return "unknown";
}

void write_json(const std::string& path, const std::string& tag, bool smoke,
                unsigned coil_threads, const std::vector<Entry>& entries,
                const DatasetSummary& dataset) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  JIGSAW_REQUIRE(f != nullptr, "cannot open " << path << " for writing");
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"schema_version\": 1,\n");
  std::fprintf(f, "  \"tag\": \"%s\",\n", tag.c_str());
  std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(f, "  \"obs_enabled\": %s,\n",
               obs::kEnabled ? "true" : "false");
  std::fprintf(f, "  \"coil_threads\": %u,\n", coil_threads);
  std::fprintf(f, "  \"hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  // The host class: bench_compare.py gates wall time only between reports
  // whose machine blocks match.
  std::fprintf(f,
               "  \"machine\": {\"nproc\": \"%u\", \"cpu_model\": \"%s\", "
               "\"simd_isa\": \"%s\", \"build_type\": \"%s\"},\n",
               std::thread::hardware_concurrency(), cpu_model().c_str(),
               kernels::simd::to_string(kernels::simd::active()),
               JIGSAW_BUILD_TYPE);
  std::fprintf(f, "  \"benchmarks\": [\n");
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    std::fprintf(f, "    {\n");
    std::fprintf(f, "      \"name\": \"%s\",\n", e.name.c_str());
    std::fprintf(f, "      \"dim\": %d, \"n\": %lld, \"m\": %lld,\n", e.dim,
                 static_cast<long long>(e.n), static_cast<long long>(e.m));
    std::fprintf(f, "      \"seconds\": %.9g,\n", e.seconds);
    if (!e.resolved_engine.empty()) {
      std::fprintf(f, "      \"resolved_engine\": \"%s\",\n",
                   e.resolved_engine.c_str());
    }
    if (!e.phases.empty()) {
      std::fprintf(f, "      \"phases\": {");
      for (std::size_t p = 0; p < e.phases.size(); ++p) {
        std::fprintf(f, "%s\"%s\": %.9g", p == 0 ? "" : ", ",
                     e.phases[p].first.c_str(), e.phases[p].second);
      }
      std::fprintf(f, "},\n");
    }
    if (!e.extra.empty()) {
      std::fprintf(f, "      \"extra\": {");
      for (std::size_t p = 0; p < e.extra.size(); ++p) {
        std::fprintf(f, "%s\"%s\": %.12g", p == 0 ? "" : ", ",
                     e.extra[p].first.c_str(), e.extra[p].second);
      }
      std::fprintf(f, "},\n");
    }
    if (!e.counters.empty()) {
      std::fprintf(f, "      \"counters\": {\n");
      for (std::size_t p = 0; p < e.counters.size(); ++p) {
        std::fprintf(f, "        \"%s\": %llu%s\n",
                     e.counters[p].first.c_str(),
                     static_cast<unsigned long long>(e.counters[p].second),
                     p + 1 == e.counters.size() ? "" : ",");
      }
      std::fprintf(f, "      },\n");
    }
    std::fprintf(f, "      \"checksum\": %.12g\n", e.checksum);
    std::fprintf(f, "    }%s\n", i + 1 == entries.size() ? "" : ",");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"dataset\": {\n"
               "    \"chunks\": %llu,\n"
               "    \"chunks_ok\": %llu,\n"
               "    \"chunks_rejected\": %llu,\n"
               "    \"samples\": %llu,\n"
               "    \"mean_nrmse\": %.9g,\n"
               "    \"seconds\": %.9g\n"
               "  },\n",
               static_cast<unsigned long long>(dataset.chunks),
               static_cast<unsigned long long>(dataset.chunks_ok),
               static_cast<unsigned long long>(dataset.chunks_rejected),
               static_cast<unsigned long long>(dataset.samples),
               dataset.mean_nrmse, dataset.seconds);
  // Whole-run registry state: everything the process counted, including
  // work outside the per-entry counted regions (setup, warm-ups, reps).
  const obs::Snapshot final_snap = obs::snapshot();
  std::fprintf(f, "  \"counters\": {\n");
  std::size_t idx = 0;
  for (const auto& [name, value] : final_snap.counters) {
    ++idx;
    std::fprintf(f, "    \"%s\": %llu%s\n", name.c_str(),
                 static_cast<unsigned long long>(value),
                 idx == final_snap.counters.size() ? "" : ",");
  }
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"gauges\": {\n");
  idx = 0;
  for (const auto& [name, value] : final_snap.gauges) {
    ++idx;
    std::fprintf(f, "    \"%s\": %.12g%s\n", name.c_str(), value,
                 idx == final_snap.gauges.size() ? "" : ",");
  }
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> flags = {"smoke", "tag", "out",
                                          "coil-threads", "coils",
                                          "trace-json"};
  CliArgs args(argc, argv, flags);  // CliArgs skips argv[0]
  const bool smoke = args.has("smoke");
  const std::string tag = args.get("tag", smoke ? "smoke" : "full");
  const std::string out_path = args.get("out", "BENCH_" + tag + ".json");
  const auto coil_threads =
      static_cast<unsigned>(args.get_int("coil-threads", 8));
  const int coils = static_cast<int>(args.get_int("coils", 8));
  const std::string trace_path = args.get("trace-json", "");
  if (!trace_path.empty()) obs::trace_start();

  std::vector<Entry> entries;

  // Gridding engines. Output-driven is O(M * G^d) by construction (the
  // strawman the paper argues against) and is capped to a small problem so
  // the suite stays runnable; every other engine gets the full size.
  for (const EngineSpec& spec : kEngines) {
    const bool od = spec.kind == core::GridderKind::OutputDriven;
    std::int64_t n2 = smoke ? 64 : 128;
    std::int64_t m2 = smoke ? 32768 : 131072;
    if (od) {
      n2 = 32;
      m2 = 4096;
    }
    bench_gridder<2>(spec, n2, m2, /*width=*/6, entries);

    std::int64_t n3 = smoke ? 8 : 16;
    std::int64_t m3 = smoke ? 8192 : 32768;
    if (od) {
      n3 = 8;
      m3 = 2048;
    }
    bench_gridder<3>(spec, n3, m3, /*width=*/4, entries);
    std::printf("done: gridders/%s\n", spec.name);
  }

  // engine=auto on the main 2D problem.
  bench_auto(smoke ? 64 : 128, smoke ? 32768 : 131072, /*width=*/6, entries);
  std::printf("done: auto\n");

  // NuFFT with phase breakdown (default engine).
  bench_nufft<2>(smoke ? 64 : 128, smoke ? 32768 : 131072, 6, entries);
  bench_nufft<3>(smoke ? 8 : 16, smoke ? 8192 : 32768, 4, entries);
  std::printf("done: nufft\n");

  // The NuFFT's banded FFT at the 2D workloads' grids (128 for n64,
  // 96 for the stream's n48), the same size in --smoke.
  bench_fft2d(128, 256, entries);
  bench_fft2d(96, 256, entries);
  std::printf("done: fft\n");

  // End-to-end iterative recon.
  if (smoke) {
    bench_recon(32, 48, 64, 4, entries);
  } else {
    bench_recon(128, 96, 192, 8, entries);
  }
  std::printf("done: recon\n");

  // Multi-coil CG-SENSE, serial vs coil-parallel.
  if (smoke) {
    bench_sense(64, coils, coil_threads, 32, 64, 3, entries);
  } else {
    bench_sense(128, coils, coil_threads, 64, 128, 6, entries);
  }
  std::printf("done: sense\n");

  // Dataset ingest end to end (JKSD generate -> streaming recon driver).
  const DatasetSummary dataset = bench_dataset(smoke, entries);
  std::printf("done: dataset (%llu/%llu chunks, mean NRMSE %.4f)\n",
              static_cast<unsigned long long>(dataset.chunks_ok),
              static_cast<unsigned long long>(dataset.chunks),
              dataset.mean_nrmse);

  write_json(out_path, tag, smoke, coil_threads, entries, dataset);

  if (!trace_path.empty()) {
    const std::size_t events = obs::trace_stop_write(trace_path);
    std::printf("trace: %zu events -> %s\n", events, trace_path.c_str());
  }

  std::printf("\n%-56s %12s %16s\n", "benchmark", "seconds", "checksum");
  for (const Entry& e : entries) {
    std::printf("%-56s %12.6f %16.8g\n", e.name.c_str(), e.seconds,
                e.checksum);
  }
  std::printf("\n%zu benchmarks -> %s\n", entries.size(), out_path.c_str());
  return 0;
}
