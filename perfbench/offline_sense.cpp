// offline-sense: batch reconstruction of a seeded synthetic 8-coil radial
// JKSD acquisition of many slices through data::recon_dataset — Pipe-Menon
// DCF, estimated coil maps and weighted CG-SENSE with a fixed iteration cap,
// one thread. Every recon_dataset call reconstructs the whole acquisition;
// its latency sample is the call's time per slice.
//
// The untraced pass times the recon_dataset calls. The weighted SENSE
// normal operator is internal to src/data, so the traced pass makes the
// same public calls on the same chunks — reader, plan, DCF, coil maps and
// the NuFFTs of a CG solve — under "pb.*" spans; run.py scales their
// per-call times by the call counts the untraced pass's counters report.
// The replay runs once untraced before the tracer is armed, which gives
// the tracing overhead, and every replayed slice must match the image
// recon_dataset made of it.
#include <cmath>
#include <stdexcept>

#include "bench.hpp"
#include "core/density.hpp"
#include "core/recon.hpp"
#include "data/dataset.hpp"
#include "data/driver.hpp"
#include "data/estimate.hpp"
#include "data/synthetic.hpp"
#include "fft/plan_cache.hpp"

namespace perfbench {
namespace {

namespace core = jigsaw::core;
namespace data = jigsaw::data;
namespace obs = jigsaw::obs;

constexpr std::int64_t kN = 64;          // grid 128: the radix-2 FFT path
constexpr int kCoils = 8;
constexpr std::size_t kSlices = 32;      // slices (chunks) per acquisition
constexpr std::int64_t kSamples = 4096;  // radial samples per slice
constexpr int kIters = 4;                // CG cap; tolerance 0 runs all
constexpr double kNrmseBound = 0.3;      // per slice, against the phantom
constexpr double kMatchTol = 1e-9;       // replay vs recon_dataset, rel-L2
constexpr int kSetups = 8;

data::ReconDatasetOptions recon_options() {
  data::ReconDatasetOptions o;
  o.dcf = data::DcfMode::kPipeMenon;
  o.iters = kIters;
  o.tolerance = 0.0;
  o.gridding.threads = 1;
  return o;
}

data::SyntheticOptions acquisition(std::uint64_t seed, int slices) {
  data::SyntheticOptions g;
  g.n = kN;
  g.coils = kCoils;
  g.chunks = slices;
  g.samples_per_chunk = kSamples;
  g.traj = jigsaw::trajectory::TrajectoryType::Radial;
  g.noise = 0.01;
  g.seed = seed;
  g.gridding.threads = 1;
  return g;
}

/// One chunk through the public calls recon_dataset makes, each under a
/// span: plan build, DCF, coil maps, then weighted CG-SENSE whose NuFFTs
/// are timed one by one. Returns the magnitude image.
std::vector<c64> traced_slice(const data::Chunk& chunk,
                              const data::ReconDatasetOptions& o,
                              Report& report) {
  std::unique_ptr<core::NufftPlan<2>> plan;
  {
    obs::Span span("pb.plan");
    plan = std::make_unique<core::NufftPlan<2>>(kN, chunk.typed_coords<2>(),
                                                o.gridding);
  }
  std::vector<double> w;
  {
    obs::Span span("pb.dcf");
    w = core::pipe_menon_weights<2>(plan->gridder(), plan->coords(),
                                    o.pipe_menon);
  }
  std::vector<std::vector<c64>> y(kCoils);
  for (int c = 0; c < kCoils; ++c) y[c] = chunk.coil_values(c);

  const CounterDelta coilmap_calls;
  core::CoilMaps maps;
  {
    obs::Span span("pb.coilmap");
    maps = data::estimate_coil_maps(*plan, y, w, o.estimate);
  }
  report.add("coilmap.nufft_calls", coilmap_calls.get("nufft.adjoints") +
                                        coilmap_calls.get("nufft.forwards"));

  const CounterDelta solve_work;
  TimedNufft nufft(*plan, report, "traced");
  const std::size_t pixels = static_cast<std::size_t>(kN * kN);
  const auto weight = [&](std::vector<c64>& v) {
    for (std::size_t j = 0; j < v.size(); ++j) v[j] *= w[j];
  };
  std::vector<c64> x(pixels);
  {
    obs::Span span("pb.solve");
    std::vector<c64> b(pixels);
    for (int c = 0; c < kCoils; ++c) {
      std::vector<c64> wy = y[c];
      weight(wy);
      const auto img = nufft.adjoint(wy);
      for (std::size_t p = 0; p < pixels; ++p) {
        b[p] += std::conj(maps.map(c)[p]) * img[p];
      }
    }
    const auto gram = [&](const std::vector<c64>& v) {
      std::vector<c64> out(pixels), sx(pixels);
      for (int c = 0; c < kCoils; ++c) {
        for (std::size_t p = 0; p < pixels; ++p) sx[p] = maps.map(c)[p] * v[p];
        auto f = nufft.forward(sx);
        weight(f);
        const auto img = nufft.adjoint(f);
        for (std::size_t p = 0; p < pixels; ++p) {
          out[p] += std::conj(maps.map(c)[p]) * img[p];
        }
      }
      return out;
    };
    core::conjugate_gradient(gram, b, x, o.iters, o.tolerance);
  }
  report.add("traced.direct.interpolations",
             solve_work.sum("grid.", ".interpolations"));
  report.add("traced.cg.iterations", solve_work.get("cg.iterations"));
  for (auto& v : x) v = std::abs(v);
  return x;
}

}  // namespace

void run_offline_sense(const RunOptions& opt, Report& report) {
  const std::string file = opt.work_dir + "/offline-sense.jksd";
  const std::string warmup = opt.work_dir + "/offline-sense-warmup.jksd";
  data::generate_synthetic(file, acquisition(opt.seed * 1000,
                                             static_cast<int>(kSlices)));
  data::generate_synthetic(warmup,
                           acquisition(opt.seed * 1000 + kSlices, 1));
  const auto o = recon_options();

  // Set-up: reconstruct a one-slice acquisition with cold FFT plan caches.
  CpuRotation cpus;
  for (int s = 0; s < kSetups; ++s) {
    cpus.next();
    jigsaw::fft::FftPlanCache::global().clear();
    const auto t0 = Clock::now();
    data::recon_dataset(warmup, o);
    report.setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  const double untraced_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  const CounterDelta counters;
  const auto start = Clock::now();
  double busy = 0.0;
  std::uint64_t slices = 0;
  std::vector<std::vector<c64>> images(kSlices);  // first call's images
  while (seconds_between(start, Clock::now()) < untraced_s) {
    cpus.next();
    const auto t0 = Clock::now();
    const auto result = data::recon_dataset(file, o);
    const double dt = seconds_between(t0, Clock::now());
    busy += dt;
    report.check(result.report.rejects.empty(), "0 chunks rejected",
                 std::to_string(result.report.rejects.size()) + " rejected");
    report.check(result.chunks.size() == kSlices, "every slice was read",
                 std::to_string(result.chunks.size()) + " chunks");
    for (const auto& ch : result.chunks) {
      report.check(ch.iterations == kIters, "CG ran the iteration cap",
                   std::to_string(ch.iterations) + " iterations");
      const bool good = ch.iterations == kIters && ch.nrmse >= 0.0 &&
                        ch.nrmse <= kNrmseBound && ch.index < kSlices;
      report.check(good, "nrmse within bound", std::to_string(ch.nrmse));
      report.nrmse.push_back(ch.nrmse);
      if (good) {
        ++report.on_time;
        if (images[ch.index].empty()) {
          images[ch.index].assign(ch.image.begin(), ch.image.end());
        }
      } else {
        ++report.failed;
      }
    }
    // A slice that was not read is attempted and failed.
    report.attempted += kSlices;
    if (result.chunks.size() < kSlices) {
      report.failed += kSlices - result.chunks.size();
    }
    report.latencies_ms.push_back(1e3 * dt / kSlices);
    slices += result.chunks.size();
  }
  report.wall_s = busy;
  report.values["untraced.ops"] = static_cast<double>(slices);
  report.values["untraced.wall_s"] = busy;
  counters.record(report, "untraced");
  if (!opt.trace) return;

  // Every slice of the acquisition through traced_slice, checked against
  // recon_dataset's image of it.
  const auto replay = [&](Report& into) {
    cpus.next();
    data::DatasetReader reader(file);
    data::Chunk chunk;
    std::uint64_t replayed = 0;
    for (;;) {
      bool more = false;
      {
        obs::Span span("pb.read");
        more = reader.next(chunk);
      }
      if (!more) break;
      const auto image = traced_slice(chunk, o, into);
      const double err = chunk.index < kSlices
                             ? rel_l2(image, images[chunk.index])
                             : INFINITY;
      report.check(err <= kMatchTol, "replayed slice matches recon_dataset",
                   "slice " + std::to_string(chunk.index) + " rel-L2 " +
                       std::to_string(err));
      ++replayed;
    }
    return replayed;
  };

  Report untraced_replay;  // its accounting is not reported
  const auto r_start = Clock::now();
  report.values["replay.ops"] = static_cast<double>(replay(untraced_replay));
  const double replay_s = seconds_between(r_start, Clock::now());
  report.values["replay.wall_s"] = replay_s;

  report.trace_path = opt.work_dir + "/offline-sense.trace.json";
  std::uint64_t traced = 0;
  const auto t_start = Clock::now();
  obs::trace_start();
  do {
    traced += replay(report);
  } while (seconds_between(t_start, Clock::now()) <
           opt.seconds / 2 - replay_s);
  report.values["traced.wall_s"] = seconds_between(t_start, Clock::now());
  obs::trace_stop_write(report.trace_path);
  report.values["traced.ops"] = static_cast<double>(traced);
}

}  // namespace perfbench
