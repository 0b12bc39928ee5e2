// jigsaw_cli — command-line front end to the library.
//
//   jigsaw_cli recon    --n 128 --traj radial --samples 50000
//                       [--engine serial|slice-dice|auto|...]
//                       [--kernel kaiser-bessel]
//                       [--width 6] [--sigma 2.0] [--table 32]
//                       [--dcf ramp|pipe-menon|none] [--iters K]
//                       [--dataset file.jksd [--dcf none|embedded|pipe-menon]]
//                       [--coils C] [--coil-threads T]   multi-coil CG-SENSE
//                       [--sanitize none|strict|drop|clamp]
//                       [--drop-spokes F] [--noise-spikes F]
//                       [--inject-nan F] [--perturb-coords F]
//                       [--bitflip-rate F] [--bitflip-bit B] [--seed S]
//                       [--out recon.pgm]
//   jigsaw_cli grid     --n 128 --traj radial --samples 50000
//                       [--engine ...]       time one gridding pass + stats
//
// --engine auto chooses by plan reuse (core::resolve_auto): sparse-matrix
// when the plan is applied more than once (--iters K > 0, --coils C > 1,
// --dataset), serial for a one-shot grid or adjoint recon. Without --engine
// the engine is core's default (GridderOptions::kind, serial).
//   jigsaw_cli simulate --n 128 --samples 50000 [--3d] [--z-binned]
//                       run the JIGSAW cycle simulator + synthesis estimate
//   jigsaw_cli info     list engines, kernels, trajectories
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>

#include "common/cli.hpp"
#include "common/pgm.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "core/density.hpp"
#include "core/io.hpp"
#include "core/metrics.hpp"
#include "core/nufft.hpp"
#include "core/recon.hpp"
#include "core/sense.hpp"
#include "data/driver.hpp"
#include "energy/asic_model.hpp"
#include "jigsaw/cycle_sim.hpp"
#include "obs/obs.hpp"
#include "robustness/fault_injection.hpp"
#include "trajectory/phantom.hpp"
#include "trajectory/trajectory.hpp"

using namespace jigsaw;

namespace {

kernels::KernelType parse_kernel(const std::string& s) {
  if (s == "kaiser-bessel" || s == "kb") {
    return kernels::KernelType::KaiserBessel;
  }
  if (s == "gaussian") return kernels::KernelType::Gaussian;
  if (s == "bspline") return kernels::KernelType::BSpline;
  if (s == "triangle") return kernels::KernelType::Triangle;
  if (s == "sinc" || s == "sinc-hann") return kernels::KernelType::Sinc;
  throw std::invalid_argument("unknown kernel: " + s);
}

trajectory::TrajectoryType parse_traj(const std::string& s) {
  if (s == "radial") return trajectory::TrajectoryType::Radial;
  if (s == "spiral") return trajectory::TrajectoryType::Spiral;
  if (s == "rosette") return trajectory::TrajectoryType::Rosette;
  if (s == "random") return trajectory::TrajectoryType::Random;
  if (s == "cartesian") return trajectory::TrajectoryType::Cartesian;
  if (s == "golden-radial" || s == "golden") {
    return trajectory::TrajectoryType::GoldenRadial;
  }
  if (s == "vd-spiral") return trajectory::TrajectoryType::VdSpiral;
  if (s == "propeller") return trajectory::TrajectoryType::Propeller;
  throw std::invalid_argument("unknown trajectory: " + s);
}

core::GridderOptions options_from(const CliArgs& args) {
  core::GridderOptions opt;
  // Misspelled engines exit 1 through main()'s catch with the one-line
  // "unknown engine '<name>', valid: ..." message from the parser.
  opt.kind = core::parse_gridder_kind(
      args.get("engine", core::to_string(core::kDefaultEngine)));
  opt.kernel = parse_kernel(args.get("kernel", "kaiser-bessel"));
  opt.width = static_cast<int>(args.get_int("width", 6));
  opt.sigma = args.get_double("sigma", 2.0);
  opt.table_oversampling = static_cast<int>(args.get_int("table", 32));
  opt.tile = static_cast<int>(args.get_int("tile", 8));
  opt.exact_weights = args.has("exact-weights");
  opt.sanitize = robustness::parse_sanitize_policy(args.get("sanitize", "none"));
  opt.soft_error.rate = args.get_double("bitflip-rate", 0.0);
  opt.soft_error.bit = static_cast<int>(args.get_int("bitflip-bit", 12));
  if (args.has("seed")) {
    opt.soft_error.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  }
  return opt;
}

/// Resolve --engine auto by plan reuse (no-op for a concrete engine) and
/// print the decision so scripts can assert on it.
core::GridderOptions resolve_engine(core::GridderOptions opt,
                                    std::int64_t n, bool reused) {
  if (opt.kind != core::GridderKind::Auto) return opt;
  opt = core::resolve_auto(opt, reused);
  std::printf("auto: n%lld -> engine=%s (%s)\n", static_cast<long long>(n),
              core::to_string(opt.kind).c_str(),
              reused ? "reused" : "one-shot");
  return opt;
}

/// Fault-injection spec from the --drop-spokes/--noise-spikes/--inject-nan/
/// --perturb-coords/--seed flags (all fractions default to 0 = off).
robustness::FaultSpec fault_spec_from(const CliArgs& args,
                                      std::int64_t readout_length) {
  robustness::FaultSpec spec;
  spec.drop_fraction = args.get_double("drop-spokes", 0.0);
  spec.readout_length = readout_length;
  spec.noise_spike_fraction = args.get_double("noise-spikes", 0.0);
  spec.nonfinite_fraction = args.get_double("inject-nan", 0.0);
  spec.out_of_range_fraction = args.get_double("perturb-coords", 0.0);
  spec.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  return spec;
}

/// recon --dataset file.jksd: reconstruct an ingested JKSD acquisition
/// chunk by chunk (data/driver.hpp). Corrupt chunks are reported and
/// skipped; exit is 0 as long as at least one chunk reconstructed.
int cmd_recon_dataset(const CliArgs& args) {
  const std::string path = args.get("dataset");
  data::ReconDatasetOptions opt;
  opt.gridding = options_from(args);
  opt.dcf = data::parse_dcf_mode(args.get("dcf", "pipe-menon"));
  opt.iters = static_cast<int>(args.get_int("iters", 0));

  // The header is the source of truth for the coil count; --coils here is
  // a cross-check on what the caller believes they ingested.
  data::DatasetInfo info;
  data::DatasetReader probe(path);
  info = probe.info();
  if (args.has("coils") &&
      args.get_int("coils", info.coils) != info.coils) {
    std::fprintf(stderr,
                 "dataset: header says %d coils, --coils %lld disagrees\n",
                 info.coils,
                 static_cast<long long>(args.get_int("coils", 0)));
    return 2;
  }
  // Every chunk's plan serves its DCF, coil-map and recon phases.
  opt.gridding = resolve_engine(opt.gridding, info.n, /*reused=*/true);

  Timer timer;
  const auto result = data::recon_dataset(path, opt);
  const double secs = timer.seconds();

  std::printf("dataset: %s — %dD n=%lld, %d coils, source %s\n",
              path.c_str(), result.info.dim,
              static_cast<long long>(result.info.n), result.info.coils,
              result.info.source == data::Source::kSheppLogan
                  ? "shepp-logan"
                  : "unknown");
  std::printf("ingest: %llu chunks read (%llu samples), %zu rejected\n",
              static_cast<unsigned long long>(result.report.chunks_read),
              static_cast<unsigned long long>(result.report.samples_read),
              result.report.rejects.size());
  for (const auto& r : result.report.rejects) {
    std::printf("ingest:   chunk slot %llu @ byte %llu: %s\n",
                static_cast<unsigned long long>(r.ordinal),
                static_cast<unsigned long long>(r.offset), r.reason.c_str());
  }
  for (const auto& c : result.chunks) {
    std::printf("chunk %llu: m=%llu, dcf=%s, %d CG iters, NRMSE %.4f\n",
                static_cast<unsigned long long>(c.index),
                static_cast<unsigned long long>(c.m),
                c.dcf_applied ? data::to_string(opt.dcf).c_str() : "none",
                c.iterations, c.nrmse);
  }
  std::printf("dataset recon: mean NRMSE %.4f over %zu chunks "
              "(%s engine, dcf %s, iters %d) in %.3f s\n",
              result.mean_nrmse, result.chunks.size(),
              core::to_string(opt.gridding.kind).c_str(),
              data::to_string(opt.dcf).c_str(), opt.iters, secs);

  // First surviving chunk's image as the visual artifact.
  const auto& first = result.chunks.front();
  std::vector<c64> img(first.image.size());
  for (std::size_t i = 0; i < img.size(); ++i) img[i] = first.image[i];
  const std::string out = args.get("out", "recon.pgm");
  write_pgm(out, img, static_cast<int>(result.info.n),
            static_cast<int>(result.info.n));
  std::printf("image written to %s\n", out.c_str());
  return 0;
}

int cmd_recon(const CliArgs& args) {
  if (args.has("dataset")) return cmd_recon_dataset(args);
  const std::int64_t n = args.get_int("n", 128);
  const std::int64_t m = args.get_int("samples", 50000);
  const auto traj_type = parse_traj(args.get("traj", "radial"));
  auto opt = options_from(args);
  std::vector<Coord<2>> coords;
  std::vector<c64> kdata;
  if (args.has("input")) {
    // Acquired data: CSV rows of kx,ky,real,imag. Under a non-None sanitize
    // policy the parser recovers from malformed rows and reports them here;
    // under None it throws, as degraded input was not expected.
    if (opt.sanitize == robustness::SanitizePolicy::None) {
      auto set = core::load_samples_csv(args.get("input"));
      coords = std::move(set.coords);
      kdata = std::move(set.values);
    } else {
      core::CsvReport csv;
      auto set = core::load_samples_csv(args.get("input"), &csv);
      coords = std::move(set.coords);
      kdata = std::move(set.values);
      if (!csv.rejects.empty()) {
        std::printf("csv: %zu rows accepted, %zu rejected\n", csv.rows_parsed,
                    csv.rejects.size());
        for (const auto& r : csv.rejects) {
          std::printf("csv:   line %zu: %s\n", r.line, r.reason.c_str());
        }
      }
    }
  } else {
    coords = trajectory::make_2d(traj_type, m);
    kdata = trajectory::kspace_samples(trajectory::shepp_logan(), coords,
                                       static_cast<int>(n));
  }

  // Optional deterministic degradation of the acquisition (robustness
  // experiments). Spokes only make sense for radial trajectories; other
  // geometries drop individual samples.
  {
    const bool radial_like =
        traj_type == trajectory::TrajectoryType::Radial ||
        traj_type == trajectory::TrajectoryType::GoldenRadial;
    const std::int64_t readout =
        (!args.has("input") && radial_like)
            ? static_cast<std::int64_t>(
                  std::sqrt(static_cast<double>(coords.size())))
            : 0;
    const auto spec = fault_spec_from(args, readout);
    core::SampleSet<2> degraded{std::move(coords), std::move(kdata)};
    const auto fr = robustness::inject<2>(degraded, spec);
    coords = std::move(degraded.coords);
    kdata = std::move(degraded.values);
    if (fr.any()) std::printf("%s", fr.summary().c_str());
  }

  if (args.has("save")) {
    core::save_samples_csv(args.get("save"), {coords, kdata});
    std::printf("k-space data saved to %s\n", args.get("save").c_str());
  }

  opt = resolve_engine(
      opt, n, args.get_int("iters", 0) > 0 || args.get_int("coils", 1) > 1);
  core::NufftPlan<2> plan(n, coords, opt);

  // Multi-coil CG-SENSE path: synthetic birdcage maps, per-coil acquisition
  // simulated from the phantom, coils reconstructed jointly. --coil-threads
  // runs the per-coil NuFFTs concurrently (bit-exact vs the serial loop).
  if (args.get_int("coils", 1) > 1) {
    const int coils = static_cast<int>(args.get_int("coils", 1));
    const auto coil_threads =
        static_cast<unsigned>(args.get_int("coil-threads", 1));
    const auto maps = core::make_birdcage_maps(n, coils);
    const auto truth =
        trajectory::rasterize(trajectory::shepp_logan(), static_cast<int>(n));
    std::vector<c64> truth_c(truth.size());
    for (std::size_t i = 0; i < truth.size(); ++i) truth_c[i] = truth[i];
    const auto y = simulate_multicoil(plan, maps, truth_c);

    const int sense_iters = static_cast<int>(args.get_int("iters", 10));
    core::CgResult cg;
    Timer timer;
    const auto image =
        core::cg_sense(plan, maps, y, sense_iters, 1e-6, &cg, coil_threads);
    const double secs = timer.seconds();

    std::vector<double> mag(image.size());
    for (std::size_t i = 0; i < image.size(); ++i) mag[i] = std::abs(image[i]);
    std::printf("cg-sense: %d coils, %u coil-threads, %zu samples -> "
                "%lldx%lld in %.3f s (%d CG iterations)\n",
                coils, coil_threads, coords.size(), static_cast<long long>(n),
                static_cast<long long>(n), secs, cg.iterations);
    std::printf("NRMSD vs phantom: %.4f | SSIM: %.4f\n",
                core::nrmsd(mag, truth),
                core::ssim(mag, truth, static_cast<int>(n)));
    const std::string out = args.get("out", "recon.pgm");
    write_pgm(out, image, static_cast<int>(n), static_cast<int>(n));
    std::printf("image written to %s\n", out.c_str());
    return 0;
  }

  // --dcf is the primary name; --density is the original spelling, kept as
  // an alias (--dcf wins when both are given).
  const std::string density = args.get("dcf", args.get("density", "ramp"));
  if (density == "ramp") {
    JIGSAW_REQUIRE(traj_type == trajectory::TrajectoryType::Radial ||
                       traj_type == trajectory::TrajectoryType::GoldenRadial,
                   "--dcf ramp is only valid for radial trajectories");
    const auto w = trajectory::radial_density_weights(coords);
    for (std::size_t i = 0; i < kdata.size(); ++i) kdata[i] *= w[i];
  } else if (density == "pipe-menon" || density == "pipe") {
    core::PipeMenonReport dcf_report;
    const auto w = core::pipe_menon_weights<2>(plan.gridder(), coords,
                                               core::PipeMenonOptions{},
                                               &dcf_report);
    for (std::size_t i = 0; i < kdata.size(); ++i) kdata[i] *= w[i];
    std::printf("dcf: pipe-menon, %d iterations (max update %.2e)\n",
                dcf_report.iterations, dcf_report.max_update);
  } else {
    JIGSAW_REQUIRE(density == "none", "unknown dcf mode: " << density);
  }

  const auto iters = args.get_int("iters", 0);
  core::NufftTimings t;
  Timer timer;
  std::vector<c64> image;
  if (iters > 0) {
    image = core::iterative_recon<2>(plan, kdata, static_cast<int>(iters));
  } else {
    image = plan.adjoint(kdata, &t);
  }
  const double secs = timer.seconds();

  const auto truth =
      trajectory::rasterize(trajectory::shepp_logan(), static_cast<int>(n));
  std::vector<double> mag(image.size());
  double dot = 0, sq = 0;
  for (std::size_t i = 0; i < image.size(); ++i) {
    mag[i] = std::abs(image[i]);
    dot += mag[i] * truth[i];
    sq += mag[i] * mag[i];
  }
  if (sq > 0) {
    for (auto& v : mag) v *= dot / sq;
  }

  if (opt.sanitize != robustness::SanitizePolicy::None) {
    std::printf("%s", plan.gridder().last_sanitize_report().summary().c_str());
  }
  if (opt.soft_error.rate > 0.0) {
    std::printf("soft errors: %llu accumulator bit flips injected "
                "(rate %g, bit %d)\n",
                static_cast<unsigned long long>(
                    plan.gridder().stats().soft_error_flips),
                opt.soft_error.rate, opt.soft_error.bit);
  }
  std::printf("recon: %s, %zu samples -> %lldx%lld (%s engine) in %.3f s\n",
              trajectory::to_string(traj_type).c_str(), coords.size(),
              static_cast<long long>(n), static_cast<long long>(n),
              core::to_string(opt.kind).c_str(),
              secs);
  std::printf("NRMSD vs phantom: %.4f | SSIM: %.4f\n",
              core::nrmsd(mag, truth),
              core::ssim(mag, truth, static_cast<int>(n)));
  const std::string out = args.get("out", "recon.pgm");
  write_pgm(out, image, static_cast<int>(n), static_cast<int>(n));
  std::printf("image written to %s\n", out.c_str());
  return 0;
}

int cmd_grid(const CliArgs& args) {
  const std::int64_t n = args.get_int("n", 128);
  const std::int64_t m = args.get_int("samples", 50000);
  const auto coords =
      trajectory::make_2d(parse_traj(args.get("traj", "radial")), m);
  core::SampleSet<2> in;
  in.coords = coords;
  in.values.assign(coords.size(), c64(0.01, 0.0));

  const auto opt = resolve_engine(options_from(args), n, /*reused=*/false);
  auto g = core::make_gridder<2>(n, opt);
  core::Grid<2> grid(g->grid_size());
  core::GriddingStats s;  // one gridding's work; time_best repeats it
  const double secs = time_best([&] { s = g->adjoint(in, grid); });

  std::printf("%s gridding of %zu samples onto %lld^2: %.4f s "
              "(%.1f ns/sample)\n",
              core::to_string(opt.kind).c_str(),
              coords.size(),
              static_cast<long long>(g->grid_size()), secs,
              1e9 * secs / static_cast<double>(coords.size()));
  std::printf("boundary checks %llu | samples processed %llu | "
              "interpolations %llu | presort %.4f s\n",
              static_cast<unsigned long long>(s.boundary_checks),
              static_cast<unsigned long long>(s.samples_processed),
              static_cast<unsigned long long>(s.interpolations),
              s.presort_seconds);
  return 0;
}

int cmd_simulate(const CliArgs& args) {
  const std::int64_t n = args.get_int("n", 128);
  const std::int64_t m = args.get_int("samples", 50000);
  auto opt = options_from(args);
  const bool three_d = args.has("3d");
  // The cycle simulator models the fixed JIGSAW datapath; "auto" would be
  // circular here, so it simulates the slice-and-dice configuration.
  if (opt.kind == core::GridderKind::Auto) {
    opt.kind = core::GridderKind::SliceDice;
  }

  if (!three_d) {
    sim::CycleSim sim2d(n, opt, false);
    core::Grid<2> grid(sim2d.grid_size());
    core::SampleSet<2> in;
    in.coords = trajectory::make_2d(
        parse_traj(args.get("traj", "radial")), m);
    in.values.assign(in.coords.size(), c64(0.01, 0.0));
    sim2d.run_2d(in, grid);
    const auto& s = sim2d.stats();
    std::printf("JIGSAW 2D: %lld samples -> %lld cycles (%.3f us @1 GHz), "
                "%lld stalls, readout %lld cycles\n",
                s.samples_streamed, s.gridding_cycles,
                1e6 * s.gridding_seconds(), s.stall_cycles, s.readout_cycles);
    std::printf("activity: selects %lld, LUT reads %lld, MACs %lld, "
                "accumulates %lld, saturations %lld\n",
                s.selects, s.lut_reads, s.macs, s.accum_writes,
                s.saturations);
  } else {
    sim::CycleSim sim3d(n, opt, true);
    core::Grid<3> grid(sim3d.grid_size());
    core::SampleSet<3> in;
    in.coords = trajectory::stack_of_stars_3d(
        static_cast<int>(n / 2), static_cast<int>(n),
        static_cast<int>(n / 2));
    in.values.assign(in.coords.size(), c64(0.01, 0.0));
    sim3d.run_3d(in, grid, args.has("z-binned"));
    const auto& s = sim3d.stats();
    std::printf("JIGSAW 3D Slice (%s): %lld sample-streams -> %lld cycles "
                "(%.3f ms @1 GHz)\n",
                args.has("z-binned") ? "z-binned" : "unsorted",
                s.samples_streamed, s.gridding_cycles,
                1e3 * s.gridding_seconds());
  }

  energy::AsicConfig asic;
  asic.grid_n = static_cast<int>(opt.sigma * static_cast<double>(n) + 0.5);
  asic.window = opt.width;
  asic.three_d = three_d;
  const auto e = energy::estimate_asic(asic);
  std::printf("synthesis estimate: %.2f mW, %.2f mm^2 | gridding energy "
              "%.2f uJ\n",
              e.power_mw, e.area_mm2,
              1e6 * energy::gridding_energy_j(asic, m, args.has("z-binned")));
  return 0;
}

int cmd_info() {
  std::printf("jigsaw_nufft 1.0.0 — Slice-and-Dice NuFFT library "
              "(IPDPS 2021 reproduction)\n\n");
  std::printf("engines:      serial, output-driven, binning, slice-dice, "
              "jigsaw (fixed point), sparse, float, auto (alias: tuned)\n");
  std::printf("kernels:      kaiser-bessel, gaussian, bspline, triangle, "
              "sinc-hann\n");
  std::printf(
      "trajectories: radial, golden-radial, spiral, vd-spiral, rosette, "
      "propeller, random, cartesian\n");
  std::printf("hardware:     T=8 (64 pipelines), W<=8, L<=64, grid<=1024^2, "
              "M+12 cycles @1 GHz\n");
  return 0;
}

void print_help(std::FILE* out) {
  std::fprintf(out,
               "usage: jigsaw_cli <recon|grid|simulate|info> [--flags]\n\n"
               "  recon     reconstruct a phantom (or --input CSV) image\n"
               "  grid      time one gridding pass and report work counters\n"
               "  simulate  run the JIGSAW cycle simulator + ASIC estimate\n"
               "  info      list engines, kernels, trajectories\n\n"
               "common flags:\n"
               "  --engine %s\n"
               "            (default %s; auto: sparse when the plan is reused\n"
               "             — --iters K, --coils C > 1, --dataset — else "
               "serial)\n"
               "  --n N --samples M --traj radial|golden-radial|spiral|"
               "vd-spiral|rosette|propeller|random|cartesian\n"
               "  --dataset file.jksd   reconstruct an ingested JKSD "
               "acquisition\n"
               "            (--dcf none|embedded|pipe-menon, --iters K; see "
               "docs/datasets.md)\n"
               "  --kernel kaiser-bessel|gaussian|bspline|triangle|sinc-hann\n"
               "  --width W --sigma S --table L --tile T --iters K\n",
               core::gridder_kind_names().c_str(),
               core::to_string(core::kDefaultEngine).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    print_help(stderr);
    return 2;
  }
  const std::string cmd = argv[1];
  if (cmd == "--help" || cmd == "-h" || cmd == "help") {
    print_help(stdout);
    return 0;
  }
  const std::vector<std::string> flags = {
      "n",      "samples", "traj",  "engine",        "kernel",
      "width",  "sigma",   "table", "tile",          "exact-weights",
      "density", "iters",  "out",   "3d",            "z-binned",
      "input",  "save",    "sanitize",  "drop-spokes",  "noise-spikes",
      "inject-nan", "perturb-coords", "bitflip-rate", "bitflip-bit",
      "seed",   "coils",   "coil-threads", "trace-json", "counters",
      "dataset", "dcf"};
  try {
    CliArgs args(argc - 1, argv + 1, flags);
    const std::string trace_path = args.get("trace-json", "");
    if (!trace_path.empty()) obs::trace_start();

    int rc = 2;
    if (cmd == "recon") {
      rc = cmd_recon(args);
    } else if (cmd == "grid") {
      rc = cmd_grid(args);
    } else if (cmd == "simulate") {
      rc = cmd_simulate(args);
    } else if (cmd == "info") {
      rc = cmd_info();
    } else {
      std::fprintf(stderr, "unknown command: %s\n", cmd.c_str());
      return 2;
    }

    if (!trace_path.empty()) {
      const std::size_t events = obs::trace_stop_write(trace_path);
      std::printf("trace: %zu events -> %s (chrome://tracing | Perfetto)\n",
                  events, trace_path.c_str());
    }
    if (args.has("counters")) {
      if (!obs::kEnabled) {
        std::printf("counters: unavailable (built with JIGSAW_OBS=OFF)\n");
      } else {
        const obs::Snapshot snap = obs::snapshot();
        std::printf("counters (%zu):\n", snap.counters.size());
        for (const auto& [name, value] : snap.counters) {
          std::printf("  %-40s %llu\n", name.c_str(),
                      static_cast<unsigned long long>(value));
        }
        for (const auto& [name, value] : snap.gauges) {
          std::printf("  %-40s %.6g  (gauge)\n", name.c_str(), value);
        }
      }
    }
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
