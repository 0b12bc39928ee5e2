#include "data/driver.hpp"

#include <cmath>
#include <stdexcept>

#include "core/metrics.hpp"
#include "core/nufft.hpp"
#include "core/recon.hpp"
#include "core/sense.hpp"
#include "obs/obs.hpp"
#include "trajectory/phantom.hpp"

namespace jigsaw::data {
namespace {

/// Least-squares scalar fit then NRMSD — the scale-invariant score the CLI
/// uses (adjoint images carry an arbitrary overall gain).
double fitted_nrmse(std::vector<double> mag, const std::vector<double>& ref) {
  double dot = 0.0, sq = 0.0;
  for (std::size_t i = 0; i < mag.size(); ++i) {
    dot += mag[i] * ref[i];
    sq += mag[i] * mag[i];
  }
  if (sq > 0.0) {
    const double alpha = dot / sq;
    for (double& v : mag) v *= alpha;
  }
  return core::nrmsd(mag, ref);
}

std::vector<double> magnitude(const std::vector<c64>& img) {
  std::vector<double> mag(img.size());
  for (std::size_t i = 0; i < img.size(); ++i) mag[i] = std::abs(img[i]);
  return mag;
}

}  // namespace

std::string to_string(DcfMode mode) {
  switch (mode) {
    case DcfMode::kNone:
      return "none";
    case DcfMode::kEmbedded:
      return "embedded";
    case DcfMode::kPipeMenon:
      return "pipe-menon";
  }
  return "?";
}

DcfMode parse_dcf_mode(const std::string& s) {
  if (s == "none") return DcfMode::kNone;
  if (s == "embedded") return DcfMode::kEmbedded;
  if (s == "pipe-menon" || s == "pipe") return DcfMode::kPipeMenon;
  throw std::invalid_argument("unknown dcf mode '" + s +
                              "', valid: none, embedded, pipe-menon");
}

ReconDatasetResult recon_dataset(const std::string& path,
                                 const ReconDatasetOptions& options) {
  DatasetReader reader(path);
  ReconDatasetResult result;
  result.info = reader.info();
  if (result.info.dim != 2) {
    throw std::runtime_error(
        "recon_dataset: only 2D datasets are reconstructable (the format "
        "and reader carry 3D, the recon pipelines are 2D)");
  }
  const auto n = result.info.n;
  const int coils = result.info.coils;

  std::vector<double> truth;
  if (result.info.source == Source::kSheppLogan) {
    truth = trajectory::rasterize(trajectory::shepp_logan(),
                                  static_cast<int>(n));
  }

  double nrmse_sum = 0.0;
  std::size_t nrmse_count = 0;
  Chunk chunk;
  while (reader.next(chunk)) {
    auto coords = chunk.typed_coords<2>();
    core::NufftPlan<2> plan(n, std::move(coords), options.gridding);

    ChunkRecon rec;
    rec.index = chunk.index;
    rec.m = chunk.m;

    std::vector<double> w;
    switch (options.dcf) {
      case DcfMode::kNone:
        break;
      case DcfMode::kEmbedded:
        w = chunk.dcf;  // may be empty: chunk carries none, fall through
        break;
      case DcfMode::kPipeMenon:
        w = core::pipe_menon_weights<2>(plan.gridder(), plan.coords(),
                                        options.pipe_menon);
        break;
    }
    rec.dcf_applied = !w.empty();

    if (options.iters <= 0) {
      // Weighted adjoint per coil, RSS across coils (single coil: |.|).
      std::vector<std::vector<c64>> imgs;
      imgs.reserve(static_cast<std::size_t>(coils));
      for (int c = 0; c < coils; ++c) {
        auto wy = chunk.coil_values(c);
        if (!w.empty()) {
          for (std::size_t j = 0; j < wy.size(); ++j) wy[j] *= w[j];
        }
        imgs.push_back(plan.adjoint(wy));
      }
      rec.image = rss_combine(imgs);
    } else {
      // Weighted CG-SENSE; one coil is weighted least squares on the
      // single-coil NuFFT.
      const auto maps =
          coils > 1
              ? estimate_coil_maps(plan, chunk.values, w, options.estimate)
              : core::CoilMaps::identity(n);
      core::CgResult cg;
      const auto img =
          core::cg_sense(plan, maps, chunk.values, options.iters,
                         options.tolerance, &cg, /*coil_threads=*/1,
                         Deadline(), /*warm_start=*/nullptr, w);
      rec.iterations = cg.iterations;
      rec.image = magnitude(img);
    }

    if (!truth.empty()) {
      rec.nrmse = fitted_nrmse(rec.image, truth);
      nrmse_sum += rec.nrmse;
      ++nrmse_count;
    }
    obs::add("data.recon_chunks", 1);
    result.chunks.push_back(std::move(rec));
  }

  result.report = reader.report();
  if (result.chunks.empty()) {
    throw std::runtime_error("recon_dataset: no chunk survived ingest (" +
                             std::to_string(result.report.rejects.size()) +
                             " rejected)");
  }
  if (nrmse_count > 0) {
    result.mean_nrmse = nrmse_sum / static_cast<double>(nrmse_count);
  }
  return result;
}

}  // namespace jigsaw::data
