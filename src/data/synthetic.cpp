#include "data/synthetic.hpp"

#include <cmath>
#include <stdexcept>

#include "common/rng.hpp"
#include "core/density.hpp"
#include "core/nufft.hpp"
#include "core/sense.hpp"
#include "obs/obs.hpp"
#include "trajectory/phantom.hpp"

namespace jigsaw::data {
namespace {

constexpr double kPi = 3.14159265358979323846;
constexpr double kGoldenAngle = kPi * (3.0 - 2.2360679774997896);  // pi(3-v5)

double fold(double x) { return x - std::floor(x + 0.5); }

/// Rotate a 2D trajectory by `angle` and fold back onto the torus — gives
/// each chunk its own k-space coverage the way consecutive golden-angle
/// slices differ, while radii (and thus sampling density) are preserved.
std::vector<Coord<2>> rotated(const std::vector<Coord<2>>& coords,
                              double angle) {
  const double c = std::cos(angle), s = std::sin(angle);
  std::vector<Coord<2>> out(coords.size());
  for (std::size_t j = 0; j < coords.size(); ++j) {
    out[j][0] = fold(c * coords[j][0] - s * coords[j][1]);
    out[j][1] = fold(s * coords[j][0] + c * coords[j][1]);
  }
  return out;
}

}  // namespace

GenerateReport generate_synthetic(const std::string& path,
                                  const SyntheticOptions& options) {
  if (options.chunks < 1) {
    throw std::invalid_argument("synthetic: chunks must be >= 1");
  }
  if (options.noise < 0.0) {
    throw std::invalid_argument("synthetic: noise must be >= 0");
  }
  const std::int64_t n = options.n;
  const std::int64_t m_req =
      options.samples_per_chunk > 0 ? options.samples_per_chunk : 2 * n * n;

  DatasetInfo info;
  info.n = n;
  info.coils = options.coils;
  info.source = Source::kSheppLogan;
  info.has_dcf = options.embed_dcf;
  DatasetWriter writer(path, info);

  const auto maps = core::make_birdcage_maps(n, options.coils);
  const auto truth = trajectory::rasterize(trajectory::shepp_logan(),
                                           static_cast<int>(n));
  std::vector<c64> truth_c(truth.size());
  for (std::size_t i = 0; i < truth.size(); ++i) truth_c[i] = truth[i];

  GenerateReport rep;
  for (int chunk = 0; chunk < options.chunks; ++chunk) {
    const std::uint64_t chunk_seed =
        options.seed + static_cast<std::uint64_t>(chunk);
    auto coords = trajectory::make_2d(options.traj, m_req, chunk_seed);
    if (chunk > 0) coords = rotated(coords, chunk * kGoldenAngle);

    core::NufftPlan<2> plan(n, coords, options.gridding);
    auto values = core::simulate_multicoil(plan, maps, truth_c);

    const std::size_t m = coords.size();
    std::vector<double> flat(2 * m);
    for (std::size_t j = 0; j < m; ++j) {
      flat[2 * j] = coords[j][0];
      flat[2 * j + 1] = coords[j][1];
    }

    if (options.noise > 0.0) {
      double sumsq = 0.0;
      for (const c64& v : values) sumsq += std::norm(v);
      const double rms = std::sqrt(sumsq / static_cast<double>(values.size()));
      const double amp = options.noise * rms;
      Rng rng(chunk_seed ^ 0x6e6f697365ULL);  // "noise"
      for (c64& v : values) {
        v += c64(rng.uniform(-amp, amp), rng.uniform(-amp, amp));
      }
    }

    std::vector<double> dcf;
    if (options.embed_dcf) {
      dcf = core::pipe_menon_weights<2>(plan.gridder(), coords);
    }

    writer.add_chunk(static_cast<std::uint64_t>(chunk), flat, values, dcf);
    rep.samples += m;
  }
  writer.close();
  rep.chunks = static_cast<std::uint64_t>(options.chunks);
  obs::add("data.generated_chunks", rep.chunks);
  return rep;
}

}  // namespace jigsaw::data
