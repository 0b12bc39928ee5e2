#include "data/estimate.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace jigsaw::data {

core::CoilMaps estimate_coil_maps(const core::NufftPlan<2>& plan,
                                  const std::vector<std::vector<c64>>& y,
                                  const std::vector<double>& dcf,
                                  const CoilEstimateOptions& options) {
  const std::size_t m = plan.num_samples();
  if (y.empty()) throw std::invalid_argument("estimate: no coil data");
  for (const auto& coil : y) {
    if (coil.size() != m) {
      throw std::invalid_argument("estimate: coil sample count mismatch");
    }
  }
  if (!dcf.empty() && dcf.size() != m) {
    throw std::invalid_argument("estimate: dcf size mismatch");
  }
  if (!(options.lowpass_radius > 0.0)) {
    throw std::invalid_argument("estimate: lowpass_radius must be > 0");
  }

  // Per-sample low-pass apodization (times density weight when given).
  const auto& coords = plan.coords();
  const double inv2r2 =
      1.0 / (2.0 * options.lowpass_radius * options.lowpass_radius);
  std::vector<double> window(m);
  for (std::size_t j = 0; j < m; ++j) {
    const double k2 =
        coords[j][0] * coords[j][0] + coords[j][1] * coords[j][1];
    window[j] = std::exp(-k2 * inv2r2) * (dcf.empty() ? 1.0 : dcf[j]);
  }

  core::CoilMaps maps;
  maps.n = plan.base_size();
  maps.coils = static_cast<int>(y.size());
  maps.maps.resize(y.size());
  std::vector<c64> weighted(m);
  for (std::size_t c = 0; c < y.size(); ++c) {
    for (std::size_t j = 0; j < m; ++j) weighted[j] = y[c][j] * window[j];
    maps.maps[c] = plan.adjoint(weighted);
  }

  // RSS normalization with a relative floor: where the object (and thus
  // every coil image) is near zero the quotient is meaningless, so the
  // floor keeps those maps small instead of amplifying noise.
  const std::size_t pixels = maps.maps[0].size();
  std::vector<double> rss(pixels, 0.0);
  double peak = 0.0;
  for (std::size_t p = 0; p < pixels; ++p) {
    double s = 0.0;
    for (const auto& img : maps.maps) s += std::norm(img[p]);
    rss[p] = std::sqrt(s);
    peak = std::max(peak, rss[p]);
  }
  const double floor_val = options.epsilon * (peak > 0.0 ? peak : 1.0);
  for (auto& img : maps.maps) {
    for (std::size_t p = 0; p < pixels; ++p) {
      img[p] /= std::max(rss[p], floor_val);
    }
  }
  return maps;
}

std::vector<double> rss_combine(const std::vector<std::vector<c64>>& images) {
  if (images.empty()) throw std::invalid_argument("rss: no coil images");
  const std::size_t pixels = images[0].size();
  for (const auto& img : images) {
    if (img.size() != pixels) {
      throw std::invalid_argument("rss: coil image size mismatch");
    }
  }
  std::vector<double> out(pixels, 0.0);
  for (const auto& img : images) {
    for (std::size_t p = 0; p < pixels; ++p) out[p] += std::norm(img[p]);
  }
  for (double& v : out) v = std::sqrt(v);
  return out;
}

}  // namespace jigsaw::data
