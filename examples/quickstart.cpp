// Quickstart: reconstruct a Shepp-Logan phantom from radial MRI k-space
// with the Slice-and-Dice NuFFT in ~30 lines of user code.
//
//   1. make a radial trajectory,
//   2. synthesize k-space data (analytic phantom; in a real scanner this
//      is the acquired data),
//   3. density-compensate,
//   4. run the adjoint NuFFT,
//   5. score against ground truth and write the image.
#include <cstdio>

#include "common/pgm.hpp"
#include "core/metrics.hpp"
#include "core/nufft.hpp"
#include "trajectory/phantom.hpp"
#include "trajectory/trajectory.hpp"

using namespace jigsaw;

int main() {
  const std::int64_t n = 128;  // image size (pixels per side)

  // 1. Radial trajectory: 192 spokes x 256 samples.
  const auto coords = trajectory::radial_2d(192, 256);

  // 2. k-space data from the analytic phantom.
  auto kspace = trajectory::kspace_samples(trajectory::shepp_logan(), coords,
                                           static_cast<int>(n));

  // 3. Ramp density compensation (radial analytic weights).
  const auto dcf = trajectory::radial_density_weights(coords);
  for (std::size_t i = 0; i < kspace.size(); ++i) kspace[i] *= dcf[i];

  // 4. Adjoint NuFFT with the paper's Slice-and-Dice gridder.
  core::GridderOptions options;  // sigma=2, W=6 Kaiser-Bessel, L=32, T=8
  options.kind = core::GridderKind::SliceDice;
  core::NufftPlan<2> plan(n, coords, options);
  core::NufftTimings timings;
  const auto image = plan.adjoint(kspace, &timings);

  // 5. Report.
  const auto truth =
      trajectory::rasterize(trajectory::shepp_logan(), static_cast<int>(n));
  std::vector<double> mag(image.size());
  double dot = 0, sq = 0;
  for (std::size_t i = 0; i < image.size(); ++i) {
    mag[i] = std::abs(image[i]);
    dot += mag[i] * truth[i];
    sq += mag[i] * mag[i];
  }
  for (auto& v : mag) v *= dot / sq;

  std::printf("quickstart: %zu samples -> %lldx%lld image\n", coords.size(),
              static_cast<long long>(n), static_cast<long long>(n));
  std::printf("  gridding %.1f ms | fft %.1f ms | de-apodization %.1f ms\n",
              1e3 * timings.grid_seconds, 1e3 * timings.fft_seconds,
              1e3 * timings.apod_seconds);
  std::printf("  NRMSD vs analytic phantom: %.3f\n",
              core::nrmsd(mag, truth));
  const bool ok = write_pgm("quickstart_recon.pgm", image,
                            static_cast<int>(n), static_cast<int>(n));
  std::printf("  image written to quickstart_recon.pgm (%s)\n",
              ok ? "ok" : "FAILED");

  // Work counters from the gridder (what the paper's Fig. 3 is about):
  const auto& stats = plan.gridder().stats();
  std::printf("  slice-and-dice touched %llu grid points with %llu boundary "
              "checks and no presort\n",
              static_cast<unsigned long long>(stats.interpolations),
              static_cast<unsigned long long>(stats.boundary_checks));
  return 0;
}
