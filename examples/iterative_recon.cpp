// Model-based (iterative) reconstruction example — the workload class the
// paper's introduction motivates: iterative algorithms take millions of
// NuFFTs, so gridding throughput gates reconstruction time (paper refs
// [5], [8]). Solves least-squares via CG on the normal equations, both
// with per-iteration forward/adjoint NuFFTs and with the Toeplitz
// embedding the Impatient framework [10] uses (two FFTs per iteration, no
// gridding after setup).
#include <cstdio>

#include "common/pgm.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "core/metrics.hpp"
#include "core/recon.hpp"
#include "trajectory/phantom.hpp"
#include "trajectory/trajectory.hpp"

using namespace jigsaw;

namespace {

double score_against(const std::vector<c64>& image,
                     const std::vector<double>& truth) {
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
  return core::nrmsd(mag, truth);
}

}  // namespace

int main() {
  const std::int64_t n = 64;
  // Deliberately undersampled acquisition (64 spokes where ~100 would meet
  // Nyquist) — the regime where iterative recon pays off.
  const auto coords = trajectory::radial_2d(64, 128);
  const auto kdata = trajectory::kspace_samples(trajectory::shepp_logan(),
                                                coords, static_cast<int>(n));
  const auto truth =
      trajectory::rasterize(trajectory::shepp_logan(), static_cast<int>(n));

  core::GridderOptions opt;  // default engine (serial)
  core::NufftPlan<2> plan(n, coords, opt);

  std::printf("iterative reconstruction, %zu samples (undersampled radial), "
              "%lldx%lld image\n\n",
              coords.size(), static_cast<long long>(n),
              static_cast<long long>(n));

  // Baseline: density-compensated adjoint.
  auto weighted = kdata;
  const auto dcf = trajectory::radial_density_weights(coords);
  for (std::size_t i = 0; i < weighted.size(); ++i) weighted[i] *= dcf[i];
  const auto adjoint_img = plan.adjoint(weighted);
  std::printf("adjoint + ramp DCF:        NRMSD %.4f\n",
              score_against(adjoint_img, truth));

  // CG with per-iteration forward/adjoint NuFFT.
  core::CgResult direct_cg;
  Timer t_direct;
  const auto direct =
      core::iterative_recon<2>(plan, kdata, 20, 1e-7, false, &direct_cg);
  const double s_direct = t_direct.seconds();
  std::printf("CG (NuFFT gram, %2d iters): NRMSD %.4f  [%.2f s]\n",
              direct_cg.iterations, score_against(direct, truth), s_direct);

  // CG with the Toeplitz gram operator (two FFTs per iteration).
  core::CgResult toep_cg;
  Timer t_toep;
  const auto toeplitz =
      core::iterative_recon<2>(plan, kdata, 20, 1e-7, true, &toep_cg);
  const double s_toep = t_toep.seconds();
  std::printf("CG (Toeplitz,   %2d iters): NRMSD %.4f  [%.2f s]\n",
              toep_cg.iterations, score_against(toeplitz, truth), s_toep);

  std::printf("\nCG residual history (NuFFT gram): ");
  for (std::size_t i = 0; i < direct_cg.residual_history.size(); i += 4) {
    std::printf("%.2e ", direct_cg.residual_history[i]);
  }
  std::printf("\n");

  write_pgm("iterative_recon_adjoint.pgm", adjoint_img, static_cast<int>(n),
            static_cast<int>(n));
  write_pgm("iterative_recon_cg.pgm", direct, static_cast<int>(n),
            static_cast<int>(n));
  std::printf("\nimages written: iterative_recon_adjoint.pgm, "
              "iterative_recon_cg.pgm\n");
  return 0;
}
