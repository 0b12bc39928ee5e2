// Multi-coil SENSE reconstruction tests.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "core/metrics.hpp"
#include "core/sense.hpp"
#include "fft/fft.hpp"
#include "trajectory/phantom.hpp"
#include "trajectory/trajectory.hpp"

namespace jigsaw::core {
namespace {

GridderOptions options() {
  GridderOptions opt;
  opt.width = 6;
  opt.tile = 8;
  return opt;
}

TEST(CoilMaps, SumOfSquaresNormalized) {
  const auto maps = make_birdcage_maps(32, 8);
  ASSERT_EQ(maps.coils, 8);
  ASSERT_EQ(maps.maps.size(), 8u);
  for (std::int64_t p = 0; p < 32 * 32; ++p) {
    double ss = 0.0;
    for (int c = 0; c < 8; ++c) {
      ss += std::norm(maps.map(c)[static_cast<std::size_t>(p)]);
    }
    EXPECT_NEAR(ss, 1.0, 1e-6) << "pixel " << p;
  }
}

TEST(CoilMaps, CoilsPeakAtDifferentLocations) {
  const auto maps = make_birdcage_maps(32, 4);
  std::vector<std::size_t> peaks;
  for (int c = 0; c < 4; ++c) {
    std::size_t best = 0;
    double mag = 0;
    for (std::size_t p = 0; p < maps.map(c).size(); ++p) {
      if (std::abs(maps.map(c)[p]) > mag) {
        mag = std::abs(maps.map(c)[p]);
        best = p;
      }
    }
    peaks.push_back(best);
  }
  EXPECT_NE(peaks[0], peaks[2]);
  EXPECT_NE(peaks[1], peaks[3]);
}

TEST(CoilMaps, RejectsDegenerate) {
  EXPECT_THROW(make_birdcage_maps(1, 4), std::invalid_argument);
  EXPECT_THROW(make_birdcage_maps(32, 0), std::invalid_argument);
}

TEST(Sense, SimulateProducesPerCoilData) {
  const std::int64_t n = 16;
  const auto coords = trajectory::radial_2d(24, 32);
  NufftPlan<2> plan(n, coords, options());
  const auto maps = make_birdcage_maps(n, 4);
  std::vector<c64> image(static_cast<std::size_t>(n * n), c64(1.0, 0.0));
  const auto y = simulate_multicoil(plan, maps, image);
  ASSERT_EQ(y.size(), 4u * coords.size());
  const auto m = static_cast<std::ptrdiff_t>(coords.size());
  for (std::ptrdiff_t c = 0; c < 4; ++c) {
    const auto first = y.begin() + c * m;
    EXPECT_GT(norm2(std::vector<c64>(first, first + m)), 0.0);
  }
}

TEST(Sense, GramIsHermitianPsd) {
  const std::int64_t n = 16;
  const auto coords = trajectory::radial_2d(16, 24);
  NufftPlan<2> plan(n, coords, options());
  const auto maps = make_birdcage_maps(n, 3);
  SenseOperator op(plan, maps);

  Rng rng(4);
  std::vector<c64> x(static_cast<std::size_t>(n * n)),
      y(static_cast<std::size_t>(n * n));
  for (auto& v : x) v = c64(rng.uniform(-1, 1), rng.uniform(-1, 1));
  for (auto& v : y) v = c64(rng.uniform(-1, 1), rng.uniform(-1, 1));

  const auto gx = op.gram(x);
  const auto gy = op.gram(y);
  c64 lhs{}, rhs{}, quad{};
  for (std::size_t i = 0; i < x.size(); ++i) {
    lhs += std::conj(gx[i]) * y[i];
    rhs += std::conj(x[i]) * gy[i];
    quad += std::conj(gx[i]) * x[i];
  }
  EXPECT_NEAR(std::abs(lhs - rhs), 0.0, 1e-8 * std::abs(lhs));
  EXPECT_GE(quad.real(), -1e-8);
  EXPECT_NEAR(quad.imag() / std::abs(quad), 0.0, 1e-8);
}

TEST(Sense, CgSenseReconstructsPhantom) {
  const std::int64_t n = 32;
  // Moderately undersampled: 40 spokes (Nyquist wants ~50).
  const auto coords = trajectory::radial_2d(40, 64);
  GridderOptions opt = options();
  opt.exact_weights = true;  // inverse-crime fit: remove LUT noise
  NufftPlan<2> plan(n, coords, opt);
  const auto maps = make_birdcage_maps(n, 6);

  // Ground-truth image -> per-coil k-space (inverse crime, fine for a
  // solver test). A radial acquisition never samples the k-space corners
  // (21.5% of the square), so CG can only recover the disc-band-limited
  // component of the image: restrict the truth to that band before
  // simulating and scoring.
  const auto truth_d =
      trajectory::rasterize(trajectory::shepp_logan(), static_cast<int>(n));
  std::vector<c64> truth(truth_d.size());
  for (std::size_t i = 0; i < truth.size(); ++i) truth[i] = truth_d[i];
  {
    fft::FftNd f({static_cast<std::size_t>(n), static_cast<std::size_t>(n)});
    f.execute(truth.data(), fft::Direction::Forward);
    for (std::int64_t ky = 0; ky < n; ++ky) {
      for (std::int64_t kx = 0; kx < n; ++kx) {
        const double cy = static_cast<double>(ky < n / 2 ? ky : ky - n);
        const double cx = static_cast<double>(kx < n / 2 ? kx : kx - n);
        if (cy * cy + cx * cx > (n / 2 - 1.0) * (n / 2 - 1.0)) {
          truth[static_cast<std::size_t>(ky * n + kx)] = c64{};
        }
      }
    }
    f.execute(truth.data(), fft::Direction::Inverse);
    for (auto& v : truth) v /= static_cast<double>(n * n);
  }
  const auto y = simulate_multicoil(plan, maps, truth);

  CgResult cg;
  const auto recon = cg_sense(plan, maps, y, 60, 1e-10, &cg);
  EXPECT_GT(cg.iterations, 0);
  EXPECT_LT(nrmsd(recon, truth), 0.1)
      << "CG-SENSE should recover the in-band phantom from its own model";

  // Multi-coil beats single-coil at the same undersampling (coil
  // sensitivity diversity fills in the radial null space).
  const auto maps1 = make_birdcage_maps(n, 1);
  const auto y1 = simulate_multicoil(plan, maps1, truth);
  const auto recon1 = cg_sense(plan, maps1, y1, 60, 1e-10);
  EXPECT_LT(nrmsd(recon, truth), nrmsd(recon1, truth));
}

TEST(Sense, MismatchedCoilCountThrows) {
  const std::int64_t n = 16;
  const auto coords = trajectory::radial_2d(8, 16);
  NufftPlan<2> plan(n, coords, options());
  const auto maps = make_birdcage_maps(n, 4);
  SenseOperator op(plan, maps);
  const std::vector<c64> bad(3 * coords.size(), c64{});
  EXPECT_THROW(op.adjoint(bad), std::invalid_argument);
}

TEST(Sense, MapSizeMismatchThrows) {
  const std::int64_t n = 16;
  const auto coords = trajectory::radial_2d(8, 16);
  NufftPlan<2> plan(n, coords, options());
  const auto maps = make_birdcage_maps(24, 4);
  EXPECT_THROW(SenseOperator(plan, maps), std::invalid_argument);
}

}  // namespace
}  // namespace jigsaw::core
