// NuFFT accuracy and structure tests: the fast transform must match the
// exact NuDFT, forward/adjoint must be a conjugate-transpose pair, the
// Cartesian special case must reduce to a plain DFT, and the per-phase
// timing breakdown must be populated.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <ostream>

#include "common/rng.hpp"
#include "core/metrics.hpp"
#include "core/nudft.hpp"
#include "core/nufft.hpp"
#include "test_names.hpp"
#include "trajectory/trajectory.hpp"

namespace jigsaw::core {
namespace {

template <int D>
std::vector<Coord<D>> random_coords(std::int64_t m, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Coord<D>> c(static_cast<std::size_t>(m));
  for (auto& x : c) {
    for (int d = 0; d < D; ++d) {
      x[static_cast<std::size_t>(d)] = rng.uniform(-0.5, 0.5);
    }
  }
  return c;
}

std::vector<c64> random_values(std::size_t m, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<c64> v(m);
  for (auto& x : v) x = c64(rng.uniform(-1, 1), rng.uniform(-1, 1));
  return v;
}

struct NufftCase {
  GridderKind kind;
  kernels::KernelType kernel;
  int width;
  double sigma;
  bool exact_weights;  // false = nearest-neighbor LUT (the paper's table)
  int table;           // LUT oversampling factor L
  double tolerance;    // NRMSD vs NuDFT
};

// Found by gtest through argument-dependent lookup: failure messages show
// the case's fields instead of its raw bytes.
void PrintTo(const NufftCase& p, std::ostream* os) {
  *os << to_string(p.kind) << " " << kernels::to_string(p.kernel)
      << " W=" << p.width << " sigma=" << p.sigma
      << (p.exact_weights ? " exact" : " lut") << " L=" << p.table
      << " tol=" << p.tolerance;
}
// Accuracy regimes: with on-line ("exact") weights the Kaiser-Bessel W=6,
// sigma=2 NuFFT reaches ~1e-5 NRMSD — the kernel aliasing floor. The
// nearest-neighbor weight table of the paper (L=32) adds ~1% quantization
// error (the hardware targets MRI data, where k-space energy concentrates
// near DC and the perceptual impact is far smaller — cf. Fig. 9).

class NufftAccuracy2D : public ::testing::TestWithParam<NufftCase> {};

TEST_P(NufftAccuracy2D, AdjointMatchesNudft) {
  const auto p = GetParam();
  GridderOptions opt;
  opt.kind = p.kind;
  opt.kernel = p.kernel;
  opt.width = p.width;
  opt.sigma = p.sigma;
  opt.exact_weights = p.exact_weights;
  opt.table_oversampling = p.table;
  opt.tile = 8;
  const std::int64_t n = 16;
  const auto coords = random_coords<2>(200, 71);
  const auto values = random_values(200, 72);

  NufftPlan<2> plan(n, coords, opt);
  const auto fast = plan.adjoint(values);

  SampleSet<2> in{coords, values};
  const auto exact = nudft_adjoint<2>(in, n);
  EXPECT_LT(nrmsd(fast, exact), p.tolerance)
      << to_string(p.kind) << "/" << kernels::to_string(p.kernel);
}

TEST_P(NufftAccuracy2D, ForwardMatchesNudft) {
  const auto p = GetParam();
  GridderOptions opt;
  opt.kind = p.kind;
  opt.kernel = p.kernel;
  opt.width = p.width;
  opt.sigma = p.sigma;
  opt.exact_weights = p.exact_weights;
  opt.table_oversampling = p.table;
  opt.tile = 8;
  const std::int64_t n = 16;
  const auto coords = random_coords<2>(150, 73);
  const auto image = random_values(static_cast<std::size_t>(n * n), 74);

  NufftPlan<2> plan(n, coords, opt);
  const auto fast = plan.forward(image);
  const auto exact = nudft_forward<2>(image, n, coords);
  EXPECT_LT(nrmsd(fast, exact), p.tolerance);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, NufftAccuracy2D,
    ::testing::Values(
        // Exact weights: the ~1e-5 Kaiser-Bessel aliasing floor.
        NufftCase{GridderKind::Serial, kernels::KernelType::KaiserBessel, 6,
                  2.0, true, 32, 1e-4},
        NufftCase{GridderKind::SliceDice, kernels::KernelType::KaiserBessel,
                  6, 2.0, true, 32, 1e-4},
        NufftCase{GridderKind::Binning, kernels::KernelType::KaiserBessel, 6,
                  2.0, true, 32, 1e-4},
        NufftCase{GridderKind::OutputDriven,
                  kernels::KernelType::KaiserBessel, 6, 2.0, true, 32, 1e-4},
        // Nearest-neighbor table at the hardware's L=32: ~1% quantization.
        NufftCase{GridderKind::Serial, kernels::KernelType::KaiserBessel, 6,
                  2.0, false, 32, 3e-2},
        NufftCase{GridderKind::SliceDice, kernels::KernelType::KaiserBessel,
                  6, 2.0, false, 32, 3e-2},
        // A fine software table approaches the exact-weight floor.
        NufftCase{GridderKind::SliceDice, kernels::KernelType::KaiserBessel,
                  6, 2.0, false, 4096, 3e-4},
        // Jigsaw: L=32 table + 16-bit weights + 32-bit accumulation.
        NufftCase{GridderKind::Jigsaw, kernels::KernelType::KaiserBessel, 6,
                  2.0, false, 32, 3e-2},
        // Reduced oversampling with widened kernel (Beatty [1]).
        NufftCase{GridderKind::SliceDice, kernels::KernelType::KaiserBessel,
                  8, 1.5, true, 32, 2e-4},
        // Alternative windows trade accuracy for cost.
        NufftCase{GridderKind::SliceDice, kernels::KernelType::Gaussian, 6,
                  2.0, true, 32, 2e-2},
        NufftCase{GridderKind::SliceDice, kernels::KernelType::BSpline, 6,
                  2.0, true, 32, 2e-2},
        // Precomputed sparse-matrix engine (MIRT sparse mode).
        NufftCase{GridderKind::Sparse, kernels::KernelType::KaiserBessel, 6,
                  2.0, true, 32, 1e-4},
        // Single-precision engine (the paper's GPU numeric configuration).
        NufftCase{GridderKind::FloatSerial,
                  kernels::KernelType::KaiserBessel, 6, 2.0, false, 4096,
                  3e-4}),
    [](const ::testing::TestParamInfo<NufftCase>& case_info) {
      const NufftCase& p = case_info.param;
      return test_names::camel(to_string(p.kind)) + "_" +
             test_names::camel(kernels::to_string(p.kernel)) + "_" +
             test_names::width_sigma(p.width, p.sigma) + "_" +
             (p.exact_weights ? std::string("exact")
                              : "lut" + std::to_string(p.table));
    });

TEST(NufftAccuracy1D, AdjointMatchesNudft) {
  GridderOptions opt;
  opt.width = 6;
  opt.tile = 8;
  opt.exact_weights = true;
  const std::int64_t n = 32;
  const auto coords = random_coords<1>(100, 75);
  const auto values = random_values(100, 76);
  NufftPlan<1> plan(n, coords, opt);
  const auto fast = plan.adjoint(values);
  const auto exact = nudft_adjoint<1>({coords, values}, n);
  EXPECT_LT(nrmsd(fast, exact), 1e-4);
}

TEST(NufftAccuracy3D, AdjointMatchesNudft) {
  GridderOptions opt;
  opt.width = 6;
  opt.tile = 8;
  opt.exact_weights = true;
  const std::int64_t n = 8;
  const auto coords = random_coords<3>(100, 77);
  const auto values = random_values(100, 78);
  NufftPlan<3> plan(n, coords, opt);
  const auto fast = plan.adjoint(values);
  const auto exact = nudft_adjoint<3>({coords, values}, n);
  EXPECT_LT(nrmsd(fast, exact), 2e-4);
}

TEST(NufftAccuracy3D, ForwardMatchesNudft) {
  GridderOptions opt;
  opt.width = 6;
  opt.tile = 8;
  opt.exact_weights = true;
  const std::int64_t n = 8;
  const auto coords = random_coords<3>(80, 97);
  const auto image = random_values(static_cast<std::size_t>(n * n * n), 98);
  NufftPlan<3> plan(n, coords, opt);
  const auto fast = plan.forward(image);
  const auto exact = nudft_forward<3>(image, n, coords);
  EXPECT_LT(nrmsd(fast, exact), 2e-4);
}

TEST(Nufft, LargerWidthImprovesAccuracy) {
  const std::int64_t n = 16;
  const auto coords = random_coords<2>(150, 79);
  const auto values = random_values(150, 80);
  const auto exact = nudft_adjoint<2>({coords, values}, n);

  auto err = [&](int w) {
    GridderOptions opt;
    opt.width = w;
    opt.tile = 8;
    opt.exact_weights = true;
    NufftPlan<2> plan(n, coords, opt);
    return nrmsd(plan.adjoint(values), exact);
  };
  const double e2 = err(2), e4 = err(4), e6 = err(6);
  EXPECT_LT(e4, e2);
  EXPECT_LT(e6, e4);
}

TEST(Nufft, FinerTableImprovesAccuracy) {
  const std::int64_t n = 16;
  const auto coords = random_coords<2>(150, 81);
  const auto values = random_values(150, 82);
  const auto exact = nudft_adjoint<2>({coords, values}, n);
  auto err = [&](int l) {
    GridderOptions opt;
    opt.width = 6;
    opt.tile = 8;
    opt.table_oversampling = l;
    NufftPlan<2> plan(n, coords, opt);
    return nrmsd(plan.adjoint(values), exact);
  };
  EXPECT_LT(err(256), err(4));
}

TEST(Nufft, CartesianSamplesReduceToDft) {
  // On-grid samples: adjoint NuFFT == centered inverse DFT of the samples.
  const std::int64_t n = 16;
  std::vector<Coord<2>> coords;
  for (int y = 0; y < n; ++y) {
    for (int x = 0; x < n; ++x) {
      coords.push_back({(y - 8) / 16.0, (x - 8) / 16.0});
    }
  }
  const auto values = random_values(coords.size(), 83);

  GridderOptions opt;
  opt.width = 6;
  opt.tile = 8;
  opt.table_oversampling = 1024;  // software path allows large tables
  NufftPlan<2> plan(n, coords, opt);
  const auto fast = plan.adjoint(values);
  const auto exact = nudft_adjoint<2>({coords, values}, n);
  EXPECT_LT(nrmsd(fast, exact), 5e-5);
}

TEST(Nufft, ForwardAdjointDotTest) {
  // <forward(x), y>_M == <x, adjoint(y)>_N for every engine through the
  // full NuFFT chain (needed for CG convergence).
  for (auto kind : {GridderKind::Serial, GridderKind::Binning,
                    GridderKind::SliceDice}) {
    GridderOptions opt;
    opt.kind = kind;
    opt.width = 6;
    opt.tile = 8;
    const std::int64_t n = 16;
    const auto coords = random_coords<2>(120, 84);
    NufftPlan<2> plan(n, coords, opt);

    const auto y = random_values(120, 85);
    const auto x = random_values(static_cast<std::size_t>(n * n), 86);
    const auto ax = plan.forward(x);
    const auto ahy = plan.adjoint(y);

    c64 lhs{}, rhs{};
    for (std::size_t j = 0; j < y.size(); ++j) {
      lhs += std::conj(ax[j]) * y[j];
    }
    for (std::size_t i = 0; i < x.size(); ++i) {
      rhs += std::conj(x[i]) * ahy[i];
    }
    EXPECT_NEAR(std::abs(lhs - rhs), 0.0, 1e-8 * std::abs(lhs))
        << to_string(kind);
  }
}

TEST(Nufft, SingleSampleAtOriginGivesFlatImage) {
  // f at x=0: image[k] = f for all k (e^{0} = 1).
  GridderOptions opt;
  opt.width = 6;
  opt.tile = 8;
  const std::int64_t n = 16;
  NufftPlan<2> plan(n, {{0.0, 0.0}}, opt);
  const auto img = plan.adjoint({c64(1.0, 0.0)});
  for (const auto& v : img) {
    EXPECT_NEAR(v.real(), 1.0, 1e-4);
    EXPECT_NEAR(v.imag(), 0.0, 1e-4);
  }
}

TEST(Nufft, TimingsBreakdownPopulated) {
  GridderOptions opt;
  opt.kind = GridderKind::Binning;
  opt.width = 6;
  opt.tile = 8;
  const std::int64_t n = 16;
  NufftPlan<2> plan(n, random_coords<2>(500, 87), opt);
  NufftTimings t;
  plan.adjoint(random_values(500, 88), &t);
  EXPECT_GT(t.grid_seconds, 0.0);
  EXPECT_GT(t.fft_seconds, 0.0);
  EXPECT_GT(t.apod_seconds, 0.0);
  EXPECT_GT(t.presort_seconds, 0.0);  // binning presorts
  EXPECT_NEAR(t.total(),
              t.grid_seconds + t.fft_seconds + t.apod_seconds +
                  t.presort_seconds,
              1e-12);
}

TEST(Nufft, ApodizationProfileSymmetricAndPeaked) {
  GridderOptions opt;
  opt.width = 6;
  opt.tile = 8;
  const std::int64_t n = 16;
  NufftPlan<2> plan(n, random_coords<2>(10, 89), opt);
  const auto& a = plan.apodization_1d();
  ASSERT_EQ(a.size(), 16u);
  // Symmetric about DC (index n/2) and maximal there.
  for (std::int64_t i = 1; i < 8; ++i) {
    EXPECT_NEAR(a[static_cast<std::size_t>(8 - i)],
                a[static_cast<std::size_t>(8 + i)], 1e-12);
  }
  for (const double v : a) EXPECT_LE(v, a[8] + 1e-12);
}

TEST(Nufft, ThreadedPlanMatchesSerialPlan) {
  GridderOptions opt;
  opt.width = 6;
  opt.tile = 8;
  const std::int64_t n = 16;
  const auto coords = random_coords<2>(300, 95);
  const auto values = random_values(300, 96);
  NufftPlan<2> serial_plan(n, coords, opt);
  opt.threads = 4;  // threads feed both the gridder and the FFT
  NufftPlan<2> threaded_plan(n, coords, opt);
  const auto a = serial_plan.adjoint(values);
  const auto b = threaded_plan.adjoint(values);
  EXPECT_LT(nrmsd(b, a), 1e-12);
}

TEST(Nufft, RejectsOutOfRangeOrNanCoordinates) {
  GridderOptions opt;
  opt.width = 6;
  opt.tile = 8;
  std::vector<Coord<2>> bad = {{0.7, 0.0}};
  EXPECT_THROW(NufftPlan<2>(16, bad, opt), std::invalid_argument);
  std::vector<Coord<2>> nan = {{std::nan(""), 0.0}};
  EXPECT_THROW(NufftPlan<2>(16, nan, opt), std::invalid_argument);
  std::vector<Coord<2>> edge = {{-0.5, 0.499999}};
  EXPECT_NO_THROW(NufftPlan<2>(16, edge, opt));
}

TEST(Nufft, MismatchedValueCountThrows) {
  GridderOptions opt;
  opt.width = 6;
  opt.tile = 8;
  NufftPlan<2> plan(16, random_coords<2>(10, 90), opt);
  EXPECT_THROW(plan.adjoint(random_values(9, 91)), std::invalid_argument);
  EXPECT_THROW(plan.forward(random_values(10, 92)), std::invalid_argument);
}

TEST(Nufft, RealisticTrajectoryRoundTripEnergy) {
  // forward(adjoint(y)) preserves the gross energy scale (sanity for the
  // gram operator used in recon).
  GridderOptions opt;
  opt.width = 6;
  opt.tile = 8;
  const auto traj = trajectory::radial_2d(16, 32);
  NufftPlan<2> plan(16, traj, opt);
  const auto y = random_values(traj.size(), 93);
  const auto img = plan.adjoint(y);
  const auto back = plan.forward(img);
  EXPECT_GT(norm2(back), 0.0);
}

}  // namespace
}  // namespace jigsaw::core
