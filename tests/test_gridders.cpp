// Gridding engine property tests.
//
// The library's central invariant: every engine (serial, output-driven,
// binning, slice-and-dice in both execution modes) implements the same
// mathematical operator, so on identical inputs they must produce identical
// grids (up to FP rounding). This is what lets the benchmark harness compare
// their *performance* meaningfully.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <ostream>

#include "common/rng.hpp"
#include "core/binning_gridder.hpp"
#include "core/gridder.hpp"
#include "core/metrics.hpp"
#include "core/output_driven_gridder.hpp"
#include "core/serial_gridder.hpp"
#include "core/slice_dice_gridder.hpp"
#include "test_names.hpp"

namespace jigsaw::core {

// gtest finds PrintTo by argument-dependent lookup: failure messages then
// show a parameter's fields instead of its raw bytes.
void PrintTo(GridderKind kind, std::ostream* os) { *os << to_string(kind); }

namespace {

template <int D>
SampleSet<D> random_samples(std::int64_t m, std::uint64_t seed) {
  Rng rng(seed);
  SampleSet<D> s;
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

template <int D>
std::vector<c64> grid_values(Gridder<D>& g, const SampleSet<D>& in) {
  Grid<D> grid(g.grid_size());
  g.adjoint(in, grid);
  return std::vector<c64>(grid.data(), grid.data() + grid.total());
}

struct EquivCase {
  int width;
  double sigma;
  kernels::KernelType kernel;
  bool exact_weights;
};

void PrintTo(const EquivCase& p, std::ostream* os) {
  *os << kernels::to_string(p.kernel) << " W=" << p.width
      << " sigma=" << p.sigma << (p.exact_weights ? " exact" : " lut");
}

class GridderEquivalence2D : public ::testing::TestWithParam<EquivCase> {};

TEST_P(GridderEquivalence2D, AllEnginesProduceTheSameGrid) {
  const auto p = GetParam();
  GridderOptions opt;
  opt.width = p.width;
  opt.sigma = p.sigma;
  opt.kernel = p.kernel;
  opt.exact_weights = p.exact_weights;
  opt.tile = 8;
  const std::int64_t n = 16;
  const auto in = random_samples<2>(300, 42 + p.width);

  opt.kind = GridderKind::Serial;
  SerialGridder<2> serial(n, opt);
  const auto ref = grid_values<2>(serial, in);
  const double ref_scale = norm2(ref);
  ASSERT_GT(ref_scale, 0.0);

  opt.kind = GridderKind::OutputDriven;
  OutputDrivenGridder<2> output(n, opt);
  EXPECT_LT(max_abs_diff(grid_values<2>(output, in), ref), 1e-9 * ref_scale);

  opt.kind = GridderKind::Binning;
  BinningGridder<2> binning(n, opt);
  EXPECT_LT(max_abs_diff(grid_values<2>(binning, in), ref), 1e-9 * ref_scale);

  opt.kind = GridderKind::SliceDice;
  SliceDiceGridder<2> sd(n, opt);
  EXPECT_LT(max_abs_diff(grid_values<2>(sd, in), ref), 1e-9 * ref_scale);

  opt.model_faithful_checks = true;
  SliceDiceGridder<2> sd_model(n, opt);
  EXPECT_LT(max_abs_diff(grid_values<2>(sd_model, in), ref),
            1e-9 * ref_scale);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GridderEquivalence2D,
    ::testing::Values(
        EquivCase{6, 2.0, kernels::KernelType::KaiserBessel, false},
        EquivCase{6, 2.0, kernels::KernelType::KaiserBessel, true},
        EquivCase{4, 2.0, kernels::KernelType::KaiserBessel, false},
        EquivCase{5, 2.0, kernels::KernelType::KaiserBessel, false},
        EquivCase{8, 2.0, kernels::KernelType::KaiserBessel, false},
        EquivCase{6, 1.5, kernels::KernelType::KaiserBessel, false},
        EquivCase{6, 2.0, kernels::KernelType::Gaussian, false},
        EquivCase{6, 2.0, kernels::KernelType::BSpline, false},
        EquivCase{4, 2.0, kernels::KernelType::Triangle, true}),
    [](const ::testing::TestParamInfo<EquivCase>& case_info) {
      const EquivCase& p = case_info.param;
      return test_names::camel(kernels::to_string(p.kernel)) + "_" +
             test_names::width_sigma(p.width, p.sigma) +
             (p.exact_weights ? "_exact" : "_lut");
    });

TEST(GridderEquivalence1D, AllEnginesAgree) {
  GridderOptions opt;
  opt.width = 6;
  opt.tile = 8;
  const std::int64_t n = 32;
  const auto in = random_samples<1>(200, 7);
  SerialGridder<1> serial(n, opt);
  const auto ref = grid_values<1>(serial, in);
  const double scale = norm2(ref);

  OutputDrivenGridder<1> output(n, opt);
  EXPECT_LT(max_abs_diff(grid_values<1>(output, in), ref), 1e-9 * scale);
  BinningGridder<1> binning(n, opt);
  EXPECT_LT(max_abs_diff(grid_values<1>(binning, in), ref), 1e-9 * scale);
  SliceDiceGridder<1> sd(n, opt);
  EXPECT_LT(max_abs_diff(grid_values<1>(sd, in), ref), 1e-9 * scale);
}

TEST(GridderEquivalence3D, AllEnginesAgree) {
  GridderOptions opt;
  opt.width = 4;
  opt.tile = 8;
  const std::int64_t n = 8;  // G = 16
  const auto in = random_samples<3>(150, 9);
  SerialGridder<3> serial(n, opt);
  const auto ref = grid_values<3>(serial, in);
  const double scale = norm2(ref);

  OutputDrivenGridder<3> output(n, opt);
  EXPECT_LT(max_abs_diff(grid_values<3>(output, in), ref), 1e-9 * scale);
  BinningGridder<3> binning(n, opt);
  EXPECT_LT(max_abs_diff(grid_values<3>(binning, in), ref), 1e-9 * scale);
  SliceDiceGridder<3> sd(n, opt);
  EXPECT_LT(max_abs_diff(grid_values<3>(sd, in), ref), 1e-9 * scale);
  opt.model_faithful_checks = true;
  SliceDiceGridder<3> sdm(n, opt);
  EXPECT_LT(max_abs_diff(grid_values<3>(sdm, in), ref), 1e-9 * scale);
}

TEST(GridderEquivalence2D, EdgeHuggingSamplesWrapIdentically) {
  // Samples deliberately placed within W/2 of the torus seam (paper Fig. 2:
  // windows of a, c, f wrap to other sides of the grid).
  GridderOptions opt;
  opt.width = 6;
  opt.tile = 8;
  const std::int64_t n = 16;
  SampleSet<2> in;
  in.coords = {{-0.5, -0.5}, {-0.5, 0.4999}, {0.4999, -0.5},
               {0.4999, 0.4999}, {-0.499, 0.0}, {0.0, 0.4995},
               {-0.5, 0.0},     {0.499, 0.499}};
  in.values.assign(in.coords.size(), c64(1.0, -0.5));

  SerialGridder<2> serial(n, opt);
  const auto ref = grid_values<2>(serial, in);
  OutputDrivenGridder<2> output(n, opt);
  EXPECT_LT(max_abs_diff(grid_values<2>(output, in), ref), 1e-10);
  BinningGridder<2> binning(n, opt);
  EXPECT_LT(max_abs_diff(grid_values<2>(binning, in), ref), 1e-10);
  SliceDiceGridder<2> sd(n, opt);
  EXPECT_LT(max_abs_diff(grid_values<2>(sd, in), ref), 1e-10);
  opt.model_faithful_checks = true;
  SliceDiceGridder<2> sdm(n, opt);
  EXPECT_LT(max_abs_diff(grid_values<2>(sdm, in), ref), 1e-10);
}

TEST(Gridder, MassConservationSingleSample) {
  // Sum over the grid of a single unit sample's contributions equals the
  // product over dimensions of the window weight sums.
  GridderOptions opt;
  opt.width = 6;
  opt.tile = 8;
  const std::int64_t n = 16;
  SerialGridder<2> g(n, opt);
  SampleSet<2> in;
  in.coords = {{0.123, -0.317}};
  in.values = {c64(1.0, 0.0)};
  Grid<2> grid(g.grid_size());
  g.adjoint(in, grid);

  c64 total{};
  for (std::int64_t i = 0; i < grid.total(); ++i) total += grid[i];

  // Expected: product over dims of sum_{o} w(g0+o-u).
  double expect = 1.0;
  const std::int64_t gs = g.grid_size();
  for (int d = 0; d < 2; ++d) {
    const double u = (in.coords[0][static_cast<std::size_t>(d)] + 0.5) *
                     static_cast<double>(gs);
    const std::int64_t g0 =
        static_cast<std::int64_t>(std::floor(u + 3.0)) - 6 + 1;
    double s = 0.0;
    for (int o = 0; o < 6; ++o) {
      s += g.lut().weight(static_cast<double>(g0 + o) - u);
    }
    expect *= s;
  }
  EXPECT_NEAR(total.real(), expect, 1e-12);
  EXPECT_NEAR(total.imag(), 0.0, 1e-12);
}

TEST(Gridder, SampleOnGridPointPutsPeakThere) {
  GridderOptions opt;
  opt.width = 6;
  opt.tile = 8;
  const std::int64_t n = 16;  // G = 32
  SerialGridder<2> g(n, opt);
  SampleSet<2> in;
  // Coordinate (-0.25, 0.25) -> grid point (8, 24) on the G=32 grid.
  in.coords = {{-0.25, 0.25}};
  in.values = {c64(2.0, 0.0)};
  Grid<2> grid(g.grid_size());
  g.adjoint(in, grid);
  // Center weight is LUT(0) = 1, so grid[8][24] == 2.0.
  EXPECT_NEAR(grid[8 * 32 + 24].real(), 2.0, 1e-12);
  // The peak dominates all other points.
  for (std::int64_t i = 0; i < grid.total(); ++i) {
    EXPECT_LE(std::abs(grid[i]), 2.0 + 1e-12);
  }
}

TEST(Gridder, LinearityInValues) {
  GridderOptions opt;
  opt.width = 4;
  opt.tile = 8;
  const std::int64_t n = 16;
  SliceDiceGridder<2> g(n, opt);
  auto a = random_samples<2>(50, 1);
  auto b = a;
  const c64 alpha(0.3, -0.7);
  for (auto& v : b.values) v *= alpha;
  const auto ga = grid_values<2>(g, a);
  const auto gb = grid_values<2>(g, b);
  for (std::size_t i = 0; i < ga.size(); ++i) {
    EXPECT_LT(std::abs(gb[i] - alpha * ga[i]), 1e-12);
  }
}

TEST(Gridder, EmptySampleSetGivesZeroGrid) {
  GridderOptions opt;
  opt.width = 6;
  opt.tile = 8;
  SerialGridder<2> g(16, opt);
  SampleSet<2> in;
  Grid<2> grid(g.grid_size());
  g.adjoint(in, grid);
  for (std::int64_t i = 0; i < grid.total(); ++i) {
    EXPECT_EQ(grid[i], c64{});
  }
}

TEST(Gridder, AdjointIsRepeatable) {
  GridderOptions opt;
  opt.width = 6;
  opt.tile = 8;
  SliceDiceGridder<2> g(16, opt);
  const auto in = random_samples<2>(100, 3);
  const auto a = grid_values<2>(g, in);
  const auto b = grid_values<2>(g, in);
  EXPECT_EQ(max_abs_diff(a, b), 0.0);
}

class GridderDotTest
    : public ::testing::TestWithParam<GridderKind> {};

TEST_P(GridderDotTest, ForwardIsAdjointOfGridding) {
  // <forward(g), y>_M == <g, adjoint(y)>_G for random g, y.
  GridderOptions opt;
  opt.kind = GetParam();
  opt.width = 6;
  opt.tile = 8;
  const std::int64_t n = 16;
  auto g = make_gridder<2>(n, opt);

  const auto y = random_samples<2>(120, 11);
  Grid<2> gy(g->grid_size());
  g->adjoint(y, gy);

  Rng rng(12);
  Grid<2> x(g->grid_size());
  for (std::int64_t i = 0; i < x.total(); ++i) {
    x[i] = c64(rng.uniform(-1, 1), rng.uniform(-1, 1));
  }
  SampleSet<2> ax;
  ax.coords = y.coords;
  ax.values.assign(y.coords.size(), c64{});
  g->forward(x, ax);

  c64 lhs{};
  for (std::size_t j = 0; j < ax.values.size(); ++j) {
    lhs += std::conj(ax.values[j]) * y.values[j];
  }
  c64 rhs{};
  for (std::int64_t i = 0; i < x.total(); ++i) {
    rhs += std::conj(x[i]) * gy[i];
  }
  EXPECT_NEAR(std::abs(lhs - rhs), 0.0, 1e-9 * std::abs(lhs) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, GridderDotTest,
    ::testing::Values(GridderKind::Serial, GridderKind::OutputDriven,
                      GridderKind::Binning, GridderKind::SliceDice,
                      GridderKind::Sparse),
    [](const ::testing::TestParamInfo<GridderKind>& case_info) {
      return test_names::camel(to_string(case_info.param));
    });

TEST(Gridder, ForwardAtGridPointOfDeltaGrid) {
  GridderOptions opt;
  opt.width = 6;
  opt.tile = 8;
  SerialGridder<2> g(16, opt);
  Grid<2> grid(g.grid_size());
  grid[10 * 32 + 20] = c64(3.0, 0.0);
  SampleSet<2> s;
  // Sample exactly on grid point (10, 20): u = (tau+0.5)*32.
  s.coords = {{10.0 / 32.0 - 0.5, 20.0 / 32.0 - 0.5}};
  s.values = {c64{}};
  g.forward(grid, s);
  EXPECT_NEAR(s.values[0].real(), 3.0, 1e-12);  // center weight = 1
}

TEST(Gridder, ThreadedSliceDiceMatchesSerialExecution) {
  GridderOptions opt;
  opt.width = 6;
  opt.tile = 8;
  const std::int64_t n = 16;
  const auto in = random_samples<2>(500, 21);

  SliceDiceGridder<2> g1(n, opt);
  const auto a = grid_values<2>(g1, in);
  opt.threads = 4;
  SliceDiceGridder<2> g4(n, opt);
  const auto b = grid_values<2>(g4, in);
  // Atomic accumulation reorders additions: tolerance, not equality.
  EXPECT_LT(max_abs_diff(a, b), 1e-10 * norm2(a));
}

TEST(Gridder, ThreadedBinningMatches) {
  GridderOptions opt;
  opt.width = 6;
  opt.tile = 8;
  opt.kind = GridderKind::Binning;
  const std::int64_t n = 16;
  const auto in = random_samples<2>(400, 22);
  BinningGridder<2> g1(n, opt);
  const auto a = grid_values<2>(g1, in);
  opt.threads = 3;
  BinningGridder<2> g3(n, opt);
  // Tiles are disjoint: identical results.
  EXPECT_EQ(max_abs_diff(grid_values<2>(g3, in), a), 0.0);
}

TEST(Gridder, ConstructionValidation) {
  GridderOptions opt;
  opt.width = 6;
  opt.tile = 7;  // does not divide G=32
  EXPECT_THROW(SliceDiceGridder<2>(16, opt), std::invalid_argument);
  opt.tile = 4;  // smaller than W=6
  EXPECT_THROW(SliceDiceGridder<2>(16, opt), std::invalid_argument);
  opt.tile = 8;
  opt.sigma = 1.03;  // sigma*N not integral
  EXPECT_THROW(SliceDiceGridder<2>(16, opt), std::invalid_argument);
  opt.sigma = 2.0;
  EXPECT_NO_THROW(SliceDiceGridder<2>(16, opt));
}

TEST(Gridder, BinningRejectsDegenerateTileGeometry) {
  GridderOptions opt;
  opt.width = 6;
  opt.tile = 16;  // G = 16 = B: a window could wrap onto its own tile
  EXPECT_THROW(BinningGridder<2>(8, opt), std::invalid_argument);
  opt.tile = 8;
  EXPECT_NO_THROW(BinningGridder<2>(8, opt));  // G=16, 2 tiles/dim
}

TEST(Gridder, BoundaryCheckEnginesRequireGridWiderThanWindow) {
  GridderOptions opt;
  opt.width = 8;
  opt.tile = 8;
  opt.sigma = 2.0;
  // N=4 -> G=8 == W: folded distances would be ambiguous.
  EXPECT_THROW(OutputDrivenGridder<2>(4, opt), std::invalid_argument);
  EXPECT_THROW(BinningGridder<2>(4, opt), std::invalid_argument);
  // The input-driven engines handle G == W correctly (each torus point is
  // covered exactly once by the half-open window).
  EXPECT_NO_THROW(SerialGridder<2>(4, opt));
  EXPECT_NO_THROW(SliceDiceGridder<2>(4, opt));
}

TEST(Gridder, GridSizeMismatchThrows) {
  GridderOptions opt;
  opt.width = 6;
  opt.tile = 8;
  SerialGridder<2> g(16, opt);
  const auto in = random_samples<2>(10, 1);
  Grid<2> wrong(16);  // should be 32
  EXPECT_THROW(g.adjoint(in, wrong), std::invalid_argument);
}

}  // namespace
}  // namespace jigsaw::core
