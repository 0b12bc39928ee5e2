// Cycle-level simulator tests: bit-exactness against the functional model,
// the paper's closed-form cycle counts (M+12 / (M+15)*Nz / (M+15)*Wz),
// stall-freedom, activity counters, and hardware-limit enforcement.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "core/jigsaw_gridder.hpp"
#include "core/metrics.hpp"
#include "jigsaw/cycle_sim.hpp"

namespace jigsaw::sim {
namespace {

using core::Grid;
using core::GridderOptions;
using core::SampleSet;

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
        c64(0.05 * rng.uniform(-1, 1), 0.05 * rng.uniform(-1, 1));
  }
  return s;
}

GridderOptions base_options() {
  GridderOptions opt;
  opt.width = 6;
  opt.tile = 8;
  opt.table_oversampling = 32;
  return opt;
}

TEST(CycleSim2D, BitExactWithFunctionalGridder) {
  const auto opt = base_options();
  const std::int64_t n = 16;
  const auto in = random_samples<2>(500, 51);

  core::JigsawGridder<2> func(n, opt);
  Grid<2> gfunc(func.grid_size());
  func.adjoint(in, gfunc);
  ASSERT_EQ(func.stats().saturation_events, 0u);

  CycleSim sim(n, opt, /*three_d=*/false);
  Grid<2> gsim(sim.grid_size());
  sim.run_2d(in, gsim);
  ASSERT_EQ(sim.stats().saturations, 0);
  ASSERT_EQ(sim.scale_log2(), func.scale_log2());

  // Raw fixed-point registers must be identical, not just close.
  const auto func_dice = func.dice();  // a snapshot of the last call
  ASSERT_EQ(sim.dice().size(), func_dice.size());
  for (std::size_t i = 0; i < sim.dice().size(); ++i) {
    ASSERT_EQ(sim.dice()[i].re.raw(), func_dice[i].re.raw()) << "i=" << i;
    ASSERT_EQ(sim.dice()[i].im.raw(), func_dice[i].im.raw()) << "i=" << i;
  }
  for (std::int64_t i = 0; i < gsim.total(); ++i) {
    ASSERT_EQ(gsim[i], gfunc[i]);
  }
}

TEST(CycleSim2D, CycleCountIsMPlusDepth) {
  // Paper Sec. VI-A: "the runtime of an M-sample input is M + 12 cycles".
  const auto opt = base_options();
  CycleSim sim(16, opt, false);
  Grid<2> g(sim.grid_size());
  for (std::int64_t m : {1, 7, 100, 1234}) {
    sim.run_2d(random_samples<2>(m, 52), g);
    EXPECT_EQ(sim.stats().gridding_cycles, m + 12);
    EXPECT_EQ(sim.stats().stall_cycles, 0);
    EXPECT_EQ(sim.stats().samples_streamed, m);
  }
}

TEST(CycleSim2D, CycleCountIndependentOfOrderingAndPattern) {
  // Trajectory-agnostic, deterministic performance: shuffled or clustered
  // inputs take exactly the same cycles.
  const auto opt = base_options();
  CycleSim sim(16, opt, false);
  Grid<2> g(sim.grid_size());

  auto in = random_samples<2>(300, 53);
  sim.run_2d(in, g);
  const auto cycles_random = sim.stats().gridding_cycles;

  // Pathological: all samples at one spot.
  SampleSet<2> hot;
  hot.coords.assign(300, {0.2, -0.3});
  hot.values.assign(300, c64(0.01, 0.0));
  sim.run_2d(hot, g);
  EXPECT_EQ(sim.stats().gridding_cycles, cycles_random);

  // Sorted input.
  std::sort(in.coords.begin(), in.coords.end());
  sim.run_2d(in, g);
  EXPECT_EQ(sim.stats().gridding_cycles, cycles_random);
}

TEST(CycleSim2D, ReadoutUsesTwoPointsPerCycle) {
  const auto opt = base_options();
  CycleSim sim(16, opt, false);  // G = 32
  Grid<2> g(sim.grid_size());
  sim.run_2d(random_samples<2>(10, 54), g);
  EXPECT_EQ(sim.stats().readout_cycles, 32 * 32 / 2);
}

TEST(CycleSim2D, EveryPipelineSelectsEverySample) {
  const auto opt = base_options();
  CycleSim sim(16, opt, false);
  Grid<2> g(sim.grid_size());
  const std::int64_t m = 250;
  sim.run_2d(random_samples<2>(m, 55), g);
  EXPECT_EQ(sim.stats().selects, m * 64);  // T^2 pipelines
  // Exactly W^2 pipelines accumulate per sample.
  EXPECT_EQ(sim.stats().accum_writes, m * 36);
  EXPECT_EQ(sim.stats().macs, m * 36);
  EXPECT_EQ(sim.stats().lut_reads, m * 36 * 2);
}

TEST(CycleSim2D, TimingHelpers) {
  const auto opt = base_options();
  CycleSim sim(16, opt, false);
  Grid<2> g(sim.grid_size());
  sim.run_2d(random_samples<2>(1000, 56), g);
  // 1 GHz: 1012 cycles = 1.012 microseconds.
  EXPECT_NEAR(sim.stats().gridding_seconds(), 1012e-9, 1e-15);
  EXPECT_GT(sim.stats().total_seconds(), sim.stats().gridding_seconds());
  // 128-bit bus at 1 GHz = 16 GB/s (paper quotes DDR4-class ~20 GB/s).
  EXPECT_NEAR(sim.required_bandwidth_bytes_per_s(), 16e9, 1e-3);
}

TEST(CycleSim2D, ForwardBitExactWithFunctionalGridder) {
  // The re-gridding (gather) direction must match core::JigsawGridder's
  // fixed-point forward path register-for-register.
  const auto opt = base_options();
  const std::int64_t n = 16;
  const auto in = random_samples<2>(300, 63);

  // Build a grid to interpolate from.
  core::JigsawGridder<2> func(n, opt);
  Grid<2> grid(func.grid_size());
  func.adjoint(in, grid);

  SampleSet<2> out_func;
  out_func.coords = random_samples<2>(200, 64).coords;
  out_func.values.assign(out_func.coords.size(), c64{});
  SampleSet<2> out_sim = out_func;

  func.forward(grid, out_func);
  ASSERT_EQ(func.stats().saturation_events, 0u);

  CycleSim sim(n, opt, false);
  sim.run_2d_forward(grid, out_sim);
  ASSERT_EQ(sim.stats().saturations, 0);
  ASSERT_EQ(sim.scale_log2(), func.scale_log2());

  for (std::size_t j = 0; j < out_func.values.size(); ++j) {
    ASSERT_EQ(out_sim.values[j], out_func.values[j]) << "sample " << j;
  }
  // One sample produced per cycle.
  EXPECT_EQ(sim.stats().gridding_cycles, 200 + 12);
  EXPECT_EQ(sim.stats().selects, 200 * 64);
}

TEST(CycleSim2D, ForwardCloseToDoubleReference) {
  const auto opt = base_options();
  const std::int64_t n = 16;
  const auto in = random_samples<2>(300, 65);

  core::JigsawGridder<2> jig(n, opt);
  Grid<2> grid(jig.grid_size());
  // A double-precision grid (from any engine) interpolated both ways.
  core::GridderOptions dopt = opt;
  auto dg = core::make_gridder<2>(n, dopt);
  dg->adjoint(in, grid);

  SampleSet<2> out_ref;
  out_ref.coords = random_samples<2>(150, 66).coords;
  out_ref.values.assign(out_ref.coords.size(), c64{});
  SampleSet<2> out_fix = out_ref;
  dg->forward(grid, out_ref);
  jig.forward(grid, out_fix);

  double num = 0, den = 0;
  for (std::size_t j = 0; j < out_ref.values.size(); ++j) {
    num += std::norm(out_fix.values[j] - out_ref.values[j]);
    den += std::norm(out_ref.values[j]);
  }
  EXPECT_LT(std::sqrt(num / den), 2e-2);  // L=32 table + fixed point
}

TEST(CycleSim3D, MatchesFunctionalGridder3D) {
  GridderOptions opt = base_options();
  opt.width = 4;
  const std::int64_t n = 8;  // G = 16
  const auto in = random_samples<3>(150, 57);

  core::JigsawGridder<3> func(n, opt);
  Grid<3> gfunc(func.grid_size());
  func.adjoint(in, gfunc);
  ASSERT_EQ(func.stats().saturation_events, 0u);

  CycleSim sim(n, opt, /*three_d=*/true);
  Grid<3> gsim(sim.grid_size());
  sim.run_3d(in, gsim, /*z_binned=*/false);
  ASSERT_EQ(sim.stats().saturations, 0);
  for (std::int64_t i = 0; i < gsim.total(); ++i) {
    ASSERT_EQ(gsim[i], gfunc[i]) << "i=" << i;
  }
}

TEST(CycleSim3D, UnsortedCyclesAreMPlusDepthTimesNz) {
  GridderOptions opt = base_options();
  opt.width = 4;
  const std::int64_t n = 8;  // G = Nz = 16
  CycleSim sim(n, opt, true);
  Grid<3> g(sim.grid_size());
  const std::int64_t m = 120;
  sim.run_3d(random_samples<3>(m, 58), g, false);
  EXPECT_EQ(sim.stats().gridding_cycles, (m + 15) * 16);
}

TEST(CycleSim3D, ZBinnedMatchesUnsortedBitExactly) {
  GridderOptions opt = base_options();
  opt.width = 4;
  const std::int64_t n = 8;
  const auto in = random_samples<3>(200, 59);

  CycleSim unsorted(n, opt, true);
  Grid<3> a(unsorted.grid_size());
  unsorted.run_3d(in, a, false);

  CycleSim binned(n, opt, true);
  Grid<3> b(binned.grid_size());
  binned.run_3d(in, b, true);

  for (std::int64_t i = 0; i < a.total(); ++i) ASSERT_EQ(a[i], b[i]);
}

TEST(CycleSim3D, ZBinningCutsCyclesToWzStreams) {
  // Paper Sec. VI-A: pre-sorting by slice reduces runtime from
  // (M+15)*Nz to ~(M+15)*Wz.
  GridderOptions opt = base_options();
  opt.width = 4;  // Wz = 4, Nz = 16
  const std::int64_t n = 8;
  const auto in = random_samples<3>(500, 60);

  CycleSim unsorted(n, opt, true);
  Grid<3> g(unsorted.grid_size());
  unsorted.run_3d(in, g, false);
  const auto full = unsorted.stats().gridding_cycles;

  CycleSim binned(n, opt, true);
  binned.run_3d(in, g, true);
  const auto cut = binned.stats().gridding_cycles;

  // Each sample streams to exactly Wz slices.
  EXPECT_EQ(binned.stats().samples_streamed, 500 * 4);
  const double ratio = static_cast<double>(full) / static_cast<double>(cut);
  EXPECT_NEAR(ratio, 16.0 / 4.0, 0.5);
}

TEST(CycleSim, EnforcesHardwareLimits) {
  GridderOptions opt = base_options();
  // Grid too large for the 8 MB accumulation SRAM (G > 1024).
  EXPECT_THROW(CycleSim(1024, opt, false), std::invalid_argument);  // G=2048
  EXPECT_NO_THROW(CycleSim(512, opt, false));                       // G=1024

  GridderOptions wide = base_options();
  wide.width = 9;
  EXPECT_THROW(CycleSim(16, wide, false), std::invalid_argument);

  GridderOptions lut = base_options();
  lut.table_oversampling = 128;  // exceeds L=64
  EXPECT_THROW(CycleSim(16, lut, false), std::invalid_argument);

  GridderOptions tile = base_options();
  tile.tile = 16;  // exceeds T=8 pipelines
  EXPECT_THROW(CycleSim(16, tile, false), std::invalid_argument);
}

TEST(CycleSim, SupportsFullTableIRange) {
  // Paper Table I: N 8..1024, W 1..8, L 1..64 (W*L/2 <= 256 entries and
  // the LUT must be non-empty).
  for (int w : {2, 4, 8}) {
    for (int l : {2, 16, 64}) {
      if (w * l / 2 > 256 || w * l / 2 < 1) continue;
      GridderOptions opt = base_options();
      opt.width = w;
      opt.table_oversampling = l;
      EXPECT_NO_THROW(CycleSim(16, opt, false))
          << "W=" << w << " L=" << l;
    }
  }
}

TEST(CycleSim, WrongVariantCallsThrow) {
  const auto opt = base_options();
  CycleSim sim2d(16, opt, false);
  Grid<3> g3(sim2d.grid_size());
  EXPECT_THROW(sim2d.run_3d(random_samples<3>(4, 61), g3, false),
               std::invalid_argument);
  CycleSim sim3d(16, opt, true);
  Grid<2> g2(sim3d.grid_size());
  EXPECT_THROW(sim3d.run_2d(random_samples<2>(4, 62), g2),
               std::invalid_argument);
}

TEST(CycleSim, EmptyStreamTakesZeroCycles) {
  const auto opt = base_options();
  CycleSim sim(16, opt, false);
  Grid<2> g(sim.grid_size());
  SampleSet<2> empty;
  sim.run_2d(empty, g);
  EXPECT_EQ(sim.stats().gridding_cycles, 0);
  for (std::int64_t i = 0; i < g.total(); ++i) EXPECT_EQ(g[i], c64{});
}

}  // namespace
}  // namespace jigsaw::sim
