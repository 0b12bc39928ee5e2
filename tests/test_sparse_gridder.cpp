// Sparse-matrix gridder (MIRT sparse mode) tests.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/metrics.hpp"
#include "core/nufft.hpp"
#include "core/serial_gridder.hpp"
#include "core/sparse_gridder.hpp"

namespace jigsaw::core {
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

GridderOptions base_options() {
  GridderOptions opt;
  opt.width = 6;
  opt.tile = 8;
  return opt;
}

TEST(SparseGridder, AdjointMatchesSerialExactly) {
  const auto opt = base_options();
  const std::int64_t n = 16;
  const auto in = random_samples<2>(300, 1);

  SerialGridder<2> serial(n, opt);
  Grid<2> gref(serial.grid_size());
  serial.adjoint(in, gref);

  SparseGridder<2> sparse(n, opt);
  Grid<2> gsp(sparse.grid_size());
  sparse.adjoint(in, gsp);

  // Same weights and accumulation order; the only difference is the
  // multiply association ((w0*w1)*f vs w1*(w0*f)) — sub-ulp.
  for (std::int64_t i = 0; i < gref.total(); ++i) {
    EXPECT_LT(std::abs(gsp[i] - gref[i]), 1e-13) << "i=" << i;
  }
}

TEST(SparseGridder, ForwardMatchesBaseImplementation) {
  const auto opt = base_options();
  const std::int64_t n = 16;
  auto in = random_samples<2>(200, 2);

  SerialGridder<2> serial(n, opt);
  Grid<2> grid(serial.grid_size());
  serial.adjoint(in, grid);

  SampleSet<2> out_base = in;
  serial.forward(grid, out_base);
  SampleSet<2> out_sparse = in;
  SparseGridder<2> sparse(n, opt);
  sparse.forward(grid, out_sparse);

  for (std::size_t j = 0; j < in.size(); ++j) {
    EXPECT_LT(std::abs(out_sparse.values[j] - out_base.values[j]), 1e-12);
  }
}

TEST(SparseGridder, MatrixBuiltOnceForRepeatedTransforms) {
  const auto opt = base_options();
  const std::int64_t n = 16;
  const auto in = random_samples<2>(150, 3);
  SparseGridder<2> sparse(n, opt);
  Grid<2> grid(sparse.grid_size());

  sparse.adjoint(in, grid);
  const double first_presort = sparse.stats().presort_seconds;
  EXPECT_GT(first_presort, 0.0);
  EXPECT_EQ(sparse.nonzeros(), 150u * 36u);

  // Second transform on the same coordinates: no rebuild.
  sparse.adjoint(in, grid);
  EXPECT_EQ(sparse.stats().presort_seconds, first_presort);
  EXPECT_EQ(sparse.stats().lut_lookups, 150u * 2u * 6u);  // built once
}

// One NufftPlan reused across frames (a serve plan-pool entry, a stream
// session's resident plan) builds its CSR matrix once: the weight lookups
// counted over six adjoints equal exactly one build pass.
TEST(SparseGridder, PlanBuildsMatrixOnceAcrossFrames) {
  GridderOptions opt = base_options();
  opt.kind = GridderKind::Sparse;
  const auto in = random_samples<2>(400, 6);
  const NufftPlan<2> plan(16, in.coords, opt);
  for (std::uint64_t f = 0; f < 6; ++f) {
    plan.adjoint(random_samples<2>(400, 200 + f).values);
  }
  const auto& stats = plan.gridder().stats();
  EXPECT_EQ(stats.lut_lookups, in.coords.size() * 2u * 6u);
  EXPECT_EQ(stats.samples_processed, 6u * in.coords.size());
}

TEST(SparseGridder, MatrixRebuiltWhenCoordinatesChange) {
  const auto opt = base_options();
  SparseGridder<2> sparse(16, opt);
  Grid<2> grid(sparse.grid_size());
  const auto a = random_samples<2>(50, 4);
  const auto b = random_samples<2>(50, 5);
  sparse.adjoint(a, grid);
  const double after_a = sparse.stats().presort_seconds;
  sparse.adjoint(b, grid);
  EXPECT_GT(sparse.stats().presort_seconds, after_a);
}

TEST(SparseGridder, MemoryFootprintIsSixteenBytesPerNonzero) {
  const auto opt = base_options();
  SparseGridder<2> sparse(16, opt);
  Grid<2> grid(sparse.grid_size());
  const auto in = random_samples<2>(100, 6);
  sparse.adjoint(in, grid);
  EXPECT_EQ(sparse.matrix_bytes(), 100u * 36u * 16u);
}

TEST(SparseGridder, FactoryConstructs) {
  GridderOptions opt = base_options();
  opt.kind = GridderKind::Sparse;
  auto g = make_gridder<2>(16, opt);
  EXPECT_EQ(g->kind(), GridderKind::Sparse);
  EXPECT_EQ(to_string(g->kind()), "sparse-matrix");
}

TEST(SparseGridder, ThreeDMatchesSerial) {
  GridderOptions opt = base_options();
  opt.width = 4;
  const std::int64_t n = 8;
  const auto in = random_samples<3>(120, 7);
  SerialGridder<3> serial(n, opt);
  Grid<3> gref(serial.grid_size());
  serial.adjoint(in, gref);
  SparseGridder<3> sparse(n, opt);
  Grid<3> gsp(sparse.grid_size());
  sparse.adjoint(in, gsp);
  for (std::int64_t i = 0; i < gref.total(); ++i) {
    EXPECT_LT(std::abs(gsp[i] - gref[i]), 1e-13);
  }
}

TEST(SparseGridder, OneDMatchesSerial) {
  const auto opt = base_options();
  const std::int64_t n = 32;
  const auto in = random_samples<1>(100, 8);
  SerialGridder<1> serial(n, opt);
  Grid<1> gref(serial.grid_size());
  serial.adjoint(in, gref);
  SparseGridder<1> sparse(n, opt);
  Grid<1> gsp(sparse.grid_size());
  sparse.adjoint(in, gsp);
  for (std::int64_t i = 0; i < gref.total(); ++i) {
    EXPECT_EQ(gsp[i], gref[i]);
  }
}

}  // namespace
}  // namespace jigsaw::core
