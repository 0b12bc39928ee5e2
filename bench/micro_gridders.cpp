// E11 — google-benchmark microbenchmarks: per-sample gridding throughput of
// each engine, kernel-evaluation vs LUT cost, and FFT throughput.
#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "core/gridder.hpp"
#include "core/grid.hpp"
#include "fft/fft.hpp"
#include "kernels/bessel.hpp"
#include "kernels/kernel.hpp"
#include "kernels/lut.hpp"
#include "trajectory/trajectory.hpp"

using namespace jigsaw;

namespace {

core::SampleSet<2> workload(std::int64_t m) {
  core::SampleSet<2> s;
  s.coords = trajectory::make_2d(trajectory::TrajectoryType::Radial, m);
  s.values.assign(s.coords.size(), c64(0.01, 0.02));
  return s;
}

void bench_gridder(benchmark::State& state, core::GridderKind kind,
                   bool exact_weights) {
  const std::int64_t n = 128;  // G = 256
  core::GridderOptions opt;
  opt.kind = kind;
  opt.width = 6;
  opt.tile = 8;
  opt.exact_weights = exact_weights;
  auto g = core::make_gridder<2>(n, opt);
  const auto in = workload(1 << 15);
  core::Grid<2> grid(g->grid_size());
  for (auto _ : state) {
    g->adjoint(in, grid);
    benchmark::DoNotOptimize(grid.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(in.size()));
}

}  // namespace

static void BM_Gridding_Serial(benchmark::State& s) {
  bench_gridder(s, core::GridderKind::Serial, false);
}
static void BM_Gridding_Binning(benchmark::State& s) {
  bench_gridder(s, core::GridderKind::Binning, true);
}
static void BM_Gridding_BinningLut(benchmark::State& s) {
  bench_gridder(s, core::GridderKind::Binning, false);
}
static void BM_Gridding_SliceDice(benchmark::State& s) {
  bench_gridder(s, core::GridderKind::SliceDice, false);
}
static void BM_Gridding_Jigsaw(benchmark::State& s) {
  bench_gridder(s, core::GridderKind::Jigsaw, false);
}
static void BM_Gridding_Sparse(benchmark::State& s) {
  bench_gridder(s, core::GridderKind::Sparse, false);
}
static void BM_Gridding_Float(benchmark::State& s) {
  bench_gridder(s, core::GridderKind::FloatSerial, false);
}
BENCHMARK(BM_Gridding_Serial);
BENCHMARK(BM_Gridding_Binning);
BENCHMARK(BM_Gridding_BinningLut);
BENCHMARK(BM_Gridding_SliceDice);
BENCHMARK(BM_Gridding_Jigsaw);
BENCHMARK(BM_Gridding_Sparse);
BENCHMARK(BM_Gridding_Float);

static void BM_ForwardInterp_SliceDice(benchmark::State& state) {
  const std::int64_t n = 128;
  core::GridderOptions opt;
  opt.kind = core::GridderKind::SliceDice;
  opt.width = 6;
  opt.tile = 8;
  auto g = core::make_gridder<2>(n, opt);
  auto in = workload(1 << 15);
  core::Grid<2> grid(g->grid_size());
  g->adjoint(in, grid);
  for (auto _ : state) {
    g->forward(grid, in);
    benchmark::DoNotOptimize(in.values.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(in.size()));
}
BENCHMARK(BM_ForwardInterp_SliceDice);

static void BM_KernelEval_KaiserBessel(benchmark::State& state) {
  auto k = kernels::make_kernel(kernels::KernelType::KaiserBessel, 6, 2.0);
  Rng rng(1);
  std::vector<double> pts(1024);
  for (auto& p : pts) p = rng.uniform(-3.0, 3.0);
  for (auto _ : state) {
    double acc = 0;
    for (double p : pts) acc += k->evaluate(p);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_KernelEval_KaiserBessel);

static void BM_KernelLutLookup(benchmark::State& state) {
  auto k = kernels::make_kernel(kernels::KernelType::KaiserBessel, 6, 2.0);
  kernels::KernelLut lut(*k, 32);
  Rng rng(1);
  std::vector<double> pts(1024);
  for (auto& p : pts) p = rng.uniform(-3.0, 3.0);
  for (auto _ : state) {
    double acc = 0;
    for (double p : pts) acc += lut.weight(p);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_KernelLutLookup);

static void BM_BesselI0(benchmark::State& state) {
  Rng rng(2);
  std::vector<double> pts(1024);
  for (auto& p : pts) p = rng.uniform(0.0, 14.0);
  for (auto _ : state) {
    double acc = 0;
    for (double p : pts) acc += kernels::bessel_i0(p);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_BesselI0);

static void BM_Fft2D(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  fft::FftNd plan({n, n});
  Rng rng(3);
  std::vector<c64> data(n * n);
  for (auto& v : data) v = c64(rng.uniform(-1, 1), rng.uniform(-1, 1));
  for (auto _ : state) {
    plan.execute(data.data(), fft::Direction::Forward);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n * n));
}
BENCHMARK(BM_Fft2D)->Arg(128)->Arg(256)->Arg(512);
