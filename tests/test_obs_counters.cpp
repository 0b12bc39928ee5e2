// Counter-validated test oracle for the observability layer.
//
// Every assertion here ties a registry counter to an analytically known
// amount of work: kernel evaluations are m*D*W, interpolations m*W^d,
// binning duplicates equal the independent tile-overlap sum from presort(),
// plan-cache misses equal the number of distinct FFT shapes, the cycle
// simulator obeys its M+depth formula. If instrumentation drifts from the
// real work — double counting, a dropped publish, a racy shard merge —
// these tests catch it.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/binning_gridder.hpp"
#include "core/gridder.hpp"
#include "core/nufft.hpp"
#include "core/recon.hpp"
#include "fft/plan_cache.hpp"
#include "jigsaw/cycle_sim.hpp"
#include "memsim/cache.hpp"
#include "obs/obs.hpp"

namespace jigsaw {
namespace {

using core::Grid;
using core::GridderKind;
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
        c64(rng.uniform(-1, 1), rng.uniform(-1, 1));
  }
  return s;
}

class ObsCounters : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!obs::kEnabled) GTEST_SKIP() << "built with JIGSAW_OBS=OFF";
    obs::reset();
  }
};

TEST_F(ObsCounters, ShardMergeSumsSixteenThreadsExactly) {
  constexpr int kThreads = 16;
  constexpr std::uint64_t kAddsPerThread = 10000;
  const obs::Counter handle = obs::counter("test.shard_merge");
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      while (!go.load()) std::this_thread::yield();
      for (std::uint64_t i = 0; i < kAddsPerThread; ++i) {
        obs::add(handle, 1);
      }
    });
  }
  go.store(true);
  for (auto& t : threads) t.join();
  EXPECT_EQ(obs::snapshot().counter("test.shard_merge"),
            kThreads * kAddsPerThread);
}

TEST_F(ObsCounters, SnapshotSurvivesThreadRetirement) {
  // Counts from a thread that has already exited must fold into the
  // retired accumulator, not vanish with its shard.
  std::thread([] { obs::add("test.retired", 123); }).join();
  obs::add("test.retired", 1);
  EXPECT_EQ(obs::snapshot().counter("test.retired"), 124u);
}

TEST_F(ObsCounters, StringAndHandleAddsHitTheSameCounter) {
  const obs::Counter handle = obs::counter("test.alias");
  obs::add(handle, 5);
  obs::add("test.alias", 7);
  EXPECT_EQ(obs::snapshot().counter("test.alias"), 12u);
}

TEST_F(ObsCounters, SerialEngineKernelEvalOracle) {
  // exact_weights=ON: weights come from m*D*W kernel evaluations and the
  // LUT is never consulted; interpolations are m*W^2 either way.
  GridderOptions opt;
  opt.kind = GridderKind::Serial;
  opt.width = 6;
  opt.tile = 8;
  opt.exact_weights = true;
  auto g = core::make_gridder<2>(16, opt);
  const auto in = random_samples<2>(100, 11);
  Grid<2> grid(g->grid_size());
  g->adjoint(in, grid);
  const obs::Snapshot snap = obs::snapshot();
  EXPECT_EQ(snap.counter("grid.serial.kernel_evals"), 100u * 2u * 6u);
  EXPECT_EQ(snap.counter("grid.serial.lut_lookups"), 0u);
  EXPECT_EQ(snap.counter("grid.serial.interpolations"), 100u * 36u);
  EXPECT_EQ(snap.counter("grid.serial.samples_in"), 100u);
  EXPECT_EQ(snap.counter("grid.serial.adjoint_calls"), 1u);
}

TEST_F(ObsCounters, SerialEngineLutOracle) {
  GridderOptions opt;
  opt.kind = GridderKind::Serial;
  opt.width = 4;
  opt.tile = 8;
  auto g = core::make_gridder<2>(16, opt);
  const auto in = random_samples<2>(80, 12);
  Grid<2> grid(g->grid_size());
  g->adjoint(in, grid);
  const obs::Snapshot snap = obs::snapshot();
  EXPECT_EQ(snap.counter("grid.serial.lut_lookups"), 80u * 2u * 4u);
  EXPECT_EQ(snap.counter("grid.serial.kernel_evals"), 0u);
}

TEST_F(ObsCounters, CountersAccumulateAcrossCalls) {
  GridderOptions opt;
  opt.kind = GridderKind::Serial;
  opt.width = 4;
  opt.tile = 8;
  auto g = core::make_gridder<2>(16, opt);
  const auto in = random_samples<2>(50, 13);
  Grid<2> grid(g->grid_size());
  g->adjoint(in, grid);
  g->adjoint(in, grid);
  const obs::Snapshot snap = obs::snapshot();
  EXPECT_EQ(snap.counter("grid.serial.adjoint_calls"), 2u);
  EXPECT_EQ(snap.counter("grid.serial.interpolations"), 2u * 50u * 16u);
}

TEST_F(ObsCounters, BinningDuplicatesMatchIndependentTileOverlapSum) {
  // The registry's bin_duplicates must equal the overlap count computed
  // straight from the presort: total bin placements minus unique samples.
  GridderOptions opt;
  opt.kind = GridderKind::Binning;
  opt.width = 6;
  opt.tile = 8;
  core::BinningGridder<2> g(16, opt);
  const auto in = random_samples<2>(200, 14);

  const auto bins = g.presort(in);
  std::uint64_t placements = 0;
  std::uint64_t boundary = 0;
  for (const auto& bin : bins) {
    placements += bin.size();
    boundary += bin.size() * 64u;  // each placement scans its B^2 tile
  }
  ASSERT_GT(placements, 200u) << "test needs at least one straddler";

  Grid<2> grid(g.grid_size());
  g.adjoint(in, grid);
  const obs::Snapshot snap = obs::snapshot();
  EXPECT_EQ(snap.counter("grid.binning.samples_in"), 200u);
  EXPECT_EQ(snap.counter("grid.binning.samples_processed"), placements);
  EXPECT_EQ(snap.counter("grid.binning.bin_duplicates"), placements - 200u);
  EXPECT_EQ(snap.counter("grid.binning.boundary_checks"), boundary);
  // Duplicated processing still interpolates each placement's full window.
  EXPECT_EQ(snap.counter("grid.binning.interpolations"), 200u * 36u);
}

TEST_F(ObsCounters, OutputDrivenBoundaryChecksAreMTimesGridPoints) {
  GridderOptions opt;
  opt.kind = GridderKind::OutputDriven;
  opt.width = 6;
  opt.tile = 8;
  auto g = core::make_gridder<2>(16, opt);  // G = 32
  const auto in = random_samples<2>(50, 15);
  Grid<2> grid(g->grid_size());
  g->adjoint(in, grid);
  EXPECT_EQ(obs::snapshot().counter("grid.output-driven.boundary_checks"),
            50u * 32u * 32u);
}

TEST_F(ObsCounters, SliceDiceModelFaithfulChecksAreMTimesColumns) {
  GridderOptions opt;
  opt.kind = GridderKind::SliceDice;
  opt.model_faithful_checks = true;
  opt.width = 6;
  opt.tile = 8;
  auto g = core::make_gridder<2>(16, opt);
  const auto in = random_samples<2>(75, 16);
  Grid<2> grid(g->grid_size());
  g->adjoint(in, grid);
  EXPECT_EQ(obs::snapshot().counter("grid.slice-and-dice.boundary_checks"),
            75u * 64u);  // T^2
}

TEST_F(ObsCounters, EveryEnginePublishesAdjointAndForwardWork) {
  struct Spec {
    GridderKind kind;
    bool model_faithful;
    const char* prefix;
  };
  const Spec specs[] = {
      {GridderKind::Serial, false, "grid.serial."},
      {GridderKind::OutputDriven, false, "grid.output-driven."},
      {GridderKind::Binning, false, "grid.binning."},
      {GridderKind::SliceDice, false, "grid.slice-and-dice."},
      {GridderKind::SliceDice, true, "grid.slice-and-dice."},
      {GridderKind::Jigsaw, false, "grid.jigsaw."},
      {GridderKind::Sparse, false, "grid.sparse-matrix."},
      {GridderKind::FloatSerial, false, "grid.serial-f32."},
  };
  const std::int64_t m = 60;
  const auto in = random_samples<2>(m, 17);
  for (const Spec& spec : specs) {
    SCOPED_TRACE(spec.prefix);
    obs::reset();
    GridderOptions opt;
    opt.kind = spec.kind;
    opt.model_faithful_checks = spec.model_faithful;
    opt.width = 4;
    opt.tile = 8;
    opt.table_oversampling = 32;
    auto g = core::make_gridder<2>(16, opt);
    Grid<2> grid(g->grid_size());
    g->adjoint(in, grid);
    SampleSet<2> fwd;
    fwd.coords = in.coords;
    fwd.values.assign(in.coords.size(), c64{});
    g->forward(grid, fwd);

    const obs::Snapshot snap = obs::snapshot();
    const std::string p = spec.prefix;
    EXPECT_EQ(snap.counter(p + "adjoint_calls"), 1u);
    EXPECT_EQ(snap.counter(p + "forward_calls"), 1u);
    // Adjoint + forward each evaluate the full W^2 window per placement;
    // only binning processes more placements than samples.
    const std::uint64_t per_call = static_cast<std::uint64_t>(m) * 16u;
    if (spec.kind == GridderKind::Binning) {
      EXPECT_GE(snap.counter(p + "interpolations"), 2 * per_call);
    } else {
      EXPECT_EQ(snap.counter(p + "interpolations"), 2 * per_call);
    }
    // Weight production: the fixed-point engine always reads its LUT; the
    // others use the LUT unless exact_weights (default off here).
    EXPECT_GT(snap.counter(p + "lut_lookups"), 0u);
    EXPECT_EQ(snap.counter(p + "kernel_evals"), 0u);
  }
}

TEST_F(ObsCounters, PlanCacheMissesEqualDistinctShapesUnderHammering) {
  // 16 threads hammer one cache with 5 distinct FFT shapes. get() resolves
  // under the cache lock, so exactly 5 misses must be counted no matter
  // the interleaving; everything else is a hit.
  fft::FftPlanCache cache;
  const std::vector<std::vector<std::size_t>> shapes = {
      {16, 16}, {32, 32}, {8, 8, 8}, {64}, {128}};
  constexpr int kThreads = 16;
  constexpr int kRounds = 25;
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      while (!go.load()) std::this_thread::yield();
      for (int r = 0; r < kRounds; ++r) {
        for (const auto& dims : shapes) cache.get(dims);
      }
    });
  }
  go.store(true);
  for (auto& t : threads) t.join();

  const obs::Snapshot snap = obs::snapshot();
  EXPECT_EQ(snap.counter("fftcache.misses"), shapes.size());
  EXPECT_EQ(snap.counter("fftcache.hits"),
            static_cast<std::uint64_t>(kThreads) * kRounds * shapes.size() -
                shapes.size());
  // The registry agrees with the cache's own bookkeeping.
  EXPECT_EQ(snap.counter("fftcache.misses"), cache.stats().misses);
  EXPECT_EQ(snap.counter("fftcache.hits"), cache.stats().hits);
}

TEST_F(ObsCounters, NufftPhasesCountPlansAndTransforms) {
  const auto in = random_samples<2>(500, 18);
  GridderOptions opt;
  opt.kind = GridderKind::SliceDice;
  opt.width = 4;
  opt.tile = 8;
  core::NufftPlan<2> plan(16, in.coords, opt);
  const auto image = plan.adjoint(in.values);
  const auto samples = plan.forward(image);

  const obs::Snapshot snap = obs::snapshot();
  EXPECT_EQ(snap.counter("nufft.plans"), 1u);
  EXPECT_EQ(snap.counter("nufft.adjoints"), 1u);
  EXPECT_EQ(snap.counter("nufft.forwards"), 1u);
  EXPECT_EQ(snap.counter("fft.execs"), 2u);  // one per transform
  EXPECT_GE(snap.counter("fftcache.misses"), 1u);  // plan built its FFT
  EXPECT_EQ(snap.counter("grid.slice-and-dice.adjoint_calls"), 1u);
  EXPECT_EQ(snap.counter("grid.slice-and-dice.forward_calls"), 1u);
}

TEST_F(ObsCounters, CgPublishesIterationsAndResidualGauge) {
  const auto in = random_samples<2>(400, 19);
  GridderOptions opt;
  opt.width = 4;
  opt.tile = 8;
  core::NufftPlan<2> plan(16, in.coords, opt);
  core::CgResult cg;
  core::iterative_recon<2>(plan, in.values, 5, 1e-12, false, &cg);

  const obs::Snapshot snap = obs::snapshot();
  EXPECT_EQ(snap.counter("cg.solves"), 1u);
  EXPECT_EQ(snap.counter("cg.iterations"),
            static_cast<std::uint64_t>(cg.iterations));
  EXPECT_EQ(snap.gauge("cg.final_residual"), cg.final_residual);
}

TEST_F(ObsCounters, CycleSimObeysStreamingCycleFormula) {
  GridderOptions opt;
  opt.width = 4;
  opt.tile = 8;
  opt.table_oversampling = 32;
  sim::CycleSim simulator(16, opt, false);
  const auto in = random_samples<2>(321, 20);
  Grid<2> grid(simulator.grid_size());
  simulator.run_2d(in, grid);

  const obs::Snapshot snap = obs::snapshot();
  EXPECT_EQ(snap.counter("sim.runs"), 1u);
  EXPECT_EQ(snap.counter("sim.samples_streamed"), 321u);
  EXPECT_EQ(snap.counter("sim.gridding_cycles"), 321u + 12u);  // M + depth
  EXPECT_EQ(snap.counter("sim.readout_cycles"),
            static_cast<std::uint64_t>(
                simulator.stats().readout_cycles));
  EXPECT_EQ(snap.counter("sim.macs"),
            static_cast<std::uint64_t>(simulator.stats().macs));
}

TEST_F(ObsCounters, MemsimPublishIsDeltaBasedAndIdempotent) {
  memsim::CacheConfig cfg;
  cfg.size_bytes = 1 << 12;
  cfg.line_bytes = 64;
  cfg.ways = 2;
  memsim::Cache cache(cfg);
  for (std::uint64_t a = 0; a < 100; ++a) cache.access(a * 64, 8, a % 2 == 0);
  cache.publish_counters();
  cache.publish_counters();  // second publish must add nothing
  obs::Snapshot snap = obs::snapshot();
  EXPECT_EQ(snap.counter("memsim.accesses"), cache.stats().accesses);
  EXPECT_EQ(snap.counter("memsim.hits"), cache.stats().hits);
  EXPECT_EQ(snap.counter("memsim.misses"), cache.stats().misses);
  EXPECT_EQ(snap.gauge("memsim.hit_rate"), cache.stats().hit_rate());

  // New traffic publishes only its delta.
  for (std::uint64_t a = 0; a < 50; ++a) cache.access(a * 64, 8, false);
  cache.publish_counters();
  snap = obs::snapshot();
  EXPECT_EQ(snap.counter("memsim.accesses"), cache.stats().accesses);
}

TEST_F(ObsCounters, GaugesKeepTheLatestValue) {
  obs::set_gauge("test.gauge", 1.5);
  obs::set_gauge("test.gauge", -3.25);
  EXPECT_EQ(obs::snapshot().gauge("test.gauge"), -3.25);
}

TEST_F(ObsCounters, ResetZeroesCountersAndDropsGauges) {
  obs::add("test.reset", 42);
  obs::set_gauge("test.reset_gauge", 7.0);
  obs::reset();
  const obs::Snapshot snap = obs::snapshot();
  EXPECT_EQ(snap.counter("test.reset"), 0u);
  EXPECT_EQ(snap.gauges.count("test.reset_gauge"), 0u);
}

TEST_F(ObsCounters, ZeroAddsDoNotMaterializeCounters) {
  obs::add("test.zero", 0);
  EXPECT_EQ(obs::snapshot().counters.count("test.zero"), 0u);
}

}  // namespace
}  // namespace jigsaw
