// Thread-count invariance tests.
//
// The library's determinism contract: the numeric result of every
// transform is a function of its inputs only, never of how many threads
// executed it. Where work is partitioned into disjoint writes (binning
// tiles, FFT lines, per-frame batch threads, per-coil SENSE threads with
// coil-order reduction) the guarantee is bit-exactness; where atomics
// reorder additions (slice-and-dice direct mode) it is NRMSD <= 1e-12.
//
// The SharedPlan suite pins the contract that makes coil and frame threads
// cheap: one const NufftPlan, called from several threads at once, gives
// every call the result of a lone call, and its gridder's stats() add up to
// exactly the sum of the calls.
//
// Both suites run in the sanitizer CI configurations (ASan and TSan), so
// the coil-parallel paths get race coverage on every CI run.
#include <gtest/gtest.h>

#include <cstdint>
#include <latch>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/batch.hpp"
#include "core/binning_gridder.hpp"
#include "core/metrics.hpp"
#include "core/sense.hpp"
#include "core/serial_gridder.hpp"
#include "core/slice_dice_gridder.hpp"
#include "fft/fft.hpp"
#include "obs/obs.hpp"
#include "trajectory/trajectory.hpp"

namespace jigsaw::core {
namespace {

constexpr unsigned kThreadCounts[] = {1, 2, 8};

GridderOptions base_options() {
  GridderOptions opt;
  opt.width = 6;
  opt.tile = 8;
  return opt;
}

GridderOptions sparse_options() {
  GridderOptions opt = base_options();
  opt.kind = GridderKind::Sparse;
  return opt;
}

/// The coil-thread contracts hold for the default engine and for the
/// sparse engine, whose matrix every thread shares.
const GridderOptions kCoilEngines[] = {base_options(), sparse_options()};

template <int D>
SampleSet<D> samples_on(std::vector<Coord<D>> coords, std::uint64_t seed) {
  Rng rng(seed);
  SampleSet<D> s;
  s.coords = std::move(coords);
  s.values.resize(s.coords.size());
  for (auto& v : s.values) v = c64(rng.uniform(-1, 1), rng.uniform(-1, 1));
  return s;
}

std::vector<c64> random_image(std::int64_t total, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<c64> img(static_cast<std::size_t>(total));
  for (auto& v : img) v = c64(rng.uniform(-1, 1), rng.uniform(-1, 1));
  return img;
}

TEST(ThreadInvariance, BinningGridderIsBitExact) {
  const auto in = samples_on<2>(trajectory::random_2d(2000, 5), 5);
  GridderOptions opt = base_options();
  opt.kind = GridderKind::Binning;
  BinningGridder<2> ref(16, opt);
  Grid<2> gref(ref.grid_size());
  ref.adjoint(in, gref);
  for (unsigned t : kThreadCounts) {
    opt.threads = t;
    BinningGridder<2> g(16, opt);
    Grid<2> out(g.grid_size());
    g.adjoint(in, out);
    // Disjoint tiles per thread: identical down to the last bit.
    for (std::int64_t i = 0; i < out.total(); ++i) {
      ASSERT_EQ(out[i], gref[i]) << "threads=" << t << " i=" << i;
    }
  }
}

TEST(ThreadInvariance, SerialGridderIgnoresThreadKnob) {
  // SerialGridder, the default engine, is single-threaded by definition: it
  // must be a pure function of its inputs under any threads value.
  const auto in = samples_on<2>(trajectory::radial_2d(32, 64), 9);
  GridderOptions opt = base_options();
  opt.kind = GridderKind::Serial;
  SerialGridder<2> ref(16, opt);
  Grid<2> gref(ref.grid_size());
  ref.adjoint(in, gref);
  for (unsigned t : kThreadCounts) {
    opt.threads = t;
    SerialGridder<2> g(16, opt);
    Grid<2> out(g.grid_size());
    g.adjoint(in, out);
    for (std::int64_t i = 0; i < out.total(); ++i) {
      ASSERT_EQ(out[i], gref[i]) << "threads=" << t << " i=" << i;
    }
  }
}

TEST(ThreadInvariance, SliceDiceGridderWithinAtomicReorderTolerance) {
  const auto in = samples_on<2>(trajectory::radial_2d(32, 64), 6);
  GridderOptions opt = base_options();
  SliceDiceGridder<2> ref(16, opt);
  Grid<2> gref(ref.grid_size());
  ref.adjoint(in, gref);
  const std::vector<c64> a(gref.data(), gref.data() + gref.total());
  for (unsigned t : kThreadCounts) {
    opt.threads = t;
    SliceDiceGridder<2> g(16, opt);
    Grid<2> out(g.grid_size());
    g.adjoint(in, out);
    const std::vector<c64> b(out.data(), out.data() + out.total());
    EXPECT_LE(nrmsd(b, a), 1e-12) << "threads=" << t;
  }
}

TEST(ThreadInvariance, FftNdExecutePow2IsBitExact) {
  fft::FftNd plan({32, 32});
  const auto input = random_image(32 * 32, 7);
  auto ref = input;
  plan.execute(ref.data(), fft::Direction::Forward, 1);
  for (unsigned t : kThreadCounts) {
    auto buf = input;
    plan.execute(buf.data(), fft::Direction::Forward, t);
    // Each line transform is identical work regardless of executing
    // thread: bit-exact.
    ASSERT_EQ(buf, ref) << "threads=" << t;
  }
  // A banded call skips the same lines on any thread count, so even the
  // unspecified out-of-band outputs of the inverse match.
  for (const fft::Direction dir :
       {fft::Direction::Forward, fft::Direction::Inverse}) {
    auto banded_ref = input;
    plan.execute(banded_ref.data(), dir, 1, /*band=*/15);
    for (unsigned t : kThreadCounts) {
      auto buf = input;
      plan.execute(buf.data(), dir, t, /*band=*/15);
      ASSERT_EQ(buf, banded_ref) << "banded, threads=" << t;
    }
  }
}

TEST(ThreadInvariance, FftNdExecuteMixedRadixAndBluesteinAreBitExact) {
  // Threads split the lines of every plan kind: mixed-radix ({24, 18}) and
  // Bluestein ({26, 22}) lines are the same work on any thread.
  const std::vector<std::vector<std::size_t>> shapes = {{24, 18}, {26, 22}};
  for (const auto& dims : shapes) {
    fft::FftNd plan(dims);
    const auto input = random_image(static_cast<std::int64_t>(plan.total_size()), 8);
    auto ref = input;
    plan.execute(ref.data(), fft::Direction::Inverse, 1);
    for (unsigned t : kThreadCounts) {
      auto buf = input;
      plan.execute(buf.data(), fft::Direction::Inverse, t);
      ASSERT_EQ(buf, ref) << dims[0] << "x" << dims[1] << " threads=" << t;
    }
  }
}

TEST(ThreadInvariance, BatchedNufftIsBitExactAcrossCoilThreads) {
  const std::int64_t n = 16;
  const auto coords = trajectory::radial_2d(24, 48);
  const std::size_t m = coords.size();

  const int frames = 6;
  std::vector<std::vector<c64>> kdata(frames);
  std::vector<std::vector<c64>> images(frames);
  for (int f = 0; f < frames; ++f) {
    Rng rng(100 + static_cast<std::uint64_t>(f));
    kdata[static_cast<std::size_t>(f)].resize(m);
    for (auto& v : kdata[static_cast<std::size_t>(f)]) {
      v = c64(rng.uniform(-1, 1), rng.uniform(-1, 1));
    }
    images[static_cast<std::size_t>(f)] =
        random_image(n * n, 200 + static_cast<std::uint64_t>(f));
  }

  for (const GridderOptions& opt : kCoilEngines) {
    SCOPED_TRACE(to_string(opt.kind));
    BatchedNufft<2> serial(n, coords, opt, 1);
    const auto ref_adj = serial.adjoint(kdata);
    const auto ref_fwd = serial.forward(images);

    for (unsigned t : kThreadCounts) {
      BatchedNufft<2> batch(n, coords, opt, t);
      const auto adj = batch.adjoint(kdata);
      const auto fwd = batch.forward(images);
      ASSERT_EQ(adj.size(), ref_adj.size());
      for (std::size_t f = 0; f < adj.size(); ++f) {
        EXPECT_EQ(max_abs_diff(adj[f], ref_adj[f]), 0.0)
            << "coil_threads=" << t << " frame=" << f;
        EXPECT_EQ(max_abs_diff(fwd[f], ref_fwd[f]), 0.0)
            << "coil_threads=" << t << " frame=" << f;
      }
    }
  }
}

TEST(ThreadInvariance, CgSenseIsBitExactAcrossCoilThreads) {
  const std::int64_t n = 24;
  const auto coords = trajectory::radial_2d(24, 48);
  for (const GridderOptions& opt : kCoilEngines) {
    SCOPED_TRACE(to_string(opt.kind));
    NufftPlan<2> plan(n, coords, opt);
    const auto maps = make_birdcage_maps(n, 4);
    const auto truth = random_image(n * n, 11);
    const auto y = simulate_multicoil(plan, maps, truth);

    CgResult cg_ref;
    const auto ref = cg_sense(plan, maps, y, 5, 1e-12, &cg_ref, 1);

    for (unsigned t : kThreadCounts) {
      CgResult cg;
      const auto x = cg_sense(plan, maps, y, 5, 1e-12, &cg, t);
      // Per-coil work is independent and the reduction runs in coil order:
      // CG sees bit-identical operators, so iterates match exactly.
      EXPECT_EQ(max_abs_diff(x, ref), 0.0) << "coil_threads=" << t;
      EXPECT_EQ(cg.iterations, cg_ref.iterations) << "coil_threads=" << t;
    }
  }
}

TEST(ThreadInvariance, SenseOperatorAdjointAndGramBitExact) {
  const std::int64_t n = 16;
  const auto coords = trajectory::radial_2d(16, 32);
  for (const GridderOptions& opt : kCoilEngines) {
    SCOPED_TRACE(to_string(opt.kind));
    NufftPlan<2> plan(n, coords, opt);
    const auto maps = make_birdcage_maps(n, 5);
    const auto truth = random_image(n * n, 12);
    const auto y = simulate_multicoil(plan, maps, truth);
    const auto x = random_image(n * n, 13);

    SenseOperator serial_op(plan, maps, 1);
    const auto ref_adj = serial_op.adjoint(y);
    const auto ref_gram = serial_op.gram(x);

    for (unsigned t : kThreadCounts) {
      NufftPlan<2> p(n, coords, opt);
      SenseOperator op(p, maps, t);
      EXPECT_EQ(max_abs_diff(op.adjoint(y), ref_adj), 0.0)
          << "coil_threads=" << t;
      EXPECT_EQ(max_abs_diff(op.gram(x), ref_gram), 0.0)
          << "coil_threads=" << t;
    }
  }
}

// ---- One plan, many threads -------------------------------------------

constexpr int kSharedThreads = 4;
constexpr int kCallsPerThread = 8;

/// The integer work counters of a stats snapshot (the timing fields are
/// wall-clock and do not add up exactly).
std::vector<std::uint64_t> work_counts(const GriddingStats& s) {
  return {s.boundary_checks, s.samples_processed, s.interpolations,
          s.lut_lookups,     s.kernel_evals,      s.grid_bytes_touched,
          s.saturation_events, s.soft_error_flips};
}

/// 4 threads x 8 adjoint+forward calls on one plan, `threads = 1` inside
/// each call: every output is bit-identical to a lone call's on a second
/// plan, and stats() totals exactly 32 calls' counts. Both plans take one
/// warm-up call first, so the sparse engine's one-time matrix build is not
/// part of the count (SharedPlan.SparseMatrixIsBuiltOnce pins that).
void expect_shared_plan_matches_one_call(GridderOptions opt) {
  opt.threads = 1;
  const std::int64_t n = 16;
  const auto coords = trajectory::radial_2d(16, 32);
  const auto values = samples_on<2>(coords, 41).values;
  const auto image = random_image(n * n, 42);

  NufftPlan<2> lone(n, coords, opt);
  lone.forward(lone.adjoint(values));
  lone.gridder().reset_stats();
  const auto ref_adj = lone.adjoint(values);
  const auto ref_fwd = lone.forward(image);
  const auto one_call = work_counts(lone.gridder().stats());

  NufftPlan<2> shared(n, coords, opt);
  shared.forward(shared.adjoint(values));
  shared.gridder().reset_stats();
  const NufftPlan<2>& plan = shared;
  std::vector<int> mismatches(kSharedThreads, 0);
  std::latch start(kSharedThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kSharedThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      for (int i = 0; i < kCallsPerThread; ++i) {
        if (plan.adjoint(values) != ref_adj) ++mismatches[t];
        if (plan.forward(image) != ref_fwd) ++mismatches[t];
      }
    });
  }
  for (auto& th : threads) th.join();

  for (int t = 0; t < kSharedThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  }
  std::vector<std::uint64_t> expected = one_call;
  for (auto& v : expected) v *= kSharedThreads * kCallsPerThread;
  EXPECT_EQ(work_counts(plan.gridder().stats()), expected);
}

GridderOptions engine(GridderKind kind) {
  GridderOptions opt = base_options();
  opt.kind = kind;
  return opt;
}

TEST(SharedPlan, Serial) {
  expect_shared_plan_matches_one_call(engine(GridderKind::Serial));
}

TEST(SharedPlan, OutputDriven) {
  expect_shared_plan_matches_one_call(engine(GridderKind::OutputDriven));
}

TEST(SharedPlan, Binning) {
  expect_shared_plan_matches_one_call(engine(GridderKind::Binning));
}

TEST(SharedPlan, SliceDice) {
  expect_shared_plan_matches_one_call(engine(GridderKind::SliceDice));
}

TEST(SharedPlan, SliceDiceModelFaithful) {
  GridderOptions opt = engine(GridderKind::SliceDice);
  opt.model_faithful_checks = true;
  expect_shared_plan_matches_one_call(opt);
}

TEST(SharedPlan, Jigsaw) {
  expect_shared_plan_matches_one_call(engine(GridderKind::Jigsaw));
}

TEST(SharedPlan, Sparse) {
  expect_shared_plan_matches_one_call(engine(GridderKind::Sparse));
}

TEST(SharedPlan, FloatSerial) {
  expect_shared_plan_matches_one_call(engine(GridderKind::FloatSerial));
}

TEST(SharedPlan, SparseMatrixIsBuiltOnce) {
  // Concurrent first calls on a fresh sparse plan: one matrix build, whose
  // per-dimension weight lookups (M * D * W) are the only lookups any call
  // makes — the sparse adjoint and forward read the matrix.
  const std::int64_t n = 16;
  const auto coords = trajectory::radial_2d(16, 32);
  const auto values = samples_on<2>(coords, 43).values;
  const NufftPlan<2> plan(n, coords, engine(GridderKind::Sparse));
  const std::uint64_t builds_before =
      obs::snapshot().counter("grid.sparse-matrix.matrix_builds");
  std::latch start(kSharedThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kSharedThreads; ++t) {
    threads.emplace_back([&] {
      start.arrive_and_wait();
      plan.forward(plan.adjoint(values));
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(plan.gridder().stats().lut_lookups, coords.size() * 2u * 6u);
  if (obs::kEnabled) {
    EXPECT_EQ(obs::snapshot().counter("grid.sparse-matrix.matrix_builds") -
                  builds_before,
              1u);
  }
}

TEST(SharedPlan, SparseCgSenseAtEightCoilThreadsBuildsOneMatrix) {
  const std::int64_t n = 16;
  const auto coords = trajectory::radial_2d(16, 32);
  const NufftPlan<2> plan(n, coords, engine(GridderKind::Sparse));
  const auto maps = make_birdcage_maps(n, 8);
  const NufftPlan<2> sim(n, coords, base_options());
  const auto y = simulate_multicoil(sim, maps, random_image(n * n, 44));
  const std::uint64_t builds_before =
      obs::snapshot().counter("grid.sparse-matrix.matrix_builds");
  CgResult cg;
  cg_sense(plan, maps, y, 4, 1e-12, &cg, 8);
  EXPECT_GT(cg.iterations, 0);
  EXPECT_EQ(plan.gridder().stats().lut_lookups, coords.size() * 2u * 6u);
  if (obs::kEnabled) {
    EXPECT_EQ(obs::snapshot().counter("grid.sparse-matrix.matrix_builds") -
                  builds_before,
              1u);
  }
}

}  // namespace
}  // namespace jigsaw::core
