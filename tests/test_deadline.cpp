// Deadline / abort-token propagation through the transform and solver
// entry points: an expired deadline must surface promptly as
// DeadlineExceeded at the next phase boundary, on every path (NufftPlan,
// the serve engine's adjoint batch, conjugate_gradient, iterative_recon,
// cg_sense), and must never leave an obs gauge stuck non-zero.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "common/deadline.hpp"
#include "core/recon.hpp"
#include "core/sense.hpp"
#include "obs/obs.hpp"
#include "serve/session.hpp"
#include "trajectory/phantom.hpp"
#include "trajectory/trajectory.hpp"

namespace jigsaw {
namespace {

using core::GridderOptions;
using core::NufftPlan;

GridderOptions options() {
  GridderOptions opt;
  opt.width = 4;
  return opt;
}

std::vector<Coord<2>> traj(std::int64_t m = 2000) {
  return trajectory::make_2d(trajectory::TrajectoryType::Radial, m);
}

std::vector<c64> phantom_data(const std::vector<Coord<2>>& coords, int n) {
  return trajectory::kspace_samples(trajectory::shepp_logan(), coords, n);
}

TEST(Deadline, DefaultIsUnbounded) {
  const Deadline d;
  EXPECT_FALSE(d.bounded());
  EXPECT_FALSE(d.expired());
  EXPECT_EQ(d.remaining(), Deadline::Clock::duration::max());
  EXPECT_NO_THROW(d.check("anywhere"));
}

TEST(Deadline, AlreadyExpiredThrowsNamingThePhase) {
  const Deadline d = Deadline::already_expired();
  EXPECT_TRUE(d.bounded());
  EXPECT_TRUE(d.expired());
  EXPECT_EQ(d.remaining(), Deadline::Clock::duration::zero());
  try {
    d.check("unit.phase");
    FAIL() << "check() must throw";
  } catch (const DeadlineExceeded& e) {
    EXPECT_STREQ(e.what(), "deadline exceeded at unit.phase");
  }
}

TEST(Deadline, FutureDeadlineEventuallyExpires) {
  const Deadline d = Deadline::after(std::chrono::milliseconds(30));
  EXPECT_FALSE(d.expired());
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  EXPECT_TRUE(d.expired());
}

TEST(Deadline, CancelFlagExpiresAnUnboundedDeadline) {
  std::atomic<bool> cancel{false};
  Deadline d;
  d.attach_cancel(&cancel);
  EXPECT_TRUE(d.bounded());
  EXPECT_FALSE(d.expired());
  cancel.store(true);
  EXPECT_TRUE(d.expired());
  EXPECT_THROW(d.check("cooperative.abort"), DeadlineExceeded);
}

TEST(Deadline, NufftAdjointAndForwardRespectExpiredDeadline) {
  const std::int64_t n = 32;
  auto coords = traj();
  const auto values = phantom_data(coords, static_cast<int>(n));
  NufftPlan<2> plan(n, std::move(coords), options());
  EXPECT_THROW(plan.adjoint(values, nullptr, Deadline::already_expired()),
               DeadlineExceeded);
  const std::vector<c64> image(static_cast<std::size_t>(n * n), c64{1.0, 0.0});
  EXPECT_THROW(plan.forward(image, nullptr, Deadline::already_expired()),
               DeadlineExceeded);
  // The same plan still works afterwards: expiry aborts the call, not the
  // plan.
  EXPECT_NO_THROW(plan.adjoint(values));
}

// A fused serve batch runs under a backstop: the most patient member's
// deadline. Once even that has passed, the batch stops at its first frame
// boundary and every member reports TIMEOUT, on every exec_threads count.
TEST(Deadline, ServeBatchStopsAtExpiredBackstopOnEveryLaneCount) {
  const std::int64_t n = 32;
  const auto coords = traj();
  const auto values = phantom_data(coords, static_cast<int>(n));
  const auto job = [&](const Deadline& deadline) {
    serve::ReconJob j;
    j.options = options();
    j.n = n;
    j.samples.coords = coords;
    j.samples.values = values;
    j.deadline = deadline;
    return j;
  };
  for (unsigned lanes : {1u, 2u}) {
    serve::ServeConfig config;
    config.exec_threads = lanes;
    serve::ServeSession session(config);
    // A first job parks the dispatcher in its completion callback, so the
    // members below queue up and dispatch as one batch.
    std::promise<void> parked;
    std::promise<void> release;
    std::shared_future<void> released = release.get_future().share();
    session.engine().submit(job(Deadline()),
                            [&parked, released](serve::ReconOutcome) {
                              parked.set_value();
                              released.wait();
                            });
    parked.get_future().wait();

    const Deadline members = Deadline::after(std::chrono::milliseconds(300));
    std::vector<std::future<serve::ReconOutcome>> batch;
    for (int i = 0; i < 3; ++i) batch.push_back(session.submit(job(members)));
    // The last member expires in the queue. Its TIMEOUT callback runs on
    // the dispatcher after the others passed the dispatch check, and holds
    // it until their deadline has passed as well: the backstop is spent
    // before the first frame runs.
    const Deadline straggler = Deadline::after(std::chrono::milliseconds(20));
    session.engine().submit(job(straggler), [members](serve::ReconOutcome o) {
      EXPECT_EQ(o.status, serve::Status::kTimeout);
      while (!members.expired()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
    while (!straggler.expired()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    release.set_value();
    for (auto& f : batch) {
      const serve::ReconOutcome o = f.get();
      EXPECT_EQ(o.status, serve::Status::kTimeout) << lanes << " lanes";
      EXPECT_NE(o.message.find("serve.frame"), std::string::npos)
          << o.message;
    }
    // The same burst without a deadline still runs.
    EXPECT_EQ(session.recon(job(Deadline())).status, serve::Status::kOk);
  }
}

TEST(Deadline, ConjugateGradientStopsAtIterationBoundary) {
  // A slow SPD operator with 16 distinct eigenvalues: CG needs 16
  // iterations to converge, so at 5 ms per application the deadline must
  // cut the solve at an iteration boundary long before convergence.
  const auto slow_diagonal = [](const std::vector<c64>& x) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    std::vector<c64> out(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
      out[i] = x[i] * (1.0 + static_cast<double>(i));
    }
    return out;
  };
  const std::vector<c64> b(16, c64{1.0, 0.0});
  std::vector<c64> x;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW(core::conjugate_gradient(
                   slow_diagonal, b, x, /*max_iterations=*/50,
                   /*tolerance=*/0.0,
                   Deadline::after(std::chrono::milliseconds(12))),
               DeadlineExceeded);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  // 50 iterations x 5 ms would be >= 250 ms; the deadline cuts it far
  // shorter. Generous bound for slow CI machines.
  EXPECT_LT(elapsed, std::chrono::milliseconds(150));
}

TEST(Deadline, CgSenseExpiredReturnsPromptlyAndLeavesNoGaugeStuck) {
  const std::int64_t n = 32;
  const int coils = 4;
  auto coords = traj();
  NufftPlan<2> plan(n, std::move(coords), options());
  const auto maps = core::make_birdcage_maps(n, coils);
  const auto image = trajectory::rasterize(trajectory::shepp_logan(),
                                           static_cast<int>(n));
  std::vector<c64> cimage(image.size());
  for (std::size_t i = 0; i < image.size(); ++i) cimage[i] = image[i];
  const auto y = core::simulate_multicoil(plan, maps, cimage);

  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW(core::cg_sense(plan, maps, y, /*max_iterations=*/15,
                              /*tolerance=*/1e-6, nullptr,
                              /*coil_threads=*/1,
                              Deadline::already_expired()),
               DeadlineExceeded);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  // "Promptly": before any transform work — a full 15-iteration 4-coil
  // solve takes far longer than this bound even on a loaded machine.
  EXPECT_LT(elapsed, std::chrono::milliseconds(100));

  // No gauge may be left stuck non-zero by the aborted solve.
  EXPECT_EQ(obs::snapshot().gauge("cg.inflight"), 0.0);

  // The plan remains usable and a deadline-free solve still converges.
  const auto recon = core::cg_sense(plan, maps, y, 3);
  EXPECT_EQ(recon.size(), static_cast<std::size_t>(n * n));
  EXPECT_EQ(obs::snapshot().gauge("cg.inflight"), 0.0);
}

TEST(Deadline, CgSenseTimeoutMidSolveResetsInflightGauge) {
  const std::int64_t n = 32;
  const int coils = 4;
  auto coords = traj();
  NufftPlan<2> plan(n, std::move(coords), options());
  const auto maps = core::make_birdcage_maps(n, coils);
  const auto image = trajectory::rasterize(trajectory::shepp_logan(),
                                           static_cast<int>(n));
  std::vector<c64> cimage(image.size());
  for (std::size_t i = 0; i < image.size(); ++i) cimage[i] = image[i];
  const auto y = core::simulate_multicoil(plan, maps, cimage);

  // A deadline that lets the solve start but not finish 200 iterations.
  EXPECT_THROW(core::cg_sense(plan, maps, y, /*max_iterations=*/200,
                              /*tolerance=*/0.0, nullptr,
                              /*coil_threads=*/1,
                              Deadline::after(std::chrono::milliseconds(30))),
               DeadlineExceeded);
  EXPECT_EQ(obs::snapshot().gauge("cg.inflight"), 0.0);
}

TEST(Deadline, InflightGaugeCountsConcurrentSolves) {
  if (!obs::kEnabled) GTEST_SKIP() << "obs layer compiled out";
  // One solve parks inside its operator while a second starts and finishes.
  // The gauge must read the number of solves still in flight (1) — an
  // absolute 1/0 publish would let the finished solve clobber it to 0 while
  // the parked solve is still running.
  std::promise<void> entered;
  std::promise<void> release;
  auto release_future = release.get_future().share();
  std::atomic<int> calls{0};
  const std::vector<c64> b(8, c64{1.0, 0.0});

  std::thread parked([&] {
    const auto op = [&](const std::vector<c64>& x) {
      if (calls.fetch_add(1) == 0) {
        entered.set_value();
        release_future.wait();
      }
      return x;  // identity operator: converges immediately
    };
    std::vector<c64> x;
    core::conjugate_gradient(op, b, x, /*max_iterations=*/2, 1e-12);
  });

  entered.get_future().wait();
  {
    const auto identity = [](const std::vector<c64>& x) { return x; };
    std::vector<c64> x;
    core::conjugate_gradient(identity, b, x, /*max_iterations=*/2, 1e-12);
  }
  EXPECT_EQ(obs::snapshot().gauge("cg.inflight"), 1.0);
  release.set_value();
  parked.join();
  EXPECT_EQ(obs::snapshot().gauge("cg.inflight"), 0.0);
}

TEST(Deadline, IterativeReconRespectsDeadline) {
  const std::int64_t n = 32;
  auto coords = traj();
  const auto values = phantom_data(coords, static_cast<int>(n));
  NufftPlan<2> plan(n, std::move(coords), options());
  EXPECT_THROW(core::iterative_recon<2>(plan, values, 10, 1e-6, nullptr,
                                        Deadline::already_expired()),
               DeadlineExceeded);
  EXPECT_EQ(obs::snapshot().gauge("cg.inflight"), 0.0);
}

}  // namespace
}  // namespace jigsaw
