// FFT plan-cache and scratch-pool tests, including concurrency stress.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "fft/fft.hpp"
#include "fft/plan_cache.hpp"

namespace jigsaw::fft {
namespace {

std::vector<c64> random_signal(std::size_t total, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<c64> v(total);
  for (auto& x : v) x = c64(rng.uniform(-1, 1), rng.uniform(-1, 1));
  return v;
}

double max_abs_diff(const std::vector<c64>& a, const std::vector<c64>& b) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::abs(a[i] - b[i]));
  }
  return m;
}

TEST(FftPlanCache, SameDimsShareOnePlan) {
  FftPlanCache cache;
  const auto a = cache.get({32, 32});
  const auto b = cache.get({32, 32});
  EXPECT_EQ(a.get(), b.get());
  const auto s = cache.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(FftPlanCache, GetCubeIsGetWithRepeatedDims) {
  FftPlanCache cache;
  const auto a = cache.get_cube(3, 16);
  const auto b = cache.get({16, 16, 16});
  EXPECT_EQ(a.get(), b.get());
}

TEST(FftPlanCache, DistinctDimsGetDistinctPlans) {
  FftPlanCache cache;
  const auto a = cache.get({32});
  const auto b = cache.get({64});
  const auto c = cache.get({32, 32});
  EXPECT_NE(a.get(), b.get());
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.stats().misses, 3u);
}

TEST(FftPlanCache, ClearKeepsOutstandingPlansAlive) {
  FftPlanCache cache;
  const auto plan = cache.get({24});  // mixed-radix length
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  // The shared_ptr still owns the plan: executing it must be safe.
  auto sig = random_signal(24, 1);
  const auto orig = sig;
  plan->execute(sig.data(), Direction::Forward);
  plan->execute(sig.data(), Direction::Inverse);
  for (auto& v : sig) v /= 24.0;  // transforms are unnormalized
  EXPECT_LT(max_abs_diff(sig, orig), 1e-9);
  // clear() resets stats; re-requesting is a fresh miss.
  (void)cache.get({24});
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(FftPlanCache, ConcurrentRequestsPlanEachKeyExactlyOnce) {
  FftPlanCache cache;
  const std::vector<std::vector<std::size_t>> keys = {
      {32, 32}, {64}, {16, 16, 16}, {24, 18}};
  constexpr int kThreads = 16;
  constexpr int kRounds = 50;

  std::vector<std::vector<const FftNd*>> seen(
      kThreads, std::vector<const FftNd*>(keys.size(), nullptr));
  std::atomic<int> start{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      start.fetch_add(1);
      while (start.load() < kThreads) {
      }  // start all threads at once to maximize racing on the first get
      for (int round = 0; round < kRounds; ++round) {
        for (std::size_t k = 0; k < keys.size(); ++k) {
          const auto plan = cache.get(keys[k]);
          ASSERT_NE(plan, nullptr);
          if (seen[static_cast<std::size_t>(t)][k] == nullptr) {
            seen[static_cast<std::size_t>(t)][k] = plan.get();
          } else {
            ASSERT_EQ(seen[static_cast<std::size_t>(t)][k], plan.get());
          }
        }
      }
    });
  }
  for (auto& w : workers) w.join();

  // Every thread resolved every key to the same instance...
  for (int t = 1; t < kThreads; ++t) {
    for (std::size_t k = 0; k < keys.size(); ++k) {
      EXPECT_EQ(seen[static_cast<std::size_t>(t)][k], seen[0][k]);
    }
  }
  // ...and each key was planned exactly once (planning under the lock).
  const auto s = cache.stats();
  EXPECT_EQ(s.misses, keys.size());
  EXPECT_EQ(s.hits + s.misses,
            static_cast<std::uint64_t>(kThreads) * kRounds * keys.size());
}

TEST(FftPlanCache, SharedBluesteinPlanIsSafeForConcurrentExecute) {
  // Bluestein lengths use pooled scratch per execute() call, mixed-radix
  // lengths the caller's scratch line; a single shared plan of either kind
  // must give every thread the serial answer.
  FftPlanCache cache;
  const std::vector<std::vector<std::size_t>> shapes = {
      {18, 12},   // mixed-radix on both axes
      {26, 22}};  // Bluestein on both axes (primes 13 and 11)
  for (const auto& dims : shapes) {
    const auto plan = cache.get(dims);
    const auto input = random_signal(plan->total_size(), 2);
    auto ref = input;
    plan->execute(ref.data(), Direction::Forward);

    constexpr int kThreads = 8;
    std::vector<std::vector<c64>> results(kThreads);
    std::atomic<int> start{0};
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        start.fetch_add(1);
        while (start.load() < kThreads) {
        }
        for (int round = 0; round < 20; ++round) {
          auto buf = input;
          plan->execute(buf.data(), Direction::Forward);
          results[static_cast<std::size_t>(t)] = std::move(buf);
        }
      });
    }
    for (auto& w : workers) w.join();
    for (const auto& r : results) {
      ASSERT_EQ(r.size(), ref.size());
      // Identical serial code path.
      EXPECT_EQ(max_abs_diff(r, ref), 0.0) << dims[0] << "x" << dims[1];
    }
  }
}

TEST(ScratchPool, ReusesReleasedBuffers) {
  ScratchPool pool;
  auto a = pool.acquire(100);
  EXPECT_GE(a.capacity(), 100u);
  const auto* ptr = a.data();
  pool.release(std::move(a));
  EXPECT_EQ(pool.retained(), 1u);
  auto b = pool.acquire(50);  // best-fit: the parked 100-capacity buffer
  EXPECT_EQ(b.data(), ptr);
  EXPECT_EQ(pool.retained(), 0u);
}

TEST(ScratchPool, RetentionIsBounded) {
  ScratchPool pool;
  for (std::size_t i = 0; i < ScratchPool::kMaxRetained + 8; ++i) {
    pool.release(std::vector<c64>(16));
  }
  EXPECT_LE(pool.retained(), ScratchPool::kMaxRetained);
}

TEST(ScratchLease, ReturnsBufferOnDestruction) {
  ScratchPool pool;
  {
    ScratchLease lease(64, pool);
    EXPECT_EQ(lease.size(), 64u);
    EXPECT_EQ(pool.retained(), 0u);
    lease.data()[0] = c64(1.0, 2.0);  // writable
  }
  EXPECT_EQ(pool.retained(), 1u);
}

TEST(ScratchPool, ConcurrentAcquireReleaseStress) {
  ScratchPool pool;
  constexpr int kThreads = 8;
  std::atomic<int> start{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      start.fetch_add(1);
      while (start.load() < kThreads) {
      }
      Rng rng(static_cast<std::uint64_t>(t) + 1);
      for (int round = 0; round < 200; ++round) {
        const auto size = static_cast<std::size_t>(rng.below(512)) + 1;
        ScratchLease lease(size, pool);
        ASSERT_EQ(lease.size(), size);
        // Touch both ends: ASan catches any sharing between live leases.
        lease.data()[0] = c64(static_cast<double>(t), 0.0);
        lease.data()[size - 1] = c64(0.0, static_cast<double>(round));
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_LE(pool.retained(), ScratchPool::kMaxRetained);
}

}  // namespace
}  // namespace jigsaw::fft
