// Unit tests for the common runtime substrate.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "common/types.hpp"
#include "data/dataset.hpp"
#include "serve/router.hpp"
#include "serve/tune_key.hpp"

namespace jigsaw {
namespace {

TEST(PosMod, HandlesNegativeValues) {
  EXPECT_EQ(pos_mod(5, 8), 5);
  EXPECT_EQ(pos_mod(-1, 8), 7);
  EXPECT_EQ(pos_mod(-8, 8), 0);
  EXPECT_EQ(pos_mod(-9, 8), 7);
  EXPECT_EQ(pos_mod(16, 8), 0);
  EXPECT_EQ(pos_mod(0, 3), 0);
}

TEST(PowDim, MatchesManualProducts) {
  EXPECT_EQ(pow_dim<1>(7), 7);
  EXPECT_EQ(pow_dim<2>(7), 49);
  EXPECT_EQ(pow_dim<3>(7), 343);
  EXPECT_EQ(pow_dim<3>(1), 1);
}

TEST(LinearIndex, RoundTrips2D) {
  const std::int64_t n = 5;
  for (std::int64_t lin = 0; lin < n * n; ++lin) {
    const Index<2> idx = unlinear_index<2>(lin, n);
    EXPECT_EQ(linear_index<2>(idx, n), lin);
    EXPECT_GE(idx[0], 0);
    EXPECT_LT(idx[0], n);
    EXPECT_GE(idx[1], 0);
    EXPECT_LT(idx[1], n);
  }
}

TEST(LinearIndex, RoundTrips3D) {
  const std::int64_t n = 4;
  for (std::int64_t lin = 0; lin < n * n * n; ++lin) {
    EXPECT_EQ(linear_index<3>(unlinear_index<3>(lin, n), n), lin);
  }
}

TEST(LinearIndex, LastDimensionIsFastest) {
  // Row-major convention: incrementing the last index moves by 1.
  const Index<3> a{1, 2, 3};
  const Index<3> b{1, 2, 4};
  EXPECT_EQ(linear_index<3>(b, 8) - linear_index<3>(a, 8), 1);
}

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 4);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  double lo = 1.0, hi = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  EXPECT_LT(lo, 0.05);
  EXPECT_GT(hi, 0.95);
}

TEST(Rng, UniformIntervalRespectsBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-0.5, 0.5);
    ASSERT_GE(v, -0.5);
    ASSERT_LT(v, 0.5);
  }
}

TEST(ThreadPool, CoversFullRangeOnce) {
  ThreadPool pool(4);
  const std::int64_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  pool.parallel_for(n, [&](std::int64_t b, std::int64_t e, unsigned) {
    for (std::int64_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (std::int64_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, SerialFallback) {
  ThreadPool pool(1);
  std::int64_t sum = 0;
  pool.parallel_for(100, [&](std::int64_t b, std::int64_t e, unsigned) {
    for (std::int64_t i = b; i < e; ++i) sum += i;
  });
  EXPECT_EQ(sum, 4950);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(3);
  EXPECT_THROW(
      pool.parallel_for(100,
                        [&](std::int64_t b, std::int64_t, unsigned) {
                          if (b > 0) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
}

TEST(ThreadPool, CallerChunkExceptionPropagatesAndPoolSurvives) {
  // Regression: chunk 0 runs on the calling thread. Its exception must not
  // escape before the inflight worker chunks complete (they hold a pointer
  // to the functor), and the pool must stay usable afterwards —
  // first-error-wins semantics.
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(1000,
                        [&](std::int64_t b, std::int64_t, unsigned) {
                          if (b == 0) throw std::invalid_argument("chunk 0");
                        }),
      std::invalid_argument);
  // The same pool still runs a full parallel_for correctly.
  std::atomic<std::int64_t> count{0};
  pool.parallel_for(1000, [&](std::int64_t b, std::int64_t e, unsigned) {
    count += e - b;
  });
  EXPECT_EQ(count.load(), 1000);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(0, [&](std::int64_t, std::int64_t, unsigned) {
    ran = true;
  });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, ReusableAcrossCalls) {
  ThreadPool pool(2);
  for (int rep = 0; rep < 10; ++rep) {
    std::atomic<std::int64_t> sum{0};
    pool.parallel_for(64, [&](std::int64_t b, std::int64_t e, unsigned) {
      std::int64_t local = 0;
      for (std::int64_t i = b; i < e; ++i) local += i;
      sum += local;
    });
    EXPECT_EQ(sum.load(), 64 * 63 / 2);
  }
}

TEST(Timer, MeasuresNonNegative) {
  Timer t;
  volatile double x = 0;
  for (int i = 0; i < 1000; ++i) x = x + 1.0;
  EXPECT_GE(t.seconds(), 0.0);
}

TEST(ConsoleTable, AlignsColumns) {
  ConsoleTable t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"longer-name", "22"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("longer-name"), std::string::npos);
  // Header + separator + 2 rows = 4 lines.
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 4);
}

TEST(ConsoleTable, FormatHelpers) {
  EXPECT_EQ(ConsoleTable::fmt(1.2345, 2), "1.23");
  EXPECT_EQ(ConsoleTable::fmt_times(12.0, 1), "12.0x");
  EXPECT_EQ(ConsoleTable::fmt_si(1500.0, 1), "1.5 k");
  EXPECT_EQ(ConsoleTable::fmt_si(2.5e6, 1), "2.5 M");
  EXPECT_EQ(ConsoleTable::fmt_si(3.2e-3, 1), "3.2 m");
  EXPECT_EQ(ConsoleTable::fmt_si(4.0e-6, 1), "4.0 u");
}

TEST(ConsoleTable, ShortRowsArePadded) {
  ConsoleTable t({"a", "b", "c"});
  t.add_row({"only-one"});
  EXPECT_NO_THROW(t.to_string());
}

TEST(Fnv1a, StandardVectorsForBothBases) {
  EXPECT_EQ(fnv1a("", 0, kFnv1aBasis), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a("a", 1, kFnv1aBasis), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a("foobar", 6, kFnv1aBasis), 0x85944171f73967e8ull);
  EXPECT_EQ(fnv1a("", 0, kFnv1aShortBasis), 1469598103934665603ull);
  EXPECT_EQ(fnv1a("a", 1, kFnv1aShortBasis), 0x44bd8ad473cd9906ull);
}

// Golden values of every persisted or placement-deciding hash. Shard
// placement follows TuneKey::hash(), shard_hash and rendezvous_score, and
// JKSD files on disk carry the checksums: a change to any of these values
// moves geometries between workers or orphans data that already exists.
TEST(Fnv1a, GoldenValuesOfWisdomShardAndJksdHashes) {
  serve::TuneKey key;
  key.dims = 2;
  key.n = 128;
  key.m = 4096;
  key.width = 6;
  key.sigma = 2.0;
  key.coils = 1;
  key.threads = 1;
  EXPECT_EQ(key.hash(), 2957678958939547095ull);

  serve::ReconRequestWire req;
  req.n = 64;
  req.kernel_width = 6;
  req.sigma = 2.0;
  req.coils = 2;
  req.coords.resize(1000);
  const std::uint64_t shard = serve::Router::shard_hash(req);
  EXPECT_EQ(shard, 11426740258658054845ull);
  EXPECT_EQ(serve::Router::rendezvous_score(shard, 0),
            3984874736158155461ull);
  EXPECT_EQ(serve::Router::rendezvous_score(shard, 1),
            1752559329190566052ull);

  const std::string path = "test_common_golden.jksd";
  {
    data::DatasetInfo info;
    info.n = 64;
    info.coils = 2;
    info.source = data::Source::kSheppLogan;
    data::DatasetWriter writer(path, info);
    writer.add_chunk(0, {0.125, -0.25, 0.375, 0.5},
                     {c64(1, 2), c64(3, 4), c64(5, 6), c64(7, 8)});
    writer.close();
  }
  std::uint64_t header_checksum = 0, payload_checksum = 0;
  {
    std::ifstream f(path, std::ios::binary);
    f.seekg(offsetof(data::FileHeader, checksum));
    f.read(reinterpret_cast<char*>(&header_checksum), 8);
    f.seekg(sizeof(data::FileHeader) +
            offsetof(data::ChunkHeader, payload_checksum));
    f.read(reinterpret_cast<char*>(&payload_checksum), 8);
    ASSERT_TRUE(f.good());
  }
  std::remove(path.c_str());
  EXPECT_EQ(header_checksum, 3858161398992317186ull);
  EXPECT_EQ(payload_checksum, 2356106606086295240ull);
}

}  // namespace
}  // namespace jigsaw
