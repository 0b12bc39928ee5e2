// Engine-selection tests: TuneKey hashing (the router's shard key,
// serve/tune_key.hpp) and the GridderKind::Auto reuse rule
// (core::resolve_auto): its table, the fields it preserves, thread
// agreement, awkward grid sizes, and the factory that applies it.
#include <gtest/gtest.h>

#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/gridder.hpp"
#include "serve/tune_key.hpp"

namespace jigsaw::serve {
namespace {

TuneKey small_key() {
  TuneKey key;
  key.dims = 2;
  key.n = 24;
  key.m = 600;
  key.width = 4;
  key.sigma = 2.0;
  return key;
}

core::GridderOptions options_of(core::GridderKind kind, int width, int tile) {
  core::GridderOptions options;
  options.kind = kind;
  options.width = width;
  options.tile = tile;
  return options;
}

// ------------------------------------------------------------------ TuneKey

TEST(TuneKey, HashIsStableAndFieldSensitive) {
  const TuneKey a = small_key();
  TuneKey b = a;
  EXPECT_EQ(a.hash(), b.hash());
  b.m += 1;
  EXPECT_NE(a.hash(), b.hash());
  b = a;
  b.sigma = 1.25;
  EXPECT_NE(a.hash(), b.hash());
}

TEST(TuneKey, HexIsSixteenLowercaseDigits) {
  const std::string hex = small_key().hex();
  ASSERT_EQ(hex.size(), 16u);
  for (const char c : hex) {
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << hex;
  }
}

TEST(TuneKey, OfCopiesKernelGeometryFromOptions) {
  core::GridderOptions options;
  options.width = 5;
  options.sigma = 1.5;
  const TuneKey key = TuneKey::of(3, 48, 9000, options, 2, 4);
  EXPECT_EQ(key.dims, 3);
  EXPECT_EQ(key.n, 48);
  EXPECT_EQ(key.m, 9000);
  EXPECT_EQ(key.width, 5);
  EXPECT_DOUBLE_EQ(key.sigma, 1.5);
  EXPECT_EQ(key.coils, 2);
  EXPECT_EQ(key.threads, 4u);
  EXPECT_EQ(key.label(), "3d/n48/m9000/w5/s1.5/c2/t4");
}

// ---------------------------------------------------------------- reuse rule

struct AutoCase {
  const char* name;
  std::int64_t n;
  int width;
  int tile;
  bool reused;
  core::GridderKind kind;  // expected resolution
  int resolved_tile;
};

// G = 2N throughout (sigma = 2). Neither resolved engine tiles the grid,
// so the tile passes through untouched at every size.
const AutoCase kAutoCases[] = {
    {"reused_is_sparse", 48, 4, 8, true, core::GridderKind::Sparse, 8},
    {"one_shot_is_serial", 48, 4, 8, false, core::GridderKind::Serial, 8},
    {"one_shot_keeps_tile", 64, 6, 16, false, core::GridderKind::Serial, 16},
    // G=260: no tile of 8 or 16 divides it; neither engine cares.
    {"n130_one_shot_is_serial", 130, 6, 8, false, core::GridderKind::Serial,
     8},
    {"n130_reused_is_sparse", 130, 4, 8, true, core::GridderKind::Sparse, 8},
    {"tile_below_width_passes_through", 64, 6, 4, false,
     core::GridderKind::Serial, 4},
};

core::GridderOptions resolve(const AutoCase& c) {
  return core::resolve_auto(
      options_of(core::GridderKind::Auto, c.width, c.tile), c.reused);
}

TEST(AutoRule, ResolvesByReuseToAConstructibleEngine) {
  for (const AutoCase& c : kAutoCases) {
    SCOPED_TRACE(c.name);
    const core::GridderOptions resolved = resolve(c);
    EXPECT_EQ(resolved.kind, c.kind);
    EXPECT_EQ(resolved.tile, c.resolved_tile);
    EXPECT_EQ(resolved.width, c.width);
    std::unique_ptr<core::Gridder<2>> gridder;
    ASSERT_NO_THROW(gridder = core::make_gridder<2>(c.n, resolved));
    EXPECT_EQ(gridder->kind(), c.kind);

    // make_gridder(Auto) is the one-shot rule.
    if (!c.reused) {
      const auto factory = core::make_gridder<2>(
          c.n, options_of(core::GridderKind::Auto, c.width, c.tile));
      EXPECT_EQ(factory->kind(), resolved.kind);
      EXPECT_EQ(factory->options().tile, resolved.tile);
    }
  }
}

TEST(AutoRule, SubstitutesTheEngineAndPreservesTheRest) {
  core::GridderOptions base;
  base.kind = core::GridderKind::Auto;
  base.width = 5;
  base.sigma = 1.5;
  base.table_oversampling = 64;
  base.exact_weights = true;
  base.threads = 2;
  for (const bool reused : {false, true}) {
    SCOPED_TRACE(reused ? "reused" : "one-shot");
    const core::GridderOptions resolved = core::resolve_auto(base, reused);
    EXPECT_EQ(resolved.kind, reused ? core::GridderKind::Sparse
                                    : core::GridderKind::Serial);
    EXPECT_EQ(resolved.width, 5);
    EXPECT_DOUBLE_EQ(resolved.sigma, 1.5);
    EXPECT_EQ(resolved.table_oversampling, 64);
    EXPECT_TRUE(resolved.exact_weights);
    EXPECT_EQ(resolved.threads, 2u);
  }

  // Concrete engines pass through untouched.
  const core::GridderOptions binning =
      options_of(core::GridderKind::Binning, 4, 16);
  for (const bool reused : {false, true}) {
    const auto same = core::resolve_auto(binning, reused);
    EXPECT_EQ(same.kind, core::GridderKind::Binning);
    EXPECT_EQ(same.tile, 16);
  }
}

TEST(AutoRule, EightThreadsResolveLikeOne) {
  // Eight threads resolving the whole table agree with the serial pass.
  constexpr int kThreads = 8;
  std::vector<std::vector<core::GridderOptions>> seen(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&seen, t] {
      for (const AutoCase& c : kAutoCases) {
        seen[static_cast<std::size_t>(t)].push_back(resolve(c));
      }
    });
  }
  for (auto& th : threads) th.join();
  for (const auto& results : seen) {
    ASSERT_EQ(results.size(), std::size(kAutoCases));
    for (std::size_t i = 0; i < results.size(); ++i) {
      const core::GridderOptions expected = resolve(kAutoCases[i]);
      EXPECT_EQ(results[i].kind, expected.kind) << kAutoCases[i].name;
      EXPECT_EQ(results[i].tile, expected.tile) << kAutoCases[i].name;
    }
  }
}

TEST(AutoRule, BothResolutionsBuildAtAnAwkwardGridSize) {
  // N=130 oversamples to G=260, which neither 8 nor 16 divides. Both
  // resolutions must build a plan at the real N.
  const core::GridderOptions base = options_of(core::GridderKind::Auto, 6, 8);
  for (const bool reused : {false, true}) {
    const core::GridderOptions resolved = core::resolve_auto(base, reused);
    std::unique_ptr<core::Gridder<2>> gridder;
    ASSERT_NO_THROW(gridder = core::make_gridder<2>(130, resolved))
        << "engine=" << core::to_string(resolved.kind)
        << " tile=" << resolved.tile;
    ASSERT_NE(gridder, nullptr);
    EXPECT_NE(gridder->kind(), core::GridderKind::Auto);
  }
}

// ---------------------------------------------------------- concrete engine

template <int D>
void expect_concrete_engine() {
  const core::GridderOptions base = options_of(core::GridderKind::Auto, 4, 8);
  for (const bool reused : {false, true}) {
    EXPECT_NE(core::resolve_auto(base, reused).kind,
              core::GridderKind::Auto)
        << "dims=" << D << " reused=" << reused;
  }
  const auto gridder = core::make_gridder<D>(24, base);
  ASSERT_NE(gridder, nullptr);
  EXPECT_NE(gridder->kind(), core::GridderKind::Auto) << "dims=" << D;
}

TEST(AutoRule, PicksAConcreteEngineForEveryDim) {
  expect_concrete_engine<1>();
  expect_concrete_engine<2>();
  expect_concrete_engine<3>();
}

// ------------------------------------------------------------ Auto factory

TEST(AutoFactory, MakeGridderResolvesAutoWithoutTuner) {
  // Sites that build a gridder straight from options (stream sessions,
  // dataset requests) get the one-shot resolution: serial.
  core::GridderOptions options;
  options.kind = core::GridderKind::Auto;
  options.width = 4;
  const auto gridder = core::make_gridder<2>(32, options);
  ASSERT_NE(gridder, nullptr);
  EXPECT_EQ(gridder->kind(), core::GridderKind::Serial);
}

}  // namespace
}  // namespace jigsaw::serve
