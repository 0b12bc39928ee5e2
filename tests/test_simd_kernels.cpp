// Property tests for the SIMD gridding micro-kernels and their engine
// variants (serial-simd, binning-simd).
//
// Layers covered:
//   * dispatch: mode parsing/forcing diagnostics, host support reporting;
//   * micro-kernels: every supported ISA's LUT weight gather is BIT-equal
//     to the scalar table (the design invariant that makes cross-ISA
//     engine results agree to ~1e-16), axpy/dot match within FMA reorder;
//   * engines: adjoint/forward dot-product identity, width sweep W=2..8
//     (including widths that do not divide the vector lane count), ragged
//     sample counts (masked tails), odd grid dims (wrap + tail handling),
//     exact work-counter identity vs the scalar twin, and forced-scalar vs
//     dispatched-ISA agreement.
//
// Numeric contract everywhere: rel-L2 <= 1e-9 vs the scalar twin (the
// differential tier's bound); bit-exactness across ISA paths is NOT
// required for engine results, only for the gathered weights themselves.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/gridder.hpp"
#include "core/metrics.hpp"
#include "core/window.hpp"
#include "kernels/kernel.hpp"
#include "kernels/lut.hpp"
#include "kernels/simd/simd.hpp"
#include "trajectory/trajectory.hpp"

namespace jigsaw {
namespace {

namespace simd = kernels::simd;

/// Every force() in a test is undone even on assertion failure, so test
/// order cannot leak a forced ISA into later suites.
struct ForceGuard {
  ~ForceGuard() { simd::force("auto"); }
};

std::vector<simd::Isa> supported_isas() {
  std::vector<simd::Isa> out;
  for (const simd::Isa isa : {simd::Isa::Scalar, simd::Isa::Avx2,
                              simd::Isa::Avx512, simd::Isa::Neon}) {
    if (simd::supported(isa)) out.push_back(isa);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

TEST(SimdDispatch, ScalarIsAlwaysSupportedAndActiveIsUsable) {
  EXPECT_TRUE(simd::compiled(simd::Isa::Scalar));
  EXPECT_TRUE(simd::supported(simd::Isa::Scalar));
  EXPECT_TRUE(simd::supported(simd::active()));
  EXPECT_STREQ(simd::table().name, simd::to_string(simd::active()));
  EXPECT_NE(simd::supported_names().find("scalar"), std::string::npos);
}

TEST(SimdDispatch, UnknownModeDiagnostic) {
  ForceGuard guard;
  try {
    simd::force("sse9");
    FAIL() << "force(sse9) did not throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("unknown simd mode 'sse9', valid:"),
              std::string::npos)
        << e.what();
  }
}

TEST(SimdDispatch, UnsupportedIsaDiagnostic) {
  // Pick an ISA this host cannot run: NEON never coexists with x86, AVX2
  // never with aarch64 — one of the two is always unsupported.
  const std::string mode = simd::supported(simd::Isa::Neon) ? "avx2" : "neon";
  ForceGuard guard;
  try {
    simd::force(mode);
    FAIL() << "force(" << mode << ") did not throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("not supported on this host"),
              std::string::npos)
        << e.what();
  }
  const simd::Isa isa =
      mode == "neon" ? simd::Isa::Neon : simd::Isa::Avx2;
  EXPECT_THROW(simd::table(isa), std::invalid_argument);
}

TEST(SimdDispatch, ForceScalarTakesEffectAndAutoRestores) {
  ForceGuard guard;
  simd::force("scalar");
  EXPECT_EQ(simd::active(), simd::Isa::Scalar);
  EXPECT_STREQ(simd::table().name, "scalar");
  simd::force("auto");
  EXPECT_TRUE(simd::supported(simd::active()));
}

// ---------------------------------------------------------------------------
// Micro-kernels vs the scalar table
// ---------------------------------------------------------------------------

TEST(SimdKernels, LutWeightGatherIsBitExactAcrossIsas) {
  const auto kernel =
      kernels::make_kernel(kernels::KernelType::KaiserBessel, 8, 2.0);
  const kernels::KernelLut lut(*kernel, 32);
  const simd::LutView lv = simd::lut_view(lut);
  const simd::KernelTable& scalar = simd::table(simd::Isa::Scalar);

  Rng rng(42);
  const std::int64_t g = 64;
  for (const simd::Isa isa : supported_isas()) {
    const simd::KernelTable& K = simd::table(isa);
    for (int w = 2; w <= 8; ++w) {
      for (int rep = 0; rep < 64; ++rep) {
        const double u = rng.uniform(0.0, static_cast<double>(g));
        const std::int64_t g0 = core::window_start(u, w);
        double want[64 + simd::kWeightLanes];
        double got[64 + simd::kWeightLanes];
        scalar.lut_weights(lv, u, g0, w, want);
        K.lut_weights(lv, u, g0, w, got);
        for (int o = 0; o < w; ++o) {
          // Bit-equal: identical LUT index rounding is the invariant the
          // engine-level 1e-9 bound rests on.
          ASSERT_EQ(got[o], want[o])
              << K.name << " w=" << w << " o=" << o << " u=" << u;
        }
      }
    }
  }
}

TEST(SimdKernels, AxpyAndDotMatchScalarWithinFmaReorder) {
  const auto kernel =
      kernels::make_kernel(kernels::KernelType::KaiserBessel, 8, 2.0);
  const kernels::KernelLut lut(*kernel, 32);
  const simd::LutView lv = simd::lut_view(lut);
  const simd::KernelTable& scalar = simd::table(simd::Isa::Scalar);

  Rng rng(7);
  for (const simd::Isa isa : supported_isas()) {
    const simd::KernelTable& K = simd::table(isa);
    for (int w = 2; w <= 8; ++w) {
      const double u = rng.uniform(0.0, 64.0);
      double wt[64 + simd::kWeightLanes];
      scalar.lut_weights(lv, u, core::window_start(u, w), w, wt);

      std::vector<c64> row(static_cast<std::size_t>(w));
      for (auto& v : row) v = c64(rng.uniform(-1, 1), rng.uniform(-1, 1));
      const c64 f(rng.uniform(-1, 1), rng.uniform(-1, 1));

      std::vector<c64> want = row;
      std::vector<c64> got = row;
      scalar.axpy(want.data(), wt, w, f);
      K.axpy(got.data(), wt, w, f);
      EXPECT_LT(core::max_abs_diff(got, want), 1e-12)
          << K.name << " axpy w=" << w;

      const c64 ds = scalar.dot(row.data(), wt, w);
      const c64 dv = K.dot(row.data(), wt, w);
      EXPECT_LT(std::abs(dv - ds), 1e-12) << K.name << " dot w=" << w;
    }
  }
}

// ---------------------------------------------------------------------------
// Engine-level properties
// ---------------------------------------------------------------------------

const core::GridderKind kSimdKinds[] = {
    core::GridderKind::Serial,
    core::GridderKind::Binning,
};

core::GridderOptions simd_options(core::GridderKind kind, int width,
                                  int tile) {
  core::GridderOptions opt;
  opt.kind = kind;
  opt.simd = true;
  opt.width = width;
  opt.tile = tile;
  return opt;
}

template <int D>
core::SampleSet<D> random_samples(std::int64_t m, std::uint64_t seed) {
  Rng rng(seed);
  core::SampleSet<D> s;
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
std::vector<c64> adjoint_of(core::Gridder<D>& g, const core::SampleSet<D>& in) {
  core::Grid<D> grid(g.grid_size());
  g.adjoint(in, grid);
  return std::vector<c64>(grid.data(), grid.data() + grid.total());
}

template <int D>
std::vector<c64> forward_of(core::Gridder<D>& g, const std::vector<c64>& img,
                            const core::SampleSet<D>& traj) {
  core::Grid<D> grid(g.grid_size());
  for (std::int64_t i = 0; i < grid.total(); ++i) {
    grid[i] = img[static_cast<std::size_t>(i)];
  }
  core::SampleSet<D> out;
  out.coords = traj.coords;
  out.values.assign(traj.coords.size(), c64{});
  g.forward(grid, out);
  return out.values;
}

/// Checks `got` against `want` under the differential tier's bound.
void expect_rel_l2(const std::vector<c64>& got, const std::vector<c64>& want,
                   const std::string& label) {
  ASSERT_GT(core::norm2(want), 0.0) << label;
  EXPECT_LT(core::max_abs_diff(got, want), 1e-9 * core::norm2(want)) << label;
}

/// Compares a SIMD engine against its scalar twin on one geometry, in both
/// transform directions.
template <int D>
void expect_matches_scalar_twin(core::GridderOptions opt, std::int64_t n,
                                const core::SampleSet<D>& in,
                                std::uint64_t seed) {
  opt.simd = true;
  auto vec = core::make_gridder<D>(n, opt);
  opt.simd = false;
  auto ref = core::make_gridder<D>(n, opt);
  const std::string label = core::to_string(
      core::GridderSpec{opt.kind, true});

  expect_rel_l2(adjoint_of<D>(*vec, in), adjoint_of<D>(*ref, in),
                label + " adjoint");

  Rng rng(seed);
  std::vector<c64> img(static_cast<std::size_t>(ref->grid_size() *
                                                (D > 1 ? ref->grid_size() : 1) *
                                                (D > 2 ? ref->grid_size() : 1)));
  for (auto& v : img) v = c64(rng.uniform(-1, 1), rng.uniform(-1, 1));
  expect_rel_l2(forward_of<D>(*vec, img, in), forward_of<D>(*ref, img, in),
                label + " forward");
}

TEST(SimdEngines, AdjointForwardDotIdentity) {
  // <F x, y> == <x, A y> in the unconjugated bilinear pairing (the window
  // weights are real, so forward and adjoint are exact transposes).
  const std::int64_t n = 16;
  const auto y = random_samples<2>(700, 11);
  for (const auto kind : kSimdKinds) {
    const auto opt = simd_options(kind, 6, 8);
    auto g = core::make_gridder<2>(n, opt);
    Rng rng(12);
    std::vector<c64> x(static_cast<std::size_t>(g->grid_size() *
                                                g->grid_size()));
    for (auto& v : x) v = c64(rng.uniform(-1, 1), rng.uniform(-1, 1));

    const auto fx = forward_of<2>(*g, x, y);   // F x at y's coords
    const auto ay = adjoint_of<2>(*g, y);      // A y on the grid

    c64 lhs{};
    for (std::size_t j = 0; j < fx.size(); ++j) lhs += fx[j] * y.values[j];
    c64 rhs{};
    for (std::size_t i = 0; i < ay.size(); ++i) rhs += ay[i] * x[i];
    const double scale = std::abs(lhs) + std::abs(rhs) + 1.0;
    EXPECT_LT(std::abs(lhs - rhs), 1e-10 * scale)
        << core::to_string(core::GridderSpec{kind, true});
  }
}

TEST(SimdEngines, WidthSweepMatchesScalarTwin) {
  // W = 2..8 includes widths that do not divide the vector lane count
  // (3, 5, 6, 7), exercising the masked/ragged tail of every kernel.
  const std::int64_t n = 16;
  const auto in = random_samples<2>(600, 21);
  for (const auto kind : kSimdKinds) {
    for (int w = 2; w <= 8; ++w) {
      expect_matches_scalar_twin<2>(simd_options(kind, w, 8), n, in,
                                    100 + static_cast<std::uint64_t>(w));
    }
  }
}

TEST(SimdEngines, RaggedSampleCountsMatchScalarTwin) {
  // Small and prime m values leave ragged bin tails in the SoA path and
  // odd trip counts everywhere else.
  const std::int64_t n = 16;
  for (const auto kind : kSimdKinds) {
    for (const std::int64_t m : {1, 2, 3, 5, 7, 33, 257}) {
      expect_matches_scalar_twin<2>(
          simd_options(kind, 6, 8), n,
          random_samples<2>(m, 30 + static_cast<std::uint64_t>(m)), 31);
    }
  }
}

TEST(SimdEngines, OddGridDimsMatchScalarTwin) {
  // sigma=1.5, n=18 -> G=27: odd rows misalign every window row, and the
  // wrap fallback fires on both edges. Tile 9 divides 27 for the tiled
  // engines.
  const std::int64_t n = 18;
  const auto in = random_samples<2>(500, 41);
  for (const auto kind : kSimdKinds) {
    auto opt = simd_options(kind, 6, 9);
    opt.sigma = 1.5;
    expect_matches_scalar_twin<2>(opt, n, in, 42);
  }
}

TEST(SimdEngines, ThreeDimensionalMatchesScalarTwin) {
  const std::int64_t n = 8;
  const auto in = random_samples<3>(400, 51);
  for (const auto kind : kSimdKinds) {
    expect_matches_scalar_twin<3>(simd_options(kind, 4, 8), n, in, 52);
  }
}

TEST(SimdEngines, WorkCountersIdenticalToScalarTwin) {
  // The vectorized paths must report exactly the scalar twin's logical
  // work: same samples, same interpolations, same LUT lookups, same
  // boundary checks. bench_compare.py's work-regression gate relies on it.
  const std::int64_t n = 16;
  const auto in = random_samples<2>(800, 61);
  for (const auto kind : kSimdKinds) {
    auto opt = simd_options(kind, 6, 8);
    auto vec = core::make_gridder<2>(n, opt);
    opt.simd = false;
    auto ref = core::make_gridder<2>(n, opt);
    core::Grid<2> gv(vec->grid_size());
    core::Grid<2> gr(ref->grid_size());
    vec->adjoint(in, gv);
    ref->adjoint(in, gr);
    const auto& sv = vec->stats();
    const auto& sr = ref->stats();
    const std::string label = core::to_string(core::GridderSpec{kind, true});
    EXPECT_EQ(sv.samples_processed, sr.samples_processed) << label;
    EXPECT_EQ(sv.interpolations, sr.interpolations) << label;
    EXPECT_EQ(sv.lut_lookups, sr.lut_lookups) << label;
    EXPECT_EQ(sv.boundary_checks, sr.boundary_checks) << label;
  }
}

TEST(SimdEngines, ForcedScalarMatchesDispatchedIsa) {
  // Forcing JIGSAW_SIMD=scalar must agree with the auto-dispatched ISA
  // within the engine contract — the ISA is an implementation detail.
  const std::int64_t n = 16;
  const auto in = random_samples<2>(600, 71);
  ForceGuard guard;
  for (const auto kind : kSimdKinds) {
    const auto opt = simd_options(kind, 6, 8);
    simd::force("auto");
    auto auto_g = core::make_gridder<2>(n, opt);
    const auto want = adjoint_of<2>(*auto_g, in);
    simd::force("scalar");
    auto scalar_g = core::make_gridder<2>(n, opt);
    const auto got = adjoint_of<2>(*scalar_g, in);
    expect_rel_l2(got, want,
                  core::to_string(core::GridderSpec{kind, true}) +
                      " forced-scalar");
  }
}

// ---------------------------------------------------------------------------
// Engine spec parsing
// ---------------------------------------------------------------------------

TEST(GridderSpecParsing, SimdSuffixRoundTrips) {
  for (const char* name : {"serial-simd", "binning-simd"}) {
    const core::GridderSpec spec = core::parse_gridder_spec(name);
    EXPECT_TRUE(spec.simd) << name;
    EXPECT_TRUE(core::gridder_kind_has_simd(spec.kind)) << name;
  }
  const core::GridderSpec plain = core::parse_gridder_spec("serial");
  EXPECT_FALSE(plain.simd);
  EXPECT_EQ(core::to_string(core::GridderSpec{core::GridderKind::Serial, true}),
            "serial-simd");
  EXPECT_EQ(core::to_string(core::GridderSpec{core::GridderKind::Serial,
                                              false}),
            "serial");
}

TEST(GridderSpecParsing, UnknownAndNonSimdEnginesDiagnose) {
  try {
    core::parse_gridder_spec("bogus-simd");
    FAIL() << "parse did not throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("unknown engine 'bogus-simd'"),
              std::string::npos)
        << e.what();
  }
  // jigsaw (fixed-point) and slice-and-dice have no vectorized twin: the
  // parser names the valid specs, and the factory rejects the flag.
  for (const char* name :
       {"jigsaw-simd", "slice-dice-simd", "slice-and-dice-simd"}) {
    try {
      core::parse_gridder_spec(name);
      ADD_FAILURE() << name << " parsed";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "unknown engine '" + std::string(name) + "', valid: " +
                    core::gridder_spec_names()),
                std::string::npos)
          << e.what();
    }
  }
  for (const auto kind :
       {core::GridderKind::Jigsaw, core::GridderKind::SliceDice}) {
    core::GridderOptions opt;
    opt.kind = kind;
    opt.simd = true;
    EXPECT_THROW(core::make_gridder<2>(16, opt), std::invalid_argument)
        << core::to_string(kind);
  }
  EXPECT_NE(core::gridder_spec_names().find("binning-simd"),
            std::string::npos);
  EXPECT_EQ(core::gridder_spec_names().find("slice-dice-simd"),
            std::string::npos);
}

}  // namespace
}  // namespace jigsaw
