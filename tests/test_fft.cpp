// FFT library tests: correctness against the O(N^2) DFT oracle, round
// trips, linearity, Parseval, multi-dimensional transforms, shifts.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstring>
#include <numbers>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "fft/fft.hpp"
#include "obs/obs.hpp"

namespace jigsaw::fft {
namespace {

std::vector<c64> random_signal(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<c64> v(n);
  for (auto& x : v) x = c64(rng.uniform(-1, 1), rng.uniform(-1, 1));
  return v;
}

double max_err(const std::vector<c64>& a, const std::vector<c64>& b) {
  double worst = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::abs(a[i] - b[i]));
  }
  return worst;
}

double rel_l2(const std::vector<c64>& got, const std::vector<c64>& want) {
  double err = 0, ref = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    err += std::norm(got[i] - want[i]);
    ref += std::norm(want[i]);
  }
  return std::sqrt(err / ref);
}

class Fft1DSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Fft1DSizes, MatchesDirectDftForward) {
  const std::size_t n = GetParam();
  auto x = random_signal(n, 100 + n);
  std::vector<c64> expect(n);
  dft_reference(x.data(), expect.data(), n, Direction::Forward);
  Fft1D plan(n);
  plan.execute(x.data(), Direction::Forward);
  EXPECT_LT(max_err(x, expect), 1e-9 * static_cast<double>(n))
      << "size " << n;
}

TEST_P(Fft1DSizes, MatchesDirectDftInverse) {
  const std::size_t n = GetParam();
  auto x = random_signal(n, 200 + n);
  std::vector<c64> expect(n);
  dft_reference(x.data(), expect.data(), n, Direction::Inverse);
  Fft1D plan(n);
  plan.execute(x.data(), Direction::Inverse);
  EXPECT_LT(max_err(x, expect), 1e-9 * static_cast<double>(n));
}

TEST_P(Fft1DSizes, RoundTripScalesByN) {
  const std::size_t n = GetParam();
  const auto orig = random_signal(n, 300 + n);
  auto x = orig;
  Fft1D plan(n);
  plan.execute(x.data(), Direction::Forward);
  plan.execute(x.data(), Direction::Inverse);
  for (auto& v : x) v /= static_cast<double>(n);
  EXPECT_LT(max_err(x, orig), 1e-10 * static_cast<double>(n));
}

TEST_P(Fft1DSizes, ParsevalHolds) {
  const std::size_t n = GetParam();
  auto x = random_signal(n, 400 + n);
  double time_energy = 0;
  for (const auto& v : x) time_energy += std::norm(v);
  Fft1D plan(n);
  plan.execute(x.data(), Direction::Forward);
  double freq_energy = 0;
  for (const auto& v : x) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy, time_energy * static_cast<double>(n),
              1e-8 * time_energy * static_cast<double>(n));
}

// Every length whose prime factors are all <= 7, powers of two included,
// exercises the mixed-radix kernel directly; 13 and 31 exercise Bluestein.
INSTANTIATE_TEST_SUITE_P(AllSizes, Fft1DSizes,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 12, 13, 16,
                                           27, 31, 32, 48, 64, 100, 128, 384));

TEST(Fft1D, ImpulseGivesFlatSpectrum) {
  const std::size_t n = 16;
  std::vector<c64> x(n, c64{});
  x[0] = 1.0;
  Fft1D plan(n);
  plan.execute(x.data(), Direction::Forward);
  for (const auto& v : x) {
    EXPECT_NEAR(v.real(), 1.0, 1e-12);
    EXPECT_NEAR(v.imag(), 0.0, 1e-12);
  }
}

TEST(Fft1D, SingleToneLandsInOneBin) {
  const std::size_t n = 64;
  std::vector<c64> x(n);
  const int k0 = 5;
  for (std::size_t i = 0; i < n; ++i) {
    const double ang = 2.0 * std::numbers::pi * k0 * static_cast<double>(i) /
                       static_cast<double>(n);
    x[i] = c64(std::cos(ang), std::sin(ang));
  }
  Fft1D plan(n);
  // Forward kernel e^{-2 pi i nk/N} concentrates the e^{+2 pi i k0 n/N}
  // tone into bin k0.
  plan.execute(x.data(), Direction::Forward);
  for (std::size_t k = 0; k < n; ++k) {
    const double expected = (k == k0) ? static_cast<double>(n) : 0.0;
    EXPECT_NEAR(std::abs(x[k]), expected, 1e-8) << "bin " << k;
  }
}

TEST(Fft1D, LinearityHolds) {
  // 48 = 2^4*3 takes the mixed-radix path, 52 = 4*13 Bluestein.
  for (const std::size_t n : {48u, 52u}) {
    auto a = random_signal(n, 7);
    auto b = random_signal(n, 8);
    const c64 alpha(0.7, -0.3);
    std::vector<c64> combo(n);
    for (std::size_t i = 0; i < n; ++i) combo[i] = a[i] + alpha * b[i];
    Fft1D plan(n);
    plan.execute(a.data(), Direction::Forward);
    plan.execute(b.data(), Direction::Forward);
    plan.execute(combo.data(), Direction::Forward);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_LT(std::abs(combo[i] - (a[i] + alpha * b[i])), 1e-9)
          << "n=" << n;
    }
  }
}

TEST(Fft1D, MatchesDftReferenceForEveryLengthTo512AndLargePrimes) {
  // Every radix combination up to 512, direct and under Bluestein, plus
  // primes whose Bluestein convolutions are 2048 and 2100 points long, a
  // large power of two and a large 7-smooth length that is not one.
  std::vector<std::size_t> sizes;
  for (std::size_t n = 1; n <= 512; ++n) sizes.push_back(n);
  for (const std::size_t n : {1021u, 1031u, 4096u, 3000u}) sizes.push_back(n);
  for (const std::size_t n : sizes) {
    Fft1D plan(n);
    for (const Direction dir : {Direction::Forward, Direction::Inverse}) {
      auto x = random_signal(n, 500 + n);
      std::vector<c64> expect(n);
      dft_reference(x.data(), expect.data(), n, dir);
      plan.execute(x.data(), dir);
      ASSERT_LT(rel_l2(x, expect), 1e-12)
          << "n=" << n
          << (dir == Direction::Forward ? " forward" : " inverse");
    }
  }
}

TEST(Fft1D, RejectsZeroLength) { EXPECT_THROW(Fft1D(0), std::invalid_argument); }

TEST(Fft1D, StridedMatchesContiguous) {
  // A power of two, another 7-smooth length, and Bluestein.
  for (const std::size_t n : {32u, 96u, 26u}) {
    const std::size_t stride = 3;
    auto base = random_signal(n * stride, 11);
    auto strided = base;
    std::vector<c64> line(n), scratch(n);
    for (std::size_t i = 0; i < n; ++i) line[i] = base[i * stride];
    Fft1D plan(n);
    plan.execute(line.data(), Direction::Forward);
    plan.execute_strided(strided.data(), stride, Direction::Forward,
                         scratch.data());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_LT(std::abs(strided[i * stride] - line[i]), 1e-12) << "n=" << n;
    }
    // Elements off the stride lattice are untouched.
    for (std::size_t i = 0; i < n * stride; ++i) {
      if (i % stride != 0) {
        EXPECT_EQ(strided[i], base[i]) << "n=" << n;
      }
    }
  }
}

TEST(FftNd, TwoDMatchesSeparableDft) {
  const std::size_t ny = 8, nx = 12;
  auto x = random_signal(ny * nx, 21);
  // Direct 2D DFT.
  std::vector<c64> expect(ny * nx, c64{});
  for (std::size_t ky = 0; ky < ny; ++ky) {
    for (std::size_t kx = 0; kx < nx; ++kx) {
      c64 acc{};
      for (std::size_t iy = 0; iy < ny; ++iy) {
        for (std::size_t ix = 0; ix < nx; ++ix) {
          const double ang =
              -2.0 * std::numbers::pi *
              (static_cast<double>(ky * iy) / static_cast<double>(ny) +
               static_cast<double>(kx * ix) / static_cast<double>(nx));
          acc += x[iy * nx + ix] * c64(std::cos(ang), std::sin(ang));
        }
      }
      expect[ky * nx + kx] = acc;
    }
  }
  FftNd plan({ny, nx});
  plan.execute(x.data(), Direction::Forward);
  EXPECT_LT(max_err(x, expect), 1e-8);
}

TEST(FftNd, ThreeDRoundTrip) {
  const std::size_t n = 6;
  const auto orig = random_signal(n * n * n, 31);
  auto x = orig;
  FftNd plan({n, n, n});
  plan.execute(x.data(), Direction::Forward);
  plan.execute(x.data(), Direction::Inverse);
  const double scale = static_cast<double>(n * n * n);
  for (auto& v : x) v /= scale;
  EXPECT_LT(max_err(x, orig), 1e-10);
}

TEST(FftNd, SeparableImpulse2D) {
  const std::size_t n = 16;
  std::vector<c64> x(n * n, c64{});
  x[0] = 1.0;
  FftNd plan({n, n});
  plan.execute(x.data(), Direction::Forward);
  for (const auto& v : x) EXPECT_NEAR(std::abs(v), 1.0, 1e-12);
}

TEST(FftShift, RoundTripsEvenAndOdd) {
  for (std::size_t n : {8u, 9u}) {
    auto x = random_signal(n * n, 41 + n);
    const auto orig = x;
    fftshift(x.data(), {n, n});
    ifftshift(x.data(), {n, n});
    EXPECT_LT(max_err(x, orig), 0.0 + 1e-15) << "n=" << n;
  }
}

TEST(FftShift, MovesDcToCenter) {
  const std::size_t n = 8;
  std::vector<c64> x(n, c64{});
  x[0] = 1.0;
  fftshift(x.data(), {n});
  EXPECT_NEAR(std::abs(x[n / 2]), 1.0, 1e-15);
}

TEST(FftNd, ThreadedMatchesSerial) {
  const std::size_t n = 64;
  auto serial = random_signal(n * n, 51);
  auto threaded = serial;
  FftNd plan({n, n});
  plan.execute(serial.data(), Direction::Forward);
  plan.execute(threaded.data(), Direction::Forward, /*threads=*/4);
  // Same per-line transforms, just distributed: identical results.
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(threaded[i], serial[i]);
  }
}

TEST(FftNd, ThreadedMatchesSerialOnMixedRadixAndBluestein) {
  // {96, 80} is mixed-radix on both axes, {26, 22} Bluestein on both:
  // threads split their lines exactly as they split power-of-two ones.
  const std::vector<std::vector<std::size_t>> shapes = {{96, 80}, {26, 22}};
  for (const auto& dims : shapes) {
    FftNd plan(dims);
    auto a = random_signal(plan.total_size(), 52);
    auto b = a;
    plan.execute(a.data(), Direction::Forward);
    plan.execute(b.data(), Direction::Forward, 4);
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i], b[i]) << dims[0] << "x" << dims[1];
    }
  }
}

TEST(FftNd, MixedRadixExecuteLeasesNoScratch) {
  if (!obs::kEnabled) GTEST_SKIP() << "built with JIGSAW_OBS=OFF";
  // Lines of a 7-smooth length, powers of two included, run through the
  // scratch block FftNd::execute holds; only Bluestein borrows convolution
  // scratch from the pool.
  for (const std::size_t n : {64u, 80u, 96u, 120u, 128u, 192u, 256u}) {
    FftNd plan({n, n});
    auto x = random_signal(n * n, 53);
    const auto before = obs::snapshot().counter("scratch.acquires");
    plan.execute(x.data(), Direction::Forward);
    plan.execute(x.data(), Direction::Inverse);
    EXPECT_EQ(obs::snapshot().counter("scratch.acquires"), before)
        << "n=" << n;
  }
}

bool same_bits(const std::vector<c64>& a, const std::vector<c64>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(c64)) == 0;
}

std::string shape(const std::vector<std::size_t>& dims) {
  std::string out;
  for (const std::size_t d : dims) {
    if (!out.empty()) out += 'x';
    out += std::to_string(d);
  }
  return out;
}

TEST(FftNd, LineGroupsMatchOneLineAtATimeBitwise) {
  // FftNd runs strided axes in groups of kLineGroup lines; the reference
  // runs every line alone through Fft1D::execute_strided, axis by axis.
  // {64, 90} leaves a stride tail (90 % 4 = 2), {70, 84} has factors 5 and
  // 7, and {26, 22} is Bluestein.
  const std::vector<std::vector<std::size_t>> shapes = {
      {128, 128}, {96, 96}, {64, 90}, {70, 84}, {16, 16, 16}, {26, 22}};
  for (const auto& dims : shapes) {
    for (const Direction dir : {Direction::Forward, Direction::Inverse}) {
      FftNd plan(dims);
      const auto input = random_signal(plan.total_size(), 61);
      auto grouped = input;
      plan.execute(grouped.data(), dir);

      auto lines = input;
      for (std::size_t axis = 0; axis < dims.size(); ++axis) {
        const Fft1D line_plan(dims[axis]);
        std::vector<c64> scratch(dims[axis]);
        std::size_t stride = 1;
        for (std::size_t a = axis + 1; a < dims.size(); ++a) stride *= dims[a];
        const std::size_t block = stride * dims[axis];
        for (std::size_t base = 0; base < lines.size(); base += block) {
          for (std::size_t off = 0; off < stride; ++off) {
            line_plan.execute_strided(lines.data() + base + off, stride, dir,
                                      scratch.data());
          }
        }
      }
      EXPECT_TRUE(same_bits(grouped, lines))
          << shape(dims) << (dir == Direction::Forward ? " forward" : " inverse");
    }
  }
}

/// Whether every coordinate of row-major `index` lies in the band of an
/// n-point image embedded at the wrap-around centre of each axis.
bool index_in_band(std::size_t index, const std::vector<std::size_t>& dims,
                   std::size_t n) {
  for (std::size_t a = dims.size(); a-- > 0;) {
    const std::size_t i = index % dims[a];
    index /= dims[a];
    if (i >= n - n / 2 && i < dims[a] - n / 2) return false;
  }
  return true;
}

TEST(FftNd, BandSkipsOnlyZeroOrUnreadLines) {
  struct Case {
    std::vector<std::size_t> dims;
    std::size_t band;
  };
  const std::vector<Case> cases = {
      {{128, 128}, 64}, {{128, 128}, 63}, {{96, 96}, 48}, {{96, 96}, 47},
      {{96, 128}, 41},  {{16, 16, 16}, 8}, {{16, 16, 16}, 7},
      {{24, 24, 24}, 12}, {{24, 24, 24}, 11}};
  for (const Case& c : cases) {
    SCOPED_TRACE(shape(c.dims) + " band " + std::to_string(c.band));
    FftNd plan(c.dims);
    // Forward: an input zero outside the band transforms to the full
    // transform's bits.
    auto embedded = random_signal(plan.total_size(), 71);
    for (std::size_t i = 0; i < embedded.size(); ++i) {
      if (!index_in_band(i, c.dims, c.band)) embedded[i] = c64{};
    }
    auto full = embedded;
    auto banded = embedded;
    plan.execute(full.data(), Direction::Forward);
    plan.execute(banded.data(), Direction::Forward, 1, c.band);
    EXPECT_TRUE(same_bits(banded, full)) << "forward";

    // Inverse: every in-band output has the full transform's bits.
    const auto input = random_signal(plan.total_size(), 72);
    full = input;
    banded = input;
    plan.execute(full.data(), Direction::Inverse);
    plan.execute(banded.data(), Direction::Inverse, 1, c.band);
    std::size_t checked = 0;
    for (std::size_t i = 0; i < full.size(); ++i) {
      if (!index_in_band(i, c.dims, c.band)) continue;
      ++checked;
      ASSERT_EQ(std::memcmp(&banded[i], &full[i], sizeof(c64)), 0)
          << "inverse, index " << i;
    }
    std::size_t expected = 1;
    for (std::size_t d = 0; d < c.dims.size(); ++d) expected *= c.band;
    EXPECT_EQ(checked, expected);
  }
  FftNd plan({128, 128});
  auto x = random_signal(plan.total_size(), 73);
  EXPECT_THROW(plan.execute(x.data(), Direction::Forward, 1, 129),
               std::invalid_argument);

  if (!obs::kEnabled) GTEST_SKIP() << "built with JIGSAW_OBS=OFF";
  // fft.lines counts the 1-D lines transformed: 3/4 of them in 2D at
  // band g/2, 7/12 in 3D.
  const auto lines = [](const std::vector<std::size_t>& dims, Direction dir,
                        std::size_t band) {
    FftNd p(dims);
    auto data = random_signal(p.total_size(), 74);
    const auto before = obs::snapshot().counter("fft.lines");
    p.execute(data.data(), dir, 1, band);
    return obs::snapshot().counter("fft.lines") - before;
  };
  for (const Direction dir : {Direction::Forward, Direction::Inverse}) {
    EXPECT_EQ(lines({128, 128}, dir, 0), 256u);
    EXPECT_EQ(lines({128, 128}, dir, 64), 192u);
    EXPECT_EQ(lines({16, 16, 16}, dir, 0), 768u);
    EXPECT_EQ(lines({16, 16, 16}, dir, 8), 448u);
  }
}

}  // namespace
}  // namespace jigsaw::fft
