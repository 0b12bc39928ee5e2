// Interpolation kernel tests: Bessel functions, window properties, analytic
// vs numeric Fourier transforms, Beatty parameter selection, LUT behaviour.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "kernels/bessel.hpp"
#include "kernels/kernel.hpp"
#include "kernels/lut.hpp"

namespace jigsaw::kernels {
namespace {

TEST(Bessel, I0KnownValues) {
  // Reference values (Abramowitz & Stegun tables / scipy).
  EXPECT_NEAR(bessel_i0(0.0), 1.0, 1e-15);
  EXPECT_NEAR(bessel_i0(1.0), 1.2660658777520084, 1e-12);
  EXPECT_NEAR(bessel_i0(2.5), 3.2898391440501231, 1e-12);
  EXPECT_NEAR(bessel_i0(5.0), 27.239871823604442, 1e-10);
  EXPECT_NEAR(bessel_i0(10.0), 2815.7166284662544, 1e-7 * 2815.7);
}

TEST(Bessel, I0EvenFunction) {
  for (double x : {0.3, 1.7, 6.0, 25.0}) {
    EXPECT_DOUBLE_EQ(bessel_i0(x), bessel_i0(-x));
  }
}

TEST(Bessel, I0AsymptoticContinuity) {
  // The series/asymptotic switchover at x=20 must be seamless.
  const double below = bessel_i0(19.999);
  const double above = bessel_i0(20.001);
  EXPECT_NEAR(above / below, 1.002, 0.002);  // smooth growth, no jump
}

TEST(Bessel, J1KnownValues) {
  EXPECT_NEAR(bessel_j1(0.0), 0.0, 1e-15);
  EXPECT_NEAR(bessel_j1(1.0), 0.44005058574493355, 1e-7);
  EXPECT_NEAR(bessel_j1(2.0), 0.5767248077568734, 1e-7);
  EXPECT_NEAR(bessel_j1(5.0), -0.3275791375914652, 1e-7);
  EXPECT_NEAR(bessel_j1(10.0), 0.04347274616886144, 1e-7);
}

TEST(Bessel, J1OddFunction) {
  for (double x : {0.5, 2.2, 7.7, 15.0}) {
    EXPECT_NEAR(bessel_j1(-x), -bessel_j1(x), 1e-12);
  }
}

TEST(Bessel, J1FirstZero) {
  // First positive zero of J1 is at 3.8317059702...
  EXPECT_NEAR(bessel_j1(3.8317059702), 0.0, 1e-7);
}

TEST(Bessel, JincAtZeroIsPiOverFour) {
  EXPECT_NEAR(jinc(0.0), std::numbers::pi / 4.0, 1e-12);
  // Continuity near zero.
  EXPECT_NEAR(jinc(1e-7), std::numbers::pi / 4.0, 1e-6);
}

TEST(Beatty, MatchesFormula) {
  // beta = pi * sqrt((W/sigma)^2 (sigma-1/2)^2 - 0.8)
  const double b = beatty_beta(6, 2.0);
  const double expect =
      std::numbers::pi * std::sqrt(9.0 * 2.25 - 0.8);
  EXPECT_NEAR(b, expect, 1e-12);
  EXPECT_GT(beatty_beta(4, 2.0), 0.0);
  EXPECT_GT(beatty_beta(6, 1.25), 0.0);
}

TEST(Beatty, RejectsDegenerateCombos) {
  EXPECT_THROW(beatty_beta(1, 1.01), std::invalid_argument);
}

struct KernelCase {
  KernelType type;
  int width;
  double sigma;
};
// gtest names these cases by the struct's raw bytes. Without padding those
// bytes are the field values alone, so the names are the same in every
// build (tests/check_test_names.cmake lets this suite through on that ground).
static_assert(sizeof(KernelCase) ==
                  sizeof(KernelType) + sizeof(int) + sizeof(double),
              "KernelCase must hold no padding bytes");

class KernelProps : public ::testing::TestWithParam<KernelCase> {};

TEST_P(KernelProps, PeaksAtCenter) {
  const auto p = GetParam();
  auto k = make_kernel(p.type, p.width, p.sigma);
  const double center = k->evaluate(0.0);
  EXPECT_GT(center, 0.0);
  for (double t = 0.1; t < p.width / 2.0; t += 0.1) {
    EXPECT_LE(k->evaluate(t), center + 1e-12) << "t=" << t;
  }
}

TEST_P(KernelProps, EvenSymmetry) {
  const auto p = GetParam();
  auto k = make_kernel(p.type, p.width, p.sigma);
  for (double t = 0.0; t <= p.width / 2.0; t += 0.05) {
    EXPECT_DOUBLE_EQ(k->evaluate(t), k->evaluate(-t));
  }
}

TEST_P(KernelProps, ZeroOutsideSupport) {
  const auto p = GetParam();
  auto k = make_kernel(p.type, p.width, p.sigma);
  EXPECT_EQ(k->evaluate(p.width / 2.0 + 0.01), 0.0);
  EXPECT_EQ(k->evaluate(-p.width / 2.0 - 0.01), 0.0);
  EXPECT_EQ(k->evaluate(100.0), 0.0);
}

TEST_P(KernelProps, MonotoneDecayFromCenter) {
  const auto p = GetParam();
  if (p.type == KernelType::Sinc) {
    GTEST_SKIP() << "windowed sinc has (suppressed) side lobes";
  }
  auto k = make_kernel(p.type, p.width, p.sigma);
  double prev = k->evaluate(0.0);
  for (double t = 0.05; t <= p.width / 2.0; t += 0.05) {
    const double v = k->evaluate(t);
    EXPECT_LE(v, prev + 1e-12) << "t=" << t;
    prev = v;
  }
}

TEST_P(KernelProps, AnalyticFourierMatchesQuadrature) {
  const auto p = GetParam();
  auto k = make_kernel(p.type, p.width, p.sigma);
  // Over the de-apodization range |nu| <= 1/(2 sigma).
  const double numax = 0.5 / p.sigma;
  for (double nu = 0.0; nu <= numax; nu += numax / 8.0) {
    const double analytic = k->fourier(nu);
    const double numeric = k->fourier_numeric(nu);
    // The Gaussian's analytic FT ignores truncation (~1% error by design).
    const double tol = p.type == KernelType::Gaussian
                           ? 0.02 * std::fabs(k->fourier(0.0))
                           : 1e-6 * std::fabs(k->fourier(0.0));
    EXPECT_NEAR(analytic, numeric, tol)
        << to_string(p.type) << " nu=" << nu;
  }
}

TEST_P(KernelProps, FourierPositiveOverImageBand) {
  // De-apodization divides by A(k/G); it must not vanish over the band.
  const auto p = GetParam();
  auto k = make_kernel(p.type, p.width, p.sigma);
  const double numax = 0.5 / p.sigma;
  for (double nu = 0.0; nu <= numax; nu += numax / 32.0) {
    EXPECT_GT(k->fourier(nu), 0.0) << to_string(p.type) << " nu=" << nu;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, KernelProps,
    ::testing::Values(KernelCase{KernelType::KaiserBessel, 6, 2.0},
                      KernelCase{KernelType::KaiserBessel, 4, 2.0},
                      KernelCase{KernelType::KaiserBessel, 8, 1.25},
                      KernelCase{KernelType::Gaussian, 6, 2.0},
                      KernelCase{KernelType::BSpline, 6, 2.0},
                      KernelCase{KernelType::BSpline, 4, 2.0},
                      KernelCase{KernelType::Triangle, 2, 2.0},
                      KernelCase{KernelType::Triangle, 4, 2.0},
                      KernelCase{KernelType::Sinc, 6, 2.0}));

TEST(KaiserBessel, CenterValueIsOne) {
  auto k = make_kernel(KernelType::KaiserBessel, 6, 2.0);
  EXPECT_NEAR(k->evaluate(0.0), 1.0, 1e-12);
}

TEST(KernelFactory, RejectsBadWidth) {
  EXPECT_THROW(make_kernel(KernelType::KaiserBessel, 0, 2.0),
               std::invalid_argument);
  EXPECT_THROW(make_kernel(KernelType::KaiserBessel, 100, 2.0),
               std::invalid_argument);
}

TEST(KernelNames, AllDistinct) {
  EXPECT_EQ(to_string(KernelType::KaiserBessel), "kaiser-bessel");
  EXPECT_EQ(to_string(KernelType::Gaussian), "gaussian");
  EXPECT_EQ(to_string(KernelType::BSpline), "bspline");
  EXPECT_EQ(to_string(KernelType::Triangle), "triangle");
  EXPECT_EQ(to_string(KernelType::Sinc), "sinc-hann");
}

TEST(KernelLut, EntryCountIsHalfWL) {
  auto k = make_kernel(KernelType::KaiserBessel, 6, 2.0);
  KernelLut lut(*k, 32);
  EXPECT_EQ(lut.entries(), 6u * 32u / 2u);
  KernelLut lut8(*k, 64);
  EXPECT_EQ(lut8.entries(), 6u * 64u / 2u);
}

TEST(KernelLut, HardwareMaxConfigIs256Entries) {
  // Paper Sec. IV: 256 entries = W=8, L=64, halved by symmetry.
  auto k = make_kernel(KernelType::KaiserBessel, 8, 2.0);
  KernelLut lut(*k, 64);
  EXPECT_EQ(lut.entries(), 256u);
}

TEST(KernelLut, FirstEntryIsCenterValue) {
  auto k = make_kernel(KernelType::KaiserBessel, 6, 2.0);
  KernelLut lut(*k, 32);
  EXPECT_DOUBLE_EQ(lut.entry(0), k->evaluate(0.0));
  EXPECT_DOUBLE_EQ(lut.weight(0.0), 1.0);
}

TEST(KernelLut, NearestRounding) {
  auto k = make_kernel(KernelType::KaiserBessel, 6, 2.0);
  KernelLut lut(*k, 32);
  // Distance 1/64 (half a table step) rounds up to entry 1.
  EXPECT_EQ(lut.index_of(1.0 / 64.0), 1);
  EXPECT_EQ(lut.index_of(0.99 / 64.0), 0);
  EXPECT_EQ(lut.index_of(1.0 / 32.0), 1);
}

TEST(KernelLut, SymmetricInDistanceSign) {
  auto k = make_kernel(KernelType::KaiserBessel, 6, 2.0);
  KernelLut lut(*k, 32);
  for (double d = 0.0; d < 3.0; d += 0.17) {
    EXPECT_DOUBLE_EQ(lut.weight(d), lut.weight(-d));
  }
}

TEST(KernelLut, EdgeDistancesClampToLastEntry) {
  auto k = make_kernel(KernelType::KaiserBessel, 6, 2.0);
  KernelLut lut(*k, 32);
  EXPECT_EQ(lut.index_of(3.0), static_cast<std::int32_t>(lut.entries()) - 1);
  EXPECT_EQ(lut.index_of(1000.0),
            static_cast<std::int32_t>(lut.entries()) - 1);
}

TEST(KernelLut, QuantizationErrorShrinksWithL) {
  auto k = make_kernel(KernelType::KaiserBessel, 6, 2.0);
  KernelLut coarse(*k, 8);
  KernelLut fine(*k, 128);
  const double e_coarse = coarse.max_quantization_error(*k);
  const double e_fine = fine.max_quantization_error(*k);
  EXPECT_LT(e_fine, e_coarse / 4.0);
  EXPECT_LT(e_fine, 0.01);
}

TEST(KernelLut, FixedEntriesMatchDoublesWithinLsb) {
  auto k = make_kernel(KernelType::KaiserBessel, 6, 2.0);
  KernelLut lut(*k, 32);
  for (std::int32_t i = 0; i < static_cast<std::int32_t>(lut.entries()); ++i) {
    EXPECT_NEAR(lut.entry_fixed(i).to_double(), lut.entry(i),
                std::ldexp(1.0, -15));
  }
}

TEST(KernelLut, RejectsNonPowerOfTwoL) {
  auto k = make_kernel(KernelType::KaiserBessel, 6, 2.0);
  EXPECT_THROW(KernelLut(*k, 33), std::invalid_argument);
  EXPECT_THROW(KernelLut(*k, 0), std::invalid_argument);
  EXPECT_NO_THROW(KernelLut(*k, 2));
}

}  // namespace
}  // namespace jigsaw::kernels
