// Trajectory generator tests.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "trajectory/trajectory.hpp"

namespace jigsaw::trajectory {
namespace {

template <int D>
void expect_in_torus(const std::vector<Coord<D>>& coords) {
  for (const auto& c : coords) {
    for (int d = 0; d < D; ++d) {
      ASSERT_GE(c[static_cast<std::size_t>(d)], -0.5);
      ASSERT_LT(c[static_cast<std::size_t>(d)], 0.5);
    }
  }
}

TEST(Radial, CountAndRange) {
  const auto t = radial_2d(16, 32);
  EXPECT_EQ(t.size(), 16u * 32u);
  expect_in_torus<2>(t);
}

TEST(Radial, SpokesAreCollinear) {
  const auto t = radial_2d(8, 64);
  // Samples of one spoke lie on a line through the origin: the cross
  // product of any two non-zero samples vanishes.
  for (int s = 0; s < 8; ++s) {
    double ref_x = 0, ref_y = 0;
    for (int i = 0; i < 64; ++i) {
      const auto& c = t[static_cast<std::size_t>(s * 64 + i)];
      if (std::hypot(c[0], c[1]) > 0.1) {
        ref_x = c[0];
        ref_y = c[1];
        break;
      }
    }
    for (int i = 0; i < 64; ++i) {
      const auto& c = t[static_cast<std::size_t>(s * 64 + i)];
      EXPECT_NEAR(c[0] * ref_y - c[1] * ref_x, 0.0, 1e-12);
    }
  }
}

TEST(Radial, CoversCenterDensely) {
  const auto t = radial_2d(32, 64);
  int near_center = 0;
  for (const auto& c : t) {
    if (std::hypot(c[0], c[1]) < 0.05) ++near_center;
  }
  // Every spoke passes near the center.
  EXPECT_GE(near_center, 32);
}

TEST(Radial, GoldenAngleDistinctFromUniform) {
  const auto a = radial_2d(8, 16, false);
  const auto b = radial_2d(8, 16, true);
  bool differs = false;
  for (std::size_t i = 16; i < a.size(); ++i) {
    if (std::fabs(a[i][0] - b[i][0]) > 1e-9) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(Radial, RejectsDegenerate) {
  EXPECT_THROW(radial_2d(0, 16), std::invalid_argument);
  EXPECT_THROW(radial_2d(4, 1), std::invalid_argument);
}

TEST(Spiral, CountRangeAndGrowth) {
  const auto t = spiral_2d(4, 256);
  EXPECT_EQ(t.size(), 4u * 256u);
  expect_in_torus<2>(t);
  // Radius grows monotonically along an interleaf.
  for (int i = 1; i < 256; ++i) {
    const double r0 = std::hypot(t[static_cast<std::size_t>(i - 1)][0],
                                 t[static_cast<std::size_t>(i - 1)][1]);
    const double r1 = std::hypot(t[static_cast<std::size_t>(i)][0],
                                 t[static_cast<std::size_t>(i)][1]);
    EXPECT_GE(r1 + 1e-12, r0);
  }
}

TEST(Rosette, CountAndRange) {
  const auto t = rosette_2d(512);
  EXPECT_EQ(t.size(), 512u);
  expect_in_torus<2>(t);
}

TEST(Random2D, DeterministicPerSeed) {
  const auto a = random_2d(100, 5);
  const auto b = random_2d(100, 5);
  const auto c = random_2d(100, 6);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  expect_in_torus<2>(a);
}

TEST(Random3D, RangeAndCount) {
  const auto t = random_3d(200, 1);
  EXPECT_EQ(t.size(), 200u);
  expect_in_torus<3>(t);
}

TEST(Cartesian, ExactGridPointsWithoutJitter) {
  const int n = 8;
  const auto t = cartesian_2d(n, 0.0, 1);
  EXPECT_EQ(t.size(), 64u);
  expect_in_torus<2>(t);
  for (const auto& c : t) {
    // Each coordinate must be an integer multiple of 1/n.
    EXPECT_NEAR(std::round(c[0] * n), c[0] * n, 1e-12);
    EXPECT_NEAR(std::round(c[1] * n), c[1] * n, 1e-12);
  }
}

TEST(Cartesian, JitterPerturbsButStaysInRange) {
  const auto t = cartesian_2d(8, 0.3, 2);
  expect_in_torus<2>(t);
  int off_grid = 0;
  for (const auto& c : t) {
    if (std::fabs(std::round(c[0] * 8) - c[0] * 8) > 1e-9) ++off_grid;
  }
  EXPECT_GT(off_grid, 32);
}

TEST(StackOfStars, StructureAndRange) {
  const auto t = stack_of_stars_3d(4, 8, 6);
  EXPECT_EQ(t.size(), 4u * 8u * 6u);
  expect_in_torus<3>(t);
  // Each partition shares a single kz.
  for (int z = 0; z < 6; ++z) {
    const double kz = t[static_cast<std::size_t>(z * 32)][2];
    for (int i = 0; i < 32; ++i) {
      EXPECT_EQ(t[static_cast<std::size_t>(z * 32 + i)][2], kz);
    }
  }
}

TEST(MakeTrajectory, ApproximatesRequestedCount) {
  for (auto type : {TrajectoryType::Radial, TrajectoryType::Spiral,
                    TrajectoryType::Rosette, TrajectoryType::Random}) {
    const auto t = make_2d(type, 10000);
    EXPECT_GE(t.size(), 9000u) << to_string(type);
    EXPECT_LE(t.size(), 12000u) << to_string(type);
    expect_in_torus<2>(t);
  }
}

TEST(DensityWeights, RampShapeAndNormalization) {
  const auto t = radial_2d(16, 64);
  const auto w = radial_density_weights(t);
  ASSERT_EQ(w.size(), t.size());
  double mean = 0.0;
  for (double v : w) mean += v;
  mean /= static_cast<double>(w.size());
  EXPECT_NEAR(mean, 1.0, 1e-9);
  // Weight grows with radius.
  for (std::size_t i = 0; i < t.size(); ++i) {
    for (std::size_t j = 0; j < t.size(); j += 97) {
      const double ri = std::hypot(t[i][0], t[i][1]);
      const double rj = std::hypot(t[j][0], t[j][1]);
      if (ri > rj + 0.01) {
        EXPECT_GT(w[i], w[j]);
      }
    }
    if (i > 200) break;
  }
}

TEST(Propeller, CountAndRange) {
  const int blades = 6, lines = 8, per_line = 32;
  const auto t = propeller_2d(blades, lines, per_line);
  EXPECT_EQ(t.size(), static_cast<std::size_t>(blades * lines * per_line));
  expect_in_torus<2>(t);
}

TEST(Propeller, LinesWithinABladeAreParallel) {
  const int blades = 4, lines = 6, per_line = 16;
  const auto t = propeller_2d(blades, lines, per_line);
  for (int b = 0; b < blades; ++b) {
    // Direction of each line = last sample minus first sample; all lines of
    // one blade must share it (cross product vanishes).
    const std::size_t blade0 =
        static_cast<std::size_t>(b) * static_cast<std::size_t>(lines * per_line);
    double ref_x = 0, ref_y = 0;
    for (int l = 0; l < lines; ++l) {
      const std::size_t line0 =
          blade0 + static_cast<std::size_t>(l * per_line);
      const double dx = t[line0 + per_line - 1][0] - t[line0][0];
      const double dy = t[line0 + per_line - 1][1] - t[line0][1];
      if (l == 0) {
        ref_x = dx;
        ref_y = dy;
        continue;
      }
      EXPECT_NEAR(dx * ref_y - dy * ref_x, 0.0, 1e-12)
          << "blade " << b << " line " << l;
    }
  }
}

TEST(Propeller, EveryBladeCoversTheCenterStrip) {
  // The self-navigation property: every blade must sample near k = 0.
  const int blades = 8, lines = 8, per_line = 32;
  const auto t = propeller_2d(blades, lines, per_line);
  for (int b = 0; b < blades; ++b) {
    double min_r = 1.0;
    for (int i = 0; i < lines * per_line; ++i) {
      const auto& c = t[static_cast<std::size_t>(b * lines * per_line + i)];
      min_r = std::min(min_r, std::hypot(c[0], c[1]));
    }
    EXPECT_LT(min_r, 0.05) << "blade " << b << " misses the center";
  }
}

TEST(Propeller, BladesAreRotatedCopies) {
  const auto t = propeller_2d(4, 4, 8);
  // Blade 2 of 4 sits at angle 2*pi/4 = pi/2: it must be blade 0 rotated
  // by 90 degrees, sample for sample.
  const int per_blade = 4 * 8;
  for (int i = 0; i < per_blade; ++i) {
    const auto& a = t[static_cast<std::size_t>(i)];
    const auto& b = t[static_cast<std::size_t>(2 * per_blade + i)];
    EXPECT_NEAR(b[0], -a[1], 1e-12);
    EXPECT_NEAR(b[1], a[0], 1e-12);
  }
}

TEST(Propeller, MakeTrajectoryDispatch) {
  const auto t = make_2d(TrajectoryType::Propeller, 2000);
  EXPECT_GT(t.size(), 1000u);
  EXPECT_LT(t.size(), 4000u);
  expect_in_torus<2>(t);
}

TEST(TrajectoryNames, Distinct) {
  std::set<std::string> names;
  for (auto type : {TrajectoryType::Radial, TrajectoryType::Spiral,
                    TrajectoryType::Rosette, TrajectoryType::Random,
                    TrajectoryType::Cartesian, TrajectoryType::GoldenRadial,
                    TrajectoryType::VdSpiral, TrajectoryType::Propeller}) {
    names.insert(to_string(type));
  }
  EXPECT_EQ(names.size(), 8u);
}

}  // namespace
}  // namespace jigsaw::trajectory
