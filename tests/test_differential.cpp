// Cross-engine differential oracle.
//
// Every gridding engine claims to implement the same operator pair
// (adjoint gridding / forward interpolation). This suite drives all of
// them over randomized *realistic* trajectories — radial, spiral and
// uniform-random, in 2D and 3D — and checks each against the
// SerialGridder reference within the engine's documented numeric
// contract:
//
//   * double-precision engines (output-driven, binning, slice-and-dice
//     in both execution modes, sparse): max |diff| < 1e-9 * ||ref||_2
//     (same bound the existing equivalence tests use);
//   * FloatGridder: NRMSD < 5e-6 (single-precision accumulation);
//   * JigsawGridder: NRMSD < 2e-3 (Q-format fixed-point datapath; the
//     error grows with accumulation depth, so this dense-trajectory bound
//     sits above the 1e-3 the sparser unit-test cases meet).
//
// All randomness is seeded so a failure reproduces deterministically.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <cstdio>

#include "common/rng.hpp"
#include "core/gridder.hpp"
#include "core/metrics.hpp"
#include "core/serial_gridder.hpp"
#include "core/slice_dice_gridder.hpp"
#include "data/dataset.hpp"
#include "data/synthetic.hpp"
#include "trajectory/trajectory.hpp"

namespace jigsaw::core {
namespace {

template <int D>
SampleSet<D> samples_on(std::vector<Coord<D>> coords, std::uint64_t seed) {
  Rng rng(seed);
  SampleSet<D> s;
  s.coords = std::move(coords);
  s.values.resize(s.coords.size());
  for (auto& v : s.values) v = c64(rng.uniform(-1, 1), rng.uniform(-1, 1));
  return s;
}

template <int D>
std::vector<c64> adjoint_values(Gridder<D>& g, const SampleSet<D>& in) {
  Grid<D> grid(g.grid_size());
  g.adjoint(in, grid);
  return std::vector<c64>(grid.data(), grid.data() + grid.total());
}

template <int D>
std::vector<c64> forward_values(Gridder<D>& g, const Grid<D>& grid,
                                const SampleSet<D>& traj) {
  SampleSet<D> out;
  out.coords = traj.coords;
  out.values.assign(traj.coords.size(), c64{});
  g.forward(grid, out);
  return out.values;
}

// Numeric contract of an engine relative to the serial reference.
enum class Contract { DoubleTight, Float32, FixedPoint };

struct EngineCase {
  GridderKind kind;
  bool model_faithful;  // only meaningful for SliceDice
  Contract contract;
};

const EngineCase kEngines[] = {
    {GridderKind::OutputDriven, false, Contract::DoubleTight},
    {GridderKind::Binning, false, Contract::DoubleTight},
    {GridderKind::SliceDice, false, Contract::DoubleTight},
    {GridderKind::SliceDice, true, Contract::DoubleTight},
    {GridderKind::Sparse, false, Contract::DoubleTight},
    {GridderKind::FloatSerial, false, Contract::Float32},
    {GridderKind::Jigsaw, false, Contract::FixedPoint},
};

std::string engine_label(const EngineCase& e) {
  std::string s = to_string(e.kind);
  if (e.model_faithful) s += "+model-faithful";
  return s;
}

template <int D>
void expect_matches(const EngineCase& e, const std::vector<c64>& got,
                    const std::vector<c64>& ref, const std::string& what,
                    double fixed_bound) {
  const std::string label = engine_label(e) + " " + what;
  switch (e.contract) {
    case Contract::DoubleTight:
      EXPECT_LT(max_abs_diff(got, ref), 1e-9 * norm2(ref)) << label;
      break;
    case Contract::Float32:
      EXPECT_LT(nrmsd(got, ref), 5e-6) << label;
      break;
    case Contract::FixedPoint:
      EXPECT_LT(nrmsd(got, ref), fixed_bound) << label;
      break;
  }
}

// Runs every engine against the serial reference on one sample set, in
// both transform directions. `fixed_bound` is the JigsawGridder's NRMSD
// budget: its Q-format error grows with per-cell accumulation depth, so
// center-weighted trajectories (variable-density spirals) get a wider
// bound than the default dense case.
template <int D>
void run_differential(const SampleSet<D>& in, std::int64_t n,
                      std::uint64_t grid_seed, double fixed_bound = 2e-3) {
  GridderOptions opt;
  opt.width = 6;
  opt.tile = 8;

  SerialGridder<D> serial(n, opt);
  const auto ref_adj = adjoint_values<D>(serial, in);
  ASSERT_GT(norm2(ref_adj), 0.0);

  Grid<D> image(serial.grid_size());
  Rng rng(grid_seed);
  for (std::int64_t i = 0; i < image.total(); ++i) {
    image[i] = c64(rng.uniform(-1, 1), rng.uniform(-1, 1));
  }
  const auto ref_fwd = forward_values<D>(serial, image, in);
  ASSERT_GT(norm2(ref_fwd), 0.0);

  for (const auto& e : kEngines) {
    GridderOptions eopt = opt;
    eopt.kind = e.kind;
    eopt.model_faithful_checks = e.model_faithful;
    auto g = make_gridder<D>(n, eopt);
    expect_matches<D>(e, adjoint_values<D>(*g, in), ref_adj, "adjoint",
                      fixed_bound);
    expect_matches<D>(e, forward_values<D>(*g, image, in), ref_fwd,
                      "forward", fixed_bound);
  }
}

class Differential2D : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Differential2D, RadialTrajectory) {
  const std::uint64_t seed = GetParam();
  const auto coords =
      trajectory::radial_2d(24, 64, /*golden_angle=*/(seed % 2) == 1);
  run_differential<2>(samples_on<2>(coords, seed), 16, seed + 1000);
}

TEST_P(Differential2D, SpiralTrajectory) {
  const std::uint64_t seed = GetParam();
  const auto coords =
      trajectory::spiral_2d(8, 128, /*turns=*/12.0 + static_cast<double>(seed % 3));
  run_differential<2>(samples_on<2>(coords, seed), 16, seed + 2000);
}

TEST_P(Differential2D, GoldenRadialTrajectory) {
  const std::uint64_t seed = GetParam();
  // Golden-angle spokes never repeat an angle, so the sample pattern is
  // maximally irregular across tiles — a different stress shape than the
  // uniform-angle radial case above.
  const auto coords =
      trajectory::radial_2d(24 + static_cast<int>(seed % 5), 64,
                            /*golden_angle=*/true);
  run_differential<2>(samples_on<2>(coords, seed), 16, seed + 6000);
}

TEST_P(Differential2D, VdSpiralTrajectory) {
  const std::uint64_t seed = GetParam();
  // Variable density concentrates samples at the k-space center, piling
  // work onto the central tiles — the adversarial case for engines that
  // bin or slice by grid region, and the deepest per-cell accumulation
  // the fixed-point datapath sees anywhere in the suite (hence the wider
  // 1e-2 Jigsaw bound; the double/float engines keep their usual ones).
  const auto coords = trajectory::vd_spiral_2d(
      8, 128, /*turns=*/12.0, /*alpha=*/1.5 + 0.5 * static_cast<double>(seed % 3));
  run_differential<2>(samples_on<2>(coords, seed), 16, seed + 7000,
                      /*fixed_bound=*/1e-2);
}

TEST_P(Differential2D, RosetteTrajectory) {
  const std::uint64_t seed = GetParam();
  // Rosette petals re-cross the k-space center once per lobe, so central
  // cells accumulate from many widely separated sample indices — a
  // different ordering stress than radial spokes (which visit the center
  // once per spoke, in order). Center depth rivals the VD spiral, so the
  // fixed-point engine gets the same widened bound.
  const auto coords =
      trajectory::rosette_2d(1400, /*w1=*/3.0 + static_cast<double>(seed % 3),
                             /*w2=*/5.0);
  run_differential<2>(samples_on<2>(coords, seed), 16, seed + 8000,
                      /*fixed_bound=*/1e-2);
}

TEST_P(Differential2D, PropellerTrajectory) {
  const std::uint64_t seed = GetParam();
  // PROPELLER blades are rotated Cartesian strips: long runs of exactly
  // collinear, near-on-grid samples that all march through the low-k
  // center strip. Exercises the on-grid/aligned code paths the purely
  // curved trajectories never hit.
  const auto coords = trajectory::propeller_2d(
      6 + static_cast<int>(seed % 3), 8, 32);
  run_differential<2>(samples_on<2>(coords, seed), 16, seed + 9000);
}

TEST_P(Differential2D, RandomTrajectory) {
  const std::uint64_t seed = GetParam();
  const auto coords = trajectory::random_2d(1500, seed);
  run_differential<2>(samples_on<2>(coords, seed), 16, seed + 3000);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Differential2D,
                         ::testing::Values(101u, 202u, 303u));

class Differential3D : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Differential3D, StackOfStarsTrajectory) {
  const std::uint64_t seed = GetParam();
  const auto coords = trajectory::stack_of_stars_3d(12, 32, 6);
  run_differential<3>(samples_on<3>(coords, seed), 8, seed + 4000);
}

TEST_P(Differential3D, RandomTrajectory) {
  const std::uint64_t seed = GetParam();
  const auto coords = trajectory::random_3d(1200, seed);
  run_differential<3>(samples_on<3>(coords, seed), 8, seed + 5000);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Differential3D,
                         ::testing::Values(101u, 202u));

// Cross-engine agreement on INGESTED data: the sample set comes from a
// generated JKSD dataset chunk (multi-coil phantom k-space, round-tripped
// through the binary format) instead of being synthesized in-process. The
// values carry real phantom spectral structure — decaying magnitude,
// coil-map phase — rather than i.i.d. noise, and the coords took the
// writer/reader path, so this also pins the ingest layer into the oracle.
TEST(DifferentialDataset, IngestedChunkDrivesAllEngines) {
  const std::string path = "test_differential_dataset.jksd";
  data::SyntheticOptions gen;
  gen.n = 32;
  gen.coils = 2;
  gen.chunks = 1;
  gen.samples_per_chunk = 1500;
  data::generate_synthetic(path, gen);

  data::DatasetReader reader(path);
  data::Chunk chunk;
  ASSERT_TRUE(reader.next(chunk));
  ASSERT_TRUE(reader.report().rejects.empty());
  for (int coil = 0; coil < gen.coils; ++coil) {
    SampleSet<2> in;
    in.coords = chunk.typed_coords<2>();
    in.values = chunk.coil_values(coil);
    run_differential<2>(in, 16, 12345u + static_cast<std::uint64_t>(coil));
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace jigsaw::core
