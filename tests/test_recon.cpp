// Reconstruction stack tests: CG solver, Toeplitz Gram operator, density
// compensation, and the full phantom -> k-space -> image pipeline that
// substitutes for the paper's liver dataset.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "core/density.hpp"
#include "core/metrics.hpp"
#include "core/nufft.hpp"
#include "core/recon.hpp"
#include "core/sense.hpp"
#include "core/serial_gridder.hpp"
#include "trajectory/phantom.hpp"
#include "trajectory/trajectory.hpp"

namespace jigsaw::core {
namespace {

TEST(ConjugateGradient, SolvesDiagonalSystem) {
  // op = diag(1..8); b random; exact solution b ./ diag.
  std::vector<c64> b(8);
  Rng rng(1);
  for (auto& v : b) v = c64(rng.uniform(-1, 1), rng.uniform(-1, 1));
  auto op = [](const std::vector<c64>& x) {
    std::vector<c64> y(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
      y[i] = x[i] * static_cast<double>(i + 1);
    }
    return y;
  };
  std::vector<c64> x;
  const CgResult r = conjugate_gradient(op, b, x, 50, 1e-12);
  EXPECT_LE(r.final_residual, 1e-10);
  for (std::size_t i = 0; i < b.size(); ++i) {
    EXPECT_NEAR(std::abs(x[i] - b[i] / static_cast<double>(i + 1)), 0.0,
                1e-9);
  }
}

TEST(ConjugateGradient, ConvergesInNStepsForSmallSpd) {
  // CG converges in at most n iterations in exact arithmetic.
  const int n = 5;
  Rng rng(2);
  // A = B^H B + I (Hermitian positive definite).
  std::vector<std::vector<c64>> bmat(n, std::vector<c64>(n));
  for (auto& row : bmat) {
    for (auto& v : row) v = c64(rng.uniform(-1, 1), rng.uniform(-1, 1));
  }
  auto op = [&](const std::vector<c64>& x) {
    std::vector<c64> bx(n, c64{});
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) bx[i] += bmat[i][j] * x[j];
    }
    std::vector<c64> y(n, c64{});
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) y[i] += std::conj(bmat[j][i]) * bx[j];
      y[i] += x[i];
    }
    return y;
  };
  std::vector<c64> b(n);
  for (auto& v : b) v = c64(rng.uniform(-1, 1), rng.uniform(-1, 1));
  std::vector<c64> x;
  const CgResult r = conjugate_gradient(op, b, x, 2 * n, 1e-12);
  EXPECT_LE(r.final_residual, 1e-8);
}

TEST(ConjugateGradient, ResidualHistoryDecreasesOverall) {
  std::vector<c64> b(16, c64(1.0, 0.0));
  auto op = [](const std::vector<c64>& x) {
    std::vector<c64> y(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
      y[i] = x[i] * (1.0 + static_cast<double>(i % 4));
    }
    return y;
  };
  std::vector<c64> x;
  const CgResult r = conjugate_gradient(op, b, x, 30, 1e-12);
  ASSERT_GE(r.residual_history.size(), 2u);
  EXPECT_LT(r.residual_history.back(), r.residual_history.front());
}

TEST(ConjugateGradient, ZeroRhsReturnsZero) {
  std::vector<c64> b(4, c64{});
  auto op = [](const std::vector<c64>& x) { return x; };
  std::vector<c64> x;
  conjugate_gradient(op, b, x);
  for (const auto& v : x) EXPECT_EQ(v, c64{});
}

TEST(Toeplitz, MatchesDirectGramOperator) {
  GridderOptions opt;
  opt.width = 6;
  opt.tile = 8;
  opt.exact_weights = true;
  const std::int64_t n = 16;
  const auto traj = trajectory::radial_2d(12, 24);
  NufftPlan<2> plan(n, traj, opt);
  const std::vector<double> ones(traj.size(), 1.0);
  ToeplitzOperator<2> top(n, traj, ones, opt);

  Rng rng(4);
  std::vector<c64> x(static_cast<std::size_t>(n * n));
  for (auto& v : x) v = c64(rng.uniform(-1, 1), rng.uniform(-1, 1));

  const auto via_toeplitz = top.apply(x);
  const auto direct = plan.adjoint(plan.forward(x));
  EXPECT_LT(nrmsd(via_toeplitz, direct), 1e-3);
}

TEST(Toeplitz, LinearAndHermitian) {
  GridderOptions opt;
  opt.width = 6;
  opt.tile = 8;
  const std::int64_t n = 16;
  const auto traj = trajectory::radial_2d(8, 16);
  const std::vector<double> ones(traj.size(), 1.0);
  ToeplitzOperator<2> top(n, traj, ones, opt);

  Rng rng(5);
  std::vector<c64> x(static_cast<std::size_t>(n * n)),
      y(static_cast<std::size_t>(n * n));
  for (auto& v : x) v = c64(rng.uniform(-1, 1), rng.uniform(-1, 1));
  for (auto& v : y) v = c64(rng.uniform(-1, 1), rng.uniform(-1, 1));

  // Hermitian: <Tx, y> == <x, Ty>.
  const auto tx = top.apply(x);
  const auto ty = top.apply(y);
  c64 lhs{}, rhs{};
  for (std::size_t i = 0; i < x.size(); ++i) {
    lhs += std::conj(tx[i]) * y[i];
    rhs += std::conj(x[i]) * ty[i];
  }
  EXPECT_NEAR(std::abs(lhs - rhs), 0.0, 1e-6 * std::abs(lhs));

  // Positive semidefinite: <Tx, x> >= 0.
  c64 quad{};
  for (std::size_t i = 0; i < x.size(); ++i) quad += std::conj(tx[i]) * x[i];
  EXPECT_GE(quad.real(), -1e-6);
}

TEST(PipeMenon, RecoverRadialRampShape) {
  GridderOptions opt;
  opt.width = 6;
  opt.tile = 8;
  SerialGridder<2> g(16, opt);
  const auto traj = trajectory::radial_2d(16, 32);
  const auto w = pipe_menon_weights<2>(g, traj);
  ASSERT_EQ(w.size(), traj.size());

  // Mean 1 and positively correlated with |k| (ramp-like).
  double mean = 0;
  for (double v : w) mean += v;
  mean /= static_cast<double>(w.size());
  EXPECT_NEAR(mean, 1.0, 1e-9);

  double cov = 0, var_r = 0, var_w = 0, mean_r = 0;
  std::vector<double> r(traj.size());
  for (std::size_t i = 0; i < traj.size(); ++i) {
    r[i] = std::hypot(traj[i][0], traj[i][1]);
    mean_r += r[i];
  }
  mean_r /= static_cast<double>(traj.size());
  for (std::size_t i = 0; i < traj.size(); ++i) {
    cov += (r[i] - mean_r) * (w[i] - 1.0);
    var_r += (r[i] - mean_r) * (r[i] - mean_r);
    var_w += (w[i] - 1.0) * (w[i] - 1.0);
  }
  const double corr = cov / std::sqrt(var_r * var_w + 1e-30);
  EXPECT_GT(corr, 0.8);
}

TEST(PhantomRecon, DensityCompensationImprovesAdjointRecon) {
  const std::int64_t n = 32;
  GridderOptions opt;
  opt.width = 6;
  opt.tile = 8;
  const auto traj = trajectory::radial_2d(96, 64);
  const auto ellipses = trajectory::shepp_logan();
  const auto kdata = trajectory::kspace_samples(
      ellipses, traj, static_cast<int>(n));
  const auto truth = trajectory::rasterize(ellipses, static_cast<int>(n));

  NufftPlan<2> plan(n, traj, opt);
  auto score = [&](const std::vector<c64>& img) {
    // Scale-invariant comparison: fit the least-squares intensity scale
    // before computing the NRMSD against the rasterized ground truth.
    std::vector<double> mag(img.size());
    double dot = 0, sq = 0;
    for (std::size_t i = 0; i < img.size(); ++i) {
      mag[i] = std::abs(img[i]);
      dot += mag[i] * truth[i];
      sq += mag[i] * mag[i];
    }
    const double alpha = sq > 0 ? dot / sq : 0.0;
    for (auto& v : mag) v *= alpha;
    return nrmsd(mag, truth);
  };

  const auto plain = plan.adjoint(kdata);
  auto weighted = kdata;
  const auto w = trajectory::radial_density_weights(traj);
  for (std::size_t i = 0; i < weighted.size(); ++i) weighted[i] *= w[i];
  const auto compensated = plan.adjoint(weighted);

  const double err_plain = score(plain);
  const double err_comp = score(compensated);
  EXPECT_LT(err_comp, err_plain);
  // The sharp-edged rasterized truth bounds what any band-limited recon can
  // score at N=32: an ideal fully-sampled Cartesian reconstruction measures
  // NRMSD ~0.49 against it (Gibbs). 0.55 asserts we are near that bound.
  EXPECT_LT(err_comp, 0.55);
}

TEST(PhantomRecon, IterativeReconBeatsAdjoint) {
  const std::int64_t n = 32;
  GridderOptions opt;
  opt.width = 6;
  opt.tile = 8;
  const auto traj = trajectory::radial_2d(48, 64);
  const auto ellipses = trajectory::shepp_logan();
  const auto kdata = trajectory::kspace_samples(
      ellipses, traj, static_cast<int>(n));
  const auto truth = trajectory::rasterize(ellipses, static_cast<int>(n));
  NufftPlan<2> plan(n, traj, opt);

  auto score = [&](const std::vector<c64>& img) {
    double mi = 0, mt = 0;
    std::vector<double> a(img.size()), b(truth.size());
    for (const auto& v : img) mi = std::max(mi, std::abs(v));
    for (double v : truth) mt = std::max(mt, v);
    for (std::size_t i = 0; i < img.size(); ++i) {
      a[i] = std::abs(img[i]) / mi;
      b[i] = truth[i] / mt;
    }
    return nrmsd(a, b);
  };

  auto weighted = kdata;
  const auto w = trajectory::radial_density_weights(traj);
  for (std::size_t i = 0; i < weighted.size(); ++i) weighted[i] *= w[i];
  const double err_adjoint = score(plan.adjoint(weighted));

  CgResult cg;
  const auto recon = iterative_recon<2>(plan, kdata, 15, 1e-8, &cg);
  const double err_iter = score(recon);
  EXPECT_GT(cg.iterations, 0);
  EXPECT_LT(err_iter, err_adjoint);
}

TEST(PhantomRecon, ToeplitzIterationMatchesDirectIteration) {
  const std::int64_t n = 16;
  GridderOptions opt;
  opt.width = 6;
  opt.tile = 8;
  const auto traj = trajectory::radial_2d(24, 32);
  const auto ellipses = trajectory::shepp_logan();
  const auto kdata = trajectory::kspace_samples(
      ellipses, traj, static_cast<int>(n));
  NufftPlan<2> plan(n, traj, opt);

  const auto direct = iterative_recon<2>(plan, kdata, 8, 1e-10);
  const ToeplitzOperator<2> gram(
      n, traj, std::vector<double>(traj.size(), 1.0), opt);
  std::vector<c64> toeplitz;
  conjugate_gradient(
      [&gram](const std::vector<c64>& x) { return gram.apply(x); },
      plan.adjoint(kdata), toeplitz, 8, 1e-10);
  EXPECT_LT(nrmsd(toeplitz, direct), 5e-2);
}

// The one CG solver: single-coil cg_sense under identity maps performs
// exactly CG over plan.adjoint(plan.forward(x)), bit for bit, on a
// scalar-path engine and on the precomputed sparse matrix alike.
TEST(PhantomRecon, SingleCoilCgSenseIsPlainCgBitForBit) {
  const std::int64_t n = 16;
  const auto traj = trajectory::radial_2d(24, 32);
  const auto kdata = trajectory::kspace_samples(trajectory::shepp_logan(),
                                                traj, static_cast<int>(n));
  for (const GridderKind kind : {GridderKind::Serial, GridderKind::Sparse}) {
    SCOPED_TRACE(to_string(kind));
    GridderOptions opt;
    opt.kind = kind;
    opt.width = 6;
    opt.tile = 8;
    const NufftPlan<2> plan(n, traj, opt);
    std::vector<c64> expected;
    const CgResult plain = conjugate_gradient(
        [&plan](const std::vector<c64>& x) {
          return plan.adjoint(plan.forward(x));
        },
        plan.adjoint(kdata), expected, 8, 1e-10);

    CgResult merged;
    const auto got = cg_sense(plan, CoilMaps::identity(n), kdata, 8, 1e-10,
                              &merged);
    EXPECT_EQ(got, expected);
    EXPECT_EQ(merged.iterations, plain.iterations);
    EXPECT_EQ(iterative_recon<2>(plan, kdata, 8, 1e-10), expected);
  }
}

}  // namespace
}  // namespace jigsaw::core
