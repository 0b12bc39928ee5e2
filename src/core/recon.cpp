#include "core/recon.hpp"

#include <algorithm>
#include <cmath>
#include <mutex>

#include "fft/plan_cache.hpp"
#include "obs/obs.hpp"

namespace jigsaw::core {

template <int D>
ToeplitzOperator<D>::ToeplitzOperator(std::int64_t n,
                                      const std::vector<Coord<D>>& coords,
                                      const std::vector<double>& weights,
                                      const GridderOptions& options)
    : n_(n), threads_(options.threads) {
  JIGSAW_REQUIRE(weights.size() == coords.size(),
                 "weights/coords size mismatch");
  // PSF lambda(m) = sum_j w_j e^{+2 pi i m . x_j} for m in [-N, N)^D —
  // exactly an adjoint NuFFT of the weights on a 2N base grid.
  NufftPlan<D> psf_plan(2 * n, coords, options);
  std::vector<c64> wv(weights.size());
  for (std::size_t j = 0; j < weights.size(); ++j) {
    wv[j] = c64(weights[j], 0.0);
  }
  std::vector<c64> psf = psf_plan.adjoint(wv);

  // Embed the centered PSF into a (2N)^D circulant kernel and take its FFT.
  const std::int64_t n2 = 2 * n_;
  const std::int64_t total = pow_dim<D>(n2);
  eigenvalues_.assign(static_cast<std::size_t>(total), c64{});
  for (std::int64_t lin = 0; lin < total; ++lin) {
    const Index<D> idx = unlinear_index<D>(lin, n2);
    Index<D> dst{};
    for (int d = 0; d < D; ++d) {
      const std::int64_t m = idx[static_cast<std::size_t>(d)] - n_;
      dst[static_cast<std::size_t>(d)] = pos_mod(m, n2);
    }
    eigenvalues_[static_cast<std::size_t>(linear_index<D>(dst, n2))] =
        psf[static_cast<std::size_t>(lin)];
  }
  fft_ = fft::FftPlanCache::global().get_cube(
      D, static_cast<std::size_t>(n2));
  fft_->execute(eigenvalues_.data(), fft::Direction::Forward, threads_);
}

template <int D>
std::vector<c64> ToeplitzOperator<D>::apply(const std::vector<c64>& x) const {
  JIGSAW_REQUIRE(static_cast<std::int64_t>(x.size()) == pow_dim<D>(n_),
                 "image size mismatch in ToeplitzOperator::apply");
  const std::int64_t n2 = 2 * n_;
  const std::int64_t total2 = pow_dim<D>(n2);
  const std::int64_t total = pow_dim<D>(n_);

  fft::ScratchLease lease(static_cast<std::size_t>(total2));
  auto& buf = lease.buffer();
  std::fill(buf.begin(), buf.end(), c64{});
  for (std::int64_t lin = 0; lin < total; ++lin) {
    const Index<D> idx = unlinear_index<D>(lin, n_);
    Index<D> dst{};
    for (int d = 0; d < D; ++d) {
      dst[static_cast<std::size_t>(d)] =
          pos_mod(idx[static_cast<std::size_t>(d)] - n_ / 2, n2);
    }
    buf[static_cast<std::size_t>(linear_index<D>(dst, n2))] =
        x[static_cast<std::size_t>(lin)];
  }
  // x sits in the n_-band of the 2N grid, and only that band of the
  // product is read back.
  const auto band = static_cast<std::size_t>(n_);
  fft_->execute(buf.data(), fft::Direction::Forward, threads_, band);
  const double inv = 1.0 / static_cast<double>(total2);
  for (std::int64_t i = 0; i < total2; ++i) {
    buf[static_cast<std::size_t>(i)] *=
        eigenvalues_[static_cast<std::size_t>(i)] * inv;
  }
  fft_->execute(buf.data(), fft::Direction::Inverse, threads_, band);

  std::vector<c64> y(static_cast<std::size_t>(total));
  for (std::int64_t lin = 0; lin < total; ++lin) {
    const Index<D> idx = unlinear_index<D>(lin, n_);
    Index<D> src{};
    for (int d = 0; d < D; ++d) {
      src[static_cast<std::size_t>(d)] =
          pos_mod(idx[static_cast<std::size_t>(d)] - n_ / 2, n2);
    }
    y[static_cast<std::size_t>(lin)] =
        buf[static_cast<std::size_t>(linear_index<D>(src, n2))];
  }
  return y;
}

namespace {

/// Publishes the number of CG solves currently running as "cg.inflight".
/// The count and the gauge write share one mutex so concurrent solves
/// (coil-parallel CLI, embedders) never publish stale values; the gauge
/// reads 0 exactly when no solve is in flight — on every exit path,
/// including a DeadlineExceeded unwind, which the deadline test asserts
/// leaves no gauge stuck non-zero.
struct InflightGauge {
  InflightGauge() { update(+1); }
  ~InflightGauge() { update(-1); }

 private:
  static void update(int delta) {
    static std::mutex mu;
    static int count = 0;
    std::lock_guard<std::mutex> lk(mu);
    count += delta;
    obs::set_gauge("cg.inflight", static_cast<double>(count));
  }
};

}  // namespace

CgResult conjugate_gradient(
    const std::function<std::vector<c64>(const std::vector<c64>&)>& op,
    const std::vector<c64>& b, std::vector<c64>& x, int max_iterations,
    double tolerance, const Deadline& deadline) {
  JIGSAW_REQUIRE(!b.empty(), "empty right-hand side");
  deadline.check("cg.init");
  const InflightGauge inflight;
  if (x.size() != b.size()) x.assign(b.size(), c64{});

  auto dot = [](const std::vector<c64>& a, const std::vector<c64>& c) {
    c64 s{};
    for (std::size_t i = 0; i < a.size(); ++i) s += std::conj(a[i]) * c[i];
    return s;
  };
  auto nrm = [&](const std::vector<c64>& a) {
    return std::sqrt(std::abs(dot(a, a)));
  };

  CgResult result;
  const double bnorm = nrm(b);
  if (bnorm == 0.0) {
    x.assign(b.size(), c64{});
    return result;
  }

  std::vector<c64> r = b;
  {
    const std::vector<c64> ax = op(x);
    for (std::size_t i = 0; i < r.size(); ++i) r[i] -= ax[i];
  }
  std::vector<c64> p = r;
  double rs = std::abs(dot(r, r));

  obs::add("cg.solves", 1);
  for (int it = 0; it < max_iterations; ++it) {
    deadline.check("cg.iteration");
    obs::Span iter_span("cg.iteration");
    const double rel = std::sqrt(rs) / bnorm;
    result.residual_history.push_back(rel);
    // Per-iteration residual gauge: dashboards/tests read the latest value;
    // the full history stays in CgResult.
    obs::set_gauge("cg.residual", rel);
    obs::set_gauge("cg.iteration", static_cast<double>(it));
    if (rel < tolerance) break;
    const std::vector<c64> ap = op(p);
    const c64 pap = dot(p, ap);
    if (std::abs(pap) == 0.0) break;
    const c64 alpha = rs / pap;
    for (std::size_t i = 0; i < x.size(); ++i) {
      x[i] += alpha * p[i];
      r[i] -= alpha * ap[i];
    }
    const double rs_new = std::abs(dot(r, r));
    const double beta = rs_new / rs;
    for (std::size_t i = 0; i < p.size(); ++i) p[i] = r[i] + beta * p[i];
    rs = rs_new;
    ++result.iterations;
    obs::add("cg.iterations", 1);
  }
  result.final_residual = std::sqrt(rs) / bnorm;
  obs::set_gauge("cg.final_residual", result.final_residual);
  return result;
}

template class ToeplitzOperator<1>;
template class ToeplitzOperator<2>;
template class ToeplitzOperator<3>;

}  // namespace jigsaw::core
