#include "core/nufft.hpp"

#include <cmath>

#include "common/timer.hpp"
#include "fft/plan_cache.hpp"
#include "obs/obs.hpp"

namespace jigsaw::core {

template <int D>
NufftPlan<D>::NufftPlan(std::int64_t n, std::vector<Coord<D>> coords,
                        const GridderOptions& options)
    : n_(n), coords_(std::move(coords)) {
  obs::Span span("nufft.plan");
  obs::add("nufft.plans", 1);
  // Validate once at plan time (the per-transform hot paths do not check):
  // every coordinate must be finite and inside the torus. Under a repairing
  // sanitize policy (Drop/Clamp) the gridder handles defects itself, so the
  // plan accepts degraded coordinates as-is.
  using robustness::SanitizePolicy;
  if (options.sanitize == SanitizePolicy::None ||
      options.sanitize == SanitizePolicy::Strict) {
    const std::size_t m = coords_.size();
    for (std::size_t j = 0; j < m; ++j) {
      for (int d = 0; d < D; ++d) {
        const double v = coords_[j][static_cast<std::size_t>(d)];
        JIGSAW_REQUIRE(robustness::coord_in_range(v),
                       "sample " << j << " of " << m << ": coordinate dim "
                                 << d << " out of [-0.5, 0.5): " << v);
      }
    }
  }
  gridder_ = make_gridder<D>(n, options);
  const std::int64_t g = gridder_->grid_size();
  // Shared, immutable plan: every NufftPlan with the same oversampled
  // geometry reuses one root and digit-reversal table set.
  fft_ = fft::FftPlanCache::global().get_cube(D, static_cast<std::size_t>(g));

  // De-apodization profile: the kernel's continuous Fourier transform
  // evaluated at k/G for centered k. The same profile applies to every
  // dimension (square grids, isotropic kernel).
  apod_.resize(static_cast<std::size_t>(n_));
  for (std::int64_t i = 0; i < n_; ++i) {
    const double nu = static_cast<double>(i - n_ / 2) / static_cast<double>(g);
    apod_[static_cast<std::size_t>(i)] = gridder_->kernel().fourier(nu);
    JIGSAW_CHECK(std::fabs(apod_[static_cast<std::size_t>(i)]) > 1e-12,
                 "apodization vanishes at k=" << (i - n_ / 2)
                     << " — kernel/sigma combination unusable");
  }
}

template <int D>
template <typename F>
void NufftPlan<D>::for_each_pixel(F&& f) const {
  const std::int64_t g = gridder_->grid_size();
  for (std::int64_t lin = 0; lin < image_total(); ++lin) {
    const Index<D> idx = unlinear_index<D>(lin, n_);
    Index<D> at{};
    std::int64_t ksum = 0;
    double apod = 1.0;
    for (std::size_t d = 0; d < D; ++d) {
      const std::int64_t k = idx[d] - n_ / 2;
      ksum += k;
      at[d] = pos_mod(k, g);
      apod *= apod_[static_cast<std::size_t>(idx[d])];
    }
    const double sign = (ksum & 1) ? -1.0 : 1.0;
    f(static_cast<std::size_t>(lin), linear_index<D>(at, g), sign / apod);
  }
}

namespace {

/// One transform phase: the deadline is checked at its start, and it runs
/// as the obs span of the same name. Returns its wall time.
template <typename F>
double run_phase(const Deadline& deadline, const char* name, F&& f) {
  deadline.check(name);
  obs::Span span(name);
  Timer t;
  f();
  return t.seconds();
}

}  // namespace

template <int D>
std::vector<c64> NufftPlan<D>::adjoint(const std::vector<c64>& values,
                                       NufftTimings* timings,
                                       const Deadline& deadline) const {
  JIGSAW_REQUIRE(values.size() == coords_.size(),
                 "value count does not match plan coordinates");
  obs::Span span("nufft.adjoint");
  obs::add("nufft.adjoints", 1);
  NufftTimings local;
  Grid<D> work = Grid<D>::leased(grid_size());  // the gridder writes it all
  std::vector<c64> image(static_cast<std::size_t>(image_total()));

  // (1) Gridding, (2) FFT with positive exponent (unnormalized inverse),
  // (3) center crop + checkerboard sign + de-apodization.
  const double grid_s = run_phase(deadline, "nufft.adjoint.grid", [&] {
    local.presort_seconds =
        gridder_->adjoint(SampleView<D>(coords_, values), work)
            .presort_seconds;
  });
  local.grid_seconds = grid_s - local.presort_seconds;
  local.fft_seconds = run_phase(deadline, "nufft.adjoint.fft", [&] {
    fft_->execute(work.data(), fft::Direction::Inverse,
                  gridder_->options().threads, static_cast<std::size_t>(n_));
  });
  local.apod_seconds = run_phase(deadline, "nufft.adjoint.apod", [&] {
    for_each_pixel([&](std::size_t p, std::int64_t lin, double factor) {
      image[p] = work[lin] * factor;
    });
  });

  if (timings != nullptr) *timings = local;
  return image;
}

template <int D>
std::vector<c64> NufftPlan<D>::forward(const std::vector<c64>& image,
                                       NufftTimings* timings,
                                       const Deadline& deadline) const {
  JIGSAW_REQUIRE(static_cast<std::int64_t>(image.size()) == image_total(),
                 "image size does not match plan");
  obs::Span span("nufft.forward");
  obs::add("nufft.forwards", 1);
  NufftTimings local;
  Grid<D> work = Grid<D>::leased(grid_size());
  std::vector<c64> values(coords_.size());

  // (1) Pre-apodization + checkerboard sign + zero-padded center embed,
  // (2) FFT with negative exponent, (3) re-gridding (forward interpolation
  // at the sample coordinates).
  local.apod_seconds = run_phase(deadline, "nufft.forward.apod", [&] {
    work.clear();
    for_each_pixel([&](std::size_t p, std::int64_t lin, double factor) {
      work[lin] = image[p] * factor;
    });
  });
  local.fft_seconds = run_phase(deadline, "nufft.forward.fft", [&] {
    fft_->execute(work.data(), fft::Direction::Forward,
                  gridder_->options().threads, static_cast<std::size_t>(n_));
  });
  local.grid_seconds = run_phase(deadline, "nufft.forward.grid", [&] {
    gridder_->forward(work, SampleSlots<D>(coords_, values));
  });

  if (timings != nullptr) *timings = local;
  return values;
}

template class NufftPlan<1>;
template class NufftPlan<2>;
template class NufftPlan<3>;

}  // namespace jigsaw::core
