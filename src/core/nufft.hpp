// Non-uniform Fast Fourier Transform (paper Sec. II-B).
//
// Plan-based API: a NufftPlan is constructed for a fixed base grid size N,
// a set of M non-uniform coordinates, and a gridding configuration; it then
// executes forward and adjoint transforms over that geometry.
//
//   adjoint:  image[k] = sum_j f_j e^{+2 pi i k . x_j}          (type 1)
//     steps:  (1) gridding  (2) size-(sigma N)^d FFT  (3) de-apodization
//   forward:  f_j = sum_k image[k] e^{-2 pi i k . x_j}          (type 2)
//     steps:  (1) pre-apodization  (2) FFT  (3) re-gridding
//
// Conventions: coordinates x_j in [-0.5, 0.5)^d; uniform frequencies k
// centered in [-N/2, N/2)^d, stored row-major with index i = k + N/2.
// The pair (forward, adjoint) is an exact conjugate-transpose pair (up to
// FP rounding), which the CG reconstruction in recon.hpp relies on.
//
// The image occupies the N-band of each (sigma N)-point grid axis (k sits
// at pos_mod(k, sigma N)), and both transforms pass N to FftNd::execute as
// its band: the forward FFT skips the lines that the embed leaves zero, and
// the adjoint FFT the lines whose outputs the crop never reads. With
// sigma = 2 that is 1/4 of the lines in 2D and 5/12 in 3D, at unchanged
// bits.
#pragma once

#include <memory>
#include <vector>

#include "common/deadline.hpp"
#include "core/gridder.hpp"
#include "fft/fft.hpp"

namespace jigsaw::core {

/// Per-phase wall-clock breakdown of one transform execution. Used for the
/// end-to-end speedup (Fig. 7) and time-breakdown (Sec. II's 99.6% claim)
/// experiments.
struct NufftTimings {
  double grid_seconds = 0.0;   // interpolation (gridding / re-gridding)
  double fft_seconds = 0.0;
  double apod_seconds = 0.0;   // (de-)apodization + center crop/embed
  double presort_seconds = 0.0;  // binning presort, when applicable

  double total() const {
    return grid_seconds + fft_seconds + apod_seconds + presort_seconds;
  }
};

template <int D>
class NufftPlan {
 public:
  /// Build a plan. `n` is the base (image) grid size per dimension; the
  /// oversampled working grid has side sigma*n. The coordinate set is fixed
  /// per plan (as in MIRT / NFFT plans); values vary per execution.
  NufftPlan(std::int64_t n, std::vector<Coord<D>> coords,
            const GridderOptions& options);

  std::int64_t base_size() const { return n_; }
  std::int64_t grid_size() const { return gridder_->grid_size(); }
  std::size_t num_samples() const { return coords_.size(); }
  std::int64_t image_total() const { return pow_dim<D>(n_); }
  const std::vector<Coord<D>>& coords() const { return coords_; }
  Gridder<D>& gridder() { return *gridder_; }
  const Gridder<D>& gridder() const { return *gridder_; }

  /// Adjoint NuFFT: M sample values -> N^D centered image. The deadline is
  /// checked at each phase boundary (grid / FFT / de-apodization); a passed
  /// deadline raises DeadlineExceeded there.
  ///
  /// adjoint() and forward() are const and safe to call concurrently on one
  /// plan: the oversampled work grid is leased per call from
  /// fft::ScratchPool, and the gridder and FFT plan are immutable. Coil and
  /// frame lanes are threads over one plan.
  std::vector<c64> adjoint(const std::vector<c64>& values,
                           NufftTimings* timings = nullptr,
                           const Deadline& deadline = Deadline()) const;

  /// Forward NuFFT: N^D centered image -> M sample values. Deadline
  /// semantics as in adjoint().
  std::vector<c64> forward(const std::vector<c64>& image,
                           NufftTimings* timings = nullptr,
                           const Deadline& deadline = Deadline()) const;

  /// The de-apodization (1/A(k/G)) profile along one dimension, index
  /// i = k + N/2 (diagnostic / tests).
  const std::vector<double>& apodization_1d() const { return apod_; }

 private:
  /// Visit every image pixel p: f(p, lin, sign / apodization) with lin
  /// the pixel's centered frequency on the oversampled work grid — the
  /// crop (adjoint) and the embed (forward).
  template <typename F>
  void for_each_pixel(F&& f) const;

  std::int64_t n_;
  std::vector<Coord<D>> coords_;
  std::unique_ptr<Gridder<D>> gridder_;
  std::shared_ptr<const fft::FftNd> fft_;  // shared via FftPlanCache
  std::vector<double> apod_;  // A((i - N/2) / G) per dimension
};

extern template class NufftPlan<1>;
extern template class NufftPlan<2>;
extern template class NufftPlan<3>;

}  // namespace jigsaw::core
