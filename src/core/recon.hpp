// Model-based MRI reconstruction on top of the NuFFT (paper refs [5], [10]).
//
// Solves min_x ||A x - y||^2 with A the forward NuFFT, via conjugate
// gradients on the normal equations A^H A x = A^H y. The solve itself is
// cg_sense (core/sense.hpp), whose Gram operator applies a forward and an
// adjoint NuFFT per coil; iterative_recon below is its single-coil entry.
// The Gram operator A^H A is also Toeplitz (shift-invariant), so it can be
// applied with two FFTs on a 2x-padded grid and no per-iteration gridding —
// the strategy of the Impatient framework [10] ("Toeplitz-based"):
// ToeplitzOperator, handed to conjugate_gradient directly.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "common/deadline.hpp"
#include "core/nufft.hpp"
#include "fft/fft.hpp"

namespace jigsaw::core {

/// Toeplitz embedding of the Gram operator A^H W A for a fixed trajectory,
/// where W = diag(weights) (density compensation or all-ones).
template <int D>
class ToeplitzOperator {
 public:
  /// `n` is the image size; the eigenvalue grid has side 2n.
  ToeplitzOperator(std::int64_t n, const std::vector<Coord<D>>& coords,
                   const std::vector<double>& weights,
                   const GridderOptions& options);

  std::int64_t image_size() const { return n_; }

  /// y = (A^H W A) x for a centered N^D image. x fills the N-band of the
  /// (2N)^D grid and only that band of the result is read, so both FFTs
  /// run with band N (FftNd::execute): 3/4 of the lines in 2D.
  std::vector<c64> apply(const std::vector<c64>& x) const;

 private:
  std::int64_t n_;
  unsigned threads_;              // FFT threading (from options.threads)
  std::vector<c64> eigenvalues_;  // FFT of the embedded PSF on (2N)^D
  std::shared_ptr<const fft::FftNd> fft_;  // shared via FftPlanCache
};

/// Conjugate-gradient solve of the Hermitian PSD system op(x) = b.
struct CgResult {
  int iterations = 0;
  double final_residual = 0.0;  // ||op(x) - b|| / ||b||
  std::vector<double> residual_history;
};

/// The deadline is checked at the top of every CG iteration (and before the
/// initial operator application); a passed deadline raises DeadlineExceeded.
/// The "cg.inflight" gauge reads the number of solves currently running
/// (concurrent solves each count once); it returns to 0 once none is in
/// flight, on every exit path, timeout included.
CgResult conjugate_gradient(
    const std::function<std::vector<c64>(const std::vector<c64>&)>& op,
    const std::vector<c64>& b, std::vector<c64>& x, int max_iterations = 30,
    double tolerance = 1e-6, const Deadline& deadline = Deadline());

/// Single-coil least squares on k-space data `y` sampled at `plan`'s
/// coordinates: cg_sense (core/sense.hpp) under identity maps, so the
/// arithmetic is CG over plan.adjoint(plan.forward(x)). Only D = 2 is
/// instantiated.
template <int D>
std::vector<c64> iterative_recon(const NufftPlan<D>& plan,
                                 const std::vector<c64>& y,
                                 int max_iterations = 20,
                                 double tolerance = 1e-6,
                                 CgResult* result = nullptr,
                                 const Deadline& deadline = Deadline());

extern template class ToeplitzOperator<1>;
extern template class ToeplitzOperator<2>;
extern template class ToeplitzOperator<3>;
extern template std::vector<c64> iterative_recon<2>(const NufftPlan<2>&,
                                                    const std::vector<c64>&,
                                                    int, double, CgResult*,
                                                    const Deadline&);

}  // namespace jigsaw::core
