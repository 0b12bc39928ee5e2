// Sampling density compensation.
//
// Non-uniform trajectories oversample some k-space regions (e.g. the center
// of radial scans); density-compensation weights equalize this before the
// adjoint NuFFT so that the gridded reconstruction approximates the inverse
// rather than the plain adjoint. Two methods:
//   * analytic ramp for radial trajectories (trajectory module), and
//   * the iterative Pipe-Menon scheme implemented here, which works for any
//     trajectory and only needs the gridding operator pair:
//       w <- w ./ |interp(grid(w))|
#pragma once

#include <vector>

#include "core/gridder.hpp"

namespace jigsaw::core {

struct PipeMenonOptions {
  int iterations = 12;     // iteration cap
  double epsilon = 1e-12;  // guard against division by zero
  double tolerance = 0.0;  // > 0: stop early once the largest relative
                           // per-sample weight update falls below this
};

/// Convergence record of one pipe_menon_weights() run.
struct PipeMenonReport {
  int iterations = 0;       // iterations actually executed
  double max_update = 0.0;  // largest relative weight change, last iteration
  bool converged = false;   // stopped by tolerance rather than the cap
};

/// Iterative density-compensation weights for `coords`, using `gridder`'s
/// kernel/grid configuration. Weights are normalized so their mean is 1.
/// Publishes `dcf.runs` and `dcf.iterations` obs counters per call.
template <int D>
std::vector<double> pipe_menon_weights(
    const Gridder<D>& gridder, const std::vector<Coord<D>>& coords,
    const PipeMenonOptions& options = PipeMenonOptions{},
    PipeMenonReport* report = nullptr);

extern template std::vector<double> pipe_menon_weights<1>(
    const Gridder<1>&, const std::vector<Coord<1>>&, const PipeMenonOptions&,
    PipeMenonReport*);
extern template std::vector<double> pipe_menon_weights<2>(
    const Gridder<2>&, const std::vector<Coord<2>>&, const PipeMenonOptions&,
    PipeMenonReport*);
extern template std::vector<double> pipe_menon_weights<3>(
    const Gridder<3>&, const std::vector<Coord<3>>&, const PipeMenonOptions&,
    PipeMenonReport*);

}  // namespace jigsaw::core
