#include "core/density.hpp"

#include <cmath>

#include "obs/obs.hpp"

namespace jigsaw::core {

template <int D>
std::vector<double> pipe_menon_weights(const Gridder<D>& gridder,
                                       const std::vector<Coord<D>>& coords,
                                       const PipeMenonOptions& options,
                                       PipeMenonReport* report) {
  JIGSAW_REQUIRE(!coords.empty(), "no coordinates");
  JIGSAW_REQUIRE(options.iterations >= 1, "need >= 1 iteration");
  const std::size_t m = coords.size();
  std::vector<double> w(m, 1.0);

  Grid<D> grid(gridder.grid_size());
  std::vector<c64> values(m);

  PipeMenonReport local;
  for (int it = 0; it < options.iterations; ++it) {
    for (std::size_t j = 0; j < m; ++j) values[j] = c64(w[j], 0.0);
    gridder.adjoint(SampleView<D>(coords, values), grid);
    gridder.forward(grid, SampleSlots<D>(coords, values));
    double max_update = 0.0;
    for (std::size_t j = 0; j < m; ++j) {
      const double p = std::abs(values[j]);
      const double next = w[j] / std::max(p, options.epsilon);
      if (w[j] > 0.0) {
        max_update = std::max(max_update, std::abs(next - w[j]) / w[j]);
      }
      w[j] = next;
    }
    local.iterations = it + 1;
    local.max_update = max_update;
    if (options.tolerance > 0.0 && max_update < options.tolerance) {
      local.converged = true;
      break;
    }
  }
  obs::add("dcf.runs", 1);
  obs::add("dcf.iterations", static_cast<std::uint64_t>(local.iterations));
  if (report != nullptr) *report = local;

  // Normalize to mean 1.
  double sum = 0.0;
  for (double v : w) sum += v;
  const double scale = static_cast<double>(m) / sum;
  for (auto& v : w) v *= scale;
  return w;
}

template std::vector<double> pipe_menon_weights<1>(const Gridder<1>&,
                                                   const std::vector<Coord<1>>&,
                                                   const PipeMenonOptions&,
                                                   PipeMenonReport*);
template std::vector<double> pipe_menon_weights<2>(const Gridder<2>&,
                                                   const std::vector<Coord<2>>&,
                                                   const PipeMenonOptions&,
                                                   PipeMenonReport*);
template std::vector<double> pipe_menon_weights<3>(const Gridder<3>&,
                                                   const std::vector<Coord<3>>&,
                                                   const PipeMenonOptions&,
                                                   PipeMenonReport*);

}  // namespace jigsaw::core
