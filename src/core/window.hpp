// Shared interpolation-window geometry.
//
// Every gridder in this library uses the same window convention so that
// their outputs are numerically identical (the equivalence property tests
// rely on this). The convention matches the Slice-and-Dice hardware: a
// sample at grid coordinate u affects the W integer grid points in the
// half-open interval (u - W/2, u + W/2], i.e. signed distances
// dist = g - u in (-W/2, W/2].
#pragma once

#include <cmath>

#include "common/types.hpp"

namespace jigsaw::core {

/// Map a normalized torus coordinate tau in [-0.5, 0.5) to a grid coordinate
/// u in [0, G).
inline double grid_coord(double tau, std::int64_t g) {
  double u = (tau + 0.5) * static_cast<double>(g);
  // Guard against FP landing exactly on G.
  if (u >= static_cast<double>(g)) u -= static_cast<double>(g);
  if (u < 0.0) u += static_cast<double>(g);
  return u;
}

/// First grid point of the interpolation window of a sample at u:
/// g0 = floor(u + W/2) - W + 1; offsets o in [0, W) give g = g0 + o with
/// dist = g - u in (-W/2, W/2].
inline std::int64_t window_start(double u, int w) {
  return static_cast<std::int64_t>(std::floor(u + static_cast<double>(w) * 0.5)) -
         w + 1;
}

/// Slice-and-Dice two-part coordinate decomposition (paper Sec. III / Fig. 4)
/// of the *shifted* coordinate u' = u + W/2: tile coordinate = floor(u'/T),
/// relative coordinate = u' mod T.
struct Decomposed {
  std::int64_t tile;    // quotient
  double relative;      // remainder in [0, T)
};

inline Decomposed decompose(double u_shifted, int t) {
  const double td = static_cast<double>(t);
  const auto tile = static_cast<std::int64_t>(std::floor(u_shifted / td));
  double rel = u_shifted - static_cast<double>(tile) * td;
  if (rel >= td) rel -= td;  // FP guard
  return {tile, rel};
}

/// Dice-layout address of row-major point `lin` of a G^D grid cut into
/// tiles of side t (ntiles per dimension): the column (relative position
/// inside the tile) selects the accumulation array, the tile address the
/// entry in it.
template <int D>
std::int64_t dice_offset(std::int64_t lin, std::int64_t g, std::int64_t t,
                         std::int64_t ntiles) {
  const Index<D> p = unlinear_index<D>(lin, g);
  std::int64_t col = 0, tile_addr = 0;
  for (std::size_t d = 0; d < D; ++d) {
    col = col * t + p[d] % t;
    tile_addr = tile_addr * ntiles + p[d] / t;
  }
  return col * pow_dim<D>(ntiles) + tile_addr;
}

}  // namespace jigsaw::core
