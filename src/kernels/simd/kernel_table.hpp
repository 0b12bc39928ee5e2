// SIMD gridding micro-kernels: the per-ISA primitive set behind the
// vectorized engine variants (serial-simd, binning-simd).
//
// The engines stay in charge of window arithmetic, tiling, and counters;
// the micro-kernels only do the flat inner work: gathering Kaiser-Bessel
// LUT weights for a 1-D window, complex axpy/dot over a contiguous window
// row, and the output-driven boundary-check/accumulate over a staged bin.
//
// Numeric contract: LUT *indices* are computed with exactly KernelLut's
// truncation-based rounding, so every weight is bit-identical to the scalar
// engines'; only accumulation order and FMA contraction may differ. Engines
// therefore agree with their scalar twins to rel-L2 well below the 1e-9
// differential-test bound, but not bit-for-bit (see docs/benchmarking.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace jigsaw::kernels::simd {

/// Lane-capacity contract for weight buffers: lut_weights() stores full
/// vectors, so the destination must have room for `w` rounded up to this
/// many lanes (the engines' stack buffers are sized for it). Lanes past
/// `w` hold well-defined but meaningless weights.
inline constexpr int kWeightLanes = 8;

inline constexpr int weight_capacity(int w) {
  return (w + kWeightLanes - 1) / kWeightLanes * kWeightLanes;
}

/// Read-only gather view of a KernelLut (see simd::lut_view()).
struct LutView {
  const double* table = nullptr;  // W*L/2 entries covering [0, W/2)
  double scale = 0.0;             // L: index = trunc(|dist| * L + 0.5)
  std::int32_t last = 0;          // entries - 1 (out-of-support clamp)
};

/// Structure-of-arrays staging buffer for one bin of samples (binning
/// engine). Per dimension the sample's fractional grid coordinate u and its
/// integer window start g0 — stored as double, which is exact for any
/// realistic grid size — plus the complex value split into planes so the
/// accumulate vectorizes across samples.
struct BinSoa {
  std::vector<double> u[3];
  std::vector<double> g0[3];
  std::vector<double> re, im;

  std::size_t size() const { return re.size(); }

  void clear() {
    for (auto& v : u) v.clear();
    for (auto& v : g0) v.clear();
    re.clear();
    im.clear();
  }
};

/// One ISA's micro-kernel set. Obtained via simd::table(); never constructed
/// outside the per-ISA translation units.
struct KernelTable {
  const char* name;

  /// wt[o] = LUT weight at signed distance (g0 + o) - u for o in [0, w).
  /// Stores weight_capacity(w) lanes — see the capacity contract above.
  void (*lut_weights)(const LutView& lut, double u, std::int64_t g0, int w,
                      double* wt);

  /// out[o] += wt[o] * f for o in [0, w). Exact-length stores: `out` is a
  /// window row of live grid memory.
  void (*axpy)(c64* out, const double* wt, int w, c64 f);

  /// Returns the window row's weighted sum: sum of wt[o] * in[o], o in
  /// [0, w). Exact-length loads.
  c64 (*dot)(const c64* in, const double* wt, int w);

  /// Fused adjoint window: scatter f times the separable W^dims weight
  /// stencil for the sample at grid coordinate u (dims components, dims 1
  /// or 2, slowest dimension first, window starts g0) into the G^dims grid
  /// `out`. Handles torus wrap-around internally (wrapped rows fall back to
  /// scalar indexed stores with the same gathered weights). One call per
  /// sample.
  void (*scatter)(const LutView& lut, int dims, const double* u,
                  const std::int64_t* g0, std::int64_t g, int w, c64 f,
                  c64* out);

  /// Fused forward window: returns the W^dims weighted sum of `in` around
  /// the sample at u. Same conventions as scatter.
  c64 (*gather)(const LutView& lut, int dims, const double* u,
                const std::int64_t* g0, std::int64_t g, int w, const c64* in);

  /// Output-driven accumulate of grid point p (dims components) against a
  /// staged bin: fold p - g0 onto the torus per dimension, reject samples
  /// whose offset falls outside the window, multiply the per-dimension LUT
  /// weights of the rest into the accumulator. Boundary and LUT-index
  /// arithmetic are bit-identical to BinningGridder's scalar loop. Adds the
  /// accepted-sample count to *interp and returns the accumulated value.
  c64 (*bin_point)(const BinSoa& soa, const LutView& lut, int dims,
                   const std::int64_t* p, std::int64_t g, int w,
                   std::uint64_t* interp);
};

}  // namespace jigsaw::kernels::simd
