// The JIGSAW fixed-point datapath (paper Sec. IV), shared bit-for-bit by the
// functional JigsawGridder and the cycle-level jigsaw::CycleSim so the two
// are exactly equivalent by construction (and tested to be).
//
// Stage mapping:
//   select       — select_dim(): coordinate truncation into tile/relative
//                  parts, forward-distance boundary check, wrap handling,
//                  global tile address and LUT address generation
//   weight lookup— LUT read + Knuth complex multiply of per-dim weights
//   interpolate  — Knuth complex multiply of weight and sample value
//   accumulate   — saturating add into the column's SRAM entry
//
// Numeric formats (Table I): 32-bit pipelines, 16-bit weights. Coordinates
// arrive as unsigned fixed point with kCoordFracBits fraction bits.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"
#include "fixed/fixed.hpp"

namespace jigsaw::core::datapath {

/// Fraction bits of the streamed sample coordinates.
inline constexpr int kCoordFracBits = 16;

/// Quantize a grid-unit coordinate u in [0, G) to the bus fixed-point format.
inline std::int64_t quantize_coord(double u) {
  return std::llround(u * static_cast<double>(std::int64_t{1}
                                              << kCoordFracBits));
}

/// Per-dimension select-unit result for one window offset.
struct DimSelect {
  std::int64_t column;     // relative position c in [0, T)
  std::int64_t tile;       // wrapped tile coordinate q in [0, ntiles)
  std::int32_t lut_index;  // weight SRAM address
};

/// Geometry constants the select unit is configured with.
struct SelectConfig {
  int width;               // W
  std::int64_t tile;       // T (power of two)
  std::int64_t ntiles;     // G / T
  int log2_table;          // log2(L)
  std::int32_t lut_last;   // last valid LUT address (W*L/2 - 1)
};

/// Select-unit computation for window offset k in [0, W) given the
/// quantized *shifted* coordinate us_q = quantize(u) + (W/2 << frac).
/// All arithmetic is integer, mirroring the hardware's truncate/add/compare
/// structure (Sec. IV "Select").
inline DimSelect select_dim(std::int64_t us_q, int k,
                            const SelectConfig& cfg) {
  const std::int64_t tq = cfg.tile << kCoordFracBits;
  std::int64_t tile = us_q / tq;            // truncate upper bits
  const std::int64_t rel_q = us_q % tq;     // relative coordinate (Q.frac)
  const std::int64_t fl = rel_q >> kCoordFracBits;
  std::int64_t c = fl - k;
  if (c < 0) {  // wrap: relative coordinate below column index
    c += cfg.tile;
    tile -= 1;
  }
  if (tile < 0) tile += cfg.ntiles;          // torus edge wrap
  if (tile >= cfg.ntiles) tile -= cfg.ntiles;
  // Forward distance fd = (rel - c) mod T, in Q.frac.
  std::int64_t fd_q = rel_q - (c << kCoordFracBits);
  if (fd_q < 0) fd_q += tq;
  // Signed distance to the window center: dist = fd - W/2.
  std::int64_t dist_q =
      fd_q - (static_cast<std::int64_t>(cfg.width) << (kCoordFracBits - 1));
  if (dist_q < 0) dist_q = -dist_q;
  // Table address: multiply by L (power of two -> truncate lower bits,
  // with a half-LSB bias for round-to-nearest).
  const int shift = kCoordFracBits - cfg.log2_table;
  std::int64_t idx;
  if (shift > 0) {
    idx = (dist_q + (std::int64_t{1} << (shift - 1))) >> shift;
  } else {
    idx = dist_q << (-shift);
  }
  if (idx > cfg.lut_last) idx = cfg.lut_last;
  return {c, tile, static_cast<std::int32_t>(idx)};
}

/// Per-column (per-pipeline) select result: what one hardware pipeline
/// computes for one incoming sample in one dimension.
struct ColumnSelect {
  bool affected;           // forward distance < W
  std::int64_t tile;       // wrapped tile coordinate q in [0, ntiles)
  std::int32_t lut_index;  // weight SRAM address
};

/// Select-unit computation as performed by the pipeline at column index c
/// (Sec. IV "Select"): truncate to get the relative coordinate, form the
/// forward distance fd = (rel - c) mod T, compare against W, detect tile
/// wrap (rel < c), and generate table address. Bit-identical to
/// select_dim() on the columns that pass the check (tested).
inline ColumnSelect select_column(std::int64_t us_q, std::int64_t c,
                                  const SelectConfig& cfg) {
  const std::int64_t tq = cfg.tile << kCoordFracBits;
  std::int64_t tile = us_q / tq;
  const std::int64_t rel_q = us_q % tq;
  std::int64_t fd_q = rel_q - (c << kCoordFracBits);
  if (fd_q < 0) {  // wrap: relative coordinate below column index
    fd_q += tq;
    tile -= 1;
  }
  const bool affected =
      fd_q < (static_cast<std::int64_t>(cfg.width) << kCoordFracBits);
  if (tile < 0) tile += cfg.ntiles;
  if (tile >= cfg.ntiles) tile -= cfg.ntiles;
  std::int64_t dist_q =
      fd_q - (static_cast<std::int64_t>(cfg.width) << (kCoordFracBits - 1));
  if (dist_q < 0) dist_q = -dist_q;
  const int shift = kCoordFracBits - cfg.log2_table;
  std::int64_t idx;
  if (shift > 0) {
    idx = (dist_q + (std::int64_t{1} << (shift - 1))) >> shift;
  } else {
    idx = dist_q << (-shift);
  }
  if (idx > cfg.lut_last) idx = cfg.lut_last;
  return {affected, tile, static_cast<std::int32_t>(idx)};
}

using Weight32 = fixed::Fixed<32, 30>;
using CWeight32 = fixed::Complex<Weight32>;

/// Widen a 16-bit Q1.15 complex weight to the 32-bit Q2.30 pipeline format
/// (exact, shift by 15).
inline CWeight32 widen_weight(fixed::CWeight16 w) {
  return {Weight32::from_raw(static_cast<std::int32_t>(w.re.raw()) << 15),
          Weight32::from_raw(static_cast<std::int32_t>(w.im.raw()) << 15)};
}

/// Weight-lookup unit: combine two per-dimension weights (Knuth product).
inline CWeight32 combine_weights(fixed::CWeight16 a, fixed::CWeight16 b) {
  return fixed::knuth_cmul<Weight32>(a, b);
}

/// Third-dimension combine for the 3D Slice variant.
inline CWeight32 combine_weights(CWeight32 ab, fixed::CWeight16 c) {
  return fixed::knuth_cmul<Weight32>(ab, c);
}

/// Interpolation unit: weighted sample contribution (Knuth product).
inline fixed::CData32 interpolate(CWeight32 w, fixed::CData32 value) {
  return fixed::knuth_cmul<fixed::Data32>(w, value);
}

/// Accumulation unit: saturating add into the column SRAM entry.
/// Returns true when either component clipped.
inline bool accumulate(fixed::CData32& acc, fixed::CData32 v) {
  using F = fixed::Data32;
  const std::int64_t re = static_cast<std::int64_t>(acc.re.raw()) +
                          static_cast<std::int64_t>(v.re.raw());
  const std::int64_t im = static_cast<std::int64_t>(acc.im.raw()) +
                          static_cast<std::int64_t>(v.im.raw());
  bool sat = false;
  auto clamp = [&sat](std::int64_t x) {
    if (x > static_cast<std::int64_t>(F::max_raw)) {
      sat = true;
      return F::max_raw;
    }
    if (x < static_cast<std::int64_t>(F::min_raw)) {
      sat = true;
      return F::min_raw;
    }
    return static_cast<typename F::storage>(x);
  };
  acc.re = F::from_raw(clamp(re));
  acc.im = F::from_raw(clamp(im));
  return sat;
}

/// Host-side input normalization: the scale exponent s such that the
/// largest |component| of the stream maps near 1.0 (values are streamed as
/// value * 2^s and the grid is descaled on readout).
inline int auto_scale_log2(std::span<const c64> values) {
  double maxabs = 0.0;
  for (const auto& v : values) {
    maxabs = std::max({maxabs, std::fabs(v.real()), std::fabs(v.imag())});
  }
  if (maxabs <= 0.0) return 0;
  return static_cast<int>(-std::ceil(std::log2(maxabs)));
}

}  // namespace jigsaw::core::datapath
