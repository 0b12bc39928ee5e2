// Precomputed interpolation weight look-up table (LUT).
//
// The paper constrains kernel granularity with a "table oversampling factor"
// L: there are W*L discrete weights per dimension and sample-to-grid
// distances are rounded to the nearest weight (Sec. II-B). Because the
// kernel is even, only W*L/2 entries covering [0, W/2) are stored — exactly
// the layout of JIGSAW's weight SRAM (256 entries = W=8 x L=64 / 2).
#pragma once

#include <cstdint>
#include <vector>

#include "fixed/fixed.hpp"
#include "kernels/kernel.hpp"

namespace jigsaw::kernels {

class KernelLut {
 public:
  /// Build a LUT for `kernel` with table oversampling factor `L`
  /// (power of two, per the hardware's truncation-based addressing).
  KernelLut(const Kernel& kernel, int L);

  int width() const { return width_; }
  int oversampling() const { return L_; }
  std::size_t entries() const { return table_.size(); }  // == W*L/2

  /// Table index for an absolute distance |d| in [0, W/2): nearest-weight
  /// rounding as in the paper. Out-of-support distances clamp to the last
  /// (near-zero) entry.
  std::int32_t index_of(double abs_dist) const {
    std::int32_t i = static_cast<std::int32_t>(
        abs_dist * static_cast<double>(L_) + 0.5);
    const std::int32_t last = static_cast<std::int32_t>(table_.size()) - 1;
    return i > last ? last : i;
  }

  /// Double-precision weight for a signed distance.
  double weight(double dist) const {
    return table_[static_cast<std::size_t>(
        index_of(dist < 0 ? -dist : dist))];
  }

  double entry(std::int32_t i) const {
    return table_[static_cast<std::size_t>(i)];
  }

  /// 16-bit Q1.15 quantized weight (JIGSAW datapath).
  fixed::Weight16 entry_fixed(std::int32_t i) const {
    return fixed_table_[static_cast<std::size_t>(i)];
  }
  fixed::Weight16 weight_fixed(double dist) const {
    return fixed_table_[static_cast<std::size_t>(
        index_of(dist < 0 ? -dist : dist))];
  }

  /// Worst-case absolute LUT quantization error vs the exact kernel,
  /// sampled on a fine grid (diagnostic / tests).
  double max_quantization_error(const Kernel& kernel, int probe_per_entry = 8)
      const;

 private:
  int width_;
  int L_;
  std::vector<double> table_;
  std::vector<fixed::Weight16> fixed_table_;
};

}  // namespace jigsaw::kernels
