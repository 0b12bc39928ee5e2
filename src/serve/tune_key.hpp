// Geometry key: the equivalence class of a gridding problem, and the
// router's shard key.
//
// A TuneKey names everything that makes two requests "the same shape"
// (grid size, sample count, kernel width, oversampling, dimensionality,
// coil count, thread budget) and nothing else — deliberately NOT the
// trajectory hash the serve scheduler keys its plan pool on. The router
// shards on it (serve/router.hpp), so every request of one class lands on
// one worker. The hash is the shared FNV-1a (common/hash.hpp) applied to a
// packed canonical encoding of the fields.
#pragma once

#include <compare>
#include <cstdint>
#include <string>

#include "core/gridder.hpp"

namespace jigsaw::serve {

struct TuneKey {
  int dims = 2;            // 1, 2 or 3
  std::int64_t n = 128;    // base grid side N (oversampled side is sigma*N)
  std::int64_t m = 0;      // non-uniform sample count M
  int width = 6;           // interpolation kernel width W
  double sigma = 2.0;      // grid oversampling factor
  int coils = 1;
  unsigned threads = 1;    // thread budget of the execution

  auto operator<=>(const TuneKey&) const = default;

  /// FNV-1a over the packed canonical field encoding.
  std::uint64_t hash() const;

  /// hash() as 16 lowercase hex digits.
  std::string hex() const;

  /// Human-readable form, e.g. "2d/n128/m65536/w6/s2/c1/t4".
  std::string label() const;

  /// Build a key from a gridding configuration plus the geometry the
  /// options struct does not carry.
  static TuneKey of(int dims, std::int64_t n, std::int64_t m,
                    const core::GridderOptions& options, int coils,
                    unsigned threads);
};

}  // namespace jigsaw::serve
