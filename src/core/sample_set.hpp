// Non-uniform sample container: M coordinates (normalized torus units) and
// their complex values.
#pragma once

#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"
#include "robustness/sanitize.hpp"

namespace jigsaw::core {

template <int D>
struct SampleSet {
  std::vector<Coord<D>> coords;  // each component in [-0.5, 0.5)
  std::vector<c64> values;       // complex sample magnitudes f_j

  SampleSet() = default;
  SampleSet(std::vector<Coord<D>> c, std::vector<c64> v)
      : coords(std::move(c)), values(std::move(v)) {
    JIGSAW_REQUIRE(coords.size() == values.size(),
                   "coords/values size mismatch: " << coords.size() << " vs "
                                                   << values.size());
  }

  std::size_t size() const { return coords.size(); }
  bool empty() const { return coords.empty(); }

  /// Validate that every value is finite and every coordinate lies in
  /// [-0.5, 0.5). This is exactly the sanitizer's Strict policy: on the
  /// first defect it throws std::invalid_argument naming the sample index,
  /// the dimension and the offending value — indispensable context when one
  /// sample in a 50M-sample acquisition is bad.
  void validate() const { robustness::require_valid<D>(*this); }
};

/// Non-owning view of M samples: coordinates plus values, both borrowed.
/// A SampleSet converts implicitly, and a NufftPlan pairs its plan
/// coordinates with a call's values without copying either. SampleView
/// reads the values (adjoint input, the sanitizer); SampleSlots writes them
/// (forward output).
template <int D, typename Value>
struct SampleSpan {
  std::span<const Coord<D>> coords;
  std::span<Value> values;

  SampleSpan(std::span<const Coord<D>> c, std::span<Value> v)
      : coords(c), values(v) {
    JIGSAW_REQUIRE(coords.size() == values.size(),
                   "coords/values size mismatch: " << coords.size() << " vs "
                                                   << values.size());
  }
  SampleSpan(SampleSet<D>& s) : SampleSpan(s.coords, s.values) {}
  SampleSpan(const SampleSet<D>& s)
    requires std::is_const_v<Value>
      : SampleSpan(s.coords, s.values) {}

  std::size_t size() const { return coords.size(); }
};

template <int D>
using SampleView = SampleSpan<D, const c64>;
template <int D>
using SampleSlots = SampleSpan<D, c64>;

}  // namespace jigsaw::core
