// SampleSanitizer: one-pass defect scan and policy-driven repair for
// non-uniform sample sets (see docs/robustness.md).
//
// A 50M-sample acquisition must not abort because one exported row carries a
// NaN or an out-of-range coordinate. The sanitizer scans a SampleSet<D> in
// parallel (ThreadPool::parallel_for), classifies every sample against the
// defect taxonomy of defects.hpp, and applies one of three policies:
//
//   Strict — throw std::invalid_argument naming the first offender (sample
//            index, dimension, offending value). SampleSet<D>::validate() is
//            exactly this policy.
//   Drop   — remove defective samples (duplicates keep their first
//            occurrence) and return the survivors.
//   Clamp  — repair in place: wrap out-of-range coordinates onto the torus,
//            zero non-finite values/coordinates; duplicates are counted but
//            kept.
//
// Exact-duplicate coordinates are reported under every policy but are never
// a Strict error: legitimate trajectories repeat coordinates (every radial
// spoke passes through the k-space center), so duplicates are suspicious,
// not invalid.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "robustness/defects.hpp"

namespace jigsaw::core {
template <int D>
struct SampleSet;
template <int D, typename Value>
struct SampleSpan;
}  // namespace jigsaw::core

namespace jigsaw::robustness {

enum class SanitizePolicy {
  None,    // pass-through: no scan, no copy, zero overhead
  Strict,  // throw on the first non-finite / out-of-range sample
  Drop,    // remove defective samples
  Clamp,   // repair defective samples in place
};

std::string to_string(SanitizePolicy p);
/// Parse "none" / "strict" / "drop" / "clamp"; throws std::invalid_argument.
SanitizePolicy parse_sanitize_policy(const std::string& s);

/// One recorded offender (the report keeps the first K in sample order).
struct Offender {
  std::size_t index = 0;  // sample index in the scanned set
  DefectClass defect = DefectClass::NonFiniteValue;
  int dim = -1;           // coordinate dimension, -1 for value defects
  double value = 0.0;     // offending component (coord or value part)
};

/// Outcome of one sanitization pass: per-defect-class counts plus the first
/// K offenders, printable by the CLI and examples.
struct SanitizeReport {
  SanitizePolicy policy = SanitizePolicy::None;
  std::size_t scanned = 0;
  std::size_t nonfinite_values = 0;    // samples with a NaN/Inf value part
  std::size_t nonfinite_coords = 0;    // samples with a NaN/Inf coordinate
  std::size_t out_of_range_coords = 0; // samples with a coord off the torus
  std::size_t duplicate_coords = 0;    // exact repeats of an earlier coord
  std::size_t defective_samples = 0;   // samples with >= 1 defect (classes
                                       // can overlap on one sample)
  std::size_t dropped = 0;             // samples removed (Drop)
  std::size_t repaired = 0;            // samples rewritten (Clamp)
  std::size_t kept = 0;                // samples surviving the pass
  std::vector<Offender> first_offenders;
  bool clean() const {
    return nonfinite_values == 0 && nonfinite_coords == 0 &&
           out_of_range_coords == 0 && duplicate_coords == 0;
  }
  /// Did the pass change the sample set (drop or rewrite anything)?
  bool modified() const { return dropped > 0 || repaired > 0; }

  /// Human-readable multi-line summary (one line per defect class plus a
  /// header), as printed by `jigsaw_cli recon --sanitize ...`.
  std::string summary() const;
};

template <int D>
struct SanitizeOutcome {
  SanitizeReport report;
  /// The surviving/repaired samples. Only meaningful when
  /// report.modified(); a clean input is never copied.
  core::SampleSet<D> samples;
};

/// Scan without modifying: count defects and record the first
/// `max_offenders` offenders. `threads` as in GridderOptions (0 = all
/// hardware threads, 1 = serial).
template <int D>
SanitizeReport scan(core::SampleSpan<D, const c64> in, unsigned threads = 1,
                    std::size_t max_offenders = 8);

/// Scan and apply `policy`. Strict throws on the first non-finite /
/// out-of-range sample; Drop/Clamp return the repaired set in
/// `outcome.samples` when anything changed (check report.modified()).
template <int D>
SanitizeOutcome<D> sanitize(core::SampleSpan<D, const c64> in,
                            SanitizePolicy policy, unsigned threads = 1,
                            std::size_t max_offenders = 8);

/// The Strict policy as a bare check: throw std::invalid_argument naming
/// the first non-finite or out-of-range sample (index, dimension, value).
/// SampleSet<D>::validate() routes here.
template <int D>
void require_valid(core::SampleSpan<D, const c64> in);

/// Repair a coordinate array in place (Clamp semantics: wrap finite
/// components, zero non-finite ones). Returns the number of components
/// changed. Used by the forward (re-gridding) path, where samples are
/// output slots and can be repaired but never dropped.
template <int D>
std::size_t clamp_coords(std::vector<Coord<D>>& coords);

extern template SanitizeReport scan<1>(core::SampleSpan<1, const c64>, unsigned,
                                       std::size_t);
extern template SanitizeReport scan<2>(core::SampleSpan<2, const c64>, unsigned,
                                       std::size_t);
extern template SanitizeReport scan<3>(core::SampleSpan<3, const c64>, unsigned,
                                       std::size_t);
extern template SanitizeOutcome<1> sanitize<1>(core::SampleSpan<1, const c64>,
                                               SanitizePolicy, unsigned,
                                               std::size_t);
extern template SanitizeOutcome<2> sanitize<2>(core::SampleSpan<2, const c64>,
                                               SanitizePolicy, unsigned,
                                               std::size_t);
extern template SanitizeOutcome<3> sanitize<3>(core::SampleSpan<3, const c64>,
                                               SanitizePolicy, unsigned,
                                               std::size_t);
extern template void require_valid<1>(core::SampleSpan<1, const c64>);
extern template void require_valid<2>(core::SampleSpan<2, const c64>);
extern template void require_valid<3>(core::SampleSpan<3, const c64>);
extern template std::size_t clamp_coords<1>(std::vector<Coord<1>>&);
extern template std::size_t clamp_coords<2>(std::vector<Coord<2>>&);
extern template std::size_t clamp_coords<3>(std::vector<Coord<3>>&);

}  // namespace jigsaw::robustness
