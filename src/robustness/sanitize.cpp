#include "robustness/sanitize.hpp"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "core/sample_set.hpp"

namespace jigsaw::robustness {

std::string to_string(SanitizePolicy p) {
  switch (p) {
    case SanitizePolicy::None: return "none";
    case SanitizePolicy::Strict: return "strict";
    case SanitizePolicy::Drop: return "drop";
    case SanitizePolicy::Clamp: return "clamp";
  }
  return "unknown";
}

SanitizePolicy parse_sanitize_policy(const std::string& s) {
  if (s == "none") return SanitizePolicy::None;
  if (s == "strict") return SanitizePolicy::Strict;
  if (s == "drop") return SanitizePolicy::Drop;
  if (s == "clamp") return SanitizePolicy::Clamp;
  throw std::invalid_argument("jigsaw: unknown sanitize policy: " + s +
                              " (expected none|strict|drop|clamp)");
}

std::string SanitizeReport::summary() const {
  std::ostringstream os;
  os << "sanitize (" << to_string(policy) << "): scanned " << scanned
     << " samples, " << defective_samples << " defective, " << kept
     << " kept";
  if (dropped > 0) os << ", " << dropped << " dropped";
  if (repaired > 0) os << ", " << repaired << " repaired";
  os << '\n';
  os << "  non-finite values:      " << nonfinite_values << '\n';
  os << "  non-finite coords:      " << nonfinite_coords << '\n';
  os << "  out-of-range coords:    " << out_of_range_coords << '\n';
  os << "  duplicate coords:       " << duplicate_coords;
  for (const auto& o : first_offenders) {
    os << "\n  offender: sample " << o.index << " (" << to_string(o.defect);
    if (o.dim >= 0) os << ", dim " << o.dim;
    os << ", value " << o.value << ")";
  }
  os << '\n';
  return os.str();
}

namespace {

// Per-sample defect bitmask.
constexpr unsigned kBadValue = 1u;   // NonFiniteValue
constexpr unsigned kBadCoord = 2u;   // NonFiniteCoord
constexpr unsigned kOutOfRange = 4u; // OutOfRangeCoord
constexpr unsigned kDuplicate = 8u;  // DuplicateCoord

/// Classify one sample against the non-duplicate defect classes; record the
/// first offending component per class in `off` (dim/value).
template <int D>
unsigned classify(core::SampleSpan<D, const c64> s, std::size_t j, Offender* off) {
  unsigned mask = 0;
  const c64 v = s.values[j];
  if (!std::isfinite(v.real()) || !std::isfinite(v.imag())) {
    mask |= kBadValue;
    if (off != nullptr) {
      off[0] = {j, DefectClass::NonFiniteValue, -1,
                std::isfinite(v.real()) ? v.imag() : v.real()};
    }
  }
  for (int d = 0; d < D; ++d) {
    const double c = s.coords[j][static_cast<std::size_t>(d)];
    if (!std::isfinite(c)) {
      if ((mask & kBadCoord) == 0 && off != nullptr) {
        off[1] = {j, DefectClass::NonFiniteCoord, d, c};
      }
      mask |= kBadCoord;
    } else if (!coord_in_range(c)) {
      if ((mask & kOutOfRange) == 0 && off != nullptr) {
        off[2] = {j, DefectClass::OutOfRangeCoord, d, c};
      }
      mask |= kOutOfRange;
    }
  }
  return mask;
}

/// Bitwise hash of a coordinate (NaNs compare equal to themselves here,
/// which is what exact-duplicate detection wants).
template <int D>
std::uint64_t coord_hash(const Coord<D>& c) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (int d = 0; d < D; ++d) {
    std::uint64_t bits;
    static_assert(sizeof(double) == sizeof(bits));
    std::memcpy(&bits, &c[static_cast<std::size_t>(d)], sizeof(bits));
    h ^= bits + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  return h;
}

template <int D>
bool coord_bits_equal(const Coord<D>& a, const Coord<D>& b) {
  return std::memcmp(a.data(), b.data(), sizeof(double) * D) == 0;
}

/// Full scan: per-sample defect masks + aggregated report. The linear pass
/// is parallelized with ThreadPool::parallel_for (deterministic: fixed
/// chunking, per-chunk partials merged in chunk order); duplicate detection
/// hashes in parallel and resolves collisions with one sort.
template <int D>
SanitizeReport scan_masks(core::SampleSpan<D, const c64> in, unsigned threads,
                          std::size_t max_offenders,
                          std::vector<unsigned char>* masks_out) {
  JIGSAW_REQUIRE(in.coords.size() == in.values.size(),
                 "coords/values size mismatch: " << in.coords.size() << " vs "
                                                 << in.values.size());
  const std::size_t m = in.size();
  SanitizeReport report;
  report.scanned = m;

  std::vector<unsigned char> masks(m, 0);
  std::vector<std::uint64_t> hashes(m);

  ThreadPool pool(threads == 0 ? 0 : threads);
  const unsigned nchunks = pool.thread_count();
  struct Partial {
    std::size_t bad_value = 0, bad_coord = 0, out_of_range = 0;
    std::vector<Offender> offenders;
  };
  std::vector<Partial> partials(nchunks);

  pool.parallel_for(
      static_cast<std::int64_t>(m),
      [&](std::int64_t begin, std::int64_t end, unsigned worker) {
        Partial& p = partials[worker];
        for (std::int64_t jj = begin; jj < end; ++jj) {
          const auto j = static_cast<std::size_t>(jj);
          Offender off[3];
          const unsigned mask = classify<D>(in, j, off);
          masks[j] = static_cast<unsigned char>(mask);
          hashes[j] = coord_hash<D>(in.coords[j]);
          if (mask == 0) continue;
          if (mask & kBadValue) ++p.bad_value;
          if (mask & kBadCoord) ++p.bad_coord;
          if (mask & kOutOfRange) ++p.out_of_range;
          if (p.offenders.size() < max_offenders) {
            if (mask & kBadValue) p.offenders.push_back(off[0]);
            if ((mask & kBadCoord) && p.offenders.size() < max_offenders) {
              p.offenders.push_back(off[1]);
            }
            if ((mask & kOutOfRange) && p.offenders.size() < max_offenders) {
              p.offenders.push_back(off[2]);
            }
          }
        }
      });

  for (const Partial& p : partials) {
    report.nonfinite_values += p.bad_value;
    report.nonfinite_coords += p.bad_coord;
    report.out_of_range_coords += p.out_of_range;
    for (const Offender& o : p.offenders) {
      if (report.first_offenders.size() < max_offenders) {
        report.first_offenders.push_back(o);
      }
    }
  }

  // Exact-duplicate detection: sort indices by hash, compare bitwise within
  // equal-hash runs. The smallest original index of each coordinate is the
  // kept occurrence.
  std::vector<std::uint32_t> order(m);
  for (std::size_t j = 0; j < m; ++j) {
    order[j] = static_cast<std::uint32_t>(j);
  }
  std::sort(order.begin(), order.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              if (hashes[a] != hashes[b]) return hashes[a] < hashes[b];
              return a < b;
            });
  for (std::size_t i = 0; i < m;) {
    std::size_t e = i + 1;
    while (e < m && hashes[order[e]] == hashes[order[i]]) ++e;
    if (e - i > 1) {
      // Within a hash run, compare each member against the earliest
      // bit-identical coordinate (runs are tiny in practice).
      for (std::size_t a = i + 1; a < e; ++a) {
        for (std::size_t b = i; b < a; ++b) {
          if (coord_bits_equal<D>(in.coords[order[a]],
                                  in.coords[order[b]])) {
            masks[order[a]] |= kDuplicate;
            ++report.duplicate_coords;
            break;
          }
        }
      }
    }
    i = e;
  }
  if (report.duplicate_coords > 0 &&
      report.first_offenders.size() < max_offenders) {
    for (std::size_t j = 0;
         j < m && report.first_offenders.size() < max_offenders; ++j) {
      if (masks[j] & kDuplicate) {
        report.first_offenders.push_back(
            {j, DefectClass::DuplicateCoord, 0, in.coords[j][0]});
      }
    }
  }

  // Deterministic offender order: sort by sample index, then defect class.
  std::sort(report.first_offenders.begin(), report.first_offenders.end(),
            [](const Offender& a, const Offender& b) {
              if (a.index != b.index) return a.index < b.index;
              return static_cast<int>(a.defect) < static_cast<int>(b.defect);
            });
  if (report.first_offenders.size() > max_offenders) {
    report.first_offenders.resize(max_offenders);
  }

  for (std::size_t j = 0; j < m; ++j) {
    if (masks[j] != 0) ++report.defective_samples;
  }
  report.kept = m;
  if (masks_out != nullptr) *masks_out = std::move(masks);
  return report;
}

template <int D>
[[noreturn]] void throw_strict(core::SampleSpan<D, const c64> in,
                               std::size_t index, const Offender& off) {
  std::ostringstream os;
  os << "jigsaw: sample " << index << " of " << in.size() << ": "
     << to_string(off.defect);
  if (off.dim >= 0) {
    os << " (dim " << off.dim << " = " << off.value
       << ", expected finite in [-0.5, 0.5))";
  } else {
    os << " (value component " << off.value << ")";
  }
  throw std::invalid_argument(os.str());
}

}  // namespace

template <int D>
SanitizeReport scan(core::SampleSpan<D, const c64> in, unsigned threads,
                    std::size_t max_offenders) {
  return scan_masks<D>(in, threads, max_offenders, nullptr);
}

template <int D>
void require_valid(core::SampleSpan<D, const c64> in) {
  JIGSAW_REQUIRE(in.coords.size() == in.values.size(),
                 "coords/values size mismatch: " << in.coords.size() << " vs "
                                                 << in.values.size());
  // Serial short-circuit scan: the error path wants the *first* offender,
  // and the happy path is a branch-predictable linear sweep.
  for (std::size_t j = 0; j < in.size(); ++j) {
    Offender off[3];
    const unsigned mask = classify<D>(in, j, off);
    if (mask == 0) continue;
    const Offender& first = (mask & kBadValue)   ? off[0]
                            : (mask & kBadCoord) ? off[1]
                                                 : off[2];
    throw_strict<D>(in, j, first);
  }
}

template <int D>
SanitizeOutcome<D> sanitize(core::SampleSpan<D, const c64> in,
                            SanitizePolicy policy, unsigned threads,
                            std::size_t max_offenders) {
  SanitizeOutcome<D> out;
  if (policy == SanitizePolicy::None) {
    out.report.policy = policy;
    out.report.scanned = in.size();
    out.report.kept = in.size();
    return out;
  }
  if (policy == SanitizePolicy::Strict) {
    require_valid<D>(in);  // throws on the first hard defect
    out.report = scan<D>(in, threads, max_offenders);  // duplicate counts
    out.report.policy = policy;
    return out;
  }

  std::vector<unsigned char> masks;
  out.report = scan_masks<D>(in, threads, max_offenders, &masks);
  out.report.policy = policy;
  if (out.report.clean()) return out;  // nothing to do, no copy

  const std::size_t m = in.size();
  if (policy == SanitizePolicy::Drop) {
    out.samples.coords.reserve(m - out.report.defective_samples);
    out.samples.values.reserve(m - out.report.defective_samples);
    for (std::size_t j = 0; j < m; ++j) {
      if (masks[j] != 0) continue;
      out.samples.coords.push_back(in.coords[j]);
      out.samples.values.push_back(in.values[j]);
    }
    out.report.dropped = m - out.samples.size();
    out.report.kept = out.samples.size();
    return out;
  }

  // Clamp: wrap finite out-of-range coordinates, zero non-finite values and
  // coordinates; duplicates are counted but kept.
  out.samples.coords.assign(in.coords.begin(), in.coords.end());
  out.samples.values.assign(in.values.begin(), in.values.end());
  for (std::size_t j = 0; j < m; ++j) {
    const unsigned mask = masks[j];
    if ((mask & (kBadValue | kBadCoord | kOutOfRange)) == 0) continue;
    ++out.report.repaired;
    if (mask & kBadValue) out.samples.values[j] = c64{};
    for (int d = 0; d < D; ++d) {
      double& c = out.samples.coords[j][static_cast<std::size_t>(d)];
      if (!std::isfinite(c)) {
        c = 0.0;
      } else if (!coord_in_range(c)) {
        c = wrap_torus(c);
      }
    }
  }
  out.report.kept = m;
  return out;
}

template <int D>
std::size_t clamp_coords(std::vector<Coord<D>>& coords) {
  std::size_t changed = 0;
  for (auto& coord : coords) {
    bool touched = false;
    for (int d = 0; d < D; ++d) {
      double& c = coord[static_cast<std::size_t>(d)];
      if (std::isfinite(c) && coord_in_range(c)) continue;
      c = std::isfinite(c) ? wrap_torus(c) : 0.0;
      touched = true;
    }
    if (touched) ++changed;
  }
  return changed;
}

template SanitizeReport scan<1>(core::SampleSpan<1, const c64>, unsigned,
                                std::size_t);
template SanitizeReport scan<2>(core::SampleSpan<2, const c64>, unsigned,
                                std::size_t);
template SanitizeReport scan<3>(core::SampleSpan<3, const c64>, unsigned,
                                std::size_t);
template SanitizeOutcome<1> sanitize<1>(core::SampleSpan<1, const c64>,
                                        SanitizePolicy, unsigned, std::size_t);
template SanitizeOutcome<2> sanitize<2>(core::SampleSpan<2, const c64>,
                                        SanitizePolicy, unsigned, std::size_t);
template SanitizeOutcome<3> sanitize<3>(core::SampleSpan<3, const c64>,
                                        SanitizePolicy, unsigned, std::size_t);
template void require_valid<1>(core::SampleSpan<1, const c64>);
template void require_valid<2>(core::SampleSpan<2, const c64>);
template void require_valid<3>(core::SampleSpan<3, const c64>);
template std::size_t clamp_coords<1>(std::vector<Coord<1>>&);
template std::size_t clamp_coords<2>(std::vector<Coord<2>>&);
template std::size_t clamp_coords<3>(std::vector<Coord<3>>&);

}  // namespace jigsaw::robustness
