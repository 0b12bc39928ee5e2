// FNV-1a 64-bit: the one byte-range hash behind geometry keys, serve plan-pool
// keys, router shard placement, the stream plan's coordinate identity and
// the JKSD checksums. Fast and dependency-free; it detects accidents
// (collisions, storage glitches), not adversaries.
#pragma once

#include <cstddef>
#include <cstdint>

namespace jigsaw {

/// The standard FNV-1a-64 offset basis. JKSD file and chunk checksums use
/// it, so datasets on disk depend on it.
inline constexpr std::uint64_t kFnv1aBasis = 0xcbf29ce484222325ull;

/// The standard basis with its last decimal digit dropped
/// (14695981039346656037 -> 1469598103934665603). The router's shard key
/// and rendezvous scores, the serve plan pool and the stream coordinate
/// hash were built on it; shard placement depends on the values, so it
/// stays.
inline constexpr std::uint64_t kFnv1aShortBasis = 1469598103934665603ull;

inline std::uint64_t fnv1a(const void* data, std::size_t len,
                           std::uint64_t basis) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = basis;
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace jigsaw
