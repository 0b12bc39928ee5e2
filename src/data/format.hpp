// JKSD — the Jigsaw K-Space Dataset container (docs/datasets.md).
//
// A self-describing binary format for streaming multi-coil non-Cartesian
// acquisitions, shaped after the fastMRI convention (Zbontar et al.,
// PAPERS.md): one file holds a whole acquisition as a fixed header followed
// by independent per-slice/per-frame chunks. Each chunk carries its own
// trajectory coordinates, `coils` blocks of complex k-space samples, and
// optionally per-sample density-compensation weights — everything one
// reconstruction needs, so a reader can process an arbitrarily large
// dataset one chunk at a time in bounded memory.
//
// Layout (all integers/doubles host-endian, like the JSRV wire protocol —
// datasets are a node-local interchange format, not a network one):
//
//   FileHeader   (56 bytes, checksummed)
//   Chunk 0:  ChunkHeader (48 bytes) + payload (checksummed)
//   Chunk 1:  ...
//
// Payload of a chunk with m samples, dimension d, c coils:
//   f64 coords[d * m]      sample coordinates, torus units [-0.5, 0.5)
//   f64 values[2 * m * c]  coil-major blocks of (re, im) pairs
//   f64 dcf[m]             iff (flags & kChunkHasDcf)
//
// Integrity: the file header carries an FNV-1a checksum of its own bytes;
// every chunk header carries an FNV-1a checksum of its payload. A reader
// can therefore reject a corrupt chunk with a reason and resynchronize at
// the next chunk magic instead of aborting the whole acquisition — the
// dataset-level analogue of core/io.cpp's recovering CSV parser.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/hash.hpp"

namespace jigsaw::data {

inline constexpr std::uint32_t kFileMagic = 0x4A4B5344;   // "JKSD"
inline constexpr std::uint32_t kChunkMagic = 0x4B4E4843;  // "CHNK"
inline constexpr std::uint32_t kFormatVersion = 1;

/// FileHeader::flags bits.
inline constexpr std::uint32_t kFileHasDcf = 1u;  // every chunk carries dcf

/// ChunkHeader::flags bits.
inline constexpr std::uint32_t kChunkHasDcf = 1u;

/// FileHeader::source values — what the k-space was acquired from. Lets a
/// consumer score reconstructions against ground truth when the source is
/// analytic (the hermetic-test path); real scanner exports say kUnknown.
enum class Source : std::uint32_t {
  kUnknown = 0,
  kSheppLogan = 1,  // trajectory::shepp_logan() phantom at grid size n
};

/// Fixed 56-byte file header. `checksum` is fnv1a() with kFnv1aBasis
/// (common/hash.hpp, as are the payload checksums) over the first 48 bytes
/// (everything before the checksum field itself).
struct FileHeader {
  std::uint32_t magic = kFileMagic;
  std::uint32_t version = kFormatVersion;
  std::uint32_t dim = 2;        // 2 or 3
  std::uint32_t coils = 1;      // >= 1
  std::uint64_t n = 0;          // base (image) grid side
  std::uint32_t source = 0;     // Source enum
  std::uint32_t flags = 0;      // kFileHasDcf
  std::uint64_t chunk_count = 0;    // 0 = unknown (stream until EOF)
  std::uint64_t total_samples = 0;  // 0 = unknown
  std::uint64_t checksum = 0;
};
static_assert(sizeof(FileHeader) == 56, "JKSD file header layout");

/// Fixed 48-byte chunk header. `payload_checksum` is fnv1a() over the
/// payload bytes that follow; `payload_bytes` must equal the size implied
/// by (m, dim, coils, flags) — a mismatch marks the header itself corrupt.
struct ChunkHeader {
  std::uint32_t magic = kChunkMagic;
  std::uint32_t flags = 0;        // kChunkHasDcf
  std::uint64_t index = 0;        // slice/frame number (informational)
  std::uint64_t m = 0;            // samples in this chunk
  std::uint64_t payload_bytes = 0;
  std::uint64_t payload_checksum = 0;
  std::uint64_t reserved = 0;
};
static_assert(sizeof(ChunkHeader) == 48, "JKSD chunk header layout");

/// Payload size implied by a chunk's sample count and the dataset shape.
inline std::uint64_t chunk_payload_bytes(std::uint64_t m, std::uint32_t dim,
                                         std::uint32_t coils,
                                         std::uint32_t flags) {
  const std::uint64_t doubles =
      m * dim + 2 * m * coils + ((flags & kChunkHasDcf) ? m : 0);
  return doubles * sizeof(double);
}

}  // namespace jigsaw::data
