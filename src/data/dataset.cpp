#include "data/dataset.hpp"

#include <cstring>
#include <stdexcept>

#include "obs/obs.hpp"

namespace jigsaw::data {
namespace {

void require_shape(const DatasetInfo& info) {
  if (info.dim != 2 && info.dim != 3) {
    throw std::invalid_argument("dataset dim must be 2 or 3, got " +
                                std::to_string(info.dim));
  }
  if (info.coils < 1 || info.coils > 256) {
    throw std::invalid_argument("dataset coils outside [1, 256]: " +
                                std::to_string(info.coils));
  }
  if (info.n < 2) {
    throw std::invalid_argument("dataset grid side n must be >= 2, got " +
                                std::to_string(info.n));
  }
}

std::uint64_t header_checksum(const FileHeader& h) {
  return fnv1a(&h, sizeof(FileHeader) - sizeof(std::uint64_t),
               kFnv1aBasis);
}

FileHeader header_from_info(const DatasetInfo& info) {
  FileHeader h;
  h.dim = static_cast<std::uint32_t>(info.dim);
  h.coils = static_cast<std::uint32_t>(info.coils);
  h.n = static_cast<std::uint64_t>(info.n);
  h.source = static_cast<std::uint32_t>(info.source);
  h.flags = info.has_dcf ? kFileHasDcf : 0u;
  h.chunk_count = info.chunk_count;
  h.total_samples = info.total_samples;
  h.checksum = header_checksum(h);
  return h;
}

}  // namespace

// ---------------------------------------------------------------- writer --

DatasetWriter::DatasetWriter(const std::string& path, const DatasetInfo& info)
    : path_(path), info_(info) {
  require_shape(info_);
  info_.chunk_count = 0;
  info_.total_samples = 0;
  f_.open(path, std::ios::binary | std::ios::trunc);
  if (!f_) {
    throw std::runtime_error("dataset: cannot open '" + path +
                             "' for writing");
  }
  const FileHeader h = header_from_info(info_);
  f_.write(reinterpret_cast<const char*>(&h), sizeof(h));
  if (!f_) {
    throw std::runtime_error("dataset: header write failed for '" + path +
                             "'");
  }
}

DatasetWriter::~DatasetWriter() {
  if (!closed_) {
    try {
      close();
    } catch (...) {
      // Destructor cleanup only — the explicit close() path reports errors.
    }
  }
}

void DatasetWriter::add_chunk(std::uint64_t index,
                              const std::vector<double>& coords,
                              const std::vector<c64>& values,
                              const std::vector<double>& dcf) {
  if (closed_) throw std::runtime_error("dataset: add_chunk after close");
  const auto dim = static_cast<std::uint64_t>(info_.dim);
  const auto coils = static_cast<std::uint64_t>(info_.coils);
  if (coords.size() % dim != 0) {
    throw std::invalid_argument("dataset: coords size not a multiple of dim");
  }
  const std::uint64_t m = coords.size() / dim;
  if (m == 0) throw std::invalid_argument("dataset: empty chunk");
  if (values.size() != m * coils) {
    throw std::invalid_argument(
        "dataset: values size " + std::to_string(values.size()) +
        " != m * coils = " + std::to_string(m * coils));
  }
  if (info_.has_dcf && dcf.size() != m) {
    throw std::invalid_argument(
        "dataset declared has_dcf but chunk dcf size " +
        std::to_string(dcf.size()) + " != m = " + std::to_string(m));
  }
  if (!dcf.empty() && dcf.size() != m) {
    throw std::invalid_argument("dataset: dcf size != m");
  }

  ChunkHeader ch;
  ch.flags = dcf.empty() ? 0u : kChunkHasDcf;
  ch.index = index;
  ch.m = m;
  ch.payload_bytes = chunk_payload_bytes(
      m, static_cast<std::uint32_t>(dim), static_cast<std::uint32_t>(coils),
      ch.flags);

  std::vector<double> payload;
  payload.reserve(static_cast<std::size_t>(ch.payload_bytes / sizeof(double)));
  payload.insert(payload.end(), coords.begin(), coords.end());
  for (const c64& v : values) {
    payload.push_back(v.real());
    payload.push_back(v.imag());
  }
  payload.insert(payload.end(), dcf.begin(), dcf.end());
  ch.payload_checksum =
      fnv1a(payload.data(), payload.size() * sizeof(double), kFnv1aBasis);

  f_.write(reinterpret_cast<const char*>(&ch), sizeof(ch));
  f_.write(reinterpret_cast<const char*>(payload.data()),
           static_cast<std::streamsize>(payload.size() * sizeof(double)));
  if (!f_) {
    throw std::runtime_error("dataset: chunk write failed for '" + path_ +
                             "'");
  }
  ++chunks_;
  samples_ += m;
  obs::add("data.chunks_written", 1);
  obs::add("data.samples_written", m);
}

void DatasetWriter::close() {
  if (closed_) return;
  closed_ = true;
  info_.chunk_count = chunks_;
  info_.total_samples = samples_;
  const FileHeader h = header_from_info(info_);
  f_.seekp(0);
  f_.write(reinterpret_cast<const char*>(&h), sizeof(h));
  f_.flush();
  if (!f_) {
    throw std::runtime_error("dataset: finalize failed for '" + path_ + "'");
  }
  f_.close();
}

// ---------------------------------------------------------------- reader --

DatasetReader::DatasetReader(const std::string& path, const Limits& limits)
    : limits_(limits) {
  f_.open(path, std::ios::binary);
  if (!f_) {
    throw std::runtime_error("dataset: cannot open '" + path + "'");
  }
  FileHeader h;
  f_.read(reinterpret_cast<char*>(&h), sizeof(h));
  if (f_.gcount() != static_cast<std::streamsize>(sizeof(h))) {
    throw std::runtime_error("dataset: '" + path +
                             "' shorter than a file header");
  }
  if (h.magic != kFileMagic) {
    throw std::runtime_error("dataset: '" + path + "' has bad magic");
  }
  if (h.version != kFormatVersion) {
    throw std::runtime_error("dataset: '" + path + "' version " +
                             std::to_string(h.version) + " unsupported");
  }
  if (h.checksum != header_checksum(h)) {
    throw std::runtime_error("dataset: '" + path +
                             "' file header checksum mismatch");
  }
  info_.dim = static_cast<int>(h.dim);
  info_.n = static_cast<std::int64_t>(h.n);
  info_.coils = static_cast<int>(h.coils);
  info_.source = h.source <= static_cast<std::uint32_t>(Source::kSheppLogan)
                     ? static_cast<Source>(h.source)
                     : Source::kUnknown;
  info_.has_dcf = (h.flags & kFileHasDcf) != 0;
  info_.chunk_count = h.chunk_count;
  info_.total_samples = h.total_samples;
  require_shape(info_);  // checksum passed, so this only trips on version-1
                         // files written with shapes we no longer accept
}

bool DatasetReader::read_exact(void* buf, std::size_t len) {
  f_.read(static_cast<char*>(buf), static_cast<std::streamsize>(len));
  return f_.gcount() == static_cast<std::streamsize>(len);
}

void DatasetReader::reject(std::uint64_t offset, std::uint64_t slot,
                           const std::string& reason) {
  report_.rejects.push_back(ChunkReject{offset, slot, reason});
  obs::add("data.chunks_rejected", 1);
}

bool DatasetReader::resync() {
  // The chunk magic as it appears on disk (host-endian byte sequence).
  unsigned char want[sizeof(kChunkMagic)];
  std::memcpy(want, &kChunkMagic, sizeof(want));
  unsigned char window[sizeof(want)];
  std::size_t filled = 0;
  for (;;) {
    const int c = f_.get();
    if (c == std::ifstream::traits_type::eof()) return false;
    if (filled < sizeof(window)) {
      window[filled++] = static_cast<unsigned char>(c);
    } else {
      std::memmove(window, window + 1, sizeof(window) - 1);
      window[sizeof(window) - 1] = static_cast<unsigned char>(c);
    }
    if (filled == sizeof(window) &&
        std::memcmp(window, want, sizeof(want)) == 0) {
      f_.seekg(-static_cast<std::streamoff>(sizeof(want)), std::ios::cur);
      return true;
    }
  }
}

bool DatasetReader::next(Chunk& out) {
  const auto dim = static_cast<std::uint32_t>(info_.dim);
  const auto coils = static_cast<std::uint32_t>(info_.coils);
  for (;;) {
    const std::uint64_t offset = static_cast<std::uint64_t>(f_.tellg());
    ChunkHeader ch;
    f_.read(reinterpret_cast<char*>(&ch), sizeof(ch));
    const auto got = f_.gcount();
    if (got == 0) return false;  // clean EOF on a chunk boundary
    const std::uint64_t slot = ordinal_++;
    if (got != static_cast<std::streamsize>(sizeof(ch))) {
      reject(offset, slot,
             "truncated chunk header (" + std::to_string(got) + "/" +
                 std::to_string(sizeof(ch)) + " bytes)");
      return false;
    }

    if (ch.magic != kChunkMagic) {
      reject(offset, slot, "bad chunk magic");
      // Scan forward from one past the bad header's start so a real chunk
      // beginning inside those 48 bytes is not skipped.
      f_.clear();
      f_.seekg(static_cast<std::streamoff>(offset + 1));
      if (!resync()) return false;
      continue;
    }
    const std::uint64_t expect_bytes =
        chunk_payload_bytes(ch.m, dim, coils, ch.flags);
    if (ch.m == 0 || ch.m > limits_.max_chunk_samples ||
        ch.payload_bytes != expect_bytes) {
      reject(offset, slot, "implausible chunk header (m=" + std::to_string(ch.m) +
                         ", payload_bytes=" + std::to_string(ch.payload_bytes) +
                         ", expected " + std::to_string(expect_bytes) + ")");
      f_.clear();
      f_.seekg(static_cast<std::streamoff>(offset + sizeof(std::uint32_t)));
      if (!resync()) return false;
      continue;
    }

    std::vector<double> payload(
        static_cast<std::size_t>(ch.payload_bytes / sizeof(double)));
    if (!read_exact(payload.data(),
                    static_cast<std::size_t>(ch.payload_bytes))) {
      reject(offset, slot, "truncated chunk payload");
      return false;
    }
    if (fnv1a(payload.data(), payload.size() * sizeof(double),
              kFnv1aBasis) != ch.payload_checksum) {
      // The header was self-consistent so the stream stays aligned; if the
      // corruption did extend past this chunk, the next header read fails
      // its own checks and resyncs.
      reject(offset, slot, "payload checksum mismatch");
      continue;
    }

    const auto m_sz = static_cast<std::size_t>(ch.m);
    out.index = ch.index;
    out.m = ch.m;
    out.coords.assign(payload.begin(),
                      payload.begin() + static_cast<std::ptrdiff_t>(m_sz * dim));
    out.values.resize(m_sz * coils);
    const double* v = payload.data() + m_sz * dim;
    for (std::size_t j = 0; j < m_sz * coils; ++j) {
      out.values[j] = c64(v[2 * j], v[2 * j + 1]);
    }
    if (ch.flags & kChunkHasDcf) {
      const double* w = v + 2 * m_sz * coils;
      out.dcf.assign(w, w + m_sz);
    } else {
      out.dcf.clear();
    }
    ++report_.chunks_read;
    report_.samples_read += ch.m;
    obs::add("data.chunks_read", 1);
    obs::add("data.samples_read", ch.m);
    obs::add("data.bytes_read", sizeof(ch) + ch.payload_bytes);
    return true;
  }
}

std::vector<Chunk> DatasetReader::read_all() {
  std::vector<Chunk> chunks;
  Chunk c;
  while (next(c)) chunks.push_back(c);
  return chunks;
}

ReadReport validate_dataset(const std::string& path, DatasetInfo* info) {
  DatasetReader reader(path);
  if (info) *info = reader.info();
  Chunk c;
  while (reader.next(c)) {
  }
  return reader.report();
}

}  // namespace jigsaw::data
