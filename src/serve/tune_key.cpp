#include "serve/tune_key.hpp"

#include <cstdio>

#include "common/hash.hpp"

namespace jigsaw::serve {

std::uint64_t TuneKey::hash() const {
  // Packed canonical encoding: fixed-width integers plus the raw double, so
  // the hash is stable across processes on one platform (the same contract
  // the serve plan key makes).
  struct {
    std::int64_t dims, n, m, width, coils, threads;
    double sigma;
  } packed{dims, n, m, width, coils, static_cast<std::int64_t>(threads),
           sigma};
  return fnv1a(&packed, sizeof packed, kFnv1aShortBasis);
}

std::string TuneKey::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(hash()));
  return buf;
}

std::string TuneKey::label() const {
  char buf[128];
  std::snprintf(buf, sizeof buf, "%dd/n%lld/m%lld/w%d/s%g/c%d/t%u", dims,
                static_cast<long long>(n), static_cast<long long>(m), width,
                sigma, coils, threads);
  return buf;
}

TuneKey TuneKey::of(int dims, std::int64_t n, std::int64_t m,
                    const core::GridderOptions& options, int coils,
                    unsigned threads) {
  TuneKey key;
  key.dims = dims;
  key.n = n;
  key.m = m;
  key.width = options.width;
  key.sigma = options.sigma;
  key.coils = coils;
  key.threads = threads;
  return key;
}

}  // namespace jigsaw::serve
