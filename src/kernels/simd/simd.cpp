#include "kernels/simd/simd.hpp"

namespace jigsaw::kernels::simd {

const char* to_string(Isa isa) {
  switch (isa) {
    case Isa::Scalar: return "scalar";
    case Isa::Avx2: return "avx2";
    case Isa::Avx512: return "avx512";
    case Isa::Neon: return "neon";
  }
  return "?";
}

Isa active() {
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512dq") &&
      __builtin_cpu_supports("avx512vl")) {
    return Isa::Avx512;
  }
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return Isa::Avx2;
  }
  return Isa::Scalar;
#elif defined(__aarch64__)
  return Isa::Neon;
#else
  return Isa::Scalar;
#endif
}

}  // namespace jigsaw::kernels::simd
