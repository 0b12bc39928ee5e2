// Host vector-ISA probe.
//
// Every gridding engine is scalar; nothing dispatches on the ISA. The probe
// only names the best vector ISA this CPU supports, so benchmark reports
// can fingerprint the host they ran on (bench_suite's and perfbench's
// `simd_isa` field).
#pragma once

namespace jigsaw::kernels::simd {

enum class Isa { Scalar = 0, Avx2, Avx512, Neon };

const char* to_string(Isa isa);

/// The best ISA this CPU supports, in order: avx512 (f+dq+vl), avx2 (with
/// fma), neon (aarch64), else scalar.
Isa active();

}  // namespace jigsaw::kernels::simd
