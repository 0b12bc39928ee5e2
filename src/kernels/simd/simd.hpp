// Runtime ISA dispatch for the SIMD gridding micro-kernels.
//
// The per-ISA translation units (kernels_avx2.cpp, kernels_avx512.cpp,
// kernels_neon.cpp) are compiled with the matching -m flags; the rest of the
// tree stays at the baseline architecture and reaches vector code only
// through the function-pointer table returned by table(). The active ISA is
// resolved once, at first use: the best compiled-in ISA this CPU supports,
// overridable with the JIGSAW_SIMD environment variable or force() (the
// CLI's --simd flag). Accepted modes: auto|scalar|avx2|avx512|neon.
//
// The scalar table is always available, so a request for a SIMD engine
// variant still executes (at scalar speed) on a host without vector units.
#pragma once

#include <string>

#include "kernels/lut.hpp"
#include "kernels/simd/kernel_table.hpp"

namespace jigsaw::kernels::simd {

enum class Isa { Scalar = 0, Avx2, Avx512, Neon };

const char* to_string(Isa isa);

/// A translation unit for this ISA exists in the binary (architecture
/// match); says nothing about the CPU.
bool compiled(Isa isa);

/// Compiled in AND executable on this CPU.
bool supported(Isa isa);

/// Comma-separated list of the ISAs usable on this host, e.g.
/// "scalar, avx2, avx512".
std::string supported_names();

/// The ISA the micro-kernels currently dispatch to. Resolution order:
/// force() override, then $JIGSAW_SIMD, then best-supported detection.
Isa active();

/// Override the active ISA. "auto" (or "") re-runs detection; otherwise one
/// of scalar|avx2|avx512|neon. Throws std::invalid_argument with a one-line
/// diagnostic for an unknown mode ("unknown simd mode '<m>', valid: ...")
/// or a mode this host cannot execute ("simd mode '<m>' not supported on
/// this host, supported: ..."). Call at startup, before gridding threads
/// exist.
void force(const std::string& mode);

/// Micro-kernel table of the active ISA.
const KernelTable& table();

/// Table of a specific ISA (tests force cross-ISA comparisons with this).
/// Throws std::invalid_argument when the ISA is not usable on this host.
const KernelTable& table(Isa isa);

/// Gather view of a KernelLut for the vectorized weight path.
LutView lut_view(const KernelLut& lut);

}  // namespace jigsaw::kernels::simd
