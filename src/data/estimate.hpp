// Coil-sensitivity estimation and root-sum-of-squares combination for
// ingested multi-coil data (no calibration scan required).
//
// The estimate is the classic low-resolution one (Pruessmann-style, also
// what fastMRI baselines use): coil sensitivities are smooth, so each
// coil's map is proportional to its image seen at low resolution. We
// apodize the k-space samples with a Gaussian low-pass, run the adjoint
// NuFFT per coil (density-corrected when weights are available), and
// normalize by the root-sum-of-squares across coils so sum_c |S_c|^2 ~ 1
// where the object has support.
#pragma once

#include <vector>

#include "core/nufft.hpp"
#include "core/sense.hpp"

namespace jigsaw::data {

struct CoilEstimateOptions {
  double lowpass_radius = 0.08;  // Gaussian sigma in torus units — keeps
                                 // only the calibration-region frequencies
  double epsilon = 0.05;         // RSS floor, relative to the peak RSS value
                                 // (regularizes S_c where the object is dark)
};

/// Estimate coil maps from multi-coil k-space `y` (coils x M, sampled at
/// `plan`'s coordinates). `dcf` is optional per-sample density weights
/// (empty = uniform). Throws std::invalid_argument on shape mismatch.
core::CoilMaps estimate_coil_maps(
    const core::NufftPlan<2>& plan, const std::vector<std::vector<c64>>& y,
    const std::vector<double>& dcf = {},
    const CoilEstimateOptions& options = {});

/// Root-sum-of-squares combination: out[p] = sqrt(sum_c |images[c][p]|^2).
/// The model-free multi-coil combine — no maps needed, magnitude only.
std::vector<double> rss_combine(const std::vector<std::vector<c64>>& images);

}  // namespace jigsaw::data
