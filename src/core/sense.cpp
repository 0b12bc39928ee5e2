#include "core/sense.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/thread_pool.hpp"
#include "obs/obs.hpp"

namespace jigsaw::core {

CoilMaps make_birdcage_maps(std::int64_t n, int coils, double coil_radius,
                            double coil_width) {
  JIGSAW_REQUIRE(n >= 2 && coils >= 1, "need n >= 2 and >= 1 coil");
  CoilMaps cm;
  cm.n = n;
  cm.coils = coils;
  cm.maps.assign(static_cast<std::size_t>(coils),
                 std::vector<c64>(static_cast<std::size_t>(n * n)));

  for (int c = 0; c < coils; ++c) {
    const double ang = 2.0 * std::numbers::pi * c / coils;
    const double cy = coil_radius * std::sin(ang);
    const double cx = coil_radius * std::cos(ang);
    for (std::int64_t iy = 0; iy < n; ++iy) {
      const double y = (static_cast<double>(iy) - n / 2) /
                       static_cast<double>(n);
      for (std::int64_t ix = 0; ix < n; ++ix) {
        const double x = (static_cast<double>(ix) - n / 2) /
                         static_cast<double>(n);
        const double d2 =
            (x - cx) * (x - cx) + (y - cy) * (y - cy);
        const double mag = std::exp(-d2 / (2.0 * coil_width * coil_width));
        // Smooth spatial phase that differs per coil (B1 phase roll).
        const double phase = ang + std::numbers::pi * (x * cx + y * cy);
        cm.maps[static_cast<std::size_t>(c)]
               [static_cast<std::size_t>(iy * n + ix)] =
            c64(mag * std::cos(phase), mag * std::sin(phase));
      }
    }
  }

  // Normalize voxel-wise sum of squares to ~1 (standard map conditioning).
  for (std::int64_t p = 0; p < n * n; ++p) {
    double ss = 0.0;
    for (int c = 0; c < coils; ++c) {
      ss += std::norm(cm.maps[static_cast<std::size_t>(c)]
                             [static_cast<std::size_t>(p)]);
    }
    const double inv = 1.0 / std::sqrt(ss + 1e-12);
    for (int c = 0; c < coils; ++c) {
      cm.maps[static_cast<std::size_t>(c)][static_cast<std::size_t>(p)] *= inv;
    }
  }
  return cm;
}

std::vector<c64> simulate_multicoil(const NufftPlan<2>& plan,
                                    const CoilMaps& maps,
                                    const std::vector<c64>& image) {
  JIGSAW_REQUIRE(maps.n == plan.base_size(), "map/plan size mismatch");
  JIGSAW_REQUIRE(static_cast<std::int64_t>(image.size()) ==
                     plan.image_total(),
                 "image size mismatch");
  std::vector<c64> y;
  y.reserve(static_cast<std::size_t>(maps.coils) * plan.num_samples());
  std::vector<c64> weighted(image.size());
  for (int c = 0; c < maps.coils; ++c) {
    const auto& s = maps.map(c);
    for (std::size_t p = 0; p < image.size(); ++p) weighted[p] = s[p] * image[p];
    const auto yc = plan.forward(weighted);
    y.insert(y.end(), yc.begin(), yc.end());
  }
  return y;
}

SenseOperator::SenseOperator(const NufftPlan<2>& plan,
                             const CoilMaps& maps, unsigned coil_threads,
                             std::span<const double> weights)
    : plan_(plan),
      maps_(maps),
      weights_(weights),
      coil_threads_(std::min<unsigned>(std::max(1u, coil_threads),
                                       static_cast<unsigned>(maps.coils))) {
  JIGSAW_REQUIRE(maps.n == plan.base_size(), "map/plan size mismatch");
  JIGSAW_REQUIRE(!maps.is_identity() || maps.coils == 1,
                 "identity maps are one coil");
  JIGSAW_REQUIRE(weights.empty() || weights.size() == plan.num_samples(),
                 "need one weight per sample");
}

std::vector<c64> SenseOperator::coil_sum(
    const std::function<std::vector<c64>(int)>& transform) const {
  if (maps_.is_identity()) return transform(0);
  const auto pixels = static_cast<std::size_t>(plan_.image_total());
  std::vector<c64> out(pixels, c64{});
  const auto add = [&](int c, const std::vector<c64>& img) {
    const auto& s = maps_.map(c);
    for (std::size_t p = 0; p < pixels; ++p) {
      out[p] += std::conj(s[p]) * img[p];
    }
  };
  if (coil_threads_ <= 1) {
    for (int c = 0; c < maps_.coils; ++c) add(c, transform(c));
    return out;
  }
  std::vector<std::vector<c64>> per_coil(
      static_cast<std::size_t>(maps_.coils));
  ThreadPool(coil_threads_)
      .parallel_for(maps_.coils,
                    [&](std::int64_t begin, std::int64_t end, unsigned) {
                      for (std::int64_t c = begin; c < end; ++c) {
                        per_coil[static_cast<std::size_t>(c)] =
                            transform(static_cast<int>(c));
                      }
                    });
  // Coil-order reduction: bit-exact for any thread count.
  for (int c = 0; c < maps_.coils; ++c) {
    add(c, per_coil[static_cast<std::size_t>(c)]);
  }
  return out;
}

void SenseOperator::weigh(std::vector<c64>& v) const {
  for (std::size_t j = 0; j < weights_.size(); ++j) v[j] *= weights_[j];
}

std::vector<c64> SenseOperator::adjoint(const std::vector<c64>& y,
                                        const Deadline& deadline) const {
  const std::size_t m = plan_.num_samples();
  JIGSAW_REQUIRE(y.size() == static_cast<std::size_t>(maps_.coils) * m,
                 "need coils x M sample values");
  obs::Span span("sense.adjoint");
  obs::add("sense.adjoint_applies", 1);
  obs::add("sense.coil_transforms", static_cast<std::uint64_t>(maps_.coils));
  return coil_sum([&](int c) {
    deadline.check("sense.coil");
    if (maps_.coils == 1 && weights_.empty()) {
      return plan_.adjoint(y, nullptr, deadline);
    }
    const auto coil_m = static_cast<std::ptrdiff_t>(m);
    const auto first = y.begin() + coil_m * c;
    std::vector<c64> wy(first, first + coil_m);
    weigh(wy);
    return plan_.adjoint(wy, nullptr, deadline);
  });
}

std::vector<c64> SenseOperator::gram(const std::vector<c64>& x,
                                     const Deadline& deadline) const {
  obs::Span span("sense.gram");
  obs::add("sense.gram_applies", 1);
  // Each gram apply runs a forward+adjoint pair per coil.
  obs::add("sense.coil_transforms",
           2 * static_cast<std::uint64_t>(maps_.coils));
  return coil_sum([&](int c) {
    deadline.check("sense.coil");
    std::vector<c64> f;
    if (maps_.is_identity()) {
      f = plan_.forward(x, nullptr, deadline);
    } else {
      const auto& s = maps_.map(c);
      std::vector<c64> weighted(x.size());
      for (std::size_t i = 0; i < x.size(); ++i) weighted[i] = s[i] * x[i];
      f = plan_.forward(weighted, nullptr, deadline);
    }
    weigh(f);
    return plan_.adjoint(f, nullptr, deadline);
  });
}

std::vector<c64> cg_sense(const NufftPlan<2>& plan, const CoilMaps& maps,
                          const std::vector<c64>& y,
                          int max_iterations, double tolerance,
                          CgResult* result, unsigned coil_threads,
                          const Deadline& deadline,
                          const std::vector<c64>* warm_start,
                          std::span<const double> weights) {
  obs::Span span("sense.cg_sense");
  // An already-expired deadline returns before any operator construction or
  // transform work — the prompt-timeout contract the serve layer relies on.
  deadline.check("sense.rhs");
  obs::add("sense.cg_solves", 1);
  SenseOperator op(plan, maps, coil_threads, weights);
  const auto b = op.adjoint(y, deadline);
  std::vector<c64> x(b.size(), c64{});
  if (warm_start != nullptr && warm_start->size() == b.size()) {
    x = *warm_start;
    obs::add("cg.warm_starts", 1);
  }
  const CgResult cg = conjugate_gradient(
      [&op, &deadline](const std::vector<c64>& v) {
        return op.gram(v, deadline);
      },
      b, x, max_iterations, tolerance, deadline);
  if (result != nullptr) *result = cg;
  return x;
}

template <int D>
std::vector<c64> iterative_recon(const NufftPlan<D>& plan,
                                 const std::vector<c64>& y,
                                 int max_iterations, double tolerance,
                                 CgResult* result, const Deadline& deadline) {
  return cg_sense(plan, CoilMaps::identity(plan.base_size()), y,
                  max_iterations, tolerance, result, 1, deadline);
}

template std::vector<c64> iterative_recon<2>(const NufftPlan<2>&,
                                             const std::vector<c64>&, int,
                                             double, CgResult*,
                                             const Deadline&);

}  // namespace jigsaw::core
