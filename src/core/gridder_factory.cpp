#include "core/binning_gridder.hpp"
#include "core/gridder.hpp"
#include "core/jigsaw_gridder.hpp"
#include "core/output_driven_gridder.hpp"
#include "core/serial_gridder.hpp"
#include "core/slice_dice_gridder.hpp"
#include "core/float_gridder.hpp"
#include "core/sparse_gridder.hpp"

namespace jigsaw::core {

GridderOptions resolve_auto(GridderOptions options, bool reused) {
  if (options.kind == GridderKind::Auto) {
    options.kind = reused ? GridderKind::Sparse : GridderKind::Serial;
  }
  return options;
}

template <int D>
std::unique_ptr<Gridder<D>> make_gridder(std::int64_t n,
                                         const GridderOptions& options) {
  if (options.kind == GridderKind::Auto) {
    return make_gridder<D>(n, resolve_auto(options, /*reused=*/false));
  }
  switch (options.kind) {
    case GridderKind::Serial:
      return std::make_unique<SerialGridder<D>>(n, options);
    case GridderKind::OutputDriven:
      return std::make_unique<OutputDrivenGridder<D>>(n, options);
    case GridderKind::Binning:
      return std::make_unique<BinningGridder<D>>(n, options);
    case GridderKind::SliceDice:
      return std::make_unique<SliceDiceGridder<D>>(n, options);
    case GridderKind::Jigsaw:
      return std::make_unique<JigsawGridder<D>>(n, options);
    case GridderKind::Sparse:
      return std::make_unique<SparseGridder<D>>(n, options);
    case GridderKind::FloatSerial:
      return std::make_unique<FloatGridder<D>>(n, options);
    case GridderKind::Auto:
      break;  // resolved above
  }
  throw std::invalid_argument("jigsaw: unknown gridder kind");
}

template std::unique_ptr<Gridder<1>> make_gridder<1>(std::int64_t,
                                                     const GridderOptions&);
template std::unique_ptr<Gridder<2>> make_gridder<2>(std::int64_t,
                                                     const GridderOptions&);
template std::unique_ptr<Gridder<3>> make_gridder<3>(std::int64_t,
                                                     const GridderOptions&);

}  // namespace jigsaw::core
