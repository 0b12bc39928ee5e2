// Uniform (oversampled) target grid: a d-dimensional torus of side G with
// complex values, stored row-major (last dimension fastest).
#pragma once

#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"
#include "fft/plan_cache.hpp"

namespace jigsaw::core {

template <int D>
class Grid {
 public:
  Grid() : size_(0) {}
  explicit Grid(std::int64_t size)
      : size_(size),
        data_(static_cast<std::size_t>(pow_dim<D>(size)), c64{}) {
    JIGSAW_REQUIRE(size >= 1, "grid side must be >= 1");
  }

  /// A grid whose storage is borrowed from fft::ScratchPool::global() and
  /// handed back when the grid dies: the per-call work grid of a shared
  /// plan. Values start unspecified; callers clear() it or write every
  /// point. (A copy of a leased grid hands its own buffer to the pool too.)
  static Grid leased(std::int64_t size) {
    Grid grid;
    grid.size_ = size;
    grid.data_ = fft::ScratchPool::global().acquire(
        static_cast<std::size_t>(pow_dim<D>(size)));
    grid.data_.resize(static_cast<std::size_t>(pow_dim<D>(size)));
    grid.leased_ = true;
    return grid;
  }

  Grid(const Grid&) = default;
  Grid(Grid&&) noexcept = default;  // the moved-from vector is empty
  Grid& operator=(const Grid&) = default;
  Grid& operator=(Grid&&) noexcept = default;
  ~Grid() {
    if (leased_) fft::ScratchPool::global().release(std::move(data_));
  }

  std::int64_t size() const { return size_; }
  std::int64_t total() const { return static_cast<std::int64_t>(data_.size()); }

  c64* data() { return data_.data(); }
  const c64* data() const { return data_.data(); }

  c64& operator[](std::int64_t lin) {
    return data_[static_cast<std::size_t>(lin)];
  }
  const c64& operator[](std::int64_t lin) const {
    return data_[static_cast<std::size_t>(lin)];
  }

  /// Access by d-dimensional index (must be in [0, G)^d).
  c64& at(const Index<D>& idx) {
    return data_[static_cast<std::size_t>(linear_index<D>(idx, size_))];
  }
  const c64& at(const Index<D>& idx) const {
    return data_[static_cast<std::size_t>(linear_index<D>(idx, size_))];
  }

  /// Toroidal access: indices are wrapped into [0, G).
  c64& at_wrapped(Index<D> idx) {
    for (int d = 0; d < D; ++d) {
      idx[static_cast<std::size_t>(d)] =
          pos_mod(idx[static_cast<std::size_t>(d)], size_);
    }
    return at(idx);
  }

  void clear() { std::fill(data_.begin(), data_.end(), c64{}); }

 private:
  std::int64_t size_;
  std::vector<c64> data_;
  bool leased_ = false;
};

}  // namespace jigsaw::core
