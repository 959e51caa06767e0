// Owning, aligned flat buffers for grid data.
#pragma once

#include <cstddef>

#include "polymg/common/align.hpp"
#include "polymg/common/error.hpp"

namespace polymg::grid {

/// An owning aligned array of doubles. PolyMG numeric data is double
/// precision throughout, matching the paper's benchmarks.
class Buffer {
public:
  Buffer() = default;
  explicit Buffer(std::size_t count)
      : data_(aligned_array<double>(count)), count_(count) {}

  Buffer(Buffer&&) noexcept = default;
  Buffer& operator=(Buffer&&) noexcept = default;
  Buffer(const Buffer&) = delete;
  Buffer& operator=(const Buffer&) = delete;

  double* data() { return data_.get(); }
  const double* data() const { return data_.get(); }
  std::size_t size() const { return count_; }
  bool allocated() const { return data_ != nullptr; }

  double& operator[](std::size_t i) {
    PMG_DCHECK(i < count_, "buffer index " << i << " >= " << count_);
    return data_[i];
  }
  double operator[](std::size_t i) const {
    PMG_DCHECK(i < count_, "buffer index " << i << " >= " << count_);
    return data_[i];
  }

  void fill(double v);

  /// Deep copy. Above kForkGrain elements and outside a parallel region
  /// the copy is split over the team, so the new buffer's pages are
  /// first touched in parallel.
  Buffer clone() const;

private:
  AlignedPtr<double> data_;
  std::size_t count_ = 0;
};

}  // namespace polymg::grid
