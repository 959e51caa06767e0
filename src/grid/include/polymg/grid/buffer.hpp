// Owning, aligned, typed flat buffers for grid data.
#pragma once

#include <cstddef>
#include <cstring>

#include "polymg/common/align.hpp"
#include "polymg/common/error.hpp"
#include "polymg/grid/dtype.hpp"

namespace polymg::grid {

/// An owning aligned array of T (float or double). PolyMG numeric data
/// defaults to double precision, matching the paper's benchmarks; the
/// mixed-precision layer stores fine-grid intermediates as float while
/// every kernel still accumulates in double. Explicit instantiations
/// for both element types live in buffer.cpp.
template <typename T>
class TBuffer {
public:
  static_assert(sizeof(T) == sizeof(float) || sizeof(T) == sizeof(double),
                "grid buffers hold IEEE float or double elements");

  TBuffer() = default;
  explicit TBuffer(std::size_t count)
      : data_(aligned_array<T>(count)), count_(count) {}

  TBuffer(TBuffer&&) noexcept = default;
  TBuffer& operator=(TBuffer&&) noexcept = default;
  TBuffer(const TBuffer&) = delete;
  TBuffer& operator=(const TBuffer&) = delete;

  T* data() { return data_.get(); }
  const T* data() const { return data_.get(); }
  std::size_t size() const { return count_; }
  bool allocated() const { return data_ != nullptr; }

  static constexpr DType dtype() {
    return sizeof(T) == sizeof(float) ? DType::F32 : DType::F64;
  }

  T& operator[](std::size_t i) {
    PMG_DCHECK(i < count_, "buffer index " << i << " >= " << count_);
    return data_[i];
  }
  T operator[](std::size_t i) const {
    PMG_DCHECK(i < count_, "buffer index " << i << " >= " << count_);
    return data_[i];
  }

  void fill(T v);

  /// Deep copy. Above kForkGrain elements and outside a parallel region
  /// the copy is split over the team, so the new buffer's pages are
  /// first touched in parallel.
  TBuffer clone() const;

private:
  AlignedPtr<T> data_;
  std::size_t count_ = 0;
};

extern template class TBuffer<double>;
extern template class TBuffer<float>;

/// The historical name: a double buffer (every pre-existing call site
/// compiles unchanged).
using Buffer = TBuffer<double>;
using BufferF32 = TBuffer<float>;

}  // namespace polymg::grid
