#include "polymg/grid/buffer.hpp"

#include <algorithm>
#include <cstdint>

#include "polymg/common/parallel.hpp"

namespace polymg::grid {

template <typename T>
void TBuffer<T>::fill(T v) {
  std::fill_n(data_.get(), count_, v);
}

template <typename T>
TBuffer<T> TBuffer<T>::clone() const {
  TBuffer<T> b(count_);
  const auto n = static_cast<std::int64_t>(count_);
  if (n < kForkGrain || in_parallel()) {
    if (n > 0) std::memcpy(b.data(), data_.get(), count_ * sizeof(T));
    return b;
  }
  // Parallel first touch: each thread copies (and so page-faults in) a
  // contiguous share of the fresh mapping.
  const std::int64_t chunks = (n + kForkGrain - 1) / kForkGrain;
  note_parallel_region();
  tsan_join_release();  // fork edge: the team sees the caller's writes
#pragma omp parallel
  {
    tsan_join_acquire();
#pragma omp for schedule(static) nowait
    for (std::int64_t c = 0; c < chunks; ++c) {
      const std::int64_t lo = c * kForkGrain;
      const std::int64_t len = std::min(kForkGrain, n - lo);
      std::memcpy(b.data() + lo, data_.get() + lo,
                  static_cast<std::size_t>(len) * sizeof(T));
    }
    tsan_join_release();
  }
  tsan_join_acquire();
  return b;
}

template class TBuffer<double>;
template class TBuffer<float>;

}  // namespace polymg::grid
