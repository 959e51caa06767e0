#include "polymg/runtime/pool.hpp"

#include "polymg/common/error.hpp"
#include "polymg/common/fault.hpp"
#include "polymg/common/parallel.hpp"
#include "polymg/obs/metrics.hpp"
#include "polymg/obs/trace.hpp"

namespace polymg::runtime {

namespace {

/// First-touch page placement for a fresh slab: fault pages in with the
/// same static thread partition the executor's parallel loops use, so on
/// a NUMA machine each page lands on the memory node of the thread that
/// will process that part of the grid. Inside a parallel region the
/// calling thread touches the slab serially — no nested fork. Small
/// slabs are not worth a fork either way.
void first_touch_pages(double* p, index_t doubles) {
  constexpr index_t kDoublesPerPage =
      static_cast<index_t>(4096 / sizeof(double));
  if (doubles <= 0) return;
  if (doubles >= (index_t{1} << 16) && !in_parallel()) {
    note_parallel_region();
#pragma omp parallel for schedule(static)
    for (index_t i = 0; i < doubles; i += kDoublesPerPage) {
      p[i] = 0.0;
      tsan_join_release();
    }
    tsan_join_acquire();
  } else {
    for (index_t i = 0; i < doubles; i += kDoublesPerPage) p[i] = 0.0;
  }
  p[doubles - 1] = 0.0;  // the tail page
}

}  // namespace

MemoryPool::MemoryPool() {
  auto& m = obs::Metrics::instance();
  ctr_malloc_ = &m.counter("pool.malloc_calls");
  ctr_reuse_ = &m.counter("pool.reuse_hits");
  g_bytes_live_ = &m.gauge("pool.bytes_live");
}

double* MemoryPool::pool_allocate(index_t doubles) {
  PMG_CHECK(doubles >= 0, "negative allocation");
  if (fault::should_fail(fault::kPoolAlloc)) {
    obs::Metrics::instance().counter("fault.pool_alloc").add(1);
    PMG_TRACE_INSTANT(FaultInjected, -1, -1, /*site=*/0,
                      static_cast<double>(doubles));
    throw Error(ErrorCode::PoolExhausted,
                "injected fault: pooled allocation of " +
                    std::to_string(doubles) + " doubles failed");
  }
  // First fit over the free entries, preferring the tightest one so big
  // buffers stay available for big requests.
  Entry* best = nullptr;
  for (Entry& e : entries_) {
    if (e.free && e.doubles >= doubles &&
        (best == nullptr || e.doubles < best->doubles)) {
      best = &e;
    }
  }
  if (best != nullptr) {
    best->free = false;
    ++reuse_hits_;
    ctr_reuse_->add(1);
    g_bytes_live_->add(static_cast<std::int64_t>(best->doubles) * 8);
    PMG_TRACE_INSTANT(PoolAlloc, -1, -1, /*reused=*/1,
                      static_cast<double>(best->doubles) * 8.0);
    return best->data.get();
  }
  Entry e;
  e.data = aligned_array<double>(static_cast<std::size_t>(doubles));
  first_touch_pages(e.data.get(), doubles);
  e.doubles = doubles;
  e.free = false;
  ++malloc_calls_;
  ctr_malloc_->add(1);
  g_bytes_live_->add(static_cast<std::int64_t>(doubles) * 8);
  PMG_TRACE_INSTANT(PoolAlloc, -1, -1, /*reused=*/0,
                    static_cast<double>(doubles) * 8.0);
  entries_.push_back(std::move(e));
  return entries_.back().data.get();
}

void MemoryPool::pool_deallocate(double* p) {
  for (Entry& e : entries_) {
    if (e.data.get() == p) {
      PMG_CHECK(!e.free, "double pool_deallocate");
      e.free = true;
      g_bytes_live_->add(-static_cast<std::int64_t>(e.doubles) * 8);
      PMG_TRACE_INSTANT(PoolRelease, -1, -1, 0,
                        static_cast<double>(e.doubles) * 8.0);
      return;
    }
  }
  PMG_CHECK(false, "pool_deallocate of unknown pointer");
}

void MemoryPool::clear() {
  std::int64_t live_bytes = 0;
  for (const Entry& e : entries_) {
    if (!e.free) live_bytes += static_cast<std::int64_t>(e.doubles) * 8;
  }
  g_bytes_live_->add(-live_bytes);
  entries_.clear();
}

int MemoryPool::live_buffers() const {
  int n = 0;
  for (const Entry& e : entries_) n += e.free ? 0 : 1;
  return n;
}

index_t MemoryPool::total_doubles() const {
  index_t n = 0;
  for (const Entry& e : entries_) n += e.doubles;
  return n;
}

}  // namespace polymg::runtime
