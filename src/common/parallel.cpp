#include "polymg/common/parallel.hpp"

#include <atomic>

#ifdef _OPENMP
#include <omp.h>
#endif

namespace polymg {

namespace {
std::atomic<std::uint64_t> g_parallel_regions{0};
}  // namespace

int max_threads() {
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

int thread_id() {
#ifdef _OPENMP
  return omp_get_thread_num();
#else
  return 0;
#endif
}

int team_size() {
#ifdef _OPENMP
  return omp_get_num_threads();
#else
  return 1;
#endif
}

int set_num_threads(int n) {
#ifdef _OPENMP
  const int prev = omp_get_max_threads();
  if (n > 0) omp_set_num_threads(n);
  return prev;
#else
  (void)n;
  return 1;
#endif
}

bool in_parallel() {
#ifdef _OPENMP
  return omp_in_parallel() != 0;
#else
  return false;
#endif
}

std::uint64_t parallel_regions_entered() {
  return g_parallel_regions.load(std::memory_order_relaxed);
}

void note_parallel_region() {
  g_parallel_regions.fetch_add(1, std::memory_order_relaxed);
}

#if defined(__SANITIZE_THREAD__)
namespace {
// A single counter is enough: every release RMW joins the calling
// thread's clock into the variable's sync clock, and an acquire load
// picks up the union of all of them.
std::atomic<std::uint64_t> g_tsan_join{0};
}  // namespace

void tsan_join_release() {
  g_tsan_join.fetch_add(1, std::memory_order_release);
}

void tsan_join_acquire() {
  (void)g_tsan_join.load(std::memory_order_acquire);
}
#endif

}  // namespace polymg
