// Thin wrappers over the OpenMP runtime so the rest of the library never
// includes <omp.h> directly and builds (serially) even without OpenMP.
//
// Beyond the basic queries this header carries an in-parallel test (bulk
// helpers fork only from serial code), a process-global count of the
// parallel regions our code has opened (tests diff it to assert which
// calls fork), and the ThreadSanitizer join annotations.
#pragma once

#include <cstdint>

namespace polymg {

/// Host bulk helpers (grid region ops, health scans, residual norms,
/// buffer clones) fork a team only for work of at least this many
/// elements, and only when !in_parallel(): below it, on coarse grids, the
/// fork/join costs more than the memory pass it would split.
inline constexpr std::int64_t kForkGrain = 1 << 15;

/// Number of threads an upcoming parallel region will use.
int max_threads();

/// Calling thread's id inside a parallel region (0 outside).
int thread_id();

/// Number of threads in the current team (1 outside a parallel region).
int team_size();

/// Temporarily override the global thread count (returns previous value).
int set_num_threads(int n);

/// True when called from inside an active parallel region. Bulk helpers
/// use this to run serially inside an executor's slab or tile instead of
/// forking a nested region.
bool in_parallel();

/// Count of parallel regions entered by polymg code since process start.
/// Every `#pragma omp parallel` site in the library reports itself (once
/// per region, not per thread) via note_parallel_region(); tests diff the
/// counter around a call to assert fork/join behaviour.
std::uint64_t parallel_regions_entered();

/// Report entry into a parallel region. Call from every polymg
/// `#pragma omp parallel` site, by one thread only (thread_id() == 0).
void note_parallel_region();

/// ThreadSanitizer cannot see the happens-before edge established by
/// libgomp's join barrier at the end of a parallel region (libgomp is
/// not TSan-instrumented), so worker-thread writes appear to race with
/// the master's later reads or frees. Under -fsanitize=thread each
/// thread calls tsan_join_release() as its last act inside a region and
/// the serial code calls tsan_join_acquire() immediately after it,
/// rebuilding the same edge with TSan-visible atomics. The same pair
/// rebuilds the fork edge of a pooled team: the serial code releases
/// just before the region and each thread acquires first thing inside
/// it, so the team's reads of data the caller just wrote are not
/// reported (and matched against suppressions) one by one. Both are
/// no-ops in normal builds.
#if defined(__SANITIZE_THREAD__)
void tsan_join_release();
void tsan_join_acquire();
#else
inline void tsan_join_release() {}
inline void tsan_join_acquire() {}
#endif

}  // namespace polymg
