// Bulk grid utilities: fills, norms, comparisons, region copies.
// These are host-side helpers (problem setup, verification, metrics,
// guarded_solve's copy-out between cycles), not the pipeline kernels —
// those live in polymg::runtime.
//
// Every op walks its region one contiguous last-dimension row at a time,
// with the dtype dispatched once per region (DESIGN.md §12). The
// order-independent ops (copy_region, add_region, max_norm, max_diff)
// fork an OpenMP team over the outermost dimension when the region holds
// at least kForkGrain points and the caller is not already inside a
// parallel region; l2_norm (summation order) and fill_region (stateful
// generators) always run serially.
#pragma once

#include <functional>

#include "polymg/grid/buffer.hpp"
#include "polymg/grid/view.hpp"

namespace polymg::grid {

/// Allocate a buffer sized for `domain` and return it zero-filled.
Buffer make_grid(const Box& domain);

/// Float variant: a zero-filled F32 buffer sized for `domain`. View it
/// with View::over(buf.data(), domain), which tags the view F32.
BufferF32 make_grid_f32(const Box& domain);

/// Whether a forking op may open a parallel region. Never is for callers
/// that already run on a team's thread without being inside a region
/// (executor tasks on a 1-thread team), where a fork would break the
/// one-region-per-run invariant.
enum class Fork : bool { Never, Auto };

/// Set every point of `region` (must lie inside the view's addressable
/// area) to f(i, j[, k]), visiting points in row-major order.
void fill_region(View v, const Box& region,
                 const std::function<double(index_t, index_t, index_t)>& f);

/// Set every point of `region` to `value` (rounded once on F32 views).
void fill_region(View v, const Box& region, double value);

/// Copy `region` from src to dst (both views must cover it). The views
/// may differ in dtype: loads promote to double, stores round once —
/// so an F64 -> F32 copy is the canonical demotion and F32 -> F64 the
/// canonical promotion (exact, every float is representable).
/// Same-dtype copies are bit-exact row memcpys.
void copy_region(View dst, View src, const Box& region,
                 Fork fork = Fork::Auto);

/// dst += src over `region`, accumulating in double regardless of
/// either view's storage dtype (the mixed-precision outer correction:
/// a double iterate absorbing a float-path correction loses nothing).
void add_region(View dst, View src, const Box& region);

/// Max-norm of a region.
double max_norm(View v, const Box& region);

/// L2 norm (sqrt of sum of squares) of a region.
double l2_norm(View v, const Box& region);

/// Max absolute difference between two views over a region.
double max_diff(View a, View b, const Box& region);

}  // namespace polymg::grid
