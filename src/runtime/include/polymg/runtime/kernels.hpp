// Point-loop kernels executing lowered function definitions over regions.
//
// One generic tap-loop kernel covers every linear stage (smoothing,
// residual, restriction, interpolation, correction); its inner loop is
// specialized for the access patterns multigrid produces (unit stride,
// ×2 sampling, ÷2 sampling on parity sub-lattices). A stack-bytecode
// evaluator covers non-affine definitions. All kernels operate on Views,
// so the same code runs on full arrays and tile scratchpads.
#pragma once

#include <algorithm>
#include <span>

#include "polymg/grid/view.hpp"
#include "polymg/ir/lowering.hpp"

namespace polymg::runtime {

using grid::Box;
using grid::View;
using poly::index_t;

/// Evaluate a linear form over every point of `region` whose coordinates
/// satisfy x_d ≡ phase_d (mod step_d). `srcs[slot]` binds each source.
void apply_linear(const ir::LinearForm& lf, View out,
                  std::span<const View> srcs, const Box& region,
                  std::array<index_t, 3> step = {1, 1, 1},
                  std::array<index_t, 3> phase = {0, 0, 0});

/// Same contract, interpreting bytecode per point (fallback path and the
/// guarded-execution reference oracle).
void apply_bytecode(const ir::Bytecode& bc, View out,
                    std::span<const View> srcs, const Box& region,
                    std::array<index_t, 3> step = {1, 1, 1},
                    std::array<index_t, 3> phase = {0, 0, 0});

/// Same contract, evaluating a plan-time-compiled register program over
/// whole rows in fixed-width lane batches (the fast path for non-linear
/// definitions). The program must satisfy regprog_fits_engine().
void apply_regprog(const ir::RegProgram& prog, View out,
                   std::span<const View> srcs, const Box& region,
                   std::array<index_t, 3> step = {1, 1, 1},
                   std::array<index_t, 3> phase = {0, 0, 0});

/// Execute one function over `region`: interior points via its lowered
/// definition(s) (dispatching parity cases when piecewise) and the
/// boundary part of the region via the function's boundary rule.
void apply_stage(const ir::FunctionDecl& f, const ir::LoweredFunc& lowered,
                 View out, std::span<const View> srcs, const Box& region);

/// Only the interior part (used by the time-tiling executor, which
/// handles ghost rings once up front).
void apply_stage_interior(const ir::FunctionDecl& f,
                          const ir::LoweredFunc& lowered, View out,
                          std::span<const View> srcs, const Box& region);

/// Decompose region ∖ interior into disjoint slabs and invoke fn on each:
/// peel below/above slabs dimension by dimension; the remaining core is
/// region ∩ interior. Templated over the callback so capturing lambdas at
/// call sites never round-trip through a heap-allocating std::function —
/// this runs on every stage of every executor tile.
template <typename Fn>
void for_each_boundary_slab(const Box& region, const Box& interior, Fn&& fn) {
  Box rest = region;
  for (int d = 0; d < region.ndim(); ++d) {
    const poly::Interval r = rest.dim(d);
    const poly::Interval in = interior.dim(d);
    if (r.lo < in.lo) {
      Box slab = rest;
      slab.dim(d) = poly::Interval{r.lo, std::min(r.hi, in.lo - 1)};
      if (!slab.empty()) fn(slab);
    }
    if (r.hi > in.hi) {
      Box slab = rest;
      slab.dim(d) = poly::Interval{std::max(r.lo, in.hi + 1), r.hi};
      if (!slab.empty()) fn(slab);
    }
    rest.dim(d) = poly::intersect(r, in);
    if (rest.empty()) return;
  }
}

/// Fill / copy helpers on views over a region (boundary rules, scratch
/// copy-out). The grid row walker's serial form: they run inside executor
/// tasks and never fork.
void fill_view(View v, const Box& region, double value);
void copy_view(View dst, View src, const Box& region);

}  // namespace polymg::runtime
