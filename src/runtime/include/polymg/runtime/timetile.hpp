// Concurrent-start time tiling for time-iterated stencils (TStencil).
//
// Stands in for Pluto's diamond tiling in the paper's handopt+pluto and
// polymg-dtile-opt+ variants. The transformation is two-phase split
// tiling along the outermost space dimension: a time block of height H
// advances blocks of width W (W >= 2H) through shrinking trapezoids
// (phase 1, all blocks concurrent), then fills the inter-block wedges
// (phase 2, all wedges concurrent). Like diamond tiling it provides
// concurrent start, no redundant computation and no pipelined startup —
// the properties the paper's comparison rests on — at the cost of two
// barriers per time block.
//
// Chain steps may differ per time level (red-black Gauss-Seidel
// alternates half-sweeps) but each must be a Jacobi-style update: step
// t+1 reads only step t (slot 0) within a radius-1 neighbourhood along
// dimension 0, plus time-invariant sources. Values ping-pong between two
// full grids; level ℓ lives in buf[ℓ & 1].
#pragma once

#include <algorithm>
#include <span>

#include "polymg/common/parallel.hpp"
#include "polymg/runtime/kernels.hpp"

namespace polymg::runtime {

struct TimeTileParams {
  index_t H = 4;   ///< time-block height
  index_t W = 32;  ///< block width along dimension 0 (>= 2H)
};

/// Generic split-tiling schedule driver over rows [lo, hi] for `steps`
/// time steps: invokes body(t, rlo, rhi) meaning "advance rows
/// [rlo, rhi] from time level t to t+1". Blocks within a phase run
/// concurrently (body must be thread-safe); row ranges are pre-clamped
/// to [lo, hi]. Both the DSL executor and the hand-optimized
/// handopt+pluto baseline drive their loop bodies through this one
/// schedule. Templated over the body so the capturing lambdas every
/// caller passes stay on the stack — a std::function would heap-allocate
/// per sweep and break the executor's zero-allocation steady state.
template <typename Body>
void split_tile_schedule(index_t lo, index_t hi, int steps,
                         const TimeTileParams& params, const Body& body) {
  const index_t H = std::max<index_t>(1, params.H);
  const index_t W = std::max<index_t>(2 * H, params.W);
  const index_t extent = hi - lo + 1;
  if (extent <= 0 || steps <= 0) return;
  const index_t K = poly::ceildiv(extent, W);  // number of blocks

  for (int t0 = 0; t0 < steps; t0 += static_cast<int>(H)) {
    const int h = std::min<int>(static_cast<int>(H), steps - t0);

    // Phase 1: shrinking trapezoids, one per block, concurrent start.
    // Block k owns rows [b_k, e_k]; at step s it computes
    // [b_k + s·(k>0), e_k - s·(k<K-1)] — the dependence cone stays inside
    // the block, so blocks never exchange data within the phase. Domain
    // edges never shrink: ghost rows are time-invariant.
    note_parallel_region();
#pragma omp parallel for schedule(dynamic)
    for (index_t k = 0; k < K; ++k) {
      const index_t bk = lo + k * W;
      const index_t ek = std::min(bk + W - 1, hi);
      for (int s = 0; s < h; ++s) {
        const index_t rlo = bk + (k > 0 ? s : 0);
        const index_t rhi = ek - (k < K - 1 ? s : 0);
        if (rlo <= rhi) body(t0 + s, rlo, rhi);
      }
    }

    // Phase 2: inter-block wedges. Wedge k (between blocks k and k+1)
    // computes rows [e_k - s + 1, e_k + s] at step s, reading phase-1
    // results at step s-1 on its flanks and its own previous step in the
    // middle. Wedges stay pairwise disjoint because W >= 2H.
    note_parallel_region();
#pragma omp parallel for schedule(dynamic)
    for (index_t k = 0; k < K - 1; ++k) {
      const index_t ek = std::min(lo + (k + 1) * W - 1, hi);
      for (int s = 1; s < h; ++s) {
        const index_t rlo = ek - s + 1;
        const index_t rhi = std::min(ek + s, hi);
        if (rlo <= rhi) body(t0 + s, rlo, rhi);
      }
    }
  }
}

/// One time level of a smoother chain.
struct ChainStep {
  const ir::FunctionDecl* fn = nullptr;
  const ir::LoweredFunc* lowered = nullptr;
};

/// Advance `steps.size()` chain applications (slot 0 of each step is the
/// previous time level) using split tiling. `bufs[0]`/`bufs[1]` are the
/// ping-pong grids over the chain's domain; level 0 must already be in
/// bufs[0] with ghost rings of BOTH buffers initialized. Other sources
/// are bound by `srcs` (slot 0 is overwritten internally each step).
/// After return, level T is in bufs[T & 1].
void time_tiled_sweep(std::span<const ChainStep> steps, View bufs[2],
                      std::span<const View> other_srcs,
                      const TimeTileParams& params);

/// Reference implementation: plain sweeps (used by tests and the naive
/// smoother path). Same buffer contract.
void plain_sweep(std::span<const ChainStep> steps, View bufs[2],
                 std::span<const View> other_srcs);

}  // namespace polymg::runtime
