#include "polymg/runtime/timetile.hpp"

#include <algorithm>

#include "polymg/common/error.hpp"

namespace polymg::runtime {

namespace {

/// Chain steps bind few sources (the previous level plus a couple of
/// time-invariant grids), so per-row-range bindings fit on the stack and
/// the sweep body stays allocation-free.
inline constexpr int kMaxChainSrcs = 8;

/// Apply one time step over the dimension-0 row range [rlo, rhi] (full
/// interior extent in the remaining dimensions).
void step_rows(const ir::FunctionDecl& f, const ir::LoweredFunc& lowered,
               View out, std::span<const View> srcs, index_t rlo,
               index_t rhi) {
  Box region = f.interior;
  region.dim(0) = poly::Interval{std::max(rlo, f.interior.dim(0).lo),
                                 std::min(rhi, f.interior.dim(0).hi)};
  apply_stage_interior(f, lowered, out, srcs, region);
}

}  // namespace

void plain_sweep(std::span<const ChainStep> steps, View bufs[2],
                 std::span<const View> other_srcs) {
  PMG_CHECK(other_srcs.size() <= kMaxChainSrcs,
            "chain binds " << other_srcs.size() << " sources (cap "
                           << kMaxChainSrcs << ")");
  View srcs[kMaxChainSrcs];
  std::copy(other_srcs.begin(), other_srcs.end(), srcs);
  const std::span<const View> srcs_span(srcs, other_srcs.size());
  for (std::size_t t = 0; t < steps.size(); ++t) {
    srcs[0] = bufs[t & 1];
    apply_stage_interior(*steps[t].fn, *steps[t].lowered, bufs[(t + 1) & 1],
                         srcs_span, steps[t].fn->interior);
  }
}

namespace {

void check_chain(std::span<const ChainStep> steps,
                 std::span<const View> other_srcs) {
  const ir::FunctionDecl& first = *steps.front().fn;
  for (const ChainStep& s : steps) {
    // Split tiling shrinks by one row per time step: every step's
    // self-dependence must have radius <= 1 along dimension 0, and all
    // steps must share one domain (the ping-pong pair assumes it).
    const poly::DimAccess& self0 = s.fn->access_for(0).d[0];
    PMG_CHECK(self0.lo >= -1 && self0.hi <= 1,
              "time tiling needs radius-1 self dependence along dim 0, got "
                  << self0 << " in " << s.fn->name);
    PMG_CHECK(s.fn->domain == first.domain,
              "chain steps must share one domain");
  }
  PMG_CHECK(other_srcs.size() <= kMaxChainSrcs,
            "chain binds " << other_srcs.size() << " sources (cap "
                           << kMaxChainSrcs << ")");
}

/// Sweep body: thread-private stack-resident source binding
/// (slot 0 flips per time level) — runs inside an OpenMP region and must
/// not touch the heap.
struct SweepBody {
  std::span<const ChainStep> steps;
  View* bufs;
  std::span<const View> other_srcs;

  void operator()(int t, index_t rlo, index_t rhi) const {
    View srcs[kMaxChainSrcs];
    std::copy(other_srcs.begin(), other_srcs.end(), srcs);
    srcs[0] = bufs[t & 1];
    step_rows(*steps[static_cast<std::size_t>(t)].fn,
              *steps[static_cast<std::size_t>(t)].lowered,
              bufs[(t + 1) & 1],
              std::span<const View>(srcs, other_srcs.size()), rlo, rhi);
  }
};

}  // namespace

void time_tiled_sweep(std::span<const ChainStep> steps, View bufs[2],
                      std::span<const View> other_srcs,
                      const TimeTileParams& params) {
  if (steps.empty()) return;
  check_chain(steps, other_srcs);
  const ir::FunctionDecl& first = *steps.front().fn;
  split_tile_schedule(first.interior.dim(0).lo, first.interior.dim(0).hi,
                      static_cast<int>(steps.size()), params,
                      SweepBody{steps, bufs, other_srcs});
}

}  // namespace polymg::runtime
