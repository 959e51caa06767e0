// The compiled execution plan.
//
// compile() turns a Pipeline into a CompiledPipeline: a sequence of
// groups, each with a schedule, an overlapped-tile shape (or a time-tiled
// smoother chain, or plain loops), a storage assignment (scratchpads vs
// full arrays, after the reuse passes), and pool release points. The
// runtime executes this plan; codegen prints its equivalent C.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "polymg/grid/dtype.hpp"
#include "polymg/ir/lowering.hpp"
#include "polymg/ir/pipeline.hpp"
#include "polymg/opt/options.hpp"
#include "polymg/poly/tiling.hpp"

namespace polymg::opt {

using ir::Pipeline;
using poly::Box;

/// Rational per-dimension scale of a stage's index space relative to the
/// group anchor (the stage tiles are partitioned on). A restrict feeding
/// the anchor has rel 2/1 (its fine-grid producer spans twice the tile).
struct RelScale {
  std::array<int, 3> num{1, 1, 1};
  std::array<int, 3> den{1, 1, 1};
};

/// How a group executes.
enum class GroupExec {
  Loops,         ///< per-stage parallel loops over full domains
  OverlapTiled,  ///< one fused overlapped-tile loop nest
  TimeTiled,     ///< split/diamond time tiling of a smoother chain
};

struct StagePlan {
  int func = -1;  ///< pipeline function index
  bool liveout = false;
  RelScale rel;
  /// (position in group, slot in that consumer) of in-group consumers.
  std::vector<std::pair<int, int>> in_group_consumers;

  /// Scratchpad id within the group, or -1. Present whenever the stage
  /// has in-group consumers (they may read tile halo beyond the owned
  /// partition, so even live-outs compute into the scratchpad first and
  /// then write their owned slice to the full array).
  int scratch_buffer = -1;
  /// Full-array id (CompiledPipeline::arrays), or -1. Present for
  /// live-outs and for every stage of an untiled (Loops) group.
  int array = -1;
  std::array<poly::index_t, 3> scratch_extent{};  ///< plan-time max
};

struct GroupPlan {
  GroupExec exec = GroupExec::Loops;
  std::vector<StagePlan> stages;  ///< in schedule order
  int anchor = -1;                ///< position of the anchor stage
  poly::TileGrid tiles;           ///< partition of the anchor domain
  int collapse_depth = 1;         ///< perfect parallel tile-loop depth
  std::vector<poly::index_t> scratch_sizes;  ///< doubles per scratchpad id
  poly::index_t scratch_doubles_total = 0;

  /// Plan-time kernel instance cache (OverlapTiled only): the per-tile
  /// regions of every stage, row-major as [tile * nstages + stage]. The
  /// executor indexes this instead of re-deriving regions per tile;
  /// validate_plan rejects a cache that disagrees with a recomputation.
  std::vector<Box> tile_regions_cache;

  // TimeTiled only:
  poly::index_t dtile_H = 0;  ///< time-block height
  poly::index_t dtile_W = 0;  ///< block width along dim 0
  int time_temp_array = -1;   ///< ping-pong partner of the output array
};

struct ArrayInfo {
  std::string name;
  poly::index_t doubles = 0;
  bool io = false;  ///< program output (never pooled away or reused)
};

struct CompiledPipeline {
  Pipeline pipe;
  CompileOptions opts;
  std::vector<ir::LoweredFunc> lowered;  ///< per function
  std::vector<GroupPlan> groups;         ///< in execution order
  std::vector<int> array_of_func;        ///< func -> array id, -1 if none
  std::vector<ArrayInfo> arrays;
  /// Arrays to pool_deallocate after each group finishes (index parallel
  /// to `groups`).
  std::vector<std::vector<int>> release_after_group;

  /// Storage dtype per function / per external grid, derived by
  /// compile() from opts.precision and the functions' multigrid levels
  /// (empty == all F64, the historical plans). Arrays themselves stay
  /// dtype-agnostic double-unit storage — an F32 function simply uses
  /// the front half of its allocation — so storage reuse and pooling
  /// need no dtype partitioning. Pipeline outputs are always F64; an
  /// external is F32 only when *every* consumer is F32.
  std::vector<grid::DType> func_dtype;
  std::vector<grid::DType> external_dtype;

  grid::DType dtype_of_func(int f) const {
    return static_cast<std::size_t>(f) < func_dtype.size()
               ? func_dtype[static_cast<std::size_t>(f)]
               : grid::DType::F64;
  }
  grid::DType dtype_of_external(int e) const {
    return static_cast<std::size_t>(e) < external_dtype.size()
               ? external_dtype[static_cast<std::size_t>(e)]
               : grid::DType::F64;
  }

  /// Keepalive for the dlopen'd native-kernel module whose function
  /// pointers are bound into `lowered[..].defs[..].jit` (set by
  /// codegen::jit_specialize; null when no kernels are bound). Opaque
  /// here so opt does not depend on codegen; copies of the plan share
  /// the module.
  std::shared_ptr<const void> jit_module;

  // Optimization-report statistics.
  int scratch_buffers_without_reuse = 0;
  int scratch_buffers_with_reuse = 0;
  poly::index_t array_doubles_without_reuse = 0;
  poly::index_t array_doubles_with_reuse = 0;

  const ir::FunctionDecl& func(int i) const { return pipe.funcs[i]; }

  /// Group/storage report in the spirit of the paper's Fig. 6/7 dumps.
  std::string dump() const;
};

/// Content hash over everything that determines the plan's *kernel
/// code*: per function, the dimensionality, parity case count and each
/// case's bytecode (op kinds, constant bit patterns, load slots and
/// sampled-index maps) plus its linearizability. Two plans with equal
/// fingerprints compute identical per-point expressions, so they can
/// share one compiled kernel module — tile sizes, grouping and schedule
/// are deliberately not hashed (an autotune sweep hits one cache entry).
std::uint64_t kernel_fingerprint(const CompiledPipeline& plan);

/// Analysis of a (candidate) group: schedule, relative scales, per-stage
/// tile-extent bounds and the redundant-computation ratio. Used both by
/// the grouping heuristic (to accept/reject merges) and by the final
/// planner (to size scratchpads).
struct GroupAnalysis {
  bool valid = false;
  std::string reject_reason;
  std::vector<int> order;  ///< funcs, schedule order (ascending index)
  std::vector<RelScale> rel;
  std::vector<std::vector<std::pair<int, int>>> in_group_consumers;
  std::vector<bool> liveout;
  std::vector<std::array<poly::index_t, 3>> extent;  ///< tile extents
  double max_redundancy = 0.0;
};

GroupAnalysis analyze_group(
    const Pipeline& pipe, const std::vector<int>& funcs,
    const std::vector<std::vector<std::pair<int, int>>>& consumers,
    const std::vector<bool>& is_liveout_hint, const poly::TileSizes& tile);

/// Per-tile region computation used by the overlapped-tile executor (and
/// by tests). `regions[i]` receives the box stage i must compute for
/// `anchor_tile`; the walk mirrors the extent bounds of analyze_group.
void tile_regions(const Pipeline& pipe, const GroupPlan& g,
                  const Box& anchor_tile, std::vector<Box>& regions);

/// Disjoint partition slice a live-out stage owns for one anchor tile:
/// [f(lo), f(hi+1)-1] per dimension with f(x) = floor(num·x/den),
/// extended to the stage's domain bounds at the partition edges so ghost
/// rings are written exactly once.
Box owned_region(const ir::FunctionDecl& f, const RelScale& rel,
                 const Box& anchor_tile, const Box& anchor_domain);

}  // namespace polymg::opt
