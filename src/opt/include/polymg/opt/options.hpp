// Compilation options — the knobs the paper's evaluation sweeps.
#pragma once

#include <cstdint>
#include <string>

#include "polymg/poly/tiling.hpp"

namespace polymg::opt {

using poly::index_t;

/// The execution variants compared throughout §4 of the paper.
enum class Variant {
  Naive,         ///< polymg-naive: per-stage parallel loops, no tiling/fusion
  Opt,           ///< polymg-opt: fusion + overlapped tiling + scratchpads
  OptPlus,       ///< polymg-opt+: Opt + all storage optimizations
  DtileOptPlus,  ///< polymg-dtile-opt+: OptPlus with diamond/split time
                 ///< tiling for pre-/post-smoothing chains
};

std::string to_string(Variant v);

/// Storage precision of the compiled pipeline's stages.
///
/// `Double` is the historical behavior: every stage stores binary64 and
/// results are bit-identical to pre-mixed-precision builds. `Mixed`
/// stores the fine-grid stages (levels within `PrecisionPolicy::
/// crossover` of the finest) as float — halving hot-path bandwidth on
/// the memory-bound smoothing/residual/restriction stages — while
/// coarse levels, pipeline outputs and every accumulation stay double.
/// `Float` stores every internal stage as float (outputs stay double).
/// Kernel arithmetic is double in all modes; a float stage costs one
/// rounding per stored point.
enum class Precision : std::uint8_t { Double, Mixed, Float };

std::string to_string(Precision p);

/// Per-level precision assignment carried by CompileOptions into the
/// plan (CompiledPipeline::func_dtype / external_dtype) and validated
/// by opt::validate.
struct PrecisionPolicy {
  Precision mode = Precision::Double;
  /// Mixed only: how many of the finest levels run in float storage
  /// (1 = just the finest grid). Levels below the crossover — and any
  /// function with no level assigned — stay double.
  int crossover = 2;

  bool mixed() const { return mode != Precision::Double; }
  bool operator==(const PrecisionPolicy&) const = default;
};

/// Whether plans may bind natively JIT-compiled stencil kernels.
/// `Auto` (the default) uses the JIT when a system compiler is
/// available and falls back to the register engine / interpreter
/// silently otherwise; `On` still falls back gracefully but warns on
/// stderr when specialization fails; `Off` never invokes the compiler.
enum class JitMode : std::uint8_t { Off, Auto, On };

std::string to_string(JitMode m);

struct CompileOptions {
  Variant variant = Variant::OptPlus;

  /// Overlapped tile edge sizes per dimension (outermost first). Zeros
  /// select the defaults the paper's autotuner centers on (2-d: 32×256,
  /// 3-d: 8×8×128).
  poly::TileSizes tile{0, 0, 0};

  /// Grouping limit: maximum number of DAG nodes merged into one group
  /// (the autotuner sweeps five values of this).
  int group_limit = 8;

  /// Maximum tolerated redundant-computation fraction per dimension when
  /// merging groups: a merge is rejected if any stage's required tile
  /// extent exceeds (1 + threshold) × its fair share.
  double overlap_threshold = 1.0;

  // --- storage optimizations (§3.2); OptPlus turns all of them on,
  // --- individual flags support the Fig. 11b breakdown.
  bool intra_group_reuse = true;  ///< scratchpad reuse within a group
  bool inter_group_reuse = true;  ///< full-array reuse across groups
  bool pooled_allocation = true;  ///< pooled allocator across cycles
  bool collapse = true;           ///< collapse(d) on perfect tile loops

  /// Row-batched register engine for non-linear definitions. Reference
  /// (oracle) plans turn this off so they keep interpreting bytecode
  /// point-wise — an implementation independent of the engine they check.
  bool register_engine = true;

  /// ± size threshold (in elements per dimension) when classifying
  /// scratchpads into storage classes (§3.2.1).
  index_t storage_class_slack = 8;

  /// Split/diamond time-tiling parameters for DtileOptPlus (and the
  /// standalone smoother benchmarks): time-block height and block width
  /// along the outermost dimension (width 0 derives max(2·height, 32)).
  index_t dtile_time_block = 4;
  index_t dtile_width = 0;

  /// Native kernel specialization (codegen::jit_specialize). Reference
  /// (oracle) plans force this off so guarded cross-checks keep an
  /// execution path independent of the emitted code. The process-wide
  /// codegen::set_jit_mode(Off) override (the --jit=off bench flag)
  /// wins over any per-plan setting.
  JitMode jit = JitMode::Auto;

  /// Storage-precision assignment (Double = bit-identical historical
  /// behavior). compile() derives per-function dtypes from this policy
  /// and the functions' multigrid levels; guarded_solve adds an outer
  /// defect-correction loop and an oracle cross-check when the policy
  /// is not Double.
  PrecisionPolicy precision;

  /// Grain-size fast path: a Loops stage whose domain holds fewer points
  /// than this runs on the calling thread instead of forking a team —
  /// coarse multigrid levels are a handful of rows and the fork/join
  /// costs more than the smooth itself.
  index_t serial_grain = 4096;

  /// Default options for one of the paper's variants at a grid
  /// dimensionality.
  static CompileOptions for_variant(Variant v, int ndim);

  /// Resolved tile sizes (fills in the per-ndim defaults).
  poly::TileSizes resolved_tile(int ndim) const;
};

}  // namespace polymg::opt
