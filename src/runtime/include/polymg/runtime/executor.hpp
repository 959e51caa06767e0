// Executor — runs a CompiledPipeline.
//
// This is the runtime half of what PolyMG's ISL code generation produces:
// group-by-group execution with (a) plain parallel loops, (b) fused
// overlapped-tile loop nests using per-thread scratchpads, or (c)
// split/diamond time tiling for smoother chains; full arrays served by a
// pooled allocator (or per-cycle allocations for the variants without
// pooling) with pool_deallocate emitted at each array's last-use group.
//
// The schedule is the one the paper's generated code (Fig. 8) uses: groups
// run strictly in order, each as one fork/join — a parallel loop over
// dimension-0 slabs per Loops stage, over anchor tiles for an overlap
// group, over split-tiling blocks for a time-tiled chain. Loops stages
// below the plan's serial grain run on the calling thread instead. The
// executor's own regions fork the thread capacity sized at construction —
// the OpenMP thread count then, capped at the plan's widest group — or
// fewer, so an executor built at one thread count may run at any other.
//
// Outputs are bit-exact across thread counts: slabs and tiles never share
// a written point and the executor performs no cross-point reductions,
// so the partition cannot change any value.
//
// Everything derivable from the plan alone — source bindings, scratchpad
// offsets, time-tile chains, release lists, per-thread workspaces — is
// resolved once at construction, so a steady-state run() performs no heap
// allocation and no per-tile re-derivation (the per-tile regions come
// from the plan's tile_regions_cache).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "polymg/common/cancel.hpp"
#include "polymg/grid/buffer.hpp"
#include "polymg/obs/perf.hpp"
#include "polymg/obs/report.hpp"
#include "polymg/opt/compile.hpp"
#include "polymg/runtime/pool.hpp"
#include "polymg/runtime/timetile.hpp"

namespace polymg::obs {
class Counter;
class Histogram;
class PerfCounters;
}

namespace polymg::runtime {

class Executor {
public:
  explicit Executor(opt::CompiledPipeline plan);

  /// Execute one pipeline invocation (one multigrid cycle). `externals`
  /// binds the program input grids in pipeline order; each view must
  /// cover the declared domain. Output arrays remain valid until the
  /// next run() (they are never pooled away mid-run and never freed in
  /// non-pooled mode until the next invocation).
  void run(std::span<const View> externals);

  /// View of the i-th pipeline output (pipe.outputs[i]) after run().
  View output_view(int i) const;

  const opt::CompiledPipeline& plan() const { return plan_; }
  const MemoryPool& pool() const { return pool_; }

  /// Attach a cooperative cancellation token (non-owning; the token must
  /// outlive every run, nullptr detaches). run() polls it at every granule
  /// — a tile, a slab, a stage, a group — and on a trip skips the
  /// remaining kernel bodies; run() throws Error(DeadlineExceeded or
  /// Cancelled) after the parallel region exits: OpenMP forbids throwing
  /// across a region, so the abort is a flag the granules check, never an
  /// exception in flight. An aborted run leaves outputs unspecified
  /// (callers keep their last good iterate and must not copy out) but
  /// leaves the executor itself reusable — the next run() resets all pool
  /// state. Set/clear only between runs.
  void set_cancel_token(const CancelToken* token) { cancel_ = token; }
  const CancelToken* cancel_token() const { return cancel_; }

  /// Progress epoch: a relaxed-atomic counter bumped at every granule
  /// boundary (tile, slab, stage, group, time-tiled sweep — the same
  /// places the abort poll runs). A frozen epoch while a run is in flight
  /// means the executor has stopped making progress; the service watchdog
  /// samples it to detect stalls. Monotone within and across runs; never
  /// reset.
  std::uint64_t progress_epoch() const {
    return progress_epoch_.load(std::memory_order_relaxed);
  }
  /// Mirror every epoch bump into an external heartbeat (non-owning,
  /// nullptr detaches; must outlive every run). The service points this
  /// at the worker's heartbeat so the supervisor watches one counter per
  /// worker no matter which executor (session, ladder rung, reference)
  /// is doing the work. Set or clear only between runs.
  void set_progress_sink(std::atomic<std::uint64_t>* sink) {
    progress_sink_ = sink;
  }
  std::atomic<std::uint64_t>* progress_sink() const { return progress_sink_; }

  /// Request span context: the service ticket on whose behalf subsequent
  /// runs execute (-1 = none). Stamped into TraceEvent::req on every
  /// event the executor records — group, tile, slab and sweep spans and
  /// scratchpad binds — so a Perfetto export nests kernel spans under the
  /// request that caused them. A plain member rather than a thread_local
  /// because OpenMP team threads are not the submitting thread: every
  /// team thread reads the member set before run(). Set or clear only
  /// between runs, like the cancel token.
  void set_trace_request(std::int32_t req) { trace_req_ = req; }
  std::int32_t trace_request() const { return trace_req_; }

  /// Arm hardware-counter sampling (cycles, instructions, LLC misses via
  /// perf_event_open) around each group execution, for the run_report()
  /// roofline table. Counters follow the calling thread only, so
  /// attribution is meaningful when the executor runs single-threaded.
  /// Returns false when the kernel refuses perf_event_open (containers,
  /// paranoid settings, non-Linux); attribution stays armed and
  /// run_report() emits the model-only roofline rows — callers skip the
  /// hw columns, they do not fail (DESIGN.md §14).
  bool enable_perf_attribution();
  void disable_perf_attribution();
  bool perf_attribution_enabled() const { return perf_ != nullptr; }

  /// Peak bytes of full-array storage held during the last run.
  index_t peak_array_doubles() const { return peak_array_doubles_; }

  // --- Timing counters (accumulated across run() calls). ---
  /// Wall seconds spent in each group, index parallel to plan().groups.
  const std::vector<double>& group_seconds() const { return group_seconds_; }
  /// Seconds attributed to each function's stage. Loops groups time every
  /// stage individually; tiled groups fuse stages, so their whole group
  /// time lands on the anchor stage.
  const std::vector<double>& stage_seconds() const { return stage_seconds_; }
  /// Completed run() invocations since construction / reset_timers().
  std::int64_t runs_timed() const { return runs_timed_; }
  /// Reset every accumulated telemetry counter: per-group and per-stage
  /// seconds, the hardware-counter sums and the run count.
  void reset_timers();

  /// Per-group / per-stage time attribution plus a metrics snapshot,
  /// ready for obs::RunReport::render() (convergence telemetry is merged
  /// in by solvers::attach_convergence).
  obs::RunReport run_report() const;

private:
  /// Plan-time-resolved origin of one source slot.
  struct SourceBind {
    enum Kind : std::uint8_t { kExternal, kScratch, kArray };
    Kind kind = kExternal;
    int index = -1;  ///< external slot / stage position / array id
    int func = -1;   ///< producing function (kArray: the view's shape)
  };

  /// Per-thread overlap-tile workspace, sized once at construction.
  struct Workspace {
    std::vector<Box> regions;        // fallback when a plan has no cache
    std::vector<View> scratch_views;
    std::vector<View> srcs;
  };

  /// View over a live full array, shaped by `shape` and tagged with the
  /// storage dtype the plan assigned to `func` (arrays themselves are
  /// dtype-agnostic double-unit storage; the tag drives every kernel's
  /// load/store width).
  View array_view(int array_id, const ir::FunctionDecl& shape,
                  int func) const;
  View resolve_bind(const SourceBind& b, std::span<const View> externals,
                    std::span<const View> scratch_views) const;

  void ensure_array(int array_id);
  void release_arrays(const std::vector<int>& ids);

  /// Threads a region may fork: the run-time OpenMP thread count, capped
  /// at the per-thread workspaces and arenas sized at construction.
  /// Kernels index those by thread_id(), so an executor built at fewer
  /// threads than it later runs at must not fork past its capacity.
  /// The Loops and overlap regions all fork this many, so libgomp does
  /// not resize the team between them (shrinking a team ends surplus
  /// threads; growing it creates them).
  int team_threads() const;

  /// Poll the cancellation token. True once the run is aborting: the
  /// caller skips its kernel body. Monotonic within a run — after the
  /// first trip every poll answers true without touching the clock. With
  /// no token attached this is one relaxed load.
  bool poll_abort();
  /// Throw the typed error recorded by poll_abort(); called by run()
  /// after the parallel region has exited. Resets nothing — the next
  /// run() does.
  void raise_abort();

  /// Execute every group in order, one fork/join each.
  void run_groups(std::span<const View> externals);
  void run_loops_group(int gi, std::span<const View> externals);
  void run_overlap_group(int gi, std::span<const View> externals);
  void run_timetile_group(int gi, std::span<const View> externals);

  /// One overlapped tile / one Loops slab on team thread `tid`.
  void exec_overlap_tile(int gi, index_t ti,
                         std::span<const View> externals, int tid);
  void exec_loops_part(int gi, int p, const Box& part,
                       std::span<const View> externals, int tid);

  opt::CompiledPipeline plan_;
  MemoryPool pool_;
  std::vector<double*> array_ptr_;        // per array id, null until live
  std::vector<grid::Buffer> unpooled_;    // per array id (non-pooled mode)
  std::vector<std::vector<double>> arena_;  // per-thread scratch arena
  index_t arena_doubles_ = 0;
  index_t peak_array_doubles_ = 0;
  index_t live_array_doubles_ = 0;

  // --- Construction-time caches (steady state allocates nothing). ---
  std::vector<std::vector<std::vector<SourceBind>>> binds_;  // [g][stage][slot]
  std::vector<std::vector<int>> releasable_after_group_;     // io filtered out
  std::vector<std::vector<index_t>> scratch_off_;  // [g]: arena prefix sums
  std::vector<std::vector<ChainStep>> chain_;      // [g] (TimeTiled only)
  std::vector<Workspace> workspaces_;              // per thread
  std::vector<View> stage_srcs_;  // TimeTiled source scratch

  // --- Cooperative cancellation (reset at each run() entry). ---
  const CancelToken* cancel_ = nullptr;  ///< non-owning; null = no token
  /// 0 = running, 1 = deadline tripped, 2 = cancelled. Written once per
  /// aborted run (CAS), read by every poll.
  std::atomic<std::uint8_t> abort_{0};

  std::vector<double> group_seconds_;
  std::vector<double> stage_seconds_;
  std::int64_t runs_timed_ = 0;

  /// Request span context stamped into every trace event (-1 = none).
  std::int32_t trace_req_ = -1;

  /// Progress epoch (see progress_epoch()): bumped relaxed at every
  /// granule boundary, optionally mirrored into an external heartbeat.
  std::atomic<std::uint64_t> progress_epoch_{0};
  std::atomic<std::uint64_t>* progress_sink_ = nullptr;  ///< non-owning

  // --- Hardware-counter attribution (enable_perf_attribution). All
  // --- accumulators are per group, covering perf_runs_ sampled runs.
  std::unique_ptr<obs::PerfCounters> perf_;
  std::vector<std::int64_t> perf_cycles_;
  std::vector<std::int64_t> perf_instr_;
  std::vector<std::int64_t> perf_llc_;
  std::vector<double> perf_seconds_;
  std::int64_t perf_runs_ = 0;

  /// Per-group latency histograms ("executor.group_ns.g<i>"), resolved
  /// at construction like the counters: recording one group execution is
  /// two relaxed atomic adds, inside the zero-allocation envelope.
  std::vector<obs::Histogram*> hist_group_ns_;

  // --- obs metrics handles, resolved once at construction so the hot
  // --- paths touch only the relaxed atomics behind them.
  obs::Counter* ctr_tiles_ = nullptr;        // executor.tiles
  obs::Counter* ctr_slabs_ = nullptr;        // executor.slabs
  obs::Counter* ctr_runs_ = nullptr;         // executor.runs
  obs::Counter* ctr_regions_cached_ = nullptr;    // executor.tile_regions_cached
  obs::Counter* ctr_regions_recomputed_ = nullptr;
  obs::Counter* ctr_aborted_runs_ = nullptr;      // executor.aborted_runs
};

}  // namespace polymg::runtime
