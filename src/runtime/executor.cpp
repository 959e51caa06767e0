#include "polymg/runtime/executor.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>

#include "polymg/codegen/jit.hpp"
#include "polymg/common/error.hpp"
#include "polymg/common/fault.hpp"
#include "polymg/common/parallel.hpp"
#include "polymg/common/timer.hpp"
#include "polymg/obs/histogram.hpp"
#include "polymg/obs/metrics.hpp"
#include "polymg/obs/perf.hpp"
#include "polymg/obs/trace.hpp"

namespace polymg::runtime {

using opt::GroupExec;
using opt::GroupPlan;
using opt::StagePlan;

namespace {

/// Chunks an overlap group's parallel tile loop deals out: every tile
/// under collapse(d), else the outermost tile rows.
index_t parallel_chunks(const GroupPlan& g) {
  return g.collapse_depth > 1 ? g.tiles.total : g.tiles.ntiles[0];
}

/// Threads the plan's widest group can keep busy. Loops stages above the
/// serial grain and time-tiled sweeps split as finely as any team does;
/// an overlap group is as wide as its tile chunks.
int parallel_width(const opt::CompiledPipeline& plan) {
  constexpr int kAnyTeam = std::numeric_limits<int>::max();
  index_t width = 1;
  for (const GroupPlan& g : plan.groups) {
    switch (g.exec) {
      case GroupExec::OverlapTiled:
        width = std::max(width, parallel_chunks(g));
        break;
      case GroupExec::TimeTiled:
        return kAnyTeam;
      case GroupExec::Loops:
        for (const StagePlan& sp : g.stages) {
          if (plan.pipe.funcs[sp.func].domain.count() >=
              plan.opts.serial_grain) {
            return kAnyTeam;
          }
        }
        break;
    }
  }
  return static_cast<int>(std::min<index_t>(width, kAnyTeam));
}

}  // namespace

Executor::Executor(opt::CompiledPipeline plan) : plan_(std::move(plan)) {
  // Bind natively compiled kernels before anything else resolves: all
  // compile/dlopen work happens here in the constructor, so the
  // steady-state run() stays allocation- and syscall-free. Plans that
  // arrive pre-specialized (service::PlanCache) are left untouched, and
  // any fallback keeps the interpreted dispatch fully functional.
  if (plan_.opts.jit != opt::JitMode::Off) {
    codegen::jit_specialize(plan_);
  }
  // Metrics handles resolve here, not on the hot paths: steady-state
  // run() touches only their relaxed atomics.
  obs::Metrics& m = obs::Metrics::instance();
  ctr_tiles_ = &m.counter("executor.tiles");
  ctr_slabs_ = &m.counter("executor.slabs");
  ctr_runs_ = &m.counter("executor.runs");
  ctr_regions_cached_ = &m.counter("executor.tile_regions_cached");
  ctr_regions_recomputed_ = &m.counter("executor.tile_regions_recomputed");
  ctr_aborted_runs_ = &m.counter("executor.aborted_runs");
  // Per-group latency histograms, keyed by group index: executors built
  // from the same plan shape (the service's cached plans) merge into one
  // distribution per kernel stage.
  hist_group_ns_.resize(plan_.groups.size(), nullptr);
  for (std::size_t gi = 0; gi < plan_.groups.size(); ++gi) {
    hist_group_ns_[gi] =
        &m.histogram("executor.group_ns.g" + std::to_string(gi));
  }
  perf_cycles_.assign(plan_.groups.size(), 0);
  perf_instr_.assign(plan_.groups.size(), 0);
  perf_llc_.assign(plan_.groups.size(), 0);
  perf_seconds_.assign(plan_.groups.size(), 0.0);

  array_ptr_.assign(plan_.arrays.size(), nullptr);
  unpooled_.resize(plan_.arrays.size());
  for (const GroupPlan& g : plan_.groups) {
    arena_doubles_ = std::max(arena_doubles_, g.scratch_doubles_total);
  }
  // Everything below resolves plan-derivable state once, up front: the
  // steady-state run() touches only these caches and allocates nothing.
  // Arenas and workspaces are per thread, one for each thread a region
  // may use (team_threads()): the OpenMP thread count now, capped at the
  // widest group. A plan of one- and two-tile groups then forks two
  // threads at most, and no idle team member spin-waits between its
  // regions, taking cores from other processes.
  const std::size_t capacity = static_cast<std::size_t>(
      std::min(max_threads(), parallel_width(plan_)));
  arena_.resize(capacity);
  for (auto& a : arena_) a.resize(static_cast<std::size_t>(arena_doubles_));

  const std::size_t ngroups = plan_.groups.size();
  binds_.resize(ngroups);
  releasable_after_group_.resize(ngroups);
  scratch_off_.resize(ngroups);
  chain_.resize(ngroups);
  std::size_t max_stages = 1;
  std::size_t max_sources = 1;
  for (std::size_t gi = 0; gi < ngroups; ++gi) {
    const GroupPlan& g = plan_.groups[gi];
    max_stages = std::max(max_stages, g.stages.size());

    binds_[gi].resize(g.stages.size());
    for (std::size_t p = 0; p < g.stages.size(); ++p) {
      const ir::FunctionDecl& f = plan_.pipe.funcs[g.stages[p].func];
      max_sources = std::max(max_sources, f.sources.size());
      binds_[gi][p].resize(f.sources.size());
      for (std::size_t s = 0; s < f.sources.size(); ++s) {
        const ir::SourceSlot& slot = f.sources[s];
        SourceBind& b = binds_[gi][p][s];
        if (slot.external) {
          b = SourceBind{SourceBind::kExternal, slot.index, -1};
          continue;
        }
        // Producer inside an overlap-tiled group with a scratchpad? Then
        // the tile-local view carries the halo the consumer may need.
        b = SourceBind{SourceBind::kArray, plan_.array_of_func[slot.index],
                       slot.index};
        if (g.exec != GroupExec::OverlapTiled) continue;
        for (std::size_t q = 0; q < g.stages.size(); ++q) {
          if (g.stages[q].func == slot.index &&
              g.stages[q].scratch_buffer >= 0) {
            b = SourceBind{SourceBind::kScratch, static_cast<int>(q), -1};
            break;
          }
        }
      }
    }

    for (int id : plan_.release_after_group[gi]) {
      if (!plan_.arrays[id].io) releasable_after_group_[gi].push_back(id);
    }

    scratch_off_[gi].assign(g.scratch_sizes.size() + 1, 0);
    std::partial_sum(g.scratch_sizes.begin(), g.scratch_sizes.end(),
                     scratch_off_[gi].begin() + 1);

    if (g.exec == GroupExec::TimeTiled) {
      chain_[gi].resize(g.stages.size());
      for (std::size_t t = 0; t < g.stages.size(); ++t) {
        chain_[gi][t].fn = &plan_.pipe.funcs[g.stages[t].func];
        chain_[gi][t].lowered = &plan_.lowered[g.stages[t].func];
      }
    }
  }

  workspaces_.resize(capacity);
  for (Workspace& ws : workspaces_) {
    ws.regions.reserve(max_stages);
    ws.scratch_views.reserve(max_stages);
    ws.srcs.reserve(max_sources);
  }
  stage_srcs_.reserve(max_sources);

  group_seconds_.assign(ngroups, 0.0);
  stage_seconds_.assign(static_cast<std::size_t>(plan_.pipe.num_stages()),
                        0.0);
}

void Executor::reset_timers() {
  std::fill(group_seconds_.begin(), group_seconds_.end(), 0.0);
  std::fill(stage_seconds_.begin(), stage_seconds_.end(), 0.0);
  runs_timed_ = 0;
  std::fill(perf_cycles_.begin(), perf_cycles_.end(), 0);
  std::fill(perf_instr_.begin(), perf_instr_.end(), 0);
  std::fill(perf_llc_.begin(), perf_llc_.end(), 0);
  std::fill(perf_seconds_.begin(), perf_seconds_.end(), 0.0);
  perf_runs_ = 0;
}

bool Executor::enable_perf_attribution() {
  if (perf_ == nullptr) perf_ = std::make_unique<obs::PerfCounters>();
  // Unavailable counters (containers, perf_event_paranoid, non-Linux)
  // stay armed anyway: run_report() then emits the model-only roofline
  // rows — skip the hw columns, never fail.
  return perf_->available();
}

void Executor::disable_perf_attribution() { perf_.reset(); }

namespace {

/// Arithmetic operations per grid point of one lowered definition (the
/// representative case 0). Linear stencils cost one multiply-add per tap
/// (minus the first add); register programs count their per-point body
/// arithmetic.
double flops_per_point(const ir::LoweredFunc& lowered) {
  if (lowered.defs.empty()) return 0.0;
  const ir::LoweredDef& def = lowered.defs.front();
  if (def.linear.has_value()) {
    const int taps = def.linear->total_taps();
    return taps > 0 ? 2.0 * taps - 1.0 : 0.0;
  }
  double n = 0.0;
  for (const ir::RegInstr& in : def.regprog.body) {
    switch (in.kind) {
      case ir::RegOpKind::Neg:
      case ir::RegOpKind::Add:
      case ir::RegOpKind::Sub:
      case ir::RegOpKind::Mul:
      case ir::RegOpKind::Div:
        n += 1.0;
        break;
      default:
        break;
    }
  }
  return n;
}

}  // namespace

obs::RunReport Executor::run_report() const {
  obs::RunReport rep;
  rep.runs = runs_timed_;
  static const char* kExecName[] = {"loops", "overlap", "time-tiled"};
  for (std::size_t gi = 0; gi < plan_.groups.size(); ++gi) {
    const GroupPlan& g = plan_.groups[gi];
    std::string label = "g" + std::to_string(gi) + " [" +
                        kExecName[static_cast<int>(g.exec)] + "] " +
                        plan_.pipe.funcs[g.stages[static_cast<std::size_t>(
                                                      g.anchor)].func].name;
    if (g.stages.size() > 1) {
      label += " (+" + std::to_string(g.stages.size() - 1) + " stage(s))";
    }
    rep.groups.push_back({std::move(label), group_seconds_[gi]});
  }
  for (std::size_t f = 0; f < plan_.pipe.funcs.size() &&
                          f < stage_seconds_.size();
       ++f) {
    rep.stages.push_back({plan_.pipe.funcs[f].name, stage_seconds_[f]});
  }
  // Roofline attribution: model bytes/flops come from the plan alone (so
  // model GB/s renders even where perf_event_open is unavailable); the
  // hw columns fill in when enable_perf_attribution() sampled runs.
  const bool sampled = perf_runs_ > 0;
  if (sampled || (perf_ != nullptr && runs_timed_ > 0)) {
    for (std::size_t gi = 0; gi < plan_.groups.size(); ++gi) {
      const GroupPlan& g = plan_.groups[gi];
      obs::RunReport::PerfRow row;
      row.label = rep.groups[gi].label;
      row.seconds = sampled ? perf_seconds_[gi] : group_seconds_[gi];
      row.runs = sampled ? perf_runs_ : runs_timed_;
      for (const StagePlan& sp : g.stages) {
        const ir::FunctionDecl& f = plan_.pipe.funcs[sp.func];
        const double pts = static_cast<double>(f.domain.count());
        const double elem =
            static_cast<double>(grid::dtype_size(plan_.dtype_of_func(sp.func)));
        // Streaming model: one store of the stage's output plus one read
        // per source slot, each over the stage domain — the compulsory
        // traffic the paper's bandwidth argument counts.
        row.model_bytes +=
            pts * elem * (1.0 + static_cast<double>(f.sources.size()));
        row.model_flops += pts * flops_per_point(plan_.lowered[sp.func]);
      }
      if (sampled) {
        row.cycles = perf_cycles_[gi];
        row.instructions = perf_instr_[gi];
        row.llc_misses = perf_llc_[gi];
      }
      rep.perf.push_back(std::move(row));
    }
  }
  rep.trace_dropped = obs::TraceSession::dropped();
  rep.metrics_json = obs::Metrics::instance().snapshot_json();
  return rep;
}

View Executor::array_view(int array_id, const ir::FunctionDecl& shape,
                          int func) const {
  PMG_CHECK(array_id >= 0 && array_ptr_[array_id] != nullptr,
            "array for " << shape.name << " not live");
  View v = View::over(array_ptr_[array_id], shape.domain);
  v.dtype = plan_.dtype_of_func(func);
  return v;
}

void Executor::ensure_array(int array_id) {
  if (array_ptr_[array_id] != nullptr) return;
  const poly::index_t n = plan_.arrays[array_id].doubles;
  if (plan_.opts.pooled_allocation) {
    array_ptr_[array_id] = pool_.pool_allocate(n);
  } else {
    unpooled_[array_id] = grid::Buffer(static_cast<std::size_t>(n));
    array_ptr_[array_id] = unpooled_[array_id].data();
  }
  live_array_doubles_ += n;
  peak_array_doubles_ = std::max(peak_array_doubles_, live_array_doubles_);
}

void Executor::release_arrays(const std::vector<int>& ids) {
  for (int id : ids) {
    if (array_ptr_[id] == nullptr) continue;
    pool_.pool_deallocate(array_ptr_[id]);
    array_ptr_[id] = nullptr;
    live_array_doubles_ -= plan_.arrays[id].doubles;
  }
}

View Executor::resolve_bind(const SourceBind& b,
                            std::span<const View> externals,
                            std::span<const View> scratch_views) const {
  switch (b.kind) {
    case SourceBind::kExternal:
      return externals[b.index];
    case SourceBind::kScratch:
      return scratch_views[b.index];
    case SourceBind::kArray:
      break;
  }
  return array_view(b.index, plan_.pipe.funcs[b.func], b.func);
}

int Executor::team_threads() const {
  return std::min(max_threads(), static_cast<int>(workspaces_.size()));
}

bool Executor::poll_abort() {
  // Granule heartbeat: every poll site is a granule boundary, so the
  // epoch advances exactly as often as the run can react to a trip — a
  // frozen epoch IS a stall. Bumping while aborting is deliberate: a
  // draining run is progressing toward termination.
  progress_epoch_.fetch_add(1, std::memory_order_relaxed);
  if (progress_sink_ != nullptr) {
    progress_sink_->fetch_add(1, std::memory_order_relaxed);
  }
  // Monotonic fast path: one relaxed load once the run is aborting (or
  // while no token is attached).
  if (abort_.load(std::memory_order_relaxed) != 0) return true;
  const CancelToken* tok = cancel_;
  if (tok == nullptr) return false;
  std::uint8_t want = 0;
  if (tok->cancelled()) {
    want = 2;
  } else if (tok->deadline_passed()) {
    want = 1;
  } else {
    return false;
  }
  std::uint8_t expected = 0;
  if (abort_.compare_exchange_strong(expected, want,
                                     std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
    // First trip only: record it. id=-1 marks an executor-level trip
    // (the service layer stamps ticket ids on its own DeadlineHit
    // events); stage distinguishes deadline (1) from cancel (2).
    if (want == 1) {
      PMG_TRACE_INSTANT(DeadlineHit, -1, 1, -1, 0.0);
      obs::Metrics::instance().counter("executor.deadline_hits").add(1);
    }
  }
  return true;
}

void Executor::raise_abort() {
  const std::uint8_t a = abort_.load(std::memory_order_acquire);
  if (a == 0) return;
  ctr_aborted_runs_->add(1);
  if (a == 1) {
    PMG_FAIL(ErrorCode::DeadlineExceeded,
             "run aborted: deadline passed mid-invocation "
             "(outputs unspecified; keep the previous iterate)");
  }
  PMG_FAIL(ErrorCode::Cancelled,
           "run aborted: cancellation requested "
           "(outputs unspecified; keep the previous iterate)");
}

void Executor::run(std::span<const View> externals) {
  PMG_CHECK_CODE(externals.size() == plan_.pipe.externals.size(),
                 ErrorCode::PreconditionViolated,
                 "expected " << plan_.pipe.externals.size()
                             << " external grids, got " << externals.size());
  // Enforce the documented precondition instead of silently reading out
  // of bounds: each bound view must cover its declared domain.
  for (std::size_t i = 0; i < externals.size(); ++i) {
    const ir::ExternalGrid& eg = plan_.pipe.externals[i];
    PMG_CHECK_CODE(externals[i].covers(eg.domain),
                   ErrorCode::PreconditionViolated,
                   "external view " << i << " does not cover the domain of "
                                    << eg.name << " (null, wrong ndim, "
                                    << "offset origin or undersized rows)");
    // Kernels bake the externals' storage dtypes (JIT casts, templated
    // fast paths), so a mismatched view would be misread wholesale.
    PMG_CHECK_CODE(
        externals[i].dtype ==
            plan_.dtype_of_external(static_cast<int>(i)),
        ErrorCode::PreconditionViolated,
        "external view " << i << " is "
                         << grid::to_string(externals[i].dtype)
                         << " but the plan stores " << eg.name << " as "
                         << grid::to_string(plan_.dtype_of_external(
                                static_cast<int>(i))));
  }
  // Non-pooled variants re-allocate per invocation (the cost the pooled
  // allocator removes): drop everything from the previous run.
  if (!plan_.opts.pooled_allocation) {
    for (std::size_t i = 0; i < array_ptr_.size(); ++i) {
      array_ptr_[i] = nullptr;
      unpooled_[i] = grid::Buffer();
    }
  }
  live_array_doubles_ = 0;
  peak_array_doubles_ = 0;
  // Pooled mode keeps output arrays live across invocations; reset their
  // liveness bookkeeping by releasing everything still held.
  if (plan_.opts.pooled_allocation) {
    for (std::size_t i = 0; i < array_ptr_.size(); ++i) {
      if (array_ptr_[i] != nullptr) {
        pool_.pool_deallocate(array_ptr_[i]);
        array_ptr_[i] = nullptr;
      }
    }
  }

  // A fresh run starts un-aborted even when the previous one tripped;
  // the token itself (still expired?) re-trips on the first poll.
  abort_.store(0, std::memory_order_relaxed);

  run_groups(externals);
  // OpenMP forbids exceptions escaping a parallel region, so an aborted
  // run surfaces here, after the last region has joined.
  raise_abort();
  ++runs_timed_;
  ctr_runs_->add(1);
}

View Executor::output_view(int i) const {
  PMG_CHECK(i >= 0 && i < static_cast<int>(plan_.pipe.outputs.size()),
            "bad output index " << i);
  const int func = plan_.pipe.outputs[i];
  return array_view(plan_.array_of_func[func], plan_.pipe.funcs[func], func);
}

// ---------------------------------------------------------------------------
// Granule kernels: one Loops slab, one overlapped tile. Whichever thread
// runs a granule computes the same points the same way, so the bit
// pattern of every result is independent of the thread count.
// ---------------------------------------------------------------------------

void Executor::exec_loops_part(int gi, int p, const Box& part,
                               std::span<const View> externals, int tid) {
  PMG_TRACE_NOW(t0);
  const GroupPlan& g = plan_.groups[static_cast<std::size_t>(gi)];
  const StagePlan& sp = g.stages[static_cast<std::size_t>(p)];
  const ir::FunctionDecl& f = plan_.pipe.funcs[sp.func];
  const ir::LoweredFunc& lowered = plan_.lowered[sp.func];
  const View out = array_view(sp.array, f, sp.func);
  Workspace& ws = workspaces_[static_cast<std::size_t>(tid)];
  ws.srcs.assign(f.sources.size(), View{});
  for (std::size_t s = 0; s < f.sources.size(); ++s) {
    ws.srcs[s] = resolve_bind(binds_[gi][p][s], externals, {});
  }
  apply_stage(f, lowered, out, std::span<const View>(ws.srcs), part);
  ctr_slabs_->add(1);
  PMG_TRACE_SPAN_R(SlabExec, t0, gi, sp.func,
                   static_cast<int>(part.dim(0).lo),
                   static_cast<double>(part.count()), trace_req_);
}

void Executor::exec_overlap_tile(int gi, index_t ti,
                                 std::span<const View> externals, int tid) {
  PMG_TRACE_NOW(t0);
  const GroupPlan& g = plan_.groups[static_cast<std::size_t>(gi)];
  const int nstages = static_cast<int>(g.stages.size());
  const ir::FunctionDecl& anchor_f = plan_.pipe.funcs[g.stages[g.anchor].func];
  const std::vector<index_t>& scratch_off =
      scratch_off_[static_cast<std::size_t>(gi)];
  // Plans built by opt::compile carry the per-tile region cache; keep a
  // recompute fallback for hand-assembled plans (tests).
  const bool cached =
      g.tile_regions_cache.size() ==
      static_cast<std::size_t>(g.tiles.total) * g.stages.size();
  (cached ? ctr_regions_cached_ : ctr_regions_recomputed_)->add(1);

  auto& arena = arena_[static_cast<std::size_t>(tid)];
  Workspace& ws = workspaces_[static_cast<std::size_t>(tid)];
  // Reserved at construction: these stay within capacity (no malloc).
  ws.scratch_views.assign(static_cast<std::size_t>(nstages), View{});

  const Box tile = g.tiles.tile_box(ti);
  const Box* regions;
  if (cached) {
    regions = g.tile_regions_cache.data() +
              static_cast<std::size_t>(ti) * g.stages.size();
  } else {
    ws.regions.assign(static_cast<std::size_t>(nstages), Box{});
    opt::tile_regions(plan_.pipe, g, tile, ws.regions);
    regions = ws.regions.data();
  }

  // Bind scratchpad views for this tile's footprints.
  index_t scratch_doubles = 0;
  for (int p = 0; p < nstages; ++p) {
    const StagePlan& sp = g.stages[p];
    if (sp.scratch_buffer < 0) continue;
    // Always-on: an undersized scratchpad would corrupt the arena
    // silently, so the plan-time bound is enforced per tile.
    PMG_CHECK(regions[p].count() <=
                  static_cast<index_t>(g.scratch_sizes[sp.scratch_buffer]),
              "scratchpad overflow on " << plan_.pipe.funcs[sp.func].name
                                        << ": region " << regions[p]);
    ws.scratch_views[p] = View::over(
        arena.data() + scratch_off[sp.scratch_buffer], regions[p]);
    // Scratchpads inherit the stage's storage dtype; sizes stay in
    // double units (an F32 footprint trivially fits), so nothing about
    // arena layout or reuse classes changes.
    ws.scratch_views[p].dtype = plan_.dtype_of_func(sp.func);
    scratch_doubles += regions[p].count();
  }
  if (scratch_doubles > 0) {
    PMG_TRACE_INSTANT_R(ScratchBind, gi, -1, static_cast<int>(ti),
                        static_cast<double>(scratch_doubles) * 8.0,
                        trace_req_);
  }

  for (int p = 0; p < nstages; ++p) {
    const StagePlan& sp = g.stages[p];
    const ir::FunctionDecl& f = plan_.pipe.funcs[sp.func];
    const ir::LoweredFunc& lowered = plan_.lowered[sp.func];
    ws.srcs.assign(f.sources.size(), View{});
    for (std::size_t s = 0; s < f.sources.size(); ++s) {
      ws.srcs[s] = resolve_bind(binds_[gi][p][s], externals,
                                ws.scratch_views);
    }
    if (sp.scratch_buffer >= 0) {
      apply_stage(f, lowered, ws.scratch_views[p],
                  std::span<const View>(ws.srcs), regions[p]);
      if (sp.array >= 0) {
        // Live-out with in-group consumers: publish the owned
        // partition slice (disjoint across tiles).
        const Box own = opt::owned_region(f, sp.rel, tile, anchor_f.domain);
        copy_view(array_view(sp.array, f, sp.func), ws.scratch_views[p], own);
      }
    } else {
      // The anchor (and any consumer-less live-out) writes its
      // disjoint region straight to the full array.
      apply_stage(f, lowered, array_view(sp.array, f, sp.func),
                  std::span<const View>(ws.srcs), regions[p]);
    }
  }
  ctr_tiles_->add(1);
  PMG_TRACE_SPAN_R(TileExec, t0, gi, -1, static_cast<int>(ti),
                   static_cast<double>(tile.count()), trace_req_);
}

// ---------------------------------------------------------------------------
// Groups strictly in order, one fork/join each (the paper's Fig. 8 shape).
// ---------------------------------------------------------------------------

void Executor::run_groups(std::span<const View> externals) {
  for (std::size_t gi = 0; gi < plan_.groups.size(); ++gi) {
    // Group-boundary poll; the group bodies below also poll per
    // tile/slab, so a trip inside a large group skips its remaining
    // chunks rather than finishing the group.
    if (poll_abort()) return;
    const GroupPlan& g = plan_.groups[gi];
    for (const StagePlan& sp : g.stages) {
      if (sp.array >= 0) ensure_array(sp.array);
    }
    if (g.exec == GroupExec::TimeTiled) ensure_array(g.time_temp_array);

    PMG_TRACE_NOW(g0);
    // Hardware-counter sample around the group body; counters cover the
    // calling thread, so a meaningful roofline runs single-threaded.
    const bool sample_perf = perf_ != nullptr && perf_->available();
    if (sample_perf) perf_->start();
    Timer gt;
    switch (g.exec) {
      case GroupExec::Loops:
        run_loops_group(static_cast<int>(gi), externals);
        break;
      case GroupExec::OverlapTiled:
        run_overlap_group(static_cast<int>(gi), externals);
        break;
      case GroupExec::TimeTiled:
        run_timetile_group(static_cast<int>(gi), externals);
        break;
    }
    const double dt = gt.elapsed();
    if (sample_perf) {
      const obs::PerfCounters::Sample s = perf_->stop();
      if (s.ok()) {
        perf_cycles_[gi] += s.cycles;
        perf_instr_[gi] += s.instructions;
        perf_llc_[gi] += s.llc_misses >= 0 ? s.llc_misses : 0;
        perf_seconds_[gi] += dt;
      }
    }
    PMG_TRACE_SPAN_R(GroupExec, g0, static_cast<int>(gi), -1,
                     static_cast<int>(gi), 0.0, trace_req_);
    group_seconds_[gi] += dt;
    hist_group_ns_[gi]->record(static_cast<std::int64_t>(dt * 1e9));
    // Fused groups execute their stages interleaved per tile, so stage
    // attribution lands on the anchor (Loops groups attribute per stage
    // inside run_loops_group).
    if (g.exec != GroupExec::Loops) {
      stage_seconds_[static_cast<std::size_t>(g.stages[g.anchor].func)] += dt;
    }
    // Fault site: poison this group's freshest full-array result with a
    // NaN at the interior midpoint (a point every downstream stencil
    // reads), modelling a corrupted kernel output. Compiled in always;
    // one relaxed atomic load when nothing is armed.
    if (fault::should_fail(fault::kKernelOutput)) {
      obs::Metrics::instance().counter("fault.kernel_output").add(1);
      PMG_TRACE_INSTANT(FaultInjected, static_cast<int>(gi), -1,
                        /*site=*/1, 0.0);
      for (auto it = g.stages.rbegin(); it != g.stages.rend(); ++it) {
        if (it->array < 0) continue;
        const ir::FunctionDecl& f = plan_.pipe.funcs[it->func];
        View v = array_view(it->array, f, it->func);
        std::array<index_t, poly::kMaxDims> mid{};
        for (int d = 0; d < f.ndim; ++d) {
          mid[d] = (f.interior.dim(d).lo + f.interior.dim(d).hi) / 2;
        }
        v.store_at(mid, std::numeric_limits<double>::quiet_NaN());
        break;
      }
    }
    // Fault site: silent data corruption. Flip the top exponent bit of
    // the same midpoint value — the result stays finite (so the health
    // scan that catches NaN poisoning sees nothing) but is wrong by
    // hundreds of orders of magnitude, the signature of a cosmic-ray
    // bit-flip in a register or DIMM. Only the residual-jump guard in
    // guarded_solve can catch it.
    if (fault::should_fail(fault::kKernelBitflip)) {
      obs::Metrics::instance().counter("fault.kernel_bitflip").add(1);
      PMG_TRACE_INSTANT(FaultInjected, static_cast<int>(gi), -1,
                        /*site=*/5, 0.0);
      for (auto it = g.stages.rbegin(); it != g.stages.rend(); ++it) {
        if (it->array < 0) continue;
        const ir::FunctionDecl& f = plan_.pipe.funcs[it->func];
        View v = array_view(it->array, f, it->func);
        std::array<index_t, poly::kMaxDims> mid{};
        for (int d = 0; d < f.ndim; ++d) {
          mid[d] = (f.interior.dim(d).lo + f.interior.dim(d).hi) / 2;
        }
        index_t off = 0;
        for (int d = 0; d < f.ndim; ++d) {
          off += (mid[d] - v.origin[d]) * v.stride[d];
        }
        if (v.dtype == grid::DType::F32) {
          // Flip the top exponent bit of the binary32 value: finite but
          // wrong by ~2^64, the same signature scaled to float width.
          float& x = v.f32()[off];
          std::uint32_t bits;
          std::memcpy(&bits, &x, sizeof(bits));
          bits ^= (1U << 30);
          std::memcpy(&x, &bits, sizeof(bits));
        } else {
          double& x = v.ptr[off];
          std::uint64_t bits;
          std::memcpy(&bits, &x, sizeof(bits));
          bits ^= (1ULL << 62);
          std::memcpy(&x, &bits, sizeof(bits));
        }
        break;
      }
    }
    if (plan_.opts.pooled_allocation) {
      // pool_deallocate as soon as all uses of an array are finished
      // (§3.2.3) — but never the program outputs (filtered at
      // construction).
      release_arrays(releasable_after_group_[gi]);
    }
  }
  if (perf_ != nullptr && perf_->available()) ++perf_runs_;
}

void Executor::run_loops_group(int gi, std::span<const View> externals) {
  const GroupPlan& g = plan_.groups[static_cast<std::size_t>(gi)];
  for (std::size_t p = 0; p < g.stages.size(); ++p) {
    const StagePlan& sp = g.stages[p];
    const ir::FunctionDecl& f = plan_.pipe.funcs[sp.func];
    Timer st;
    if (poll_abort()) return;
    // Grain fast path: a coarse level is a handful of rows — the
    // fork/join alone dwarfs the work, so run it on the calling thread.
    if (f.domain.count() < plan_.opts.serial_grain) {
      exec_loops_part(gi, static_cast<int>(p), f.domain, externals, 0);
      stage_seconds_[static_cast<std::size_t>(sp.func)] += st.elapsed();
      continue;
    }
    // Straightforward parallelization: OpenMP on the outermost grid
    // dimension, in slabs to amortize per-call setup.
    const int nteam = team_threads();
    const poly::Interval d0 = f.domain.dim(0);
    const index_t slab =
        std::max<index_t>(1, d0.size() / (static_cast<index_t>(nteam) * 8));
    const index_t nslabs = poly::ceildiv(d0.size(), slab);
    note_parallel_region();
#pragma omp parallel for num_threads(nteam) schedule(static)
    for (index_t si = 0; si < nslabs; ++si) {
      // Slab-granular poll: omp for cannot break, so aborted slabs
      // just skip their body (the outputs are unspecified anyway).
      if (!poll_abort()) {
        Box part = f.domain;
        part.dim(0) = poly::Interval{
            d0.lo + si * slab, std::min(d0.lo + (si + 1) * slab - 1, d0.hi)};
        exec_loops_part(gi, static_cast<int>(p), part, externals,
                        thread_id());
      }
      tsan_join_release();
    }
    tsan_join_acquire();
    stage_seconds_[static_cast<std::size_t>(sp.func)] += st.elapsed();
  }
}

void Executor::run_overlap_group(int gi, std::span<const View> externals) {
  const GroupPlan& g = plan_.groups[static_cast<std::size_t>(gi)];
  const poly::TileGrid& tiles = g.tiles;

  // The collapse(d) clause flattens the tile loops; a flat index loop is
  // its runtime equivalent. Without collapse only the outermost tile
  // dimension is parallel and inner tile loops run sequentially within
  // each chunk — same work, coarser chunking.
  const index_t parallel_extent = parallel_chunks(g);
  const index_t tiles_per_chunk =
      g.collapse_depth > 1 ? 1
                           : tiles.total / std::max<index_t>(1, tiles.ntiles[0]);

  note_parallel_region();
#pragma omp parallel num_threads(team_threads())
  {
    const int tid = thread_id();
#pragma omp for schedule(static)
    for (index_t pi = 0; pi < parallel_extent; ++pi) {
      for (index_t ti = pi * tiles_per_chunk; ti < (pi + 1) * tiles_per_chunk;
           ++ti) {
        // Tile-granular poll — bounds deadline overshoot to one tile.
        if (poll_abort()) break;
        exec_overlap_tile(gi, ti, externals, tid);
      }
    }
    tsan_join_release();
  }
  tsan_join_acquire();
}

void Executor::run_timetile_group(int gi, std::span<const View> externals) {
  const GroupPlan& g = plan_.groups[static_cast<std::size_t>(gi)];
  const StagePlan& last = g.stages.back();
  const ir::FunctionDecl& step_fn = plan_.pipe.funcs[g.stages.front().func];
  const int steps = static_cast<int>(g.stages.size());
  const std::vector<ChainStep>& chain = chain_[static_cast<std::size_t>(gi)];

  // The whole chain shares one dtype (validate enforces it), so the
  // ping-pong pair is tagged by the first step's function.
  const View out = array_view(last.array, step_fn, g.stages.front().func);
  const View tmp =
      array_view(g.time_temp_array, step_fn, g.stages.front().func);
  View bufs[2];
  bufs[steps & 1] = out;
  bufs[1 - (steps & 1)] = tmp;

  // Bind the step's time-invariant sources; slot 0 (the previous level)
  // is managed by the sweep.
  stage_srcs_.assign(step_fn.sources.size(), View{});
  const View v0 = resolve_bind(binds_[gi][0][0], externals, {});
  for (std::size_t s = 1; s < step_fn.sources.size(); ++s) {
    stage_srcs_[s] = resolve_bind(binds_[gi][0][s], externals, {});
  }

  // Level 0 into bufs[0]; ghost rings of both buffers obey the step's
  // boundary rule once (smoother steps never move their ghost ring).
  copy_view(bufs[0], v0, step_fn.domain);
  for (View b : {bufs[0], bufs[1]}) {
    for_each_boundary_slab(step_fn.domain, step_fn.interior,
                           [&](const Box& slab) {
                             if (step_fn.boundary == ir::BoundaryKind::Zero) {
                               fill_view(b, slab, 0.0);
                             } else {
                               copy_view(b, v0, slab);
                             }
                           });
  }

  // The sweep is one unit: poll once before it (overshoot is bounded by
  // one smoother-chain sweep, the group's natural granule).
  if (poll_abort()) return;
  TimeTileParams params{g.dtile_H, g.dtile_W};
  PMG_TRACE_NOW(t0);
  time_tiled_sweep(chain, bufs, stage_srcs_, params);
  PMG_TRACE_SPAN_R(TimeTileExec, t0, gi, g.stages.front().func, gi,
                   static_cast<double>(steps), trace_req_);
}

}  // namespace polymg::runtime
