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
using opt::SchedNode;
using opt::StagePlan;

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
  ctr_pops_ = &m.counter("executor.queue_pops");
  ctr_spins_ = &m.counter("executor.queue_spins");
  ctr_gate_opens_ = &m.counter("executor.gate_opens");
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
  dep_group_run_seconds_.assign(plan_.groups.size(), 0.0);

  array_ptr_.assign(plan_.arrays.size(), nullptr);
  unpooled_.resize(plan_.arrays.size());
  for (const GroupPlan& g : plan_.groups) {
    arena_doubles_ = std::max(arena_doubles_, g.scratch_doubles_total);
  }
  // Everything below resolves plan-derivable state once, up front: the
  // steady-state run() touches only these caches and allocates nothing.
  arena_.resize(static_cast<std::size_t>(max_threads()));
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

  workspaces_.resize(static_cast<std::size_t>(max_threads()));
  for (Workspace& ws : workspaces_) {
    ws.regions.reserve(max_stages);
    ws.scratch_views.reserve(max_stages);
    ws.srcs.reserve(max_sources);
  }
  stage_srcs_.reserve(max_sources);

  group_seconds_.assign(ngroups, 0.0);
  stage_seconds_.assign(static_cast<std::size_t>(plan_.pipe.num_stages()),
                        0.0);

  // --- Dependence-scheduler state, preallocated so a steady-state run
  // --- only resets it (no heap traffic inside or around the region).
  const opt::SchedGraph& sg = plan_.sched;
  sched_on_ = !sg.empty();
  if (sched_on_) {
    const std::size_t nnodes = sg.nodes.size();
    const std::size_t ntasks = static_cast<std::size_t>(sg.total_tasks);
    task_node_.assign(ntasks, 0);
    phase_of_node_.assign(nnodes, 0);
    for (std::size_t ni = 0; ni < nnodes; ++ni) {
      const SchedNode& n = sg.nodes[ni];
      for (index_t t = 0; t < n.ntasks; ++t) {
        task_node_[static_cast<std::size_t>(n.task_base + t)] =
            static_cast<std::int32_t>(ni);
      }
      if (n.collective) {
        phases_.push_back(Phase{true, static_cast<int>(ni),
                                static_cast<int>(ni) + 1});
      } else if (!phases_.empty() && !phases_.back().collective &&
                 phases_.back().end_node == static_cast<int>(ni)) {
        phases_.back().end_node = static_cast<int>(ni) + 1;
      } else {
        phases_.push_back(Phase{false, static_cast<int>(ni),
                                static_cast<int>(ni) + 1});
      }
      phase_of_node_[ni] = static_cast<int>(phases_.size()) - 1;
    }
    phase_total_.assign(phases_.size(), 0);
    for (std::size_t ni = 0; ni < nnodes; ++ni) {
      phase_total_[static_cast<std::size_t>(phase_of_node_[ni])] +=
          sg.nodes[ni].ntasks;
    }
    pred_ = std::vector<std::atomic<std::int32_t>>(ntasks);
    queue_ = std::vector<std::atomic<index_t>>(ntasks);
    node_remaining_ = std::vector<std::atomic<index_t>>(nnodes);
    node_complete_ = std::vector<std::atomic<std::uint8_t>>(nnodes);
    phase_completed_ = std::vector<std::atomic<index_t>>(phases_.size());
    group_ensured_ = std::vector<std::atomic<std::uint8_t>>(ngroups);
    release_pending_.assign(ngroups, 0);
    node_seconds_acc_.assign(workspaces_.size() * nnodes, 0.0);
  }
}

void Executor::reset_timers() {
  std::fill(group_seconds_.begin(), group_seconds_.end(), 0.0);
  std::fill(stage_seconds_.begin(), stage_seconds_.end(), 0.0);
  std::fill(node_seconds_acc_.begin(), node_seconds_acc_.end(), 0.0);
  queue_pops_.store(0, std::memory_order_relaxed);
  queue_spins_.store(0, std::memory_order_relaxed);
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
  // hw columns fill in when enable_perf_attribution() sampled
  // barrier-schedule runs.
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

bool Executor::dependence_scheduled() const {
  // Armed fault sites force the barrier schedule: kPoolAlloc throws and
  // kKernelOutput poisons shared state, neither of which may happen
  // concurrently inside the persistent region.
  return sched_on_ && !fault::FaultInjector::instance().any_armed();
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

bool Executor::poll_abort() {
  // Granule heartbeat: every poll site is a granule boundary on both
  // schedules, so the epoch advances exactly as often as the run can
  // react to a trip — a frozen epoch IS a stall. Bumping while aborting
  // is deliberate: a draining run is progressing toward termination.
  progress_epoch_.fetch_add(1, std::memory_order_relaxed);
  if (progress_sink_ != nullptr) {
    progress_sink_->fetch_add(1, std::memory_order_relaxed);
  }
  // Monotonic fast path: one relaxed load once the run is aborting (or
  // while no token is attached). Read-read coherence on abort_ plus the
  // scheduler's release/acquire edges guarantee a task queued after a
  // skipped predecessor also observes the abort.
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

  if (dependence_scheduled()) {
    run_dependence(externals);
  } else {
    run_barrier(externals);
  }
  // OpenMP forbids exceptions escaping a parallel region, so an aborted
  // run surfaces here, after both schedules have fully drained.
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
// Shared task kernels. Both schedules execute tiles and slabs through
// these two functions, so the per-point computation — and therefore the
// bit pattern of every result — is schedule-independent by construction.
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
// Barrier schedule: one fork/join per group, groups strictly in order.
// ---------------------------------------------------------------------------

void Executor::run_barrier(std::span<const View> externals) {
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
    const poly::Interval d0 = f.domain.dim(0);
    const index_t slab = std::max<index_t>(
        1, d0.size() / (static_cast<index_t>(max_threads()) * 8));
    const index_t nslabs = poly::ceildiv(d0.size(), slab);
    note_parallel_region();
#pragma omp parallel for schedule(static)
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
  const index_t parallel_extent =
      g.collapse_depth > 1 ? tiles.total : tiles.ntiles[0];
  const index_t tiles_per_chunk =
      g.collapse_depth > 1 ? 1
                           : tiles.total / std::max<index_t>(1, tiles.ntiles[0]);

  note_parallel_region();
#pragma omp parallel
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

  // The sweep is one collective unit: poll once before it (overshoot is
  // bounded by one smoother-chain sweep, the schedule's natural granule).
  if (poll_abort()) return;
  TimeTileParams params{g.dtile_H, g.dtile_W};
  PMG_TRACE_NOW(t0);
  time_tiled_sweep(chain, bufs, stage_srcs_, params);
  PMG_TRACE_SPAN_R(TimeTileExec, t0, gi, g.stages.front().func, gi,
                   static_cast<double>(steps), trace_req_);
}

// ---------------------------------------------------------------------------
// Dependence schedule: one persistent parallel region per run().
//
// Liveness argument, in brief: every task's predecessor counter is
// decremented exactly once per explicit edge plus exactly once when its
// node's gate opens; the counter therefore reaches zero exactly once and
// the task enters the queue exactly once. Gates open in node order
// (node 0 and 1 up front, node k+2 when the completion frontier passes
// node k), and the frontier always advances because the thread finishing
// a node's last task advances it before reporting the task complete.
// ---------------------------------------------------------------------------

void Executor::reset_sched_state() {
  const opt::SchedGraph& sg = plan_.sched;
  for (std::size_t t = 0; t < pred_.size(); ++t) {
    // +1 is the gate predecessor (prefix rule).
    pred_[t].store(sg.pred_count[t] + 1, std::memory_order_relaxed);
    queue_[t].store(0, std::memory_order_relaxed);
  }
  qhead_.store(0, std::memory_order_relaxed);
  qtail_.store(0, std::memory_order_relaxed);
  for (std::size_t ni = 0; ni < node_remaining_.size(); ++ni) {
    node_remaining_[ni].store(sg.nodes[ni].ntasks,
                              std::memory_order_relaxed);
    node_complete_[ni].store(0, std::memory_order_relaxed);
  }
  frontier_.store(0, std::memory_order_relaxed);
  for (auto& pc : phase_completed_) pc.store(0, std::memory_order_relaxed);
  for (auto& ge : group_ensured_) ge.store(0, std::memory_order_relaxed);
  next_ensure_ = 0;
  std::fill(release_pending_.begin(), release_pending_.end(), 0);
  std::fill(node_seconds_acc_.begin(), node_seconds_acc_.end(), 0.0);
}

void Executor::ensure_group_arrays_locked(int gi) {
  // A task of group gi may start before any task of an earlier,
  // independent group, so every group up to gi becomes live here, in
  // order. Group h-1's releases then follow group h's allocations: the
  // pool's first fit sees one fixed sequence, and a run after the first
  // reuses exactly the buffers the first one created.
  while (next_ensure_ <= gi) {
    const int h = next_ensure_++;
    for (const StagePlan& sp : plan_.groups[static_cast<std::size_t>(h)].stages) {
      if (sp.array >= 0) ensure_array(sp.array);
    }
    // Release pairs with the acquire fast path in ensure_group_arrays: a
    // thread seeing 1 sees the array_ptr_ stores above.
    group_ensured_[static_cast<std::size_t>(h)].store(
        1, std::memory_order_release);
    if (h > 0 && release_pending_[static_cast<std::size_t>(h) - 1] != 0) {
      release_pending_[static_cast<std::size_t>(h) - 1] = 0;
      release_arrays(releasable_after_group_[static_cast<std::size_t>(h) - 1]);
    }
  }
}

void Executor::ensure_group_arrays(int gi) {
  if (group_ensured_[static_cast<std::size_t>(gi)].load(
          std::memory_order_acquire)) {
    return;
  }
  std::lock_guard<std::mutex> lk(pool_mu_);
  ensure_group_arrays_locked(gi);
}

void Executor::push_task(index_t t) {
  const index_t slot = qtail_.fetch_add(1, std::memory_order_relaxed);
  // Stored +1 so an unpublished slot reads as zero.
  queue_[static_cast<std::size_t>(slot)].store(t + 1,
                                               std::memory_order_release);
}

bool Executor::pop_task(index_t& out) {
  index_t h = qhead_.load(std::memory_order_relaxed);
  while (true) {
    if (h >= qtail_.load(std::memory_order_acquire)) return false;
    if (qhead_.compare_exchange_weak(h, h + 1, std::memory_order_acq_rel,
                                     std::memory_order_relaxed)) {
      // The producer bumps qtail before publishing the slot: spin for
      // the release-store (bounded — the producer is between the two).
      index_t v;
      while ((v = queue_[static_cast<std::size_t>(h)].load(
                  std::memory_order_acquire)) == 0) {
        cpu_pause();
      }
      out = v - 1;
      return true;
    }
  }
}

void Executor::open_gate(index_t node) {
  const opt::SchedGraph& sg = plan_.sched;
  if (node >= static_cast<index_t>(sg.nodes.size())) return;
  const SchedNode& n = sg.nodes[static_cast<std::size_t>(node)];
  // Collective nodes are ordered by their phase's barriers.
  if (n.collective) return;
  ctr_gate_opens_->add(1);
  PMG_TRACE_INSTANT_R(GateOpen, n.group, n.stage, static_cast<int>(node),
                      static_cast<double>(n.ntasks), trace_req_);
  for (index_t t = n.task_base; t < n.task_base + n.ntasks; ++t) {
    if (pred_[static_cast<std::size_t>(t)].fetch_sub(
            1, std::memory_order_acq_rel) == 1) {
      push_task(t);
    }
  }
}

void Executor::retire_node(index_t k) {
  const opt::SchedGraph& sg = plan_.sched;
  std::lock_guard<std::mutex> lk(pool_mu_);
  // Pool releases stay sound under overlap: an array released here had
  // its last use in a group whose nodes all sit at or before the
  // frontier, and the only nodes still in flight are at most one past it
  // — by definition in a strictly later group than the released array's
  // last reader.
  const int g = sg.nodes[static_cast<std::size_t>(k)].group;
  const bool group_done =
      k + 1 == static_cast<index_t>(sg.nodes.size()) ||
      sg.nodes[static_cast<std::size_t>(k) + 1].group != g;
  if (group_done && plan_.opts.pooled_allocation) {
    const std::size_t next = static_cast<std::size_t>(g) + 1;
    if (next < group_ensured_.size() &&
        group_ensured_[next].load(std::memory_order_relaxed) == 0) {
      release_pending_[static_cast<std::size_t>(g)] = 1;  // see ensure
    } else {
      release_arrays(releasable_after_group_[static_cast<std::size_t>(g)]);
    }
  }
  PMG_TRACE_INSTANT_R(NodeRetire, g, -1, static_cast<int>(k), 0.0,
                      trace_req_);
  // The frontier reached k+1, so the gate of node k+2 may open.
  open_gate(k + 2);
}

void Executor::advance_frontier() {
  const index_t nnodes = static_cast<index_t>(plan_.sched.nodes.size());
  index_t f = frontier_.load(std::memory_order_acquire);
  while (f < nnodes &&
         node_complete_[static_cast<std::size_t>(f)].load(
             std::memory_order_acquire) != 0) {
    if (frontier_.compare_exchange_weak(f, f + 1,
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
      retire_node(f);
      ++f;
    }
  }
}

void Executor::node_done(int node) {
  node_complete_[static_cast<std::size_t>(node)].store(
      1, std::memory_order_release);
  advance_frontier();
}

void Executor::finish_task(index_t t, int node) {
  const opt::SchedGraph& sg = plan_.sched;
  for (index_t k = sg.succ_off[static_cast<std::size_t>(t)];
       k < sg.succ_off[static_cast<std::size_t>(t) + 1]; ++k) {
    const index_t s = sg.succ[static_cast<std::size_t>(k)];
    // Collective successors never enter the queue — the phase barrier
    // structure runs them; their counter still drains for uniformity.
    if (pred_[static_cast<std::size_t>(s)].fetch_sub(
            1, std::memory_order_acq_rel) == 1 &&
        !sg.nodes[static_cast<std::size_t>(task_node_[
            static_cast<std::size_t>(s)])].collective) {
      push_task(s);
    }
  }
  if (node_remaining_[static_cast<std::size_t>(node)].fetch_sub(
          1, std::memory_order_acq_rel) == 1) {
    node_done(node);
  }
  // Last: the phase exit test must observe the retirement chain above.
  phase_completed_[static_cast<std::size_t>(phase_of_node_[
      static_cast<std::size_t>(node)])]
      .fetch_add(1, std::memory_order_release);
}

void Executor::exec_task(index_t t, std::span<const View> externals,
                         int tid) {
  const int ni = task_node_[static_cast<std::size_t>(t)];
  const SchedNode& n = plan_.sched.nodes[static_cast<std::size_t>(ni)];
  // Task-granular poll. An aborted task skips its kernel body (and its
  // group's allocations) but MUST still run finish_task: successor
  // releases, node retirement and the phase-exit counter are what let
  // every thread leave the parallel region — the abort drains the
  // protocol instead of abandoning it.
  if (poll_abort()) {
    finish_task(t, ni);
    return;
  }
  ensure_group_arrays(n.group);
  Timer tm;
  if (n.stage >= 0) {
    const GroupPlan& g = plan_.groups[static_cast<std::size_t>(n.group)];
    const ir::FunctionDecl& f =
        plan_.pipe.funcs[g.stages[static_cast<std::size_t>(n.stage)].func];
    Box part = f.domain;
    if (!n.serial) {
      const index_t lt = t - n.task_base;
      const poly::Interval d0 = f.domain.dim(0);
      part.dim(0) = poly::Interval{
          d0.lo + lt * n.slab,
          std::min(d0.lo + (lt + 1) * n.slab - 1, d0.hi)};
    }
    exec_loops_part(n.group, n.stage, part, externals, tid);
  } else if (n.serial) {
    const GroupPlan& g = plan_.groups[static_cast<std::size_t>(n.group)];
    for (index_t ti = 0; ti < g.tiles.total; ++ti) {
      if (poll_abort()) break;  // serial chains still stop per tile
      exec_overlap_tile(n.group, ti, externals, tid);
    }
  } else {
    exec_overlap_tile(n.group, t - n.task_base, externals, tid);
  }
  node_seconds_acc_[static_cast<std::size_t>(tid) *
                        plan_.sched.nodes.size() +
                    static_cast<std::size_t>(ni)] += tm.elapsed();
  finish_task(t, ni);
}

void Executor::task_loop(int phase, std::span<const View> externals,
                         int tid) {
  const index_t target = phase_total_[static_cast<std::size_t>(phase)];
  auto& completed = phase_completed_[static_cast<std::size_t>(phase)];
  int idle = 0;
  // Queue telemetry stays in locals inside the loop (no shared-cacheline
  // traffic per task) and flushes once per phase; an idle episode between
  // two pops becomes one QueueWait span with its spin count as value.
  std::int64_t pops = 0;
  std::int64_t spins = 0;
  std::int64_t wait_t0 = -1;
  std::int64_t wait_spins = 0;
  while (completed.load(std::memory_order_acquire) < target) {
    index_t t;
    if (pop_task(t)) {
      idle = 0;
      ++pops;
      if (wait_t0 >= 0) {
        PMG_TRACE_SPAN_R(QueueWait, wait_t0, -1, phase, tid,
                         static_cast<double>(wait_spins), trace_req_);
        wait_t0 = -1;
        wait_spins = 0;
      }
      exec_task(t, externals, tid);
      continue;
    }
    ++spins;
    ++wait_spins;
    if (wait_t0 < 0 && PMG_TRACE_ACTIVE()) wait_t0 = obs::trace_now_ns();
    if (++idle < 128) {
      cpu_pause();
    } else if (idle < 1024) {
      // Oversubscribed teams (more threads than cores) must yield or the
      // spinners starve the one thread holding real work.
      yield_thread();
    } else {
      // Still nothing after ~1k attempts: the remaining work is a serial
      // chain on some other thread. Sleep instead of yield-storming — on
      // an oversubscribed host a constantly-yielding spinner still takes
      // its scheduler timeslices from the worker.
      idle_sleep();
      idle = 128;  // re-enter the yield band, skip the pause burst
    }
  }
  if (wait_t0 >= 0) {
    // Starved until the phase drained: close the episode at phase exit.
    PMG_TRACE_SPAN_R(QueueWait, wait_t0, -1, phase, tid,
                     static_cast<double>(wait_spins), trace_req_);
  }
  queue_pops_.fetch_add(pops, std::memory_order_relaxed);
  queue_spins_.fetch_add(spins, std::memory_order_relaxed);
  ctr_pops_->add(pops);
  ctr_spins_->add(spins);
}

void Executor::run_collective_phase(const Phase& ph,
                                    std::span<const View> externals,
                                    int tid) {
  const int ni = ph.first_node;
  const SchedNode& n = plan_.sched.nodes[static_cast<std::size_t>(ni)];
  const int gi = n.group;
  const GroupPlan& g = plan_.groups[static_cast<std::size_t>(gi)];
  Timer tm;
  // The team-wide sweep has internal barriers, so every thread must make
  // the same run/skip decision. Only tid 0 polls, before the barrier;
  // after the barrier all threads read the (now stable for this phase)
  // abort flag, so the team agrees by construction.
  if (tid == 0) poll_abort();
  if (tid == 0 && abort_.load(std::memory_order_relaxed) == 0) {
    {
      std::lock_guard<std::mutex> lk(pool_mu_);
      ensure_group_arrays_locked(gi);
      ensure_array(g.time_temp_array);
    }
    // Prologue identical to the barrier path's run_timetile_group.
    const StagePlan& last = g.stages.back();
    const ir::FunctionDecl& step_fn = plan_.pipe.funcs[g.stages.front().func];
    const int steps = static_cast<int>(g.stages.size());
    time_bufs_[steps & 1] =
        array_view(last.array, step_fn, g.stages.front().func);
    time_bufs_[1 - (steps & 1)] =
        array_view(g.time_temp_array, step_fn, g.stages.front().func);
    stage_srcs_.assign(step_fn.sources.size(), View{});
    const View v0 = resolve_bind(binds_[gi][0][0], externals, {});
    for (std::size_t s = 1; s < step_fn.sources.size(); ++s) {
      stage_srcs_[s] = resolve_bind(binds_[gi][0][s], externals, {});
    }
    copy_view(time_bufs_[0], v0, step_fn.domain);
    for (View b : {time_bufs_[0], time_bufs_[1]}) {
      for_each_boundary_slab(
          step_fn.domain, step_fn.interior, [&](const Box& slab) {
            if (step_fn.boundary == ir::BoundaryKind::Zero) {
              fill_view(b, slab, 0.0);
            } else {
              copy_view(b, v0, slab);
            }
          });
    }
  }
  team_barrier();
  if (abort_.load(std::memory_order_acquire) == 0) {
    TimeTileParams params{g.dtile_H, g.dtile_W};
    PMG_TRACE_NOW(t0);
    time_tiled_sweep_team(chain_[static_cast<std::size_t>(gi)], time_bufs_,
                          stage_srcs_, params);
    PMG_TRACE_SPAN_R(TimeTileExec, t0, gi, g.stages.front().func, gi,
                     static_cast<double>(g.stages.size()), trace_req_);
  }
  team_barrier();
  if (tid == 0) {
    node_seconds_acc_[static_cast<std::size_t>(ni)] += tm.elapsed();
    finish_task(n.task_base, ni);
  }
}

void Executor::run_dependence(std::span<const View> externals) {
  reset_sched_state();
  {
    std::lock_guard<std::mutex> lk(pool_mu_);
    open_gate(0);
    open_gate(1);
  }
  // Cap the team at the capacity resolved at construction (workspaces,
  // arenas, timer slots are per-thread).
  const int nteam =
      std::min(max_threads(), static_cast<int>(workspaces_.size()));
  note_parallel_region();
#pragma omp parallel num_threads(nteam)
  {
    const int tid = thread_id();
    for (std::size_t p = 0; p < phases_.size(); ++p) {
      const Phase& ph = phases_[p];
      // One barrier per phase boundary; in the common all-tile pipeline
      // there is a single phase, i.e. one barrier per run.
#pragma omp barrier
      if (ph.collective) {
        run_collective_phase(ph, externals, tid);
      } else {
        task_loop(static_cast<int>(p), externals, tid);
      }
    }
    tsan_join_release();
  }
  tsan_join_acquire();
  // Fold the per-thread task timers into the public counters. Dependence
  // runs attribute CPU seconds (groups overlap in wall time by design).
  const std::size_t nnodes = plan_.sched.nodes.size();
  std::fill(dep_group_run_seconds_.begin(), dep_group_run_seconds_.end(),
            0.0);
  for (std::size_t ni = 0; ni < nnodes; ++ni) {
    double s = 0.0;
    for (std::size_t tid = 0; tid < workspaces_.size(); ++tid) {
      s += node_seconds_acc_[tid * nnodes + ni];
    }
    if (s == 0.0) continue;
    const SchedNode& n = plan_.sched.nodes[ni];
    const GroupPlan& g = plan_.groups[static_cast<std::size_t>(n.group)];
    group_seconds_[static_cast<std::size_t>(n.group)] += s;
    dep_group_run_seconds_[static_cast<std::size_t>(n.group)] += s;
    const int func = n.stage >= 0
                         ? g.stages[static_cast<std::size_t>(n.stage)].func
                         : g.stages[static_cast<std::size_t>(g.anchor)].func;
    stage_seconds_[static_cast<std::size_t>(func)] += s;
  }
  // One histogram observation per group per run — same grain as the
  // barrier path, so the per-stage latency distributions are
  // schedule-independent in shape.
  for (std::size_t gi = 0; gi < dep_group_run_seconds_.size(); ++gi) {
    if (dep_group_run_seconds_[gi] > 0.0) {
      hist_group_ns_[gi]->record(
          static_cast<std::int64_t>(dep_group_run_seconds_[gi] * 1e9));
    }
  }
}

}  // namespace polymg::runtime
