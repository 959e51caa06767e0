// guarded_solve — a multigrid cycle loop that refuses to fail silently.
//
// The plain benchmarking loops (run N cycles, report the residual) trust
// both the compiled plan and the numerics. guarded_solve trusts neither:
// every cycle runs through runtime::GuardedExecutor (plan validation,
// output health scan, reference-plan fallback) and its residual history
// feeds a common::ResidualMonitor. When a configuration diverges or
// stagnates, the solve restarts from the initial iterate one rung down a
// degradation ladder — reference plan, then Chebyshev→Jacobi smoother
// downgrade, then repeated damping-factor backoff — until it converges
// or the ladder is exhausted. Every attempt is recorded in the returned
// SolveReport, so a degraded solve is visible, not papered over.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "polymg/common/cancel.hpp"
#include "polymg/common/error.hpp"
#include "polymg/common/health.hpp"
#include "polymg/obs/report.hpp"
#include "polymg/opt/compile.hpp"
#include "polymg/opt/options.hpp"
#include "polymg/solvers/poisson.hpp"

namespace polymg::runtime {
class MemoryPool;
class GuardedExecutor;
}

namespace polymg::solvers {

/// Source of precompiled plans, so a caller that solves the same problem
/// signature repeatedly (the service layer's plan cache) compiles once
/// and serves every later solve from the cached CompiledPipeline. A
/// null return means "no cached plan — compile as usual"; only attempt 0
/// (the as-configured rung) consults the provider, since ladder rungs
/// are degradations that by definition differ from the cached signature.
class PlanProvider {
public:
  virtual ~PlanProvider() = default;
  virtual std::shared_ptr<const opt::CompiledPipeline> plan_for(
      const CycleConfig& cfg, const opt::CompileOptions& opts) = 0;
};

/// Knobs for the guarded cycle loop and its degradation ladder.
struct GuardPolicy {
  int max_cycles = 50;    ///< per-attempt cycle cap
  int max_attempts = 4;   ///< ladder length (attempt 0 = as configured)
  double rel_tol_floor = 0.0;  ///< extra absolute tolerance (0 = off)

  // Residual-monitor thresholds (see common::ResidualMonitor::Config).
  double divergence_factor = 1e3;
  double stagnation_ratio = 0.99;
  int stagnation_window = 4;

  // Which ladder rungs are allowed.
  bool allow_reference_plan = true;      ///< drop to unfused/unpooled plan
  bool allow_smoother_downgrade = true;  ///< Chebyshev/GSRB -> Jacobi
  bool allow_omega_reduction = true;     ///< omega *= omega_backoff
  double omega_backoff = 0.5;

  // Resilience: checkpoint/rollback (DESIGN.md §9). With a cadence > 0
  // the iterate, cycle index and monitor state are snapshotted into
  // pool-backed buffers every `checkpoint_cadence` healthy cycles;
  // rollback-to-last-checkpoint then sits one rung *above* the ladder —
  // an injected crash (fault site solve.crash) or a detected silent data
  // corruption re-winds to the snapshot and continues bit-exactly on the
  // same plan instead of restarting the attempt from scratch. A corrupt
  // snapshot (checksum mismatch) falls through to the ordinary ladder.
  int checkpoint_cadence = 0;   ///< cycles between snapshots (0 = off)
  int max_rollbacks = 2;        ///< rollback budget per attempt
  /// Optional caller-owned pool for the checkpoint slots. When null the
  /// solve builds (and first-touches) a private pool each call; a
  /// long-running service that solves repeatedly should pass one
  /// persistent pool so the slot buffers — and their pages — are reused
  /// across solves and steady-state checkpointing stays allocation-free.
  /// Must outlive the guarded_solve call.
  runtime::MemoryPool* checkpoint_pool = nullptr;
  /// SDC guard: a finite residual jumping past sdc_jump_factor × the
  /// previous cycle's residual (or going non-finite) in a single cycle is
  /// flagged as silent data corruption — multigrid contracts the residual
  /// every cycle, so a jump of orders of magnitude is arithmetic, not
  /// numerics. Only consulted while a valid checkpoint exists.
  double sdc_jump_factor = 100.0;
  /// Ring bound on SolveReport::residual_history (last N entries kept),
  /// so unattended long-running solves cannot grow memory without bound.
  /// Evictions are counted in SolveReport::history_dropped.
  int history_limit = 1024;

  // Deadline-aware service execution (DESIGN.md §10).
  /// Cooperative cancellation token (non-owning, may be null; must
  /// outlive the call). The executor polls it at tile/slab granularity
  /// and the cycle loop between cycles; a trip ends the solve
  /// immediately — best iterate so far stays in p.v, the report carries
  /// status DeadlineExceeded/Cancelled, and the ladder is NOT walked
  /// (every rung is slower, the opposite of what a deadline asks for).
  const CancelToken* cancel = nullptr;
  /// Optional plan cache consulted for attempt 0 (see PlanProvider).
  PlanProvider* plans = nullptr;
  /// Optional caller-owned executor reused for attempt 0 instead of
  /// constructing one per solve — a service worker that solves the same
  /// signature repeatedly keeps its Executor state (pool pages,
  /// per-thread workspaces) warm across requests. Must match the
  /// solve's (cfg, opts) compilation; ladder rungs always build their
  /// own executor. Must outlive the call.
  runtime::GuardedExecutor* session_executor = nullptr;
  /// Request span context (-1 = none): stamped into TraceEvent::req on
  /// every executor event of every attempt — including ladder rungs and
  /// reference fallbacks — so a Perfetto export nests the whole solve's
  /// tile/stage spans under the submitting service request.
  std::int32_t trace_request = -1;
  /// Optional heartbeat (non-owning, must outlive the call): attached as
  /// the progress sink of every attempt's executor, and bumped once per
  /// completed cycle for the solver-side work
  /// between runs (residual norms, checkpoints). The service watchdog
  /// samples it — a frozen value while a solve is in flight means the
  /// worker has stalled.
  std::atomic<std::uint64_t>* progress = nullptr;
};

/// Which remedy a ladder rung applies (mirrors build_ladder's order).
/// Also the `id` of the Degrade trace events guarded_solve emits, so a
/// trace can be correlated with the SolveReport attempt list.
enum class RungKind : int {
  AsConfigured = 0,
  ReferencePlan = 1,
  SmootherDowngrade = 2,
  OmegaBackoff = 3,
  /// Not a restart-from-scratch rung: a rollback to the last checkpoint
  /// within the current attempt (crash restart or SDC recovery). Appears
  /// in Degrade trace events and rollback accounting, never in the
  /// attempt list.
  CheckpointRollback = 4,
  /// Terminal pseudo-rung: the solve stopped because its deadline passed
  /// or it was cancelled. Recorded on the attempt that was interrupted;
  /// the ladder is never walked past it.
  DeadlineStop = 5,
};
const char* to_string(RungKind k);

/// One rung of the ladder, as actually executed.
struct SolveAttempt {
  std::string description;  ///< e.g. "as configured", "omega -> 0.475"
  RungKind kind = RungKind::AsConfigured;
  int cycles = 0;           ///< cycles run in this attempt (incl. re-runs)
  double first_residual = 0.0;
  double last_residual = 0.0;
  health::Trend trend = health::Trend::Converging;
  bool converged = false;
  bool threw = false;             ///< the executor threw mid-attempt
  std::string error;              ///< what() of that throw, if any
  int executor_fallbacks = 0;     ///< reference-plan runs inside this attempt
  int rollbacks = 0;              ///< checkpoint restores in this attempt
  int sdc_detected = 0;           ///< rollbacks triggered by the SDC guard
  int crashes = 0;                ///< injected crashes survived via restore
};

/// Full account of a guarded solve.
struct SolveReport {
  bool converged = false;
  double final_residual = 0.0;
  double initial_residual = 0.0;
  int total_cycles = 0;
  std::vector<SolveAttempt> attempts;
  /// Residual after every cycle, across all attempts, in execution order
  /// (a bounded ring: at most GuardPolicy::history_limit entries are
  /// retained, oldest dropped first).
  std::vector<double> residual_history;
  /// Entries evicted from the ring above — nonzero means
  /// residual_history is a suffix of the solve, not the whole of it.
  std::int64_t history_dropped = 0;
  /// How the solve ended: Generic for the ordinary paths (converged, or
  /// ladder exhausted with the evidence in `attempts`),
  /// DeadlineExceeded / Cancelled when the token stopped it — p.v then
  /// holds the best iterate completed before the trip.
  ErrorCode status = ErrorCode::Generic;
  bool deadline_hit = false;  ///< status == DeadlineExceeded
  bool cancelled = false;     ///< status == Cancelled
  int checkpoint_writes = 0;    ///< snapshots committed across the solve
  int checkpoint_restores = 0;  ///< rollbacks served across the solve
  int sdc_detected = 0;         ///< SDC-guard firings across the solve
  /// Multi-line human-readable account of the ladder walk.
  std::string summary() const;
};

/// Merge a solve's convergence telemetry into an executor RunReport so
/// render() shows time attribution and convergence side by side.
void attach_convergence(const SolveReport& sr, obs::RunReport& rr);

/// Iterate multigrid cycles on `p` until the residual drops below
/// `rel_tol` times the initial residual (plus policy.rel_tol_floor
/// absolutely), walking the degradation ladder on divergence, stagnation
/// or executor failure. An attempt that is still contracting when it
/// hits max_cycles ends the solve instead — it ran out of budget, not
/// health, and every ladder rung is a weaker configuration. `p.v` holds
/// the final iterate of the last attempt; each retry restarts from the
/// iterate passed in. Never throws for numerical trouble — a solve the
/// ladder cannot save returns converged == false with the evidence in
/// `attempts`.
SolveReport guarded_solve(const CycleConfig& cfg, PoissonProblem& p,
                          double rel_tol, const GuardPolicy& policy = {},
                          const opt::CompileOptions& opts =
                              opt::CompileOptions{});

}  // namespace polymg::solvers
