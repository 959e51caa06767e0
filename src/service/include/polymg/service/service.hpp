// SolveService — a deadline-aware multi-tenant solve front end.
//
// The library so far solves one problem at a time for one caller. A
// service deployment looks different: many tenants submit Poisson solves
// against a handful of problem signatures, each request carries a
// deadline, and the host is routinely oversubscribed. This layer turns
// the guarded solver into that service:
//
//  * requests resolve their compiled plan through a signature-keyed
//    PlanCache (compile once, serve many — a cache hit performs zero
//    opt::compile calls);
//  * a bounded worker pool executes solves, each worker keeping a
//    persistent per-signature session (GuardedExecutor + checkpoint
//    pool) so steady-state serving reuses pool pages and per-thread
//    workspaces across requests;
//  * every request gets a CancelToken armed with its absolute deadline
//    at ADMISSION — queue time counts against the deadline — which the
//    executor polls at tile granularity, so a deadline trip returns the
//    best iterate completed so far instead of hanging;
//  * admission control bounds the queue and each tenant's in-flight
//    share; a shed request is rejected immediately with a retry-after
//    hint rather than queued to miss its deadline;
//  * transient worker faults (site service.reject) are retried with
//    jittered exponential backoff; injected stalls (service.slow) model
//    noisy neighbours and are bounded by the deadline machinery;
//  * under overload the service degrades before it sheds: past a queue
//    fill threshold it relaxes tolerances, past a higher one it also
//    caps cycles (DESIGN.md §10 has the policy table);
//  * a supervisor thread watches per-worker progress heartbeats and
//    self-heals stalls with an escalation ladder — cooperative cancel,
//    session quarantine, declare the worker lost and spawn a
//    replacement — and shutdown() drains with a deadline instead of
//    joining unconditionally (DESIGN.md §15);
//  * every request is observable (DESIGN.md §14): queue/solve/e2e
//    latency lands in lock-free histograms (aggregate and per tenant),
//    per-tenant SLO gauges track deadline-hit/shed ratios and
//    error-budget burn, the ticket rides through the executor span
//    context so a trace nests each request's tile/stage spans under its
//    RequestSpan, and an optional scrape endpoint serves the whole
//    registry in Prometheus text format.
//
// Threading: workers are plain std::threads; each one runs its solves'
// OpenMP regions independently (deliberate oversubscription is the
// overload scenario the bench measures). Tracing's per-thread rings are
// single-writer per OMP thread id, which concurrent workers would share
// — run traced sessions with one worker; metrics and reports are safe
// at any worker count.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "polymg/common/cancel.hpp"
#include "polymg/grid/buffer.hpp"
#include "polymg/obs/exposition.hpp"
#include "polymg/obs/histogram.hpp"
#include "polymg/obs/metrics.hpp"
#include "polymg/service/plan_cache.hpp"
#include "polymg/solvers/guarded.hpp"

namespace polymg::service {

/// Service-wide knobs (admission, degradation, retry).
struct ServiceConfig {
  int workers = 2;                 ///< solve worker threads
  std::size_t queue_capacity = 16; ///< bounded admission queue
  /// Per-tenant cap on in-flight requests (queued + running); 0 = off.
  std::size_t tenant_quota = 8;

  // Retry with jittered exponential backoff for transient rejects
  // (fault site service.reject).
  int max_retries = 3;
  double backoff_base_ms = 1.0;
  double backoff_max_ms = 50.0;
  std::uint64_t backoff_seed = 0x5eedULL;

  /// Injected stall length for fault site service.slow (slept in 1 ms
  /// slices that poll the request token, so a deadline still cuts it
  /// short).
  double slow_fault_ms = 20.0;

  /// retry-after hint scale: a rejected request is told to come back
  /// after retry_after_base_ms × (queued + 1) / workers.
  double retry_after_base_ms = 5.0;

  // Overload degradation ladder, evaluated from the queue fill fraction
  // observed when a request is dequeued (see DESIGN.md §10):
  //   fill < degrade_relax_fill          — serve as requested
  //   fill ≥ degrade_relax_fill          — relax rel_tol ×relax_tol_factor
  //   fill ≥ degrade_cap_fill            — also cap max_cycles
  //   (queue full at submit              — shed: reject + retry-after)
  double degrade_relax_fill = 0.5;
  double degrade_cap_fill = 0.75;
  double relax_tol_factor = 10.0;
  int capped_cycles = 8;

  // Self-healing supervision (DESIGN.md §15). The watchdog samples each
  // worker's progress heartbeat — bumped at every executor granule and
  // every solver cycle — and escalates a busy worker whose heartbeat
  // freezes: after stall_timeout_ms a cooperative cancel of the running
  // request (its result resolves SolveStalled + retry-after); after
  // 2×stall_timeout_ms a session quarantine (the worker's cached
  // executors are dropped and recompiled on next use, in case the wedge
  // lives in a specialized plan); after 3×stall_timeout_ms the worker is
  // declared lost — its request is completed WorkerLost by the
  // supervisor, the thread is detached and a replacement worker with a
  // fresh session is spawned.
  /// Heartbeat freeze that triggers stage 1 (ms); 0 disables the
  /// watchdog entirely — the default, so embedded and debugger-attached
  /// uses never fight an escalation ladder.
  double stall_timeout_ms = 0.0;
  double watchdog_poll_ms = 2.0;  ///< heartbeat sampling period
  /// Injected stall length for fault site solve.stall: an uncooperative
  /// busy-wait that deliberately ignores the request token (a livelock
  /// model) and yields only to the watchdog's kill escalation.
  double stall_fault_ms = 60000.0;

  // Bounded shutdown. Phase 1 drains: workers finish in-flight solves
  // and exit, waited up to shutdown_drain_ms. Phase 2 cancels whatever
  // is still running and waits shutdown_kill_grace_ms more. Stragglers
  // are detached — counted in service.leaked_workers and reported as a
  // RunReport warning — instead of blocking the caller forever.
  double shutdown_drain_ms = 60000.0;
  double shutdown_kill_grace_ms = 500.0;

  // Metrics exposition (obs/exposition.hpp). With metrics_port >= 0 the
  // service owns a scrape endpoint on 127.0.0.1:<metrics_port> (0 = pick
  // an ephemeral port, read it back via metrics_port()); a non-empty
  // metrics_unix_path additionally (or instead) serves the same payload
  // on a unix socket. Telemetry never fails a solve: a bind failure
  // leaves the service running with metrics_running() == false.
  int metrics_port = -1;
  std::string metrics_unix_path;

  /// Availability target behind the per-tenant error-budget burn gauge
  /// (service.tenant.<t>.slo.error_budget_burn_ppm): the budget is
  /// 1 - slo_target, bad events are deadline misses plus sheds, and a
  /// burn of 1e6 ppm means the tenant is consuming its budget exactly as
  /// fast as the target allows.
  double slo_target = 0.999;

  /// Base guard policy template for every solve (checkpoint cadence,
  /// monitor thresholds, ladder permissions, history_limit). The
  /// service fills in cancel/plans/session_executor/checkpoint_pool and
  /// the degradation overrides per request.
  solvers::GuardPolicy guard;
};

/// One solve request. `rhs` must cover the (n+2)^ndim fine domain of
/// `cfg`; the initial guess is zero.
struct SolveRequest {
  solvers::CycleConfig cfg;
  opt::CompileOptions opts;
  grid::Buffer rhs;
  double rel_tol = 1e-8;
  std::string tenant = "default";
  /// Relative deadline in milliseconds from ADMISSION (0 = none). Queue
  /// time counts: a request that waits its whole budget is abandoned at
  /// dequeue without touching a core.
  double deadline_ms = 0.0;
  /// Larger runs earlier among queued requests (FIFO within a class).
  int priority = 0;
};

/// The outcome handed back by wait().
struct SolveResult {
  /// Generic = served (check `converged`); Overloaded = shed at
  /// admission or resource-exhausted while serving (see retry_after_ms);
  /// DeadlineExceeded / Cancelled = stopped, `iterate` holds the best
  /// completed iterate; SolveStalled = the watchdog ended a solve whose
  /// heartbeat froze; WorkerLost = the serving worker stopped responding
  /// entirely and was replaced. Both supervision statuses carry a
  /// retry_after_ms hint — the problem was the replica, not the request.
  ErrorCode status = ErrorCode::Generic;
  bool converged = false;
  solvers::SolveReport report;   ///< full guarded-solve account
  grid::Buffer iterate;          ///< final iterate (empty when shed)
  double queue_ms = 0.0;
  double solve_ms = 0.0;
  /// Admission-to-completion wall time — the exact sample recorded into
  /// the service.e2e_ns histogram, so callers can cross-check histogram
  /// quantiles against sorted per-request latencies.
  double e2e_ms = 0.0;
  /// How far past its deadline the request finished (0 when met) — the
  /// bench asserts this stays within one tile-stage granule.
  double deadline_overshoot_ms = 0.0;
  double retry_after_ms = 0.0;   ///< when status == Overloaded
  int retries = 0;               ///< transient-reject retries consumed
  bool degraded = false;         ///< overload ladder touched this solve
  std::string degradation;       ///< which rung ("relaxed tol", ...)
};

/// Per-tenant roll-up (attach_tenants renders these into a RunReport).
struct TenantStats {
  std::int64_t submitted = 0;
  std::int64_t admitted = 0;
  std::int64_t rejected = 0;
  std::int64_t completed = 0;
  std::int64_t deadline_hits = 0;
  std::int64_t cancelled = 0;
  std::int64_t degraded = 0;
  std::int64_t stalled = 0;  ///< watchdog interventions (SolveStalled/WorkerLost)
  std::int64_t cycles = 0;
  double solve_ms = 0.0;
};

class SolveService {
public:
  explicit SolveService(ServiceConfig cfg);
  ~SolveService();  ///< shutdown(); queued-but-unserved requests cancel
  SolveService(const SolveService&) = delete;
  SolveService& operator=(const SolveService&) = delete;

  /// Admission verdict. A rejected request was NOT queued: resubmit
  /// after retry_after_ms (the fault-injection retry loop in the bench
  /// does exactly this).
  struct Admission {
    bool admitted = false;
    std::uint64_t ticket = 0;      ///< valid only when admitted
    ErrorCode reason = ErrorCode::Generic;  ///< Overloaded on reject
    double retry_after_ms = 0.0;
  };

  /// Admission control: tenant quota, then queue bound. O(queue) under
  /// one lock; never blocks on solving.
  Admission submit(SolveRequest req);

  /// Block until the ticket's solve finishes (or is shed/cancelled) and
  /// surrender the result. Each ticket can be waited on exactly once;
  /// an unknown ticket throws Error(PreconditionViolated).
  SolveResult wait(std::uint64_t ticket);

  /// Request cooperative cancellation. True if the ticket was still
  /// pending (queued or running) — wait() then returns status
  /// Cancelled. Idempotent; false for finished or unknown tickets.
  bool cancel(std::uint64_t ticket);

  /// Stop admitting, cancel queued-but-unstarted requests, then drain
  /// with a deadline: workers get shutdown_drain_ms to finish in-flight
  /// solves, then their tokens are cancelled and kill flags set with
  /// shutdown_kill_grace_ms more; a worker still stuck after that is
  /// DETACHED (counted in service.leaked_workers, surfaced as a
  /// RunReport warning by attach_tenants) and its request completed
  /// WorkerLost, so shutdown() returns in bounded time no matter what a
  /// worker is doing. Idempotent; the destructor calls it.
  void shutdown();

  /// Workers detached by shutdown() because they refused to exit.
  int leaked_workers() const;

  std::size_t queue_depth() const;
  PlanCache& plans() { return plans_; }
  std::map<std::string, TenantStats> tenant_stats() const;
  /// Render per-tenant roll-ups into rr.tenant_lines.
  void attach_tenants(obs::RunReport& rr) const;

  /// Bound TCP port of the scrape endpoint (-1 when not serving TCP —
  /// not configured, or the bind failed).
  int metrics_port() const;
  /// Whether the scrape endpoint is serving on any transport.
  bool metrics_running() const;

private:
  struct Job;

  /// Per-tenant observability handles (latency histograms + SLO gauges),
  /// resolved once per tenant from the Metrics registry and cached here
  /// so the serving path records through raw pointers.
  struct TenantObs {
    obs::Histogram* queue_ns = nullptr;  // service.tenant.<t>.queue_ns
    obs::Histogram* solve_ns = nullptr;  // service.tenant.<t>.solve_ns
    obs::Histogram* e2e_ns = nullptr;    // service.tenant.<t>.e2e_ns
    obs::Gauge* hit_ppm = nullptr;   // ..slo.deadline_hit_ppm
    obs::Gauge* shed_ppm = nullptr;  // ..slo.shed_ppm
    obs::Gauge* burn_ppm = nullptr;  // ..slo.error_budget_burn_ppm
  };

  /// Per-worker supervision handle, shared between the worker thread,
  /// the watchdog and shutdown(). shared_ptr ownership: a detached
  /// (lost/leaked) thread keeps its control block and session alive
  /// after the service has replaced or destroyed its slot.
  struct WorkerCtl;
  struct WorkerSession;

  void worker_main(std::shared_ptr<WorkerCtl> ctl,
                   std::shared_ptr<WorkerSession> ws);
  void serve(Job& job, WorkerCtl& ctl, WorkerSession& ws, double fill);
  void supervisor_loop();
  /// Stage-3 escalation and shutdown orphan cleanup: complete `job` as
  /// `code` on the supervisor's thread so the waiter unblocks even
  /// though the worker never will. Caller holds mu_.
  void complete_abandoned_locked(const std::shared_ptr<Job>& job,
                                 ErrorCode code, int slot);
  double retry_after_locked() const;
  TenantObs& tenant_obs_locked(const std::string& tenant);
  void update_slo_locked(const TenantStats& ts, TenantObs& to) const;
  /// Sleep `ms` in 1 ms slices, polling `tok`; false if it tripped.
  /// `beat` (optional) is bumped every slice so a deliberate sleep
  /// (retry backoff, injected service.slow) reads as progress to the
  /// watchdog, not as a stall.
  static bool interruptible_sleep_ms(double ms, const CancelToken& tok,
                                     std::atomic<std::uint64_t>* beat =
                                         nullptr);

  ServiceConfig cfg_;
  PlanCache plans_;

  mutable std::mutex mu_;
  std::condition_variable cv_worker_;  ///< queue became non-empty / stop
  std::condition_variable cv_done_;    ///< some job finished
  std::deque<std::shared_ptr<Job>> queue_;          // priority-ordered
  std::map<std::uint64_t, std::shared_ptr<Job>> jobs_;
  std::map<std::string, std::size_t> inflight_;     // per-tenant
  std::map<std::string, TenantStats> tenants_;
  std::map<std::string, TenantObs> tenant_obs_;  // guarded by mu_
  std::uint64_t next_ticket_ = 1;
  bool stopping_ = false;

  // Aggregate latency histograms (service.{queue,solve,e2e}_ns),
  // resolved once at construction.
  obs::Histogram* hist_queue_ns_ = nullptr;
  obs::Histogram* hist_solve_ns_ = nullptr;
  obs::Histogram* hist_e2e_ns_ = nullptr;
  std::unique_ptr<obs::ScrapeEndpoint> scrape_;

  /// Per-worker state, slot-indexed. A slot's thread/ctl/session are
  /// replaced together when the watchdog declares the worker lost; the
  /// old (detached) thread keeps the old ctl/session alive through its
  /// captured shared_ptrs.
  std::vector<std::shared_ptr<WorkerCtl>> ctls_;          // guarded by mu_
  std::vector<std::shared_ptr<WorkerSession>> sessions_;  // guarded by mu_
  std::vector<std::thread> workers_;                      // guarded by mu_
  int leaked_workers_ = 0;  // guarded by mu_
  std::thread supervisor_;
  std::atomic<bool> supervisor_stop_{false};
};

}  // namespace polymg::service
