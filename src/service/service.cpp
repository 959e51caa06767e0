#include "polymg/service/service.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "polymg/common/error.hpp"
#include "polymg/common/fault.hpp"
#include "polymg/common/rng.hpp"
#include "polymg/common/timer.hpp"
#include "polymg/obs/metrics.hpp"
#include "polymg/obs/trace.hpp"
#include "polymg/runtime/guarded.hpp"
#include "polymg/runtime/pool.hpp"
#include "polymg/solvers/cycles.hpp"

namespace polymg::service {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              t0)
             .count() /
         1e6;
}

}  // namespace

/// One admitted request's full lifecycle state. The queue and jobs_ map
/// share ownership; wait() surrenders the result and drops the map's
/// reference.
struct SolveService::Job {
  std::uint64_t id = 0;
  int tenant_ix = 0;
  SolveRequest req;
  CancelToken token;
  Clock::time_point submitted{};
  /// Trace timestamp of admission (-1 without an active session) — the
  /// start of the RequestQueueWait span closed at dequeue.
  std::int64_t trace_t0 = -1;
  enum class State { Queued, Running, Done } state = State::Queued;
  SolveResult result;
  /// Watchdog stage 1 marked this job stalled: the worker's completion
  /// path rewrites a cancel-shaped outcome to SolveStalled. Guarded by
  /// mu_.
  bool stalled = false;
  /// The supervisor (stage 3) or bounded shutdown completed this job on
  /// the waiter's behalf; `final` — not `result` — holds the outcome.
  /// The abandoned worker may still be scribbling into `result`, which
  /// nobody reads after this flips. Guarded by mu_.
  bool abandoned = false;
  SolveResult final;
};

/// Supervision handle shared by a worker thread, the watchdog and
/// shutdown(). The heartbeat is the worker's progress epoch: bumped by
/// every executor granule (via GuardPolicy::progress), every solver
/// cycle and every deliberate-sleep slice. All fields are atomics so the
/// watchdog samples without touching mu_ on the worker's hot path.
struct SolveService::WorkerCtl {
  std::atomic<std::uint64_t> heartbeat{0};
  std::atomic<std::uint64_t> job_id{0};     ///< current job, 0 = idle
  std::atomic<bool> quarantine{false};      ///< stage 2: drop session state
  std::atomic<bool> killed{false};          ///< stage 3 / shutdown: abandon
  std::atomic<bool> exited{false};          ///< worker_main returned
};

/// Per-worker persistent serving state. Touched only by its own worker
/// thread, so none of it needs locking: the checkpoint pool keeps its
/// slot buffers warm across requests, and each problem signature keeps
/// a session GuardedExecutor whose Executor state (pool pages,
/// per-thread workspaces and arenas) is reused by every solve of that
/// signature on this worker.
struct SolveService::WorkerSession {
  runtime::MemoryPool ckpt_pool;
  std::map<std::string, std::unique_ptr<runtime::GuardedExecutor>> executors;
  Rng rng{0};
};

SolveService::SolveService(ServiceConfig cfg) : cfg_(std::move(cfg)) {
  PMG_CHECK_CODE(cfg_.workers > 0, ErrorCode::PreconditionViolated,
                 "service needs at least one worker");
  PMG_CHECK_CODE(cfg_.queue_capacity > 0, ErrorCode::PreconditionViolated,
                 "service queue capacity must be positive");
  auto& m = obs::Metrics::instance();
  hist_queue_ns_ = &m.histogram("service.queue_ns");
  hist_solve_ns_ = &m.histogram("service.solve_ns");
  hist_e2e_ns_ = &m.histogram("service.e2e_ns");
  if (cfg_.metrics_port >= 0 || !cfg_.metrics_unix_path.empty()) {
    obs::ScrapeEndpoint::Options so;
    so.tcp_port = cfg_.metrics_port;
    so.unix_path = cfg_.metrics_unix_path;
    scrape_ = std::make_unique<obs::ScrapeEndpoint>(so);
  }
  sessions_.reserve(static_cast<std::size_t>(cfg_.workers));
  ctls_.reserve(static_cast<std::size_t>(cfg_.workers));
  workers_.reserve(static_cast<std::size_t>(cfg_.workers));
  for (int wi = 0; wi < cfg_.workers; ++wi) {
    auto ws = std::make_shared<WorkerSession>();
    ws->rng = Rng(cfg_.backoff_seed + static_cast<std::uint64_t>(wi) * 1000003ULL);
    sessions_.push_back(std::move(ws));
    ctls_.push_back(std::make_shared<WorkerCtl>());
  }
  for (int wi = 0; wi < cfg_.workers; ++wi) {
    auto ctl = ctls_[static_cast<std::size_t>(wi)];
    auto ws = sessions_[static_cast<std::size_t>(wi)];
    workers_.emplace_back([this, ctl, ws] { worker_main(ctl, ws); });
  }
  if (cfg_.stall_timeout_ms > 0.0) {
    supervisor_ = std::thread([this] { supervisor_loop(); });
  }
}

SolveService::~SolveService() { shutdown(); }

int SolveService::leaked_workers() const {
  std::lock_guard<std::mutex> lk(mu_);
  return leaked_workers_;
}

double SolveService::retry_after_locked() const {
  return cfg_.retry_after_base_ms *
         (static_cast<double>(queue_.size()) + 1.0) /
         static_cast<double>(cfg_.workers);
}

int SolveService::metrics_port() const {
  return scrape_ != nullptr ? scrape_->port() : -1;
}

bool SolveService::metrics_running() const {
  return scrape_ != nullptr && scrape_->running();
}

SolveService::TenantObs& SolveService::tenant_obs_locked(
    const std::string& tenant) {
  auto it = tenant_obs_.find(tenant);
  if (it != tenant_obs_.end()) return it->second;
  auto& m = obs::Metrics::instance();
  const std::string base = "service.tenant." + tenant + ".";
  TenantObs to;
  to.queue_ns = &m.histogram(base + "queue_ns");
  to.solve_ns = &m.histogram(base + "solve_ns");
  to.e2e_ns = &m.histogram(base + "e2e_ns");
  to.hit_ppm = &m.gauge(base + "slo.deadline_hit_ppm");
  to.shed_ppm = &m.gauge(base + "slo.shed_ppm");
  to.burn_ppm = &m.gauge(base + "slo.error_budget_burn_ppm");
  return tenant_obs_.emplace(tenant, to).first->second;
}

void SolveService::update_slo_locked(const TenantStats& ts,
                                     TenantObs& to) const {
  if (ts.submitted <= 0) return;
  const double submitted = static_cast<double>(ts.submitted);
  const double hit_ratio =
      ts.completed > 0
          ? static_cast<double>(ts.deadline_hits) /
                static_cast<double>(ts.completed)
          : 0.0;
  const double shed_ratio = static_cast<double>(ts.rejected) / submitted;
  // Bad events against the availability target: deadline misses and
  // sheds both count — a shed request got no service at all. Burn rate
  // 1.0 (== 1e6 ppm) consumes the error budget exactly as fast as the
  // target allows; > 1e6 ppm means the tenant is on track to violate it.
  const double bad =
      static_cast<double>(ts.deadline_hits + ts.rejected) / submitted;
  const double budget = std::max(1.0 - cfg_.slo_target, 1e-9);
  to.hit_ppm->set(static_cast<std::int64_t>(hit_ratio * 1e6));
  to.shed_ppm->set(static_cast<std::int64_t>(shed_ratio * 1e6));
  to.burn_ppm->set(static_cast<std::int64_t>(bad / budget * 1e6));
}

SolveService::Admission SolveService::submit(SolveRequest req) {
  auto& m = obs::Metrics::instance();
  std::unique_lock<std::mutex> lk(mu_);
  TenantStats& ts = tenants_[req.tenant];
  ++ts.submitted;
  // Tenant index = registration order; stable for the service lifetime
  // (used as the `group` coordinate of request trace events).
  const int tix =
      static_cast<int>(std::distance(tenants_.begin(),
                                     tenants_.find(req.tenant)));

  Admission a;
  const bool quota_hit =
      cfg_.tenant_quota > 0 && inflight_[req.tenant] >= cfg_.tenant_quota;
  if (stopping_ || quota_hit || queue_.size() >= cfg_.queue_capacity) {
    // Shed NOW with a hint instead of queueing into a missed deadline.
    a.admitted = false;
    a.reason = ErrorCode::Overloaded;
    a.retry_after_ms = retry_after_locked();
    ++ts.rejected;
    m.counter(quota_hit ? "service.rejected_quota" : "service.rejected")
        .add(1);
    update_slo_locked(ts, tenant_obs_locked(req.tenant));
    PMG_TRACE_INSTANT(RequestReject, tix, quota_hit ? 1 : 0,
                      static_cast<int>(next_ticket_), a.retry_after_ms);
    return a;
  }

  auto job = std::make_shared<Job>();
  job->id = next_ticket_++;
  job->tenant_ix = tix;
  job->req = std::move(req);
  job->submitted = Clock::now();
  PMG_TRACE_NOW(trace_t0);
  job->trace_t0 = trace_t0;
  // The deadline clock starts at admission — queue time counts.
  if (job->req.deadline_ms > 0.0) {
    job->token.set_deadline_after_ms(job->req.deadline_ms);
  }
  ++inflight_[job->req.tenant];
  ++ts.admitted;
  m.counter("service.admitted").add(1);

  // Priority order, FIFO within a class: insert before the first queued
  // job of strictly lower priority.
  auto pos = std::find_if(queue_.begin(), queue_.end(),
                          [&](const std::shared_ptr<Job>& j) {
                            return j->req.priority < job->req.priority;
                          });
  queue_.insert(pos, job);
  jobs_.emplace(job->id, job);
  a.admitted = true;
  a.ticket = job->id;
  PMG_TRACE_INSTANT(RequestAdmit, tix, -1, static_cast<int>(job->id),
                    static_cast<double>(queue_.size()));
  lk.unlock();
  cv_worker_.notify_one();
  return a;
}

bool SolveService::cancel(std::uint64_t ticket) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = jobs_.find(ticket);
  if (it == jobs_.end() || it->second->state == Job::State::Done) {
    return false;
  }
  Job& job = *it->second;
  job.token.cancel();
  PMG_TRACE_INSTANT(RequestCancel, job.tenant_ix,
                    job.state == Job::State::Running ? 1 : 0,
                    static_cast<int>(ticket), 0.0);
  obs::Metrics::instance().counter("service.cancel_requests").add(1);
  return true;
}

SolveResult SolveService::wait(std::uint64_t ticket) {
  std::unique_lock<std::mutex> lk(mu_);
  auto it = jobs_.find(ticket);
  PMG_CHECK_CODE(it != jobs_.end(), ErrorCode::PreconditionViolated,
                 "unknown or already-waited ticket " << ticket);
  std::shared_ptr<Job> job = it->second;
  cv_done_.wait(lk, [&] { return job->state == Job::State::Done; });
  jobs_.erase(ticket);
  // A supervisor-completed job surrenders `final`: the worker the
  // supervisor gave up on may still be writing into `result`.
  return std::move(job->abandoned ? job->final : job->result);
}

std::size_t SolveService::queue_depth() const {
  std::lock_guard<std::mutex> lk(mu_);
  return queue_.size();
}

std::map<std::string, TenantStats> SolveService::tenant_stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return tenants_;
}

void SolveService::attach_tenants(obs::RunReport& rr) const {
  const std::map<std::string, TenantStats> stats = tenant_stats();
  rr.tenant_lines.clear();
  for (const auto& [name, t] : stats) {
    std::ostringstream os;
    os << name << ": " << t.submitted << " submitted, " << t.admitted
       << " admitted, " << t.rejected << " rejected, " << t.completed
       << " completed";
    if (t.deadline_hits > 0) os << ", " << t.deadline_hits << " deadline";
    if (t.cancelled > 0) os << ", " << t.cancelled << " cancelled";
    if (t.degraded > 0) os << ", " << t.degraded << " degraded";
    if (t.stalled > 0) os << ", " << t.stalled << " stalled";
    os << ", " << t.cycles << " cycle(s), " << t.solve_ms << " ms solving";
    rr.tenant_lines.push_back(os.str());
  }
  const int leaked = leaked_workers();
  if (leaked > 0) {
    rr.warnings.push_back(
        "service shutdown detached " + std::to_string(leaked) +
        " stuck worker thread(s) — see the service.leaked_workers counter");
  }
}

void SolveService::shutdown() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stopping_ && workers_.empty()) return;
    stopping_ = true;
    // Queued-but-unstarted requests will never run: resolve them as
    // cancelled so their waiters unblock.
    for (const std::shared_ptr<Job>& job : queue_) {
      job->token.cancel();
      job->result.status = ErrorCode::Cancelled;
      job->result.queue_ms = ms_since(job->submitted);
      job->state = Job::State::Done;
      TenantStats& ts = tenants_[job->req.tenant];
      ++ts.cancelled;
      ++ts.completed;
      --inflight_[job->req.tenant];
    }
    queue_.clear();
  }
  cv_worker_.notify_all();
  cv_done_.notify_all();
  // The supervisor is always cooperative: join unconditionally.
  supervisor_stop_.store(true, std::memory_order_relaxed);
  if (supervisor_.joinable()) supervisor_.join();

  const auto all_exited = [&] {
    for (const auto& c : ctls_) {
      if (!c->exited.load(std::memory_order_acquire)) return false;
    }
    return true;
  };
  const auto wait_exit = [&](double budget_ms) {
    const auto t0 = Clock::now();
    while (!all_exited() && ms_since(t0) < budget_ms) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      cv_worker_.notify_all();
    }
    return all_exited();
  };
  // Phase 1: bounded drain — workers finish their in-flight solves and
  // exit once the queue is empty.
  bool clean = wait_exit(std::max(0.0, cfg_.shutdown_drain_ms));
  if (!clean) {
    // Phase 2: cancel whatever is still running and set kill flags (the
    // injected-stall loop and any future uncooperative path poll them),
    // then grant a short grace.
    {
      std::lock_guard<std::mutex> lk(mu_);
      for (const auto& [id, job] : jobs_) {
        if (job->state == Job::State::Running) job->token.cancel();
      }
      for (const auto& c : ctls_) c->killed.store(true, std::memory_order_relaxed);
    }
    clean = wait_exit(std::max(0.0, cfg_.shutdown_kill_grace_ms));
  }
  // Phase 3: join the exited, detach the stuck. A detached thread holds
  // shared_ptrs to its ctl and session, so the service can be destroyed
  // safely behind it; its job (if any) is completed WorkerLost here so
  // no waiter blocks on a thread that will never answer.
  {
    std::unique_lock<std::mutex> lk(mu_);
    auto& m = obs::Metrics::instance();
    for (std::size_t wi = 0; wi < workers_.size(); ++wi) {
      std::thread& t = workers_[wi];
      if (!t.joinable()) continue;
      if (ctls_[wi]->exited.load(std::memory_order_acquire)) {
        lk.unlock();  // join without the lock: the thread's last steps may need it
        t.join();
        lk.lock();
      } else {
        t.detach();
        ++leaked_workers_;
        m.counter("service.leaked_workers").add(1);
        const std::uint64_t jid =
            ctls_[wi]->job_id.load(std::memory_order_relaxed);
        if (auto it = jobs_.find(jid); it != jobs_.end() &&
                                       it->second->state != Job::State::Done) {
          complete_abandoned_locked(it->second, ErrorCode::WorkerLost,
                                    static_cast<int>(wi));
        }
      }
    }
    workers_.clear();
  }
  cv_done_.notify_all();
}

bool SolveService::interruptible_sleep_ms(double ms, const CancelToken& tok,
                                          std::atomic<std::uint64_t>* beat) {
  double slept = 0.0;
  while (slept < ms) {
    if (tok.stop_requested()) return false;
    const double slice = std::min(1.0, ms - slept);
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
        slice));
    slept += slice;
    // A deliberate sleep is progress, not a stall: the watchdog must not
    // escalate a worker that is merely backing off or absorbing an
    // injected slow fault.
    if (beat != nullptr) beat->fetch_add(1, std::memory_order_relaxed);
  }
  return !tok.stop_requested();
}

void SolveService::serve(Job& job, WorkerCtl& ctl, WorkerSession& ws,
                         double fill) {
  auto& m = obs::Metrics::instance();
  SolveRequest& req = job.req;
  SolveResult& res = job.result;

  // --- Overload degradation ladder (decided from the queue fill seen at
  // --- dequeue; see DESIGN.md §10 for the policy table).
  double rel_tol = req.rel_tol;
  solvers::GuardPolicy pol = cfg_.guard;
  if (fill >= cfg_.degrade_relax_fill) {
    rel_tol *= cfg_.relax_tol_factor;
    res.degraded = true;
    res.degradation = "relaxed tol";
    if (fill >= cfg_.degrade_cap_fill) {
      pol.max_cycles = std::min(pol.max_cycles, cfg_.capped_cycles);
      res.degradation = "relaxed tol + capped cycles";
    }
    m.counter("service.degraded").add(1);
  }
  pol.cancel = &job.token;
  pol.plans = &plans_;
  pol.checkpoint_pool = &ws.ckpt_pool;
  // Request span context: every executor trace event of this solve —
  // including ladder rungs and reference fallbacks — carries the ticket.
  pol.trace_request = static_cast<std::int32_t>(job.id);
  // Progress heartbeat: every executor granule and solver cycle of this
  // solve bumps the worker's epoch, which the watchdog samples.
  pol.progress = &ctl.heartbeat;

  try {
    if (fault::should_fail(fault::kAllocFail)) {
      // Models service-side pool exhaustion: resolves Overloaded with a
      // retry-after hint below, never aborts the worker.
      m.counter("fault.alloc_fail").add(1);
      PMG_TRACE_INSTANT(FaultInjected, job.tenant_ix, -1, /*site=*/11, 0.0);
      throw Error(ErrorCode::PoolExhausted,
                  "injected allocation failure (alloc.fail)");
    }
    // --- Per-worker session executor for this signature: compiled plan
    // --- from the cache (zero compiles on a warm signature), Executor
    // --- state reused across requests.
    const std::string sig = PlanCache::signature(req.cfg, req.opts);
    auto it = ws.executors.find(sig);
    if (it == ws.executors.end()) {
      auto plan = plans_.plan_for(req.cfg, req.opts);
      it = ws.executors
               .emplace(sig, std::make_unique<runtime::GuardedExecutor>(
                                 solvers::build_cycle(req.cfg), req.opts,
                                 std::move(plan)))
               .first;
    }
    pol.session_executor = it->second.get();

    // --- Problem assembly: zero guess, the request's right-hand side.
    solvers::PoissonProblem p;
    p.ndim = req.cfg.ndim;
    p.n = req.cfg.n;
    p.h = 1.0 / static_cast<double>(req.cfg.n + 1);
    std::size_t count = 1;
    for (int d = 0; d < p.ndim; ++d) {
      count *= static_cast<std::size_t>(p.n + 2);
    }
    PMG_CHECK_CODE(req.rhs.size() == count, ErrorCode::PreconditionViolated,
                   "rhs holds " << req.rhs.size() << " doubles, signature "
                                << sig << " needs " << count);
    p.v = grid::Buffer(count);
    p.v.fill(0.0);
    p.f = std::move(req.rhs);

    // --- Transient-fault loop: injected rejects retry with jittered
    // --- exponential backoff, injected stalls burn wall time in
    // --- token-polling slices. Both deterministic under the injector's
    // --- seeded RNG.
    int attempt = 0;
    for (;;) {
      if (fault::should_fail(fault::kServiceReject)) {
        m.counter("fault.service_reject").add(1);
        PMG_TRACE_INSTANT(FaultInjected, job.tenant_ix, -1, /*site=*/6,
                          0.0);
        if (attempt >= cfg_.max_retries) {
          res.status = ErrorCode::Overloaded;
          res.retry_after_ms = cfg_.backoff_max_ms;
          return;
        }
        ++res.retries;
        m.counter("service.retries").add(1);
        double delay = std::min(cfg_.backoff_max_ms,
                                cfg_.backoff_base_ms *
                                    static_cast<double>(1L << attempt));
        delay *= 0.5 + 0.5 * ws.rng.next_double();  // full jitter band
        if (!interruptible_sleep_ms(delay, job.token, &ctl.heartbeat)) break;
        ++attempt;
        continue;
      }
      if (fault::should_fail(fault::kServiceSlow)) {
        m.counter("fault.service_slow").add(1);
        PMG_TRACE_INSTANT(FaultInjected, job.tenant_ix, -1, /*site=*/7,
                          0.0);
        if (!interruptible_sleep_ms(cfg_.slow_fault_ms, job.token,
                                    &ctl.heartbeat)) {
          break;
        }
      }
      if (fault::should_fail(fault::kSolveStall)) {
        m.counter("fault.solve_stall").add(1);
        PMG_TRACE_INSTANT(FaultInjected, job.tenant_ix, -1, /*site=*/9,
                          0.0);
        // Uncooperative stall: deliberately ignores the request token (a
        // stalled worker by definition stopped polling it) and freezes
        // the heartbeat. Only the watchdog's stage-3 kill flag — or the
        // stall running its injected course — ends it.
        const auto t0 = Clock::now();
        while (ms_since(t0) < cfg_.stall_fault_ms &&
               !ctl.killed.load(std::memory_order_relaxed)) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        if (ctl.killed.load(std::memory_order_relaxed)) {
          res.status = ErrorCode::SolveStalled;
          return;
        }
      }
      break;
    }
    // A trip during backoff/stall falls through: guarded_solve's first
    // poll resolves it to the right status with the zero iterate.

    Timer t;
    res.report = solvers::guarded_solve(req.cfg, p, rel_tol, pol, req.opts);
    res.solve_ms = t.elapsed() * 1e3;
    res.converged = res.report.converged;
    res.status = res.report.status;
    res.iterate = std::move(p.v);
  } catch (const Error& e) {
    // Plan compilation / precondition failures surface as a served-but-
    // failed result rather than killing the worker. Resource exhaustion
    // maps to Overloaded + retry-after: the request was fine, the
    // replica was full.
    res.status = e.code();
    if (e.code() == ErrorCode::PoolExhausted) {
      res.status = ErrorCode::Overloaded;
      std::lock_guard<std::mutex> lk(mu_);
      res.retry_after_ms = retry_after_locked();
    }
    res.report.attempts.push_back(solvers::SolveAttempt{});
    res.report.attempts.back().threw = true;
    res.report.attempts.back().error = e.what();
  } catch (const std::exception& e) {
    // Catch-all: an unexpected exception must cost one request, never a
    // worker. Counted and traced so it cannot pass silently.
    m.counter("service.worker_exceptions").add(1);
    PMG_TRACE_INSTANT(WorkerException, job.tenant_ix, -1,
                      static_cast<int>(job.id), 0.0);
    res.status = ErrorCode::Generic;
    res.report.attempts.push_back(solvers::SolveAttempt{});
    res.report.attempts.back().threw = true;
    res.report.attempts.back().error = std::string("unexpected: ") + e.what();
  } catch (...) {
    m.counter("service.worker_exceptions").add(1);
    PMG_TRACE_INSTANT(WorkerException, job.tenant_ix, -1,
                      static_cast<int>(job.id), 0.0);
    res.status = ErrorCode::Generic;
    res.report.attempts.push_back(solvers::SolveAttempt{});
    res.report.attempts.back().threw = true;
    res.report.attempts.back().error = "unexpected non-standard exception";
  }
}

void SolveService::worker_main(std::shared_ptr<WorkerCtl> ctl,
                               std::shared_ptr<WorkerSession> ws) {
  auto& m = obs::Metrics::instance();
  try {
    for (;;) {
      std::shared_ptr<Job> job;
      double fill = 0.0;
      {
        std::unique_lock<std::mutex> lk(mu_);
        cv_worker_.wait(lk, [&] {
          return stopping_ || !queue_.empty() ||
                 ctl->killed.load(std::memory_order_relaxed);
        });
        if (ctl->killed.load(std::memory_order_relaxed)) break;
        if (queue_.empty()) break;  // stopping and drained
        job = queue_.front();
        queue_.pop_front();
        fill = static_cast<double>(queue_.size()) /
               static_cast<double>(cfg_.queue_capacity);
        job->state = Job::State::Running;
        ctl->job_id.store(job->id, std::memory_order_relaxed);
      }
      // Stage-2 quarantine: drop every cached session executor — the
      // next solve of each signature rebuilds from the (shared) plan
      // cache, in case the wedge lived in this worker's executor state.
      if (ctl->quarantine.exchange(false, std::memory_order_relaxed)) {
        ws->executors.clear();
      }
      job->result.queue_ms = ms_since(job->submitted);
      const std::int32_t rq = static_cast<std::int32_t>(job->id);
      PMG_TRACE_SPAN_R(RequestQueueWait, job->trace_t0, job->tenant_ix, -1,
                       static_cast<int>(job->id), job->result.queue_ms, rq);
      PMG_TRACE_NOW(span_t0);
      bool ran = false;

      if (job->token.stop_requested()) {
        // Abandoned while queued: the deadline burned out (or the caller
        // cancelled) before a worker was free — never touch a core.
        const bool cancelled = job->token.cancelled();
        job->result.status = cancelled ? ErrorCode::Cancelled
                                       : ErrorCode::DeadlineExceeded;
        if (!cancelled) {
          PMG_TRACE_INSTANT(DeadlineHit, job->tenant_ix, /*stage=*/0,
                            static_cast<int>(job->id),
                            -job->token.remaining_ns() / 1e6);
          m.counter("service.deadline_hits").add(1);
        }
      } else {
        serve(*job, *ctl, *ws, fill);
        ran = true;
        if (job->result.status == ErrorCode::DeadlineExceeded) {
          PMG_TRACE_INSTANT(DeadlineHit, job->tenant_ix, /*stage=*/2,
                            static_cast<int>(job->id),
                            -job->token.remaining_ns() / 1e6);
          m.counter("service.deadline_hits").add(1);
        }
      }
      if (job->token.has_deadline()) {
        const std::int64_t rem = job->token.remaining_ns();
        if (rem < 0 && rem != CancelToken::kNoDeadline) {
          job->result.deadline_overshoot_ms = -static_cast<double>(rem) / 1e6;
        }
      }
      PMG_TRACE_SPAN_R(RequestSpan, span_t0, job->tenant_ix, -1,
                       static_cast<int>(job->id), job->req.deadline_ms, rq);
      const double e2e_ms = ms_since(job->submitted);
      job->result.e2e_ms = e2e_ms;

      {
        std::lock_guard<std::mutex> lk(mu_);
        ctl->job_id.store(0, std::memory_order_relaxed);
        if (job->state == Job::State::Done) {
          // The supervisor already completed this job on the waiter's
          // behalf (stage 3 / shutdown) — this thread was presumed dead.
          // Its roll-ups are done; adding ours would double-count.
          continue;
        }
        if (job->stalled &&
            (job->result.status == ErrorCode::Cancelled ||
             job->result.status == ErrorCode::DeadlineExceeded ||
             job->result.status == ErrorCode::SolveStalled)) {
          // The watchdog — not the caller — ended this solve: surface it
          // as SolveStalled with a retry-after hint, since the fault was
          // the replica's, not the request's.
          job->result.status = ErrorCode::SolveStalled;
          job->result.retry_after_ms = retry_after_locked();
        }
        TenantStats& ts = tenants_[job->req.tenant];
        TenantObs& to = tenant_obs_locked(job->req.tenant);
        // Latency histograms: two relaxed atomic adds per observation —
        // recording under mu_ only piggybacks on the lock already held
        // for the roll-up, it does not need it. Abandoned-in-queue
        // requests never ran, so solve_ns stays a solve-only
        // distribution.
        const auto q_ns =
            static_cast<std::int64_t>(job->result.queue_ms * 1e6);
        const auto e_ns = static_cast<std::int64_t>(e2e_ms * 1e6);
        hist_queue_ns_->record(q_ns);
        to.queue_ns->record(q_ns);
        if (ran) {
          const auto s_ns =
              static_cast<std::int64_t>(job->result.solve_ms * 1e6);
          hist_solve_ns_->record(s_ns);
          to.solve_ns->record(s_ns);
        }
        hist_e2e_ns_->record(e_ns);
        to.e2e_ns->record(e_ns);
        ++ts.completed;
        if (job->result.status == ErrorCode::DeadlineExceeded) {
          ++ts.deadline_hits;
        }
        if (job->result.status == ErrorCode::Cancelled) ++ts.cancelled;
        if (job->result.status == ErrorCode::SolveStalled) ++ts.stalled;
        if (job->result.degraded) ++ts.degraded;
        ts.cycles += job->result.report.total_cycles;
        ts.solve_ms += job->result.solve_ms;
        --inflight_[job->req.tenant];
        job->state = Job::State::Done;
        m.counter("service.completed").add(1);
        update_slo_locked(ts, to);
      }
      cv_done_.notify_all();
      if (ctl->killed.load(std::memory_order_relaxed)) break;
    }
  } catch (...) {
    // A worker thread must never die silently (std::terminate on an
    // escaped exception would take the whole process): count, trace and
    // exit cleanly; the supervisor completes any orphaned job and spawns
    // a replacement.
    m.counter("service.worker_exceptions").add(1);
    PMG_TRACE_INSTANT(WorkerException, -1, -1,
                      static_cast<int>(
                          ctl->job_id.load(std::memory_order_relaxed)),
                      0.0);
  }
  ctl->exited.store(true, std::memory_order_release);
  cv_done_.notify_all();
}

void SolveService::complete_abandoned_locked(const std::shared_ptr<Job>& job,
                                             ErrorCode code, int slot) {
  auto& m = obs::Metrics::instance();
  job->abandoned = true;
  job->final.status = code;
  job->final.retry_after_ms = retry_after_locked();
  job->final.queue_ms = job->result.queue_ms;
  job->final.e2e_ms = ms_since(job->submitted);
  TenantStats& ts = tenants_[job->req.tenant];
  ++ts.completed;
  ++ts.stalled;
  --inflight_[job->req.tenant];
  job->state = Job::State::Done;
  m.counter("service.completed").add(1);
  update_slo_locked(ts, tenant_obs_locked(job->req.tenant));
  PMG_TRACE_INSTANT(WorkerLost, slot, -1, static_cast<int>(job->id), 0.0);
}

void SolveService::supervisor_loop() {
  auto& m = obs::Metrics::instance();
  obs::Histogram* detect_hist = &m.histogram("service.stall_detect_ns");
  struct SlotWatch {
    std::uint64_t job = 0;        ///< job the heartbeat belongs to
    std::uint64_t beat = 0;       ///< last sampled heartbeat value
    Clock::time_point changed{};  ///< when the heartbeat last moved
    int stage = 0;                ///< escalation rungs already taken
  };
  std::vector<SlotWatch> watch;
  const double poll_ms = std::max(0.5, cfg_.watchdog_poll_ms);
  while (!supervisor_stop_.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(poll_ms));
    std::unique_lock<std::mutex> lk(mu_);
    if (watch.size() != ctls_.size()) watch.resize(ctls_.size());
    for (std::size_t wi = 0; wi < ctls_.size(); ++wi) {
      WorkerCtl& ctl = *ctls_[wi];
      SlotWatch& w = watch[wi];
      const std::uint64_t jid = ctl.job_id.load(std::memory_order_relaxed);
      const std::uint64_t beat = ctl.heartbeat.load(std::memory_order_relaxed);
      if (jid == 0) {  // idle: nothing to supervise
        w.job = 0;
        w.stage = 0;
        continue;
      }
      if (jid != w.job || beat != w.beat) {  // new job or fresh progress
        w.job = jid;
        w.beat = beat;
        w.changed = Clock::now();
        w.stage = 0;
        continue;
      }
      const double frozen_ms = ms_since(w.changed);
      // Stage k fires once the heartbeat has been frozen k×timeout.
      if (frozen_ms < cfg_.stall_timeout_ms * (w.stage + 1)) continue;
      auto it = jobs_.find(jid);
      std::shared_ptr<Job> job =
          (it != jobs_.end() && it->second->state == Job::State::Running)
              ? it->second
              : nullptr;
      if (job == nullptr) {
        // The job finished between samples (wait() may already have
        // erased it); the next dequeue resets the watch.
        w.job = 0;
        w.stage = 0;
        continue;
      }
      ++w.stage;
      switch (w.stage) {
        case 1:
          // Stage 1 — cooperative: cancel the request's token. A solve
          // that merely forgot to converge honours it at the next
          // granule poll and resolves SolveStalled in the worker.
          job->stalled = true;
          job->token.cancel();
          m.counter("service.stalls_detected").add(1);
          detect_hist->record(static_cast<std::int64_t>(frozen_ms * 1e6));
          PMG_TRACE_INSTANT(StallDetected, static_cast<int>(wi), -1,
                            static_cast<int>(jid), frozen_ms);
          break;
        case 2:
          // Stage 2 — quarantine: the worker (if it ever dequeues again)
          // drops its cached executors; a wedge in specialized executor
          // state does not survive into the next request.
          ctl.quarantine.store(true, std::memory_order_relaxed);
          m.counter("service.sessions_quarantined").add(1);
          PMG_TRACE_INSTANT(SessionQuarantine, static_cast<int>(wi), -1,
                            static_cast<int>(jid), frozen_ms);
          break;
        default: {
          // Stage 3 — declare the worker lost: complete its request
          // WorkerLost so the waiter unblocks, detach the stuck thread
          // and spawn a replacement with a fresh control block and
          // session. The old thread keeps its ctl/session alive through
          // its captured shared_ptrs and exits at its next kill-flag
          // poll; if it never polls again, it is the leak the
          // service.workers_lost counter owns up to.
          ctl.killed.store(true, std::memory_order_relaxed);
          complete_abandoned_locked(job, ErrorCode::WorkerLost,
                                    static_cast<int>(wi));
          m.counter("service.workers_lost").add(1);
          if (workers_[wi].joinable()) workers_[wi].detach();
          auto nctl = std::make_shared<WorkerCtl>();
          auto nws = std::make_shared<WorkerSession>();
          nws->rng = Rng(cfg_.backoff_seed +
                         static_cast<std::uint64_t>(wi) * 1000003ULL + 17ULL);
          ctls_[wi] = nctl;
          sessions_[wi] = nws;
          workers_[wi] = std::thread([this, nctl, nws] {
            worker_main(nctl, nws);
          });
          w = SlotWatch{};
          break;
        }
      }
    }
    lk.unlock();
    cv_done_.notify_all();
    cv_worker_.notify_all();
  }
}

}  // namespace polymg::service
