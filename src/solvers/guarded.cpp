#include "polymg/solvers/guarded.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <sstream>

#include "polymg/common/error.hpp"
#include "polymg/common/fault.hpp"
#include "polymg/obs/metrics.hpp"
#include "polymg/obs/trace.hpp"
#include "polymg/opt/validate.hpp"
#include "polymg/runtime/guarded.hpp"
#include "polymg/runtime/pool.hpp"
#include "polymg/solvers/checkpoint.hpp"
#include "polymg/solvers/metrics.hpp"

namespace polymg::solvers {

namespace {

/// One rung of the ladder: a full configuration to try from scratch.
struct Rung {
  CycleConfig cfg;
  opt::CompileOptions opts;
  std::string description;
  RungKind kind = RungKind::AsConfigured;
};

const char* smoother_name(SmootherKind s) {
  switch (s) {
    case SmootherKind::Jacobi: return "Jacobi";
    case SmootherKind::GSRB: return "GSRB";
    case SmootherKind::Chebyshev: return "Chebyshev";
  }
  return "?";
}

/// Build the degradation ladder. Remedies are cumulative: once the plan
/// has been dropped to reference, every later rung keeps it; once the
/// smoother is Jacobi, omega backoff is the only lever left.
std::vector<Rung> build_ladder(const CycleConfig& cfg,
                               const opt::CompileOptions& opts,
                               const GuardPolicy& policy) {
  std::vector<Rung> ladder;
  ladder.push_back({cfg, opts, "as configured", RungKind::AsConfigured});
  CycleConfig cur = cfg;
  opt::CompileOptions cur_opts = opts;
  while (static_cast<int>(ladder.size()) < policy.max_attempts) {
    if (policy.allow_reference_plan &&
        cur_opts.variant != opt::Variant::Naive) {
      cur_opts = opt::reference_options(cur_opts);
      ladder.push_back({cur, cur_opts, "reference plan",
                        RungKind::ReferencePlan});
    } else if (policy.allow_smoother_downgrade &&
               cur.smoother != SmootherKind::Jacobi) {
      std::string from = smoother_name(cur.smoother);
      cur.smoother = SmootherKind::Jacobi;
      ladder.push_back({cur, cur_opts, from + " -> Jacobi",
                        RungKind::SmootherDowngrade});
    } else if (policy.allow_omega_reduction) {
      cur.omega *= policy.omega_backoff;
      std::ostringstream os;
      os << "omega -> " << cur.omega;
      ladder.push_back({cur, cur_opts, os.str(), RungKind::OmegaBackoff});
    } else {
      break;  // no remedies left
    }
  }
  return ladder;
}

/// Append to a ring-bounded vector: once `limit` entries are held the
/// oldest is dropped (and counted, so reports can say the history is a
/// suffix) and the vector never reallocates past its reserve.
void push_bounded(std::vector<double>& v, double x, int limit,
                  std::int64_t& dropped) {
  if (limit > 0 && static_cast<int>(v.size()) >= limit) {
    v.erase(v.begin());
    ++dropped;
  }
  v.push_back(x);
}

}  // namespace

const char* to_string(RungKind k) {
  switch (k) {
    case RungKind::AsConfigured: return "as-configured";
    case RungKind::ReferencePlan: return "reference-plan";
    case RungKind::SmootherDowngrade: return "smoother-downgrade";
    case RungKind::OmegaBackoff: return "omega-backoff";
    case RungKind::CheckpointRollback: return "checkpoint-rollback";
    case RungKind::DeadlineStop: return "deadline-stop";
  }
  return "?";
}

SolveReport guarded_solve(const CycleConfig& cfg, PoissonProblem& p,
                          double rel_tol, const GuardPolicy& policy,
                          const opt::CompileOptions& opts) {
  SolveReport report;
  report.initial_residual = residual_norm(p.v_view(), p.f_view(), p.n, p.h);
  report.final_residual = report.initial_residual;
  const double target =
      rel_tol * report.initial_residual + policy.rel_tol_floor;
  if (report.initial_residual <= target) {
    report.converged = true;
    return report;
  }

  // Every retry restarts from the iterate the caller handed in.
  const grid::Buffer v0 = p.v.clone();
  const auto restore = [&] {
    std::memcpy(p.v.data(), v0.data(), v0.size() * sizeof(double));
  };

  auto& solver_degrades = obs::Metrics::instance().counter("solver.degrades");
  auto& solver_cycles = obs::Metrics::instance().counter("solver.cycles");
  auto& sdc_counter = obs::Metrics::instance().counter("resil.sdc_detected");
  const bool ckpt_on = policy.checkpoint_cadence > 0;
  // One pool for every snapshot generation of the solve: after the first
  // capture, checkpointing reuses its buffers — no malloc traffic between
  // (or after steady-state) checkpoints. A caller-owned pool
  // (policy.checkpoint_pool) extends the reuse across solves.
  runtime::MemoryPool local_ckpt_pool;
  runtime::MemoryPool& ckpt_pool =
      policy.checkpoint_pool != nullptr ? *policy.checkpoint_pool
                                        : local_ckpt_pool;
  report.residual_history.reserve(
      static_cast<std::size_t>(std::max(1, policy.history_limit)));

  // Records a token trip: best iterate so far stays in p.v (the copy-out
  // after ex.run never happened for the aborted cycle), the interrupted
  // attempt is recorded as a DeadlineStop pseudo-rung, and the ladder is
  // never walked past it.
  const auto finalize_stopped = [&](SolveAttempt&& attempt, ErrorCode code) {
    report.status = code;
    report.deadline_hit = code == ErrorCode::DeadlineExceeded;
    report.cancelled = code == ErrorCode::Cancelled;
    attempt.kind = RungKind::DeadlineStop;
    PMG_TRACE_INSTANT(Degrade, -1, static_cast<int>(report.attempts.size()),
                      static_cast<int>(RungKind::DeadlineStop), 0.0);
    obs::Metrics::instance()
        .counter(report.deadline_hit ? "solver.deadline_stops"
                                     : "solver.cancel_stops")
        .add(1);
    report.attempts.push_back(std::move(attempt));
    report.final_residual = report.attempts.back().last_residual;
  };

  const std::vector<Rung> ladder = build_ladder(cfg, opts, policy);
  for (std::size_t ri = 0; ri < ladder.size(); ++ri) {
    const Rung& rung = ladder[ri];
    SolveAttempt attempt;
    attempt.description = rung.description;
    attempt.kind = rung.kind;
    if (!report.attempts.empty()) {
      // Walking down a rung is a degradation decision — record it where
      // both the trace and the metrics snapshot can see it.
      solver_degrades.add(1);
      PMG_TRACE_INSTANT(Degrade, -1, static_cast<int>(ri),
                        static_cast<int>(rung.kind), 0.0);
      restore();
    }
    attempt.first_residual =
        residual_norm(p.v_view(), p.f_view(), p.n, p.h);
    attempt.last_residual = attempt.first_residual;

    health::ResidualMonitor monitor(
        {policy.divergence_factor, policy.stagnation_ratio,
         policy.stagnation_window, std::max(1, policy.history_limit)});
    try {
      // Attempt 0 may reuse a caller-owned session executor and/or adopt
      // a precompiled plan from the cache; ladder rungs always build
      // their own — their configurations differ from the cached
      // signature by definition.
      std::optional<runtime::GuardedExecutor> own;
      runtime::GuardedExecutor* exp = nullptr;
      if (ri == 0 && policy.session_executor != nullptr) {
        exp = policy.session_executor;
      } else {
        std::shared_ptr<const opt::CompiledPipeline> pre;
        if (ri == 0 && policy.plans != nullptr) {
          pre = policy.plans->plan_for(rung.cfg, rung.opts);
        }
        if (pre != nullptr) {
          own.emplace(build_cycle(rung.cfg), rung.opts, std::move(pre));
        } else {
          own.emplace(build_cycle(rung.cfg), rung.opts);
        }
        exp = &*own;
      }
      runtime::GuardedExecutor& ex = *exp;
      // The token and request span context are attached for this attempt
      // only: a session executor outlives the request they belong to.
      ex.set_cancel_token(policy.cancel);
      ex.set_trace_request(policy.trace_request);
      ex.set_progress_sink(policy.progress);
      struct TokenDetach {
        runtime::GuardedExecutor& ex;
        ~TokenDetach() {
          ex.set_cancel_token(nullptr);
          ex.set_trace_request(-1);
          ex.set_progress_sink(nullptr);
        }
      } detach{ex};
      // Session executors accumulate fallback counts across solves;
      // attribute only this attempt's delta.
      const int fallbacks_before = ex.report().fallback_runs;
      Checkpoint ckpt(ckpt_pool);
      int rollbacks_left = policy.max_rollbacks;
      const index_t v_doubles = static_cast<index_t>(p.v.size());
      double prev_r = attempt.first_residual;

      // Snapshot: iterate + monitor classification state + the residual
      // the SDC guard compares against. `next_cycle` is where execution
      // resumes after a rollback.
      const auto capture = [&](int next_cycle) {
        ckpt.begin(next_cycle, static_cast<int>(ri));
        ckpt.save(0, p.v.data(), v_doubles);
        const health::ResidualMonitor::State ms = monitor.state();
        ckpt.set_meta(0, ms.best);
        ckpt.set_meta(1, ms.last);
        ckpt.set_meta(2, static_cast<double>(ms.count));
        ckpt.set_meta(3, static_cast<double>(ms.stalled));
        ckpt.set_meta(4, static_cast<double>(ms.trend));
        ckpt.set_meta(5, prev_r);
        ckpt.commit();
        ++report.checkpoint_writes;
      };
      // Rewind to the snapshot. False when there is nothing restorable
      // (no budget, or the payload failed its checksum) — the caller then
      // lets the ordinary ladder handle the incident.
      const auto rollback = [&]() -> bool {
        if (!ckpt.valid() || rollbacks_left <= 0) return false;
        if (!ckpt.restore(0, p.v.data(), v_doubles)) return false;
        health::ResidualMonitor::State ms;
        ms.best = ckpt.meta(0);
        ms.last = ckpt.meta(1);
        ms.count = static_cast<std::size_t>(ckpt.meta(2));
        ms.stalled = static_cast<int>(ckpt.meta(3));
        ms.trend = static_cast<health::Trend>(static_cast<int>(ckpt.meta(4)));
        monitor.restore(ms);
        prev_r = ckpt.meta(5);
        --rollbacks_left;
        ++attempt.rollbacks;
        ++report.checkpoint_restores;
        PMG_TRACE_INSTANT(Degrade, static_cast<int>(ri), ckpt.next_cycle(),
                          static_cast<int>(RungKind::CheckpointRollback),
                          0.0);
        return true;
      };

      if (ckpt_on) capture(0);
      const std::vector<grid::View> ext = {p.v_view(), p.f_view()};
      int c = 0;
      while (c < policy.max_cycles) {
        // Between-cycle stop poll: cheap (two relaxed loads) and exact —
        // p.v holds the just-completed cycle's iterate, so stopping here
        // costs nothing in progress.
        if (policy.cancel != nullptr && policy.cancel->stop_requested()) {
          finalize_stopped(std::move(attempt),
                           policy.cancel->cancelled()
                               ? ErrorCode::Cancelled
                               : ErrorCode::DeadlineExceeded);
          return report;
        }
        // Injected crash between cycles (fault site solve.crash): the
        // process "died" and restarted — resume from the snapshot. A
        // crash with no restorable snapshot ends the attempt; the ladder
        // (reference plan first) takes over.
        if (ckpt_on && fault::should_fail(fault::kSolveCrash)) {
          obs::Metrics::instance().counter("fault.solve_crash").add(1);
          PMG_TRACE_INSTANT(FaultInjected, -1, c, /*site=*/4, 0.0);
          if (!rollback()) {
            throw Error(ErrorCode::CheckpointCorrupt,
                        "injected crash at cycle " + std::to_string(c) +
                            " with no restorable checkpoint");
          }
          ++attempt.crashes;
          c = ckpt.next_cycle();
          continue;
        }
        ex.run(ext);
        grid::copy_region(p.v_view(), ex.output_view(0), p.domain());
        const double r = residual_norm(p.v_view(), p.f_view(), p.n, p.h);
        ++attempt.cycles;
        ++report.total_cycles;
        solver_cycles.add(1);
        // Solver-side heartbeat: covers the between-run work (residual
        // norms, checkpoints) the executor's granule bumps cannot see.
        if (policy.progress != nullptr) {
          policy.progress->fetch_add(1, std::memory_order_relaxed);
        }
        // SDC guard: multigrid contracts the residual every cycle, so a
        // single-cycle jump of orders of magnitude (or a non-finite norm)
        // is corrupted arithmetic, not slow numerics. Rewind instead of
        // abandoning the whole configuration; if the snapshot itself is
        // unusable, fall through and let the monitor classify.
        if (ckpt_on && std::isfinite(prev_r) && prev_r > 0.0 &&
            (!std::isfinite(r) || r > policy.sdc_jump_factor * prev_r)) {
          ++attempt.sdc_detected;
          ++report.sdc_detected;
          sdc_counter.add(1);
          PMG_TRACE_INSTANT(SdcDetected, c, static_cast<int>(ri), 0, r);
          if (rollback()) {
            c = ckpt.next_cycle();
            continue;
          }
        }
        push_bounded(report.residual_history, r, policy.history_limit,
                     report.history_dropped);
        PMG_TRACE_INSTANT(Residual, static_cast<int>(ri), c, 0, r);
        attempt.last_residual = r;
        attempt.trend = monitor.observe(r);
        prev_r = r;
        ++c;
        if (r <= target) {
          attempt.converged = true;
          break;
        }
        if (attempt.trend != health::Trend::Converging) break;
        if (ckpt_on && c % policy.checkpoint_cadence == 0) capture(c);
      }
      attempt.executor_fallbacks =
          ex.report().fallback_runs - fallbacks_before;
    } catch (const Error& e) {
      // A deadline/cancel trip mid-cycle is a stop, not a failure to
      // degrade around: the aborted run never reached the copy-out, so
      // p.v still holds the last completed cycle's iterate (bit-exact
      // across thread counts).
      if (e.code() == ErrorCode::DeadlineExceeded ||
          e.code() == ErrorCode::Cancelled) {
        attempt.error = e.what();
        finalize_stopped(std::move(attempt), e.code());
        return report;
      }
      attempt.threw = true;
      attempt.error = e.what();
      attempt.trend = health::Trend::Diverging;
    }

    const bool done = attempt.converged;
    // An attempt that was still contracting when it hit the cycle cap
    // ran out of budget, not of numerical health — no ladder rung fixes
    // that, and every rung is a strictly weaker configuration. Stop and
    // report instead of degrading a working solve.
    const bool out_of_budget = !done && !attempt.threw &&
                               attempt.trend == health::Trend::Converging;
    report.attempts.push_back(std::move(attempt));
    if (done) {
      report.converged = true;
      report.final_residual = report.attempts.back().last_residual;
      return report;
    }
    if (out_of_budget) break;
  }

  // Ladder exhausted: leave the last attempt's iterate in place and
  // report honestly. The final residual is the best the last rung got.
  report.final_residual = report.attempts.empty()
                              ? report.initial_residual
                              : report.attempts.back().last_residual;
  return report;
}

void attach_convergence(const SolveReport& sr, obs::RunReport& rr) {
  rr.have_convergence = true;
  rr.converged = sr.converged;
  rr.initial_residual = sr.initial_residual;
  rr.final_residual = sr.final_residual;
  rr.total_cycles = sr.total_cycles;
  rr.residual_history = sr.residual_history;
  rr.residual_history_dropped = sr.history_dropped;
  rr.attempt_lines.clear();
  for (std::size_t i = 0; i < sr.attempts.size(); ++i) {
    const SolveAttempt& a = sr.attempts[i];
    std::ostringstream os;
    os << "[" << i << "] " << to_string(a.kind) << " (" << a.description
       << "): " << a.cycles << " cycle(s), " << a.first_residual << " -> "
       << a.last_residual;
    if (a.threw) os << ", failed: " << a.error;
    if (a.converged) os << ", converged";
    if (a.executor_fallbacks > 0) {
      os << ", " << a.executor_fallbacks << " executor fallback(s)";
    }
    if (a.rollbacks > 0) {
      os << ", " << a.rollbacks << " rollback(s)";
      if (a.crashes > 0) os << " (" << a.crashes << " crash)";
      if (a.sdc_detected > 0) os << " (" << a.sdc_detected << " SDC)";
    }
    rr.attempt_lines.push_back(os.str());
  }
}

std::string SolveReport::summary() const {
  std::ostringstream os;
  os << (converged ? "converged" : "NOT converged") << ": residual "
     << initial_residual << " -> " << final_residual << " in "
     << total_cycles << " cycle(s), " << attempts.size()
     << " attempt(s)";
  if (deadline_hit) os << ", stopped by deadline (best iterate kept)";
  if (cancelled) os << ", cancelled (best iterate kept)";
  if (checkpoint_writes > 0 || checkpoint_restores > 0) {
    os << ", " << checkpoint_writes << " checkpoint(s), "
       << checkpoint_restores << " restore(s)";
  }
  if (sdc_detected > 0) os << ", " << sdc_detected << " SDC detected";
  if (history_dropped > 0) {
    os << ", history ring dropped " << history_dropped << " oldest";
  }
  os << "\n";
  for (std::size_t i = 0; i < attempts.size(); ++i) {
    const SolveAttempt& a = attempts[i];
    os << "  [" << i << "] " << a.description << ": ";
    if (a.threw) {
      os << "failed (" << a.error << ")";
    } else {
      os << a.cycles << " cycle(s), " << a.first_residual << " -> "
         << a.last_residual << ", " << health::to_string(a.trend);
      if (a.converged) os << ", converged";
      if (a.executor_fallbacks > 0) {
        os << ", " << a.executor_fallbacks << " executor fallback(s)";
      }
      if (a.rollbacks > 0) {
        os << ", " << a.rollbacks << " rollback(s)";
        if (a.crashes > 0) os << " [" << a.crashes << " crash]";
        if (a.sdc_detected > 0) os << " [" << a.sdc_detected << " SDC]";
      }
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace polymg::solvers
