// GuardedExecutor — Executor with plan validation, numerical health
// checks and reference-plan fallback.
//
// The optimized plan (fusion, overlapped tiling, storage reuse, pooling)
// is the fast path; a plan-invariant violation or a numerical fault in it
// must not corrupt a solve. The guard (a) validates the compiled plan
// before trusting it, (b) enforces the documented externals precondition
// on every run, (c) scans pipeline outputs for non-finite values after
// each invocation, and (d) on InvalidPlan / NumericalDivergence /
// PoolExhausted (or any other internal failure) re-executes the same
// invocation on a reference plan — the unfused, unpooled, untiled
// compilation of the same pipeline. When the optimized path is healthy
// its results are bitwise those of a plain Executor (it IS a plain
// Executor); the guard adds only the output scan.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "polymg/ir/pipeline.hpp"
#include "polymg/runtime/executor.hpp"

namespace polymg::obs {
class Counter;
}

namespace polymg::runtime {

/// Running account of what the guard observed and did.
struct GuardReport {
  int optimized_runs = 0;  ///< invocations completed on the optimized plan
  int fallback_runs = 0;   ///< invocations served by the reference plan
  bool used_fallback = false;  ///< any fallback so far
  ErrorCode last_error = ErrorCode::Generic;  ///< code of the last incident
  std::string last_incident;  ///< human-readable note on the last incident
};

class GuardedExecutor {
public:
  /// Compiles `pipe` under `opts` and validates the plan. A plan that
  /// fails validation is recorded (InvalidPlan) and every run() is served
  /// by the reference plan instead of throwing here.
  GuardedExecutor(ir::Pipeline pipe, const opt::CompileOptions& opts);

  /// Adopt a precompiled (and already validated) plan instead of
  /// compiling — the service layer's plan cache compiles a signature once
  /// and every subsequent executor copies the CompiledPipeline, so a
  /// cache hit performs zero opt::compile calls. `pipe` is still retained
  /// for the lazy reference fallback.
  GuardedExecutor(ir::Pipeline pipe, const opt::CompileOptions& opts,
                  std::shared_ptr<const opt::CompiledPipeline> precompiled);

  /// Execute one pipeline invocation with the guard. Precondition
  /// violations (wrong external count, a view not covering its declared
  /// domain) throw Error(PreconditionViolated) — caller bugs are not
  /// recoverable by a different plan. Every other failure of the
  /// optimized path falls back to the reference plan; if the reference
  /// output is also non-finite, throws Error(NumericalDivergence).
  void run(std::span<const View> externals);

  /// View of the i-th pipeline output from whichever plan produced the
  /// last run()'s result.
  View output_view(int i) const;

  /// The optimized plan (valid only when has_optimized_plan()).
  const opt::CompiledPipeline& plan() const;
  bool has_optimized_plan() const { return optimized_ != nullptr; }
  /// Whether the last run() was served by the reference plan.
  bool last_run_fell_back() const { return last_from_fallback_; }
  const GuardReport& report() const { return report_; }

  /// Attach a cooperative cancellation token to both plans (non-owning;
  /// nullptr detaches; set only between runs). A deadline/cancel trip is
  /// rethrown by run() instead of triggering the reference fallback —
  /// re-running the invocation on the slower plan is the opposite of
  /// what a deadline asks for.
  void set_cancel_token(const CancelToken* token);

  /// Forward the request span context to both plans (see
  /// Executor::set_trace_request): trace events from a fallback re-run
  /// carry the same ticket as the optimized attempt they replace. Set or
  /// clear (-1) only between runs.
  void set_trace_request(std::int32_t req);
  std::int32_t trace_request() const { return trace_req_; }

  /// Point both plans' progress-epoch mirrors at one external heartbeat
  /// (see Executor::set_progress_sink): the supervisor watches a single
  /// counter per worker regardless of which plan serves the run.
  /// Non-owning; nullptr detaches; set only between runs.
  void set_progress_sink(std::atomic<std::uint64_t>* sink);

private:
  void note_incident(ErrorCode code, const std::string& what);
  void ensure_reference();
  void check_externals(std::span<const View> externals) const;
  bool outputs_healthy(const Executor& ex) const;

  ir::Pipeline pipe_;  ///< retained to compile the reference plan lazily
  opt::CompileOptions opts_;
  const CancelToken* cancel_ = nullptr;  ///< forwarded to both executors
  std::int32_t trace_req_ = -1;          ///< forwarded to both executors
  /// Heartbeat mirror forwarded to both executors (non-owning).
  std::atomic<std::uint64_t>* progress_sink_ = nullptr;
  std::unique_ptr<Executor> optimized_;
  std::unique_ptr<Executor> reference_;
  bool last_from_fallback_ = false;
  GuardReport report_;

  // obs metrics handles (resolved once at construction).
  obs::Counter* ctr_health_scans_ = nullptr;     // guarded.health_scans
  obs::Counter* ctr_health_failures_ = nullptr;  // guarded.health_failures
  obs::Counter* ctr_fallback_runs_ = nullptr;    // guarded.fallback_runs
  obs::Counter* ctr_optimized_runs_ = nullptr;   // guarded.optimized_runs
};

}  // namespace polymg::runtime
