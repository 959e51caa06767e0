#include "polymg/runtime/guarded.hpp"

#include "polymg/common/health.hpp"
#include "polymg/obs/metrics.hpp"
#include "polymg/obs/trace.hpp"
#include "polymg/opt/validate.hpp"

namespace polymg::runtime {

GuardedExecutor::GuardedExecutor(ir::Pipeline pipe,
                                 const opt::CompileOptions& opts)
    : pipe_(std::move(pipe)), opts_(opts) {
  auto& m = obs::Metrics::instance();
  ctr_health_scans_ = &m.counter("guarded.health_scans");
  ctr_health_failures_ = &m.counter("guarded.health_failures");
  ctr_fallback_runs_ = &m.counter("guarded.fallback_runs");
  ctr_optimized_runs_ = &m.counter("guarded.optimized_runs");
  try {
    opt::CompiledPipeline cp = opt::compile(ir::Pipeline(pipe_), opts_);
    opt::validate_plan(cp);
    optimized_ = std::make_unique<Executor>(std::move(cp));
  } catch (const Error& e) {
    note_incident(e.code() == ErrorCode::Generic ? ErrorCode::InvalidPlan
                                                 : e.code(),
                  e.what());
  }
}

GuardedExecutor::GuardedExecutor(
    ir::Pipeline pipe, const opt::CompileOptions& opts,
    std::shared_ptr<const opt::CompiledPipeline> precompiled)
    : pipe_(std::move(pipe)), opts_(opts) {
  auto& m = obs::Metrics::instance();
  ctr_health_scans_ = &m.counter("guarded.health_scans");
  ctr_health_failures_ = &m.counter("guarded.health_failures");
  ctr_fallback_runs_ = &m.counter("guarded.fallback_runs");
  ctr_optimized_runs_ = &m.counter("guarded.optimized_runs");
  PMG_CHECK_CODE(precompiled != nullptr, ErrorCode::PreconditionViolated,
                 "null precompiled plan");
  // The cache validated the plan at insert time; copying a CompiledPipeline
  // is pure data (vectors), no opt::compile involved.
  optimized_ = std::make_unique<Executor>(*precompiled);
}

void GuardedExecutor::set_cancel_token(const CancelToken* token) {
  cancel_ = token;
  if (optimized_ != nullptr) optimized_->set_cancel_token(token);
  if (reference_ != nullptr) reference_->set_cancel_token(token);
}

void GuardedExecutor::set_trace_request(std::int32_t req) {
  trace_req_ = req;
  if (optimized_ != nullptr) optimized_->set_trace_request(req);
  if (reference_ != nullptr) reference_->set_trace_request(req);
}

void GuardedExecutor::set_progress_sink(std::atomic<std::uint64_t>* sink) {
  progress_sink_ = sink;
  if (optimized_ != nullptr) optimized_->set_progress_sink(sink);
  if (reference_ != nullptr) reference_->set_progress_sink(sink);
}

void GuardedExecutor::note_incident(ErrorCode code, const std::string& what) {
  report_.last_error = code;
  report_.last_incident = what;
}

void GuardedExecutor::ensure_reference() {
  if (reference_ != nullptr) return;
  // The reference plan must itself validate — if it does not, the bug is
  // upstream of any optimization and there is nothing left to degrade to.
  opt::CompiledPipeline cp = opt::compile(
      ir::Pipeline(pipe_), opt::reference_options(opts_));
  opt::validate_plan(cp);
  reference_ = std::make_unique<Executor>(std::move(cp));
  reference_->set_cancel_token(cancel_);
  reference_->set_trace_request(trace_req_);
  reference_->set_progress_sink(progress_sink_);
}

void GuardedExecutor::check_externals(
    std::span<const View> externals) const {
  PMG_CHECK_CODE(externals.size() == pipe_.externals.size(),
                 ErrorCode::PreconditionViolated,
                 "expected " << pipe_.externals.size()
                             << " external grids, got " << externals.size());
  for (std::size_t i = 0; i < externals.size(); ++i) {
    PMG_CHECK_CODE(externals[i].covers(pipe_.externals[i].domain),
                   ErrorCode::PreconditionViolated,
                   "external view " << i << " does not cover the domain of "
                                    << pipe_.externals[i].name);
  }
}

bool GuardedExecutor::outputs_healthy(const Executor& ex) const {
  PMG_TRACE_NOW(t0);
  ctr_health_scans_->add(1);
  bool healthy = true;
  for (std::size_t i = 0; i < pipe_.outputs.size(); ++i) {
    const ir::FunctionDecl& f = pipe_.funcs[pipe_.outputs[i]];
    if (health::has_nonfinite(ex.output_view(static_cast<int>(i)),
                              f.domain)) {
      healthy = false;
      break;
    }
  }
  if (!healthy) ctr_health_failures_->add(1);
  PMG_TRACE_SPAN(HealthScan, t0, -1, -1, healthy ? 1 : 0,
                 static_cast<double>(pipe_.outputs.size()));
  return healthy;
}

void GuardedExecutor::run(std::span<const View> externals) {
  check_externals(externals);
  last_from_fallback_ = false;
  if (optimized_ != nullptr) {
    try {
      optimized_->run(externals);
      if (outputs_healthy(*optimized_)) {
        ++report_.optimized_runs;
        ctr_optimized_runs_->add(1);
        return;
      }
      note_incident(ErrorCode::NumericalDivergence,
                    "non-finite values in optimized-plan output");
    } catch (const Error& e) {
      if (e.code() == ErrorCode::PreconditionViolated) throw;
      // A deadline/cancel trip propagates: falling back would re-run the
      // whole invocation on the slower reference plan — the opposite of
      // what the token asked for. The caller keeps its last iterate.
      if (e.code() == ErrorCode::DeadlineExceeded ||
          e.code() == ErrorCode::Cancelled) {
        note_incident(e.code(), e.what());
        throw;
      }
      note_incident(e.code(), e.what());
    }
  }
  PMG_TRACE_INSTANT(Fallback, -1, -1, static_cast<int>(report_.last_error),
                    0.0);
  ctr_fallback_runs_->add(1);
  ensure_reference();
  reference_->run(externals);
  ++report_.fallback_runs;
  report_.used_fallback = true;
  last_from_fallback_ = true;
  if (!outputs_healthy(*reference_)) {
    throw Error(ErrorCode::NumericalDivergence,
                "reference plan also produced non-finite outputs — the "
                "inputs or the pipeline definition are bad");
  }
}

View GuardedExecutor::output_view(int i) const {
  const Executor* ex =
      last_from_fallback_ ? reference_.get() : optimized_.get();
  PMG_CHECK(ex != nullptr, "output_view before any successful run");
  return ex->output_view(i);
}

const opt::CompiledPipeline& GuardedExecutor::plan() const {
  PMG_CHECK(optimized_ != nullptr, "no valid optimized plan");
  return optimized_->plan();
}

}  // namespace polymg::runtime
