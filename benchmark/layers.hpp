// Inputs, session set-up and single-layer probes shared by the solver
// workloads and the service workload's per-layer pass.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "bench.hpp"
#include "polymg/grid/buffer.hpp"
#include "polymg/opt/plan.hpp"
#include "polymg/runtime/guarded.hpp"
#include "polymg/solvers/poisson.hpp"

namespace pmgbench {

/// Right-hand-side families. Smooth: four seeded sine modes (wavenumbers
/// 3..6 per dimension, random sign and amplitude) plus 1e-4 uniform noise.
/// Rough: uniform noise in [-1, 1]. Each family is paired with cycle
/// configurations on which the cycle count to 1e-8 does not depend on the
/// seed, so a seed changes the data but not the amount of work.
enum class RhsKind { Smooth, Rough };

using polymg::grid::Buffer;
using polymg::solvers::CycleConfig;
using polymg::solvers::PoissonProblem;

Buffer make_rhs(const CycleConfig& cfg, RhsKind kind, std::uint64_t seed);

/// A problem with zero iterate and an empty right-hand side slot (callers
/// swap a generated right-hand side into `f`).
PoissonProblem make_problem(const CycleConfig& cfg);

/// Set-ups per run; setup_s is their median.
constexpr std::size_t kSetupReps = 5;

/// One timed set-up: pipeline build, opt::compile, validation,
/// codegen::jit_specialize into a fresh cache, GuardedExecutor
/// construction and a first run() on the inputs.
struct SetupSample {
  double compile_ms = 0.0;
  double jit_ms = 0.0;
  double ctor_ms = 0.0;
  double first_run_ms = 0.0;
  double total_s = 0.0;
  int jit_kernels = 0;
};

struct Session {
  std::shared_ptr<const polymg::opt::CompiledPipeline> plan;
  std::unique_ptr<polymg::runtime::GuardedExecutor> exec;
};

Session set_up(const Options& opt, const CycleConfig& cfg,
               const polymg::opt::CompileOptions& copts, PoissonProblem& p,
               SpanLog& spans, SetupSample& out);

/// Per-layer set-up metrics (opt.compile_ms, codegen.*, runtime.ctor_ms,
/// runtime.first_run_ms) as medians over the samples, plus the plan's
/// opt.groups and opt.array_mib.
void report_setup_layers(const std::vector<SetupSample>& samples,
                         const polymg::opt::CompiledPipeline& plan,
                         Report& rep);

/// Single-layer probes on `plan` (which `gx` runs) with `p` as input: bare
/// Executor::run at the process's thread count, alternated with
/// GuardedExecutor::run, and at one thread; the plan's computed bytes per
/// cycle; grid::copy_region and Buffer::clone of the fine grid;
/// solvers::residual_norm. Sets runtime.cycle_ms, runtime.guard_ms,
/// runtime.cycle_ms_1t, runtime.par_eff, runtime.model_gbs, grid.copy_ms,
/// grid.clone_ms and solvers.norm_ms.
void probe_layers(const polymg::opt::CompiledPipeline& plan,
                  polymg::runtime::GuardedExecutor& gx, PoissonProblem& p,
                  Report& rep, SpanLog& spans);

/// Repeat `f` until `budget_ms` has passed and at least `min_reps` ran, or
/// `max_reps` ran; returns each call's time in ms (recorded as spans).
template <typename F>
std::vector<double> repeat_timed(SpanLog& spans, const char* name,
                                 int parent, double budget_ms, int min_reps,
                                 int max_reps, F&& f) {
  std::vector<double> ms;
  const auto start = Clock::now();
  while (static_cast<int>(ms.size()) < max_reps &&
         (static_cast<int>(ms.size()) < min_reps ||
          ms_between(start, Clock::now()) < budget_ms)) {
    ms.push_back(timed_ms(spans, name, parent, f));
  }
  return ms;
}

}  // namespace pmgbench
