// Executor behaviour on small synthetic pipelines: memory lifecycle,
// output views, repeated invocation, overlapped-tile execution on a
// pipeline with a live-out that has in-group consumers, an
// allocation-free steady state, the timing counters and the kernel path
// each stage's RunReport row names.
#include <gtest/gtest.h>

#include "polymg/common/alloc_hook.hpp"
#include "polymg/common/parallel.hpp"
#include "polymg/common/rng.hpp"
#include "polymg/opt/validate.hpp"
#include "polymg/runtime/executor.hpp"
#include "polymg/solvers/cycles.hpp"
#include "polymg/solvers/poisson.hpp"
#include "polymg/solvers/varcoef.hpp"

namespace polymg::runtime {
namespace {

using opt::CompileOptions;
using opt::Variant;
using solvers::CycleConfig;

CycleConfig small2d() {
  CycleConfig cfg;
  cfg.ndim = 2;
  cfg.n = 31;
  cfg.levels = 2;
  return cfg;
}

TEST(Executor, RepeatedRunsGiveIdenticalResults) {
  CycleConfig cfg = small2d();
  auto p = solvers::PoissonProblem::random_rhs(2, cfg.n, 5);
  Executor ex(opt::compile(solvers::build_cycle(cfg),
                           CompileOptions::for_variant(Variant::OptPlus, 2)));
  const std::vector<View> ext = {p.v_view(), p.f_view()};
  ex.run(ext);
  grid::Buffer first = grid::make_grid(p.domain());
  grid::copy_region(grid::View::over(first.data(), p.domain()),
                    ex.output_view(0), p.domain());
  ex.run(ext);
  EXPECT_EQ(grid::max_diff(grid::View::over(first.data(), p.domain()),
                           ex.output_view(0), p.domain()),
            0.0);
}

TEST(Executor, PooledModeHasNoSteadyStateMallocs) {
  CycleConfig cfg = small2d();
  auto p = solvers::PoissonProblem::random_rhs(2, cfg.n, 6);
  Executor ex(opt::compile(solvers::build_cycle(cfg),
                           CompileOptions::for_variant(Variant::OptPlus, 2)));
  const std::vector<View> ext = {p.v_view(), p.f_view()};
  ex.run(ext);
  const long mallocs_after_first = ex.pool().malloc_calls();
  for (int i = 0; i < 3; ++i) ex.run(ext);
  EXPECT_EQ(ex.pool().malloc_calls(), mallocs_after_first);
  EXPECT_GT(ex.pool().reuse_hits(), 0);
}

TEST(Executor, NonPooledModeUsesNoPool) {
  CycleConfig cfg = small2d();
  auto p = solvers::PoissonProblem::random_rhs(2, cfg.n, 7);
  Executor ex(opt::compile(solvers::build_cycle(cfg),
                           CompileOptions::for_variant(Variant::Opt, 2)));
  const std::vector<View> ext = {p.v_view(), p.f_view()};
  ex.run(ext);
  EXPECT_EQ(ex.pool().malloc_calls(), 0);
}

TEST(Executor, PoolReleaseShrinksPeakFootprint) {
  CycleConfig cfg = small2d();
  cfg.n = 63;
  cfg.levels = 3;
  auto p = solvers::PoissonProblem::random_rhs(2, cfg.n, 8);
  const std::vector<View> ext = {p.v_view(), p.f_view()};

  Executor ex_plain(opt::compile(solvers::build_cycle(cfg),
                                 CompileOptions::for_variant(Variant::Opt, 2)));
  ex_plain.run(ext);

  Executor ex_pooled(opt::compile(
      solvers::build_cycle(cfg),
      CompileOptions::for_variant(Variant::OptPlus, 2)));
  ex_pooled.run(ext);

  EXPECT_LT(ex_pooled.peak_array_doubles(), ex_plain.peak_array_doubles());
}

TEST(Executor, RejectsWrongExternalCount) {
  CycleConfig cfg = small2d();
  auto p = solvers::PoissonProblem::random_rhs(2, cfg.n, 9);
  Executor ex(opt::compile(solvers::build_cycle(cfg),
                           CompileOptions::for_variant(Variant::Naive, 2)));
  const std::vector<View> ext = {p.v_view()};
  try {
    ex.run(ext);
    FAIL() << "expected Error(PreconditionViolated)";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::PreconditionViolated);
  }
}

TEST(Executor, RejectsExternalViewNotCoveringItsDomain) {
  CycleConfig cfg = small2d();
  auto p = solvers::PoissonProblem::random_rhs(2, cfg.n, 9);
  Executor ex(opt::compile(solvers::build_cycle(cfg),
                           CompileOptions::for_variant(Variant::Naive, 2)));
  // A view over a smaller grid: its inner extent cannot span the
  // declared (n+2)^2 domain.
  auto small = solvers::PoissonProblem::random_rhs(2, (cfg.n + 1) / 2 - 1, 9);
  const std::vector<View> ext = {small.v_view(), p.f_view()};
  try {
    ex.run(ext);
    FAIL() << "expected Error(PreconditionViolated)";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::PreconditionViolated);
  }
}

TEST(Executor, RejectsShiftedExternalView) {
  CycleConfig cfg = small2d();
  auto p = solvers::PoissonProblem::random_rhs(2, cfg.n, 9);
  Executor ex(opt::compile(solvers::build_cycle(cfg),
                           CompileOptions::for_variant(Variant::Naive, 2)));
  // Right size, wrong origin: the view starts at (1,1) so it cannot
  // address row 0 of the declared domain.
  const poly::Box shifted = poly::Box::cube(2, 1, cfg.n + 2);
  View bad = View::over(p.v.data(), shifted);
  const std::vector<View> ext = {bad, p.f_view()};
  EXPECT_THROW(ex.run(ext), Error);
}

TEST(Executor, TileSizeSweepAllAgree) {
  // Property sweep: many tile shapes, one result.
  CycleConfig cfg = small2d();
  cfg.n = 63;
  cfg.levels = 3;
  auto p = solvers::PoissonProblem::random_rhs(2, cfg.n, 10);
  const std::vector<View> ext = {p.v_view(), p.f_view()};

  Executor ref(opt::compile(solvers::build_cycle(cfg),
                            CompileOptions::for_variant(Variant::Naive, 2)));
  ref.run(ext);
  grid::Buffer expected = grid::make_grid(p.domain());
  grid::copy_region(grid::View::over(expected.data(), p.domain()),
                    ref.output_view(0), p.domain());

  for (poly::index_t t0 : {8, 16, 64}) {
    for (poly::index_t t1 : {16, 64, 128}) {
      CompileOptions opts = CompileOptions::for_variant(Variant::OptPlus, 2);
      opts.tile = {t0, t1, 0};
      Executor ex(opt::compile(solvers::build_cycle(cfg), opts));
      ex.run(ext);
      EXPECT_LE(grid::max_diff(grid::View::over(expected.data(), p.domain()),
                               ex.output_view(0), p.domain()),
                1e-13)
          << "tile " << t0 << "x" << t1;
    }
  }
}

TEST(RegEngine, ExecutorSteadyStateIsAllocationFree) {
  // After warm-up, a pooled OptPlus executor must run whole cycles
  // without a single operator-new anywhere in the process: bindings,
  // tile regions and scratch views are all precomputed at plan time.
  // Single-threaded so OpenMP's own lazy pool setup can't trip the
  // counter.
  const int threads_before = max_threads();
  set_num_threads(1);
  {
    auto p = solvers::PoissonProblem::random_rhs(2, small2d().n, 11);
    Executor ex(opt::compile(
        solvers::build_cycle(small2d()),
        opt::CompileOptions::for_variant(opt::Variant::OptPlus, 2)));
    const std::vector<View> ext = {p.v_view(), p.f_view()};
    ex.run(ext);
    ex.run(ext);  // warmed: pool primed, lazy runtime state settled

    const std::uint64_t before = polymg::allocation_count();
    ex.run(ext);
    EXPECT_EQ(polymg::allocation_count(), before);
  }
  set_num_threads(threads_before);
}

TEST(RegEngine, ExecutorTimersAccumulate) {
  auto p = solvers::PoissonProblem::random_rhs(2, small2d().n, 12);
  Executor ex(opt::compile(
      solvers::build_cycle(small2d()),
      opt::CompileOptions::for_variant(opt::Variant::OptPlus, 2)));
  const std::vector<View> ext = {p.v_view(), p.f_view()};
  EXPECT_EQ(ex.runs_timed(), 0);
  ex.run(ext);
  ex.run(ext);
  EXPECT_EQ(ex.runs_timed(), 2);

  double total_group = 0.0;
  for (double s : ex.group_seconds()) {
    EXPECT_GE(s, 0.0);
    total_group += s;
  }
  EXPECT_GT(total_group, 0.0);
  double total_stage = 0.0;
  for (double s : ex.stage_seconds()) {
    EXPECT_GE(s, 0.0);
    total_stage += s;
  }
  EXPECT_GT(total_stage, 0.0);

  ex.reset_timers();
  EXPECT_EQ(ex.runs_timed(), 0);
  for (double s : ex.group_seconds()) EXPECT_EQ(s, 0.0);
}

TEST(RegEngine, CachedTileRegionsSurviveValidationAndMatchFallback) {
  // The plan-time kernel-instance cache must agree with on-the-fly
  // derivation: a compiled OptPlus plan carries non-empty caches, passes
  // validate_plan, and executes identically to the same plan with the
  // caches stripped (forcing the executor's recompute fallback).
  auto p = solvers::PoissonProblem::random_rhs(2, small2d().n, 13);
  const std::vector<View> ext = {p.v_view(), p.f_view()};

  opt::CompiledPipeline cached = opt::compile(
      solvers::build_cycle(small2d()),
      opt::CompileOptions::for_variant(opt::Variant::OptPlus, 2));
  bool has_cache = false;
  for (const auto& g : cached.groups) {
    has_cache = has_cache || !g.tile_regions_cache.empty();
  }
  ASSERT_TRUE(has_cache);
  EXPECT_NO_THROW(opt::validate_plan(cached));

  opt::CompiledPipeline stripped = opt::compile(
      solvers::build_cycle(small2d()),
      opt::CompileOptions::for_variant(opt::Variant::OptPlus, 2));
  for (auto& g : stripped.groups) g.tile_regions_cache.clear();

  Executor ex_cached(std::move(cached));
  Executor ex_stripped(std::move(stripped));
  ex_cached.run(ext);
  ex_stripped.run(ext);
  EXPECT_EQ(grid::max_diff(ex_cached.output_view(0), ex_stripped.output_view(0),
                           p.domain()),
            0.0);
}

TEST(Executor, RunReportNamesKernelPaths) {
  // Every definition of a constant-coefficient Poisson plan is linear,
  // so every stage row reads the tap-loop.
  CycleConfig cfg = small2d();
  Executor poisson(opt::compile(
      solvers::build_cycle(cfg),
      CompileOptions::for_variant(Variant::OptPlus, 2)));
  const obs::RunReport poisson_rep = poisson.run_report();
  ASSERT_FALSE(poisson_rep.stages.empty());
  for (const auto& row : poisson_rep.stages) {
    EXPECT_EQ(row.path, "tap") << row.label;
  }

  // Without the JIT, the varcoef smoothers' β division runs on the
  // interpreter, and the rendered report names it.
  CompileOptions off = CompileOptions::for_variant(Variant::OptPlus, 2);
  off.jit = opt::JitMode::Off;
  Executor vc(opt::compile(solvers::build_varcoef_cycle(cfg), off));
  const obs::RunReport vc_rep = vc.run_report();
  int smoothers = 0;
  for (const auto& row : vc_rep.stages) {
    if (row.label.rfind("smooth", 0) != 0) continue;
    EXPECT_EQ(row.path, "interp") << row.label;
    ++smoothers;
  }
  EXPECT_GT(smoothers, 0);
  EXPECT_NE(vc_rep.render().find("interp"), std::string::npos);
}

}  // namespace
}  // namespace polymg::runtime
