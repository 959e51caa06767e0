// The executor's parallel determinism: groups run in order, one fork/join
// each, and the bits a cycle computes depend on neither the thread count,
// the schedule knobs (serial grain, collapse depth), the number of runs
// nor the thread count the executor was built at.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <vector>

#include "polymg/common/parallel.hpp"
#include "polymg/obs/metrics.hpp"
#include "polymg/opt/compile.hpp"
#include "polymg/runtime/executor.hpp"
#include "polymg/solvers/cycles.hpp"
#include "polymg/solvers/poisson.hpp"

namespace polymg::runtime {
namespace {

using opt::CompileOptions;
using opt::Variant;
using solvers::CycleConfig;
using solvers::CycleKind;

CycleConfig w2d() {
  CycleConfig cfg;
  cfg.ndim = 2;
  cfg.n = 63;
  cfg.levels = 3;
  cfg.kind = CycleKind::W;
  return cfg;
}

std::vector<double> output_bits(const Executor& ex) {
  const int func = ex.plan().pipe.outputs[0];
  const index_t count = ex.plan().pipe.funcs[func].domain.count();
  std::vector<double> bits(static_cast<std::size_t>(count));
  std::memcpy(bits.data(), ex.output_view(0).ptr, sizeof(double) * bits.size());
  return bits;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), sizeof(double) * a.size()) == 0;
}

/// Whether a group deals out a single chunk: an overlap group of one tile
/// chunk, or a Loops group whose every stage is under the serial grain.
bool one_chunk(const opt::CompiledPipeline& cp, const opt::GroupPlan& g) {
  switch (g.exec) {
    case opt::GroupExec::OverlapTiled:
      return g.parallel_chunks() == 1;
    case opt::GroupExec::Loops:
      for (const opt::StagePlan& sp : g.stages) {
        if (opt::loops_stage_forks(cp.pipe.funcs[sp.func].domain, cp.opts)) {
          return false;
        }
      }
      return true;
    case opt::GroupExec::TimeTiled:
      break;
  }
  return false;
}

/// Compile + run one cycle at `nthreads` and return the raw output bits.
std::vector<double> run_bits(const CycleConfig& cfg, CompileOptions o,
                             int nthreads) {
  const int prev = set_num_threads(nthreads);
  auto p = solvers::PoissonProblem::random_rhs(cfg.ndim, cfg.n, 21);
  Executor ex(opt::compile(solvers::build_cycle(cfg), o));
  const std::vector<View> ext = {p.v_view(), p.f_view()};
  ex.run(ext);
  std::vector<double> bits = output_bits(ex);
  set_num_threads(prev);
  return bits;
}

TEST(Sched, BitExactAcrossSchedules) {
  // The schedule knobs change whether a Loops stage forks (serial grain 0
  // forks every stage, an unreachable grain runs every one on the calling
  // thread) and how tiles are dealt to threads (collapse off parallelizes
  // only the outermost tile loop) — never which points a granule computes
  // or how, so the outputs agree byte for byte.
  for (Variant v : {Variant::Opt, Variant::OptPlus, Variant::DtileOptPlus}) {
    for (CycleKind kind : {CycleKind::V, CycleKind::W}) {
      CycleConfig cfg = w2d();
      cfg.kind = kind;
      const CompileOptions base = CompileOptions::for_variant(v, 2);
      CompileOptions forked = base;
      forked.serial_grain = 0;
      CompileOptions serial = base;
      serial.serial_grain = std::numeric_limits<index_t>::max();
      CompileOptions flat = base;
      flat.collapse = false;
      const std::vector<double> ref = run_bits(cfg, base, max_threads());
      for (const CompileOptions& o : {forked, serial, flat}) {
        EXPECT_TRUE(same_bits(ref, run_bits(cfg, o, max_threads())))
            << "variant " << opt::to_string(v) << " kind "
            << static_cast<int>(kind) << " serial_grain " << o.serial_grain
            << " collapse " << o.collapse;
      }
    }
  }
}

TEST(Sched, BitExactAcrossThreadCounts) {
  // OMP_NUM_THREADS ∈ {1, 2, 4}: slabs and tiles never share a written
  // point and the executor performs no cross-point reductions, so the
  // partition — and therefore every computed bit — cannot depend on the
  // team size.
  for (Variant v : {Variant::OptPlus, Variant::DtileOptPlus}) {
    for (CycleKind kind : {CycleKind::V, CycleKind::W}) {
      CycleConfig cfg = w2d();
      cfg.kind = kind;
      const CompileOptions o = CompileOptions::for_variant(v, 2);
      const std::vector<double> ref = run_bits(cfg, o, 1);
      for (int threads : {2, 4}) {
        EXPECT_TRUE(same_bits(ref, run_bits(cfg, o, threads)))
            << "variant " << opt::to_string(v) << " kind "
            << static_cast<int>(kind) << " threads " << threads;
      }
    }
  }
}

TEST(Sched, RunsAboveTheThreadCountItWasBuiltAt) {
  // Per-thread arenas and workspaces are sized at construction. An
  // executor built at 1 thread and run at 4 must cap its teams at that
  // capacity (indexing past it was a heap overflow in the tile and slab
  // kernels) and still match an executor built at 4. OptPlus runs
  // overlap-tiled groups; Naive runs per-stage Loops, forking on the
  // finest level (65^2 points, above the serial grain).
  for (Variant v : {Variant::OptPlus, Variant::Naive}) {
    for (CycleKind kind : {CycleKind::V, CycleKind::W}) {
      CycleConfig cfg = w2d();
      cfg.kind = kind;
      const CompileOptions o = CompileOptions::for_variant(v, 2);
      auto p = solvers::PoissonProblem::random_rhs(2, cfg.n, 23);
      const std::vector<View> ext = {p.v_view(), p.f_view()};

      const int prev = set_num_threads(1);
      Executor narrow(opt::compile(solvers::build_cycle(cfg), o));
      set_num_threads(4);
      Executor wide(opt::compile(solvers::build_cycle(cfg), o));
      narrow.run(ext);
      const std::vector<double> got = output_bits(narrow);
      wide.run(ext);
      const std::vector<double> want = output_bits(wide);
      narrow.run(ext);  // a second run reuses the capped workspaces
      const std::vector<double> again = output_bits(narrow);
      set_num_threads(prev);

      EXPECT_TRUE(same_bits(want, got))
          << opt::to_string(v) << " kind " << static_cast<int>(kind);
      EXPECT_TRUE(same_bits(want, again))
          << opt::to_string(v) << " kind " << static_cast<int>(kind);
    }
  }
}

TEST(Sched, RepeatedRunsAreIdentical) {
  // One executor, repeated runs at changing team sizes: pooled arrays
  // and scratch arenas are reused, never reinterpreted.
  const CycleConfig cfg = w2d();
  auto p = solvers::PoissonProblem::random_rhs(2, cfg.n, 13);
  Executor ex(opt::compile(solvers::build_cycle(cfg),
                           CompileOptions::for_variant(Variant::OptPlus, 2)));
  const std::vector<View> ext = {p.v_view(), p.f_view()};
  ex.run(ext);
  const std::vector<double> first = output_bits(ex);
  const int prev = max_threads();
  for (int threads : {1, 2, 4}) {
    set_num_threads(threads);
    ex.run(ext);
    EXPECT_TRUE(same_bits(first, output_bits(ex))) << "threads " << threads;
  }
  set_num_threads(prev);
}

TEST(Sched, TimersAccumulateUnderDependenceSchedule) {
  // The name predates the executor's single fork/join-per-group schedule;
  // one run of it must count as one timed run with wall time in the groups.
  const CycleConfig cfg = w2d();
  auto p = solvers::PoissonProblem::random_rhs(2, cfg.n, 17);
  Executor ex(opt::compile(solvers::build_cycle(cfg),
                           CompileOptions::for_variant(Variant::OptPlus, 2)));
  const std::vector<View> ext = {p.v_view(), p.f_view()};
  ex.run(ext);
  EXPECT_EQ(ex.runs_timed(), 1);
  double total = 0.0;
  for (double s : ex.group_seconds()) total += s;
  EXPECT_GT(total, 0.0);
}

TEST(Sched, ResetTimersClearsEveryAccumulator) {
  const CycleConfig cfg = w2d();
  auto p = solvers::PoissonProblem::random_rhs(2, cfg.n, 19);
  Executor ex(opt::compile(solvers::build_cycle(cfg),
                           CompileOptions::for_variant(Variant::OptPlus, 2)));
  const std::vector<View> ext = {p.v_view(), p.f_view()};
  ex.run(ext);
  ex.run(ext);
  ASSERT_EQ(ex.runs_timed(), 2);

  ex.reset_timers();
  EXPECT_EQ(ex.runs_timed(), 0);
  for (double s : ex.group_seconds()) EXPECT_EQ(s, 0.0);
  for (double s : ex.stage_seconds()) EXPECT_EQ(s, 0.0);

  // The accumulators start fresh: one more run attributes exactly one
  // run's worth of time.
  ex.run(ext);
  EXPECT_EQ(ex.runs_timed(), 1);
  double total = 0.0;
  for (double s : ex.group_seconds()) total += s;
  EXPECT_GT(total, 0.0);
  const double after_one = total;
  ex.reset_timers();
  ex.run(ext);
  double total2 = 0.0;
  for (double s : ex.group_seconds()) total2 += s;
  // Same problem, same plan: one run after a reset must not accumulate
  // materially more than a single run did (10x headroom for timer noise).
  EXPECT_LT(total2, 10.0 * after_one + 1.0);
}

TEST(Sched, OneChunkGroupsRunInlineAndTheReportSaysSo) {
  // Each RunReport group row says how its last run was dealt out; exactly
  // the one-chunk groups ran inline on the calling thread, and
  // executor.inline_groups grows by their number per run.
  const CycleConfig cfg = w2d();
  auto p = solvers::PoissonProblem::random_rhs(2, cfg.n, 29);
  const std::vector<View> ext = {p.v_view(), p.f_view()};
  obs::Counter& inline_groups =
      obs::Metrics::instance().counter("executor.inline_groups");
  for (int threads : {2, 4}) {
    const int prev = set_num_threads(threads);
    Executor ex(opt::compile(solvers::build_cycle(cfg),
                             CompileOptions::for_variant(Variant::OptPlus, 2)));
    const opt::CompiledPipeline& cp = ex.plan();
    std::int64_t want_inline = 0;
    for (const opt::GroupPlan& g : cp.groups) want_inline += one_chunk(cp, g);
    ASSERT_GT(want_inline, 0);
    ASSERT_LT(want_inline, static_cast<std::int64_t>(cp.groups.size()));

    ex.run(ext);
    const std::int64_t before = inline_groups.value();
    ex.run(ext);
    EXPECT_EQ(inline_groups.value() - before, want_inline)
        << threads << " threads";

    const obs::RunReport rep = ex.run_report();
    const std::string text = rep.render();
    ASSERT_EQ(rep.groups.size(), cp.groups.size());
    for (std::size_t gi = 0; gi < cp.groups.size(); ++gi) {
      const obs::RunReport::TimeRow& row = rep.groups[gi];
      const std::size_t at = text.find("  " + row.label + " ");
      ASSERT_NE(at, std::string::npos) << row.label;
      const std::string line = text.substr(at, text.find('\n', at) - at);
      if (one_chunk(cp, cp.groups[gi])) {
        EXPECT_EQ(row.threads, 0) << line;
        EXPECT_EQ(row.chunks, 1) << line;
        EXPECT_NE(line.find(", inline"), std::string::npos) << line;
      } else {
        EXPECT_GT(row.chunks, 1) << line;
        EXPECT_GE(row.threads, 1) << line;
        EXPECT_LE(row.threads, threads) << line;
        EXPECT_EQ(line.find("inline"), std::string::npos) << line;
        EXPECT_NE(line.find(" / "), std::string::npos) << line;
      }
    }
    EXPECT_NE(text.find(" 1 tile, inline"), std::string::npos) << text;
    set_num_threads(prev);
  }
}

TEST(Sched, OneChunkRunOpensNoRegionAndMatchesTheForkedPath) {
  // One tile row per level with collapse off makes every overlap group a
  // single chunk, and an unreachable serial grain keeps every Loops stage
  // on the calling thread: the run opens no parallel region. Dealing the
  // same tiles to a team (collapse(2) on a copy of the plan) computes the
  // same bits.
  const CycleConfig cfg = w2d();
  CompileOptions o = CompileOptions::for_variant(Variant::OptPlus, 2);
  o.tile = {1024, 16, 0};
  o.collapse = false;
  o.serial_grain = std::numeric_limits<index_t>::max();
  opt::CompiledPipeline serial = opt::compile(solvers::build_cycle(cfg), o);
  opt::CompiledPipeline forked = serial;
  int forked_groups = 0;
  for (opt::GroupPlan& g : forked.groups) {
    if (g.exec != opt::GroupExec::OverlapTiled) continue;
    g.collapse_depth = 2;
    forked_groups += g.parallel_chunks() > 1;
  }
  ASSERT_GT(forked_groups, 0);
  for (const opt::GroupPlan& g : serial.groups) {
    ASSERT_TRUE(one_chunk(serial, g));
  }

  auto p = solvers::PoissonProblem::random_rhs(2, cfg.n, 31);
  const std::vector<View> ext = {p.v_view(), p.f_view()};
  const int prev = set_num_threads(4);
  Executor a(std::move(serial));
  Executor b(std::move(forked));
  const std::uint64_t regions = parallel_regions_entered();
  a.run(ext);
  a.run(ext);
  EXPECT_EQ(parallel_regions_entered(), regions);
  const std::vector<double> got = output_bits(a);
  b.run(ext);
  EXPECT_GT(parallel_regions_entered(), regions);
  EXPECT_TRUE(same_bits(got, output_bits(b)));
  set_num_threads(prev);
}

}  // namespace
}  // namespace polymg::runtime
