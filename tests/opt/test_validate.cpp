// validate_plan must accept every plan compile() produces and reject
// hand-corrupted ones — one corruption per invariant family.
#include "polymg/opt/validate.hpp"

#include <gtest/gtest.h>

#include "polymg/codegen/jit.hpp"
#include "polymg/common/error.hpp"
#include "polymg/opt/compile.hpp"
#include "polymg/solvers/cycles.hpp"
#include "polymg/solvers/varcoef.hpp"

namespace polymg::opt {
namespace {

using solvers::CycleConfig;
using solvers::CycleKind;
using solvers::SmootherKind;

CompiledPipeline compile_cycle(const CycleConfig& cfg, Variant v) {
  return compile(solvers::build_cycle(cfg),
                 CompileOptions::for_variant(v, cfg.ndim));
}

CycleConfig small2d() {
  CycleConfig cfg;
  cfg.ndim = 2;
  cfg.n = 63;
  cfg.levels = 3;
  return cfg;
}

TEST(ValidatePlan, AcceptsAllVariants2d) {
  for (Variant v : {Variant::Naive, Variant::Opt, Variant::OptPlus,
                    Variant::DtileOptPlus}) {
    CompiledPipeline cp = compile_cycle(small2d(), v);
    const auto issues = plan_issues(cp);
    EXPECT_TRUE(issues.empty())
        << "variant " << static_cast<int>(v) << ": " << issues.front();
    EXPECT_NO_THROW(validate_plan(cp));
  }
}

TEST(ValidatePlan, AcceptsAllVariants3d) {
  CycleConfig cfg;
  cfg.ndim = 3;
  cfg.n = 31;
  cfg.levels = 3;
  for (Variant v : {Variant::Naive, Variant::OptPlus}) {
    CompiledPipeline cp = compile_cycle(cfg, v);
    const auto issues = plan_issues(cp);
    EXPECT_TRUE(issues.empty())
        << "variant " << static_cast<int>(v) << ": " << issues.front();
  }
}

TEST(ValidatePlan, AcceptsCycleKindsAndSmoothers) {
  for (CycleKind k : {CycleKind::V, CycleKind::W, CycleKind::F}) {
    CycleConfig cfg = small2d();
    cfg.kind = k;
    EXPECT_NO_THROW(validate_plan(compile_cycle(cfg, Variant::OptPlus)));
  }
  for (SmootherKind s :
       {SmootherKind::Jacobi, SmootherKind::GSRB, SmootherKind::Chebyshev}) {
    CycleConfig cfg = small2d();
    cfg.smoother = s;
    EXPECT_NO_THROW(validate_plan(compile_cycle(cfg, Variant::OptPlus)));
  }
}

TEST(ValidatePlan, AcceptsReferenceOptions) {
  const CycleConfig cfg = small2d();
  const CompileOptions ref =
      reference_options(CompileOptions::for_variant(Variant::OptPlus, 2));
  EXPECT_EQ(ref.variant, Variant::Naive);
  EXPECT_FALSE(ref.pooled_allocation);
  EXPECT_NO_THROW(validate_plan(compile(solvers::build_cycle(cfg), ref)));
}

TEST(ValidatePlan, RejectsUndersizedArray) {
  CompiledPipeline cp = compile_cycle(small2d(), Variant::OptPlus);
  ASSERT_FALSE(cp.arrays.empty());
  cp.arrays[0].doubles = 1;
  EXPECT_FALSE(plan_issues(cp).empty());
  try {
    validate_plan(cp);
    FAIL() << "expected Error(InvalidPlan)";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::InvalidPlan);
  }
}

TEST(ValidatePlan, RejectsDanglingArrayId) {
  CompiledPipeline cp = compile_cycle(small2d(), Variant::OptPlus);
  cp.array_of_func[0] = static_cast<int>(cp.arrays.size()) + 7;
  EXPECT_FALSE(plan_issues(cp).empty());
}

TEST(ValidatePlan, RejectsDuplicatedFuncInGroups) {
  CompiledPipeline cp = compile_cycle(small2d(), Variant::OptPlus);
  ASSERT_GE(cp.groups.size(), 2u);
  // Schedule the first stage of group 0 a second time in the last group.
  cp.groups.back().stages.push_back(cp.groups.front().stages.front());
  EXPECT_FALSE(plan_issues(cp).empty());
}

TEST(ValidatePlan, RejectsUndersizedScratchpad) {
  CompiledPipeline cp = compile_cycle(small2d(), Variant::OptPlus);
  bool corrupted = false;
  for (auto& g : cp.groups) {
    if (g.exec == GroupExec::OverlapTiled && !g.scratch_sizes.empty()) {
      g.scratch_sizes[0] = 1;  // far below any tile footprint
      g.scratch_doubles_total = 0;
      corrupted = true;
      break;
    }
  }
  ASSERT_TRUE(corrupted) << "OptPlus plan should contain a tiled group";
  EXPECT_FALSE(plan_issues(cp).empty());
}

TEST(ValidatePlan, RejectsPrematureRelease) {
  CompiledPipeline cp = compile_cycle(small2d(), Variant::OptPlus);
  ASSERT_GE(cp.groups.size(), 2u);
  // Find an array first written in some group g and release it right
  // there; any later reader makes that premature.
  for (std::size_t g = 0; g + 1 < cp.groups.size(); ++g) {
    for (const auto& st : cp.groups[g].stages) {
      if (st.array < 0 || cp.arrays[st.array].io) continue;
      cp.release_after_group[g].push_back(st.array);
      const auto issues = plan_issues(cp);
      if (!issues.empty()) {
        SUCCEED();
        return;
      }
      cp.release_after_group[g].pop_back();
    }
  }
  GTEST_SKIP() << "no array with a later reader found to corrupt";
}

TEST(ValidatePlan, RejectsReleaseOfOutputArray) {
  CompiledPipeline cp = compile_cycle(small2d(), Variant::OptPlus);
  int io_array = -1;
  for (std::size_t a = 0; a < cp.arrays.size(); ++a) {
    if (cp.arrays[a].io) io_array = static_cast<int>(a);
  }
  ASSERT_GE(io_array, 0);
  cp.release_after_group.back().push_back(io_array);
  EXPECT_FALSE(plan_issues(cp).empty());
}

TEST(ValidatePlan, RejectsBrokenTimeTileShape) {
  CycleConfig cfg = small2d();
  CompiledPipeline cp = compile_cycle(cfg, Variant::DtileOptPlus);
  bool corrupted = false;
  for (auto& g : cp.groups) {
    if (g.exec == GroupExec::TimeTiled) {
      g.dtile_W = g.dtile_H;  // violates W >= 2H (tiles would overlap)
      corrupted = true;
      break;
    }
  }
  ASSERT_TRUE(corrupted) << "DtileOptPlus plan should time-tile a chain";
  EXPECT_FALSE(plan_issues(cp).empty());
}

TEST(ValidatePlan, AcceptsPlanTimeTileRegionCache) {
  // compile() precomputes every tile's per-stage region; the checker
  // re-derives them and must agree (cache present AND valid).
  CompiledPipeline cp = compile_cycle(small2d(), Variant::OptPlus);
  bool has_cache = false;
  for (const auto& g : cp.groups) {
    if (g.exec == GroupExec::OverlapTiled) {
      EXPECT_FALSE(g.tile_regions_cache.empty());
      has_cache = has_cache || !g.tile_regions_cache.empty();
    }
  }
  ASSERT_TRUE(has_cache) << "OptPlus plan should cache tile regions";
  EXPECT_TRUE(plan_issues(cp).empty());
}

TEST(ValidatePlan, RejectsCorruptedTileRegionCache) {
  CompiledPipeline cp = compile_cycle(small2d(), Variant::OptPlus);
  bool corrupted = false;
  for (auto& g : cp.groups) {
    if (g.exec == GroupExec::OverlapTiled && !g.tile_regions_cache.empty()) {
      // Shift one cached stage region: it no longer matches the
      // re-derived footprint, so the instance table is stale.
      poly::Box& b = g.tile_regions_cache.front();
      b.dim(0) = poly::Interval{b.dim(0).lo + 1, b.dim(0).hi + 1};
      corrupted = true;
      break;
    }
  }
  ASSERT_TRUE(corrupted);
  EXPECT_FALSE(plan_issues(cp).empty());
}

TEST(ValidatePlan, RejectsWrongSizedTileRegionCache) {
  CompiledPipeline cp = compile_cycle(small2d(), Variant::OptPlus);
  bool corrupted = false;
  for (auto& g : cp.groups) {
    if (g.exec == GroupExec::OverlapTiled && !g.tile_regions_cache.empty()) {
      g.tile_regions_cache.pop_back();  // truncated instance table
      corrupted = true;
      break;
    }
  }
  ASSERT_TRUE(corrupted);
  EXPECT_FALSE(plan_issues(cp).empty());
}

TEST(ValidatePlan, ReferencePlanBindsNoJitKernels) {
  // The reference oracle must stay independent of the code it checks:
  // even where a compiler is available, a reference plan of the varcoef
  // cycle (whose β division the JIT otherwise specializes) binds no
  // native kernel, so its non-linear stages interpret bytecode.
  const CycleConfig cfg = small2d();
  CompileOptions base = CompileOptions::for_variant(Variant::OptPlus, 2);
  base.jit = JitMode::On;
  const CompileOptions ref = reference_options(base);
  EXPECT_EQ(ref.jit, JitMode::Off);
  CompiledPipeline cp = compile(solvers::build_varcoef_cycle(cfg), ref);
  EXPECT_FALSE(codegen::jit_specialize(cp));
  EXPECT_EQ(codegen::jit_bound_kernels(cp), 0);
  EXPECT_EQ(cp.jit_module, nullptr);
  EXPECT_TRUE(plan_issues(cp).empty());

  // The same pipeline under the optimized options binds kernels when a
  // compiler is present, so the zero above is the oracle's opt-out.
  if (codegen::jit_toolchain_available()) {
    CompiledPipeline fast = compile(solvers::build_varcoef_cycle(cfg), base);
    EXPECT_TRUE(codegen::jit_specialize(fast));
    EXPECT_GT(codegen::jit_bound_kernels(fast), 0);
  }
}

TEST(ValidatePlan, ErrorListsEveryIssue) {
  CompiledPipeline cp = compile_cycle(small2d(), Variant::OptPlus);
  cp.arrays[0].doubles = 1;
  cp.array_of_func[0] = -2;
  const auto issues = plan_issues(cp);
  EXPECT_GE(issues.size(), 2u);
  try {
    validate_plan(cp);
    FAIL() << "expected Error(InvalidPlan)";
  } catch (const Error& e) {
    const std::string what = e.what();
    for (const auto& issue : issues) {
      EXPECT_NE(what.find(issue), std::string::npos)
          << "missing issue: " << issue;
    }
  }
}

}  // namespace
}  // namespace polymg::opt
