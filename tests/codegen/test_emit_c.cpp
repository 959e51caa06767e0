#include <gtest/gtest.h>

#include "polymg/codegen/emit_c.hpp"
#include "polymg/opt/compile.hpp"
#include "polymg/solvers/cycles.hpp"

namespace polymg::codegen {
namespace {

using opt::CompileOptions;
using opt::Variant;
using solvers::CycleConfig;

opt::CompiledPipeline plan(Variant v) {
  CycleConfig cfg;
  cfg.ndim = 2;
  cfg.n = 63;
  cfg.levels = 3;
  return opt::compile(solvers::build_cycle(cfg),
                      CompileOptions::for_variant(v, 2));
}

TEST(EmitC, Fig8ShapeForOptPlus) {
  const std::string code = emit_c(plan(Variant::OptPlus), "pipeline_Vcycle");
  EXPECT_NE(code.find("void pipeline_Vcycle("), std::string::npos);
  EXPECT_NE(code.find("pool_allocate"), std::string::npos);
  EXPECT_NE(code.find("pool_deallocate"), std::string::npos);
  EXPECT_NE(code.find("collapse(2)"), std::string::npos);
  EXPECT_NE(code.find("/* Scratchpads */"), std::string::npos);
  EXPECT_NE(code.find("#pragma omp parallel for"), std::string::npos);
}

TEST(EmitC, NaiveHasNoTilingOrPool) {
  const std::string code = emit_c(plan(Variant::Naive), "pipeline");
  EXPECT_EQ(code.find("collapse("), std::string::npos);
  EXPECT_EQ(code.find("pool_allocate"), std::string::npos);
  EXPECT_NE(code.find("malloc"), std::string::npos);
}

TEST(EmitC, LoopsStagesUnderTheSerialGrainPrintNoPragma) {
  // The naive plan runs every stage as plain loops. The 17² and 33²
  // levels (289 and 1089 points) are under the 4096-point serial grain,
  // so the executor runs them on the calling thread; the 65² finest
  // level (4225 points) forks.
  const opt::CompiledPipeline cp = plan(Variant::Naive);
  const std::string code = emit_c(cp, "pipeline");
  int forked = 0;
  int inline_stages = 0;
  for (const opt::GroupPlan& g : cp.groups) {
    ASSERT_EQ(g.exec, opt::GroupExec::Loops);
    for (const opt::StagePlan& sp : g.stages) {
      const ir::FunctionDecl& f = cp.pipe.funcs[sp.func];
      const std::string head = "  /* " + f.name + " */\n";
      const std::size_t at = code.find(head);
      ASSERT_NE(at, std::string::npos) << f.name;
      const std::size_t from = at + head.size();
      const std::string next = code.substr(from, code.find('\n', from) - from);
      const poly::index_t extent = f.domain.dim(0).size();
      if (extent == 65) {
        EXPECT_EQ(next, "#pragma omp parallel for schedule(static)") << f.name;
        ++forked;
      } else {
        EXPECT_TRUE(extent == 17 || extent == 33) << f.name << " " << extent;
        EXPECT_EQ(next,
                  "  /* under the serial grain: runs on the calling thread */")
            << f.name;
        ++inline_stages;
      }
    }
  }
  EXPECT_GT(forked, 0);
  EXPECT_GT(inline_stages, 0);
}

TEST(EmitC, DtileEmitsPhases) {
  const std::string code = emit_c(plan(Variant::DtileOptPlus), "pipeline");
  EXPECT_NE(code.find("phase 1"), std::string::npos);
  EXPECT_NE(code.find("phase 2"), std::string::npos);
  EXPECT_NE(code.find("split/diamond time tiling"), std::string::npos);
}

TEST(EmitC, ExpressionsRendered) {
  const std::string code = emit_c(plan(Variant::OptPlus), "pipeline");
  // The Jacobi smoother body mentions its inputs by name.
  EXPECT_NE(code.find("smooth_pre"), std::string::npos);
  EXPECT_NE(code.find("F("), std::string::npos);
}

TEST(EmitC, TileBoundsFollowTheInteriorPartition) {
  // A 65-point finest level (63 interior points) in 16-row tiles: tile 0
  // starts at the domain edge, inner tiles step through the interior one
  // ghost layer in, and tile 3 ends at the domain edge — the partition
  // poly::TileGrid::tile_box hands the executor.
  CycleConfig cfg;
  cfg.ndim = 2;
  cfg.n = 63;
  cfg.levels = 3;
  CompileOptions o = CompileOptions::for_variant(Variant::OptPlus, 2);
  o.tile = {16, 256, 0};
  const opt::CompiledPipeline cp = opt::compile(solvers::build_cycle(cfg), o);
  const std::string code = emit_c(cp, "pipeline");
  EXPECT_NE(code.find("for (int T_0 = 0; T_0 < 4; T_0++)"), std::string::npos);
  EXPECT_NE(code.find("int lb_0 = (T_0 == 0 ? 0 : 1 + 16*T_0) - overlap_"),
            std::string::npos);
  EXPECT_NE(code.find("int ub_0 = (T_0 == 3 ? 64 : 16 + 16*T_0) + overlap_"),
            std::string::npos);
  // The 256-wide dimension is one tile spanning the whole domain.
  EXPECT_NE(code.find("int lb_1 = 0 - overlap_"), std::string::npos);
  EXPECT_NE(code.find("int ub_1 = 64 + overlap_"), std::string::npos);
  EXPECT_EQ(code.find("16*(T_0+1)"), std::string::npos);
  // The printed bounds are the executor's tiles on the finest level.
  int finest_groups = 0;
  for (const opt::GroupPlan& g : cp.groups) {
    if (g.exec != opt::GroupExec::OverlapTiled || g.tiles.ntiles[0] != 4) {
      continue;
    }
    ++finest_groups;
    for (poly::index_t t0 = 0; t0 < 4; ++t0) {
      const poly::Interval iv = g.tiles.tile_box(t0 * g.tiles.ntiles[1]).dim(0);
      EXPECT_EQ(iv.lo, t0 == 0 ? 0 : 1 + 16 * t0);
      EXPECT_EQ(iv.hi, t0 == 3 ? 64 : 16 + 16 * t0);
    }
  }
  EXPECT_GT(finest_groups, 0);
  // The 17-point coarsest level deals one tile chunk and runs on the
  // calling thread, so its group prints no parallel loop.
  EXPECT_NE(code.find("one tile chunk: runs on the calling thread"),
            std::string::npos);
}

TEST(EmitC, GeneratedLocTracksComplexity) {
  CycleConfig v;
  v.ndim = 2;
  v.n = 63;
  v.levels = 3;
  CycleConfig w = v;
  w.kind = solvers::CycleKind::W;
  const int loc_v = generated_loc(opt::compile(
      solvers::build_cycle(v), CompileOptions::for_variant(Variant::OptPlus, 2)));
  const int loc_w = generated_loc(opt::compile(
      solvers::build_cycle(w), CompileOptions::for_variant(Variant::OptPlus, 2)));
  EXPECT_GT(loc_v, 100);
  EXPECT_GT(loc_w, loc_v);  // W-cycle pipelines generate more code
}

}  // namespace
}  // namespace polymg::codegen
