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
