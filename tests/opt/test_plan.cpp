#include <gtest/gtest.h>

#include <map>
#include <ostream>
#include <string>

#include "polymg/opt/compile.hpp"
#include "polymg/solvers/cycles.hpp"
#include "polymg/solvers/nas_mg.hpp"

namespace polymg::opt {
namespace {

using solvers::CycleConfig;
using solvers::CycleKind;

CompiledPipeline compile_small(Variant v, int ndim = 2) {
  CycleConfig cfg;
  cfg.ndim = ndim;
  cfg.n = ndim == 2 ? 63 : 15;
  cfg.levels = 3;
  CompileOptions opts = CompileOptions::for_variant(v, ndim);
  opts.tile = ndim == 2 ? poly::TileSizes{16, 32, 0}
                        : poly::TileSizes{8, 8, 16};
  return compile(solvers::build_cycle(cfg), opts);
}

// Every in-group producer region covers what its consumers read.
void expect_regions_cover_footprints(const CompiledPipeline& cp) {
  for (const GroupPlan& g : cp.groups) {
    if (g.exec != GroupExec::OverlapTiled) continue;
    std::vector<poly::Box> regions;
    for (poly::index_t t = 0; t < g.tiles.total; ++t) {
      tile_regions(cp.pipe, g, g.tiles.tile_box(t), regions);
      for (std::size_t p = 0; p < g.stages.size(); ++p) {
        const StagePlan& sp = g.stages[p];
        const ir::FunctionDecl& cf = cp.pipe.funcs[sp.func];
        // Every in-group producer region must cover what this stage reads.
        for (const auto& [cpos, slot] : sp.in_group_consumers) {
          (void)cpos;
        }
        for (std::size_t s = 0; s < cf.sources.size(); ++s) {
          if (cf.sources[s].external) continue;
          for (std::size_t q = 0; q < g.stages.size(); ++q) {
            if (g.stages[q].func != cf.sources[s].index) continue;
            const poly::Box need = poly::intersect(
                poly::footprint(cf.access_for(static_cast<int>(s)),
                                regions[p]),
                cp.pipe.funcs[g.stages[q].func].domain);
            EXPECT_TRUE(regions[q].contains(need))
                << cf.name << " reads " << need << " of "
                << cp.pipe.funcs[g.stages[q].func].name << " but region is "
                << regions[q];
          }
        }
      }
    }
  }
}

// The tiles' owned slices of every live-out partition its domain.
void expect_owned_regions_partition(const CompiledPipeline& cp) {
  for (const GroupPlan& g : cp.groups) {
    if (g.exec != GroupExec::OverlapTiled) continue;
    const ir::FunctionDecl& anchor = cp.pipe.funcs[g.stages[g.anchor].func];
    for (const StagePlan& sp : g.stages) {
      if (sp.array < 0) continue;
      const ir::FunctionDecl& f = cp.pipe.funcs[sp.func];
      poly::index_t covered = 0;
      std::vector<poly::Box> owned;
      for (poly::index_t t = 0; t < g.tiles.total; ++t) {
        const poly::Box own = owned_region(f, sp.rel, g.tiles.tile_box(t),
                                           anchor.domain);
        covered += own.count();
        for (const poly::Box& prev : owned) {
          EXPECT_TRUE(poly::intersect(own, prev).empty())
              << f.name << ": overlapping owned regions";
        }
        owned.push_back(own);
      }
      EXPECT_EQ(covered, f.domain.count())
          << f.name << ": owned regions must tile the domain";
    }
  }
}

// Every tile's stage regions fit the plan-time scratchpad bounds.
void expect_scratch_bounds_hold(const CompiledPipeline& cp) {
  for (const GroupPlan& g : cp.groups) {
    if (g.exec != GroupExec::OverlapTiled) continue;
    std::vector<poly::Box> regions;
    for (poly::index_t t = 0; t < g.tiles.total; ++t) {
      tile_regions(cp.pipe, g, g.tiles.tile_box(t), regions);
      for (std::size_t p = 0; p < g.stages.size(); ++p) {
        const StagePlan& sp = g.stages[p];
        if (sp.scratch_buffer < 0) continue;
        EXPECT_LE(regions[p].count(), g.scratch_sizes[sp.scratch_buffer])
            << cp.pipe.funcs[sp.func].name;
        for (int d = 0; d < cp.pipe.ndim; ++d) {
          EXPECT_LE(regions[p].dim(d).size(), sp.scratch_extent[d]);
        }
      }
    }
  }
}

TEST(Plan, TileRegionsCoverConsumerFootprints) {
  expect_regions_cover_footprints(compile_small(Variant::OptPlus));
}

TEST(Plan, OwnedRegionsPartitionLiveoutDomains) {
  expect_owned_regions_partition(compile_small(Variant::OptPlus));
}

TEST(Plan, ScratchExtentBoundsHold) {
  expect_scratch_bounds_hold(compile_small(Variant::OptPlus));
}

// ---- The opt+ plans of the benchmark and paper-figure workloads, with
// ---- their default tile sizes: every level is 2^k+1 points wide
// ---- (2^k+2 for NAS-MG), so edge tiles carry the ghost layers.

CompiledPipeline compile_cycle(int ndim, poly::index_t n, int levels,
                               CycleKind kind) {
  CycleConfig cfg;
  cfg.ndim = ndim;
  cfg.n = n;
  cfg.levels = levels;
  cfg.kind = kind;
  return compile(solvers::build_cycle(cfg),
                 CompileOptions::for_variant(Variant::OptPlus, ndim));
}

CompiledPipeline compile_nas(poly::index_t n, int levels) {
  solvers::NasMgConfig cfg;
  cfg.n = n;
  cfg.levels = levels;
  return compile(solvers::build_nas_mg_pipeline(cfg),
                 CompileOptions::for_variant(Variant::OptPlus, 3));
}

struct WorkloadShape {
  std::string name;
  CompiledPipeline (*build)();
};

// Stable test names: gtest would otherwise print the parameter's bytes,
// pointers included.
void PrintTo(const WorkloadShape& s, std::ostream* os) { *os << s.name; }

const WorkloadShape kWorkloadShapes[] = {
    {"W2d_n1023_l7", [] { return compile_cycle(2, 1023, 7, CycleKind::W); }},
    {"V2d_n255_l7", [] { return compile_cycle(2, 255, 7, CycleKind::V); }},
    {"V3d_n127_l4", [] { return compile_cycle(3, 127, 4, CycleKind::V); }},
    {"Nas_n64_l6", [] { return compile_nas(64, 6); }},
};

class PlanAtShape : public ::testing::TestWithParam<WorkloadShape> {};

TEST_P(PlanAtShape, TileRegionsCoverConsumerFootprints) {
  expect_regions_cover_footprints(GetParam().build());
}

TEST_P(PlanAtShape, OwnedRegionsPartitionLiveoutDomains) {
  expect_owned_regions_partition(GetParam().build());
}

TEST_P(PlanAtShape, ScratchExtentBoundsHold) {
  expect_scratch_bounds_hold(GetParam().build());
}

INSTANTIATE_TEST_SUITE_P(
    WorkloadShapes, PlanAtShape, ::testing::ValuesIn(kWorkloadShapes),
    [](const ::testing::TestParamInfo<WorkloadShape>& info) {
      return info.param.name;
    });

/// Tiles of every overlap group, keyed by its anchor's interior width
/// (one key per level); all groups anchored on a level must agree.
std::map<poly::index_t, poly::index_t> tiles_per_level(
    const CompiledPipeline& cp) {
  std::map<poly::index_t, poly::index_t> tiles;
  for (const GroupPlan& g : cp.groups) {
    if (g.exec != GroupExec::OverlapTiled) continue;
    const poly::index_t n =
        cp.pipe.funcs[g.stages[g.anchor].func].interior.dim(0).size();
    const auto [it, fresh] = tiles.try_emplace(n, g.tiles.total);
    EXPECT_EQ(it->second, g.tiles.total) << "level n=" << n;
    (void)fresh;
  }
  return tiles;
}

TEST(Plan, TileCountsPerLevelStepThroughTheInterior) {
  // Tiles step through each level's interior, so no tiled dimension
  // ends in a one- or two-point sliver tile; the grouping pass does not
  // depend on the tile grid, so the group counts stay put.
  const CompiledPipeline w = compile_cycle(2, 1023, 7, CycleKind::W);
  EXPECT_EQ(w.groups.size(), 185u);
  const std::map<poly::index_t, poly::index_t> want_w = {
      {1023, 128}, {511, 32}, {255, 8}, {127, 4}, {63, 2}, {31, 1}, {15, 1}};
  EXPECT_EQ(tiles_per_level(w), want_w);

  const CompiledPipeline large = compile_cycle(2, 4095, 11, CycleKind::V);
  EXPECT_EQ(large.groups.size(), 28u);
  EXPECT_EQ(tiles_per_level(large).at(4095), 2048);

  EXPECT_EQ(tiles_per_level(compile_cycle(2, 255, 7, CycleKind::V)).at(255),
            8);
  EXPECT_EQ(tiles_per_level(compile_cycle(3, 127, 4, CycleKind::V)).at(127),
            16);
  EXPECT_EQ(tiles_per_level(compile_nas(64, 6)).at(64), 4);
}

TEST(Plan, GroupsTopologicallyOrdered) {
  for (Variant v : {Variant::Naive, Variant::Opt, Variant::OptPlus,
                    Variant::DtileOptPlus}) {
    const CompiledPipeline cp = compile_small(v);
    std::vector<int> group_of(static_cast<std::size_t>(cp.pipe.num_stages()),
                              -1);
    for (std::size_t gi = 0; gi < cp.groups.size(); ++gi) {
      for (const StagePlan& sp : cp.groups[gi].stages) {
        group_of[static_cast<std::size_t>(sp.func)] = static_cast<int>(gi);
      }
    }
    for (int f = 0; f < cp.pipe.num_stages(); ++f) {
      for (const ir::SourceSlot& s : cp.pipe.funcs[f].sources) {
        if (s.external) continue;
        EXPECT_LE(group_of[static_cast<std::size_t>(s.index)],
                  group_of[static_cast<std::size_t>(f)]);
      }
    }
  }
}

TEST(Plan, DumpMentionsEveryStage) {
  const CompiledPipeline cp = compile_small(Variant::OptPlus);
  const std::string d = cp.dump();
  for (const ir::FunctionDecl& f : cp.pipe.funcs) {
    EXPECT_NE(d.find(f.name), std::string::npos) << f.name;
  }
}

}  // namespace
}  // namespace polymg::opt
