#include "polymg/opt/compile.hpp"

#include <algorithm>
#include <map>
#include <numeric>

#include "polymg/common/error.hpp"
#include "polymg/obs/metrics.hpp"
#include "polymg/opt/grouping.hpp"
#include "polymg/opt/storage.hpp"

namespace polymg::opt {

namespace {

/// Topologically order the groups of a grouping (Kahn's algorithm with a
/// min-func-index tie break so plans are deterministic).
std::vector<int> topo_order_groups(const Pipeline& pipe, const Grouping& g) {
  const int ng = static_cast<int>(g.groups.size());
  std::vector<std::vector<int>> succ(ng);
  std::vector<int> indeg(ng, 0);
  const auto consumers = pipe.consumers();
  for (int f = 0; f < pipe.num_stages(); ++f) {
    for (const auto& [cf, slot] : consumers[f]) {
      (void)slot;
      const int a = g.group_of[f];
      const int b = g.group_of[cf];
      if (a == b) continue;
      succ[a].push_back(b);
    }
  }
  for (int a = 0; a < ng; ++a) {
    std::sort(succ[a].begin(), succ[a].end());
    succ[a].erase(std::unique(succ[a].begin(), succ[a].end()), succ[a].end());
    for (int b : succ[a]) ++indeg[b];
  }
  // Ready set keyed by the group's minimum func index.
  std::vector<int> min_func(ng);
  for (int a = 0; a < ng; ++a) {
    min_func[a] = *std::min_element(g.groups[a].begin(), g.groups[a].end());
  }
  std::vector<int> ready;
  for (int a = 0; a < ng; ++a) {
    if (indeg[a] == 0) ready.push_back(a);
  }
  std::vector<int> order;
  order.reserve(ng);
  while (!ready.empty()) {
    const auto it = std::min_element(
        ready.begin(), ready.end(),
        [&](int a, int b) { return min_func[a] < min_func[b]; });
    const int a = *it;
    ready.erase(it);
    order.push_back(a);
    for (int b : succ[a]) {
      if (--indeg[b] == 0) ready.push_back(b);
    }
  }
  PMG_CHECK(static_cast<int>(order.size()) == ng,
            "cyclic group graph (grouping bug)");
  return order;
}

}  // namespace

CompiledPipeline compile(Pipeline pipe, const CompileOptions& opts) {
  // Process-wide compile count: the service layer's plan-cache tests
  // assert a cache hit performs zero compilations by diffing this.
  static obs::Counter& compiles =
      obs::Metrics::instance().counter("opt.compiles");
  compiles.add(1);
  pipe.validate();
  CompiledPipeline cp;
  cp.opts = opts;

  // Lower every function definition up front.
  cp.lowered.reserve(pipe.funcs.size());
  for (const ir::FunctionDecl& f : pipe.funcs) {
    cp.lowered.push_back(ir::lower(f));
  }

  const Grouping grouping = auto_group(pipe, opts);
  const std::vector<int> gorder = topo_order_groups(pipe, grouping);
  const auto consumers = pipe.consumers();
  const poly::TileSizes tile = opts.resolved_tile(pipe.ndim);

  // func -> (execution-ordered group index, position within group).
  std::vector<int> group_of_func(pipe.num_stages(), -1);
  cp.groups.resize(gorder.size());

  for (std::size_t oi = 0; oi < gorder.size(); ++oi) {
    const int gid = gorder[oi];
    const std::vector<int>& members = grouping.groups[gid];
    GroupPlan& gp = cp.groups[oi];

    const GroupAnalysis ga = analyze_group(pipe, members, consumers, {}, tile);
    PMG_CHECK(ga.valid, "final group failed analysis: " << ga.reject_reason);

    gp.stages.resize(ga.order.size());
    for (std::size_t p = 0; p < ga.order.size(); ++p) {
      StagePlan& sp = gp.stages[p];
      sp.func = ga.order[p];
      sp.liveout = ga.liveout[p];
      sp.rel = ga.rel[p];
      sp.in_group_consumers = ga.in_group_consumers[p];
      sp.scratch_extent = ga.extent[p];
      group_of_func[sp.func] = static_cast<int>(oi);
    }
    gp.anchor = static_cast<int>(ga.order.size()) - 1;

    if (grouping.time_tiled[gid]) {
      gp.exec = GroupExec::TimeTiled;
      gp.dtile_H = std::max<poly::index_t>(1, opts.dtile_time_block);
      gp.dtile_W = opts.dtile_width > 0
                       ? opts.dtile_width
                       : std::max<poly::index_t>(2 * gp.dtile_H, 32);
      PMG_CHECK(gp.dtile_W >= 2 * gp.dtile_H,
                "split tiling requires width >= 2 x time-block height");
    } else if (members.size() >= 2) {
      gp.exec = GroupExec::OverlapTiled;
    } else {
      gp.exec = GroupExec::Loops;
    }

    if (gp.exec == GroupExec::OverlapTiled) {
      const ir::FunctionDecl& anchor = pipe.funcs[gp.stages[gp.anchor].func];
      gp.tiles = poly::make_tile_grid(anchor.domain, anchor.interior, tile);
      gp.collapse_depth = opts.collapse ? pipe.ndim : 1;
    }
  }

  // ---- Scratchpad storage within each overlap-tiled group (§3.2.1). ----
  for (GroupPlan& gp : cp.groups) {
    if (gp.exec != GroupExec::OverlapTiled) continue;
    StorageClasses classes(opts.storage_class_slack);
    std::vector<StorageItem> items;
    std::vector<int> scratch_pos;  // positions of scratch stages
    std::vector<int> times;
    std::vector<std::vector<int>> cons_times;
    for (std::size_t p = 0; p < gp.stages.size(); ++p) {
      StagePlan& sp = gp.stages[p];
      // A scratchpad is needed whenever in-group consumers read this
      // stage (their tile halo exceeds the owned partition slice).
      if (sp.in_group_consumers.empty()) continue;
      scratch_pos.push_back(static_cast<int>(p));
      times.push_back(static_cast<int>(p));
      std::vector<int> ct;
      for (const auto& [cpos, slot] : sp.in_group_consumers) {
        (void)slot;
        ct.push_back(cpos);
      }
      cons_times.push_back(std::move(ct));
    }
    const std::vector<int> last = last_use_map(times, cons_times);
    for (std::size_t i = 0; i < scratch_pos.size(); ++i) {
      const StagePlan& sp = gp.stages[scratch_pos[i]];
      StorageItem it;
      it.klass = classes.classify(sp.scratch_extent, pipe.ndim);
      it.time = times[i];
      it.last_use = last[i];
      items.push_back(it);
    }
    cp.scratch_buffers_without_reuse += static_cast<int>(items.size());
    if (opts.intra_group_reuse) {
      const RemapResult rr = remap_storage(items, /*defer=*/false);
      // Size each logical scratchpad as the max of its users' classes.
      gp.scratch_sizes.assign(rr.num_buffers, 0);
      for (std::size_t i = 0; i < items.size(); ++i) {
        gp.stages[scratch_pos[i]].scratch_buffer = rr.storage[i];
        gp.scratch_sizes[rr.storage[i]] =
            std::max(gp.scratch_sizes[rr.storage[i]],
                     classes.class_doubles(items[i].klass));
      }
    } else {
      gp.scratch_sizes.clear();
      for (std::size_t i = 0; i < items.size(); ++i) {
        gp.stages[scratch_pos[i]].scratch_buffer = static_cast<int>(i);
        gp.scratch_sizes.push_back(classes.class_doubles(items[i].klass));
      }
    }
    cp.scratch_buffers_with_reuse += static_cast<int>(gp.scratch_sizes.size());
    gp.scratch_doubles_total =
        std::accumulate(gp.scratch_sizes.begin(), gp.scratch_sizes.end(),
                        poly::index_t{0});
  }

  // ---- Full arrays: which functions need one? ----
  // Live-outs of every group; every stage of a Loops group; the final step
  // of a TimeTiled chain (its intermediates live in the ping-pong pair).
  struct ArrayNeed {
    int func;
    int group;  // execution-ordered group index (its timestamp)
  };
  std::vector<ArrayNeed> needs;
  for (std::size_t oi = 0; oi < cp.groups.size(); ++oi) {
    for (StagePlan& sp : cp.groups[oi].stages) {
      const bool needs_array =
          cp.groups[oi].exec == GroupExec::Loops ||
          (cp.groups[oi].exec == GroupExec::OverlapTiled && sp.liveout) ||
          (cp.groups[oi].exec == GroupExec::TimeTiled && sp.liveout);
      if (needs_array) {
        needs.push_back({sp.func, static_cast<int>(oi)});
      }
    }
  }

  // Storage classes + Algorithms 2 and 3 over group timestamps (§3.2.2).
  StorageClasses aclasses(opts.storage_class_slack);
  std::vector<StorageItem> aitems;
  std::vector<int> atimes;
  std::vector<std::vector<int>> acons;
  for (const ArrayNeed& nd : needs) {
    const ir::FunctionDecl& f = pipe.funcs[nd.func];
    std::array<poly::index_t, 3> ext{};
    for (int d = 0; d < pipe.ndim; ++d) ext[d] = f.domain.dim(d).size();
    StorageItem it;
    it.klass = aclasses.classify(ext, pipe.ndim);
    it.time = nd.group;
    it.excluded = pipe.is_output(nd.func);
    aitems.push_back(it);
    atimes.push_back(nd.group);
    std::vector<int> ct;
    for (const auto& [cf, slot] : consumers[nd.func]) {
      (void)slot;
      ct.push_back(group_of_func[cf]);
    }
    acons.push_back(std::move(ct));
  }
  const std::vector<int> alast = last_use_map(atimes, acons);
  for (std::size_t i = 0; i < aitems.size(); ++i) {
    aitems[i].last_use = alast[i];
  }

  cp.array_of_func.assign(pipe.num_stages(), -1);
  if (opts.inter_group_reuse) {
    const RemapResult rr = remap_storage(aitems, /*defer=*/true);
    cp.arrays.resize(rr.num_buffers);
    for (std::size_t i = 0; i < needs.size(); ++i) {
      const int aid = rr.storage[i];
      cp.array_of_func[needs[i].func] = aid;
      ArrayInfo& ai = cp.arrays[aid];
      ai.doubles = std::max(ai.doubles, aclasses.class_doubles(aitems[i].klass));
      ai.io = ai.io || aitems[i].excluded;
      if (ai.name.empty()) {
        ai.name = pipe.funcs[needs[i].func].name;
      } else {
        ai.name += "/" + pipe.funcs[needs[i].func].name;
      }
    }
  } else {
    for (std::size_t i = 0; i < needs.size(); ++i) {
      const ir::FunctionDecl& f = pipe.funcs[needs[i].func];
      cp.array_of_func[needs[i].func] = static_cast<int>(cp.arrays.size());
      cp.arrays.push_back(
          ArrayInfo{f.name, f.domain.count(), aitems[i].excluded});
    }
  }
  for (const ArrayNeed& nd : needs) {
    cp.array_doubles_without_reuse += pipe.funcs[nd.func].domain.count();
  }
  for (const ArrayInfo& ai : cp.arrays) {
    cp.array_doubles_with_reuse += ai.doubles;
  }

  // Ping-pong partners for time-tiled chains (pool-managed temporaries).
  for (GroupPlan& gp : cp.groups) {
    if (gp.exec != GroupExec::TimeTiled) continue;
    const ir::FunctionDecl& out = pipe.funcs[gp.stages.back().func];
    gp.time_temp_array = static_cast<int>(cp.arrays.size());
    cp.arrays.push_back(
        ArrayInfo{out.name + "_pingpong", out.domain.count(), false});
  }

  // Record array ids on every stage (live-outs and Loops stages have one;
  // time-tiled intermediates stay -1 and live in the ping-pong pair).
  for (GroupPlan& gp : cp.groups) {
    for (StagePlan& sp : gp.stages) {
      sp.array = cp.array_of_func[sp.func];
    }
  }

  // ---- Pool release points: free an array after its last-reading group
  // ---- (pool_deallocate emitted as soon as all uses finish, §3.2.3).
  cp.release_after_group.assign(cp.groups.size(), {});
  if (opts.pooled_allocation) {
    std::map<int, int> last_group_of_array;
    for (std::size_t i = 0; i < needs.size(); ++i) {
      const int aid = cp.array_of_func[needs[i].func];
      if (cp.arrays[aid].io) continue;
      auto [it, ins] = last_group_of_array.try_emplace(aid, alast[i]);
      if (!ins) it->second = std::max(it->second, alast[i]);
    }
    for (std::size_t oi = 0; oi < cp.groups.size(); ++oi) {
      const GroupPlan& gp = cp.groups[oi];
      if (gp.exec == GroupExec::TimeTiled) {
        cp.release_after_group[oi].push_back(gp.time_temp_array);
      }
    }
    for (const auto& [aid, lg] : last_group_of_array) {
      cp.release_after_group[lg].push_back(aid);
    }
  }

  // ---- Plan-time kernel instance cache: precompute every tile's
  // ---- per-stage regions so the executor's steady state re-derives
  // ---- nothing (and allocates nothing) per tile.
  for (GroupPlan& gp : cp.groups) {
    if (gp.exec != GroupExec::OverlapTiled) continue;
    const std::size_t nstages = gp.stages.size();
    gp.tile_regions_cache.resize(
        static_cast<std::size_t>(gp.tiles.total) * nstages);
    std::vector<Box> regions(nstages);
    for (poly::index_t t = 0; t < gp.tiles.total; ++t) {
      tile_regions(pipe, gp, gp.tiles.tile_box(t), regions);
      std::copy(regions.begin(), regions.end(),
                gp.tile_regions_cache.begin() +
                    static_cast<std::size_t>(t) * nstages);
    }
  }

  cp.pipe = std::move(pipe);
  return cp;
}

}  // namespace polymg::opt
