#include "polymg/opt/validate.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "polymg/common/error.hpp"

namespace polymg::opt {

namespace {

class IssueList {
public:
  template <typename Fn>
  void check(bool ok, Fn&& describe) {
    if (!ok) {
      std::ostringstream oss;
      describe(oss);
      issues_.push_back(oss.str());
    }
  }
  std::vector<std::string> take() { return std::move(issues_); }

private:
  std::vector<std::string> issues_;
};

}  // namespace

std::vector<std::string> plan_issues(const CompiledPipeline& cp) {
  IssueList out;
  const Pipeline& pipe = cp.pipe;
  const int nfuncs = pipe.num_stages();
  const int narrays = static_cast<int>(cp.arrays.size());

  out.check(static_cast<int>(cp.lowered.size()) == nfuncs, [&](auto& o) {
    o << "lowered count " << cp.lowered.size() << " != " << nfuncs
      << " functions";
  });
  out.check(static_cast<int>(cp.array_of_func.size()) == nfuncs,
            [&](auto& o) {
              o << "array_of_func covers " << cp.array_of_func.size()
                << " of " << nfuncs << " functions";
            });
  out.check(cp.release_after_group.size() == cp.groups.size(), [&](auto& o) {
    o << "release_after_group has " << cp.release_after_group.size()
      << " entries for " << cp.groups.size() << " groups";
  });

  // ---- Group coverage and schedule positions. ----
  std::vector<int> group_of(static_cast<std::size_t>(nfuncs), -1);
  std::vector<int> pos_of(static_cast<std::size_t>(nfuncs), -1);
  for (std::size_t gi = 0; gi < cp.groups.size(); ++gi) {
    const GroupPlan& g = cp.groups[gi];
    for (std::size_t p = 0; p < g.stages.size(); ++p) {
      const int f = g.stages[p].func;
      if (f < 0 || f >= nfuncs) {
        out.check(false, [&](auto& o) {
          o << "group " << gi << " stage " << p << " names function " << f
            << " out of range";
        });
        continue;
      }
      out.check(group_of[f] < 0, [&](auto& o) {
        o << pipe.funcs[f].name << " scheduled in groups " << group_of[f]
          << " and " << gi;
      });
      group_of[f] = static_cast<int>(gi);
      pos_of[f] = static_cast<int>(p);
    }
  }
  for (int f = 0; f < nfuncs; ++f) {
    out.check(group_of[f] >= 0, [&](auto& o) {
      o << pipe.funcs[f].name << " is scheduled in no group";
    });
  }

  // ---- Schedule causality: producers run no later than consumers. ----
  for (int f = 0; f < nfuncs; ++f) {
    if (group_of[f] < 0) continue;
    for (const ir::SourceSlot& s : pipe.funcs[f].sources) {
      if (s.external || s.index < 0 || s.index >= nfuncs ||
          group_of[s.index] < 0) {
        continue;
      }
      const int p = s.index;
      const bool ordered =
          group_of[p] < group_of[f] ||
          (group_of[p] == group_of[f] && pos_of[p] < pos_of[f]);
      out.check(ordered, [&](auto& o) {
        o << "schedule violates dependence " << pipe.funcs[p].name << " -> "
          << pipe.funcs[f].name << " (group " << group_of[p] << " pos "
          << pos_of[p] << " vs group " << group_of[f] << " pos "
          << pos_of[f] << ")";
      });
    }
  }

  // ---- Storage map consistency. ----
  for (int f = 0;
       f < std::min(nfuncs, static_cast<int>(cp.array_of_func.size()));
       ++f) {
    const int aid = cp.array_of_func[f];
    out.check(aid >= -1 && aid < narrays, [&](auto& o) {
      o << pipe.funcs[f].name << " maps to array " << aid
        << " out of range";
    });
    if (aid >= 0 && aid < narrays) {
      out.check(cp.arrays[aid].doubles >= pipe.funcs[f].domain.count(),
                [&](auto& o) {
                  o << "array " << cp.arrays[aid].name << " ("
                    << cp.arrays[aid].doubles << " doubles) undersized for "
                    << pipe.funcs[f].name << " ("
                    << pipe.funcs[f].domain.count() << " doubles)";
                });
    }
  }
  for (int outf : pipe.outputs) {
    const int aid =
        outf >= 0 && outf < static_cast<int>(cp.array_of_func.size())
            ? cp.array_of_func[outf]
            : -1;
    out.check(aid >= 0, [&](auto& o) {
      o << "output " << pipe.funcs[outf].name << " has no full array";
    });
    if (aid < 0 || aid >= narrays) continue;
    out.check(cp.arrays[aid].io, [&](auto& o) {
      o << "output array " << cp.arrays[aid].name << " not flagged io";
    });
    for (int f = 0; f < nfuncs; ++f) {
      out.check(f == outf || cp.array_of_func[f] != aid, [&](auto& o) {
        o << pipe.funcs[f].name << " shares the output array of "
          << pipe.funcs[outf].name;
      });
    }
  }

  // ---- Per-group execution-shape invariants. ----
  for (std::size_t gi = 0; gi < cp.groups.size(); ++gi) {
    const GroupPlan& g = cp.groups[gi];
    const int nscratch = static_cast<int>(g.scratch_sizes.size());
    const poly::index_t scratch_sum = std::accumulate(
        g.scratch_sizes.begin(), g.scratch_sizes.end(), poly::index_t{0});
    out.check(g.scratch_doubles_total == scratch_sum, [&](auto& o) {
      o << "group " << gi << " scratch_doubles_total "
        << g.scratch_doubles_total << " != sum of scratch sizes "
        << scratch_sum;
    });

    for (std::size_t p = 0; p < g.stages.size(); ++p) {
      const StagePlan& sp = g.stages[p];
      if (sp.func < 0 || sp.func >= nfuncs) continue;
      const std::string& name = pipe.funcs[sp.func].name;
      if (g.exec == GroupExec::Loops) {
        out.check(sp.array >= 0, [&](auto& o) {
          o << "Loops stage " << name << " has no full array";
        });
      }
      if (g.exec == GroupExec::OverlapTiled) {
        out.check(!sp.liveout || sp.array >= 0, [&](auto& o) {
          o << "live-out " << name << " has no full array";
        });
        out.check(sp.in_group_consumers.empty() ||
                      (sp.scratch_buffer >= 0 && sp.scratch_buffer < nscratch),
                  [&](auto& o) {
                    o << name << " has in-group consumers but scratchpad id "
                      << sp.scratch_buffer << " (of " << nscratch << ")";
                  });
        for (const auto& [cpos, slot] : sp.in_group_consumers) {
          (void)slot;
          out.check(cpos > static_cast<int>(p) &&
                        cpos < static_cast<int>(g.stages.size()),
                    [&](auto& o) {
                      o << name << " lists in-group consumer position "
                        << cpos << " not after producer position " << p;
                    });
        }
      }
    }

    if (g.exec == GroupExec::OverlapTiled) {
      out.check(g.anchor >= 0 &&
                    g.anchor < static_cast<int>(g.stages.size()),
                [&](auto& o) {
                  o << "group " << gi << " anchor " << g.anchor
                    << " out of range";
                });
      if (g.anchor < 0 || g.anchor >= static_cast<int>(g.stages.size())) {
        continue;
      }
      const ir::FunctionDecl& anchor_f =
          pipe.funcs[g.stages[g.anchor].func];
      out.check(g.tiles.total >= 1, [&](auto& o) {
        o << "group " << gi << " has an empty tile grid";
      });
      // The tiles must partition the anchor domain disjointly.
      poly::index_t covered = 0;
      for (poly::index_t t = 0; t < g.tiles.total; ++t) {
        const Box tb = g.tiles.tile_box(t);
        covered += tb.count();
        out.check(anchor_f.domain.contains(tb), [&](auto& o) {
          o << "group " << gi << " tile " << t
            << " leaves the anchor domain of " << anchor_f.name;
        });
      }
      out.check(covered == anchor_f.domain.count(), [&](auto& o) {
        o << "group " << gi << " tiles cover " << covered << " of "
          << anchor_f.domain.count() << " anchor points";
      });
      // Scratchpad sizing vs. the real footprint of every tile — the
      // same bound the executor enforces per tile, checked eagerly here.
      // The plan-time region cache must agree with a recomputation; a
      // corrupted instance table would silently misdirect every kernel.
      const std::size_t cache_expect =
          static_cast<std::size_t>(g.tiles.total) * g.stages.size();
      out.check(g.tile_regions_cache.empty() ||
                    g.tile_regions_cache.size() == cache_expect,
                [&](auto& o) {
                  o << "group " << gi << " tile-region cache holds "
                    << g.tile_regions_cache.size() << " boxes, expected "
                    << cache_expect;
                });
      const bool cache_usable = g.tile_regions_cache.size() == cache_expect;
      std::vector<Box> regions(g.stages.size());
      for (poly::index_t t = 0; t < g.tiles.total; ++t) {
        tile_regions(pipe, g, g.tiles.tile_box(t), regions);
        if (cache_usable) {
          for (std::size_t p = 0; p < g.stages.size(); ++p) {
            const Box& cached =
                g.tile_regions_cache[static_cast<std::size_t>(t) *
                                         g.stages.size() +
                                     p];
            out.check(cached == regions[p], [&](auto& o) {
              o << "group " << gi << " cached region of tile " << t
                << " stage " << p << " is " << cached << ", recomputed "
                << regions[p];
            });
          }
        }
        for (std::size_t p = 0; p < g.stages.size(); ++p) {
          const StagePlan& sp = g.stages[p];
          if (sp.scratch_buffer < 0 || sp.scratch_buffer >= nscratch) {
            continue;
          }
          out.check(
              regions[p].count() <= g.scratch_sizes[sp.scratch_buffer],
              [&](auto& o) {
                o << "scratchpad " << sp.scratch_buffer << " ("
                  << g.scratch_sizes[sp.scratch_buffer]
                  << " doubles) undersized for tile " << t << " of "
                  << pipe.funcs[sp.func].name << " (needs "
                  << regions[p].count() << ")";
              });
        }
      }
    }

    if (g.exec == GroupExec::TimeTiled) {
      out.check(g.stages.size() >= 2, [&](auto& o) {
        o << "time-tiled group " << gi << " has fewer than 2 steps";
      });
      out.check(g.time_temp_array >= 0 && g.time_temp_array < narrays,
                [&](auto& o) {
                  o << "time-tiled group " << gi << " ping-pong array "
                    << g.time_temp_array << " out of range";
                });
      out.check(g.dtile_H >= 1 && g.dtile_W >= 2 * g.dtile_H, [&](auto& o) {
        o << "time-tiled group " << gi << " block " << g.dtile_W << "x"
          << g.dtile_H << " violates width >= 2 x height";
      });
      const ir::FunctionDecl& first = pipe.funcs[g.stages.front().func];
      for (const StagePlan& sp : g.stages) {
        out.check(pipe.funcs[sp.func].domain.count() ==
                      first.domain.count(),
                  [&](auto& o) {
                    o << "time-tiled chain mixes domains ("
                      << pipe.funcs[sp.func].name << ")";
                  });
      }
      if (g.time_temp_array >= 0 && g.time_temp_array < narrays) {
        out.check(cp.arrays[g.time_temp_array].doubles >=
                      first.domain.count(),
                  [&](auto& o) {
                    o << "ping-pong array of group " << gi
                      << " undersized";
                  });
      }
    }
  }

  // ---- Lowered register programs: structurally sound, and absent when
  // ---- the plan opts out of the engine (oracle plans must interpret).
  for (int f = 0; f < std::min(nfuncs, static_cast<int>(cp.lowered.size()));
       ++f) {
    const int nslots = static_cast<int>(pipe.funcs[f].sources.size());
    for (std::size_t di = 0; di < cp.lowered[f].defs.size(); ++di) {
      const ir::LoweredDef& ld = cp.lowered[f].defs[di];
      if (ld.regprog.empty()) continue;
      out.check(cp.opts.register_engine, [&](auto& o) {
        o << pipe.funcs[f].name << " def " << di
          << " carries a register program in a plan with the register "
             "engine disabled";
      });
      for (const std::string& s : ir::regprog_issues(ld.regprog, nslots)) {
        out.check(false, [&](auto& o) {
          o << pipe.funcs[f].name << " def " << di << " register program: "
            << s;
        });
      }
    }
  }

  // ---- Liveness: releases in range, unique, never before a reader. ----
  std::vector<int> released_at(static_cast<std::size_t>(narrays), -1);
  for (std::size_t gi = 0; gi < cp.release_after_group.size(); ++gi) {
    for (int aid : cp.release_after_group[gi]) {
      if (aid < 0 || aid >= narrays) {
        out.check(false, [&](auto& o) {
          o << "release after group " << gi << " names array " << aid
            << " out of range";
        });
        continue;
      }
      out.check(!cp.arrays[aid].io, [&](auto& o) {
        o << "io array " << cp.arrays[aid].name << " released after group "
          << gi;
      });
      out.check(released_at[aid] < 0, [&](auto& o) {
        o << "array " << cp.arrays[aid].name << " released after groups "
          << released_at[aid] << " and " << gi;
      });
      released_at[aid] = static_cast<int>(gi);
    }
  }
  for (int f = 0; f < nfuncs; ++f) {
    if (group_of[f] < 0) continue;
    for (const ir::SourceSlot& s : pipe.funcs[f].sources) {
      if (s.external || s.index < 0 || s.index >= nfuncs) continue;
      const int aid = cp.array_of_func[s.index];
      if (aid < 0 || aid >= narrays || released_at[aid] < 0) continue;
      out.check(released_at[aid] >= group_of[f], [&](auto& o) {
        o << "array of " << pipe.funcs[s.index].name
          << " released after group " << released_at[aid]
          << " but still read by " << pipe.funcs[f].name << " in group "
          << group_of[f];
      });
    }
  }

  // ---- Storage precision invariants. ----
  out.check(cp.func_dtype.empty() ||
                static_cast<int>(cp.func_dtype.size()) == nfuncs,
            [&](auto& o) {
              o << "func_dtype covers " << cp.func_dtype.size() << " of "
                << nfuncs << " functions";
            });
  out.check(cp.external_dtype.empty() ||
                cp.external_dtype.size() == pipe.externals.size(),
            [&](auto& o) {
              o << "external_dtype covers " << cp.external_dtype.size()
                << " of " << pipe.externals.size() << " externals";
            });
  if (!cp.opts.precision.mixed()) {
    for (int f = 0; f < nfuncs; ++f) {
      out.check(cp.dtype_of_func(f) == grid::DType::F64, [&](auto& o) {
        o << pipe.funcs[f].name
          << " stores F32 in a Precision::Double plan";
      });
    }
    for (std::size_t e = 0; e < pipe.externals.size(); ++e) {
      out.check(cp.dtype_of_external(static_cast<int>(e)) ==
                    grid::DType::F64,
                [&](auto& o) {
                  o << "external " << e
                    << " stores F32 in a Precision::Double plan";
                });
    }
  }
  for (int outf : pipe.outputs) {
    out.check(cp.dtype_of_func(outf) == grid::DType::F64, [&](auto& o) {
      o << "pipeline output " << pipe.funcs[outf].name << " stores F32";
    });
  }
  for (int f = 0; f < nfuncs; ++f) {
    // The kernels are specialized per (out, src) dtype pair: every
    // function must read sources of one dtype, and a TimeTiled chain
    // (one shared ping-pong pair) must be dtype-uniform.
    bool has32 = false, has64 = false;
    for (const ir::SourceSlot& s : pipe.funcs[f].sources) {
      const grid::DType dt = s.external ? cp.dtype_of_external(s.index)
                                        : cp.dtype_of_func(s.index);
      (dt == grid::DType::F32 ? has32 : has64) = true;
    }
    out.check(!(has32 && has64), [&](auto& o) {
      o << pipe.funcs[f].name << " reads mixed-dtype sources";
    });
  }
  for (std::size_t gi = 0; gi < cp.groups.size(); ++gi) {
    const GroupPlan& g = cp.groups[gi];
    if (g.exec != GroupExec::TimeTiled || g.stages.empty()) continue;
    const grid::DType dt0 = cp.dtype_of_func(g.stages.front().func);
    for (const StagePlan& sp : g.stages) {
      out.check(cp.dtype_of_func(sp.func) == dt0, [&](auto& o) {
        o << "time-tiled group " << gi << " mixes storage dtypes ("
          << pipe.funcs[sp.func].name << ")";
      });
    }
  }

  return out.take();
}

void validate_plan(const CompiledPipeline& cp) {
  const std::vector<std::string> issues = plan_issues(cp);
  if (issues.empty()) return;
  std::ostringstream oss;
  oss << "compiled plan failed validation with " << issues.size()
      << " issue(s):";
  for (const std::string& s : issues) oss << "\n  - " << s;
  throw Error(ErrorCode::InvalidPlan, oss.str());
}

CompileOptions reference_options(const CompileOptions& base) {
  CompileOptions o = base;
  o.variant = Variant::Naive;
  o.intra_group_reuse = false;
  o.inter_group_reuse = false;
  o.pooled_allocation = false;
  o.collapse = false;
  // The oracle must stay implementation-independent of the fast path it
  // cross-checks: interpret bytecode, never the register engine.
  o.register_engine = false;
  // And never through code the specializer emitted — the oracle is the
  // independent check on exactly that code.
  o.jit = JitMode::Off;
  // The oracle is the double-precision reference a mixed plan is judged
  // against; it never runs float storage itself.
  o.precision = PrecisionPolicy{};
  return o;
}

}  // namespace polymg::opt
