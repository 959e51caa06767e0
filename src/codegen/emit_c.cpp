#include "polymg/codegen/emit_c.hpp"

#include <sstream>
#include <utility>
#include <vector>

#include "polymg/codegen/jit.hpp"

#include "polymg/common/error.hpp"

namespace polymg::codegen {

namespace {

using ir::FunctionDecl;
using opt::CompiledPipeline;
using opt::GroupExec;
using opt::GroupPlan;
using opt::StagePlan;
using poly::index_t;

const char* loop_var(int d) {
  static const char* v[] = {"i", "j", "k"};
  return v[d];
}

std::vector<std::string> slot_names(const CompiledPipeline& plan,
                                    const FunctionDecl& f) {
  std::vector<std::string> names;
  names.reserve(f.sources.size());
  for (const ir::SourceSlot& s : f.sources) {
    names.push_back(s.external ? plan.pipe.externals[s.index].name
                               : plan.pipe.funcs[s.index].name);
  }
  return names;
}

void emit_stage_loops(std::ostringstream& os, const CompiledPipeline& plan,
                      int func, const std::string& indent,
                      const std::string& dst, bool clamp_to_tile) {
  const FunctionDecl& f = plan.pipe.funcs[func];
  const int ndim = f.ndim;
  const auto names = slot_names(plan, f);
  std::string pad = indent;
  for (int d = 0; d < ndim; ++d) {
    os << pad << "for (int " << loop_var(d) << " = ";
    if (clamp_to_tile) {
      os << "max(" << f.interior.dim(d).lo << ", lb_" << d << ")";
    } else {
      os << f.interior.dim(d).lo;
    }
    os << "; " << loop_var(d) << " <= ";
    if (clamp_to_tile) {
      os << "min(" << f.interior.dim(d).hi << ", ub_" << d << ")";
    } else {
      os << f.interior.dim(d).hi;
    }
    os << "; " << loop_var(d) << "++) {";
    if (d == ndim - 1) os << "  /* #pragma ivdep */";
    os << "\n";
    pad += "  ";
  }
  if (f.parity_piecewise) {
    for (std::size_t c = 0; c < f.defs.size(); ++c) {
      os << pad << "/* parity case " << c << " */ " << dst
         << "[...] = " << ir::to_string(f.defs[c], names, ndim) << ";\n";
    }
  } else {
    os << pad << dst << "[...] = " << ir::to_string(f.defs[0], names, ndim)
       << ";\n";
  }
  for (int d = ndim - 1; d >= 0; --d) {
    pad = indent;
    for (int q = 0; q < d; ++q) pad += "  ";
    os << pad << "}\n";
  }
}

/// `c + step*var` as C, dropping a zero constant.
std::string affine(index_t c, index_t step, const std::string& var) {
  std::ostringstream os;
  if (c != 0) os << c << " + ";
  os << step << "*" << var;
  return os.str();
}

/// Anchor tile bounds of dimension `d` as C expressions of T_d, the
/// partition poly::TileGrid::tile_box computes: tiles step through the
/// interior, the first starts at the domain's lo and the last ends at
/// its hi.
std::pair<std::string, std::string> tile_bounds(const poly::TileGrid& t,
                                                int d) {
  const poly::Interval dom = t.domain.dim(d);
  if (t.ntiles[d] == 1) {
    return {std::to_string(dom.lo), std::to_string(dom.hi)};
  }
  const std::string T = "T_" + std::to_string(d);
  const index_t in_lo = t.interior.dim(d).lo;
  const index_t size = t.sizes[d];
  return {"(" + T + " == 0 ? " + std::to_string(dom.lo) + " : " +
              affine(in_lo, size, T) + ")",
          "(" + T + " == " + std::to_string(t.ntiles[d] - 1) + " ? " +
              std::to_string(dom.hi) + " : " +
              affine(in_lo + size - 1, size, T) + ")"};
}

}  // namespace

std::string emit_c(const CompiledPipeline& plan, const std::string& name) {
  std::ostringstream os;
  const int ndim = plan.pipe.ndim;

  os << "void " << name << "(";
  for (std::size_t e = 0; e < plan.pipe.externals.size(); ++e) {
    if (e) os << ", ";
    os << "double * " << plan.pipe.externals[e].name;
  }
  os << ", double *& OUT)\n{\n";

  // Pooled (or per-invocation) full-array allocations.
  for (std::size_t a = 0; a < plan.arrays.size(); ++a) {
    const opt::ArrayInfo& ai = plan.arrays[a];
    os << "  /* " << (ai.io ? "live out (program output)" : "intermediate")
       << " */\n";
    os << "  /* users : [" << ai.name << "] */\n";
    os << "  double * _arr_" << a << ";\n";
    if (plan.opts.pooled_allocation) {
      os << "  _arr_" << a << " = (double *) pool_allocate(sizeof(double) * "
         << ai.doubles << ");\n";
    } else {
      os << "  _arr_" << a << " = (double *) malloc(sizeof(double) * "
         << ai.doubles << ");\n";
    }
  }
  os << "\n";

  for (std::size_t gi = 0; gi < plan.groups.size(); ++gi) {
    const GroupPlan& g = plan.groups[gi];
    os << "  /* ---- group " << gi << " ---- */\n";
    switch (g.exec) {
      case GroupExec::Loops: {
        for (const StagePlan& sp : g.stages) {
          const FunctionDecl& f = plan.pipe.funcs[sp.func];
          os << "  /* " << f.name << " */\n";
          if (opt::loops_stage_forks(f.domain, plan.opts)) {
            os << "#pragma omp parallel for schedule(static)\n";
          } else {
            os << "  /* under the serial grain: runs on the calling thread "
                  "*/\n";
          }
          emit_stage_loops(os, plan, sp.func, "  ",
                           "_arr_" + std::to_string(sp.array),
                           /*clamp_to_tile=*/false);
        }
        break;
      }
      case GroupExec::OverlapTiled: {
        if (g.parallel_chunks() == 1) {
          os << "  /* one tile chunk: runs on the calling thread */\n";
        } else {
          os << "#pragma omp parallel for schedule(static)";
          if (g.collapse_depth > 1) {
            os << " collapse(" << g.collapse_depth << ")";
          }
          os << "\n";
        }
        std::string pad = "  ";
        for (int d = 0; d < ndim; ++d) {
          os << pad << "for (int T_" << d << " = 0; T_" << d << " < "
             << g.tiles.ntiles[d] << "; T_" << d << "++) {\n";
          pad += "  ";
        }
        os << pad << "/* Scratchpads */\n";
        for (std::size_t s = 0; s < g.scratch_sizes.size(); ++s) {
          os << pad << "/* users : [";
          bool first = true;
          for (const StagePlan& sp : g.stages) {
            if (sp.scratch_buffer == static_cast<int>(s)) {
              os << (first ? "" : ", ") << plan.pipe.funcs[sp.func].name;
              first = false;
            }
          }
          os << "] */\n";
          os << pad << "double _buf_" << gi << "_" << s << "["
             << g.scratch_sizes[s] << "];\n";
        }
        for (const StagePlan& sp : g.stages) {
          const FunctionDecl& f = plan.pipe.funcs[sp.func];
          os << pad << "/* " << f.name << " */\n";
          for (int d = 0; d < ndim; ++d) {
            const auto [lb, ub] = tile_bounds(g.tiles, d);
            os << pad << "int lb_" << d << " = " << lb << " - overlap_" << gi
               << "_" << d << ";\n";
            os << pad << "int ub_" << d << " = " << ub << " + overlap_" << gi
               << "_" << d << ";\n";
          }
          const std::string dst =
              sp.scratch_buffer >= 0
                  ? "_buf_" + std::to_string(gi) + "_" +
                        std::to_string(sp.scratch_buffer)
                  : "_arr_" + std::to_string(sp.array);
          emit_stage_loops(os, plan, sp.func, pad, dst,
                           /*clamp_to_tile=*/true);
          if (sp.scratch_buffer >= 0 && sp.array >= 0) {
            os << pad << "/* publish owned slice of live-out " << f.name
               << " */\n";
            os << pad << "copy_owned(_arr_" << sp.array << ", " << dst
               << ");\n";
          }
        }
        for (int d = ndim - 1; d >= 0; --d) {
          pad = "  ";
          for (int q = 0; q < d; ++q) pad += "  ";
          os << pad << "}\n";
        }
        break;
      }
      case GroupExec::TimeTiled: {
        const FunctionDecl& f = plan.pipe.funcs[g.stages.front().func];
        os << "  /* split/diamond time tiling of " << f.name << " chain: "
           << g.stages.size() << " steps, H=" << g.dtile_H
           << ", W=" << g.dtile_W << " */\n";
        os << "  for (int t0 = 0; t0 < " << g.stages.size()
           << "; t0 += " << g.dtile_H << ") {\n";
        os << "#pragma omp parallel for schedule(dynamic)  /* phase 1: "
              "trapezoids */\n";
        os << "    for (int blk = 0; blk < nblocks; blk++) "
              "advance_trapezoid(blk, t0);\n";
        os << "#pragma omp parallel for schedule(dynamic)  /* phase 2: "
              "wedges */\n";
        os << "    for (int w = 0; w < nblocks - 1; w++) advance_wedge(w, "
              "t0);\n";
        os << "  }\n";
        break;
      }
    }
    if (!plan.release_after_group[gi].empty()) {
      for (int a : plan.release_after_group[gi]) {
        os << "  pool_deallocate(_arr_" << a << ");\n";
      }
    }
    os << "\n";
  }

  // Program outputs.
  for (int out : plan.pipe.outputs) {
    os << "  OUT = _arr_" << plan.array_of_func[out] << ";  /* "
       << plan.pipe.funcs[out].name << " */\n";
  }
  os << "}\n";
  return os.str();
}

int generated_loc(const opt::CompiledPipeline& plan) {
  std::string code = emit_c(plan, "pipeline");
  // Plans that specialize also generate (and compile) the per-stencil
  // kernel module; Table 3's accounting counts those lines too.
  if (plan.opts.jit != opt::JitMode::Off) code += emit_jit_c(plan);
  int lines = 1;
  for (char c : code) lines += c == '\n' ? 1 : 0;
  return lines;
}

}  // namespace polymg::codegen
