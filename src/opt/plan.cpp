#include "polymg/opt/plan.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <sstream>

#include "polymg/common/error.hpp"

namespace polymg::opt {

namespace {

int gcd(int a, int b) { return b == 0 ? a : gcd(b, a % b); }

/// rel(consumer) composed with the consumer->producer access scale.
RelScale compose_rel(const RelScale& c, const poly::Access& acc, int ndim) {
  RelScale p;
  for (int d = 0; d < ndim; ++d) {
    int num = c.num[d] * acc.d[d].num;
    int den = c.den[d] * acc.d[d].den;
    const int g = gcd(num, den);
    p.num[d] = num / g;
    p.den[d] = den / g;
  }
  return p;
}

bool rel_equal(const RelScale& a, const RelScale& b, int ndim) {
  for (int d = 0; d < ndim; ++d) {
    if (a.num[d] != b.num[d] || a.den[d] != b.den[d]) return false;
  }
  return true;
}

}  // namespace

GroupAnalysis analyze_group(
    const Pipeline& pipe, const std::vector<int>& funcs,
    const std::vector<std::vector<std::pair<int, int>>>& consumers,
    const std::vector<bool>& /*unused*/, const poly::TileSizes& tile) {
  GroupAnalysis ga;
  ga.order = funcs;
  std::sort(ga.order.begin(), ga.order.end());
  const int n = static_cast<int>(ga.order.size());
  const int ndim = pipe.ndim;

  std::vector<int> pos_of(pipe.num_stages(), -1);
  for (int p = 0; p < n; ++p) pos_of[ga.order[p]] = p;

  // In-group consumer edges and live-out flags.
  ga.in_group_consumers.assign(n, {});
  ga.liveout.assign(n, false);
  for (int p = 0; p < n; ++p) {
    const int f = ga.order[p];
    if (pipe.is_output(f)) ga.liveout[p] = true;
    for (const auto& [cf, slot] : consumers[f]) {
      if (pos_of[cf] >= 0) {
        ga.in_group_consumers[p].emplace_back(pos_of[cf], slot);
      } else {
        ga.liveout[p] = true;
      }
    }
  }
  // The last stage is always a live-out sink (nothing after it in the
  // group can consume it).
  ga.liveout[n - 1] = true;

  // Single-sink requirement: every non-anchor stage must feed something
  // inside the group, otherwise relative scales are ill-defined.
  for (int p = 0; p < n - 1; ++p) {
    if (ga.in_group_consumers[p].empty()) {
      ga.reject_reason = "multiple sinks";
      return ga;
    }
  }

  // Relative scales w.r.t. the anchor, walking consumers backwards.
  ga.rel.assign(n, RelScale{});
  std::vector<bool> rel_set(n, false);
  rel_set[n - 1] = true;
  for (int p = n - 2; p >= 0; --p) {
    const ir::FunctionDecl& pf = pipe.funcs[ga.order[p]];
    (void)pf;
    for (const auto& [cpos, slot] : ga.in_group_consumers[p]) {
      const ir::FunctionDecl& cf = pipe.funcs[ga.order[cpos]];
      const RelScale r = compose_rel(ga.rel[cpos], cf.access_for(slot), ndim);
      if (!rel_set[p]) {
        ga.rel[p] = r;
        rel_set[p] = true;
      } else if (!rel_equal(ga.rel[p], r, ndim)) {
        ga.reject_reason = "inconsistent scales across consumers";
        return ga;
      }
    }
  }

  // Per-stage tile extent bounds: walk the in-group consumers backwards
  // from an anchor tile extent, growing each producer's bound through
  // its consumers' footprints (and its owned slice when it is a
  // live-out), clamped to the producer's domain.
  const ir::FunctionDecl& anchor = pipe.funcs[ga.order[n - 1]];
  using Extent = std::array<poly::index_t, 3>;
  const auto extents_for = [&](const Extent& anchor_ext) {
    std::vector<Extent> ext(n, Extent{});
    ext[n - 1] = anchor_ext;
    for (int p = n - 2; p >= 0; --p) {
      const ir::FunctionDecl& pf = pipe.funcs[ga.order[p]];
      for (const auto& [cpos, slot] : ga.in_group_consumers[p]) {
        const ir::FunctionDecl& cf = pipe.funcs[ga.order[cpos]];
        const poly::Access& acc = cf.access_for(slot);
        for (int d = 0; d < ndim; ++d) {
          ext[p][d] = std::max(
              ext[p][d], poly::footprint_extent_bound(acc.d[d], ext[cpos][d]));
        }
      }
      if (ga.liveout[p]) {
        for (int d = 0; d < ndim; ++d) {
          const poly::DimAccess own{ga.rel[p].num[d], ga.rel[p].den[d], 0, 0};
          ext[p][d] = std::max(
              ext[p][d], poly::footprint_extent_bound(own, anchor_ext[d]) + 1);
        }
      }
      for (int d = 0; d < ndim; ++d) {
        ext[p][d] = std::min(ext[p][d], pf.domain.dim(d).size());
      }
    }
    return ext;
  };
  // Tiles step through the anchor's interior (poly::make_tile_grid), so
  // an inner tile spans `tile` points and an edge tile adds the ghost
  // layers on its side. Scratchpads are sized for the widest tile; the
  // redundancy ratio judges the inner tile against each stage's fair
  // share.
  Extent inner{};
  Extent widest{};
  for (int d = 0; d < ndim; ++d) {
    const poly::Interval dom = anchor.domain.dim(d);
    const poly::Interval in = anchor.interior.dim(d);
    inner[d] = std::min<poly::index_t>(tile[d], dom.size());
    widest[d] = std::min<poly::index_t>(
        tile[d] + (in.lo - dom.lo) + (dom.hi - in.hi), dom.size());
  }
  ga.extent = extents_for(widest);
  const std::vector<Extent> inner_ext = extents_for(inner);
  for (int p = n - 2; p >= 0; --p) {
    for (int d = 0; d < ndim; ++d) {
      const poly::DimAccess own{ga.rel[p].num[d], ga.rel[p].den[d], 0, 0};
      const double fair = static_cast<double>(
          poly::footprint_extent_bound(own, inner[d]));
      const double red = (static_cast<double>(inner_ext[p][d]) - fair) / fair;
      ga.max_redundancy = std::max(ga.max_redundancy, red);
    }
  }

  ga.valid = true;
  return ga;
}

Box owned_region(const ir::FunctionDecl& f, const RelScale& rel,
                 const Box& anchor_tile, const Box& anchor_domain) {
  const int ndim = f.ndim;
  Box own(ndim);
  for (int d = 0; d < ndim; ++d) {
    const auto fmap = [&](poly::index_t x) {
      return poly::floordiv(rel.num[d] * x, rel.den[d]);
    };
    poly::index_t lo = fmap(anchor_tile.dim(d).lo);
    poly::index_t hi = fmap(anchor_tile.dim(d).hi + 1) - 1;
    // At the partition edges, extend to the stage's own domain bounds so
    // ghost rings are owned by exactly one tile.
    if (anchor_tile.dim(d).lo == anchor_domain.dim(d).lo) {
      lo = f.domain.dim(d).lo;
    }
    if (anchor_tile.dim(d).hi == anchor_domain.dim(d).hi) {
      hi = f.domain.dim(d).hi;
    }
    own.dim(d) = poly::Interval{std::max(lo, f.domain.dim(d).lo),
                                std::min(hi, f.domain.dim(d).hi)};
  }
  return own;
}

void tile_regions(const Pipeline& pipe, const GroupPlan& g,
                  const Box& anchor_tile, std::vector<Box>& regions) {
  const int n = static_cast<int>(g.stages.size());
  regions.assign(n, Box{});
  regions[g.anchor] = anchor_tile;
  const Box& anchor_domain = pipe.funcs[g.stages[g.anchor].func].domain;
  for (int p = n - 2; p >= 0; --p) {
    const StagePlan& sp = g.stages[p];
    const ir::FunctionDecl& pf = pipe.funcs[sp.func];
    Box r;
    for (const auto& [cpos, slot] : sp.in_group_consumers) {
      const ir::FunctionDecl& cf = pipe.funcs[g.stages[cpos].func];
      r = poly::hull(r, poly::footprint(cf.access_for(slot), regions[cpos]));
    }
    if (sp.liveout) {
      r = poly::hull(r, owned_region(pf, sp.rel, anchor_tile, anchor_domain));
    }
    regions[p] = poly::intersect(r, pf.domain);
  }
}

std::string CompiledPipeline::dump() const {
  std::ostringstream os;
  os << "compiled pipeline (" << to_string(opts.variant) << "): "
     << groups.size() << " groups, " << arrays.size() << " full arrays\n";
  for (std::size_t gi = 0; gi < groups.size(); ++gi) {
    const GroupPlan& g = groups[gi];
    os << " group " << gi << " ["
       << (g.exec == GroupExec::Loops          ? "loops"
           : g.exec == GroupExec::OverlapTiled ? "overlap-tiled"
                                               : "time-tiled")
       << "]";
    if (g.exec == GroupExec::OverlapTiled) {
      os << " tile=";
      for (int d = 0; d < pipe.ndim; ++d) {
        os << (d ? "x" : "") << g.tiles.sizes[d];
      }
      os << " collapse=" << g.collapse_depth;
    }
    if (g.exec == GroupExec::TimeTiled) {
      os << " H=" << g.dtile_H << " W=" << g.dtile_W;
    }
    os << "\n";
    for (const StagePlan& sp : g.stages) {
      os << "   " << pipe.funcs[sp.func].name;
      if (sp.scratch_buffer >= 0) os << "  scratchpad#" << sp.scratch_buffer;
      if (sp.array >= 0) {
        os << "  array#" << sp.array << " (" << arrays[sp.array].name << ")";
      }
      if (sp.scratch_buffer < 0 && sp.array < 0) {
        os << "  (no storage: ping-pong intermediate)";
      }
      if (sp.liveout) os << "  live-out";
      os << "\n";
    }
    if (!release_after_group[gi].empty()) {
      os << "   release:";
      for (int a : release_after_group[gi]) os << " array#" << a;
      os << "\n";
    }
  }
  return os.str();
}

namespace {

/// FNV-1a, the usual 64-bit variant.
struct Fnv1a {
  std::uint64_t h = 1469598103934665603ull;
  void byte(std::uint8_t b) {
    h ^= b;
    h *= 1099511628211ull;
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
};

}  // namespace

std::uint64_t kernel_fingerprint(const CompiledPipeline& plan) {
  Fnv1a fp;
  fp.u64(static_cast<std::uint64_t>(plan.pipe.funcs.size()));
  for (std::size_t f = 0; f < plan.pipe.funcs.size(); ++f) {
    const ir::FunctionDecl& fn = plan.pipe.funcs[f];
    const ir::LoweredFunc& lf = plan.lowered[f];
    fp.byte(static_cast<std::uint8_t>(fn.ndim));
    fp.byte(fn.parity_piecewise ? 1 : 0);
    fp.u64(static_cast<std::uint64_t>(lf.defs.size()));
    for (const ir::LoweredDef& d : lf.defs) {
      // Linearizability selects the emission order (tap loop vs register
      // program), so it is part of the kernel's identity.
      fp.byte(d.linear.has_value() ? 1 : 0);
      fp.u64(static_cast<std::uint64_t>(d.bytecode.size()));
      for (const ir::BcOp& op : d.bytecode) {
        fp.byte(static_cast<std::uint8_t>(op.kind));
        if (op.kind == ir::BcKind::PushConst) fp.f64(op.c);
        if (op.kind == ir::BcKind::Load) {
          fp.byte(static_cast<std::uint8_t>(op.slot));
          for (int dim = 0; dim < fn.ndim; ++dim) {
            fp.i64(op.idx[dim].num);
            fp.i64(op.idx[dim].den);
            fp.i64(op.idx[dim].off);
          }
        }
      }
    }
  }
  return fp.h;
}

}  // namespace polymg::opt
