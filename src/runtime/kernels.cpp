#include "polymg/runtime/kernels.hpp"

#include <algorithm>
#include <vector>

#include "polymg/common/error.hpp"
#include "polymg/grid/ops.hpp"

namespace polymg::runtime {

namespace {

using poly::floordiv;

/// Loop bounds of one dimension after applying (step, phase) lattice
/// restriction: first point >= lo with x ≡ phase (mod step), point count.
struct DimLoop {
  index_t start = 0;
  index_t count = 0;
  index_t step = 1;
};

DimLoop dim_loop(const poly::Interval& iv, index_t step, index_t phase) {
  DimLoop dl;
  dl.step = step;
  if (iv.empty()) return dl;
  index_t start = iv.lo + ((phase - iv.lo) % step + step) % step;
  if (start > iv.hi) return dl;
  dl.start = start;
  dl.count = (iv.hi - start) / step + 1;
  return dl;
}

/// Map the ndim logical loops onto three loop levels, innermost (the
/// contiguous dimension) at level 2. Returns false when any loop is
/// empty. lo_dim is the logical dim of loop level 0 minus, i.e. logical
/// dim d executes at level d + (3 - ndim).
bool make_levels(const Box& region, int ndim,
                 const std::array<index_t, 3>& step,
                 const std::array<index_t, 3>& phase, DimLoop dl[3]) {
  for (int d = 0; d < ndim; ++d) {
    dl[d] = dim_loop(region.dim(d), step[d], phase[d]);
    if (dl[d].count == 0) return false;
  }
  if (ndim == 2) {
    dl[2] = dl[1];
    dl[1] = dl[0];
    dl[0] = DimLoop{0, 1, 1};
  } else if (ndim == 1) {
    dl[2] = dl[0];
    dl[1] = DimLoop{0, 1, 1};
    dl[0] = DimLoop{0, 1, 1};
  }
  return true;
}

/// One flattened tap of the fast path: a base pointer (for u == 0) plus
/// per-loop-counter strides.
struct FlatTap {
  const double* base;
  double coeff;
  index_t s0, s1, s2;
};

/// Taps of a cached linear-form instance fit on the stack; lowering
/// produces at most a few dozen taps (NAS rprj3 peaks at 27).
inline constexpr int kMaxStackTaps = 64;

template <int NT>
inline void row_kernel_fixed(double* __restrict__ out, index_t os2,
                             index_t count, double cst,
                             const FlatTap* __restrict__ taps) {
  // All-unit inner strides: the compiler can vectorize this form.
  bool unit = os2 == 1;
  for (int t = 0; t < NT; ++t) unit = unit && taps[t].s2 == 1;
  if (unit) {
    for (index_t u = 0; u < count; ++u) {
      double acc = cst;
      for (int t = 0; t < NT; ++t) acc += taps[t].coeff * taps[t].base[u];
      out[u] = acc;
    }
  } else {
    for (index_t u = 0; u < count; ++u) {
      double acc = cst;
      for (int t = 0; t < NT; ++t) {
        acc += taps[t].coeff * taps[t].base[u * taps[t].s2];
      }
      out[u * os2] = acc;
    }
  }
}

/// Generic tap counts (variable-coefficient 3-d stencils land on 10–18)
/// in blocks of four taps: each pass is a clean 4-term axpy the
/// vectorizer handles, instead of a variable-trip-count inner tap loop.
void row_kernel_blocked4(int nt, double* __restrict__ out, index_t os2,
                         index_t count, double cst,
                         const FlatTap* __restrict__ taps) {
  bool unit = os2 == 1;
  for (int t = 0; t < nt; ++t) unit = unit && taps[t].s2 == 1;
  if (!unit) {
    for (index_t u = 0; u < count; ++u) {
      double acc = cst;
      for (int t = 0; t < nt; ++t) {
        acc += taps[t].coeff * taps[t].base[u * taps[t].s2];
      }
      out[u * os2] = acc;
    }
    return;
  }
  for (index_t u = 0; u < count; ++u) out[u] = cst;
  int t = 0;
  for (; t + 4 <= nt; t += 4) {
    const double* __restrict__ b0 = taps[t + 0].base;
    const double* __restrict__ b1 = taps[t + 1].base;
    const double* __restrict__ b2 = taps[t + 2].base;
    const double* __restrict__ b3 = taps[t + 3].base;
    const double c0 = taps[t + 0].coeff, c1 = taps[t + 1].coeff;
    const double c2 = taps[t + 2].coeff, c3 = taps[t + 3].coeff;
    for (index_t u = 0; u < count; ++u) {
      out[u] += c0 * b0[u] + c1 * b1[u] + c2 * b2[u] + c3 * b3[u];
    }
  }
  for (; t < nt; ++t) {
    const double* __restrict__ b = taps[t].base;
    const double c = taps[t].coeff;
    for (index_t u = 0; u < count; ++u) out[u] += c * b[u];
  }
}

void row_kernel(int nt, double* out, index_t os2, index_t count, double cst,
                const FlatTap* taps) {
  switch (nt) {
    case 1: row_kernel_fixed<1>(out, os2, count, cst, taps); return;
    case 2: row_kernel_fixed<2>(out, os2, count, cst, taps); return;
    case 3: row_kernel_fixed<3>(out, os2, count, cst, taps); return;
    case 4: row_kernel_fixed<4>(out, os2, count, cst, taps); return;
    case 5: row_kernel_fixed<5>(out, os2, count, cst, taps); return;
    case 6: row_kernel_fixed<6>(out, os2, count, cst, taps); return;
    case 7: row_kernel_fixed<7>(out, os2, count, cst, taps); return;
    case 8: row_kernel_fixed<8>(out, os2, count, cst, taps); return;
    case 9: row_kernel_fixed<9>(out, os2, count, cst, taps); return;
    // The NAS-MG 27-point family: psinv (19+1), resid (21+1), rprj3 (27).
    case 19: row_kernel_fixed<19>(out, os2, count, cst, taps); return;
    case 20: row_kernel_fixed<20>(out, os2, count, cst, taps); return;
    case 21: row_kernel_fixed<21>(out, os2, count, cst, taps); return;
    case 22: row_kernel_fixed<22>(out, os2, count, cst, taps); return;
    case 27: row_kernel_fixed<27>(out, os2, count, cst, taps); return;
    case 28: row_kernel_fixed<28>(out, os2, count, cst, taps); return;
    // 10–18 (and anything past 28) run tap-blocked rather than falling
    // back to the scalar variable-count loop.
    default:
      row_kernel_blocked4(nt, out, os2, count, cst, taps);
      return;
  }
}

/// Fast path applies when every (input, dim) access stays affine in the
/// loop counter: floor(num·(start + step·u)/den) is affine iff den
/// divides num·step.
bool fast_path_ok(const ir::LinearForm& lf, int ndim,
                  const std::array<index_t, 3>& step) {
  for (const ir::InputTaps& it : lf.inputs) {
    for (int d = 0; d < ndim; ++d) {
      if ((it.num[d] * step[d]) % it.den[d] != 0) return false;
    }
  }
  return true;
}

void apply_linear_fast(const ir::LinearForm& lf, View out,
                       std::span<const View> srcs, const Box& region,
                       const std::array<index_t, 3>& step,
                       const std::array<index_t, 3>& phase) {
  const int ndim = out.ndim;
  DimLoop dl[3];
  if (!make_levels(region, ndim, step, phase, dl)) return;
  const int lo_dim = 3 - ndim;  // logical dim of loop level 0

  // Flatten taps with per-level strides and u==0 base pointers. The
  // steady-state path stays allocation-free: taps live on the stack up
  // to kMaxStackTaps, with a heap fallback for outsized forms.
  FlatTap taps_stack[kMaxStackTaps];
  std::vector<FlatTap> taps_heap;
  const int nt = lf.total_taps();
  FlatTap* taps = taps_stack;
  if (nt > kMaxStackTaps) {
    taps_heap.resize(static_cast<std::size_t>(nt));
    taps = taps_heap.data();
  }
  int ti = 0;
  for (const ir::InputTaps& it : lf.inputs) {
    const View& src = srcs[it.slot];
    PMG_DCHECK(src.ptr != nullptr, "unbound source view");
    index_t in_stride[3] = {0, 0, 0};  // per loop level
    index_t base0 = 0;                 // input offset at u == 0 (no taps)
    for (int lvl = 0; lvl < 3; ++lvl) {
      const int d = lvl - lo_dim;
      if (d < 0) continue;
      const index_t num = it.num[d], den = it.den[d];
      in_stride[lvl] = (num * dl[lvl].step / den) * src.stride[d];
      base0 +=
          (floordiv(num * dl[lvl].start, den) - src.origin[d]) * src.stride[d];
    }
    for (const ir::Tap& t : it.taps) {
      FlatTap& ft = taps[ti++];
      index_t off = base0;
      for (int d = 0; d < ndim; ++d) off += t.off[d] * src.stride[d];
      ft.base = src.ptr + off;
      ft.coeff = t.coeff;
      ft.s0 = in_stride[0];
      ft.s1 = in_stride[1];
      ft.s2 = in_stride[2];
    }
  }

  index_t out_stride[3] = {0, 0, 0};
  index_t out_base = 0;
  for (int lvl = 0; lvl < 3; ++lvl) {
    const int d = lvl - lo_dim;
    if (d < 0) continue;
    out_stride[lvl] = dl[lvl].step * out.stride[d];
    out_base += (dl[lvl].start - out.origin[d]) * out.stride[d];
  }

  FlatTap row_stack[kMaxStackTaps];
  std::vector<FlatTap> row_heap;
  FlatTap* row = row_stack;
  if (nt > kMaxStackTaps) {
    row_heap.resize(static_cast<std::size_t>(nt));
    row = row_heap.data();
  }
  std::copy(taps, taps + nt, row);
  for (index_t u0 = 0; u0 < dl[0].count; ++u0) {
    for (index_t u1 = 0; u1 < dl[1].count; ++u1) {
      for (int t = 0; t < nt; ++t) {
        row[t].base = taps[t].base + u0 * taps[t].s0 + u1 * taps[t].s1;
      }
      double* o = out.ptr + out_base + u0 * out_stride[0] + u1 * out_stride[1];
      row_kernel(nt, o, out_stride[2], dl[2].count, lf.constant, row);
    }
  }
}

/// Fully general (and slow) per-point path.
template <typename EvalFn>
void apply_pointwise(View out, const Box& region,
                     const std::array<index_t, 3>& step,
                     const std::array<index_t, 3>& phase, EvalFn&& eval) {
  const int ndim = out.ndim;
  DimLoop dl[3];
  for (int d = 0; d < ndim; ++d) {
    dl[d] = dim_loop(region.dim(d), step[d], phase[d]);
    if (dl[d].count == 0) return;
  }
  std::array<index_t, 3> p{};
  if (ndim == 1) {
    for (index_t u = 0; u < dl[0].count; ++u) {
      p[0] = dl[0].start + u * dl[0].step;
      out.at(p) = eval(p);
    }
    return;
  }
  if (ndim == 2) {
    for (index_t u0 = 0; u0 < dl[0].count; ++u0) {
      p[0] = dl[0].start + u0 * dl[0].step;
      for (index_t u1 = 0; u1 < dl[1].count; ++u1) {
        p[1] = dl[1].start + u1 * dl[1].step;
        out.at(p) = eval(p);
      }
    }
    return;
  }
  for (index_t u0 = 0; u0 < dl[0].count; ++u0) {
    p[0] = dl[0].start + u0 * dl[0].step;
    for (index_t u1 = 0; u1 < dl[1].count; ++u1) {
      p[1] = dl[1].start + u1 * dl[1].step;
      for (index_t u2 = 0; u2 < dl[2].count; ++u2) {
        p[2] = dl[2].start + u2 * dl[2].step;
        out.at(p) = eval(p);
      }
    }
  }
}

}  // namespace

void apply_linear(const ir::LinearForm& lf, View out,
                  std::span<const View> srcs, const Box& region,
                  std::array<index_t, 3> step, std::array<index_t, 3> phase) {
  if (region.empty()) return;
  if (fast_path_ok(lf, out.ndim, step)) {
    apply_linear_fast(lf, out, srcs, region, step, phase);
    return;
  }
  const int ndim = out.ndim;
  apply_pointwise(out, region, step, phase,
                  [&](const std::array<index_t, 3>& p) {
                    double acc = lf.constant;
                    for (const ir::InputTaps& it : lf.inputs) {
                      const View& src = srcs[it.slot];
                      for (const ir::Tap& t : it.taps) {
                        std::array<index_t, 3> q{};
                        for (int d = 0; d < ndim; ++d) {
                          q[d] = floordiv(it.num[d] * p[d], it.den[d]) +
                                 t.off[d];
                        }
                        acc += t.coeff * src.at(q);
                      }
                    }
                    return acc;
                  });
}

void apply_bytecode(const ir::Bytecode& bc, View out,
                    std::span<const View> srcs, const Box& region,
                    std::array<index_t, 3> step,
                    std::array<index_t, 3> phase) {
  if (region.empty()) return;
  const int ndim = out.ndim;
  constexpr int kStackCap = 64;
  PMG_CHECK(ir::stack_depth(bc) <= kStackCap, "bytecode stack too deep");
  apply_pointwise(
      out, region, step, phase, [&](const std::array<index_t, 3>& p) {
        double stack[kStackCap] = {0.0};
        int sp = 0;
        for (const ir::BcOp& op : bc) {
          switch (op.kind) {
            case ir::BcKind::PushConst:
              stack[sp++] = op.c;
              break;
            case ir::BcKind::Load: {
              std::array<index_t, 3> q{};
              for (int d = 0; d < ndim; ++d) {
                q[d] = floordiv(op.idx[d].num * p[d], op.idx[d].den) +
                       op.idx[d].off;
              }
              stack[sp++] = srcs[op.slot].at(q);
              break;
            }
            case ir::BcKind::Neg:
              stack[sp - 1] = -stack[sp - 1];
              break;
            case ir::BcKind::Add:
              stack[sp - 2] += stack[sp - 1];
              --sp;
              break;
            case ir::BcKind::Sub:
              stack[sp - 2] -= stack[sp - 1];
              --sp;
              break;
            case ir::BcKind::Mul:
              stack[sp - 2] *= stack[sp - 1];
              --sp;
              break;
            case ir::BcKind::Div:
              stack[sp - 2] /= stack[sp - 1];
              --sp;
              break;
          }
        }
        return stack[0];
      });
}

void fill_view(View v, const Box& region, double value) {
  grid::fill_region(v, region, value);
}

void copy_view(View dst, View src, const Box& region) {
  grid::copy_region(dst, src, region, grid::Fork::Never);
}

KernelPath kernel_path(const ir::LoweredDef& d) {
  if (d.jit != nullptr) return KernelPath::Jit;
  return d.linear ? KernelPath::Tap : KernelPath::Interp;
}

const char* to_string(KernelPath p) {
  switch (p) {
    case KernelPath::Jit: return "jit";
    case KernelPath::Tap: return "tap";
    case KernelPath::Interp: return "interp";
  }
  return "?";
}

namespace {

/// Whether a bound JIT kernel may run this invocation: the generated
/// code bakes a unit innermost stride for the output and every source,
/// and addresses at most kJitMaxSrcSlots sources. All views PolyMG
/// creates satisfy both; exotic caller-supplied views fall back to the
/// interpreted dispatch below.
bool jit_dispatch_ok(const View& out, std::span<const View> srcs) {
  if (srcs.size() > static_cast<std::size_t>(ir::kJitMaxSrcSlots)) {
    return false;
  }
  if (out.stride[out.ndim - 1] != 1) return false;
  for (const View& s : srcs) {
    if (s.ptr != nullptr && s.stride[s.ndim - 1] != 1) return false;
  }
  return true;
}

/// Evaluate one lowered definition on the path kernel_path() names. A
/// bound JIT kernel whose views fail jit_dispatch_ok runs on the
/// interpreter instead (the JIT binds only non-linear definitions).
void apply_def(const ir::LoweredDef& d, View out, std::span<const View> srcs,
               const Box& region, const std::array<index_t, 3>& step,
               const std::array<index_t, 3>& phase) {
  const KernelPath path = kernel_path(d);
  if (path == KernelPath::Jit && jit_dispatch_ok(out, srcs)) {
    // (step, phase) are baked into the kernel; apply_defs always pairs
    // a def with the parity case it was lowered (and emitted) for.
    ir::JitSrcView js[ir::kJitMaxSrcSlots];
    for (std::size_t i = 0; i < srcs.size(); ++i) {
      js[i].ptr = srcs[i].ptr;
      for (int dim = 0; dim < 3; ++dim) {
        js[i].origin[dim] = srcs[i].origin[dim];
        js[i].stride[dim] = srcs[i].stride[dim];
      }
    }
    std::int64_t lo[3] = {0, 0, 0};
    std::int64_t hi[3] = {-1, -1, -1};
    for (int dim = 0; dim < out.ndim; ++dim) {
      lo[dim] = region.dim(dim).lo;
      hi[dim] = region.dim(dim).hi;
    }
    d.jit(out.ptr, out.origin.data(), out.stride.data(), js, lo, hi);
    return;
  }
  if (path == KernelPath::Tap) {
    apply_linear(*d.linear, out, srcs, region, step, phase);
  } else {
    apply_bytecode(d.bytecode, out, srcs, region, step, phase);
  }
}

void apply_defs(const ir::FunctionDecl& f, const ir::LoweredFunc& lowered,
                View out, std::span<const View> srcs, const Box& region) {
  if (region.empty()) return;
  if (!f.parity_piecewise) {
    apply_def(lowered.defs[0], out, srcs, region, {1, 1, 1}, {0, 0, 0});
    return;
  }
  const int cases = 1 << f.ndim;
  for (int c = 0; c < cases; ++c) {
    std::array<index_t, 3> phase{};
    for (int d = 0; d < f.ndim; ++d) {
      phase[d] = (c >> (f.ndim - 1 - d)) & 1;
    }
    apply_def(lowered.defs[c], out, srcs, region, {2, 2, 2}, phase);
  }
}

void apply_boundary(const ir::FunctionDecl& f, View out,
                    std::span<const View> srcs, const Box& region) {
  for_each_boundary_slab(region, f.interior, [&](const Box& slab) {
    switch (f.boundary) {
      case ir::BoundaryKind::None:
        PMG_CHECK(false, "boundary slab on a BoundaryKind::None function "
                             << f.name);
        break;
      case ir::BoundaryKind::Zero:
        fill_view(out, slab, 0.0);
        break;
      case ir::BoundaryKind::CopySource:
        copy_view(out, srcs[f.boundary_source], slab);
        break;
    }
  });
}

}  // namespace

void apply_stage(const ir::FunctionDecl& f, const ir::LoweredFunc& lowered,
                 View out, std::span<const View> srcs, const Box& region) {
  apply_defs(f, lowered, out, srcs, poly::intersect(region, f.interior));
  if (f.boundary != ir::BoundaryKind::None) {
    apply_boundary(f, out, srcs, region);
  }
}

void apply_stage_interior(const ir::FunctionDecl& f,
                          const ir::LoweredFunc& lowered, View out,
                          std::span<const View> srcs, const Box& region) {
  apply_defs(f, lowered, out, srcs, poly::intersect(region, f.interior));
}

}  // namespace polymg::runtime
