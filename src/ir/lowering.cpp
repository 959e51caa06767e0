#include "polymg/ir/lowering.hpp"

#include <algorithm>

#include "polymg/common/error.hpp"

namespace polymg::ir {

namespace {

/// Intermediate affine value: constant + Σ coeff·load. Loads are keyed by
/// (slot, full sampled index tuple).
struct LinTerm {
  int slot;
  std::array<LoadIndex, kMaxDims> idx;
  double coeff;
};

struct Lin {
  double c = 0.0;
  std::vector<LinTerm> terms;

  bool pure_const() const { return terms.empty(); }
};

void add_term(Lin& l, const LinTerm& t) {
  for (LinTerm& e : l.terms) {
    if (e.slot == t.slot && e.idx == t.idx) {
      e.coeff += t.coeff;
      return;
    }
  }
  l.terms.push_back(t);
}

std::optional<Lin> linearize(const Expr& e, int ndim) {
  switch (e->kind) {
    case ExprKind::Const:
      return Lin{e->value, {}};
    case ExprKind::Load: {
      Lin l;
      LinTerm t{e->slot, {}, 1.0};
      for (int d = 0; d < ndim; ++d) t.idx[d] = e->idx[d];
      l.terms.push_back(t);
      return l;
    }
    case ExprKind::Neg: {
      auto a = linearize(e->lhs, ndim);
      if (!a) return std::nullopt;
      a->c = -a->c;
      for (LinTerm& t : a->terms) t.coeff = -t.coeff;
      return a;
    }
    case ExprKind::Add:
    case ExprKind::Sub: {
      auto a = linearize(e->lhs, ndim);
      auto b = linearize(e->rhs, ndim);
      if (!a || !b) return std::nullopt;
      const double sign = e->kind == ExprKind::Add ? 1.0 : -1.0;
      a->c += sign * b->c;
      for (LinTerm& t : b->terms) {
        t.coeff *= sign;
        add_term(*a, t);
      }
      return a;
    }
    case ExprKind::Mul: {
      auto a = linearize(e->lhs, ndim);
      auto b = linearize(e->rhs, ndim);
      if (!a || !b) return std::nullopt;
      // Affine · affine is affine only if one side is constant.
      if (!a->pure_const() && !b->pure_const()) return std::nullopt;
      if (!a->pure_const()) std::swap(a, b);
      const double k = a->c;
      b->c *= k;
      for (LinTerm& t : b->terms) t.coeff *= k;
      return b;
    }
    case ExprKind::Div: {
      auto a = linearize(e->lhs, ndim);
      auto b = linearize(e->rhs, ndim);
      if (!a || !b || !b->pure_const() || b->c == 0.0) return std::nullopt;
      a->c /= b->c;
      for (LinTerm& t : a->terms) t.coeff /= b->c;
      return a;
    }
  }
  return std::nullopt;
}

}  // namespace

std::optional<LinearForm> try_linearize(const Expr& e, int ndim) {
  auto lin = linearize(e, ndim);
  if (!lin) return std::nullopt;

  LinearForm lf;
  lf.constant = lin->c;
  for (const LinTerm& t : lin->terms) {
    if (t.coeff == 0.0) continue;
    // Find (or open) the InputTaps bucket for this slot; sampling factors
    // must agree across all loads of the slot for the tap-loop kernel.
    InputTaps* bucket = nullptr;
    for (InputTaps& it : lf.inputs) {
      if (it.slot == t.slot) {
        bucket = &it;
        break;
      }
    }
    if (bucket == nullptr) {
      InputTaps it;
      it.slot = t.slot;
      for (int d = 0; d < ndim; ++d) {
        it.num[d] = t.idx[d].num;
        it.den[d] = t.idx[d].den;
      }
      lf.inputs.push_back(it);
      bucket = &lf.inputs.back();
    } else {
      for (int d = 0; d < ndim; ++d) {
        if (bucket->num[d] != t.idx[d].num ||
            bucket->den[d] != t.idx[d].den) {
          return std::nullopt;  // mixed sampling on one slot: bail out
        }
      }
    }
    Tap tap;
    for (int d = 0; d < ndim; ++d) tap.off[d] = t.idx[d].off;
    tap.coeff = t.coeff;
    bucket->taps.push_back(tap);
  }
  // Deterministic tap order (row-major by offset) so codegen and numeric
  // summation order are stable run to run.
  for (InputTaps& it : lf.inputs) {
    std::sort(it.taps.begin(), it.taps.end(),
              [](const Tap& a, const Tap& b) { return a.off < b.off; });
  }
  return lf;
}

LoweredFunc lower(const FunctionDecl& f) {
  LoweredFunc out;
  out.defs.reserve(f.defs.size());
  for (const Expr& def : f.defs) {
    LoweredDef ld;
    ld.linear = try_linearize(def, f.ndim);
    ld.bytecode = compile_bytecode(def);
    if (!ld.linear) out.all_linear = false;
    out.defs.push_back(std::move(ld));
  }
  return out;
}

}  // namespace polymg::ir
