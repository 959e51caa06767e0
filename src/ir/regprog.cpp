#include "polymg/ir/regprog.hpp"

#include <cstring>
#include <map>
#include <sstream>
#include <tuple>
#include <utility>

#include "polymg/common/error.hpp"

namespace polymg::ir {

namespace {

std::uint64_t bits_of(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

using LoadKey = std::tuple<int, std::array<LoadIndex, kMaxDims>>;
using OpKey = std::tuple<RegOpKind, int, int>;

struct LoadKeyLess {
  bool operator()(const LoadKey& x, const LoadKey& y) const {
    if (std::get<0>(x) != std::get<0>(y)) return std::get<0>(x) < std::get<0>(y);
    const auto& a = std::get<1>(x);
    const auto& b = std::get<1>(y);
    for (int d = 0; d < kMaxDims; ++d) {
      const auto ta = std::tie(a[d].num, a[d].den, a[d].off);
      const auto tb = std::tie(b[d].num, b[d].den, b[d].off);
      if (ta != tb) return ta < tb;
    }
    return false;
  }
};

/// Builds the program while value-numbering every produced value.
class RegBuilder {
public:
  int intern_const(double v) {
    auto [it, fresh] = consts_.try_emplace(bits_of(v), -1);
    if (!fresh) return it->second;
    RegInstr in{RegOpKind::Const};
    in.c = v;
    it->second = emit(in, /*invariant=*/true);
    return it->second;
  }

  int intern_load(const BcOp& op) {
    LoadKey key{op.slot, op.idx};
    auto [it, fresh] = loads_.try_emplace(key, -1);
    if (!fresh) return it->second;
    RegInstr in{RegOpKind::Load};
    in.slot = op.slot;
    in.idx = op.idx;
    it->second = emit(in, /*invariant=*/false);
    return it->second;
  }

  int intern_op(RegOpKind k, int a, int b) {
    // IEEE-754 + and × are bitwise commutative, so a canonical operand
    // order widens CSE without changing results.
    if ((k == RegOpKind::Add || k == RegOpKind::Mul) && b < a) std::swap(a, b);
    auto [it, fresh] = ops_.try_emplace(OpKey{k, a, b}, -1);
    if (!fresh) return it->second;
    RegInstr in{k};
    in.a = a;
    in.b = b;
    it->second = emit(in, invariant_[a] && (b < 0 || invariant_[b]));
    return it->second;
  }

  RegProgram take(int result) {
    prog_.result = result;
    prog_.num_regs = static_cast<int>(invariant_.size());
    for (const RegInstr& in : prog_.body) {
      prog_.num_loads += in.kind == RegOpKind::Load ? 1 : 0;
    }
    return std::move(prog_);
  }

private:
  int emit(RegInstr in, bool invariant) {
    in.dst = static_cast<int>(invariant_.size());
    invariant_.push_back(invariant);
    (invariant ? prog_.prologue : prog_.body).push_back(in);
    return in.dst;
  }

  RegProgram prog_;
  std::vector<bool> invariant_;
  std::map<std::uint64_t, int> consts_;
  std::map<LoadKey, int, LoadKeyLess> loads_;
  std::map<OpKey, int> ops_;
};

}  // namespace

RegProgram compile_regprog(const Bytecode& bc) {
  stack_depth(bc);  // throws on malformed programs before we simulate
  RegBuilder b;
  std::vector<int> stack;
  for (const BcOp& op : bc) {
    switch (op.kind) {
      case BcKind::PushConst:
        stack.push_back(b.intern_const(op.c));
        break;
      case BcKind::Load:
        stack.push_back(b.intern_load(op));
        break;
      case BcKind::Neg:
        stack.back() = b.intern_op(RegOpKind::Neg, stack.back(), -1);
        break;
      case BcKind::Add:
      case BcKind::Sub:
      case BcKind::Mul:
      case BcKind::Div: {
        const int rhs = stack.back();
        stack.pop_back();
        const RegOpKind k = op.kind == BcKind::Add   ? RegOpKind::Add
                            : op.kind == BcKind::Sub ? RegOpKind::Sub
                            : op.kind == BcKind::Mul ? RegOpKind::Mul
                                                     : RegOpKind::Div;
        stack.back() = b.intern_op(k, stack.back(), rhs);
        break;
      }
    }
  }
  PMG_CHECK(stack.size() == 1, "regprog compile left " << stack.size()
                                                       << " stack values");
  return b.take(stack.back());
}

std::vector<std::string> regprog_issues(const RegProgram& p, int num_slots) {
  std::vector<std::string> issues;
  const auto issue = [&](const auto& describe) {
    std::ostringstream oss;
    describe(oss);
    issues.push_back(oss.str());
  };

  std::vector<int> defined(static_cast<std::size_t>(std::max(p.num_regs, 0)),
                           0);
  int body_loads = 0;
  const auto check_instr = [&](const RegInstr& in, bool in_prologue,
                               std::size_t pos) {
    const char* where = in_prologue ? "prologue" : "body";
    if (in.dst < 0 || in.dst >= p.num_regs) {
      issue([&](auto& o) {
        o << where << "[" << pos << "] writes register " << in.dst
          << " out of range (num_regs " << p.num_regs << ")";
      });
      return;
    }
    if (defined[in.dst]++) {
      issue([&](auto& o) {
        o << where << "[" << pos << "] redefines register " << in.dst;
      });
    }
    const bool unary = in.kind == RegOpKind::Neg;
    const bool binary = in.kind == RegOpKind::Add ||
                        in.kind == RegOpKind::Sub ||
                        in.kind == RegOpKind::Mul || in.kind == RegOpKind::Div;
    if (unary || binary) {
      for (const int r : {in.a, binary ? in.b : -2}) {
        if (r == -2) continue;
        if (r < 0 || r >= p.num_regs || !defined[r]) {
          issue([&](auto& o) {
            o << where << "[" << pos << "] reads register " << r
              << " before definition";
          });
        }
      }
    }
    if (in.kind == RegOpKind::Load) {
      if (in_prologue) {
        issue([&](auto& o) {
          o << "prologue[" << pos << "] is a Load (position-dependent)";
        });
      } else {
        ++body_loads;
      }
      if (num_slots >= 0 && (in.slot < 0 || in.slot >= num_slots)) {
        issue([&](auto& o) {
          o << where << "[" << pos << "] loads slot " << in.slot << " of "
            << num_slots;
        });
      }
      for (int d = 0; d < kMaxDims; ++d) {
        if (in.idx[d].den < 1) {
          issue([&](auto& o) {
            o << where << "[" << pos << "] load has non-positive denominator "
              << in.idx[d].den << " in dim " << d;
          });
        }
      }
    }
    if (in.kind == RegOpKind::Const && !in_prologue) {
      issue([&](auto& o) {
        o << "body[" << pos << "] is a Const (should be hoisted)";
      });
    }
  };

  for (std::size_t i = 0; i < p.prologue.size(); ++i) {
    check_instr(p.prologue[i], true, i);
  }
  for (std::size_t i = 0; i < p.body.size(); ++i) {
    check_instr(p.body[i], false, i);
  }
  if (p.result < 0 || p.result >= p.num_regs ||
      (p.result < static_cast<int>(defined.size()) && !defined[p.result])) {
    issue([&](auto& o) { o << "result register " << p.result << " undefined"; });
  }
  if (body_loads != p.num_loads) {
    issue([&](auto& o) {
      o << "num_loads " << p.num_loads << " != " << body_loads
        << " Load instructions";
    });
  }
  if (p.prologue.size() + p.body.size() !=
      static_cast<std::size_t>(p.num_regs)) {
    issue([&](auto& o) {
      o << "instruction count " << p.prologue.size() + p.body.size()
        << " != num_regs " << p.num_regs;
    });
  }
  return issues;
}

}  // namespace polymg::ir
