// Register-program compilation: value-numbering CSE (shared constants,
// loads and operation trees collapse to one register), loop-invariant
// hoisting (const-only arithmetic moves to the prologue), and the
// structural checker that guards hand-corrupted programs.
#include <gtest/gtest.h>

#include "polymg/ir/regprog.hpp"

namespace polymg::ir {
namespace {

std::array<LoadIndex, kMaxDims> at(index_t i, index_t j) {
  return {LoadIndex{1, 1, i}, LoadIndex{1, 1, j}, LoadIndex{1, 1, 0}};
}

int count_kind(const std::vector<RegInstr>& is, RegOpKind k) {
  int n = 0;
  for (const RegInstr& in : is) n += in.kind == k ? 1 : 0;
  return n;
}

TEST(RegProg, SharedSubtreeCompilesOnce) {
  // (u + v) * (u + v): two loads, ONE add, one mul — the repeated
  // subtree and its leaves are value-numbered into shared registers.
  const Expr u = make_load(0, at(0, 0));
  const Expr v = make_load(1, at(0, 0));
  const Expr e = (u + v) * (u + v);
  const RegProgram p = compile_regprog(compile_bytecode(e));
  EXPECT_TRUE(p.prologue.empty());
  EXPECT_EQ(p.body.size(), 4u);
  EXPECT_EQ(count_kind(p.body, RegOpKind::Load), 2);
  EXPECT_EQ(count_kind(p.body, RegOpKind::Add), 1);
  EXPECT_EQ(count_kind(p.body, RegOpKind::Mul), 1);
  EXPECT_EQ(p.num_loads, 2);
  EXPECT_TRUE(regprog_issues(p, 2).empty());
}

TEST(RegProg, CommutativeOperandsShareOneRegister) {
  // u*c and c*u are the same value under IEEE-754, so canonical operand
  // ordering must fold them into a single Mul.
  const Expr u = make_load(0, at(0, 0));
  const Expr c = make_const(0.5);
  const Expr e = (u * c) + (c * u);
  const RegProgram p = compile_regprog(compile_bytecode(e));
  EXPECT_EQ(count_kind(p.body, RegOpKind::Mul), 1);
}

TEST(RegProg, DuplicateConstantsIntern) {
  const Expr u = make_load(0, at(0, 0));
  const Expr v = make_load(0, at(0, 1));
  const Expr e = make_const(0.25) * u + make_const(0.25) * v;
  const RegProgram p = compile_regprog(compile_bytecode(e));
  EXPECT_EQ(count_kind(p.prologue, RegOpKind::Const), 1);
}

TEST(RegProg, ConstArithmeticHoistsToPrologue) {
  // 2·3·u: the const product is position-independent, so it executes
  // once in the prologue; the body is just load + one mul.
  const Expr u = make_load(0, at(0, 0));
  const Expr e = make_const(2.0) * make_const(3.0) * u;
  const RegProgram p = compile_regprog(compile_bytecode(e));
  EXPECT_EQ(p.prologue.size(), 3u);  // two consts + their product
  EXPECT_EQ(count_kind(p.prologue, RegOpKind::Mul), 1);
  EXPECT_EQ(p.body.size(), 2u);
  EXPECT_TRUE(regprog_issues(p, 1).empty());
}

TEST(RegProg, DistinctLoadsStayDistinct) {
  // Same slot, different offsets: no bogus sharing.
  const Expr e = make_load(0, at(0, -1)) + make_load(0, at(0, 1));
  const RegProgram p = compile_regprog(compile_bytecode(e));
  EXPECT_EQ(p.num_loads, 2);
}

TEST(RegProg, IssuesCatchCorruption) {
  const Expr u = make_load(0, at(0, 0));
  const Expr e = make_const(2.0) * u;
  const RegProgram good = compile_regprog(compile_bytecode(e));
  ASSERT_TRUE(regprog_issues(good, 1).empty());

  {  // operand reads a register that is never defined
    RegProgram p = good;
    p.body.back().a = p.num_regs + 3;
    EXPECT_FALSE(regprog_issues(p, 1).empty());
  }
  {  // two instructions write the same register
    RegProgram p = good;
    p.body.back().dst = p.body.front().dst;
    EXPECT_FALSE(regprog_issues(p, 1).empty());
  }
  {  // a Load smuggled into the prologue is position-dependent
    RegProgram p = good;
    RegInstr ld = p.body.front();
    p.prologue.push_back(ld);
    p.body.erase(p.body.begin());
    EXPECT_FALSE(regprog_issues(p, 1).empty());
  }
  {  // load slot out of range for the binding
    RegProgram p = good;
    EXPECT_FALSE(regprog_issues(p, 0).empty());
    EXPECT_TRUE(regprog_issues(p, -1).empty());  // slot check skipped
  }
  {  // num_loads bookkeeping mismatch
    RegProgram p = good;
    p.num_loads = 7;
    EXPECT_FALSE(regprog_issues(p, 1).empty());
  }
  {  // result register never written
    RegProgram p = good;
    p.result = -1;
    EXPECT_FALSE(regprog_issues(p, 1).empty());
  }
}

}  // namespace
}  // namespace polymg::ir
