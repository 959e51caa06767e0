// Register-bytecode programs: the JIT emitter's input form.
//
// The stack Bytecode is a faithful postfix rendering of the definition
// expression, evaluated one point at a time — correct but interpretive.
// A RegProgram is the same expression compiled into a linear
// three-address form over virtual registers, with
//   (a) common-subexpression elimination by value numbering (identical
//       constants, loads and operation trees share one register), and
//   (b) loop-invariant hoisting: instructions whose operands are all
//       position-independent (constants and arithmetic over constants)
//       move to a prologue executed once per kernel invocation.
// codegen's JIT compiles each definition's bytecode into one when it
// emits the kernel, and prints one C statement per instruction.
#pragma once

#include <vector>

#include "polymg/ir/bytecode.hpp"

namespace polymg::ir {

enum class RegOpKind : std::uint8_t { Const, Load, Neg, Add, Sub, Mul, Div };

struct RegInstr {
  RegOpKind kind;
  int dst = -1;
  int a = -1;  // operand register (Neg and binary ops)
  int b = -1;  // second operand register (binary ops)

  double c = 0.0;                         // Const
  int slot = -1;                          // Load: source slot
  std::array<LoadIndex, kMaxDims> idx{};  // Load: sampled index per dim
};

/// Linearized register program. `prologue` holds the hoisted
/// loop-invariant instructions (all Const and const-only arithmetic);
/// `body` holds the per-point instructions in dependence order. Register
/// numbering is shared: body instructions may read prologue registers.
struct RegProgram {
  std::vector<RegInstr> prologue;
  std::vector<RegInstr> body;
  int num_regs = 0;
  int result = -1;  ///< register holding the definition's value
  int num_loads = 0;  ///< Load instructions in the body

  bool empty() const { return num_regs == 0; }
};

/// Compile stack bytecode into a register program (CSE + hoisting).
RegProgram compile_regprog(const Bytecode& bc);

/// Structural validation: SSA-style single assignment per register,
/// operands defined before use, register/slot indices in range, exactly
/// loop-invariant instructions in the prologue, and a defined result.
/// `num_slots` bounds Load slots (< 0 skips the slot check). Returns a
/// human-readable issue list, empty when well-formed.
std::vector<std::string> regprog_issues(const RegProgram& p, int num_slots);

}  // namespace polymg::ir
