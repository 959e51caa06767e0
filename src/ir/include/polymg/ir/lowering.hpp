// Lowering function definitions to executable forms.
//
// Multigrid definitions are linear in their loads (smoothers, residuals,
// restriction, interpolation, correction are all affine combinations), so
// the primary lowering target is the LinearForm: per input, a list of
// (offset, coefficient) taps under one sampling factor, plus an additive
// constant. One generic tap-loop kernel then executes every linear stage.
// Definitions the linearizer cannot prove affine fall back to a stack
// bytecode, evaluated point-wise — slower but fully general, mirroring how
// a DSL's generated code covers arbitrary point-wise expressions.
#pragma once

#include <optional>

#include "polymg/ir/bytecode.hpp"
#include "polymg/ir/function.hpp"
#include "polymg/ir/jit_abi.hpp"

namespace polymg::ir {

/// One read position and its coefficient.
struct Tap {
  std::array<index_t, kMaxDims> off{};
  double coeff = 0.0;
};

/// All taps of one source slot, under a common per-dimension sampling.
struct InputTaps {
  int slot = -1;
  std::array<int, kMaxDims> num{1, 1, 1};
  std::array<int, kMaxDims> den{1, 1, 1};
  std::vector<Tap> taps;
};

/// out(x) = constant + Σ_inputs Σ_taps coeff · in(floor(num·x/den) + off).
struct LinearForm {
  double constant = 0.0;
  std::vector<InputTaps> inputs;

  int total_taps() const {
    int n = 0;
    for (const auto& i : inputs) n += static_cast<int>(i.taps.size());
    return n;
  }
};

/// Attempt to linearize `e`. Returns nullopt when the expression is not
/// affine in its loads (e.g. load·load products) or when one slot is read
/// with mixed sampling factors.
std::optional<LinearForm> try_linearize(const Expr& e, int ndim);

/// One definition lowered to whichever form applies.
struct LoweredDef {
  std::optional<LinearForm> linear;  // fast path when present
  Bytecode bytecode;                 // always valid (reference/fallback)
  /// Natively compiled kernel (codegen::jit_specialize), or null. The
  /// pointer's code is kept alive by CompiledPipeline::jit_module;
  /// reference/oracle plans never bind one (CompileOptions::jit is
  /// forced off by reference_options).
  JitKernelFn jit = nullptr;
};

/// A whole function's lowered definitions (one per parity case).
struct LoweredFunc {
  std::vector<LoweredDef> defs;
  bool all_linear = true;
};

LoweredFunc lower(const FunctionDecl& f);

}  // namespace polymg::ir
