// The C ABI between PolyMG and JIT-compiled stencil kernels.
//
// codegen::jit_specialize emits one C function per (function, parity
// case) with this signature, compiles the translation unit with the
// system compiler and binds the resolved pointers into the plan's
// LoweredDefs. The ABI deliberately carries only what varies at run
// time — pointers, origins, outer strides and the region box. Everything
// the specializer knows at plan time (tap coefficients, sampling
// factors, parity step/phase, the unit innermost stride every PolyMG
// view guarantees) is baked into the generated code as constants.
//
// Bump kJitAbiVersion whenever this header's layout or the generated
// code's calling convention changes: the version is embedded in every
// cached shared object and checked after dlopen, so stale on-disk cache
// entries from an older build are rejected and recompiled instead of
// being called through a mismatched ABI.
#pragma once

#include <cstdint>

namespace polymg::ir {

/// One bound source grid as the generated code sees it. Mirrors
/// grid::View minus ndim (baked) with fixed-width fields so the struct
/// layout is identical in C and C++.
struct JitSrcView {
  const double* ptr = nullptr;
  std::int64_t origin[3] = {0, 0, 0};
  std::int64_t stride[3] = {0, 0, 0};
};

/// A compiled kernel: evaluate one lowered definition over the lattice
/// points of [lo, hi] (inclusive, per live dimension) that match the
/// baked (step, phase). `out_origin`/`out_stride` address the output
/// view; the innermost stride of the output and of every source must be
/// 1 (the caller checks before dispatching).
using JitKernelFn = void (*)(double* out, const std::int64_t* out_origin,
                             const std::int64_t* out_stride,
                             const JitSrcView* srcs, const std::int64_t* lo,
                             const std::int64_t* hi);

/// Checked against the `pmg_abi_version` symbol of a dlopen'd module.
/// v3: typed double pointers (v2 carried untyped pointers plus casts).
inline constexpr int kJitAbiVersion = 3;

/// Most source slots a generated kernel addresses; the dispatch site
/// builds a stack array this size (pipelines stay well under it — NAS
/// resid peaks at 2 slots).
inline constexpr int kJitMaxSrcSlots = 16;

}  // namespace polymg::ir
