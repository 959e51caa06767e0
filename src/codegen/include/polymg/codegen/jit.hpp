// JIT kernel specialization: compile plans to native stencil kernels.
//
// The inspection emitter (emit_c) prints what PolyMG's backend would
// generate; this module closes the loop and actually runs generated
// code. For each (function, parity case) of a compiled plan it emits a
// specialized C kernel from the definition's register program, compiled
// from its bytecode at emission time — constants folded (printed as hexfloats), parity step/phase and the
// unit innermost stride baked, per-load row pointers strength-reduced,
// `restrict`-qualified pointers and an OpenMP-SIMD inner loop — then
// invokes the system compiler (`cc -O3 -march=native -fopenmp-simd
// -ffp-contract=off -fPIC -shared`), dlopen()s the shared object and
// binds the resolved pointers into the plan's LoweredDefs, where
// runtime::Executor's per-stage dispatch picks them up. Linearizable
// definitions are left alone: they already run the specialized tap-loop,
// and swapping in a register-program-order kernel would change their
// summation order. The JIT targets exactly the definitions the linearizer
// rejects — the stages that otherwise run on the stack interpreter, two
// orders of magnitude slower. (Per-def headroom on linear stencils is
// still measurable through jit_kernel_for_def, which has no such
// restriction; bench_kernels reports it.)
//
// Bit-exactness: every emitted kernel evaluates the definition's
// register program one instruction per statement with contraction
// disabled, which reproduces the point-wise stack interpreter bit for
// bit. Since linear defs keep their tap-loop either way, a specialized
// plan produces byte-identical outputs to the same plan with the JIT off
// — and to the reference plan the guarded oracle holds optimized plans
// to, which interprets every non-linear definition.
//
// Caching is two-level and keyed by content: an in-process table plus
// an on-disk directory (POLYMG_JIT_CACHE_DIR, default under $TMPDIR)
// holding <key>.c/<key>.so, where the key hashes the plan's kernel
// fingerprint (opt::kernel_fingerprint), the JIT ABI version and the
// compiler command line. Warm service::PlanCache hits across processes
// reload the .so without recompiling; a stale or corrupted entry (bad
// dlopen, ABI or key mismatch) is unlinked and rebuilt once.
//
// Fallback ladder: process mode off -> plan mode off -> injected
// jit.compile fault -> compiler failure -> dlopen / validation failure.
// Every rung lands back on the interpreter for non-linear definitions
// with a JitFallback trace event and the jit.fallbacks counter bumped;
// results stay correct, only slower. A plan with nothing to specialize
// (every def linear, or none emittable) is a quiet structural skip, not
// a counted fallback.
#pragma once

#include <memory>
#include <string>

#include "polymg/ir/bytecode.hpp"
#include "polymg/ir/jit_abi.hpp"
#include "polymg/opt/plan.hpp"

namespace polymg::codegen {

/// Process-wide JIT mode gate (default Auto). Off wins over any
/// per-plan CompileOptions::jit setting — this is what --jit=off sets.
opt::JitMode jit_mode();
void set_jit_mode(opt::JitMode m);

/// Parse "on"/"off"/"auto". Sets *ok; returns Auto on failure.
opt::JitMode parse_jit_mode(const std::string& s, bool* ok);

/// Emit the full specialized-kernel translation unit for a plan: the C
/// source jit_specialize would compile (ABI preamble + one kernel per
/// emittable non-linear (function, parity case)). Pure emission — no
/// compiler involved; generated_loc uses this for Table 3 accounting.
std::string emit_jit_c(const opt::CompiledPipeline& plan);

/// Specialize a plan in place: emit, compile (or hit the cache), dlopen
/// and bind native kernels into plan.lowered[..].defs[..].jit, with the
/// module kept alive by plan.jit_module. Returns true when at least one
/// kernel was bound; false on any fallback rung (the plan stays fully
/// runnable on the tap-loop and the interpreter). A plan whose defs are
/// all linear has nothing to specialize and returns false without
/// touching the fallback counters. Idempotent: a plan that already
/// carries a module is left untouched.
bool jit_specialize(opt::CompiledPipeline& plan);

/// Count of defs carrying a bound native kernel.
int jit_bound_kernels(const opt::CompiledPipeline& plan);

/// A standalone compiled kernel for one definition (unit step, zero
/// phase), for benchmarks and tests that drive kernels directly the way
/// they drive apply_bytecode. `module` keeps the dlopen'd code alive.
struct JitKernel {
  ir::JitKernelFn fn = nullptr;
  std::shared_ptr<const void> module;
  explicit operator bool() const { return fn != nullptr; }
};

/// Compile (or fetch from cache) a native kernel for one definition
/// expressed as stack bytecode. Returns a null kernel on any fallback
/// rung — callers keep their interpreted path.
JitKernel jit_kernel_for_def(int ndim, const ir::Bytecode& bc);

/// Probe the system compiler (one tiny compile into the cache dir).
/// Not memoized: honours POLYMG_JIT_CC changing under a running test.
bool jit_toolchain_available();

/// On-disk cache directory override (tests point this at a fresh temp
/// dir). The default honours POLYMG_JIT_CACHE_DIR, else lands under
/// $TMPDIR (or /tmp), namespaced by uid and ABI version.
void set_jit_cache_dir(const std::string& dir);
std::string jit_cache_dir();

/// Drop the in-process module table (tests use this to force the
/// disk-cache path; live plans keep their modules via shared_ptr).
void jit_clear_memory_cache();

}  // namespace polymg::codegen
