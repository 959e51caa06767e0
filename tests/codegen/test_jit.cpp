// JIT kernel specialization: bit-exactness against the stack
// interpreter (on the bench stencils, on random expression trees and
// offset-origin views, and on parity-piecewise stages against the
// reference plan), schedule/thread independence of specialized plans,
// the two-level kernel cache (memory -> disk -> compile, stale
// rejection), and every rung of the fallback ladder (injected compile
// fault, missing toolchain).
//
// Executor-level coverage uses the variable-coefficient pipeline: its
// β-weighted Jacobi stages divide by a coefficient sum, so the
// linearizer rejects them and they are exactly the definitions the JIT
// specializes. Constant-coefficient Poisson plans are all-linear — they
// keep the tap-loop and bind nothing, which is itself asserted below.
//
// Tests that need a working host compiler GTEST_SKIP when none is
// available — the suite as a whole must pass on a toolchain-less host
// (that is the fallback guarantee, and CI runs exactly that).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "polymg/codegen/emit_c.hpp"
#include "polymg/codegen/jit.hpp"
#include "polymg/common/fault.hpp"
#include "polymg/common/parallel.hpp"
#include "polymg/common/rng.hpp"
#include "polymg/grid/ops.hpp"
#include "polymg/ir/builder.hpp"
#include "polymg/ir/jit_abi.hpp"
#include "polymg/ir/stencil.hpp"
#include "polymg/obs/metrics.hpp"
#include "polymg/obs/trace.hpp"
#include "polymg/opt/compile.hpp"
#include "polymg/opt/validate.hpp"
#include "polymg/runtime/executor.hpp"
#include "polymg/runtime/kernels.hpp"
#include "polymg/solvers/cycles.hpp"
#include "polymg/solvers/poisson.hpp"
#include "polymg/solvers/varcoef.hpp"

namespace polymg::codegen {
namespace {

using grid::Box;
using grid::Buffer;
using grid::View;
using opt::CompileOptions;
using opt::JitMode;
using opt::Variant;
using poly::index_t;
using solvers::CycleConfig;
using solvers::CycleKind;
using solvers::VarCoefLevels;
using solvers::VarCoefProblem;

std::uint64_t ctr(const char* name) {
  return obs::Metrics::instance().counter(name).value();
}

/// Point every test at its own empty cache directory (and drop loaded
/// modules) so counter deltas and on-disk artifacts are deterministic.
std::string fresh_cache_dir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "polymg-jit-" + tag + "-" +
                          std::to_string(getpid());
  std::filesystem::remove_all(dir);
  set_jit_cache_dir(dir);
  jit_clear_memory_cache();
  return dir;
}

bool toolchain() { return jit_toolchain_available(); }

/// 3×3×3 Gaussian-style weights (every tap nonzero → 27 loads).
ir::Weights3 dense_27pt() {
  ir::Weights3 w(3, ir::Weights2(3, std::vector<double>(3, 0.0)));
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      for (int k = 0; k < 3; ++k) {
        const int taps = (i == 1) + (j == 1) + (k == 1);
        w[i][j][k] = 1.0 / (1 << (3 - taps));
      }
    }
  }
  return w;
}

struct Stencil {
  std::string name;
  int ndim;
  ir::Expr expr;
  int nsrcs;
};

/// The four bench_kernels stencils (5-pt/9-pt 2-d, 27-pt 3-d, varcoef).
std::vector<Stencil> bench_stencils() {
  std::vector<Stencil> cases;
  {
    ir::SourceRef u;
    u.slot = 0;
    u.ndim = 2;
    cases.push_back(
        {"5pt-2d", 2, ir::stencil2(u, ir::five_point_laplacian_2d(), 0.25),
         1});
    cases.push_back(
        {"9pt-2d", 2, ir::stencil2(u, ir::full_weighting_2d(), 1.0 / 16),
         1});
  }
  {
    ir::SourceRef u;
    u.slot = 0;
    u.ndim = 3;
    cases.push_back(
        {"27pt-3d", 3, ir::stencil3(u, dense_27pt(), 1.0 / 27), 1});
  }
  {
    ir::SourceRef u, cf;
    u.slot = 0;
    u.ndim = 2;
    cf.slot = 1;
    cf.ndim = 2;
    cases.push_back(
        {"varcoef-2d", 2,
         cf() * ir::stencil2(u, ir::five_point_laplacian_2d(), 0.25) +
             0.5 * u.at(0, 0),
         2});
  }
  return cases;
}

Buffer random_grid(const Box& dom, std::uint64_t seed) {
  Buffer b = grid::make_grid(dom);
  Rng rng(seed);
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = rng.uniform(-1, 1);
  return b;
}

/// Run a def-level JIT kernel through the raw ABI.
void run_jit_kernel(const JitKernel& k, View out,
                    const std::vector<View>& srcs, const Box& region) {
  ir::JitSrcView js[ir::kJitMaxSrcSlots] = {};
  for (std::size_t s = 0; s < srcs.size(); ++s) {
    js[s].ptr = srcs[s].ptr;
    for (int d = 0; d < 3; ++d) {
      js[s].origin[d] = srcs[s].origin[d];
      js[s].stride[d] = srcs[s].stride[d];
    }
  }
  std::int64_t lo[3] = {0, 0, 0};
  std::int64_t hi[3] = {-1, -1, -1};
  for (int d = 0; d < out.ndim; ++d) {
    lo[d] = region.dim(d).lo;
    hi[d] = region.dim(d).hi;
  }
  k.fn(out.ptr, out.origin.data(), out.stride.data(), js, lo, hi);
}

/// All-linear constant-coefficient W-cycle: binds no executor kernels.
CycleConfig w2d() {
  CycleConfig cfg;
  cfg.ndim = 2;
  cfg.n = 63;
  cfg.levels = 3;
  cfg.kind = CycleKind::W;
  return cfg;
}

/// Variable-coefficient W-cycle: the β-weighted Jacobi defs are
/// non-linear, so this is the plan the executor-level JIT specializes.
CycleConfig vc2d() {
  CycleConfig cfg;
  cfg.ndim = 2;
  cfg.n = 63;
  cfg.levels = 3;
  cfg.kind = CycleKind::W;
  return cfg;
}

/// Compile + run one Poisson cycle at `nthreads`; return the raw output
/// bits (and optionally how many defs got native kernels).
std::vector<double> run_bits(const CycleConfig& cfg, CompileOptions o,
                             int nthreads, int* bound = nullptr) {
  const int prev = max_threads();
  set_num_threads(nthreads);
  auto p = solvers::PoissonProblem::random_rhs(cfg.ndim, cfg.n, 21);
  runtime::Executor ex(opt::compile(solvers::build_cycle(cfg), o));
  if (bound != nullptr) *bound = jit_bound_kernels(ex.plan());
  const std::vector<View> ext = {p.v_view(), p.f_view()};
  ex.run(ext);
  const View out = ex.output_view(0);
  const int func = ex.plan().pipe.outputs[0];
  const index_t count = ex.plan().pipe.funcs[func].domain.count();
  std::vector<double> bits(static_cast<std::size_t>(count));
  std::memcpy(bits.data(), out.ptr, sizeof(double) * bits.size());
  set_num_threads(prev);
  return bits;
}

/// Same, for one variable-coefficient cycle (the specializable plan).
std::vector<double> run_bits_vc(const CycleConfig& cfg, CompileOptions o,
                                int nthreads, int* bound = nullptr) {
  const int prev = max_threads();
  set_num_threads(nthreads);
  VarCoefProblem p =
      VarCoefProblem::smooth_coefficients(cfg.ndim, cfg.n, 21);
  VarCoefLevels levels(cfg, p);
  runtime::Executor ex(
      opt::compile(solvers::build_varcoef_cycle(cfg), o));
  if (bound != nullptr) *bound = jit_bound_kernels(ex.plan());
  const std::vector<View> ext = levels.externals(p);
  ex.run(ext);
  const View out = ex.output_view(0);
  const int func = ex.plan().pipe.outputs[0];
  const index_t count = ex.plan().pipe.funcs[func].domain.count();
  std::vector<double> bits(static_cast<std::size_t>(count));
  std::memcpy(bits.data(), out.ptr, sizeof(double) * bits.size());
  set_num_threads(prev);
  return bits;
}

/// Random load with per-dimension sampling drawn from the shapes
/// multigrid produces: identity, ×2 restriction, ÷2 interpolation, each
/// with a small offset.
ir::Expr random_load(Rng& rng, int ndim, int nslots) {
  std::array<ir::LoadIndex, ir::kMaxDims> idx{};
  for (int d = 0; d < ndim; ++d) {
    switch (rng.below(3)) {
      case 0:
        idx[d] = ir::LoadIndex{1, 1, 0};
        break;
      case 1:
        idx[d] = ir::LoadIndex{2, 1, 0};
        break;
      default:
        idx[d] = ir::LoadIndex{1, 2, 0};
        break;
    }
    idx[d].off = static_cast<index_t>(rng.below(3)) - 1;
  }
  return ir::make_load(static_cast<int>(rng.below(nslots)), idx);
}

/// Random expression tree. Divisions keep a const-offset denominator so
/// values stay finite on random data; everything else is unconstrained.
ir::Expr random_expr(Rng& rng, int ndim, int nslots, int depth) {
  if (depth == 0 || rng.below(4) == 0) {
    return rng.below(3) == 0 ? ir::make_const(rng.uniform(-2, 2))
                             : random_load(rng, ndim, nslots);
  }
  switch (rng.below(5)) {
    case 0:
      return random_expr(rng, ndim, nslots, depth - 1) +
             random_expr(rng, ndim, nslots, depth - 1);
    case 1:
      return random_expr(rng, ndim, nslots, depth - 1) -
             random_expr(rng, ndim, nslots, depth - 1);
    case 2:
      return random_expr(rng, ndim, nslots, depth - 1) *
             random_expr(rng, ndim, nslots, depth - 1);
    case 3:
      return -random_expr(rng, ndim, nslots, depth - 1);
    default:
      return random_expr(rng, ndim, nslots, depth - 1) /
             (random_load(rng, ndim, nslots) + 3.0);
  }
}

/// Evaluate `e` through a def-level JIT kernel and the stack interpreter
/// over `region` and demand identical bits.
void check_jit_vs_interpreter(const ir::Expr& e, int ndim, int nslots,
                              const Box& src_dom, const Box& region,
                              std::uint64_t seed) {
  const ir::Bytecode bc = ir::compile_bytecode(e);
  const JitKernel k = jit_kernel_for_def(ndim, bc);
  ASSERT_TRUE(static_cast<bool>(k));
  std::vector<Buffer> bufs;
  std::vector<View> srcs;
  for (int s = 0; s < nslots; ++s) {
    bufs.push_back(random_grid(src_dom, seed + static_cast<std::uint64_t>(s)));
    srcs.push_back(View::over(bufs.back().data(), src_dom));
  }
  Buffer got = grid::make_grid(region);
  Buffer ref = grid::make_grid(region);
  run_jit_kernel(k, View::over(got.data(), region), srcs, region);
  runtime::apply_bytecode(bc, View::over(ref.data(), region), srcs, region);
  EXPECT_EQ(0, std::memcmp(got.data(), ref.data(),
                           sizeof(double) * got.size()));
}

/// Fine-grid interpolation pipeline with parity-piecewise non-linear
/// stages. `up`'s four cases each multiply and divide loads; `mix` keeps
/// its even-even case linear, so it runs the tap-loop there and the JIT
/// (or interpreter) on the other three.
ir::Pipeline parity_pipeline(index_t nc) {
  const index_t n = 2 * nc + 1;
  ir::PipelineBuilder b(2);
  const Box fdom = Box::cube(2, 0, n + 1);
  const ir::Handle c = b.input("c", Box::cube(2, 0, nc + 1));
  const ir::Handle f = b.input("f", fdom);
  const auto spec = [&](const std::string& name) {
    ir::FuncSpec sp;
    sp.name = name;
    sp.domain = fdom;
    sp.interior = Box::cube(2, 1, n);
    return sp;
  };
  using Refs = std::span<const ir::SourceRef>;
  const ir::Handle up = b.define_interp(spec("up"), {c, f}, [](Refs s) {
    std::vector<ir::Expr> cases;
    for (int k = 0; k < 4; ++k) {
      const ir::Expr far = s[0].at(k >> 1, k & 1);
      cases.push_back(s[0].at(0, 0) * s[1]() / (far * far + 2.0) -
                      0.5 * far);
    }
    return cases;
  });
  const ir::Handle mix = b.define_interp(spec("mix"), {c, f}, [](Refs s) {
    std::vector<ir::Expr> cases{0.5 * s[0].at(0, 0) + s[1]()};
    for (int k = 1; k < 4; ++k) {
      cases.push_back(s[0].at(0, 0) * s[0].at(k >> 1, k & 1) /
                      (s[1]() * s[1]() + 1.0));
    }
    return cases;
  });
  b.mark_output(b.define(spec("out"), {up, mix},
                         [](Refs s) { return s[0]() - s[1](); }));
  return b.build();
}

/// Run the parity pipeline once; return its output bits, and optionally
/// the bound kernel count and the executor's RunReport.
std::vector<double> run_bits_parity(const CompileOptions& o,
                                    int* bound = nullptr,
                                    obs::RunReport* report = nullptr) {
  constexpr index_t nc = 31;
  const Box cdom = Box::cube(2, 0, nc + 1);
  const Box fdom = Box::cube(2, 0, 2 * nc + 2);
  Buffer c = random_grid(cdom, 5);
  Buffer f = random_grid(fdom, 6);
  runtime::Executor ex(opt::compile(parity_pipeline(nc), o));
  if (bound != nullptr) *bound = jit_bound_kernels(ex.plan());
  const std::vector<View> ext = {View::over(c.data(), cdom),
                                 View::over(f.data(), fdom)};
  ex.run(ext);
  if (report != nullptr) *report = ex.run_report();
  std::vector<double> bits(static_cast<std::size_t>(fdom.count()));
  std::memcpy(bits.data(), ex.output_view(0).ptr,
              sizeof(double) * bits.size());
  return bits;
}

/// A RunReport stage row's kernel path, by stage name.
std::string path_of(const obs::RunReport& r, const std::string& stage) {
  for (const auto& row : r.stages) {
    if (row.label == stage) return row.path;
  }
  return "<no row " + stage + ">";
}

// -- emission-only checks (no toolchain required) ---------------------

TEST(Jit, EmitContainsSimdKernelsAndStaleGuards) {
  auto plan = opt::compile(solvers::build_varcoef_cycle(vc2d()),
                           CompileOptions::for_variant(Variant::OptPlus, 2));
  const std::string c = emit_jit_c(plan);
  EXPECT_NE(c.find("#pragma omp simd"), std::string::npos);
  EXPECT_NE(c.find("pmg_k"), std::string::npos);
  // The stale-detection symbols every module must export.
  EXPECT_NE(c.find("pmg_abi_version"), std::string::npos);
  EXPECT_NE(c.find("pmg_key"), std::string::npos);
  // restrict row pointers are the point of specializing.
  EXPECT_NE(c.find("restrict"), std::string::npos);
}

TEST(Jit, GeneratedLocCountsSpecializedKernels) {
  CompileOptions on = CompileOptions::for_variant(Variant::OptPlus, 2);
  CompileOptions off = on;
  off.jit = JitMode::Off;
  const auto pipe = solvers::build_varcoef_cycle(vc2d());
  const int with_jit = generated_loc(opt::compile(pipe, on));
  const int without = generated_loc(opt::compile(pipe, off));
  EXPECT_GT(with_jit, without);
}

TEST(Jit, ParseModeRejectsUnknown) {
  bool ok = false;
  EXPECT_EQ(parse_jit_mode("off", &ok), JitMode::Off);
  EXPECT_TRUE(ok);
  EXPECT_EQ(parse_jit_mode("auto", &ok), JitMode::Auto);
  EXPECT_TRUE(ok);
  EXPECT_EQ(parse_jit_mode("on", &ok), JitMode::On);
  EXPECT_TRUE(ok);
  parse_jit_mode("bogus", &ok);
  EXPECT_FALSE(ok);
}

TEST(Jit, LinearPlanKeepsTapLoopQuietly) {
  // Constant-coefficient Poisson lowers to all-linear defs; the JIT must
  // leave the tap-loop alone (the guarded oracle's reference fallback is
  // bit-compared against it) and must not count the skip as a fallback.
  // No compile is ever attempted, so this holds without a toolchain.
  fresh_cache_dir("linear");
  const std::uint64_t f0 = ctr("jit.fallbacks");
  const std::uint64_t c0 = ctr("jit.compiles");
  CompileOptions o = CompileOptions::for_variant(Variant::OptPlus, 2);
  o.jit = JitMode::On;
  int bound = -1;
  const std::vector<double> on = run_bits(w2d(), o, 2, &bound);
  EXPECT_EQ(bound, 0);
  EXPECT_EQ(ctr("jit.fallbacks"), f0);
  EXPECT_EQ(ctr("jit.compiles"), c0);

  CompileOptions off = o;
  off.jit = JitMode::Off;
  const std::vector<double> ref = run_bits(w2d(), off, 2);
  ASSERT_EQ(ref.size(), on.size());
  EXPECT_EQ(0, std::memcmp(ref.data(), on.data(),
                           sizeof(double) * ref.size()));
}

// -- def-level bit-exactness ------------------------------------------

TEST(Jit, DefKernelsBitExactVsBothEngines) {
  if (!toolchain()) GTEST_SKIP() << "no host compiler";
  fresh_cache_dir("defexact");
  for (const Stencil& c : bench_stencils()) {
    SCOPED_TRACE(c.name);
    const index_t edge = c.ndim == 2 ? 65 : 21;
    check_jit_vs_interpreter(c.expr, c.ndim, c.nsrcs,
                             Box::cube(c.ndim, 0, edge + 1),
                             Box::cube(c.ndim, 1, edge), 7);
  }
}

TEST(Jit, RandomExpressionsBitExact2d) {
  if (!toolchain()) GTEST_SKIP() << "no host compiler";
  fresh_cache_dir("rand2d");
  Rng rng(2024);
  for (int trial = 0; trial < 40; ++trial) {
    const ir::Expr e = random_expr(rng, 2, 2, 4);
    // Random region alignment, including rows far shorter than a SIMD
    // vector.
    const index_t lo = static_cast<index_t>(rng.below(5));
    const index_t hi = lo + 1 + static_cast<index_t>(rng.below(29));
    check_jit_vs_interpreter(e, 2, 2, Box::cube(2, -3, 2 * hi + 3),
                             Box::cube(2, lo, hi), 1000 + trial);
  }
}

TEST(Jit, RandomExpressionsBitExact3d) {
  if (!toolchain()) GTEST_SKIP() << "no host compiler";
  fresh_cache_dir("rand3d");
  Rng rng(777);
  for (int trial = 0; trial < 15; ++trial) {
    const ir::Expr e = random_expr(rng, 3, 2, 3);
    check_jit_vs_interpreter(e, 3, 2, Box::cube(3, -3, 27),
                             Box::cube(3, 1, 12), 2000 + trial);
  }
}

TEST(Jit, OffsetOriginViewsBitExact) {
  if (!toolchain()) GTEST_SKIP() << "no host compiler";
  fresh_cache_dir("offset");
  // Scratchpad-style views with origins away from zero.
  const Stencil vc = bench_stencils()[3];
  const Box src_dom{{37, 80}, {91, 140}};
  const Box region{{40, 70}, {95, 130}};
  check_jit_vs_interpreter(vc.expr, 2, vc.nsrcs, src_dom, region, 42);
}

// -- executor-level: specialization, schedules, threads ---------------

TEST(Jit, ExecutorSpecializesNonLinearDefs) {
  if (!toolchain()) GTEST_SKIP() << "no host compiler";
  fresh_cache_dir("execbind");
  CompileOptions o = CompileOptions::for_variant(Variant::OptPlus, 2);
  o.jit = JitMode::On;
  runtime::Executor ex(
      opt::compile(solvers::build_varcoef_cycle(vc2d()), o));
  int nonlinear = 0;
  for (const auto& lf : ex.plan().lowered) {
    for (const auto& d : lf.defs) {
      if (d.linear.has_value()) {
        // Linear defs keep the tap-loop — never a native kernel.
        EXPECT_EQ(d.jit, nullptr);
      } else {
        EXPECT_NE(d.jit, nullptr);
        ++nonlinear;
      }
    }
  }
  EXPECT_GT(nonlinear, 0);
  EXPECT_EQ(jit_bound_kernels(ex.plan()), nonlinear);
  EXPECT_NE(ex.plan().jit_module, nullptr);
}

TEST(Jit, BitExactAcrossSchedulesAndThreads) {
  if (!toolchain()) GTEST_SKIP() << "no host compiler";
  fresh_cache_dir("execsched");
  // The varcoef family requires the Jacobi smoother; its β-weighted
  // stages are the non-linear (and therefore jitted) kernels.
  CycleConfig cfg = vc2d();
  CompileOptions o = CompileOptions::for_variant(Variant::OptPlus, 2);
  o.jit = JitMode::On;
  // The schedule axis: serial grain 0 forks a team for every Loops stage
  // instead of running the coarse ones on the calling thread.
  CompileOptions forked = o;
  forked.serial_grain = 0;

  int bound = 0;
  const std::vector<double> ref = run_bits_vc(cfg, o, 1, &bound);
  ASSERT_GT(bound, 0);
  for (int threads : {2, 4}) {
    for (const CompileOptions& c : {o, forked}) {
      const std::vector<double> got = run_bits_vc(cfg, c, threads);
      ASSERT_EQ(ref.size(), got.size());
      EXPECT_EQ(0, std::memcmp(ref.data(), got.data(),
                               sizeof(double) * ref.size()))
          << "threads " << threads << " serial_grain " << c.serial_grain;
    }
  }
}

TEST(Jit, SpecializedPlanMatchesInterpretedBitExact) {
  if (!toolchain()) GTEST_SKIP() << "no host compiler";
  fresh_cache_dir("execexact");
  // Linear defs run the tap-loop under both modes and jit kernels are
  // bit-exact vs the interpreted engines, so jit-on and jit-off plans
  // must agree byte for byte — the same guarantee the guarded oracle's
  // reference-plan comparison relies on.
  CompileOptions on = CompileOptions::for_variant(Variant::OptPlus, 2);
  on.jit = JitMode::On;
  CompileOptions off = on;
  off.jit = JitMode::Off;
  int bound = 0;
  const std::vector<double> a = run_bits_vc(vc2d(), on, 2, &bound);
  ASSERT_GT(bound, 0);
  const std::vector<double> b = run_bits_vc(vc2d(), off, 2);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(), sizeof(double) * a.size()));
}

TEST(Jit, ParityKernelsBitExactVsReferencePlan) {
  if (!toolchain()) GTEST_SKIP() << "no host compiler";
  fresh_cache_dir("parity");
  // Every parity case of `up` and three of `mix` bind a kernel with its
  // (step, phase) baked; the plan must match the reference plan, which
  // interprets them, bit for bit.
  CompileOptions on = CompileOptions::for_variant(Variant::OptPlus, 2);
  on.jit = JitMode::On;
  int bound = 0;
  obs::RunReport rep;
  const std::vector<double> got = run_bits_parity(on, &bound, &rep);
  EXPECT_EQ(bound, 7);
  EXPECT_EQ(path_of(rep, "up"), "jit");
  EXPECT_EQ(path_of(rep, "mix"), "tap/jit/jit/jit");
  EXPECT_EQ(path_of(rep, "out"), "tap");

  const std::vector<double> ref =
      run_bits_parity(opt::reference_options(on));
  ASSERT_EQ(ref.size(), got.size());
  EXPECT_EQ(0, std::memcmp(ref.data(), got.data(),
                           sizeof(double) * ref.size()));
}

TEST(Jit, RunReportNamesEachParityCasePath) {
  // No compiler needed: with the JIT off the non-linear cases interpret,
  // and a stage whose cases take different paths lists each one.
  CompileOptions off = CompileOptions::for_variant(Variant::OptPlus, 2);
  off.jit = JitMode::Off;
  obs::RunReport rep;
  (void)run_bits_parity(off, nullptr, &rep);
  EXPECT_EQ(path_of(rep, "up"), "interp");
  EXPECT_EQ(path_of(rep, "mix"), "tap/interp/interp/interp");
  EXPECT_EQ(path_of(rep, "out"), "tap");
  EXPECT_NE(rep.render().find("tap/interp/interp/interp"), std::string::npos);
}

TEST(Jit, RunReportNamesJitStages) {
  if (!toolchain()) GTEST_SKIP() << "no host compiler";
  fresh_cache_dir("report");
  CompileOptions o = CompileOptions::for_variant(Variant::OptPlus, 2);
  o.jit = JitMode::On;
  runtime::Executor ex(
      opt::compile(solvers::build_varcoef_cycle(vc2d()), o));
  const obs::RunReport rep = ex.run_report();
  int smoothers = 0;
  for (const auto& row : rep.stages) {
    if (row.label.rfind("smooth", 0) != 0) continue;
    EXPECT_EQ(row.path, "jit") << row.label;
    ++smoothers;
  }
  EXPECT_GT(smoothers, 0);
}

// -- cache behaviour --------------------------------------------------

TEST(Jit, CacheHitsSkipRecompilation) {
  if (!toolchain()) GTEST_SKIP() << "no host compiler";
  fresh_cache_dir("cache");
  const Stencil c = bench_stencils()[0];
  const ir::Bytecode bc = ir::compile_bytecode(c.expr);

  const std::uint64_t c0 = ctr("jit.compiles");
  ASSERT_TRUE(static_cast<bool>(jit_kernel_for_def(c.ndim, bc)));
  EXPECT_EQ(ctr("jit.compiles"), c0 + 1);

  // Second request: in-memory hit, zero recompiles.
  const std::uint64_t m0 = ctr("jit.mem_hits");
  ASSERT_TRUE(static_cast<bool>(jit_kernel_for_def(c.ndim, bc)));
  EXPECT_EQ(ctr("jit.compiles"), c0 + 1);
  EXPECT_EQ(ctr("jit.mem_hits"), m0 + 1);

  // New process simulated by dropping loaded modules: disk hit, still
  // zero recompiles.
  jit_clear_memory_cache();
  const std::uint64_t d0 = ctr("jit.disk_hits");
  ASSERT_TRUE(static_cast<bool>(jit_kernel_for_def(c.ndim, bc)));
  EXPECT_EQ(ctr("jit.compiles"), c0 + 1);
  EXPECT_EQ(ctr("jit.disk_hits"), d0 + 1);
}

TEST(Jit, CorruptDiskEntryIsRejectedAndRecompiled) {
  if (!toolchain()) GTEST_SKIP() << "no host compiler";
  const std::string dir = fresh_cache_dir("corrupt");
  const Stencil c = bench_stencils()[0];
  const ir::Bytecode bc = ir::compile_bytecode(c.expr);
  ASSERT_TRUE(static_cast<bool>(jit_kernel_for_def(c.ndim, bc)));

  // Garbage where the shared object was: dlopen must fail, the entry be
  // discarded, and the kernel rebuilt — never half-trusted.
  std::string so;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (e.path().extension() == ".so") so = e.path().string();
  }
  ASSERT_FALSE(so.empty());
  // Drop (and dlclose) the loaded module BEFORE scribbling over its
  // file: truncating a still-mapped shared object raises SIGBUS.
  jit_clear_memory_cache();
  {
    std::ofstream os(so, std::ios::binary | std::ios::trunc);
    os << "not an ELF object";
  }
  const std::uint64_t s0 = ctr("jit.stale_rejects");
  const std::uint64_t c0 = ctr("jit.compiles");
  const JitKernel k = jit_kernel_for_def(c.ndim, bc);
  ASSERT_TRUE(static_cast<bool>(k));
  EXPECT_EQ(ctr("jit.stale_rejects"), s0 + 1);
  EXPECT_EQ(ctr("jit.compiles"), c0 + 1);
}

TEST(Jit, WrongKeyModuleIsStale) {
  if (!toolchain()) GTEST_SKIP() << "no host compiler";
  const std::string dir = fresh_cache_dir("stalekey");
  const std::vector<Stencil> cs = bench_stencils();
  const ir::Bytecode bc_a = ir::compile_bytecode(cs[0].expr);
  const ir::Bytecode bc_b = ir::compile_bytecode(cs[1].expr);
  ASSERT_TRUE(static_cast<bool>(jit_kernel_for_def(2, bc_a)));
  std::string so_a;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (e.path().extension() == ".so") so_a = e.path().string();
  }
  ASSERT_FALSE(so_a.empty());
  ASSERT_TRUE(static_cast<bool>(jit_kernel_for_def(2, bc_b)));
  std::string so_b;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (e.path().extension() == ".so" && e.path().string() != so_a) {
      so_b = e.path().string();
    }
  }
  ASSERT_FALSE(so_b.empty());

  // A loadable module under the wrong file name: the embedded pmg_key
  // disagrees with the cache key, so it must be rejected as stale even
  // though dlopen succeeds. dlclose everything before replacing the
  // file — overwriting a mapped object is a SIGBUS.
  jit_clear_memory_cache();
  std::filesystem::copy_file(
      so_a, so_b, std::filesystem::copy_options::overwrite_existing);
  const std::uint64_t s0 = ctr("jit.stale_rejects");
  const JitKernel k = jit_kernel_for_def(2, bc_b);
  ASSERT_TRUE(static_cast<bool>(k));
  EXPECT_EQ(ctr("jit.stale_rejects"), s0 + 1);

  // And the rebuilt kernel is the right one: bit-exact vs bc_b's
  // interpreter.
  const index_t edge = 33;
  const Box dom = Box::cube(2, 0, edge + 1);
  const Box region = Box::cube(2, 1, edge);
  Buffer src = random_grid(dom, 11);
  const std::vector<View> srcs = {View::over(src.data(), dom)};
  Buffer got = grid::make_grid(region);
  Buffer ref = grid::make_grid(region);
  View gv = View::over(got.data(), region);
  View rv = View::over(ref.data(), region);
  run_jit_kernel(k, gv, srcs, region);
  runtime::apply_bytecode(bc_b, rv, srcs, region);
  EXPECT_EQ(0, std::memcmp(got.data(), ref.data(),
                           sizeof(double) * got.size()));
}

// -- fallback ladder --------------------------------------------------

TEST(Jit, InjectedCompileFaultFallsBackWithTraceEvent) {
  if (!toolchain()) GTEST_SKIP() << "no host compiler";
  fresh_cache_dir("fault");
  CompileOptions o = CompileOptions::for_variant(Variant::OptPlus, 2);
  o.jit = JitMode::On;
  const std::uint64_t f0 = ctr("jit.fallbacks");

  obs::TraceSession::start();
  std::vector<double> got;
  {
    fault::ScopedFault f(fault::kJitCompile, /*count=*/1);
    got = run_bits_vc(vc2d(), o, 2);
  }
  obs::TraceSession::stop();

  EXPECT_EQ(ctr("jit.fallbacks"), f0 + 1);
  bool saw_fallback = false;
  for (const obs::TraceEvent& e : obs::TraceSession::snapshot()) {
    saw_fallback = saw_fallback || e.kind == obs::EventKind::JitFallback;
  }
  EXPECT_TRUE(saw_fallback);

  // The degraded plan has no native kernels, so it runs the exact same
  // dispatch as a jit-off plan: byte-identical output.
  CompileOptions off = o;
  off.jit = JitMode::Off;
  const std::vector<double> ref = run_bits_vc(vc2d(), off, 2);
  ASSERT_EQ(ref.size(), got.size());
  EXPECT_EQ(0, std::memcmp(ref.data(), got.data(),
                           sizeof(double) * ref.size()));
}

TEST(Jit, MissingToolchainFallsBack) {
  fresh_cache_dir("notc");
  setenv("POLYMG_JIT_CC", "/nonexistent/pmg-no-such-cc", 1);
  EXPECT_FALSE(jit_toolchain_available());

  const std::uint64_t cf0 = ctr("jit.compile_failures");
  const std::uint64_t f0 = ctr("jit.fallbacks");
  CompileOptions o = CompileOptions::for_variant(Variant::OptPlus, 2);
  o.jit = JitMode::Auto;  // quiet fallback is the headless default
  const std::vector<double> got = run_bits_vc(vc2d(), o, 2);
  EXPECT_GE(ctr("jit.compile_failures"), cf0 + 1);
  EXPECT_GE(ctr("jit.fallbacks"), f0 + 1);

  unsetenv("POLYMG_JIT_CC");

  CompileOptions off = o;
  off.jit = JitMode::Off;
  const std::vector<double> ref = run_bits_vc(vc2d(), off, 2);
  ASSERT_EQ(ref.size(), got.size());
  EXPECT_EQ(0, std::memcmp(ref.data(), got.data(),
                           sizeof(double) * ref.size()));
}

}  // namespace
}  // namespace polymg::codegen
