// Kernel-path microbenchmarks: the point-wise stack interpreter vs the
// linear tap-loop kernel vs the JIT-specialized native kernel on the
// stencils multigrid actually runs (5-pt/9-pt 2-d, 27-pt 3-d) plus a
// variable-coefficient stencil that only the non-linear paths can
// execute (a load·load product defeats the linearizer — its tap-loop
// baseline is hand-written below).
//
// Flags: --reps N (default 5), --n2d E (2-d edge, default 1023),
//        --n3d E (3-d edge, default 127), --json <path>,
//        --jit on|off|auto (default auto).
#include <cmath>
#include <cstdio>
#include <cstring>
#include <vector>

#include "harness.hpp"
#include "polymg/codegen/jit.hpp"
#include "polymg/common/rng.hpp"
#include "polymg/grid/ops.hpp"
#include "polymg/ir/jit_abi.hpp"
#include "polymg/ir/stencil.hpp"
#include "polymg/obs/metrics.hpp"
#include "polymg/runtime/kernels.hpp"

namespace polymg::bench {
namespace {

using grid::Box;
using grid::Buffer;
using grid::View;
using ir::Expr;
using poly::index_t;

Buffer random_grid(const Box& dom, std::uint64_t seed) {
  Buffer b = grid::make_grid(dom);
  Rng rng(seed);
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = rng.uniform(-1, 1);
  return b;
}

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

struct Case {
  std::string name;
  int ndim;
  Expr expr;
  int nsrcs;
};

/// Hand-written fused kernel for the varcoef-2d stencil. try_linearize
/// rejects the load·load product, so this is the tap-loop-class baseline
/// the DSL cannot derive — the number a hand-tuned specialized kernel
/// reaches, which the jit rows are measured against.
void varcoef2d_hand(View out, const View& u, const View& c,
                    const Box& region) {
  const index_t su = u.stride[0];
  for (index_t i = region.dim(0).lo; i <= region.dim(0).hi; ++i) {
    const double* __restrict pu =
        u.ptr + (i - u.origin[0]) * u.stride[0] - u.origin[1];
    const double* __restrict pc =
        c.ptr + (i - c.origin[0]) * c.stride[0] - c.origin[1];
    double* __restrict po =
        out.ptr + (i - out.origin[0]) * out.stride[0] - out.origin[1];
    const index_t jlo = region.dim(1).lo;
    const index_t jhi = region.dim(1).hi;
#pragma omp simd
    for (index_t j = jlo; j <= jhi; ++j) {
      const double lap =
          4.0 * pu[j] - pu[j - su] - pu[j + su] - pu[j - 1] - pu[j + 1];
      po[j] = pc[j] * (0.25 * lap) + 0.5 * pu[j];
    }
  }
}

void run_case(ResultTable& table, const Case& c, index_t edge, int reps) {
  const Box dom = Box::cube(c.ndim, 0, edge + 1);
  const Box region = Box::cube(c.ndim, 1, edge);

  std::vector<Buffer> src_bufs;
  std::vector<View> srcs;
  for (int s = 0; s < c.nsrcs; ++s) {
    src_bufs.push_back(random_grid(dom, 42 + static_cast<std::uint64_t>(s)));
    srcs.push_back(View::over(src_bufs.back().data(), dom));
  }
  Buffer out = grid::make_grid(region);
  View ov = View::over(out.data(), region);

  const ir::Bytecode bc = ir::compile_bytecode(c.expr);
  const auto lf = ir::try_linearize(c.expr, c.ndim);

  const std::string row = c.name + "/" + std::to_string(edge);
  table.record(row, "stack-interp",
               min_time_of(
                   [&] {
                     runtime::apply_bytecode(bc, ov, srcs, region);
                   },
                   reps));
  if (lf) {
    table.record(row, "tap-loop",
                 min_time_of(
                     [&] {
                       runtime::apply_linear(*lf, ov, srcs, region);
                     },
                     reps));
  } else if (c.name == "varcoef-2d") {
    // Sanity-check the hand kernel against the interpreter before
    // trusting its timing (tolerance, not bits: its fused form is
    // exactly what the one-op-per-statement paths avoid).
    Buffer ref = grid::make_grid(region);
    View rv = View::over(ref.data(), region);
    runtime::apply_bytecode(bc, rv, srcs, region);
    varcoef2d_hand(ov, srcs[0], srcs[1], region);
    for (std::size_t i = 0; i < ref.size(); ++i) {
      PMG_CHECK(std::fabs(out[i] - ref[i]) <= 1e-12,
                "varcoef-2d hand kernel diverges from the interpreter");
    }
    table.record(row, "tap-loop",
                 min_time_of(
                     [&] {
                       varcoef2d_hand(ov, srcs[0], srcs[1], region);
                     },
                     reps));
  }

  if (codegen::jit_mode() != opt::JitMode::Off) {
    const codegen::JitKernel jk = codegen::jit_kernel_for_def(c.ndim, bc);
    if (jk) {
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
      for (int d = 0; d < c.ndim; ++d) {
        lo[d] = region.dim(d).lo;
        hi[d] = region.dim(d).hi;
      }
      const auto run_jit = [&] {
        jk.fn(ov.ptr, ov.origin.data(), ov.stride.data(), js, lo, hi);
      };
      // The specialized kernel is required to be bit-exact vs the
      // interpreter (one IEEE op per statement, -ffp-contract=off) —
      // assert it, don't assume it, before timing it.
      Buffer ref = grid::make_grid(region);
      View rv = View::over(ref.data(), region);
      runtime::apply_bytecode(bc, rv, srcs, region);
      run_jit();
      PMG_CHECK(std::memcmp(out.data(), ref.data(),
                            sizeof(double) * ref.size()) == 0,
                c.name << " jit kernel is not bit-exact vs the "
                          "interpreter");
      table.record(row, "jit", min_time_of(run_jit, reps));
    }
  }
}

int main_impl(int argc, char** argv) {
  const Options opts = Options::parse(argc, argv);
  arm_faults_from_options(opts);  // validate --fault here, not mid-run
  apply_jit_from_options(opts);   // same deal for --jit
  TraceFromOptions trace(opts);
  MetricsFromOptions metrics(opts);
  const int reps = static_cast<int>(opts.get_int("reps", 5));
  const index_t n2d = opts.get_int("n2d", 1023);
  const index_t n3d = opts.get_int("n3d", 127);
  const std::string json = opts.get("json", "");

  std::vector<Case> cases;
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
    cases.push_back({"27pt-3d", 3, ir::stencil3(u, dense_27pt(), 1.0 / 27),
                     1});
  }
  {
    // Variable-coefficient smoother: c(x)·(stencil of u) is a load·load
    // product, so the tap-loop kernel cannot run it — without a JIT
    // kernel it runs on the interpreter.
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

  ResultTable table;
  for (const Case& c : cases) {
    run_case(table, c, c.ndim == 2 ? n2d : n3d, reps);
  }
  table.print("Kernel paths: stack interpreter vs tap-loop vs jit",
              "stack-interp");
  if (codegen::jit_mode() != opt::JitMode::Off) {
    std::printf("\njit over stack interpreter (geomean): %.2fx\n",
                table.geomean_speedup("jit", "stack-interp"));
    // The bar: jit within 2x of tap-loop, i.e. this ratio >= 0.5.
    std::printf("jit vs tap-loop (geomean, >=0.50 is within 2x): %.2fx\n",
                table.geomean_speedup("jit", "tap-loop"));
  }
  // Warm-cache proof hook: CI runs the bench twice against one cache dir
  // and greps "jit compiles: 0" on the second run.
  std::printf("jit compiles: %llu\n",
              static_cast<unsigned long long>(
                  obs::Metrics::instance().counter("jit.compiles").value()));
  if (!json.empty()) {
    table.write_json(json, "kernels", "stack-interp");
    std::printf("wrote %s\n", json.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace polymg::bench

int main(int argc, char** argv) { return polymg::bench::main_impl(argc, argv); }
