#include "layers.hpp"

#include <array>
#include <cmath>
#include <numbers>

#include "polymg/codegen/jit.hpp"
#include "polymg/common/parallel.hpp"
#include "polymg/common/rng.hpp"
#include "polymg/grid/ops.hpp"
#include "polymg/opt/compile.hpp"
#include "polymg/opt/validate.hpp"
#include "polymg/runtime/executor.hpp"
#include "polymg/solvers/metrics.hpp"

namespace pmgbench {

namespace grid = polymg::grid;
namespace opt = polymg::opt;
namespace runtime = polymg::runtime;
namespace solvers = polymg::solvers;
using polymg::poly::index_t;
using polymg::poly::Box;

Buffer make_rhs(const CycleConfig& cfg, RhsKind kind, std::uint64_t seed) {
  const Box dom = Box::cube(cfg.ndim, 0, cfg.n + 1);
  Buffer f = grid::make_grid(dom);
  const grid::View fv = grid::View::over(f.data(), dom);
  const Box interior = Box::cube(cfg.ndim, 1, cfg.n);
  polymg::Rng rng(seed);
  if (kind == RhsKind::Rough) {
    grid::fill_region(fv, interior, [&](index_t, index_t, index_t) {
      return rng.uniform(-1.0, 1.0);
    });
    return f;
  }
  // Separable modes: tab[m][d][i] = sin(k_md * pi * i * h).
  constexpr int kModes = 4;
  const double h = 1.0 / static_cast<double>(cfg.n + 1);
  std::array<double, kModes> amp{};
  std::array<std::array<std::vector<double>, 3>, kModes> tab;
  for (int m = 0; m < kModes; ++m) {
    amp[m] = (rng.below(2) != 0 ? 1.0 : -1.0) * rng.uniform(0.5, 1.5);
    for (int d = 0; d < 3; ++d) {
      const double k = static_cast<double>(3 + rng.below(4));
      auto& t = tab[m][d];
      t.resize(static_cast<std::size_t>(cfg.n + 2), 1.0);
      if (d >= cfg.ndim) continue;
      for (std::size_t i = 0; i < t.size(); ++i) {
        t[i] = std::sin(k * std::numbers::pi * h * static_cast<double>(i));
      }
    }
  }
  grid::fill_region(fv, interior, [&](index_t i, index_t j, index_t k) {
    double s = 0.0;
    for (int m = 0; m < kModes; ++m) {
      s += amp[m] * tab[m][0][i] * tab[m][1][j] *
           tab[m][2][cfg.ndim == 3 ? k : 0];
    }
    return s + 1e-4 * rng.uniform(-1.0, 1.0);
  });
  return f;
}

PoissonProblem make_problem(const CycleConfig& cfg) {
  PoissonProblem p;
  p.ndim = cfg.ndim;
  p.n = cfg.n;
  p.h = 1.0 / static_cast<double>(cfg.n + 1);
  p.v = grid::make_grid(p.domain());
  return p;
}

Session set_up(const Options& o, const CycleConfig& cfg,
               const opt::CompileOptions& copts, PoissonProblem& p,
               SpanLog& spans, SetupSample& out) {
  fresh_jit_cache(o);
  const int root = spans.open("setup");
  const auto t0 = Clock::now();
  polymg::ir::Pipeline pipe;
  timed_ms(spans, "solvers::build_cycle", root,
           [&] { pipe = solvers::build_cycle(cfg); });
  std::optional<opt::CompiledPipeline> cp;
  out.compile_ms = timed_ms(spans, "opt::compile", root, [&] {
    cp.emplace(opt::compile(polymg::ir::Pipeline(pipe), copts));
  });
  timed_ms(spans, "opt::validate_plan", root,
           [&] { opt::validate_plan(*cp); });
  out.jit_ms = timed_ms(spans, "codegen::jit_specialize", root,
                        [&] { polymg::codegen::jit_specialize(*cp); });
  out.jit_kernels = polymg::codegen::jit_bound_kernels(*cp);
  Session s;
  s.plan = std::make_shared<const opt::CompiledPipeline>(std::move(*cp));
  out.ctor_ms = timed_ms(spans, "GuardedExecutor::GuardedExecutor", root, [&] {
    s.exec = std::make_unique<runtime::GuardedExecutor>(std::move(pipe),
                                                        copts, s.plan);
  });
  const std::vector<grid::View> ext = {p.v_view(), p.f_view()};
  out.first_run_ms = timed_ms(spans, "GuardedExecutor::run", root,
                              [&] { s.exec->run(ext); });
  out.total_s = ms_between(t0, Clock::now()) / 1e3;
  spans.close(root);
  return s;
}

void report_setup_layers(const std::vector<SetupSample>& samples,
                         const opt::CompiledPipeline& plan, Report& rep) {
  std::vector<double> compile, jit, ctor, first;
  for (const SetupSample& s : samples) {
    compile.push_back(s.compile_ms);
    jit.push_back(s.jit_ms);
    ctor.push_back(s.ctor_ms);
    first.push_back(s.first_run_ms);
  }
  const auto n = static_cast<std::int64_t>(samples.size());
  rep.set("opt.compile_ms", median(compile), "ms", n);
  rep.set("opt.groups", static_cast<double>(plan.groups.size()), "count");
  rep.set("opt.array_mib",
          static_cast<double>(plan.array_doubles_with_reuse) * 8.0 /
              (1 << 20),
          "MiB");
  rep.set("codegen.jit_ms", median(jit), "ms", n);
  rep.set("codegen.jit_kernels", samples.back().jit_kernels, "count");
  rep.set("runtime.ctor_ms", median(ctor), "ms", n);
  rep.set("runtime.first_run_ms", median(first), "ms", n);
}

void probe_layers(const opt::CompiledPipeline& plan,
                  runtime::GuardedExecutor& gx, PoissonProblem& p,
                  Report& rep, SpanLog& spans) {
  const int root = spans.open("probes");
  const std::vector<grid::View> ext = {p.v_view(), p.f_view()};
  std::vector<double> cycle, guard, copy;
  double model_bytes = 0.0;
  {
    runtime::Executor bare(plan);
    bare.run(ext);  // warm: pool pages, workspaces
    // Alternate the bare and the guarded executor so host drift cancels
    // in the per-pair difference.
    const auto start = Clock::now();
    while (cycle.size() < 25 &&
           (cycle.size() < 3 || ms_between(start, Clock::now()) < 2000.0)) {
      const double b = timed_ms(spans, "Executor::run", root,
                                [&] { bare.run(ext); });
      const double g = timed_ms(spans, "GuardedExecutor::run", root,
                                [&] { gx.run(ext); });
      cycle.push_back(b);
      guard.push_back(g - b);
    }
    copy = repeat_timed(spans, "grid::copy_region", root, 1000.0, 3, 25, [&] {
      grid::copy_region(p.v_view(), bare.output_view(0), p.domain());
    });
    // Armed after timing: model bytes come from the plan, not a counter.
    bare.enable_perf_attribution();
    for (const auto& row : bare.run_report().perf) {
      model_bytes += row.model_bytes;
    }
  }
  std::vector<double> cycle1;
  {
    const int prev = polymg::set_num_threads(1);
    runtime::Executor one(plan);
    one.run(ext);
    cycle1 = repeat_timed(spans, "Executor::run (1 thread)", root, 1500.0, 2,
                          10, [&] { one.run(ext); });
    polymg::set_num_threads(prev);
  }
  const auto clone = repeat_timed(spans, "Buffer::clone", root, 1000.0, 3, 25,
                                  [&] { Buffer c = p.v.clone(); });
  const auto norm =
      repeat_timed(spans, "solvers::residual_norm", root, 1000.0, 3, 25, [&] {
        volatile double r =
            solvers::residual_norm(p.v_view(), p.f_view(), p.n, p.h);
        (void)r;
      });
  spans.close(root);

  const double cycle_ms = median(cycle);
  const double cycle1_ms = median(cycle1);
  const int threads = polymg::max_threads();
  const auto n = [](const std::vector<double>& v) {
    return static_cast<std::int64_t>(v.size());
  };
  rep.set("runtime.cycle_ms", cycle_ms, "ms", n(cycle));
  rep.set("runtime.guard_ms", median(guard), "ms", n(guard));
  rep.set("runtime.cycle_ms_1t", cycle1_ms, "ms", n(cycle1));
  rep.set("runtime.par_eff", cycle1_ms / (threads * cycle_ms), "ratio",
          n(cycle));
  rep.set("runtime.model_gbs", model_bytes / (cycle_ms * 1e-3) / 1e9, "GB/s",
          n(cycle));
  rep.set("grid.copy_ms", median(copy), "ms", n(copy));
  rep.set("grid.clone_ms", median(clone), "ms", n(clone));
  rep.set("solvers.norm_ms", median(norm), "ms", n(norm));
}

}  // namespace pmgbench
