// Figure 11a — smoother-only comparison on the 3-d class-C grid:
// overlapped tiling with local buffers (polymg-opt+) versus
// split/diamond time tiling (polymg-dtile-opt+, standing in for Pluto)
// at 4 and 10 Jacobi steps. The paper finds overlapped slightly ahead at
// 4 steps and diamond ahead at 10 (3-d); in 2-d overlapped always wins —
// pass --ndim 2 to check that too.
//
// Flags: --paper, --reps N, --ndim 2|3.
#include "gbench.hpp"

namespace polymg::bench {
namespace {

SolveRunner smoother_runner(Variant var, const CycleConfig& cfg, int steps,
                            int sweeps) {
  SolveRunner r;
  r.label = opt::to_string(var);
  auto p = std::make_shared<solvers::PoissonProblem>(
      solvers::PoissonProblem::random_rhs(cfg.ndim, cfg.n, 7));
  auto ex = std::make_shared<runtime::Executor>(
      opt::compile(solvers::build_smoother_only(cfg, steps),
                   CompileOptions::for_variant(var, cfg.ndim)));
  r.run = [p, ex, sweeps] {
    for (int i = 0; i < sweeps; ++i) {
      const std::vector<grid::View> ext = {p->v_view(), p->f_view()};
      ex->run(ext);
      grid::copy_region(p->v_view(), ex->output_view(0), p->domain());
    }
  };
  return r;
}

}  // namespace
}  // namespace polymg::bench

int main(int argc, char** argv) {
  using namespace polymg::bench;
  const polymg::Options opts = parse_bench_options(argc, argv);
  TraceFromOptions trace(opts);
  MetricsFromOptions metrics(opts);
  const bool paper = paper_sizes_requested(opts);
  const int reps = static_cast<int>(opts.get_int("reps", 3));
  const int ndim = static_cast<int>(opts.get_int("ndim", 3));
  benchmark::Initialize(&argc, argv);

  const SizeClass sc = size_classes(paper).back();  // class C
  CycleConfig cfg;
  cfg.ndim = ndim;
  cfg.n = ndim == 2 ? sc.n2d : sc.n3d;
  cfg.levels = 1;

  for (int steps : {4, 10}) {
    const std::string row = std::to_string(ndim) + "D-C smoother x" +
                            std::to_string(steps);
    for (Variant v :
         {Variant::Naive, Variant::OptPlus, Variant::DtileOptPlus}) {
      register_point(row, polymg::opt::to_string(v),
                     smoother_runner(v, cfg, steps, /*sweeps=*/2), reps);
    }
  }

  ResultTable table;
  TableReporter reporter(&table);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  table.print("Figure 11a: Jacobi smoother, overlapped vs diamond tiling",
              "polymg-naive");
  std::printf(
      "\nExpected shape (paper): overlapped (opt+) ahead at 4 steps;\n"
      "diamond (dtile-opt+) catches up / wins at 10 steps in 3-d.\n");
  return 0;
}
