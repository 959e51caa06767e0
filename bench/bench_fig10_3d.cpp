// Figure 10(a-d) — 3-d benchmarks: the same series as Fig. 9 on
// {V, W} × {4-4-4, 10-0-0} 3-d Poisson problems.
//
// Flags: --paper, --reps N, --class B|C.
#include "gbench.hpp"

namespace polymg::bench {
namespace {

void register_all(const Options& opts) {
  const bool paper = paper_sizes_requested(opts);
  const int reps = static_cast<int>(opts.get_int("reps", 2));
  const std::string only_class = opts.get("class", "");

  for (const SizeClass& sc : size_classes(paper)) {
    if (!only_class.empty() && sc.name != only_class) continue;
    for (CycleKind kind : {CycleKind::V, CycleKind::W}) {
      for (auto [n1, n2, n3] : {std::tuple{4, 4, 4}, std::tuple{10, 0, 0}}) {
        CycleConfig cfg;
        cfg.ndim = 3;
        cfg.n = sc.n3d;
        cfg.levels = 4;
        cfg.kind = kind;
        cfg.n1 = n1;
        cfg.n2 = n2;
        cfg.n3 = n3;
        const std::string row =
            std::string(kind == CycleKind::V ? "V" : "W") + "-3D-" +
            std::to_string(n1) + "-" + std::to_string(n2) + "-" +
            std::to_string(n3) + "/" + sc.name;
        for (Series s : all_series()) {
          register_point(row, to_string(s),
                         make_runner(s, cfg, sc.iters3d, 42), reps);
        }
      }
    }
  }
}

}  // namespace
}  // namespace polymg::bench

int main(int argc, char** argv) {
  using namespace polymg::bench;
  const polymg::Options opts = parse_bench_options(argc, argv);
  TraceFromOptions trace(opts);
  MetricsFromOptions metrics(opts);
  benchmark::Initialize(&argc, argv);
  register_all(opts);
  ResultTable table;
  TableReporter reporter(&table);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  table.print("Figure 10(a-d): 3-d multigrid benchmarks", "polymg-naive");
  std::printf("\n§4.2 summary (geometric means across 3-d rows):\n");
  std::printf("  polymg-opt+ over polymg-naive : %.2fx (paper 3-d: 2.18x)\n",
              table.geomean_speedup("polymg-opt+", "polymg-naive"));
  std::printf("  polymg-opt+ over polymg-opt   : %.2fx\n",
              table.geomean_speedup("polymg-opt+", "polymg-opt"));
  std::printf(
      "  polymg-dtile-opt+ over polymg-opt+ : %.2fx (paper: dtile wins only "
      "3D-W-10-0-0)\n",
      table.geomean_speedup("polymg-dtile-opt+", "polymg-opt+"));
  return 0;
}
