// Figure 9 — 2-d benchmarks: speedups over polymg-naive for every series
// (handopt, handopt+pluto, polymg-naive/-opt/-opt+/-dtile-opt+) on
// {V, W} × {4-4-4, 10-0-0} × size classes, plus the §4.2 geometric-mean
// summary lines.
//
// Flags: --paper (Table 2 sizes), --reps N (default 2; paper uses 5),
//        --class B|C (restrict to one class), --json <path> (machine-
//        readable records next to the printed tables).
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
        cfg.ndim = 2;
        cfg.n = sc.n2d;
        cfg.levels = 4;
        cfg.kind = kind;
        cfg.n1 = n1;
        cfg.n2 = n2;
        cfg.n3 = n3;
        const std::string row =
            std::string(kind == CycleKind::V ? "V" : "W") + "-2D-" +
            std::to_string(n1) + "-" + std::to_string(n2) + "-" +
            std::to_string(n3) + "/" + sc.name;
        for (Series s : all_series()) {
          register_point(row, to_string(s),
                         make_runner(s, cfg, sc.iters2d, 42), reps);
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
  table.print("Figure 9: 2-d multigrid benchmarks", "polymg-naive");
  std::printf("\n§4.2 summary (geometric means across 2-d rows):\n");
  std::printf("  polymg-opt+  over polymg-naive : %.2fx (paper 2-d: 4.73x)\n",
              table.geomean_speedup("polymg-opt+", "polymg-naive"));
  std::printf("  polymg-opt+  over polymg-opt   : %.2fx (paper: 1.31x overall)\n",
              table.geomean_speedup("polymg-opt+", "polymg-opt"));
  std::printf("  polymg-opt+  over handopt+pluto: %.2fx (paper 2-d: 1.67x)\n",
              table.geomean_speedup("polymg-opt+", "handopt+pluto"));
  if (const std::string json = opts.get("json", ""); !json.empty()) {
    table.write_json(json, "fig9-2d", "polymg-naive");
    std::printf("wrote %s\n", json.c_str());
  }
  return 0;
}
