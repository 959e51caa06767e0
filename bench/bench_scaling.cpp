// Thread-scaling panels of Figs. 9/10: polymg-naive vs polymg-opt+
// across power-of-two thread counts up to the machine's cores. On the
// paper's 24-core Haswell this reproduces the right-hand panels (e.g.
// W-2D-10-0-0/C: naive 5.38× vs opt+ 33.3× total at 24 threads); on a
// single-core host it degenerates to one row and documents that fact.
//
// Flags: --paper, --reps N, --max-threads T, --json FILE (one record per
// row and series, each carrying the thread count it ran at).
#include <cstdio>
#include <string>

#include "polymg/common/parallel.hpp"

#include "gbench.hpp"

int main(int argc, char** argv) {
  using namespace polymg::bench;
  const polymg::Options opts = parse_bench_options(argc, argv);
  TraceFromOptions trace(opts);
  MetricsFromOptions metrics(opts);
  const bool paper = paper_sizes_requested(opts);
  const int reps = static_cast<int>(opts.get_int("reps", 2));
  const int max_threads = static_cast<int>(
      opts.get_int("max-threads", polymg::max_threads()));
  benchmark::Initialize(&argc, argv);

  const SizeClass sc = size_classes(paper).back();  // class C
  CycleConfig cfg;
  cfg.ndim = 2;
  cfg.n = sc.n2d;
  cfg.levels = 4;
  cfg.kind = polymg::solvers::CycleKind::W;  // the rows are W-2D-10-0-0
  cfg.n1 = 10;
  cfg.n2 = 0;
  cfg.n3 = 0;

  // Measure outside google-benchmark here: the thread count is global
  // runtime state that must wrap each point deterministically.
  ResultTable table;
  for (int t = 1; t <= max_threads; t *= 2) {
    polymg::set_num_threads(t);
    const std::string row = "W-2D-10-0-0 @" + std::to_string(t) + "t/C";
    for (Series s : {Series::Naive, Series::OptPlus}) {
      SolveRunner r = make_runner(s, cfg, sc.iters2d);
      r.run();  // warm (first-touch pages)
      table.record(row, to_string(s), time_runner(r, reps));
    }
  }
  polymg::set_num_threads(max_threads);

  table.print("Scaling: threads sweep (speedups are vs naive at the same "
              "thread count)",
              "polymg-naive");
  const double naive_1t = table.get("W-2D-10-0-0 @1t/C", "polymg-naive");
  std::printf("\ntotal speedup over 1-thread naive:\n");
  for (int t = 1; t <= max_threads; t *= 2) {
    const std::string row = "W-2D-10-0-0 @" + std::to_string(t) + "t/C";
    std::printf("  %2d threads: naive %5.2fx, opt+ %5.2fx\n", t,
                naive_1t / table.get(row, "polymg-naive"),
                naive_1t / table.get(row, "polymg-opt+"));
  }
  if (max_threads == 1) {
    std::printf(
        "\n(single-core host: the multi-thread rows of the paper's panels\n"
        "cannot be measured here; run on a multicore machine to extend.)\n");
  }

  if (const std::string json = opts.get("json", ""); !json.empty()) {
    table.write_json(json, "scaling", "polymg-naive");
    std::printf("wrote %s\n", json.c_str());
  }
  return 0;
}
