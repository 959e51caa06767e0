// google-benchmark glue: registers SolveRunners as benchmarks and
// captures per-run minima into a ResultTable so each binary can print the
// paper-style comparison tables after the standard benchmark output.
//
// Benchmark names use "row|series"; repetitions map to the paper's
// min-of-N protocol (the reporter keeps the minimum real time).
#pragma once

#include <benchmark/benchmark.h>

#include "harness.hpp"
#include "polymg/common/fault.hpp"

namespace polymg::bench {

class TableReporter : public benchmark::ConsoleReporter {
public:
  explicit TableReporter(ResultTable* table) : table_(table) {}

  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.run_type != Run::RT_Iteration) continue;
      std::string name = run.benchmark_name();
      // Trim the "/iterations:N/repeats:N" suffixes benchmark appends.
      if (const auto slash = name.find("/iterations:");
          slash != std::string::npos) {
        name = name.substr(0, slash);
      }
      const auto bar = name.find('|');
      if (bar == std::string::npos) continue;
      const std::string row = name.substr(0, bar);
      const std::string series = name.substr(bar + 1);
      const double secs = run.GetAdjustedRealTime() / 1e3;  // ms -> s
      // Every repetition folds into the cell's running min/mean/stddev.
      table_->record(row, series, secs);
    }
    ConsoleReporter::ReportRuns(reports);
  }

private:
  ResultTable* table_;
};

/// Register one measured point. The runner executes once per benchmark
/// iteration; repetitions give the min-of-N.
inline void register_point(const std::string& row, const std::string& series,
                           SolveRunner runner, int repetitions) {
  benchmark::RegisterBenchmark(
      (row + "|" + series).c_str(),
      [runner = std::move(runner)](benchmark::State& st) {
        for (auto _ : st) runner.run();
      })
      ->Unit(benchmark::kMillisecond)
      ->Iterations(1)
      ->Repetitions(repetitions)
      ->ReportAggregatesOnly(false);
}

/// Standard main body: parse our options first, then benchmark's.
/// Fault-spec and --jit validation live in the harness
/// (arm_faults_from_options / apply_jit_from_options) so non-gbench
/// drivers get the same loud startup rejection of unknown values.
inline Options parse_bench_options(int& argc, char** argv) {
  Options opts = Options::parse(argc, argv);
  arm_faults_from_options(opts);
  apply_jit_from_options(opts);
  return opts;
}

}  // namespace polymg::bench
