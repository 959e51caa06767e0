// Shared benchmark harness.
//
// Reproduces the paper's measurement protocol: each benchmark point runs
// a fixed number of whole multigrid cycles (Table 2's iteration counts,
// scaled), the minimum wall time over repetitions is reported, and
// speedups are always computed against polymg-naive on the same problem.
//
// Problem sizes are scaled classes: the paper's Class B/C (2D 8192²/
// 16384², 3D 256³/512³) would take hours on this single-core host, so the
// defaults keep the same shape at laptop scale; set POLYMG_PAPER_SIZES=1
// (or pass --paper) to run the original sizes.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "polymg/common/options.hpp"
#include "polymg/common/timer.hpp"
#include "polymg/opt/compile.hpp"
#include "polymg/runtime/executor.hpp"
#include "polymg/solvers/handopt.hpp"
#include "polymg/solvers/nas_mg.hpp"
#include "polymg/solvers/poisson.hpp"

namespace polymg::bench {

using opt::CompileOptions;
using opt::Variant;
using solvers::CycleConfig;
using solvers::CycleKind;

/// One problem-size class of Table 2 (scaled).
struct SizeClass {
  std::string name;  // "B" or "C"
  poly::index_t n2d;
  poly::index_t n3d;
  int iters2d;
  int iters3d;
};

/// Scaled classes; `paper` selects the original Table 2 sizes.
std::vector<SizeClass> size_classes(bool paper);

bool paper_sizes_requested(const Options& opts);

/// All comparison series of Figs. 9/10. Mixed is OptPlus recompiled
/// under the mixed storage-precision policy (fine grids float) and run
/// through the defect-correction protocol: the iterate and the residual
/// norms stay double, only the cycle's interior traffic narrows.
enum class Series {
  HandOpt,
  HandOptPluto,
  Naive,
  Opt,
  OptPlus,
  DtileOptPlus,
  Mixed,
};
std::string to_string(Series s);
const std::vector<Series>& all_series();

/// Build a runnable solver for one series; returns a closure running the
/// full multi-cycle solve on a fresh problem each call.
struct SolveRunner {
  std::function<void()> run;
  std::string label;
};
/// `precision` applies to the polymg DSL series (the hand-written
/// reference solvers are double-only); Series::Mixed upgrades a Double
/// policy to Mixed so its row is mixed even without --precision.
SolveRunner make_runner(Series s, const CycleConfig& cfg, int cycles,
                        std::uint64_t seed = 42,
                        opt::PrecisionPolicy precision = {});

/// NAS-MG runner: Series::HandOpt maps to the hand-written NPB-style
/// reference; the polymg series run the DSL pipeline. HandOptPluto and
/// DtileOptPlus are not applicable (NAS MG has no smoother chains) and
/// fall back to HandOpt / OptPlus respectively.
SolveRunner make_nas_runner(Series s, const solvers::NasMgConfig& cfg,
                            int iters);

/// min-of-repetitions timing (the paper uses min of five); mean/stddev
/// ride along in the returned Stats.
Stats time_runner(const SolveRunner& r, int repetitions);

/// Arm fault injection from `--fault=site[:count[:prob[:seed]]]` (comma
/// separated for several sites; the POLYMG_FAULT environment variable is
/// the usual Options fallback). An unknown site name or malformed spec
/// terminates the binary HERE, at startup, with the list of valid sites
/// — not discovered as a silently-never-firing fault after an hour of
/// benchmarking.
void arm_faults_from_options(const Options& opts);

/// Apply `--jit=on|off|auto` (the POLYMG_JIT environment variable is the
/// usual Options fallback; default auto) to the process-wide JIT mode.
/// Like --fault, an unrecognized value terminates the binary HERE, at
/// startup — not as a silently-interpreted run that reports fake "jit"
/// numbers.
void apply_jit_from_options(const Options& opts);

/// The `--deadline-ms` per-request budget (0 disables deadlines).
/// Negative or unparsable values are a startup error.
double deadline_ms_from_options(const Options& opts);

/// Parse `--precision=double|mixed|float` (the POLYMG_PRECISION
/// environment variable is the usual Options fallback; default double)
/// into the storage-precision policy the driver hands to make_runner /
/// its CompileOptions. Like --jit, an unrecognized value terminates the
/// binary HERE, at startup — not as a silently-double run labelled
/// "mixed". A non-default mode is announced once on stdout.
opt::PrecisionPolicy precision_from_options(const Options& opts);

/// RAII trace toggle for the bench drivers: when `--trace <path>` is
/// passed (or the POLYMG_TRACE environment variable names a path — the
/// Options env fallback), starts an obs::TraceSession on construction
/// and writes the buffered events as Chrome trace JSON to the path on
/// destruction. A bare "1" maps to "trace.json". Inactive otherwise.
class TraceFromOptions {
public:
  explicit TraceFromOptions(const Options& opts);
  ~TraceFromOptions();
  TraceFromOptions(const TraceFromOptions&) = delete;
  TraceFromOptions& operator=(const TraceFromOptions&) = delete;

  bool active() const { return !path_.empty(); }

private:
  std::string path_;
};

/// RAII metrics-snapshot sink, the --trace counterpart for the registry:
/// when `--metrics <path>` is passed (or the POLYMG_METRICS environment
/// variable names a path — the Options env fallback), the destructor
/// writes obs::Metrics::snapshot_json() to the path. A bare "1" maps to
/// "metrics.json". The path is validated writable at CONSTRUCTION — an
/// unwritable sink terminates the binary at startup, not after the
/// benchmark has burned its wall time. Inactive otherwise.
class MetricsFromOptions {
public:
  explicit MetricsFromOptions(const Options& opts);
  ~MetricsFromOptions();
  MetricsFromOptions(const MetricsFromOptions&) = delete;
  MetricsFromOptions& operator=(const MetricsFromOptions&) = delete;

  bool active() const { return !path_.empty(); }

private:
  std::string path_;
};

/// NAS-MG size classes: (n, levels, iters) scaled from Table 2's
/// 256³/20 and 512³/20.
struct NasClass {
  std::string name;
  poly::index_t n;
  int levels;
  int iters;
};
std::vector<NasClass> nas_classes(bool paper);

/// Collects (row label -> series -> seconds) and prints paper-style
/// speedup tables (speedup over Naive) plus geometric-mean summaries.
class ResultTable {
public:
  /// Fold one timing observation (seconds) into the cell's running
  /// min/mean/stddev (repeated calls accumulate — the gbench reporter
  /// records every repetition).
  void record(const std::string& row, const std::string& series,
              double seconds);
  /// Set a cell from a precomputed Stats (replaces prior observations).
  void record(const std::string& row, const std::string& series,
              const Stats& stats);
  /// Minimum seconds of a cell (the paper's reported number).
  double get(const std::string& row, const std::string& series) const;
  const Stats& get_stats(const std::string& row,
                         const std::string& series) const;

  /// Print execution times and speedup-over-naive, one row per problem.
  void print(const std::string& title, const std::string& baseline) const;

  /// Geometric mean of (baseline / series) across all rows.
  double geomean_speedup(const std::string& series,
                         const std::string& baseline) const;

  /// Machine-readable results: a JSON array with one record per
  /// (row, series) cell —
  ///   {"bench": "<bench>/<row>", "variant": "<series>",
  ///    "class": "<suffix of row after the last '/'>",
  ///    "threads": N, "ms": min, "mean_ms": m, "stddev_ms": s,
  ///    "reps": n, "speedup_vs_naive": base/min}
  /// `threads` is the team size captured when the row was recorded, so
  /// drivers that sweep set_num_threads (bench_scaling)
  /// get the per-row truth, not the final thread count.
  /// `baseline` names the series speedups are computed against (the
  /// field is null for rows that lack the baseline).
  void write_json(const std::string& path, const std::string& bench,
                  const std::string& baseline) const;

private:
  std::vector<std::string> row_order_;
  std::vector<std::string> series_order_;
  std::map<std::string, std::map<std::string, Stats>> data_;
  // Team size at record time, per row (see write_json).
  std::map<std::string, int> row_threads_;
};

}  // namespace polymg::bench
