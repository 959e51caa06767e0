// polymg::obs — exporters.
//
// Two consumers of the trace/metrics substrate:
//  * write_chrome_trace — Chrome trace_event JSON (the format
//    chrome://tracing and Perfetto load), one track per polymg thread,
//    spans as "X" complete events and instants as "i" events with the
//    event taxonomy in args;
//  * RunReport — a human-readable merge of per-group/per-stage time
//    attribution (filled by Executor::run_report) with convergence
//    telemetry (filled from SolveReport by solvers::attach_convergence)
//    and a metrics snapshot.
//
// obs stays a leaf library: the structs here know nothing about plans or
// solvers — the higher layers fill them in.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "polymg/obs/trace.hpp"

namespace polymg::obs {

/// Serialize `events` as Chrome trace_event JSON ("JSON Object Format":
/// a root object whose traceEvents array Perfetto accepts). Timestamps
/// are microseconds relative to the session epoch; `process_name` labels
/// the single pid's track group.
void write_chrome_trace(std::ostream& os,
                        const std::vector<TraceEvent>& events,
                        const std::string& process_name = "polymg");

/// write_chrome_trace into a file; throws Error on I/O failure.
void write_chrome_trace_file(const std::string& path,
                             const std::vector<TraceEvent>& events,
                             const std::string& process_name = "polymg");

/// Merged per-run account: time attribution + convergence + metrics.
struct RunReport {
  std::string title;

  struct TimeRow {
    std::string label;
    double seconds = 0.0;
    /// Group rows: how the last run dealt the group out — `chunks`
    /// granules (`unit`: tile, slab or block) over a team of `threads`,
    /// or 0 threads when it ran inline on the calling thread and opened
    /// no parallel region. chunks == 0 renders nothing (stage rows).
    std::int64_t chunks = 0;
    int threads = 0;
    std::string unit;
    /// Stage rows: the kernel path the stage ran on (jit, tap or
    /// interp), or each parity case's path ("jit/interp/...") when they
    /// differ. Empty renders nothing.
    std::string path;
  };
  std::vector<TimeRow> groups;  ///< per-group attribution, plan order
  std::vector<TimeRow> stages;  ///< per-stage attribution, pipeline order
  std::int64_t runs = 0;        ///< run() invocations covered

  /// Trace-ring events lost to wraparound (TraceSession::dropped() at
  /// report time). Nonzero renders a loud warning: the trace is a
  /// suffix, not the whole run.
  std::uint64_t trace_dropped = 0;

  /// Per-kernel-stage roofline attribution (filled by
  /// Executor::run_report when hardware counters ran; obs only renders).
  /// Hardware fields are -1 when perf counters were unavailable, in
  /// which case only the model columns render.
  struct PerfRow {
    std::string label;         ///< kernel stage (group) label
    double seconds = 0.0;      ///< measured wall time attributed
    double model_bytes = 0.0;  ///< streamed bytes per run, from the plan
    double model_flops = 0.0;  ///< arithmetic ops per run, from the plan
    std::int64_t runs = 0;     ///< runs the hardware counters covered
    std::int64_t cycles = -1;
    std::int64_t instructions = -1;
    std::int64_t llc_misses = -1;
  };
  std::vector<PerfRow> perf;

  // Convergence telemetry (optional; set have_convergence when filled).
  bool have_convergence = false;
  bool converged = false;
  double initial_residual = 0.0;
  double final_residual = 0.0;
  int total_cycles = 0;
  std::vector<std::string> attempt_lines;  ///< one per ladder attempt
  std::vector<double> residual_history;
  /// Oldest residual_history entries evicted by the telemetry ring
  /// (GuardPolicy::history_limit) — nonzero means the history above is a
  /// suffix, not the whole solve.
  std::int64_t residual_history_dropped = 0;

  /// Per-tenant service roll-up lines (filled by service::SolveService's
  /// attach_tenants; obs knows nothing about tenants beyond rendering).
  std::vector<std::string> tenant_lines;

  /// Loud free-form warnings (rendered with a WARNING: prefix) — used by
  /// producers for conditions that must not pass silently, e.g. the
  /// service detaching a worker that refused to exit at shutdown.
  std::vector<std::string> warnings;

  std::string metrics_json;  ///< optional Metrics::snapshot_json()

  /// Human-readable panel: time tables (with % of total), the ladder
  /// walk, the residual history and the raw metrics snapshot.
  std::string render() const;
};

}  // namespace polymg::obs
