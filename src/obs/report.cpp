#include "polymg/obs/report.hpp"

#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>

#include "polymg/common/error.hpp"

namespace polymg::obs {

namespace {

/// Chrome trace timestamps are microseconds (doubles are accepted).
double us(std::int64_t ns) { return static_cast<double>(ns) / 1e3; }

void emit_event(std::ostream& os, const TraceEvent& e) {
  os << "    {\"name\": \"" << to_string(e.kind) << "\", \"cat\": \""
     << to_string(e.kind) << "\", \"ph\": \""
     << (e.dur_ns > 0 ? "X" : "i") << "\", \"ts\": " << us(e.ts_ns);
  if (e.dur_ns > 0) {
    os << ", \"dur\": " << us(e.dur_ns);
  } else {
    os << ", \"s\": \"t\"";  // instant scope: thread
  }
  os << ", \"pid\": 1, \"tid\": " << static_cast<int>(e.tid)
     << ", \"args\": {\"group\": " << e.group << ", \"stage\": " << e.stage
     << ", \"id\": " << e.id << ", \"req\": " << e.req
     << ", \"value\": " << e.value << "}}";
}

}  // namespace

void write_chrome_trace(std::ostream& os,
                        const std::vector<TraceEvent>& events,
                        const std::string& process_name) {
  os << "{\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n";
  os << "    {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
        "\"tid\": 0, \"args\": {\"name\": \"" << process_name << "\"}}";
  int last_tid = -1;
  for (const TraceEvent& e : events) {
    // Events arrive grouped by thread: name each track once.
    if (static_cast<int>(e.tid) != last_tid) {
      last_tid = static_cast<int>(e.tid);
      os << ",\n    {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
         << "\"tid\": " << last_tid << ", \"args\": {\"name\": \"worker "
         << last_tid << "\"}}";
    }
    os << ",\n";
    emit_event(os, e);
  }
  os << "\n]}\n";
}

void write_chrome_trace_file(const std::string& path,
                             const std::vector<TraceEvent>& events,
                             const std::string& process_name) {
  std::ofstream os(path);
  PMG_CHECK(os.good(), "cannot open " << path << " for writing");
  write_chrome_trace(os, events, process_name);
  PMG_CHECK(os.good(), "write to " << path << " failed");
}

std::string RunReport::render() const {
  std::ostringstream os;
  os << "== run report";
  if (!title.empty()) os << ": " << title;
  os << " ==\n";

  double total = 0.0;
  for (const TimeRow& r : groups) total += r.seconds;
  char line[256];
  if (!groups.empty()) {
    os << "time by group (" << runs << " run(s), "
       << static_cast<int>(total * 1e3) << " ms total):\n";
    for (const TimeRow& r : groups) {
      std::snprintf(line, sizeof(line), "  %-40s %10.3f ms %6.1f%%",
                    r.label.c_str(), r.seconds * 1e3,
                    total > 0 ? 100.0 * r.seconds / total : 0.0);
      os << line;
      if (r.chunks > 0) {
        os << "  " << r.chunks << " " << r.unit << (r.chunks == 1 ? "" : "s");
        if (r.threads == 0) {
          os << ", inline";
        } else {
          os << " / " << r.threads << (r.threads == 1 ? " thread" : " threads");
        }
      }
      os << "\n";
    }
  }
  if (!stages.empty()) {
    os << "time by stage:\n";
    for (const TimeRow& r : stages) {
      std::snprintf(line, sizeof(line), "  %-40s %10.3f ms %6.1f%%",
                    r.label.c_str(), r.seconds * 1e3,
                    total > 0 ? 100.0 * r.seconds / total : 0.0);
      os << line;
      if (!r.path.empty()) os << "  " << r.path;
      os << "\n";
    }
  }

  if (have_convergence) {
    os << "convergence: " << (converged ? "converged" : "NOT converged")
       << ", residual " << initial_residual << " -> " << final_residual
       << " in " << total_cycles << " cycle(s)\n";
    for (const std::string& a : attempt_lines) os << "  " << a << "\n";
    if (!residual_history.empty()) {
      os << "residual history";
      if (residual_history_dropped > 0) {
        os << " (last " << residual_history.size() << ", "
           << residual_history_dropped << " older dropped)";
      }
      os << ":";
      for (double r : residual_history) os << " " << r;
      os << "\n";
    }
  }
  if (!perf.empty()) {
    os << "roofline by stage (model bytes/flops from the plan, hardware "
          "from perf counters):\n";
    for (const PerfRow& r : perf) {
      const double runs_d = r.runs > 0 ? static_cast<double>(r.runs) : 1.0;
      const double model_gbs =
          r.seconds > 0 ? r.model_bytes * runs_d / r.seconds / 1e9 : 0.0;
      const double ai =
          r.model_bytes > 0 ? r.model_flops / r.model_bytes : 0.0;
      std::snprintf(line, sizeof(line),
                    "  %-32s %9.3f ms %7.2f GB/s(model) AI %5.3f",
                    r.label.c_str(), r.seconds * 1e3, model_gbs, ai);
      os << line;
      if (r.cycles >= 0 && r.instructions >= 0 && r.llc_misses >= 0) {
        const double hw_gbs =
            r.seconds > 0
                ? static_cast<double>(r.llc_misses) * 64.0 / r.seconds / 1e9
                : 0.0;
        const double ipc = r.cycles > 0 ? static_cast<double>(r.instructions) /
                                              static_cast<double>(r.cycles)
                                        : 0.0;
        std::snprintf(line, sizeof(line),
                      " %7.2f GB/s(llc) IPC %5.2f", hw_gbs, ipc);
        os << line;
      } else {
        os << "  [hw counters unavailable]";
      }
      os << "\n";
    }
  }
  if (!tenant_lines.empty()) {
    os << "tenants:\n";
    for (const std::string& t : tenant_lines) os << "  " << t << "\n";
  }
  for (const std::string& w : warnings) os << "WARNING: " << w << "\n";
  if (trace_dropped > 0) {
    os << "WARNING: trace ring dropped " << trace_dropped
       << " event(s) — the trace is a suffix of the run; raise "
          "TraceSession::start capacity or trace a shorter window\n";
  }
  if (!metrics_json.empty()) os << "metrics: " << metrics_json << "\n";
  return os.str();
}

}  // namespace polymg::obs
