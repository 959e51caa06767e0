// Shared pieces of the benchmark program: run options, the metric report,
// the benchmark's own span log, host probes and the workload entry points.
//
// The benchmark only calls public functions of the library's layers and
// times them from outside; nothing here reaches into src/ internals.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace pmgbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 15.0;
  bool trace = false;   ///< per-layer pass (spans, ledger, probes)
  bool quick = false;   ///< smoke sizes
  bool calibrate = false;  ///< service-open: measure closed-loop capacity
  std::string results_dir = "build-bench/results";
  std::string scratch_dir = "build-bench/scratch";
};

/// One named, unit-carrying number. `samples` is how many observations
/// the value summarises (1 for a count or a single measurement).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::int64_t samples = 1;
};

/// Everything a run reports: metrics in print order, the operation tally
/// and the verification verdict. `metrics` are the ones BENCHMARK.json
/// declares; `extras` are printed and saved but exist only for some
/// workloads (the service's own layer).
struct Report {
  std::vector<Metric> metrics;
  std::vector<Metric> extras;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  bool correct = true;

  void set(const std::string& name, double value, const std::string& unit,
           std::int64_t samples = 1);
  void extra(const std::string& name, double value, const std::string& unit,
             std::int64_t samples = 1);
  /// Value of a metric set earlier (0 when absent).
  double get(const std::string& name) const;
  /// Record a verification outcome; a failed check is printed and makes
  /// the run incorrect.
  void check(bool ok, const std::string& what);
};

// --- Statistics over samples ---------------------------------------------
double median(std::vector<double> xs);
/// The tail order statistic: the (n-10)-th smallest sample, so ten samples
/// lie beyond it, but never below the median (for n <= 20 it is the upper
/// median).
double tail(std::vector<double> xs);

/// Milliseconds between two steady-clock points.
using Clock = std::chrono::steady_clock;
inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// --- The benchmark's own spans -------------------------------------------
/// Spans recorded around calls into the library, held in memory and
/// written as Chrome trace JSON at exit. Disabled logs record nothing and
/// return id -1. Thread-safe.
class SpanLog {
public:
  explicit SpanLog(bool enabled);
  /// Open a span now (or at `t0`) and return its id.
  int open(const char* name, int parent = -1, std::int64_t req = -1);
  int open_at(const char* name, Clock::time_point t0, int parent = -1,
              std::int64_t req = -1);
  void close(int id);
  std::size_t size() const;
  void write_chrome_trace(const std::string& path,
                          const std::string& process) const;

private:
  struct Span {
    const char* name;
    std::int64_t t0_ns;
    std::int64_t t1_ns;
    int parent;
    std::int64_t req;
    int tid;
  };
  int tid_locked();

  bool enabled_;
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;                    // guarded by mu_
  std::vector<std::thread::id> thread_ids_;    // guarded by mu_
};

/// Time one call in milliseconds and record it as a span.
template <typename F>
double timed_ms(SpanLog& log, const char* name, int parent, F&& f,
                std::int64_t req = -1) {
  const int id = log.open(name, parent, req);
  const auto t0 = Clock::now();
  f();
  const double ms = ms_between(t0, Clock::now());
  log.close(id);
  return ms;
}

// --- Host -------------------------------------------------------------------
struct HostInfo {
  int nproc = 0;
  int omp_threads = 0;
  std::string cpu_model;
  std::int64_t l3_bytes = 0;  ///< 0 when sysfs does not say
  std::string compiler;
  std::string revision;
};
HostInfo host_info();
double peak_rss_mib();

/// STREAM-style triad a[i] = b[i] + s*c[i] at `threads` threads over
/// three arrays of `doubles` elements each; best of `reps` passes, in GB/s
/// of the three arrays' bytes.
double triad_gbs(std::size_t doubles, int threads, int reps);

/// Measure host.triad_gbs at the process's thread count and at 1 thread
/// into `rep`, with arrays of at least 4x L3 each (smaller under --quick).
/// Returns the multi-thread figure.
double measure_triad(const Options& opt, const HostInfo& host, Report& rep);

// --- Workloads --------------------------------------------------------------
bool is_solve_workload(const std::string& name);
void run_solve_workload(const Options& opt, const HostInfo& host,
                        Report& rep, SpanLog& spans);
void run_service_workload(const Options& opt, const HostInfo& host,
                          Report& rep, SpanLog& spans);

/// Point the JIT at a fresh, empty cache directory under the scratch dir
/// and drop the in-process module table, so the next jit_specialize
/// starts cold.
void fresh_jit_cache(const Options& opt);

}  // namespace pmgbench
