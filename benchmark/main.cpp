// The benchmark of record (see README.md). One workload per process:
//
//   polymg_benchmark --workload W [--seed N] [--seconds S] [--trace 0|1]
//                    [--quick] [--calibrate] [--results-dir D]
//
// Prints every metric by name with its unit, writes a result JSON (host
// fingerprint, seed, sample counts) and, with --trace 1, a Chrome trace
// of the benchmark's own spans into the results directory. The last stdout
// line is one JSON object: {"correct", "attempted", "failed", "metrics"}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exits 1 when any verification or operation failed.
#include <malloc.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "polymg/codegen/jit.hpp"

namespace pmgbench {

namespace {

namespace fs = std::filesystem;

/// The end-to-end metrics; every other declared metric is per-layer.
const char* const kEndToEnd[] = {"setup_s", "latency_p50_ms",
                                 "latency_tail_ms", "peak_rss_mib"};

bool is_end_to_end(const std::string& name) {
  for (const char* e : kEndToEnd) {
    if (name == e) return true;
  }
  return false;
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "polymg_benchmark: %s\nusage: polymg_benchmark --workload "
               "{solve-2d-large|solve-2d-wcycle|service-open} "
               "[--seed N] [--seconds S] [--trace 0|1] [--quick] "
               "[--calibrate] [--results-dir DIR]\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + a);
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        o.workload = value();
      } else if (a == "--seed") {
        o.seed = std::stoull(value());
      } else if (a == "--seconds") {
        o.seconds = std::stod(value());
      } else if (a == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        o.trace = v == "1";
      } else if (a == "--quick") {
        o.quick = true;
      } else if (a == "--calibrate") {
        o.calibrate = true;
      } else if (a == "--results-dir") {
        o.results_dir = value();
      } else {
        usage("unknown argument " + a);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + a);
    }
  }
  if (!is_solve_workload(o.workload) && o.workload != "service-open") {
    usage("unknown workload '" + o.workload + "'");
  }
  if (!(o.seconds > 0.0 && o.seconds <= 600.0)) usage("--seconds out of range");
  return o;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& ms, bool samples) {
  std::ostringstream os;
  os << "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    os << (i ? ", " : "") << json_string(ms[i].name) << ": {\"value\": "
       << json_number(ms[i].value) << ", \"unit\": " << json_string(ms[i].unit);
    if (samples) os << ", \"samples\": " << ms[i].samples;
    os << "}";
  }
  return os.str() + "}";
}

void write_result_file(const Options& o, const HostInfo& h,
                       const Report& rep) {
  const std::string path = o.results_dir + "/" + o.workload + "-seed" +
                           std::to_string(o.seed) + "-trace" +
                           (o.trace ? "1" : "0") + (o.quick ? "-quick" : "") +
                           ".json";
  std::ofstream os(path);
  os << "{\"workload\": " << json_string(o.workload) << ", \"seed\": "
     << o.seed << ", \"trace\": " << (o.trace ? 1 : 0)
     << ", \"quick\": " << (o.quick ? "true" : "false")
     << ", \"seconds\": " << json_number(o.seconds) << ",\n \"host\": {"
     << "\"nproc\": " << h.nproc << ", \"omp_threads\": " << h.omp_threads
     << ", \"cpu_model\": " << json_string(h.cpu_model)
     << ", \"l3_bytes\": " << h.l3_bytes
     << ", \"compiler\": " << json_string(h.compiler)
     << ", \"revision\": " << json_string(h.revision) << "},\n"
     << " \"correct\": " << (rep.correct ? "true" : "false")
     << ", \"attempted\": " << rep.attempted << ", \"failed\": " << rep.failed
     << ",\n \"metrics\": " << metrics_json(rep.metrics, true)
     << ",\n \"extras\": " << metrics_json(rep.extras, true) << "}\n";
  if (!os) throw std::runtime_error("cannot write " + path);
}

void print_metrics(const char* kind, const std::vector<Metric>& ms) {
  for (const Metric& m : ms) {
    std::printf("%s %-26s %16.6f %-9s (n=%lld)\n", kind, m.name.c_str(),
                m.value, m.unit.c_str(), static_cast<long long>(m.samples));
  }
}

/// Host ceiling (traced runs), finiteness check, printing and the result
/// and trace files.
void finish(const Options& o, const HostInfo& host, Report& rep,
            const SpanLog& spans) {
  if (o.trace) {
    // After the workload has released its memory: the triad arrays are 4x
    // L3 each.
    const double triad = measure_triad(o, host, rep);
    rep.set("runtime.bw_frac", rep.get("runtime.model_gbs") / triad,
            "fraction");
  }
  for (const Metric& m : rep.metrics) {
    if (!std::isfinite(m.value)) rep.check(false, m.name + " is finite");
  }
  print_metrics("metric", rep.metrics);
  print_metrics("extra ", rep.extras);
  write_result_file(o, host, rep);
  if (o.trace) {
    const std::string path = o.results_dir + "/trace_" + o.workload + ".json";
    spans.write_chrome_trace(path, o.workload);
    std::printf("trace: %zu spans -> %s\n", spans.size(), path.c_str());
  }
}

}  // namespace

void fresh_jit_cache(const Options& o) {
  static int next = 0;
  const std::string dir = o.scratch_dir + "/jit-" + std::to_string(next++);
  fs::create_directories(dir);
  polymg::codegen::set_jit_cache_dir(dir);
  polymg::codegen::jit_clear_memory_cache();
}

}  // namespace pmgbench

int main(int argc, char** argv) {
  using namespace pmgbench;
  // One malloc arena and a fixed 256 KiB mmap threshold: every grid-sized
  // buffer is mapped when allocated and returned when freed. Peak RSS is
  // then the live peak rather than an artefact of glibc's dynamic
  // threshold and per-thread arenas, and allocation churn inside a solve
  // shows up as page-fault time. Set before any worker thread exists.
  mallopt(M_ARENA_MAX, 1);
  mallopt(M_MMAP_THRESHOLD, 256 * 1024);
  Options o = parse(argc, argv);
  // A private scratch directory per process (JIT caches), removed at exit.
  o.scratch_dir += "/run-" + std::to_string(::getpid());
  const HostInfo host = host_info();
  std::printf("host: %d cpus, %s, L3 %lld KiB, %s, %d OpenMP threads, "
              "revision %s, seed %llu, %.0f s%s%s\n",
              host.nproc, host.cpu_model.c_str(),
              static_cast<long long>(host.l3_bytes >> 10),
              host.compiler.c_str(), host.omp_threads, host.revision.c_str(),
              static_cast<unsigned long long>(o.seed), o.seconds,
              o.trace ? ", traced" : "", o.quick ? ", quick" : "");
  std::fflush(stdout);

  SpanLog spans(o.trace);
  Report rep;
  int status = 0;
  try {
    std::filesystem::create_directories(o.results_dir);
    std::filesystem::create_directories(o.scratch_dir);
    if (is_solve_workload(o.workload)) {
      run_solve_workload(o, host, rep, spans);
    } else {
      run_service_workload(o, host, rep, spans);
    }
    if (!o.calibrate) finish(o, host, rep, spans);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "polymg_benchmark: %s\n", e.what());
    status = 1;
  }
  std::error_code ec;
  std::filesystem::remove_all(o.scratch_dir, ec);
  if (status != 0 || o.calibrate) return status;

  std::vector<Metric> declared;
  for (const Metric& m : rep.metrics) {
    if (is_end_to_end(m.name) != o.trace) declared.push_back(m);
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              rep.correct ? "true" : "false",
              static_cast<long long>(rep.attempted),
              static_cast<long long>(rep.failed),
              metrics_json(declared, false).c_str());
  return rep.correct && rep.failed == 0 ? 0 : 1;
}
