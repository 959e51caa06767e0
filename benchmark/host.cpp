#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <thread>

#include "bench.hpp"
#include "polymg/common/parallel.hpp"

namespace pmgbench {

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

/// Last-level cache size from sysfs ("307200K"); 0 when absent.
std::int64_t l3_bytes() {
  std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index3/size");
  std::string s;
  if (!(in >> s) || s.empty()) return 0;
  char* end = nullptr;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (v <= 0) return 0;
  switch (*end) {
    case 'K': return v << 10;
    case 'M': return v << 20;
    case 'G': return v << 30;
    default: return v;
  }
}

}  // namespace

HostInfo host_info() {
  HostInfo h;
  h.nproc = static_cast<int>(std::thread::hardware_concurrency());
  h.omp_threads = polymg::max_threads();
  h.cpu_model = cpu_model();
  h.l3_bytes = l3_bytes();
  h.compiler = POLYMG_CXX_COMPILER;
  const char* rev = std::getenv("POLYMG_BENCH_REVISION");
  h.revision = rev != nullptr && *rev != '\0' ? rev : "unknown";
  return h;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double triad_gbs(std::size_t doubles, int threads, int reps) {
  std::unique_ptr<double[]> a(new double[doubles]);
  std::unique_ptr<double[]> b(new double[doubles]);
  std::unique_ptr<double[]> c(new double[doubles]);
  const auto n = static_cast<std::int64_t>(doubles);
  // First touch at the measured thread count, so pages land where the
  // static schedule will read them.
#pragma omp parallel for num_threads(threads) schedule(static)
  for (std::int64_t i = 0; i < n; ++i) {
    a[i] = 0.0;
    b[i] = 1.0;
    c[i] = 2.0;
  }
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    const double s = 0.5 + r;
    const auto t0 = Clock::now();
#pragma omp parallel for num_threads(threads) schedule(static)
    for (std::int64_t i = 0; i < n; ++i) a[i] = b[i] + s * c[i];
    const double sec = ms_between(t0, Clock::now()) / 1e3;
    best = std::max(best, 3.0 * 8.0 * static_cast<double>(doubles) / sec / 1e9);
  }
  // Keep the stores observable.
  volatile double sink = a[static_cast<std::size_t>(n / 2)];
  (void)sink;
  return best;
}

double measure_triad(const Options& opt, const HostInfo& host, Report& rep) {
  constexpr std::int64_t kMiB = 1 << 20;
  const std::int64_t l3 = host.l3_bytes > 0 ? host.l3_bytes : 32 * kMiB;
  const std::int64_t array_bytes = opt.quick ? 16 * kMiB : 4 * l3;
  const auto doubles = static_cast<std::size_t>(array_bytes / 8);
  const double gbs = triad_gbs(doubles, host.omp_threads, 5);
  const double gbs1 = triad_gbs(doubles, 1, 3);
  std::printf("host triad: 3 arrays x %.0f MiB each, L3 %.0f MiB%s\n",
              static_cast<double>(array_bytes) / kMiB,
              static_cast<double>(l3) / kMiB,
              host.l3_bytes > 0 ? "" : " (assumed: sysfs has no L3 entry)");
  rep.set("host.triad_gbs", gbs, "GB/s", 5);
  rep.set("host.triad_gbs_1t", gbs1, "GB/s", 3);
  return gbs;
}

}  // namespace pmgbench
