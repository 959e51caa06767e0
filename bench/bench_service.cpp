// Solve-service throughput and tail latency (DESIGN.md §10): what does
// the deadline-aware front end deliver when the host is healthy, and
// what does it degrade to when it is oversubscribed and flaky?
//
//   1. Steady state — a request stream against a warm plan cache at the
//      configured worker count: solves/sec, p50/p95/p99 latency, and a
//      zero-recompile check (the "opt.compiles" counter must not move
//      once every signature has been compiled once).
//   2. Overload — the same stream submitted as a 2x-oversubscribed
//      burst, first clean and then with 10% service.slow stalls
//      injected. Rejected requests must carry a positive retry-after
//      hint, deadline overshoot must stay within one tile-stage granule
//      (measured generously as the injected stall + one scheduling
//      quantum), and faulty throughput must stay within 10% of the
//      clean overload run.
//
// Per-phase latency percentiles come from the service's lock-free
// service.e2e_ns histogram (reset between phases); the sorted
// per-request samples are kept as a cross-check — the histogram
// quantile must agree with the exact nearest-rank order statistic to
// within one bucket width (~6% relative), which the JSON records and CI
// asserts. The run also self-scrapes its own Prometheus endpoint
// (ephemeral loopback port) and writes the payload next to the JSON.
//
// Emits BENCH_service.json (a single object; the panels are derived
// service metrics, not per-series timings). Every printed bar is
// enforced: the binary exits nonzero and names each missed bar on stderr.
//
// Flags: --workers N, --requests R, --deadline-ms D, --json FILE,
//        --prom FILE (Prometheus self-scrape payload),
//        --fault SPEC (extra sites on top of panel 2's injection).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "gbench.hpp"
#include "polymg/obs/exposition.hpp"
#include "polymg/obs/metrics.hpp"
#include "polymg/service/service.hpp"

namespace polymg::bench {
namespace {

using service::ServiceConfig;
using service::SolveRequest;
using service::SolveResult;
using service::SolveService;

const char* kTenants[] = {"alice", "bob", "carol"};

CycleConfig bench_cfg() {
  CycleConfig cfg;
  cfg.ndim = 2;
  cfg.n = 255;
  cfg.levels = 5;
  return cfg;
}

SolveRequest make_request(const grid::Buffer& rhs, int i,
                          double deadline_ms) {
  SolveRequest req;
  req.cfg = bench_cfg();
  req.opts = CompileOptions::for_variant(Variant::OptPlus, req.cfg.ndim);
  req.rhs = rhs.clone();
  req.rel_tol = 1e-8;
  req.tenant = kTenants[i % 3];
  req.deadline_ms = deadline_ms;
  return req;
}

/// Everything one panel reports.
struct PhaseStats {
  double elapsed_s = 0.0;
  int submitted = 0;
  int served = 0;        // status Generic (solved, converged or not)
  int rejected = 0;
  int deadline_hits = 0;
  int degraded = 0;
  int retries = 0;
  bool retry_after_ok = true;  // every reject carried a positive hint
  double max_overshoot_ms = 0.0;
  std::vector<double> latency_ms;  // e2e (admission->completion) per request
  // Histogram-derived percentiles (service.e2e_ns, reset per phase) and
  // the bucket width carried by the p99 read — its error bound.
  double hist_p50_ms = 0.0;
  double hist_p95_ms = 0.0;
  double hist_p99_ms = 0.0;
  double hist_p99_bucket_ms = 0.0;

  double solves_per_sec() const {
    return elapsed_s > 0 ? served / elapsed_s : 0.0;
  }
  /// Exact nearest-rank order statistic — the same convention the
  /// histogram's quantile() uses, so the two differ by at most the
  /// bucket width when computed over the same samples.
  double pct(double p) const {
    if (latency_ms.empty()) return 0.0;
    std::vector<double> s = latency_ms;
    std::sort(s.begin(), s.end());
    auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(s.size())));
    rank = std::min(std::max<std::size_t>(rank, 1), s.size());
    return s[rank - 1];
  }
  /// |histogram p99 - exact p99| <= one bucket width: the acceptance
  /// criterion CI asserts on the emitted JSON.
  bool hist_vs_sort_p99_ok() const {
    if (latency_ms.empty()) return true;
    return std::abs(hist_p99_ms - pct(99)) <= hist_p99_bucket_ms + 1e-6;
  }
};

/// Drive `requests` solves through `svc`, submitting in bursts of
/// `burst` (burst > queue capacity is the oversubscription case) and
/// draining each burst before the next.
PhaseStats run_phase(SolveService& svc, const grid::Buffer& rhs,
                     int requests, int burst, double deadline_ms) {
  PhaseStats st;
  // Per-phase histogram semantics: the registry handles are stable, so
  // resetting just the aggregate latency histograms scopes them to this
  // phase without touching counters (the zero-recompile check depends on
  // opt.compiles surviving).
  auto& m = polymg::obs::Metrics::instance();
  m.histogram("service.queue_ns").reset();
  m.histogram("service.solve_ns").reset();
  m.histogram("service.e2e_ns").reset();
  Timer t;
  int sent = 0;
  while (sent < requests) {
    const int batch = std::min(burst, requests - sent);
    std::vector<std::uint64_t> tickets;
    for (int i = 0; i < batch; ++i, ++sent) {
      ++st.submitted;
      const SolveService::Admission a =
          svc.submit(make_request(rhs, sent, deadline_ms));
      if (!a.admitted) {
        ++st.rejected;
        if (a.retry_after_ms <= 0.0) st.retry_after_ok = false;
        continue;
      }
      tickets.push_back(a.ticket);
    }
    for (const std::uint64_t ticket : tickets) {
      SolveResult res = svc.wait(ticket);
      st.latency_ms.push_back(res.e2e_ms);
      st.max_overshoot_ms =
          std::max(st.max_overshoot_ms, res.deadline_overshoot_ms);
      st.retries += res.retries;
      if (res.degraded) ++st.degraded;
      if (res.status == ErrorCode::DeadlineExceeded) {
        ++st.deadline_hits;
      } else if (res.status == ErrorCode::Generic) {
        ++st.served;
      }
    }
  }
  st.elapsed_s = t.elapsed();
  const auto& h = m.histogram("service.e2e_ns");
  st.hist_p50_ms = static_cast<double>(h.quantile(0.50)) / 1e6;
  st.hist_p95_ms = static_cast<double>(h.quantile(0.95)) / 1e6;
  st.hist_p99_ms = static_cast<double>(h.quantile(0.99)) / 1e6;
  st.hist_p99_bucket_ms =
      static_cast<double>(h.quantile_bucket_width(0.99)) / 1e6;
  return st;
}

void print_phase(const char* name, const PhaseStats& st) {
  std::printf(
      "%-18s %6.1f solves/s  p50 %7.2f ms  p95 %7.2f ms  p99 %7.2f ms "
      "(histogram, +-%.2f ms)\n"
      "%-18s sorted cross-check: p50 %7.2f ms  p95 %7.2f ms  p99 %7.2f ms"
      " [%s]\n"
      "%-18s %d/%d served, %d rejected, %d deadline, %d degraded, "
      "%d retries, max overshoot %.2f ms\n",
      name, st.solves_per_sec(), st.hist_p50_ms, st.hist_p95_ms,
      st.hist_p99_ms, st.hist_p99_bucket_ms, "", st.pct(50), st.pct(95),
      st.pct(99), st.hist_vs_sort_p99_ok() ? "OK" : "MISMATCH", "",
      st.served, st.submitted, st.rejected, st.deadline_hits, st.degraded,
      st.retries, st.max_overshoot_ms);
}

void json_phase(std::FILE* f, const char* name, const PhaseStats& st,
                bool last) {
  // p50/p95/p99_ms are the histogram reads (the production path);
  // sort_* keep the exact order statistics as the cross-check CI
  // asserts against (|p99 - sort_p99| <= p99_bucket_ms).
  std::fprintf(
      f,
      "    \"%s\": {\"submitted\": %d, \"served\": %d, \"rejected\": %d, "
      "\"deadline_hits\": %d, \"degraded\": %d, \"retries\": %d, "
      "\"solves_per_sec\": %.4f, \"p50_ms\": %.4f, \"p95_ms\": %.4f, "
      "\"p99_ms\": %.4f, \"p99_bucket_ms\": %.4f, "
      "\"sort_p50_ms\": %.4f, \"sort_p95_ms\": %.4f, "
      "\"sort_p99_ms\": %.4f, \"hist_vs_sort_p99_ok\": %s, "
      "\"max_overshoot_ms\": %.4f, "
      "\"retry_after_ok\": %s}%s\n",
      name, st.submitted, st.served, st.rejected, st.deadline_hits,
      st.degraded, st.retries, st.solves_per_sec(), st.hist_p50_ms,
      st.hist_p95_ms, st.hist_p99_ms, st.hist_p99_bucket_ms, st.pct(50),
      st.pct(95), st.pct(99),
      st.hist_vs_sort_p99_ok() ? "true" : "false", st.max_overshoot_ms,
      st.retry_after_ok ? "true" : "false", last ? "" : ",");
}

}  // namespace
}  // namespace polymg::bench

int main(int argc, char** argv) {
  using namespace polymg::bench;
  const polymg::Options opts = parse_bench_options(argc, argv);
  MetricsFromOptions metrics(opts);
  const int workers = static_cast<int>(opts.get_int("workers", 2));
  const int requests = static_cast<int>(opts.get_int("requests", 24));
  double deadline_ms = deadline_ms_from_options(opts);
  if (deadline_ms == 0.0) deadline_ms = 2000.0;  // generous steady-state

  ServiceConfig cfg;
  cfg.workers = workers;
  cfg.queue_capacity = static_cast<std::size_t>(2 * workers);
  cfg.tenant_quota = 0;  // the burst driver is one client; quotas off
  cfg.slow_fault_ms = 15.0;
  cfg.metrics_port = 0;  // ephemeral loopback port; self-scraped below

  const auto rhs_src =
      polymg::solvers::PoissonProblem::random_rhs(2, bench_cfg().n, 42);
  auto& compiles = polymg::obs::Metrics::instance().counter("opt.compiles");

  // ---- Panel 1: steady state + zero-recompile check. ----------------
  SolveService svc(cfg);
  {
    // Warm: one request compiles the signature's plan into the cache.
    const auto a = svc.submit(make_request(rhs_src.f, 0, 0.0));
    if (a.admitted) (void)svc.wait(a.ticket);
  }
  const long long compiles_before = compiles.value();
  const PhaseStats steady =
      run_phase(svc, rhs_src.f, requests, workers, deadline_ms);
  const long long recompiles = compiles.value() - compiles_before;
  print_phase("steady", steady);
  std::printf("%-18s plan cache: %zu plan(s), %lld hit(s), "
              "%lld recompile(s)%s\n",
              "", svc.plans().size(),
              static_cast<long long>(svc.plans().hits()), recompiles,
              recompiles == 0 ? " [OK: compile once, serve many]"
                              : " [FAIL: cache hit recompiled]");

  // ---- Panel 2: 2x-oversubscribed burst, clean then faulty. ---------
  const int burst = static_cast<int>(2 * cfg.queue_capacity);
  // Tight enough that the oversubscribed tail actually hits it — the
  // overshoot bar is only meaningful if some requests trip mid-solve.
  const double tight_ms = std::min(deadline_ms, 150.0);
  const PhaseStats over_clean =
      run_phase(svc, rhs_src.f, requests, burst, tight_ms);
  print_phase("overload/clean", over_clean);

  auto& fi = polymg::fault::FaultInjector::instance();
  fi.arm(polymg::fault::kServiceSlow, /*count=*/-1, /*probability=*/0.10,
         0xbead);
  const PhaseStats over_fault =
      run_phase(svc, rhs_src.f, requests, burst, tight_ms);
  fi.reset();
  print_phase("overload/fault", over_fault);

  const double tput_ratio =
      over_clean.solves_per_sec() > 0
          ? over_fault.solves_per_sec() / over_clean.solves_per_sec()
          : 0.0;
  // One tile-stage granule at this size is well under the injected
  // stall; the generous acceptance bound is stall + 5 ms scheduling
  // quantum.
  const double overshoot_bound_ms = cfg.slow_fault_ms + 5.0;
  std::printf(
      "faulty/clean throughput %.2fx (bar: >= 0.90), max overshoot "
      "%.2f ms (bar: <= %.1f ms), retry-after hints %s\n",
      tput_ratio, over_fault.max_overshoot_ms, overshoot_bound_ms,
      over_clean.retry_after_ok && over_fault.retry_after_ok ? "all positive"
                                                            : "MISSING");

  // ---- Self-scrape: hit the service's own Prometheus endpoint while it
  // ---- is still up and keep the payload as a CI artifact. ------------
  bool scrape_ok = false;
  const std::string prom_path = opts.get("prom", "METRICS_service.prom");
  if (svc.metrics_running() && svc.metrics_port() > 0) {
    const std::string payload =
        polymg::obs::ScrapeEndpoint::http_get_local(svc.metrics_port());
    // The scrape must carry the latency histogram series the endpoint
    // exists for; a histogram renders at least one +Inf bucket.
    scrape_ok =
        payload.find("service_e2e_ns_bucket{le=\"+Inf\"}") !=
            std::string::npos &&
        payload.find("# TYPE service_e2e_ns histogram") != std::string::npos;
    if (!prom_path.empty()) {
      std::ofstream os(prom_path);
      os << payload;
      std::printf("scraped 127.0.0.1:%d/metrics -> %s (%zu bytes) [%s]\n",
                  svc.metrics_port(), prom_path.c_str(), payload.size(),
                  scrape_ok ? "OK" : "MISSING SERIES");
    }
  } else {
    std::printf("metrics endpoint unavailable — scrape skipped\n");
  }

  svc.shutdown();

  // ---- JSON ---------------------------------------------------------
  const std::string json = opts.get("json", "BENCH_service.json");
  if (!json.empty()) {
    std::FILE* f = std::fopen(json.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"service\",\n");
    std::fprintf(f, "  \"workers\": %d,\n  \"requests\": %d,\n", workers,
                 requests);
    std::fprintf(f, "  \"deadline_ms\": %.1f,\n", deadline_ms);
    std::fprintf(f, "  \"recompiles_after_warm\": %lld,\n", recompiles);
    std::fprintf(f, "  \"throughput_ratio_fault_vs_clean\": %.4f,\n",
                 tput_ratio);
    std::fprintf(f, "  \"overshoot_bound_ms\": %.1f,\n", overshoot_bound_ms);
    std::fprintf(f, "  \"scrape_ok\": %s,\n", scrape_ok ? "true" : "false");
    std::fprintf(f, "  \"phases\": {\n");
    json_phase(f, "steady", steady, false);
    json_phase(f, "overload_clean", over_clean, false);
    json_phase(f, "overload_fault", over_fault, true);
    std::fprintf(f, "  }\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json.c_str());
  }

  std::vector<std::string> missed;
  const auto bar = [&](bool ok, const std::string& what) {
    if (!ok) missed.push_back(what);
  };
  bar(recompiles == 0, "zero recompiles after warm-up");
  bar(tput_ratio >= 0.90, "faulty/clean throughput >= 0.90");
  for (const auto& [name, st] :
       {std::pair<std::string, const PhaseStats*>{"steady", &steady},
        {"overload/clean", &over_clean},
        {"overload/fault", &over_fault}}) {
    bar(st->max_overshoot_ms <= overshoot_bound_ms,
        name + " max overshoot <= overshoot bound");
    bar(st->retry_after_ok, name + " retry-after hints all positive");
    bar(st->hist_vs_sort_p99_ok(),
        name + " histogram p99 within one bucket of sorted p99");
  }
  bar(scrape_ok, "self-scrape carries the service_e2e_ns histogram");
  for (const std::string& m : missed) {
    std::fprintf(stderr, "bench_service: bar missed: %s\n", m.c_str());
  }
  return missed.empty() ? 0 : 1;
}
