// Chaos sweep driver (DESIGN.md §15): every fault::FaultInjector site
// armed against a LIVE watchdog-enabled SolveService, crossed with the
// secondary axes {jit on/off, cold/warm injection timing}. For each run
// the liveness
// invariants are checked — every request terminates with an honest
// terminal status, the service answers a clean probe after the fault is
// disarmed, and shutdown leaks zero workers — and the per-site outcome
// histogram plus the watchdog's stall-detection latency are emitted to
// BENCH_chaos.json (the CI bench-smoke job asserts zero stuck requests
// and zero leaked workers from it).
//
// Default mode rotates the secondary axes across sites (one run per
// site); --full runs the whole site × axis cross-product. Axis caveat,
// so the matrix is read honestly: the service serves constant-coefficient
// Poisson plans, which are all-linear: JitMode::On binds no kernels, so
// the jit.* and cache.enospc sites never fire in-service (their firing
// path is covered by test_jit_sandbox); armed-but-silent sites must
// still leave the service fully live. Every other site fires: the
// service checkpoints every cycle, so solve.crash and checkpoint.corrupt
// have a snapshot to act on.
//
// Flags: --full, --burst N, --reps N, --json FILE.
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "gbench.hpp"
#include "polymg/common/fault.hpp"
#include "polymg/obs/metrics.hpp"
#include "polymg/service/service.hpp"

namespace polymg::bench {
namespace {

using service::ServiceConfig;
using service::SolveRequest;
using service::SolveResult;
using service::SolveService;
using solvers::CycleConfig;
using solvers::PoissonProblem;

struct Axes {
  bool jit_on = false;
  bool cold = false;  ///< arm before the first request (vs after warm-up)
};

struct RunOutcome {
  std::string site;
  Axes axes;
  int requests = 0;
  int terminated = 0;  ///< wait() calls that returned a terminal status
  std::map<std::string, int> by_status;
  bool answered_after = false;
  int leaked_workers = 0;
  long fired = 0;
  std::uint64_t stalls_detected = 0;  ///< delta across the run
  std::uint64_t workers_lost = 0;     ///< delta across the run
};

std::uint64_t ctr(const char* name) {
  return obs::Metrics::instance().counter(name).value();
}

CycleConfig small2d() {
  CycleConfig cfg;
  cfg.ndim = 2;
  cfg.n = 31;
  cfg.levels = 3;
  cfg.n2 = 20;
  return cfg;
}

SolveRequest make_req(const Axes& a, const std::string& tenant) {
  SolveRequest req;
  req.cfg = small2d();
  req.opts = opt::CompileOptions::for_variant(opt::Variant::OptPlus, 2);
  req.opts.jit = a.jit_on ? opt::JitMode::On : opt::JitMode::Off;
  const PoissonProblem p = PoissonProblem::manufactured(2, req.cfg.n);
  req.rhs = p.f.clone();
  req.rel_tol = 1e-8;
  req.tenant = tenant;
  return req;
}

ServiceConfig chaos_config() {
  ServiceConfig cfg;
  cfg.workers = 2;
  cfg.queue_capacity = 16;
  cfg.guard.checkpoint_cadence = 1;
  cfg.stall_timeout_ms = 150.0;  // cold compiles must not read as stalls
  cfg.watchdog_poll_ms = 5.0;
  cfg.stall_fault_ms = 60000.0;  // uncooperative: only escalation ends it
  cfg.shutdown_drain_ms = 10000.0;
  cfg.shutdown_kill_grace_ms = 1000.0;
  return cfg;
}

/// One chaos run: service up, fault armed (cold: before any request;
/// warm: after one clean solve), burst submitted and fully waited,
/// fault disarmed, clean probe, shutdown. Every wait() that returns
/// counts toward `terminated`; a wait that never returned would hang
/// the driver — which the CI job's timeout converts into a failure.
RunOutcome run_site(const std::string& site, const Axes& axes, int burst) {
  RunOutcome out;
  out.site = site;
  out.axes = axes;
  const std::uint64_t stalls0 = ctr("service.stalls_detected");
  const std::uint64_t lost0 = ctr("service.workers_lost");

  SolveService svc(chaos_config());
  auto& fi = fault::FaultInjector::instance();

  if (!axes.cold) {
    const auto warm = svc.submit(make_req(axes, "warm"));
    if (warm.admitted) (void)svc.wait(warm.ticket);
  }

  // The injector keeps counting across re-arms: report this run's own
  // firings, not the running total of earlier runs of the site.
  const long fired0 = fi.fired(site);
  fi.arm(site, /*count=*/2);
  std::vector<std::uint64_t> tickets;
  for (int i = 0; i < burst; ++i) {
    const auto adm = svc.submit(make_req(axes, "chaos"));
    if (adm.admitted) {
      tickets.push_back(adm.ticket);
    } else {
      ++out.by_status["shed_at_admission"];
      ++out.terminated;  // a reject IS a terminal answer
    }
    ++out.requests;
  }
  for (const std::uint64_t t : tickets) {
    const SolveResult res = svc.wait(t);
    ++out.terminated;
    ++out.by_status[to_string(res.status)];
  }
  out.fired = fi.fired(site) - fired0;
  fi.disarm(site);

  const auto probe = svc.submit(make_req(axes, "probe"));
  ++out.requests;
  if (probe.admitted) {
    const SolveResult res = svc.wait(probe.ticket);
    ++out.terminated;
    out.answered_after = res.converged;
  }

  svc.shutdown();
  out.leaked_workers = svc.leaked_workers();
  out.stalls_detected = ctr("service.stalls_detected") - stalls0;
  out.workers_lost = ctr("service.workers_lost") - lost0;
  return out;
}

const char* b2s(bool b) { return b ? "true" : "false"; }

}  // namespace
}  // namespace polymg::bench

int main(int argc, char** argv) {
  using namespace polymg::bench;
  const polymg::Options opts = parse_bench_options(argc, argv);
  const bool full = opts.has("full");
  const int burst = static_cast<int>(opts.get_int("burst", 3));
  const int reps = static_cast<int>(opts.get_int("reps", 1));

  const std::vector<std::string> sites =
      polymg::fault::FaultInjector::list_sites();
  polymg::fault::FaultInjector::instance().reset();

  // Axis combinations: the full cross-product, or one rotated pick per
  // site (every axis value still appears across the default sweep).
  std::vector<Axes> combos;
  if (full) {
    for (int j = 0; j < 2; ++j) {
      for (int t = 0; t < 2; ++t) combos.push_back(Axes{j == 1, t == 1});
    }
  }

  std::vector<RunOutcome> runs;
  int stuck_requests = 0;
  int leaked_workers = 0;
  int unanswered = 0;
  std::size_t ix = 0;
  for (int rep = 0; rep < reps; ++rep) {
    for (const std::string& site : sites) {
      const std::vector<Axes> picks =
          full ? combos
               : std::vector<Axes>{Axes{(ix & 1) != 0, (ix & 2) != 0}};
      ++ix;
      for (const Axes& a : picks) {
        const RunOutcome out = run_site(site, a, burst);
        stuck_requests += out.requests - out.terminated;
        leaked_workers += out.leaked_workers;
        unanswered += out.answered_after ? 0 : 1;
        std::printf(
            "%-20s jit=%-3s timing=%-4s fired=%ld "
            "terminated=%d/%d answered=%s leaked=%d stalls=%llu lost=%llu\n",
            site.c_str(), a.jit_on ? "on" : "off", a.cold ? "cold" : "warm",
            out.fired, out.terminated, out.requests,
            out.answered_after ? "yes" : "NO", out.leaked_workers,
            static_cast<unsigned long long>(out.stalls_detected),
            static_cast<unsigned long long>(out.workers_lost));
        runs.push_back(out);
      }
    }
  }

  // Stall-detection latency: the watchdog records each stage-1 firing's
  // observed heartbeat freeze into service.stall_detect_ns.
  const auto& detect =
      polymg::obs::Metrics::instance().histogram("service.stall_detect_ns");
  std::printf("\nchaos sweep: %zu runs, %d stuck request(s), %d leaked "
              "worker(s), %d unanswered probe(s)\n",
              runs.size(), stuck_requests, leaked_workers, unanswered);
  if (detect.count() > 0) {
    std::printf("stall detection latency: %lld samples, p50 %.1f ms, "
                "p95 %.1f ms\n",
                static_cast<long long>(detect.count()),
                static_cast<double>(detect.quantile(0.5)) / 1e6,
                static_cast<double>(detect.quantile(0.95)) / 1e6);
  }

  if (const std::string json = opts.get("json", ""); !json.empty()) {
    std::FILE* f = std::fopen(json.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"chaos\",\n  \"full\": %s,\n"
                 "  \"burst\": %d,\n  \"sites\": %zu,\n",
                 b2s(full), burst, sites.size());
    std::fprintf(f, "  \"runs\": [\n");
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const RunOutcome& r = runs[i];
      std::fprintf(f,
                   "    {\"site\": \"%s\", \"jit\": %s, "
                   "\"cold\": %s, \"fired\": %ld, "
                   "\"requests\": %d, \"terminated\": %d, "
                   "\"answered_after\": %s, \"leaked_workers\": %d, "
                   "\"stalls_detected\": %llu, \"workers_lost\": %llu, "
                   "\"outcomes\": {",
                   r.site.c_str(), b2s(r.axes.jit_on), b2s(r.axes.cold),
                   r.fired,
                   r.requests, r.terminated, b2s(r.answered_after),
                   r.leaked_workers,
                   static_cast<unsigned long long>(r.stalls_detected),
                   static_cast<unsigned long long>(r.workers_lost));
      bool first = true;
      for (const auto& [status, n] : r.by_status) {
        std::fprintf(f, "%s\"%s\": %d", first ? "" : ", ", status.c_str(), n);
        first = false;
      }
      std::fprintf(f, "}}%s\n", i + 1 < runs.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f,
                 "  \"stall_detect\": {\"samples\": %lld, \"p50_ms\": %.3f, "
                 "\"p95_ms\": %.3f},\n",
                 static_cast<long long>(detect.count()),
                 static_cast<double>(detect.quantile(0.5)) / 1e6,
                 static_cast<double>(detect.quantile(0.95)) / 1e6);
    std::fprintf(f,
                 "  \"totals\": {\"runs\": %zu, \"stuck_requests\": %d, "
                 "\"leaked_workers\": %d, \"unanswered_probes\": %d}\n}\n",
                 runs.size(), stuck_requests, leaked_workers, unanswered);
    std::fclose(f);
    std::printf("wrote %s\n", json.c_str());
  }

  // Liveness is the contract: fail loudly, not just in the JSON.
  return (stuck_requests == 0 && leaked_workers == 0 && unanswered == 0) ? 0
                                                                         : 1;
}
