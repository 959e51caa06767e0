// Chaos sweep (DESIGN.md §15): every registered fault site is armed
// against a LIVE, watchdog-enabled service and the same liveness
// invariants are asserted each time — every request terminates with an
// honest status, the service answers a clean probe after the fault is
// disarmed, and shutdown leaks zero workers. bench_chaos runs the full
// site × axis cross-product and emits BENCH_chaos.json; this suite is
// the ctest-shaped core of it.
//
// Naming: the ChaosLite* tests are the cheap deterministic subset the
// sanitizer CI runs (`ctest -L chaos -R ChaosLite`); the full sweep
// iterates fault::FaultInjector::list_sites() so a new site can never
// be added without being chaos-tested (the sweep picks it up by
// construction).
#include "polymg/service/service.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <string>
#include <vector>

#include "polymg/common/fault.hpp"
#include "polymg/obs/metrics.hpp"
#include "polymg/obs/trace.hpp"
#include "polymg/opt/compile.hpp"
#include "polymg/solvers/guarded.hpp"

namespace polymg::service {
namespace {

using solvers::CycleConfig;
using solvers::PoissonProblem;

class ChaosSweep : public ::testing::Test {
protected:
  void SetUp() override {
    fault::FaultInjector::instance().reset();
    // A wedged injected toolchain must resolve within the test, not the
    // default 10 s compile budget.
    setenv("POLYMG_JIT_TIMEOUT_MS", "300", 1);
  }
  void TearDown() override {
    fault::FaultInjector::instance().reset();
    unsetenv("POLYMG_JIT_TIMEOUT_MS");
    if (obs::TraceSession::active()) obs::TraceSession::stop();
  }
};

CycleConfig small2d(poly::index_t n = 31) {
  CycleConfig cfg;
  cfg.ndim = 2;
  cfg.n = n;
  cfg.levels = 3;
  cfg.n2 = 20;
  return cfg;
}

SolveRequest make_req(const std::string& tenant) {
  SolveRequest req;
  req.cfg = small2d();
  req.opts = opt::CompileOptions::for_variant(opt::Variant::OptPlus, 2);
  const PoissonProblem p = PoissonProblem::manufactured(2, req.cfg.n);
  req.rhs = p.f.clone();
  req.rel_tol = 1e-8;
  req.tenant = tenant;
  return req;
}

/// Watchdog-enabled chaos service. stall_timeout is generous enough
/// that a cold compile or an oracle recompile (both legitimately freeze
/// the heartbeat) never reads as a stall, while an injected solve.stall
/// (uncooperative, 60 s) still escalates to worker replacement within
/// ~0.5 s. A checkpoint every cycle gives solve.crash and
/// checkpoint.corrupt a snapshot to act on.
ServiceConfig chaos_config() {
  ServiceConfig cfg;
  cfg.workers = 2;
  cfg.guard.checkpoint_cadence = 1;
  cfg.queue_capacity = 16;
  cfg.stall_timeout_ms = 150.0;
  cfg.watchdog_poll_ms = 5.0;
  cfg.stall_fault_ms = 60000.0;
  cfg.shutdown_drain_ms = 10000.0;
  cfg.shutdown_kill_grace_ms = 1000.0;
  return cfg;
}

/// Terminal statuses a chaos request may honestly end with. Anything
/// else — or a wait() that never returns — is a liveness bug.
bool honest_terminal(ErrorCode code) {
  switch (code) {
    case ErrorCode::Generic:           // served (converged or ladder-exhausted)
    case ErrorCode::Overloaded:        // shed / resource-exhausted
    case ErrorCode::DeadlineExceeded:
    case ErrorCode::Cancelled:
    case ErrorCode::SolveStalled:
    case ErrorCode::WorkerLost:
      return true;
    default:
      return false;
  }
}

/// One chaos round: arm `site` for `count` firings, run a small request
/// burst, assert every request terminates honestly, then (fault gone)
/// assert the service still answers and shuts down without leaking.
void run_site(const std::string& site, long count, int burst = 3) {
  SCOPED_TRACE("site " + site);
  SolveService svc(chaos_config());

  // Warm one plan through admission first so the burst exercises the
  // serving path, not cold-compile latency, under the watchdog.
  {
    const auto warm = svc.submit(make_req("warm"));
    ASSERT_TRUE(warm.admitted);
    const SolveResult res = svc.wait(warm.ticket);
    ASSERT_TRUE(res.converged) << to_string(res.status);
  }

  {
    fault::ScopedFault fault(site, count);
    std::vector<std::uint64_t> tickets;
    for (int i = 0; i < burst; ++i) {
      const auto adm = svc.submit(make_req("chaos"));
      if (adm.admitted) tickets.push_back(adm.ticket);
    }
    ASSERT_FALSE(tickets.empty());
    for (const std::uint64_t t : tickets) {
      const SolveResult res = svc.wait(t);  // liveness: must return
      EXPECT_TRUE(honest_terminal(res.status))
          << "ticket " << t << " ended as " << to_string(res.status);
    }
  }

  // The fault is disarmed: the service must answer a clean probe.
  const auto probe = svc.submit(make_req("probe"));
  ASSERT_TRUE(probe.admitted);
  const SolveResult res = svc.wait(probe.ticket);
  EXPECT_TRUE(res.converged) << "post-fault probe: " << to_string(res.status);

  svc.shutdown();
  EXPECT_EQ(svc.leaked_workers(), 0);
}

// ---------------------------------------------------------------------
// ChaosLite: the cheap deterministic subset the sanitizer CI runs.
// ---------------------------------------------------------------------

// The service-layer sites, one firing each: transient reject (retry
// ladder), injected slowness (deadline machinery), allocation failure
// (Overloaded + retry-after) and a solve crash (checkpoint restart).
TEST_F(ChaosSweep, ChaosLiteServiceSites) {
  run_site(fault::kServiceReject, 1);
  run_site(fault::kServiceSlow, 1);
  run_site(fault::kAllocFail, 1);
  run_site(fault::kSolveCrash, 1);
  EXPECT_GE(fault::FaultInjector::instance().fired(fault::kSolveCrash), 1);
}

// The watchdog escalation under an uncooperative stall, end to end:
// detection, worker replacement, post-fault probe, clean shutdown.
TEST_F(ChaosSweep, ChaosLiteStallEscalation) {
  const std::uint64_t lost0 =
      obs::Metrics::instance().counter("service.workers_lost").value();
  run_site(fault::kSolveStall, 1);
  EXPECT_GE(obs::Metrics::instance().counter("service.workers_lost").value(),
            lost0 + 1);
}

// Data-corruption sites: the guarded oracle absorbs them and the
// requests still end honestly (typically converged via fallback).
TEST_F(ChaosSweep, ChaosLiteCorruptionSites) {
  run_site(fault::kKernelOutput, 1);
  run_site(fault::kKernelBitflip, 1);
}

// ---------------------------------------------------------------------
// The full sweep: every site the injector knows, two firings each.
// ---------------------------------------------------------------------

// Sites the serving path never checks (the JIT compile and disk-cache
// sites on an all-linear plan) stay armed without firing — the liveness
// invariants must hold all the same.
TEST_F(ChaosSweep, AllSitesTerminateAndServiceAnswers) {
  const std::vector<std::string> sites =
      fault::FaultInjector::list_sites();
  ASSERT_GE(sites.size(), 12u);
  for (const std::string& site : sites) {
    run_site(site, /*count=*/2, /*burst=*/2);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// Supervision activity is observable: a stall round under a trace
// session leaves StallDetected / WorkerLost events for the post-mortem.
TEST_F(ChaosSweep, SupervisionEventsAreTraced) {
  // One worker keeps the post-mortem trace small.
  ServiceConfig cfg = chaos_config();
  cfg.workers = 1;
  obs::TraceSession::start();
  {
    SolveService svc(cfg);
    const auto warm = svc.submit(make_req("warm"));
    ASSERT_TRUE(warm.admitted);
    (void)svc.wait(warm.ticket);
    fault::ScopedFault stall(fault::kSolveStall, 1);
    const auto adm = svc.submit(make_req("chaos"));
    ASSERT_TRUE(adm.admitted);
    const SolveResult res = svc.wait(adm.ticket);
    EXPECT_TRUE(res.status == ErrorCode::SolveStalled ||
                res.status == ErrorCode::WorkerLost)
        << to_string(res.status);
    svc.shutdown();
    EXPECT_EQ(svc.leaked_workers(), 0);
  }
  obs::TraceSession::stop();
  bool saw_stall = false;
  bool saw_lost = false;
  for (const obs::TraceEvent& e : obs::TraceSession::snapshot()) {
    saw_stall = saw_stall || e.kind == obs::EventKind::StallDetected;
    saw_lost = saw_lost || e.kind == obs::EventKind::WorkerLost;
  }
  EXPECT_TRUE(saw_stall);
  EXPECT_TRUE(saw_lost);
}

}  // namespace
}  // namespace polymg::service
