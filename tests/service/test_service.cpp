// The deadline-aware solve service end to end: cooperative cancellation
// at executor and solver level (with the bit-exactness guarantee for the
// best-effort iterate), plan-cache hit behaviour, admission control,
// retry/backoff under injected faults, and the overload degradation
// ladder (DESIGN.md §10).
#include "polymg/service/service.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstring>
#include <thread>

#include "polymg/common/cancel.hpp"
#include "polymg/common/fault.hpp"
#include "polymg/common/parallel.hpp"
#include "polymg/obs/exposition.hpp"
#include "polymg/obs/metrics.hpp"
#include "polymg/obs/trace.hpp"
#include "polymg/opt/compile.hpp"
#include "polymg/runtime/executor.hpp"
#include "polymg/solvers/metrics.hpp"

namespace polymg::service {
namespace {

using solvers::CycleConfig;
using solvers::GuardPolicy;
using solvers::PoissonProblem;
using solvers::RungKind;
using solvers::SolveReport;

class ServiceTest : public ::testing::Test {
protected:
  void SetUp() override { fault::FaultInjector::instance().reset(); }
  void TearDown() override {
    fault::FaultInjector::instance().reset();
    if (obs::TraceSession::active()) obs::TraceSession::stop();
  }
};

CycleConfig small2d(poly::index_t n = 63) {
  CycleConfig cfg;
  cfg.ndim = 2;
  cfg.n = n;
  cfg.levels = 4;
  cfg.n2 = 20;
  return cfg;
}

SolveRequest make_req(const CycleConfig& cfg, const std::string& tenant,
                      double rel_tol = 1e-8, double deadline_ms = 0.0) {
  SolveRequest req;
  req.cfg = cfg;
  req.opts = opt::CompileOptions::for_variant(opt::Variant::OptPlus, cfg.ndim);
  const PoissonProblem p = PoissonProblem::manufactured(cfg.ndim, cfg.n);
  req.rhs = p.f.clone();
  req.rel_tol = rel_tol;
  req.tenant = tenant;
  req.deadline_ms = deadline_ms;
  return req;
}

/// A request that cannot converge and runs for many seconds unless
/// cancelled — the worker-blocking tool of the admission tests.
SolveRequest blocker_req(const std::string& tenant) {
  SolveRequest req = make_req(small2d(255), tenant, /*rel_tol=*/1e-300);
  return req;
}

/// ServiceConfig whose guard never ends a blocker early (the monitor's
/// stagnation classifier would otherwise finish it within ~20 cycles).
ServiceConfig patient_config() {
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.guard.max_cycles = 100000;
  cfg.guard.stagnation_window = 100000;
  return cfg;
}

void spin_until_drained(SolveService& svc) {
  while (svc.queue_depth() > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// ---------------------------------------------------------------------
// Cancellation token plumbing, bottom up.

TEST_F(ServiceTest, ExecutorHonorsCancelToken) {
  const CycleConfig cfg = small2d();
  const auto opts = opt::CompileOptions::for_variant(opt::Variant::OptPlus, 2);
  runtime::Executor ex(opt::compile(solvers::build_cycle(cfg), opts));
  PoissonProblem p = PoissonProblem::manufactured(2, cfg.n);
  const std::vector<grid::View> ext = {p.v_view(), p.f_view()};

  CancelToken tok;
  ex.set_cancel_token(&tok);
  tok.cancel();
  try {
    ex.run(ext);
    FAIL() << "cancelled run must throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::Cancelled);
  }

  tok.reset();
  tok.set_deadline_after_ns(-1);  // already expired
  try {
    ex.run(ext);
    FAIL() << "expired-deadline run must throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::DeadlineExceeded);
  }

  // The abort is per-run state: clearing the token makes the same
  // executor serve again (workers reuse sessions after a trip).
  tok.reset();
  EXPECT_NO_THROW(ex.run(ext));
  ex.set_cancel_token(nullptr);
  EXPECT_NO_THROW(ex.run(ext));
}

// A deadline that trips mid-solve stops it with status DeadlineExceeded
// and leaves EXACTLY the iterate of the last completed cycle in p.v —
// bit-for-bit the same as running that many cycles undisturbed, at any
// thread count (the aborted cycle never reaches its copy-out, and
// completed cycles are bit-exact by the executor's determinism
// guarantee).
TEST_F(ServiceTest, DeadlineStopKeepsBitExactBestIterate) {
  const CycleConfig cfg = small2d(255);
  for (const int threads : {1, max_threads()}) {
    const int prev = set_num_threads(threads);
    const auto opts =
        opt::CompileOptions::for_variant(opt::Variant::OptPlus, 2);

    PoissonProblem p = PoissonProblem::manufactured(2, cfg.n);
    CancelToken tok;
    GuardPolicy pol;
    pol.cancel = &tok;
    pol.max_cycles = 100000;
    pol.stagnation_window = 100000;
    tok.set_deadline_after_ms(25.0);
    const SolveReport rep = solvers::guarded_solve(cfg, p, 1e-300, pol,
                                                   opts);
    set_num_threads(prev);

    ASSERT_EQ(rep.status, ErrorCode::DeadlineExceeded) << rep.summary();
    EXPECT_TRUE(rep.deadline_hit);
    ASSERT_FALSE(rep.attempts.empty());
    EXPECT_EQ(rep.attempts.back().kind, RungKind::DeadlineStop);
    EXPECT_TRUE(std::isfinite(
        solvers::residual_norm(p.v_view(), p.f_view(), p.n, p.h)));

    // Reference: the same plan run for exactly the completed cycle
    // count, no deadline anywhere near it.
    PoissonProblem ref = PoissonProblem::manufactured(2, cfg.n);
    runtime::Executor ex(opt::compile(solvers::build_cycle(cfg), opts));
    const std::vector<grid::View> ext = {ref.v_view(), ref.f_view()};
    for (int c = 0; c < rep.total_cycles; ++c) {
      ex.run(ext);
      grid::copy_region(ref.v_view(), ex.output_view(0), ref.domain());
    }
    ASSERT_EQ(p.v.size(), ref.v.size());
    EXPECT_EQ(std::memcmp(p.v.data(), ref.v.data(),
                          p.v.size() * sizeof(double)),
              0)
        << "best-effort iterate diverged from the " << rep.total_cycles
        << "-cycle reference (threads=" << threads << ")";
  }
}

// ---------------------------------------------------------------------
// Plan cache.

TEST_F(ServiceTest, PlanCacheHitCompilesNothing) {
  auto& compiles = obs::Metrics::instance().counter("opt.compiles");
  PlanCache pc;
  const CycleConfig cfg = small2d();
  const auto opts = opt::CompileOptions::for_variant(opt::Variant::OptPlus, 2);

  const auto before = compiles.value();
  const auto plan1 = pc.plan_for(cfg, opts);
  EXPECT_EQ(compiles.value(), before + 1);
  const auto plan2 = pc.plan_for(cfg, opts);
  EXPECT_EQ(plan1.get(), plan2.get()) << "hit must share the plan";
  EXPECT_EQ(compiles.value(), before + 1) << "hit must not recompile";
  EXPECT_EQ(pc.hits(), 1);
  EXPECT_EQ(pc.misses(), 1);

  // A different signature is a different plan.
  const auto plan3 = pc.plan_for(small2d(31), opts);
  EXPECT_NE(plan1.get(), plan3.get());
  EXPECT_EQ(pc.size(), 2u);
}

TEST_F(ServiceTest, WarmServiceServesWithoutRecompiling) {
  ServiceConfig cfg;
  cfg.workers = 1;
  SolveService svc(cfg);
  const CycleConfig prob = small2d();

  // Warm: the first request compiles the signature's plan (exactly once,
  // through the cache) and builds the worker's session executor.
  {
    const auto a = svc.submit(make_req(prob, "warm"));
    ASSERT_TRUE(a.admitted);
    const SolveResult res = svc.wait(a.ticket);
    EXPECT_TRUE(res.converged);
  }
  auto& compiles = obs::Metrics::instance().counter("opt.compiles");
  const auto before = compiles.value();
  for (int i = 0; i < 4; ++i) {
    const auto a = svc.submit(make_req(prob, "steady"));
    ASSERT_TRUE(a.admitted);
    const SolveResult res = svc.wait(a.ticket);
    EXPECT_TRUE(res.converged) << res.report.summary();
    EXPECT_TRUE(std::isfinite(res.iterate.data()[0]));
  }
  EXPECT_EQ(compiles.value(), before)
      << "warm-signature solves must perform zero plan compilations";
}

// ---------------------------------------------------------------------
// Admission control.

TEST_F(ServiceTest, TenantQuotaRejectsWithRetryAfter) {
  ServiceConfig cfg = patient_config();
  cfg.tenant_quota = 1;
  cfg.queue_capacity = 8;
  SolveService svc(cfg);

  const auto hog = svc.submit(blocker_req("hog"));
  ASSERT_TRUE(hog.admitted);

  // Second in-flight request of the same tenant: over quota.
  const auto over = svc.submit(make_req(small2d(), "hog"));
  EXPECT_FALSE(over.admitted);
  EXPECT_EQ(over.reason, ErrorCode::Overloaded);
  EXPECT_GT(over.retry_after_ms, 0.0);

  // Another tenant is unaffected — the quota is per tenant.
  const auto guest = svc.submit(make_req(small2d(), "guest"));
  EXPECT_TRUE(guest.admitted);

  ASSERT_TRUE(svc.cancel(hog.ticket));
  EXPECT_EQ(svc.wait(hog.ticket).status, ErrorCode::Cancelled);
  EXPECT_TRUE(svc.wait(guest.ticket).converged);

  const auto stats = svc.tenant_stats();
  EXPECT_EQ(stats.at("hog").rejected, 1);
  EXPECT_EQ(stats.at("hog").cancelled, 1);
  EXPECT_EQ(stats.at("guest").admitted, 1);
}

TEST_F(ServiceTest, FullQueueShedsWithRetryAfter) {
  ServiceConfig cfg = patient_config();
  cfg.queue_capacity = 1;
  SolveService svc(cfg);

  const auto blocker = svc.submit(blocker_req("t"));
  ASSERT_TRUE(blocker.admitted);
  spin_until_drained(svc);  // the worker holds it; the queue is empty

  const auto queued = svc.submit(make_req(small2d(), "t"));
  ASSERT_TRUE(queued.admitted);
  const auto shed = svc.submit(make_req(small2d(), "t"));
  EXPECT_FALSE(shed.admitted);
  EXPECT_EQ(shed.reason, ErrorCode::Overloaded);
  EXPECT_GT(shed.retry_after_ms, 0.0);

  ASSERT_TRUE(svc.cancel(blocker.ticket));
  EXPECT_EQ(svc.wait(blocker.ticket).status, ErrorCode::Cancelled);
  EXPECT_TRUE(svc.wait(queued.ticket).converged);
}

// ---------------------------------------------------------------------
// Cancellation and deadlines through the service.

TEST_F(ServiceTest, CancellationLeavesSessionsReusable) {
  ServiceConfig cfg = patient_config();
  SolveService svc(cfg);

  const auto a = svc.submit(blocker_req("t"));
  ASSERT_TRUE(a.admitted);
  spin_until_drained(svc);
  ASSERT_TRUE(svc.cancel(a.ticket));
  const SolveResult cancelled = svc.wait(a.ticket);
  EXPECT_EQ(cancelled.status, ErrorCode::Cancelled);
  EXPECT_TRUE(cancelled.report.cancelled);
  // Best-effort iterate: present and finite.
  ASSERT_GT(cancelled.iterate.size(), 0u);
  EXPECT_TRUE(std::isfinite(cancelled.iterate.data()[0]));
  EXPECT_FALSE(svc.cancel(a.ticket)) << "finished tickets cannot cancel";

  // The same worker (same session executor, same pools) serves the next
  // request of the same signature to convergence.
  const auto b = svc.submit(blocker_req("t"));
  ASSERT_TRUE(b.admitted);
  spin_until_drained(svc);
  ASSERT_TRUE(svc.cancel(b.ticket));
  EXPECT_EQ(svc.wait(b.ticket).status, ErrorCode::Cancelled);

  const auto c = svc.submit(make_req(small2d(255), "t"));
  ASSERT_TRUE(c.admitted);
  const SolveResult ok = svc.wait(c.ticket);
  EXPECT_TRUE(ok.converged) << ok.report.summary();
}

TEST_F(ServiceTest, DeadlineWhileQueuedAbandonsWithoutSolving) {
  ServiceConfig cfg = patient_config();
  SolveService svc(cfg);

  const auto blocker = svc.submit(blocker_req("t"));
  ASSERT_TRUE(blocker.admitted);
  spin_until_drained(svc);

  // Queue time counts against the deadline: this request's whole budget
  // burns while the blocker holds the only worker.
  const auto doomed =
      svc.submit(make_req(small2d(), "t", 1e-8, /*deadline_ms=*/20.0));
  ASSERT_TRUE(doomed.admitted);
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  ASSERT_TRUE(svc.cancel(blocker.ticket));
  (void)svc.wait(blocker.ticket);

  const SolveResult res = svc.wait(doomed.ticket);
  EXPECT_EQ(res.status, ErrorCode::DeadlineExceeded);
  EXPECT_EQ(res.report.total_cycles, 0) << "must not touch a core";
  EXPECT_GT(res.deadline_overshoot_ms, 0.0);
  EXPECT_EQ(svc.tenant_stats().at("t").deadline_hits, 1);
}

// ---------------------------------------------------------------------
// Fault injection: transient rejects retry with backoff and recover.

TEST_F(ServiceTest, RetryBackoffRecoversFromInjectedReject) {
  auto& fi = fault::FaultInjector::instance();
  fi.arm(fault::kServiceReject, /*count=*/2, /*probability=*/1.0, 0xbead);

  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.max_retries = 3;
  cfg.backoff_base_ms = 0.2;
  cfg.backoff_max_ms = 2.0;
  SolveService svc(cfg);
  const auto a = svc.submit(make_req(small2d(), "t"));
  ASSERT_TRUE(a.admitted);
  const SolveResult res = svc.wait(a.ticket);
  EXPECT_EQ(fi.fired(fault::kServiceReject), 2);
  EXPECT_EQ(res.retries, 2);
  EXPECT_TRUE(res.converged) << res.report.summary();
  EXPECT_EQ(res.status, ErrorCode::Generic);
}

TEST_F(ServiceTest, ExhaustedRetriesReportOverloaded) {
  auto& fi = fault::FaultInjector::instance();
  fi.arm(fault::kServiceReject, /*count=*/-1, /*probability=*/1.0, 0xbead);

  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.max_retries = 2;
  cfg.backoff_base_ms = 0.2;
  cfg.backoff_max_ms = 1.0;
  SolveService svc(cfg);
  const auto a = svc.submit(make_req(small2d(), "t"));
  ASSERT_TRUE(a.admitted);
  const SolveResult res = svc.wait(a.ticket);
  EXPECT_EQ(res.status, ErrorCode::Overloaded);
  EXPECT_EQ(res.retries, 2);
  EXPECT_GT(res.retry_after_ms, 0.0);
}

// ---------------------------------------------------------------------
// Overload degradation ladder (relax, then cap, before shedding).

TEST_F(ServiceTest, QueueFillDegradesBeforeShedding) {
  ServiceConfig cfg = patient_config();
  cfg.queue_capacity = 4;
  cfg.degrade_relax_fill = 0.25;
  cfg.degrade_cap_fill = 0.5;
  cfg.capped_cycles = 20;  // roomy enough to still converge at n=63
  SolveService svc(cfg);

  const auto blocker = svc.submit(blocker_req("t"));
  ASSERT_TRUE(blocker.admitted);
  spin_until_drained(svc);

  // Three queued requests; the worker sees fills 2/4, 1/4, 0/4 as it
  // drains them, walking back up the ladder as pressure eases.
  const auto j1 = svc.submit(make_req(small2d(), "t"));
  const auto j2 = svc.submit(make_req(small2d(), "t"));
  const auto j3 = svc.submit(make_req(small2d(), "t"));
  ASSERT_TRUE(j1.admitted && j2.admitted && j3.admitted);
  ASSERT_TRUE(svc.cancel(blocker.ticket));
  (void)svc.wait(blocker.ticket);

  const SolveResult r1 = svc.wait(j1.ticket);
  const SolveResult r2 = svc.wait(j2.ticket);
  const SolveResult r3 = svc.wait(j3.ticket);
  EXPECT_TRUE(r1.degraded);
  EXPECT_EQ(r1.degradation, "relaxed tol + capped cycles");
  EXPECT_TRUE(r2.degraded);
  EXPECT_EQ(r2.degradation, "relaxed tol");
  EXPECT_FALSE(r3.degraded);
  EXPECT_TRUE(r1.converged && r2.converged && r3.converged);
  EXPECT_EQ(svc.tenant_stats().at("t").degraded, 2);
}

// ---------------------------------------------------------------------
// Observability plane (DESIGN.md §14): request-correlated spans,
// latency histograms, SLO gauges and the scrape endpoint.

TEST_F(ServiceTest, RequestSpansCarryTheTicketThroughTheExecutor) {
#if defined(POLYMG_TRACE_DISABLED)
  GTEST_SKIP() << "instrumentation compiled out (POLYMG_TRACING=OFF)";
#endif
  // One worker: traced sessions are documented single-worker (per-thread
  // rings are single-writer per OMP slot).
  ServiceConfig cfg;
  cfg.workers = 1;
  SolveService svc(cfg);
  obs::TraceSession::start();
  const auto a = svc.submit(make_req(small2d(), "traced", 1e-8,
                                     /*deadline_ms=*/5000.0));
  ASSERT_TRUE(a.admitted);
  (void)svc.wait(a.ticket);
  obs::TraceSession::stop();
  const auto evs = obs::TraceSession::snapshot();

  const auto ticket = static_cast<std::int32_t>(a.ticket);
  int request_spans = 0, queue_waits = 0, exec_with_ticket = 0;
  for (const obs::TraceEvent& e : evs) {
    if (e.kind == obs::EventKind::RequestSpan) {
      ++request_spans;
      EXPECT_EQ(e.req, ticket);
      EXPECT_EQ(e.id, static_cast<std::int32_t>(a.ticket));
      EXPECT_DOUBLE_EQ(e.value, 5000.0);  // deadline rides in value
    }
    if (e.kind == obs::EventKind::RequestQueueWait) {
      ++queue_waits;
      EXPECT_EQ(e.req, ticket);
    }
    if ((e.kind == obs::EventKind::TileExec ||
         e.kind == obs::EventKind::SlabExec ||
         e.kind == obs::EventKind::GroupExec) &&
        e.req == ticket) {
      ++exec_with_ticket;
    }
  }
  EXPECT_EQ(request_spans, 1);
  EXPECT_EQ(queue_waits, 1);
  // The solve's tile/stage spans nest under the request: the ticket
  // reached the executor through GuardPolicy -> GuardedExecutor ->
  // Executor.
  EXPECT_GT(exec_with_ticket, 0);
}

TEST_F(ServiceTest, LatencyHistogramsAndSloGaugesTrackRequests) {
  auto& m = obs::Metrics::instance();
  m.histogram("service.e2e_ns").reset();
  m.histogram("service.queue_ns").reset();
  m.histogram("service.solve_ns").reset();

  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.slo_target = 0.9;  // budget 0.1 — easy to reason about below
  SolveService svc(cfg);
  const int kReqs = 3;
  std::vector<std::uint64_t> tickets;
  for (int i = 0; i < kReqs; ++i) {
    const auto a = svc.submit(make_req(small2d(), "slo-t"));
    ASSERT_TRUE(a.admitted);
    tickets.push_back(a.ticket);
  }
  double max_e2e_ms = 0.0;
  for (const auto t : tickets) {
    const SolveResult r = svc.wait(t);
    EXPECT_TRUE(r.converged);
    EXPECT_GT(r.e2e_ms, 0.0);
    EXPECT_GE(r.e2e_ms, r.queue_ms);
    max_e2e_ms = std::max(max_e2e_ms, r.e2e_ms);
  }

  // Aggregate and per-tenant histograms saw every request; the e2e
  // quantile is consistent with the observed per-request values.
  EXPECT_EQ(m.histogram("service.e2e_ns").count(), kReqs);
  EXPECT_EQ(m.histogram("service.solve_ns").count(), kReqs);
  EXPECT_EQ(m.histogram("service.tenant.slo-t.e2e_ns").count(), kReqs);
  const auto p99_ns = m.histogram("service.e2e_ns").quantile(0.99);
  const auto width_ns =
      m.histogram("service.e2e_ns").quantile_bucket_width(0.99);
  EXPECT_LE(std::abs(static_cast<double>(p99_ns) - max_e2e_ms * 1e6),
            static_cast<double>(width_ns));

  // No deadline misses, no sheds: every SLO gauge reads zero burn.
  EXPECT_EQ(m.gauge("service.tenant.slo-t.slo.deadline_hit_ppm").value(), 0);
  EXPECT_EQ(m.gauge("service.tenant.slo-t.slo.shed_ppm").value(), 0);
  EXPECT_EQ(
      m.gauge("service.tenant.slo-t.slo.error_budget_burn_ppm").value(), 0);
}

TEST_F(ServiceTest, SheddingBurnsTheTenantErrorBudget) {
  // One worker pinned by a blocker, capacity 1: the measured tenant's
  // first submit queues, its second sheds. With slo_target 0.5 (budget
  // 0.5), 1 shed of 2 submitted = bad ratio 0.5 = burn exactly 1e6 ppm.
  auto& m = obs::Metrics::instance();
  ServiceConfig cfg = patient_config();
  cfg.queue_capacity = 1;
  cfg.slo_target = 0.5;
  SolveService svc(cfg);
  const auto blocker = svc.submit(blocker_req("pinner"));
  ASSERT_TRUE(blocker.admitted);
  // Wait until the worker dequeues the blocker, so the next submit
  // occupies the queue slot rather than racing for the worker.
  spin_until_drained(svc);
  const auto q1 = svc.submit(make_req(small2d(), "burn-t"));
  ASSERT_TRUE(q1.admitted);  // fills the queue
  const auto q2 = svc.submit(make_req(small2d(), "burn-t"));
  ASSERT_FALSE(q2.admitted);  // shed
  EXPECT_GT(q2.retry_after_ms, 0.0);

  // The shed updated the gauges immediately, before any completion.
  const auto shed = m.gauge("service.tenant.burn-t.slo.shed_ppm").value();
  const auto burn =
      m.gauge("service.tenant.burn-t.slo.error_budget_burn_ppm").value();
  EXPECT_EQ(shed, 500000);   // 1 of 2 submitted
  EXPECT_EQ(burn, 1000000);  // consuming the budget exactly at target

  ASSERT_TRUE(svc.cancel(blocker.ticket));
  (void)svc.wait(blocker.ticket);
  (void)svc.wait(q1.ticket);
}

TEST_F(ServiceTest, ScrapeEndpointServesServiceSeries) {
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.metrics_port = 0;  // ephemeral loopback port
  SolveService svc(cfg);
  if (!svc.metrics_running()) {
    GTEST_SKIP() << "cannot bind a loopback listener in this environment";
  }
  ASSERT_GT(svc.metrics_port(), 0);
  const auto a = svc.submit(make_req(small2d(), "scraped"));
  ASSERT_TRUE(a.admitted);
  (void)svc.wait(a.ticket);

  // Scrape while the service is live: the payload carries the latency
  // histogram series and the per-tenant SLO gauges in Prometheus text
  // format.
  const std::string payload =
      obs::ScrapeEndpoint::http_get_local(svc.metrics_port());
  EXPECT_NE(payload.find("# TYPE service_e2e_ns histogram"),
            std::string::npos)
      << payload.substr(0, 300);
  EXPECT_NE(payload.find("service_e2e_ns_bucket{le=\"+Inf\"}"),
            std::string::npos);
  EXPECT_NE(payload.find(
                "service_tenant_scraped_slo_deadline_hit_ppm"),
            std::string::npos);
  EXPECT_NE(payload.find("service_completed"), std::string::npos);
}

// Per-tenant roll-ups render into a RunReport.
TEST_F(ServiceTest, AttachTenantsRendersRollups) {
  ServiceConfig cfg;
  cfg.workers = 1;
  SolveService svc(cfg);
  const auto a = svc.submit(make_req(small2d(), "acme"));
  ASSERT_TRUE(a.admitted);
  (void)svc.wait(a.ticket);

  obs::RunReport rr;
  svc.attach_tenants(rr);
  ASSERT_EQ(rr.tenant_lines.size(), 1u);
  EXPECT_NE(rr.tenant_lines[0].find("acme"), std::string::npos);
  EXPECT_NE(rr.tenant_lines[0].find("1 admitted"), std::string::npos);
}

}  // namespace
}  // namespace polymg::service
