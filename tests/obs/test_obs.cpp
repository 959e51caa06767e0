// polymg::obs — trace sink, metrics registry and the Chrome exporter.
//
// The contract under test: tracing captures typed per-tile events from
// every team thread in valid Chrome trace_event JSON; the ring wraps by
// dropping oldest events (counted, never growing); with no session
// active an instrumented steady-state run stays zero-alloc and bit-exact
// with a traced one; histogram quantiles stay within one bucket width of
// the exact order statistics under concurrent recording; the request
// span context reaches every team thread; and the Prometheus
// exposition (text format and scrape endpoint) round-trips the registry.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "polymg/common/alloc_hook.hpp"
#include "polymg/common/parallel.hpp"
#include "polymg/common/rng.hpp"
#include "polymg/obs/exposition.hpp"
#include "polymg/obs/histogram.hpp"
#include "polymg/obs/metrics.hpp"
#include "polymg/obs/perf.hpp"
#include "polymg/obs/report.hpp"
#include "polymg/obs/trace.hpp"
#include "polymg/opt/compile.hpp"
#include "polymg/runtime/executor.hpp"
#include "polymg/solvers/cycles.hpp"
#include "polymg/solvers/poisson.hpp"

namespace polymg::obs {
namespace {

using grid::View;
using opt::CompileOptions;
using opt::Variant;
using runtime::Executor;
using solvers::CycleConfig;
using solvers::CycleKind;

// ---------------------------------------------------------------------
// Minimal JSON validator (no dependency): checks the exporter's output
// is well-formed JSON, not merely that a few substrings appear.
// ---------------------------------------------------------------------

class JsonScanner {
public:
  explicit JsonScanner(const std::string& s) : s_(s) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;
    return true;
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool literal(const char* lit) {
    const std::size_t n = std::strlen(lit);
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }
  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------

class ObsTest : public ::testing::Test {
protected:
  void TearDown() override {
    if (TraceSession::active()) TraceSession::stop();
  }
};

CycleConfig w2d() {
  CycleConfig cfg;
  cfg.ndim = 2;
  cfg.n = 63;
  cfg.levels = 3;
  cfg.kind = CycleKind::W;
  return cfg;
}

std::vector<double> output_bits(const Executor& ex) {
  const int func = ex.plan().pipe.outputs[0];
  const auto count = ex.plan().pipe.funcs[func].domain.count();
  std::vector<double> bits(static_cast<std::size_t>(count));
  std::memcpy(bits.data(), ex.output_view(0).ptr,
              sizeof(double) * bits.size());
  return bits;
}

int count_kind(const std::vector<TraceEvent>& evs, EventKind k) {
  int n = 0;
  for (const TraceEvent& e : evs) n += e.kind == k ? 1 : 0;
  return n;
}

TEST_F(ObsTest, RingWrapsByDroppingOldest) {
  TraceSession::start(/*events_per_thread=*/8);
  for (int i = 0; i < 20; ++i) {
    trace_instant(EventKind::Residual, -1, -1, i, 0.0);
  }
  TraceSession::stop();
  const std::vector<TraceEvent> evs = TraceSession::snapshot();
  ASSERT_EQ(evs.size(), 8u);
  EXPECT_EQ(TraceSession::dropped(), 12u);
  // Oldest-first within the ring: the 8 newest events, in record order.
  for (std::size_t i = 0; i < evs.size(); ++i) {
    EXPECT_EQ(evs[i].id, 12 + static_cast<int>(i));
  }
}

TEST_F(ObsTest, RestartDiscardsPriorSession) {
  TraceSession::start(8);
  trace_instant(EventKind::Residual, -1, -1, 1, 0.0);
  TraceSession::start(8);
  trace_instant(EventKind::Residual, -1, -1, 2, 0.0);
  TraceSession::stop();
  const std::vector<TraceEvent> evs = TraceSession::snapshot();
  ASSERT_EQ(evs.size(), 1u);
  EXPECT_EQ(evs[0].id, 2);
  EXPECT_EQ(TraceSession::dropped(), 0u);
}

TEST_F(ObsTest, ExecutorEmitsPerTileEvents) {
#if defined(POLYMG_TRACE_DISABLED)
  GTEST_SKIP() << "instrumentation compiled out (POLYMG_TRACING=OFF)";
#endif
  const int threads_before = max_threads();
  auto p = solvers::PoissonProblem::random_rhs(2, w2d().n, 7);
  const std::vector<View> ext = {p.v_view(), p.f_view()};
  for (const int threads : {1, 2, 4}) {
    set_num_threads(threads);
    Executor ex(opt::compile(solvers::build_cycle(w2d()),
                             CompileOptions::for_variant(Variant::OptPlus, 2)));
    TraceSession::start();
    ex.run(ext);
    TraceSession::stop();
    const std::vector<TraceEvent> evs = TraceSession::snapshot();
    EXPECT_GT(count_kind(evs, EventKind::TileExec), 0) << threads;
    EXPECT_EQ(count_kind(evs, EventKind::GroupExec),
              static_cast<int>(ex.plan().groups.size()))
        << threads;
    EXPECT_GT(count_kind(evs, EventKind::PoolAlloc), 0) << threads;
    // Spans measure real durations within the session.
    for (const TraceEvent& e : evs) {
      EXPECT_GE(e.ts_ns, 0);
      EXPECT_GE(e.dur_ns, 0);
    }
  }
  set_num_threads(threads_before);
}

TEST_F(ObsTest, PerThreadEventsAreOrdered) {
#if defined(POLYMG_TRACE_DISABLED)
  GTEST_SKIP() << "instrumentation compiled out (POLYMG_TRACING=OFF)";
#endif
  const int threads_before = max_threads();
  set_num_threads(2);
  auto p = solvers::PoissonProblem::random_rhs(2, w2d().n, 11);
  Executor ex(opt::compile(solvers::build_cycle(w2d()),
                           CompileOptions::for_variant(Variant::OptPlus, 2)));
  const std::vector<View> ext = {p.v_view(), p.f_view()};
  TraceSession::start();
  ex.run(ext);
  TraceSession::stop();
  set_num_threads(threads_before);
  const std::vector<TraceEvent> evs = TraceSession::snapshot();
  ASSERT_FALSE(evs.empty());
  // snapshot() concatenates whole rings in thread-id order...
  int max_tid_seen = -1;
  bool new_thread_block = true;
  for (const TraceEvent& e : evs) {
    if (static_cast<int>(e.tid) != max_tid_seen) {
      EXPECT_GT(static_cast<int>(e.tid), max_tid_seen)
          << "thread blocks must not interleave";
      max_tid_seen = static_cast<int>(e.tid);
      new_thread_block = true;
    }
    (void)new_thread_block;
  }
  // ...and within one thread, same-kind tile events carry non-decreasing
  // start stamps (each thread executes its tiles sequentially).
  std::int64_t last_ts[2] = {-1, -1};
  for (const TraceEvent& e : evs) {
    if (e.kind != EventKind::TileExec || e.tid > 1) continue;
    EXPECT_GE(e.ts_ns, last_ts[e.tid]);
    last_ts[e.tid] = e.ts_ns;
  }
}

TEST_F(ObsTest, ChromeTraceExportIsValidJson) {
#if defined(POLYMG_TRACE_DISABLED)
  GTEST_SKIP() << "instrumentation compiled out (POLYMG_TRACING=OFF)";
#endif
  auto p = solvers::PoissonProblem::random_rhs(2, w2d().n, 3);
  Executor ex(opt::compile(solvers::build_cycle(w2d()),
                           CompileOptions::for_variant(Variant::OptPlus, 2)));
  const std::vector<View> ext = {p.v_view(), p.f_view()};
  TraceSession::start();
  ex.run(ext);
  TraceSession::stop();
  std::ostringstream os;
  write_chrome_trace(os, TraceSession::snapshot(), "polymg-test");
  const std::string json = os.str();

  JsonScanner scanner(json);
  EXPECT_TRUE(scanner.valid()) << json.substr(0, 400);
  // Chrome trace_event "JSON Object Format" essentials.
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"M\""), std::string::npos)
      << "missing process/thread metadata events";
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos)
      << "missing complete (span) events";
  EXPECT_NE(json.find("\"name\": \"tile\""), std::string::npos);
  EXPECT_NE(json.find("\"polymg-test\""), std::string::npos);
}

TEST_F(ObsTest, DisabledTracingIsZeroAllocAndBitExact) {
  auto p = solvers::PoissonProblem::random_rhs(2, w2d().n, 21);
  const std::vector<View> ext = {p.v_view(), p.f_view()};
  Executor ex(opt::compile(solvers::build_cycle(w2d()),
                           CompileOptions::for_variant(Variant::OptPlus, 2)));
  ex.run(ext);
  ex.run(ext);  // warmed: pool primed, lazy runtime state settled

  // With no session, the instrumented executor keeps its steady-state
  // zero-allocation guarantee...
  const std::uint64_t before = polymg::allocation_count();
  ex.run(ext);
  EXPECT_EQ(polymg::allocation_count(), before);
  const std::vector<double> untraced = output_bits(ex);

  // ...and tracing the identical invocation changes no output bit.
  TraceSession::start();
  ex.run(ext);
  TraceSession::stop();
  const std::vector<double> traced = output_bits(ex);
  ASSERT_EQ(untraced.size(), traced.size());
  EXPECT_EQ(0, std::memcmp(untraced.data(), traced.data(),
                           sizeof(double) * untraced.size()));
#if !defined(POLYMG_TRACE_DISABLED)
  EXPECT_GT(TraceSession::snapshot().size(), 0u);
#endif
}

TEST_F(ObsTest, MetricsCountersAndGauges) {
  Metrics& m = Metrics::instance();
  Counter& c = m.counter("test.obs.counter");
  Gauge& g = m.gauge("test.obs.gauge");
  c.reset();
  g.reset();

  c.add(3);
  c.add();
  EXPECT_EQ(c.value(), 4);
  g.add(100);
  g.add(-40);
  g.add(10);
  EXPECT_EQ(g.value(), 70);
  EXPECT_EQ(g.peak(), 100);

  // Handles are stable: the same name resolves to the same object.
  EXPECT_EQ(&m.counter("test.obs.counter"), &c);
  EXPECT_EQ(&m.gauge("test.obs.gauge"), &g);

  const std::string json = m.snapshot_json();
  JsonScanner scanner(json);
  EXPECT_TRUE(scanner.valid()) << json;
  EXPECT_NE(json.find("\"test.obs.counter\": 4"), std::string::npos) << json;
  EXPECT_NE(json.find("\"test.obs.gauge\""), std::string::npos);

  c.reset();
  g.reset();
  EXPECT_EQ(c.value(), 0);
  EXPECT_EQ(g.peak(), 0);
}

TEST_F(ObsTest, ExecutorFeedsMetricsRegistry) {
  Metrics& m = Metrics::instance();
  auto p = solvers::PoissonProblem::random_rhs(2, w2d().n, 31);
  Executor ex(opt::compile(solvers::build_cycle(w2d()),
                           CompileOptions::for_variant(Variant::OptPlus, 2)));
  const std::vector<View> ext = {p.v_view(), p.f_view()};
  const std::int64_t tiles0 = m.counter("executor.tiles").value();
  const std::int64_t runs0 = m.counter("executor.runs").value();
  ex.run(ext);
  ex.run(ext);
  EXPECT_GT(m.counter("executor.tiles").value(), tiles0);
  EXPECT_EQ(m.counter("executor.runs").value(), runs0 + 2);
  EXPECT_GT(m.gauge("pool.bytes_live").peak(), 0);
}

TEST_F(ObsTest, RunReportRendersAttributionAndMetrics) {
  auto p = solvers::PoissonProblem::random_rhs(2, w2d().n, 41);
  Executor ex(opt::compile(solvers::build_cycle(w2d()),
                           CompileOptions::for_variant(Variant::OptPlus, 2)));
  const std::vector<View> ext = {p.v_view(), p.f_view()};
  ex.run(ext);
  RunReport rr = ex.run_report();
  rr.title = "test report";
  EXPECT_EQ(rr.runs, 1);
  ASSERT_EQ(rr.groups.size(), ex.plan().groups.size());
  double total = 0.0;
  for (const auto& row : rr.groups) total += row.seconds;
  EXPECT_GT(total, 0.0);
  const std::string text = rr.render();
  EXPECT_NE(text.find("test report"), std::string::npos);
  EXPECT_NE(text.find("g0"), std::string::npos);
  EXPECT_NE(text.find("executor.tiles"), std::string::npos)
      << "metrics snapshot missing from the report";
}

// ---------------------------------------------------------------------
// Histograms.
// ---------------------------------------------------------------------

TEST_F(ObsTest, HistogramBucketIndexIsMonotoneAndBracketing) {
  // Small values land in exact unit buckets...
  for (std::int64_t v = 0; v < 16; ++v) {
    EXPECT_EQ(Histogram::bucket_index(v), static_cast<int>(v));
    EXPECT_EQ(Histogram::bucket_lower(Histogram::bucket_index(v)), v);
  }
  // ...and across a wide sweep the index is monotone non-decreasing and
  // every value sits inside its bucket's [lower, upper] bounds.
  int last_ix = -1;
  for (std::int64_t v = 0; v < (std::int64_t{1} << 40); v = v * 2 + 3) {
    const int ix = Histogram::bucket_index(v);
    EXPECT_GE(ix, last_ix) << "v=" << v;
    last_ix = ix;
    EXPECT_LE(Histogram::bucket_lower(ix), v) << "v=" << v;
    EXPECT_GE(Histogram::bucket_upper(ix), v) << "v=" << v;
  }
  // Negative observations clamp to the zero bucket rather than indexing
  // out of bounds.
  Histogram h;
  h.record(-5);
  EXPECT_EQ(h.count(), 1);
  EXPECT_EQ(h.quantile(0.5), 0);
}

TEST_F(ObsTest, HistogramQuantilesWithinOneBucketUnderConcurrentRecording) {
  // Deterministic heavy-tailed samples, recorded from four threads at
  // once; every quantile read back must sit within the width of the
  // bucket that holds the exact nearest-rank order statistic.
  const std::size_t kN = 50000;
  std::vector<std::int64_t> samples;
  samples.reserve(kN);
  Rng rng(0x15eed);
  for (std::size_t i = 0; i < kN; ++i) {
    double z = -6.0;
    for (int k = 0; k < 12; ++k) z += rng.next_double();
    samples.push_back(static_cast<std::int64_t>(std::exp(10.0 + 1.3 * z)));
  }
  Histogram h;
  std::vector<std::thread> threads;
  const int kThreads = 4;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::size_t lo = kN * static_cast<std::size_t>(t) / kThreads;
      const std::size_t hi =
          kN * static_cast<std::size_t>(t + 1) / kThreads;
      for (std::size_t i = lo; i < hi; ++i) h.record(samples[i]);
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_EQ(h.count(), static_cast<std::int64_t>(kN))
      << "concurrent records lost";

  std::vector<std::int64_t> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  for (const double q : {0.5, 0.9, 0.99, 0.999}) {
    auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(kN)));
    rank = std::min(std::max<std::size_t>(rank, 1), kN);
    const std::int64_t exact = sorted[rank - 1];
    EXPECT_LE(std::llabs(h.quantile(q) - exact),
              h.quantile_bucket_width(q))
        << "q=" << q;
  }
  h.reset();
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.sum(), 0);
}

TEST_F(ObsTest, HistogramRecordIsZeroAlloc) {
  Metrics& m = Metrics::instance();
  Histogram& h = m.histogram("test.obs.zeroalloc_hist");
  h.reset();
  const std::uint64_t before = polymg::allocation_count();
  for (int i = 0; i < 1000; ++i) h.record(i * 37);
  EXPECT_EQ(polymg::allocation_count(), before);
  EXPECT_EQ(h.count(), 1000);
  // Handles are stable like counters and gauges.
  EXPECT_EQ(&m.histogram("test.obs.zeroalloc_hist"), &h);
}

// ---------------------------------------------------------------------
// Exposition: snapshot_json hygiene and the Prometheus text format.
// ---------------------------------------------------------------------

TEST_F(ObsTest, SnapshotJsonEscapesAndSortsNames) {
  Metrics& m = Metrics::instance();
  // Tenant-derived names can carry arbitrary bytes: quotes, backslashes
  // and control characters must not corrupt the JSON document.
  m.counter("test.we\"ird\\na\tme").add(7);
  m.counter("test.aaa_first").add(1);
  const std::string json = m.snapshot_json();
  JsonScanner scanner(json);
  EXPECT_TRUE(scanner.valid()) << json.substr(0, 400);
  EXPECT_NE(json.find("test.we\\\"ird\\\\na\\tme"), std::string::npos)
      << json.substr(0, 400);
  // Sorted stable order: "test.aaa_first" precedes the weird name.
  EXPECT_LT(json.find("test.aaa_first"), json.find("test.we"));
}

TEST_F(ObsTest, PrometheusTextExposition) {
  Metrics& m = Metrics::instance();
  m.counter("test.prom.counter").reset();
  m.counter("test.prom.counter").add(5);
  m.gauge("test.prom.gauge").set(42);
  Histogram& h = m.histogram("test.prom.hist_ns");
  h.reset();
  for (int i = 1; i <= 100; ++i) h.record(i * 1000);
  const std::string text = m.prometheus_text();

  // Names sanitized to the Prometheus charset, one TYPE line per metric.
  EXPECT_NE(text.find("# TYPE test_prom_counter counter"),
            std::string::npos);
  EXPECT_NE(text.find("test_prom_counter 5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE test_prom_gauge gauge"), std::string::npos);
  EXPECT_NE(text.find("test_prom_gauge 42"), std::string::npos);
  EXPECT_NE(text.find("test_prom_gauge_peak 42"), std::string::npos);

  // Histogram: cumulative buckets ending at +Inf, plus _sum and _count.
  EXPECT_NE(text.find("# TYPE test_prom_hist_ns histogram"),
            std::string::npos);
  EXPECT_NE(text.find("test_prom_hist_ns_bucket{le=\"+Inf\"} 100"),
            std::string::npos);
  EXPECT_NE(text.find("test_prom_hist_ns_count 100"), std::string::npos);
  EXPECT_NE(text.find("test_prom_hist_ns_sum"), std::string::npos);

  // Cumulative monotonicity across the emitted buckets.
  std::int64_t last = 0;
  std::size_t pos = 0;
  while ((pos = text.find("test_prom_hist_ns_bucket{le=", pos)) !=
         std::string::npos) {
    const std::size_t sp = text.find("} ", pos);
    ASSERT_NE(sp, std::string::npos);
    const std::int64_t cum = std::atoll(text.c_str() + sp + 2);
    EXPECT_GE(cum, last);
    last = cum;
    ++pos;
  }
  EXPECT_EQ(last, 100);
}

TEST_F(ObsTest, ScrapeEndpointRoundTrip) {
  Metrics::instance().counter("test.scrape.counter").add(1);
  ScrapeEndpoint::Options so;
  so.tcp_port = 0;  // ephemeral loopback port
  ScrapeEndpoint ep(so);
  if (!ep.running()) {
    GTEST_SKIP() << "cannot bind a loopback listener in this environment";
  }
  ASSERT_GT(ep.port(), 0);
  const std::string payload = ScrapeEndpoint::http_get_local(ep.port());
  EXPECT_NE(payload.find("# TYPE"), std::string::npos)
      << payload.substr(0, 200);
  EXPECT_NE(payload.find("test_scrape_counter"), std::string::npos);
}

// ---------------------------------------------------------------------
// Dropped-events accounting and the report warning.
// ---------------------------------------------------------------------

TEST_F(ObsTest, DroppedEventsFeedCounterAndReportWarning) {
  Counter& dropped = Metrics::instance().counter("obs.dropped_events");
  dropped.reset();
  TraceSession::start(/*events_per_thread=*/8);
  for (int i = 0; i < 20; ++i) {
    trace_instant(EventKind::Residual, -1, -1, i, 0.0);
  }
  TraceSession::stop();
  EXPECT_EQ(dropped.value(), 12);
  TraceSession::stop();  // idempotent: drops folded in exactly once
  EXPECT_EQ(dropped.value(), 12);

  // A report that saw drops renders a loud warning; a clean one must not.
  RunReport rr;
  rr.title = "drop test";
  rr.trace_dropped = 12;
  const std::string text = rr.render();
  EXPECT_NE(text.find("WARNING"), std::string::npos);
  EXPECT_NE(text.find("dropped 12"), std::string::npos);
  rr.trace_dropped = 0;
  EXPECT_EQ(rr.render().find("WARNING"), std::string::npos);
}

// ---------------------------------------------------------------------
// Request span context.
// ---------------------------------------------------------------------

TEST_F(ObsTest, RequestIdPropagatesToEveryTeamThread) {
#if defined(POLYMG_TRACE_DISABLED)
  GTEST_SKIP() << "instrumentation compiled out (POLYMG_TRACING=OFF)";
#endif
  const int threads_before = max_threads();
  auto p = solvers::PoissonProblem::random_rhs(2, w2d().n, 17);
  const std::vector<View> ext = {p.v_view(), p.f_view()};
  for (const int threads : {1, 2, 4}) {
    set_num_threads(threads);
    Executor ex(opt::compile(solvers::build_cycle(w2d()),
                             CompileOptions::for_variant(Variant::OptPlus, 2)));
    ex.set_trace_request(42);
    EXPECT_EQ(ex.trace_request(), 42);
    TraceSession::start();
    ex.run(ext);
    TraceSession::stop();
    const std::vector<TraceEvent> evs = TraceSession::snapshot();
    // Every execution event — from every team thread — carries the
    // ticket; that is the whole point of the executor-owned span
    // context (a thread_local would miss the OMP team threads).
    int exec_events = 0;
    for (const TraceEvent& e : evs) {
      if (e.kind != EventKind::TileExec &&
          e.kind != EventKind::SlabExec &&
          e.kind != EventKind::GroupExec &&
          e.kind != EventKind::TimeTileExec) {
        continue;
      }
      ++exec_events;
      EXPECT_EQ(e.req, 42) << to_string(e.kind) << " threads=" << threads;
    }
    EXPECT_GT(exec_events, 0);

    // Detaching restores the -1 sentinel for subsequent runs.
    ex.set_trace_request(-1);
    TraceSession::start();
    ex.run(ext);
    TraceSession::stop();
    for (const TraceEvent& e : TraceSession::snapshot()) {
      EXPECT_EQ(e.req, -1);
    }

    // The Chrome export carries the ticket in args and stays valid
    // JSON for Perfetto.
    std::ostringstream os;
    write_chrome_trace(os, evs, "req-test");
    const std::string json = os.str();
    JsonScanner scanner(json);
    EXPECT_TRUE(scanner.valid()) << json.substr(0, 400);
    EXPECT_NE(json.find("\"req\": 42"), std::string::npos);
  }
  set_num_threads(threads_before);
}

// ---------------------------------------------------------------------
// Hardware counters: graceful everywhere, precise where permitted.
// ---------------------------------------------------------------------

TEST_F(ObsTest, PerfCountersAreGracefulWhenUnavailable) {
  PerfCounters pc;
  if (!pc.available()) {
    // Containers and perf_event_paranoid settings routinely forbid
    // perf_event_open; the wrapper must degrade, not fail.
    pc.start();
    const PerfCounters::Sample s = pc.stop();
    EXPECT_FALSE(s.ok());
    EXPECT_EQ(s.cycles, -1);
    GTEST_SKIP() << "perf_event_open unavailable here (expected in "
                    "containers) — hw sampling not exercised";
  }
  pc.start();
  volatile double x = 1.0;
  for (int i = 0; i < 100000; ++i) x = x * 1.0000001 + 0.5;
  const PerfCounters::Sample s = pc.stop();
  EXPECT_TRUE(s.ok());
  EXPECT_GT(s.cycles, 0);
  EXPECT_GT(s.instructions, 0);
}

TEST_F(ObsTest, RooflineRowsRenderWithOrWithoutHardware) {
  auto p = solvers::PoissonProblem::random_rhs(2, w2d().n, 23);
  Executor ex(opt::compile(solvers::build_cycle(w2d()),
                           CompileOptions::for_variant(Variant::OptPlus, 2)));
  const bool hw = ex.enable_perf_attribution();
  EXPECT_TRUE(ex.perf_attribution_enabled());
  const std::vector<View> ext = {p.v_view(), p.f_view()};
  ex.run(ext);
  ex.run(ext);
  const RunReport rr = ex.run_report();
  ASSERT_EQ(rr.perf.size(), ex.plan().groups.size());
  for (const auto& row : rr.perf) {
    EXPECT_GT(row.model_bytes, 0.0) << row.label;
    EXPECT_GT(row.model_flops, 0.0) << row.label;
    EXPECT_GT(row.runs, 0) << row.label;
    if (hw) {
      EXPECT_GE(row.cycles, 0) << row.label;
    } else {
      EXPECT_EQ(row.cycles, -1) << row.label;
    }
  }
  const std::string text = rr.render();
  EXPECT_NE(text.find("roofline"), std::string::npos);
  EXPECT_NE(text.find("GB/s"), std::string::npos);
  if (!hw) {
    EXPECT_NE(text.find("hw counters unavailable"), std::string::npos);
  }
}

}  // namespace
}  // namespace polymg::obs
