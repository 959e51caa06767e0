#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "bench.hpp"

namespace pmgbench {

namespace {

void upsert(std::vector<Metric>& ms, Metric m) {
  for (Metric& old : ms) {
    if (old.name == m.name) {
      old = std::move(m);
      return;
    }
  }
  ms.push_back(std::move(m));
}

}  // namespace

void Report::set(const std::string& name, double value,
                 const std::string& unit, std::int64_t samples) {
  upsert(metrics, {name, value, unit, samples});
}

void Report::extra(const std::string& name, double value,
                   const std::string& unit, std::int64_t samples) {
  upsert(extras, {name, value, unit, samples});
}

double Report::get(const std::string& name) const {
  for (const Metric& m : metrics) {
    if (m.name == name) return m.value;
  }
  return 0.0;
}

void Report::check(bool ok, const std::string& what) {
  std::printf("verify %-6s %s\n", ok ? "ok" : "FAILED", what.c_str());
  if (!ok) correct = false;
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double tail(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  // 1-based rank n-10, clamped up to the upper median rank n/2 + 1 (the
  // median itself for odd n), so the tail never reads below the median.
  const std::size_t rank = std::max(n > 10 ? n - 10 : 0, n / 2 + 1);
  return xs[rank - 1];
}

SpanLog::SpanLog(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {
  if (enabled_) spans_.reserve(1 << 14);
}

int SpanLog::tid_locked() {
  const std::thread::id me = std::this_thread::get_id();
  for (std::size_t i = 0; i < thread_ids_.size(); ++i) {
    if (thread_ids_[i] == me) return static_cast<int>(i);
  }
  thread_ids_.push_back(me);
  return static_cast<int>(thread_ids_.size() - 1);
}

int SpanLog::open(const char* name, int parent, std::int64_t req) {
  return enabled_ ? open_at(name, Clock::now(), parent, req) : -1;
}

int SpanLog::open_at(const char* name, Clock::time_point t0, int parent,
                     std::int64_t req) {
  if (!enabled_) return -1;
  const std::int64_t ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(t0 - epoch_)
          .count();
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back({name, ns, -1, parent, req, tid_locked()});
  return static_cast<int>(spans_.size() - 1);
}

void SpanLog::close(int id) {
  if (id < 0) return;
  const std::int64_t ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                              Clock::now() - epoch_)
                              .count();
  std::lock_guard<std::mutex> lk(mu_);
  spans_[static_cast<std::size_t>(id)].t1_ns = ns;
}

std::size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return spans_.size();
}

void SpanLog::write_chrome_trace(const std::string& path,
                                 const std::string& process) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write " + path);
  std::lock_guard<std::mutex> lk(mu_);
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
        "\"args\":{\"name\":\""
     << process << "\"}}";
  char buf[320];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.t1_ns < 0) continue;  // never closed (an exception unwound it)
    std::snprintf(buf, sizeof buf,
                  ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d,\"req\":%lld}}",
                  s.name, s.tid, static_cast<double>(s.t0_ns) / 1e3,
                  static_cast<double>(s.t1_ns - s.t0_ns) / 1e3, i, s.parent,
                  static_cast<long long>(s.req));
    os << buf;
  }
  os << "\n]}\n";
  if (!os) throw std::runtime_error("write failed: " + path);
}

}  // namespace pmgbench
