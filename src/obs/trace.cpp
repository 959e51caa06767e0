#include "polymg/obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>

#include "polymg/common/parallel.hpp"
#include "polymg/obs/metrics.hpp"

namespace polymg::obs {

namespace {

using Clock = std::chrono::steady_clock;

/// One single-writer ring. Only the owning thread touches head/drops
/// while a session runs; padding keeps neighbouring rings off one cache
/// line.
struct alignas(64) Ring {
  std::vector<TraceEvent> buf;
  std::uint64_t head = 0;   ///< events ever pushed
  std::uint64_t drops = 0;  ///< events overwritten by wraparound
};

struct Session {
  std::vector<Ring> rings;
  std::size_t mask = 0;  ///< capacity - 1 (capacity is a power of two)
  Clock::time_point epoch{};
  std::atomic<std::uint64_t> tid_drops{0};  ///< thread id beyond the table
  /// Whether this session's drops were already folded into the
  /// obs.dropped_events counter (stop() is idempotent).
  bool drops_accounted = true;
};

Session& session() {
  static Session s;
  return s;
}

std::atomic<bool> g_enabled{false};

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

const char* to_string(EventKind k) {
  switch (k) {
    case EventKind::TileExec: return "tile";
    case EventKind::SlabExec: return "slab";
    case EventKind::TimeTileExec: return "time_tile";
    case EventKind::GroupExec: return "group";
    case EventKind::PoolAlloc: return "pool_alloc";
    case EventKind::PoolRelease: return "pool_release";
    case EventKind::ScratchBind: return "scratch_bind";
    case EventKind::HaloExchange: return "halo_exchange";
    case EventKind::HaloRetry: return "halo_retry";
    case EventKind::FaultInjected: return "fault_injected";
    case EventKind::Fallback: return "fallback";
    case EventKind::HealthScan: return "health_scan";
    case EventKind::Degrade: return "degrade";
    case EventKind::Residual: return "residual";
    case EventKind::CheckpointWrite: return "checkpoint_write";
    case EventKind::CheckpointRestore: return "checkpoint_restore";
    case EventKind::RankDeath: return "rank_death";
    case EventKind::Recovery: return "recovery";
    case EventKind::SdcDetected: return "sdc_detected";
    case EventKind::RequestAdmit: return "request_admit";
    case EventKind::RequestReject: return "request_reject";
    case EventKind::RequestCancel: return "request_cancel";
    case EventKind::DeadlineHit: return "deadline_hit";
    case EventKind::JitCompile: return "jit_compile";
    case EventKind::JitCacheHit: return "jit_cache_hit";
    case EventKind::JitFallback: return "jit_fallback";
    case EventKind::PrecisionCheck: return "precision_check";
    case EventKind::RequestSpan: return "request";
    case EventKind::RequestQueueWait: return "request_queue_wait";
    case EventKind::StallDetected: return "stall_detected";
    case EventKind::SessionQuarantine: return "session_quarantine";
    case EventKind::WorkerLost: return "worker_lost";
    case EventKind::WorkerException: return "worker_exception";
  }
  return "?";
}

bool trace_enabled() { return g_enabled.load(std::memory_order_relaxed); }

std::int64_t trace_now_ns() {
  if (!trace_enabled()) return 0;
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now() - session().epoch)
      .count();
}

namespace {

void record(EventKind kind, std::int64_t ts_ns, std::int64_t dur_ns,
            int group, int stage, int id, double value, std::int32_t req) {
  Session& s = session();
  const int tid = thread_id();
  if (static_cast<std::size_t>(tid) >= s.rings.size()) {
    s.tid_drops.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Ring& r = s.rings[static_cast<std::size_t>(tid)];
  // Rings are single-writer, so the owning thread can allocate its own
  // buffer on first use — the ring table covers thread counts raised
  // after start() (set_num_threads mid-benchmark) without paying the
  // full table's memory up front.
  if (r.buf.empty()) r.buf.assign(s.mask + 1, TraceEvent{});
  TraceEvent& e = r.buf[static_cast<std::size_t>(r.head) & s.mask];
  if (r.head > s.mask) ++r.drops;  // this slot held an older event
  e.ts_ns = ts_ns;
  e.dur_ns = dur_ns;
  e.value = value;
  e.stage = stage;
  e.id = id;
  e.req = req;
  e.group = static_cast<std::int16_t>(group);
  e.tid = static_cast<std::uint8_t>(tid);
  e.kind = kind;
  ++r.head;
}

}  // namespace

void trace_instant(EventKind kind, int group, int stage, int id,
                   double value, std::int32_t req) {
  if (!trace_enabled()) return;
  record(kind, trace_now_ns(), 0, group, stage, id, value, req);
}

void trace_span(EventKind kind, std::int64_t t0_ns, int group, int stage,
                int id, double value, std::int32_t req) {
  if (!trace_enabled() || t0_ns < 0) return;
  const std::int64_t now = trace_now_ns();
  record(kind, t0_ns, now > t0_ns ? now - t0_ns : 0, group, stage, id,
         value, req);
}

void TraceSession::start(std::size_t events_per_thread) {
  Session& s = session();
  g_enabled.store(false, std::memory_order_relaxed);
  const std::size_t cap = round_up_pow2(
      events_per_thread < 2 ? std::size_t{2} : events_per_thread);
  s.mask = cap - 1;
  // The table covers threads created after start() (the drivers bump
  // set_num_threads between series); only the current team's buffers are
  // paid for eagerly, the rest allocate on first use.
  constexpr std::size_t kMaxTracedThreads = 64;
  s.rings.assign(std::max<std::size_t>(
                     static_cast<std::size_t>(max_threads()),
                     kMaxTracedThreads),
                 Ring{});
  for (int t = 0; t < max_threads(); ++t) {
    s.rings[static_cast<std::size_t>(t)].buf.assign(cap, TraceEvent{});
  }
  s.tid_drops.store(0, std::memory_order_relaxed);
  s.drops_accounted = false;
  s.epoch = Clock::now();
  g_enabled.store(true, std::memory_order_release);
}

void TraceSession::stop() {
  g_enabled.store(false, std::memory_order_relaxed);
  // Fold this session's ring-wraparound losses into the always-on
  // metrics registry, once per session: silent trace truncation must be
  // visible in snapshots even when nobody checks dropped() by hand.
  Session& s = session();
  if (!s.drops_accounted) {
    s.drops_accounted = true;
    const std::uint64_t n = dropped();
    if (n > 0) {
      Metrics::instance().counter("obs.dropped_events").add(
          static_cast<std::int64_t>(n));
    }
  }
}

bool TraceSession::active() { return trace_enabled(); }

std::uint64_t TraceSession::dropped() {
  Session& s = session();
  std::uint64_t n = s.tid_drops.load(std::memory_order_relaxed);
  for (const Ring& r : s.rings) n += r.drops;
  return n;
}

std::vector<TraceEvent> TraceSession::snapshot() {
  Session& s = session();
  std::vector<TraceEvent> out;
  const std::size_t cap = s.mask + 1;
  for (const Ring& r : s.rings) {
    if (r.buf.empty()) continue;
    const std::uint64_t n = r.head < cap ? r.head : cap;
    // Oldest event first: a wrapped ring starts at head (mod cap).
    const std::uint64_t first = r.head < cap ? 0 : r.head;
    for (std::uint64_t i = 0; i < n; ++i) {
      out.push_back(r.buf[static_cast<std::size_t>(first + i) & s.mask]);
    }
  }
  return out;
}

int TraceSession::threads() {
  return static_cast<int>(session().rings.size());
}

}  // namespace polymg::obs
