// polymg::obs — lock-free per-thread trace sink.
//
// Every runtime layer (executor, pool, guarded execution, the solve
// service) records typed events here: group, tile and slab executions
// with group/stage ids, pool traffic, fallbacks and health-scan verdicts.
// Recording is a single bounds-checked store into a preallocated
// per-thread ring buffer — no locks, no atomics beyond one relaxed
// enabled-flag load, no heap traffic — so tracing a steady-state run
// stays inside the executor's zero-allocation envelope, and a disabled
// trace costs one relaxed load per would-be event (asserted bit-exact
// and zero-alloc by tests/obs).
//
// Overhead control is two-layered:
//  * compile time — building with POLYMG_TRACE_DISABLED defines the
//    PMG_TRACE_* macros away entirely (cmake -DPOLYMG_TRACING=OFF);
//  * run time — events are dropped unless a TraceSession is active
//    (started explicitly or via the bench drivers' --trace/POLYMG_TRACE).
//
// Sessions must be started and stopped outside executor runs. Each
// recording thread owns one ring (a slot it takes on its first event of
// the session), so recording is race-free inside parallel regions and
// across service threads alike, and the ring wraps (oldest events
// overwritten, counted in dropped()) rather than growing.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace polymg::obs {

/// Typed event taxonomy (DESIGN.md §8). `group`/`stage`/`id` carry the
/// per-kind coordinates listed here; unused fields are -1.
enum class EventKind : std::uint8_t {
  TileExec,      ///< one overlapped tile: group, stage=-1, id=tile
  SlabExec,      ///< one Loops slab: group, stage=func, id=dim-0 lo row
  TimeTileExec,  ///< one time-tiled sweep: group, stage=first func,
                 ///< id=group, value=time steps
  GroupExec,     ///< one whole group (one fork/join), id=group
  PoolAlloc,     ///< pool allocation: id=1 reuse hit / 0 fresh, value=bytes
  PoolRelease,   ///< pool release: value=bytes
  ScratchBind,   ///< scratchpad bound for a tile: id=tile, value=bytes
  FaultInjected, ///< an armed fault site fired: id encodes the site
  Fallback,      ///< guarded executor served a run from the reference plan
  HealthScan,    ///< output non-finite scan: value=1 healthy / 0 not
  Degrade,       ///< guarded_solve moved down the ladder: group=attempt,
                 ///< id=rung kind (see solvers/guarded)
  Residual,      ///< one residual observation: group=cycle, value=residual
  CheckpointWrite,    ///< checkpoint committed: id=next cycle, value=bytes
  CheckpointRestore,  ///< state rolled back to a checkpoint: id=next
                      ///< cycle, value=1 checksum ok / 0 corrupt
  SdcDetected,        ///< silent-data-corruption guard fired:
                      ///< group=cycle, value=suspect residual
  RequestAdmit,       ///< service admitted a request: id=ticket,
                      ///< group=tenant index, value=queue depth after
  RequestReject,      ///< admission control shed a request: id=ticket,
                      ///< group=tenant index, stage=1 tenant quota /
                      ///< 0 queue full, value=retry-after ms
  RequestCancel,      ///< a request was cancelled: id=ticket,
                      ///< stage=1 while running / 0 while queued
  DeadlineHit,        ///< a deadline tripped: id=ticket (-1 inside the
                      ///< executor), stage=granule kind, value=overshoot
                      ///< estimate where known
  JitCompile,         ///< one kernel-module compile+dlopen (span):
                      ///< value=kernels in the module
  JitCacheHit,        ///< specialization served from cache: id=1 memory /
                      ///< 0 disk, value=kernels bound
  JitFallback,        ///< specialization unavailable (no toolchain,
                      ///< compile failure, injected jit.compile fault):
                      ///< the plan runs on the interpreter
  RequestSpan,        ///< one request's in-worker residency (dequeue ->
                      ///< completion): group=tenant index, id=ticket,
                      ///< value=deadline ms (0 = none), req=ticket
  RequestQueueWait,   ///< one request's queue wait (submit -> dequeue):
                      ///< group=tenant index, id=ticket, req=ticket
  StallDetected,      ///< watchdog saw a frozen worker heartbeat:
                      ///< group=worker, id=ticket, value=frozen ms
  SessionQuarantine,  ///< watchdog dropped a worker's cached executors:
                      ///< group=worker, id=ticket
  WorkerLost,         ///< watchdog declared a worker lost and spawned a
                      ///< replacement: group=worker, id=ticket
  WorkerException,    ///< a worker caught an unexpected exception:
                      ///< group=tenant index, id=ticket
};

/// Stable lower-case name for trace exports ("tile", "group", ...).
const char* to_string(EventKind k);

/// One fixed-size record. `ts_ns` is nanoseconds since the session epoch
/// (steady clock); spans carry `dur_ns` > 0, instants 0. `req` is the
/// service request (ticket) the event executed on behalf of, propagated
/// through the executor span context — -1 for events outside a request.
/// Adding the field keeps the record at 40 bytes (it fills padding).
struct TraceEvent {
  std::int64_t ts_ns = 0;
  std::int64_t dur_ns = 0;
  double value = 0.0;
  std::int32_t stage = -1;
  std::int32_t id = -1;
  std::int32_t req = -1;
  std::int16_t group = -1;
  std::uint8_t tid = 0;
  EventKind kind = EventKind::TileExec;
};

/// True while a session is active. One relaxed atomic load — the only
/// cost tracing adds to an instrumented path when no session runs.
bool trace_enabled();

/// Nanoseconds since the active session's epoch (0 with no session).
std::int64_t trace_now_ns();

/// Record an instant event on the calling thread's ring. No-op without an
/// active session. `req` tags the event with a request ticket (-1 none).
void trace_instant(EventKind kind, int group, int stage, int id,
                   double value = 0.0, std::int32_t req = -1);

/// Record a span that started at `t0_ns` (a prior trace_now_ns() value)
/// and ends now. Negative `t0_ns` (the disabled-path sentinel) is
/// ignored.
void trace_span(EventKind kind, std::int64_t t0_ns, int group, int stage,
                int id, double value = 0.0, std::int32_t req = -1);

/// Process-global trace session: one ring buffer per recording thread,
/// sized once at start(). A thread takes the next of the table's slots
/// the first time it records in a session; TraceEvent::tid is that slot.
/// start/stop/snapshot must be called from serial code (outside executor
/// runs); recording itself is safe from any thread.
class TraceSession {
public:
  /// Allocate the ring table (at least 64 slots; the first max_threads()
  /// rings eagerly, capacity rounded up to a power of two) and enable
  /// recording. Restarting an active session discards its events.
  static void start(std::size_t events_per_thread = std::size_t{1} << 16);

  /// Disable recording. Buffered events stay readable until the next
  /// start().
  static void stop();

  static bool active();

  /// Events overwritten by ring wraparound plus events from recording
  /// threads beyond the ring table, across the session.
  static std::uint64_t dropped();

  /// Buffered events, oldest first within each thread, threads
  /// concatenated in slot order. Call after stop().
  static std::vector<TraceEvent> snapshot();

  /// Rings allocated by the active/last session.
  static int threads();
};

}  // namespace polymg::obs

// Call-site macros. PMG_TRACE_NOW declares a span start stamp (-1 when
// tracing is off, so the paired PMG_TRACE_SPAN is dropped); all compile
// to nothing under POLYMG_TRACE_DISABLED. The _R variants additionally
// tag the event with a request ticket (TraceEvent::req); the plain
// variants record req = -1, so call sites outside any request context
// stay untouched.
#if defined(POLYMG_TRACE_DISABLED)
#define PMG_TRACE_ACTIVE() false
#define PMG_TRACE_NOW(var) const std::int64_t var = -1; (void)var
#define PMG_TRACE_SPAN(kind, t0, group, stage, id, value) \
  do {                                                    \
  } while (0)
#define PMG_TRACE_INSTANT(kind, group, stage, id, value) \
  do {                                                   \
  } while (0)
#define PMG_TRACE_SPAN_R(kind, t0, group, stage, id, value, req) \
  do {                                                           \
  } while (0)
#define PMG_TRACE_INSTANT_R(kind, group, stage, id, value, req) \
  do {                                                          \
  } while (0)
#else
#define PMG_TRACE_ACTIVE() (::polymg::obs::trace_enabled())
#define PMG_TRACE_NOW(var)            \
  const std::int64_t var =            \
      PMG_TRACE_ACTIVE() ? ::polymg::obs::trace_now_ns() : -1
#define PMG_TRACE_SPAN(kind, t0, group, stage, id, value)                  \
  do {                                                                     \
    if ((t0) >= 0 && PMG_TRACE_ACTIVE()) {                                 \
      ::polymg::obs::trace_span(::polymg::obs::EventKind::kind, (t0),      \
                                (group), (stage), (id), (value));          \
    }                                                                      \
  } while (0)
#define PMG_TRACE_INSTANT(kind, group, stage, id, value)                 \
  do {                                                                   \
    if (PMG_TRACE_ACTIVE()) {                                            \
      ::polymg::obs::trace_instant(::polymg::obs::EventKind::kind,       \
                                   (group), (stage), (id), (value));     \
    }                                                                    \
  } while (0)
#define PMG_TRACE_SPAN_R(kind, t0, group, stage, id, value, req)           \
  do {                                                                     \
    if ((t0) >= 0 && PMG_TRACE_ACTIVE()) {                                 \
      ::polymg::obs::trace_span(::polymg::obs::EventKind::kind, (t0),      \
                                (group), (stage), (id), (value), (req));   \
    }                                                                      \
  } while (0)
#define PMG_TRACE_INSTANT_R(kind, group, stage, id, value, req)           \
  do {                                                                    \
    if (PMG_TRACE_ACTIVE()) {                                             \
      ::polymg::obs::trace_instant(::polymg::obs::EventKind::kind,        \
                                   (group), (stage), (id), (value),       \
                                   (req));                                \
    }                                                                     \
  } while (0)
#endif
