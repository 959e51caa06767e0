// Deterministic fault injection for robustness tests.
//
// A process-wide registry of named fault sites. Production code asks
// `fault::should_fail("pool.alloc")` at the points where a real system
// could fail (allocation, kernel output, a solve crash); tests arm a site
// for a bounded number of firings — optionally probabilistic via the
// seeded splitmix64 Rng, so every run of a test observes the same fault
// pattern. When nothing is armed the check is one relaxed atomic load,
// cheap enough to leave compiled in everywhere.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "polymg/common/rng.hpp"

namespace polymg::fault {

/// Canonical site names (keep in sync with the call sites and
/// FaultInjector::list_sites()).
inline constexpr const char* kPoolAlloc = "pool.alloc";
inline constexpr const char* kKernelOutput = "kernel.output";
/// A committed checkpoint payload is corrupted in storage (detected at
/// restore time by the checksum).
inline constexpr const char* kCheckpointCorrupt = "checkpoint.corrupt";
/// Silent data corruption: one bit of a kernel output flips, producing a
/// finite-but-wrong value the non-finite health scan cannot see.
inline constexpr const char* kKernelBitflip = "kernel.bitflip";
/// The solve driver "crashes" between cycles (models process death and a
/// restart from the last checkpoint).
inline constexpr const char* kSolveCrash = "solve.crash";
/// A service worker's solve fails transiently at start (models a flaky
/// downstream dependency); the retry/backoff path must recover it.
inline constexpr const char* kServiceReject = "service.reject";
/// A service worker stalls before solving (models a slow replica /
/// noisy-neighbour hiccup); deadline enforcement must bound the damage.
inline constexpr const char* kServiceSlow = "service.slow";
/// The JIT's system-compiler invocation fails (models a broken or
/// missing toolchain); specialization must fall back to the interpreter
/// with a correct result.
inline constexpr const char* kJitCompile = "jit.compile";
/// The JIT's compiler child hangs instead of exiting (models a wedged
/// toolchain); the sandbox's waitpid timeout must kill it and fall back
/// to the interpreter within the compile budget.
inline constexpr const char* kJitHang = "jit.hang";
/// A worker's solve stops making progress without tripping its token (a
/// livelock / scheduler wedge); the service watchdog must detect the
/// frozen progress epoch and escalate.
inline constexpr const char* kSolveStall = "solve.stall";
/// A JIT disk-cache write fails mid-stream (models ENOSPC / a partial
/// write); publication must degrade to the interpreter, never crash or
/// publish a torn entry.
inline constexpr const char* kCacheEnospc = "cache.enospc";
/// A service-side allocation fails (models memory-pool exhaustion under
/// load); the request must resolve Overloaded with a retry-after hint,
/// not abort the worker.
inline constexpr const char* kAllocFail = "alloc.fail";

class FaultInjector {
public:
  static FaultInjector& instance();

  /// Arm `site` to fail up to `count` times (-1 = unbounded). Each check
  /// of an armed site fails with `probability` (1.0 = always), drawn from
  /// a deterministic Rng seeded with `seed`. Re-arming replaces the
  /// site's previous state but keeps its fired counter.
  void arm(const std::string& site, long count = 1, double probability = 1.0,
           std::uint64_t seed = 0x5eed5eedULL);

  void disarm(const std::string& site);
  /// Disarm every site and zero all counters.
  void reset();

  /// Consume one firing of `site` if it is armed; true means the caller
  /// must simulate the failure. Thread-safe.
  bool should_fail(const std::string& site);

  /// How many times `site` actually fired (survives disarm, cleared by
  /// reset).
  long fired(const std::string& site) const;

  /// Fast path: false iff no site is armed at all.
  bool any_armed() const {
    return armed_sites_.load(std::memory_order_relaxed) > 0;
  }

  /// Every canonical site name the library checks, sorted. A site not in
  /// this list can still be armed programmatically (tests invent private
  /// sites), but user-facing option parsing rejects it — see
  /// arm_from_spec.
  static std::vector<std::string> list_sites();
  static bool is_known_site(const std::string& site);

private:
  FaultInjector() = default;

  struct Site {
    long remaining = 0;  ///< -1 = unbounded
    double probability = 1.0;
    Rng rng{0};
    long fired = 0;
  };

  mutable std::mutex mu_;
  std::map<std::string, Site> sites_;
  std::atomic<int> armed_sites_{0};

  void recount_locked();
};

/// Hot-path helper: one atomic load when nothing is armed.
inline bool should_fail(const char* site) {
  FaultInjector& fi = FaultInjector::instance();
  return fi.any_armed() && fi.should_fail(site);
}

/// Arm sites from a user-facing option string:
///   "site[:count[:probability[:seed]]]" — comma-separated for several.
/// Examples: "solve.crash", "service.reject:1", "kernel.bitflip:-1:0.05:7".
/// A site name outside list_sites() throws Error(PreconditionViolated)
/// naming the valid sites, so a typo'd --fault= option fails at startup
/// instead of silently never firing.
void arm_from_spec(const std::string& spec);

/// RAII arming for tests: arms in the constructor, disarms on scope exit.
class ScopedFault {
public:
  explicit ScopedFault(std::string site, long count = 1,
                       double probability = 1.0,
                       std::uint64_t seed = 0x5eed5eedULL)
      : site_(std::move(site)) {
    FaultInjector::instance().arm(site_, count, probability, seed);
  }
  ~ScopedFault() { FaultInjector::instance().disarm(site_); }
  ScopedFault(const ScopedFault&) = delete;
  ScopedFault& operator=(const ScopedFault&) = delete;

  long fired() const { return FaultInjector::instance().fired(site_); }

private:
  std::string site_;
};

}  // namespace polymg::fault
