// PlanCache — compile once, serve many.
//
// The DSL's value proposition inverts at serving time: plan compilation
// (grouping search, storage reuse, tile-region precomputation) is
// worth seconds of solving, but a multi-tenant service sees the same few
// problem signatures thousands of times. The cache keys a compiled,
// validated CompiledPipeline by the full (CycleConfig, CompileOptions)
// signature; hits hand out a shared_ptr the per-worker executors copy
// from, so a cache hit performs zero opt::compile calls (asserted by the
// service tests via the "opt.compiles" counter).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "polymg/solvers/guarded.hpp"

namespace polymg::service {

class PlanCache : public solvers::PlanProvider {
public:
  PlanCache() = default;
  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// The cached plan for (cfg, opts), compiling + validating on the
  /// first miss. Thread-safe; concurrent misses of the same signature
  /// serialize on the cache mutex so a signature compiles exactly once.
  /// A plan that fails validation is NOT cached and the Error
  /// propagates — the caller's guarded_solve treats it like any compile
  /// failure.
  std::shared_ptr<const opt::CompiledPipeline> plan_for(
      const solvers::CycleConfig& cfg,
      const opt::CompileOptions& opts) override;

  /// Stable textual signature of a problem/compilation pair — every
  /// field that changes the compiled plan is folded in, so two requests
  /// share a plan iff their signatures match.
  static std::string signature(const solvers::CycleConfig& cfg,
                               const opt::CompileOptions& opts);

  std::size_t size() const;
  std::int64_t hits() const { return hits_; }
  std::int64_t misses() const { return misses_; }

private:
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<const opt::CompiledPipeline>> cache_;
  std::int64_t hits_ = 0;    // guarded by mu_
  std::int64_t misses_ = 0;  // guarded by mu_
};

}  // namespace polymg::service
