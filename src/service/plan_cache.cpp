#include "polymg/service/plan_cache.hpp"

#include <sstream>

#include "polymg/codegen/jit.hpp"
#include "polymg/obs/metrics.hpp"
#include "polymg/opt/validate.hpp"
#include "polymg/solvers/cycles.hpp"

namespace polymg::service {

std::string PlanCache::signature(const solvers::CycleConfig& cfg,
                                 const opt::CompileOptions& opts) {
  std::ostringstream os;
  os << "d" << cfg.ndim << " n" << cfg.n << " L" << cfg.levels << " k"
     << static_cast<int>(cfg.kind) << " s" << cfg.n1 << "/" << cfg.n2 << "/"
     << cfg.n3 << " w" << cfg.omega << " sm"
     << static_cast<int>(cfg.smoother) << " gw" << cfg.gsrb_omega << " cf"
     << cfg.cheby_fraction;
  const poly::TileSizes t = opts.resolved_tile(cfg.ndim);
  os << " | " << opt::to_string(opts.variant) << " t" << t[0] << "x" << t[1]
     << "x" << t[2] << " g" << opts.group_limit << " ov"
     << opts.overlap_threshold << " r" << opts.intra_group_reuse
     << opts.inter_group_reuse << opts.pooled_allocation << opts.collapse
     << " sc" << opts.storage_class_slack << " dt" << opts.dtile_time_block
     << "/" << opts.dtile_width << " sg" << opts.serial_grain << " j"
     << opt::to_string(opts.jit);
  return os.str();
}

std::shared_ptr<const opt::CompiledPipeline> PlanCache::plan_for(
    const solvers::CycleConfig& cfg, const opt::CompileOptions& opts) {
  const std::string key = signature(cfg, opts);
  auto& m = obs::Metrics::instance();
  std::lock_guard<std::mutex> lock(mu_);
  auto it = cache_.find(key);
  if (it != cache_.end()) {
    ++hits_;
    m.counter("service.plan_hits").add(1);
    return it->second;
  }
  ++misses_;
  m.counter("service.plan_misses").add(1);
  // Compile under the lock: a cold signature hit by many workers at once
  // should compile once, not once per worker. Validation happens here so
  // every consumer can adopt the plan without re-checking.
  opt::CompiledPipeline cp =
      opt::compile(solvers::build_cycle(cfg), opts);
  opt::validate_plan(cp);
  // Specialize before publishing: every worker adopting this shared
  // plan gets the native kernels without touching the JIT cache again
  // (warm service hits mean zero recompiles, same as zero opt.compiles).
  if (cp.opts.jit != opt::JitMode::Off) codegen::jit_specialize(cp);
  auto sp = std::make_shared<const opt::CompiledPipeline>(std::move(cp));
  cache_.emplace(key, sp);
  return sp;
}

std::size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cache_.size();
}

}  // namespace polymg::service
