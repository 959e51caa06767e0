#include "polymg/common/fault.hpp"

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "polymg/common/error.hpp"

namespace polymg::fault {

FaultInjector& FaultInjector::instance() {
  static FaultInjector fi;
  return fi;
}

void FaultInjector::arm(const std::string& site, long count,
                        double probability, std::uint64_t seed) {
  PMG_CHECK(count >= -1, "bad fault count " << count);
  PMG_CHECK(probability >= 0.0 && probability <= 1.0,
            "fault probability must lie in [0, 1]");
  std::lock_guard<std::mutex> lock(mu_);
  Site& s = sites_[site];  // keeps `fired` across re-arms
  s.remaining = count;
  s.probability = probability;
  s.rng = Rng(seed);
  recount_locked();
}

void FaultInjector::disarm(const std::string& site) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sites_.find(site);
  if (it == sites_.end()) return;
  it->second.remaining = 0;
  recount_locked();
}

void FaultInjector::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  sites_.clear();
  armed_sites_.store(0, std::memory_order_relaxed);
}

bool FaultInjector::should_fail(const std::string& site) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sites_.find(site);
  if (it == sites_.end() || it->second.remaining == 0) return false;
  Site& s = it->second;
  if (s.probability < 1.0 && s.rng.next_double() >= s.probability) {
    return false;
  }
  if (s.remaining > 0) {
    --s.remaining;
    if (s.remaining == 0) recount_locked();
  }
  ++s.fired;
  return true;
}

long FaultInjector::fired(const std::string& site) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = sites_.find(site);
  return it == sites_.end() ? 0 : it->second.fired;
}

std::vector<std::string> FaultInjector::list_sites() {
  return {kAllocFail,     kCacheEnospc,   kCheckpointCorrupt,
          kJitCompile,    kJitHang,       kKernelBitflip,
          kKernelOutput,  kPoolAlloc,     kServiceReject,
          kServiceSlow,   kSolveCrash,    kSolveStall};
}

bool FaultInjector::is_known_site(const std::string& site) {
  const std::vector<std::string> sites = list_sites();
  return std::find(sites.begin(), sites.end(), site) != sites.end();
}

void arm_from_spec(const std::string& spec) {
  std::stringstream ss(spec);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    // site[:count[:probability[:seed]]]
    std::vector<std::string> parts;
    std::stringstream is(item);
    std::string p;
    while (std::getline(is, p, ':')) parts.push_back(p);
    PMG_CHECK_CODE(!parts.empty() && parts.size() <= 4,
                   ErrorCode::PreconditionViolated,
                   "bad fault spec '" << item
                                      << "' (want site[:count[:prob[:seed]]])");
    const std::string& site = parts[0];
    if (!FaultInjector::is_known_site(site)) {
      std::ostringstream os;
      os << "unknown fault site '" << site << "'; valid sites:";
      for (const std::string& s : FaultInjector::list_sites()) os << " " << s;
      PMG_FAIL(ErrorCode::PreconditionViolated, os.str());
    }
    long count = 1;
    double probability = 1.0;
    std::uint64_t seed = 0x5eed5eedULL;
    try {
      if (parts.size() > 1) count = std::stol(parts[1]);
      if (parts.size() > 2) probability = std::stod(parts[2]);
      if (parts.size() > 3) seed = std::stoull(parts[3]);
    } catch (const std::exception&) {
      PMG_FAIL(ErrorCode::PreconditionViolated,
               "malformed fault spec '" << item << "'");
    }
    FaultInjector::instance().arm(site, count, probability, seed);
  }
}

void FaultInjector::recount_locked() {
  int n = 0;
  for (const auto& [name, s] : sites_) {
    (void)name;
    if (s.remaining != 0) ++n;
  }
  armed_sites_.store(n, std::memory_order_relaxed);
}

}  // namespace polymg::fault
