#include "polymg/common/health.hpp"

#include <cmath>

#include "polymg/common/error.hpp"
#include "polymg/common/parallel.hpp"

namespace polymg::health {

bool has_nonfinite(const double* p, std::size_t n) {
  // x * 0.0 is exactly 0.0 for every finite x and NaN for NaN/±inf, so a
  // plain sum detects any bad element without branches or libm calls.
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += p[i] * 0.0;
  return !(acc == 0.0);
}

bool has_nonfinite(const View& v, const Box& region) {
  if (region.empty()) return false;
  PMG_CHECK(v.ndim == region.ndim(),
            "health scan ndim mismatch: view " << v.ndim << " vs region "
                                               << region.ndim());
  const int last = v.ndim - 1;
  PMG_CHECK(v.stride[last] == 1,
            "health scan requires a contiguous last dimension");
  const std::size_t row =
      static_cast<std::size_t>(region.dim(last).size());
  if (v.ndim == 1) {
    return has_nonfinite(v.ptr + (region.dim(0).lo - v.origin[0]), row);
  }
  const index_t lo0 = region.dim(0).lo;
  const index_t hi0 = region.dim(0).hi;
  const bool par = region.count() >= kForkGrain && !in_parallel();
  if (v.ndim == 2) {
    int bad = 0;
    if (par) {
      note_parallel_region();
#pragma omp parallel for reduction(| : bad) schedule(static)
      for (index_t i = lo0; i <= hi0; ++i) {
        const double* p = v.ptr + v.offset2(i, region.dim(1).lo);
        bad |= has_nonfinite(p, row) ? 1 : 0;
        tsan_join_release();
      }
      tsan_join_acquire();
      return bad != 0;
    }
    for (index_t i = lo0; i <= hi0; ++i) {
      const double* p = v.ptr + v.offset2(i, region.dim(1).lo);
      if (has_nonfinite(p, row)) return true;
    }
    return false;
  }
  if (par) {
    int bad = 0;
    note_parallel_region();
#pragma omp parallel for reduction(| : bad) schedule(static)
    for (index_t i = lo0; i <= hi0; ++i) {
      for (index_t j = region.dim(1).lo; j <= region.dim(1).hi; ++j) {
        const double* p = v.ptr + v.offset3(i, j, region.dim(2).lo);
        bad |= has_nonfinite(p, row) ? 1 : 0;
      }
      tsan_join_release();
    }
    tsan_join_acquire();
    return bad != 0;
  }
  for (index_t i = lo0; i <= hi0; ++i) {
    for (index_t j = region.dim(1).lo; j <= region.dim(1).hi; ++j) {
      const double* p = v.ptr + v.offset3(i, j, region.dim(2).lo);
      if (has_nonfinite(p, row)) return true;
    }
  }
  return false;
}

const char* to_string(Trend t) {
  switch (t) {
    case Trend::Converging:
      return "converging";
    case Trend::Stagnating:
      return "stagnating";
    case Trend::Diverging:
      return "diverging";
  }
  return "?";
}

ResidualMonitor::ResidualMonitor(const Config& cfg) : cfg_(cfg) {
  PMG_CHECK(cfg.divergence_factor > 1.0, "divergence factor must exceed 1");
  PMG_CHECK(cfg.stagnation_ratio > 0.0 && cfg.stagnation_ratio <= 1.0,
            "stagnation ratio must lie in (0, 1]");
  PMG_CHECK(cfg.stagnation_window >= 1, "stagnation window must be >= 1");
  PMG_CHECK(cfg.history_limit >= 1, "history limit must be >= 1");
  // Preallocate the ring so observe() never touches the heap.
  ring_.resize(static_cast<std::size_t>(cfg.history_limit), 0.0);
}

Trend ResidualMonitor::observe(double residual) {
  const double prev = last_;
  const bool first = count_ == 0;
  ring_[count_ % ring_.size()] = residual;
  ++count_;
  last_ = residual;
  if (!std::isfinite(residual)) {
    trend_ = Trend::Diverging;
    return trend_;
  }
  if (first) {
    best_ = residual;
    trend_ = Trend::Converging;
    return trend_;
  }
  if (residual > cfg_.divergence_factor * best_) {
    trend_ = Trend::Diverging;
    return trend_;
  }
  if (residual >= cfg_.stagnation_ratio * prev) {
    ++stalled_;
  } else {
    stalled_ = 0;
  }
  best_ = std::min(best_, residual);
  trend_ = stalled_ >= cfg_.stagnation_window ? Trend::Stagnating
                                              : Trend::Converging;
  return trend_;
}

std::vector<double> ResidualMonitor::history() const {
  const std::size_t n = std::min(count_, ring_.size());
  std::vector<double> out;
  out.reserve(n);
  // Oldest retained entry first: a wrapped ring starts at count_ mod cap.
  const std::size_t first = count_ <= ring_.size() ? 0 : count_;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(ring_[(first + i) % ring_.size()]);
  }
  return out;
}

void ResidualMonitor::restore(const State& s) {
  best_ = s.best;
  last_ = s.last;
  count_ = s.count;
  stalled_ = s.stalled;
  trend_ = s.trend;
}

void ResidualMonitor::reset() {
  count_ = 0;
  best_ = 0.0;
  last_ = 0.0;
  stalled_ = 0;
  trend_ = Trend::Converging;
}

}  // namespace polymg::health
