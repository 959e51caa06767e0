#include "polymg/solvers/metrics.hpp"

#include <array>
#include <cmath>
#include <limits>

#include "polymg/common/parallel.hpp"

namespace polymg::solvers {

double residual_norm(View v, View f, index_t n, double h) {
  const double inv_h2 = 1.0 / (h * h);
  double sum = 0.0;
  if (v.ndim == 2) {
    auto row_sum = [&](index_t i) {
      double s = 0.0;
      for (index_t j = 1; j <= n; ++j) {
        const double av = inv_h2 * (4.0 * v.at2(i, j) - v.at2(i - 1, j) -
                                    v.at2(i + 1, j) - v.at2(i, j - 1) -
                                    v.at2(i, j + 1));
        const double r = f.at2(i, j) - av;
        s += r * r;
      }
      return s;
    };
    // Row partials are summed in row order within a thread and combined
    // by OpenMP's reduction, so the value is deterministic for a fixed
    // thread count (callers compare against tolerances, not bits).
    if (n * n >= kForkGrain && !in_parallel()) {
      note_parallel_region();
#pragma omp parallel for reduction(+ : sum) schedule(static)
      for (index_t i = 1; i <= n; ++i) {
        sum += row_sum(i);
        tsan_join_release();
      }
      tsan_join_acquire();
    } else {
      for (index_t i = 1; i <= n; ++i) sum += row_sum(i);
    }
  } else {
    auto plane_sum = [&](index_t i) {
      double s = 0.0;
      for (index_t j = 1; j <= n; ++j) {
        for (index_t k = 1; k <= n; ++k) {
          const double av =
              inv_h2 * (6.0 * v.at3(i, j, k) - v.at3(i - 1, j, k) -
                        v.at3(i + 1, j, k) - v.at3(i, j - 1, k) -
                        v.at3(i, j + 1, k) - v.at3(i, j, k - 1) -
                        v.at3(i, j, k + 1));
          const double r = f.at3(i, j, k) - av;
          s += r * r;
        }
      }
      return s;
    };
    if (n * n * n >= kForkGrain && !in_parallel()) {
      note_parallel_region();
#pragma omp parallel for reduction(+ : sum) schedule(static)
      for (index_t i = 1; i <= n; ++i) {
        sum += plane_sum(i);
        tsan_join_release();
      }
      tsan_join_acquire();
    } else {
      for (index_t i = 1; i <= n; ++i) sum += plane_sum(i);
    }
  }
  // A poisoned iterate must read as "diverged", never as a small norm:
  // collapse any non-finite accumulation (NaN, or inf from overflow) to
  // a quiet NaN so callers get one canonical not-a-norm value.
  if (!std::isfinite(sum)) return std::numeric_limits<double>::quiet_NaN();
  return std::sqrt(sum);
}

void residual_field(View v, View f, index_t n, double h, View out) {
  const double inv_h2 = 1.0 / (h * h);
  if (v.ndim == 2) {
    auto row = [&](index_t i) {
      std::array<index_t, poly::kMaxDims> q{i, 0, 0};
      for (index_t j = 1; j <= n; ++j) {
        const double av = inv_h2 * (4.0 * v.at2(i, j) - v.at2(i - 1, j) -
                                    v.at2(i + 1, j) - v.at2(i, j - 1) -
                                    v.at2(i, j + 1));
        q[1] = j;
        out.store_at(q, f.at2(i, j) - av);
      }
    };
    if (n * n >= kForkGrain && !in_parallel()) {
      note_parallel_region();
#pragma omp parallel for schedule(static)
      for (index_t i = 1; i <= n; ++i) {
        row(i);
        tsan_join_release();
      }
      tsan_join_acquire();
    } else {
      for (index_t i = 1; i <= n; ++i) row(i);
    }
  } else {
    auto plane = [&](index_t i) {
      std::array<index_t, poly::kMaxDims> q{i, 0, 0};
      for (index_t j = 1; j <= n; ++j) {
        q[1] = j;
        for (index_t k = 1; k <= n; ++k) {
          const double av =
              inv_h2 * (6.0 * v.at3(i, j, k) - v.at3(i - 1, j, k) -
                        v.at3(i + 1, j, k) - v.at3(i, j - 1, k) -
                        v.at3(i, j + 1, k) - v.at3(i, j, k - 1) -
                        v.at3(i, j, k + 1));
          q[2] = k;
          out.store_at(q, f.at3(i, j, k) - av);
        }
      }
    };
    if (n * n * n >= kForkGrain && !in_parallel()) {
      note_parallel_region();
#pragma omp parallel for schedule(static)
      for (index_t i = 1; i <= n; ++i) {
        plane(i);
        tsan_join_release();
      }
      tsan_join_acquire();
    } else {
      for (index_t i = 1; i <= n; ++i) plane(i);
    }
  }
}

double error_norm(View v, View exact, index_t n) {
  const poly::Box interior = poly::Box::cube(v.ndim, 1, n);
  return grid::max_diff(v, exact, interior);
}

}  // namespace polymg::solvers
