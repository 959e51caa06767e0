#include "polymg/grid/ops.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <type_traits>

#include "polymg/common/parallel.hpp"

namespace polymg::grid {

namespace {

/// NaN-propagating max: std::max(m, NaN) silently keeps m, so a poisoned
/// field would report a healthy norm. Once m is NaN it stays NaN.
double nan_max(double m, double x) { return x > m || x != x ? x : m; }

#pragma omp declare reduction(nan_max : double : omp_out =                \
                                  nan_max(omp_out, omp_in))               \
    initializer(omp_priv = 0.0)

/// One contiguous last-dimension row of a region: its first point (unused
/// dims 0), that point's element offsets in the two walked views, length.
struct Row {
  std::array<index_t, 3> p;
  index_t a, b, len;
};

/// The row walker behind every region op: calls row(r) for each row of
/// `region` and folds the returned values with nan_max (ops without a
/// result return 0). With `fork`, a region of at least kForkGrain points
/// outside a parallel region is split over the team along its outermost
/// dimension; rows are disjoint, and nan_max is order-independent.
template <typename RowFn>
double walk_rows(const Box& region, const View& a, const View& b, bool fork,
                 RowFn&& row) {
  if (region.empty()) return 0.0;
  const int nd = region.ndim();
  PMG_CHECK(nd >= 1 && nd <= 3 && a.ndim == nd && b.ndim == nd,
            "region op ndim mismatch: region " << nd << ", views " << a.ndim
                                               << "/" << b.ndim);
  PMG_CHECK(a.stride[nd - 1] == 1 && b.stride[nd - 1] == 1,
            "region ops require a contiguous last dimension");
  const index_t len = region.dim(nd - 1).size();
  const index_t k0 = region.dim(nd - 1).lo;
  // Every row whose outermost index is i (the single row of a 1-d region).
  const auto rows_at = [&](index_t i) {
    if (nd == 1) return row(Row{{k0, 0, 0}, k0 - a.origin[0],
                                k0 - b.origin[0], len});
    if (nd == 2) return row(Row{{i, k0, 0}, a.offset2(i, k0),
                                b.offset2(i, k0), len});
    double m = 0.0;
    for (index_t j = region.dim(1).lo; j <= region.dim(1).hi; ++j) {
      m = nan_max(m, row(Row{{i, j, k0}, a.offset3(i, j, k0),
                             b.offset3(i, j, k0), len}));
    }
    return m;
  };
  const index_t lo = nd == 1 ? 0 : region.dim(0).lo;
  const index_t hi = nd == 1 ? 0 : region.dim(0).hi;
  double m = 0.0;
  if (fork && nd > 1 && region.count() >= kForkGrain && !in_parallel()) {
    note_parallel_region();
    tsan_join_release();  // fork edge: the team sees the caller's writes
#pragma omp parallel reduction(nan_max : m)
    {
      tsan_join_acquire();
#pragma omp for schedule(static) nowait
      for (index_t i = lo; i <= hi; ++i) m = nan_max(m, rows_at(i));
      tsan_join_release();
    }
    tsan_join_acquire();
    return m;
  }
  for (index_t i = lo; i <= hi; ++i) m = nan_max(m, rows_at(i));
  return m;
}

/// fn(p) with the view's storage pointer typed by its dtype (double* or
/// float*): the dtype is dispatched once per region, not per point.
template <typename Fn>
auto with_typed(const View& v, Fn&& fn) {
  if (v.dtype == DType::F32) return fn(v.f32());
  return fn(v.ptr);
}

template <typename Fn>
auto with_typed(const View& a, const View& b, Fn&& fn) {
  return with_typed(a, [&](auto* pa) {
    return with_typed(b, [&](auto* pb) { return fn(pa, pb); });
  });
}

template <typename P>
using elem_t = std::remove_pointer_t<P>;

}  // namespace

Buffer make_grid(const Box& domain) {
  Buffer b(static_cast<std::size_t>(domain.count()));
  b.fill(0.0);
  return b;
}

BufferF32 make_grid_f32(const Box& domain) {
  BufferF32 b(static_cast<std::size_t>(domain.count()));
  b.fill(0.0f);
  return b;
}

void fill_region(View v, const Box& region,
                 const std::function<double(index_t, index_t, index_t)>& f) {
  with_typed(v, [&](auto* base) {
    walk_rows(region, v, v, false, [&](const Row& r) {
      std::array<index_t, 3> p = r.p;
      index_t& k = p[region.ndim() - 1];
      using T = elem_t<decltype(base)>;
      for (index_t l = 0; l < r.len; ++l, ++k) {
        base[r.a + l] = static_cast<T>(f(p[0], p[1], p[2]));
      }
      return 0.0;
    });
  });
}

void fill_region(View v, const Box& region, double value) {
  with_typed(v, [&](auto* base) {
    const auto x = static_cast<elem_t<decltype(base)>>(value);
    walk_rows(region, v, v, false, [&](const Row& r) {
      std::fill_n(base + r.a, r.len, x);
      return 0.0;
    });
  });
}

void copy_region(View dst, View src, const Box& region, Fork fork) {
  with_typed(dst, src, [&](auto* d, auto* s) {
    using D = elem_t<decltype(d)>;
    walk_rows(region, dst, src, fork == Fork::Auto, [&](const Row& r) {
      if constexpr (std::is_same_v<D, elem_t<decltype(s)>>) {
        std::memcpy(d + r.a, s + r.b,
                    static_cast<std::size_t>(r.len) * sizeof(D));
      } else {
        for (index_t l = 0; l < r.len; ++l) {
          d[r.a + l] = static_cast<D>(s[r.b + l]);
        }
      }
      return 0.0;
    });
  });
}

void add_region(View dst, View src, const Box& region) {
  with_typed(dst, src, [&](auto* d, const auto* s) {
    using D = elem_t<decltype(d)>;
    walk_rows(region, dst, src, true, [&](const Row& r) {
      for (index_t l = 0; l < r.len; ++l) {
        d[r.a + l] = static_cast<D>(static_cast<double>(d[r.a + l]) +
                                    static_cast<double>(s[r.b + l]));
      }
      return 0.0;
    });
  });
}

double max_norm(View v, const Box& region) {
  return with_typed(v, [&](const auto* p) {
    return walk_rows(region, v, v, true, [&](const Row& r) {
      double m = 0.0;
      for (index_t l = 0; l < r.len; ++l) {
        m = nan_max(m, std::abs(static_cast<double>(p[r.a + l])));
      }
      return m;
    });
  });
}

double l2_norm(View v, const Box& region) {
  // Serial and row-major: the sum's rounding depends on its order.
  double s = 0.0;
  with_typed(v, [&](const auto* p) {
    walk_rows(region, v, v, false, [&](const Row& r) {
      for (index_t l = 0; l < r.len; ++l) {
        const double x = p[r.a + l];
        s += x * x;
      }
      return 0.0;
    });
  });
  return std::sqrt(s);
}

double max_diff(View a, View b, const Box& region) {
  return with_typed(a, b, [&](const auto* pa, const auto* pb) {
    return walk_rows(region, a, b, true, [&](const Row& r) {
      double m = 0.0;
      for (index_t l = 0; l < r.len; ++l) {
        m = nan_max(m, std::abs(static_cast<double>(pa[r.a + l]) -
                                static_cast<double>(pb[r.b + l])));
      }
      return m;
    });
  });
}

}  // namespace polymg::grid
