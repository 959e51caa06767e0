#include "polymg/runtime/wavefront.hpp"

#include <vector>

#include "polymg/common/error.hpp"

namespace polymg::runtime {

namespace {

/// Line buffers: for each intermediate time level, a ring of three
/// rows (2-d) or planes (3-d) indexed by spatial position mod 3, plus a
/// shared all-zero line standing in for the Dirichlet ghost ring.
class LineWindow {
public:
  LineWindow(int levels, index_t line_doubles)
      : line_(static_cast<std::size_t>(line_doubles)),
        zeros_(static_cast<std::size_t>(line_doubles), 0.0),
        rows_(static_cast<std::size_t>(levels * 3) * line_) {}

  double* slot(int level, index_t pos) {
    return rows_.data() +
           (static_cast<std::size_t>(level) * 3 +
            static_cast<std::size_t>(pos % 3)) *
               line_;
  }
  const double* zeros() const { return zeros_.data(); }

private:
  std::size_t line_;
  std::vector<double> zeros_;
  std::vector<double> rows_;
};

void wavefront_2d(View v_in, View v_out, View f, index_t n, double w,
                  double inv_h2, int T) {
  const index_t line = n + 2;
  LineWindow win(T - 1, line);

  // Row x of time level t: the input array for t == 0, the output array
  // for t == T, a ring slot otherwise; ghost rows are the zero line.
  auto row_of = [&](int t, index_t x) -> const double* {
    if (x < 1 || x > n) return win.zeros();
    if (t == 0) return v_in.ptr + v_in.offset2(x, 0);
    return win.slot(t - 1, x);
  };

  for (index_t r = 1; r <= n + T - 1; ++r) {
    for (int t = 1; t <= T; ++t) {
      const index_t x = r - (t - 1);
      if (x < 1 || x > n) continue;
      const double* up = row_of(t - 1, x - 1);
      const double* mid = row_of(t - 1, x);
      const double* dn = row_of(t - 1, x + 1);
      const double* fr = f.ptr + f.offset2(x, 0);
      double* dst = t == T ? v_out.ptr + v_out.offset2(x, 0)
                           : win.slot(t - 1, x);
#pragma omp simd
      for (index_t j = 1; j <= n; ++j) {
        const double av = inv_h2 * (4.0 * mid[j] - up[j] - dn[j] -
                                    mid[j - 1] - mid[j + 1]);
        dst[j] = mid[j] - w * (av - fr[j]);
      }
      dst[0] = 0.0;
      dst[n + 1] = 0.0;
    }
  }
}

void wavefront_3d(View v_in, View v_out, View f, index_t n, double w,
                  double inv_h2, int T) {
  const index_t plane = (n + 2) * (n + 2);
  LineWindow win(T - 1, plane);

  auto plane_of = [&](int t, index_t x) -> const double* {
    if (x < 1 || x > n) return win.zeros();
    if (t == 0) return v_in.ptr + v_in.offset3(x, 0, 0);
    return win.slot(t - 1, x);
  };

  for (index_t r = 1; r <= n + T - 1; ++r) {
    for (int t = 1; t <= T; ++t) {
      const index_t x = r - (t - 1);
      if (x < 1 || x > n) continue;
      const double* up = plane_of(t - 1, x - 1);
      const double* mid = plane_of(t - 1, x);
      const double* dn = plane_of(t - 1, x + 1);
      double* dst = t == T ? v_out.ptr + v_out.offset3(x, 0, 0)
                           : win.slot(t - 1, x);
      const index_t stride = n + 2;
      for (index_t j = 0; j < n + 2; ++j) {
        double* drow = dst + j * stride;
        if (j < 1 || j > n) {
          for (index_t k = 0; k < n + 2; ++k) drow[k] = 0.0;
          continue;
        }
        const double* m = mid + j * stride;
        const double* jm = mid + (j - 1) * stride;
        const double* jp = mid + (j + 1) * stride;
        const double* u = up + j * stride;
        const double* d = dn + j * stride;
        const double* fr = f.ptr + f.offset3(x, j, 0);
#pragma omp simd
        for (index_t k = 1; k <= n; ++k) {
          const double av = inv_h2 * (6.0 * m[k] - u[k] - d[k] - jm[k] -
                                      jp[k] - m[k - 1] - m[k + 1]);
          drow[k] = m[k] - w * (av - fr[k]);
        }
        drow[0] = 0.0;
        drow[n + 1] = 0.0;
      }
    }
  }
}

}  // namespace

void wavefront_jacobi(View v_in, View v_out, View f, index_t n, int ndim,
                      double w, double inv_h2, int T) {
  PMG_CHECK(T >= 1, "wavefront needs at least one step");
  PMG_CHECK(ndim == 2 || ndim == 3, "wavefront supports 2-d and 3-d grids");
  PMG_CHECK(v_in.ptr != v_out.ptr, "wavefront input and output must differ");
  if (ndim == 2) {
    wavefront_2d(v_in, v_out, f, n, w, inv_h2, T);
  } else {
    wavefront_3d(v_in, v_out, f, n, w, inv_h2, T);
  }
}

}  // namespace polymg::runtime
