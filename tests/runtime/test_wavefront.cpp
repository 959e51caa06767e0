// Wavefront (time-skewed, line-buffered) smoothing must agree exactly
// with plain Jacobi sweeps for any step count and grid size.
#include <gtest/gtest.h>

#include "polymg/common/rng.hpp"
#include "polymg/grid/ops.hpp"
#include "polymg/runtime/wavefront.hpp"

namespace polymg::runtime {
namespace {

using grid::Buffer;

// Every field is 64-bit so the struct has no padding: gtest prints the
// raw bytes of the parameter into each registered test name, and padding
// bytes would make those names differ from build to build.
struct WfCase {
  poly::index_t ndim;
  poly::index_t n;
  poly::index_t T;
};

class WavefrontTest : public ::testing::TestWithParam<WfCase> {};

TEST_P(WavefrontTest, MatchesPlainSweeps) {
  const WfCase c = GetParam();
  const poly::Box dom = poly::Box::cube(c.ndim, 0, c.n + 1);
  const poly::Box interior = poly::Box::cube(c.ndim, 1, c.n);
  const double w = 0.11, inv_h2 = 9.0;

  Buffer f = grid::make_grid(dom);
  Buffer v0 = grid::make_grid(dom);
  Rng rng(c.n * 31 + c.T);
  grid::fill_region(grid::View::over(f.data(), dom), interior,
                    [&](auto, auto, auto) { return rng.uniform(-1, 1); });
  grid::fill_region(grid::View::over(v0.data(), dom), interior,
                    [&](auto, auto, auto) { return rng.uniform(-1, 1); });

  // Reference: plain ping-pong sweeps.
  Buffer a = v0.clone(), b = grid::make_grid(dom);
  View bufs[2] = {grid::View::over(a.data(), dom),
                  grid::View::over(b.data(), dom)};
  const View fv = grid::View::over(f.data(), dom);
  for (int t = 0; t < c.T; ++t) {
    View src = bufs[t & 1], dst = bufs[(t + 1) & 1];
    grid::fill_region(dst, interior, [&](auto i, auto j, auto k) {
      double av;
      if (c.ndim == 2) {
        av = inv_h2 * (4 * src.at2(i, j) - src.at2(i - 1, j) -
                       src.at2(i + 1, j) - src.at2(i, j - 1) -
                       src.at2(i, j + 1));
        return src.at2(i, j) - w * (av - fv.at2(i, j));
      }
      av = inv_h2 * (6 * src.at3(i, j, k) - src.at3(i - 1, j, k) -
                     src.at3(i + 1, j, k) - src.at3(i, j - 1, k) -
                     src.at3(i, j + 1, k) - src.at3(i, j, k - 1) -
                     src.at3(i, j, k + 1));
      return src.at3(i, j, k) - w * (av - fv.at3(i, j, k));
    });
  }
  const View expected = bufs[c.T & 1];

  // Wavefront.
  Buffer in = v0.clone();
  Buffer out = grid::make_grid(dom);
  wavefront_jacobi(grid::View::over(in.data(), dom),
                   grid::View::over(out.data(), dom), fv, c.n, c.ndim, w,
                   inv_h2, c.T);

  EXPECT_EQ(grid::max_diff(grid::View::over(out.data(), dom), expected,
                           interior),
            0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, WavefrontTest,
    ::testing::Values(WfCase{2, 16, 1}, WfCase{2, 16, 4}, WfCase{2, 33, 7},
                      WfCase{2, 8, 10},  // pipeline longer than the grid
                      WfCase{3, 8, 3}, WfCase{3, 12, 6}),
    [](const ::testing::TestParamInfo<WfCase>& info) {
      return std::to_string(info.param.ndim) + "D_n" +
             std::to_string(info.param.n) + "_T" +
             std::to_string(info.param.T);
    });

TEST(Wavefront, RejectsBadArguments) {
  const poly::Box dom = poly::Box::cube(2, 0, 9);
  Buffer a = grid::make_grid(dom), f = grid::make_grid(dom);
  const View av = grid::View::over(a.data(), dom);
  EXPECT_THROW(wavefront_jacobi(av, av, grid::View::over(f.data(), dom), 8,
                                2, 0.1, 1.0, 3),
               Error);  // aliasing
  Buffer b = grid::make_grid(dom);
  EXPECT_THROW(wavefront_jacobi(av, grid::View::over(b.data(), dom),
                                grid::View::over(f.data(), dom), 8, 2, 0.1,
                                1.0, 0),
               Error);  // zero steps
}

}  // namespace
}  // namespace polymg::runtime
