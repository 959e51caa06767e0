// Split/diamond time tiling must reproduce plain Jacobi sweeps exactly
// for any (steps, H, W, n) combination — this is the property the whole
// dtile/handopt+pluto comparison rests on.
#include <gtest/gtest.h>

#include "polymg/common/rng.hpp"
#include "polymg/grid/ops.hpp"
#include "polymg/ir/builder.hpp"
#include "polymg/runtime/timetile.hpp"

namespace polymg::runtime {
namespace {

using grid::Buffer;

// Every field is 64-bit so the struct has no padding: gtest prints the
// raw bytes of the parameter into each registered test name, and padding
// bytes would make those names differ from build to build.
struct SweepCase {
  poly::index_t ndim;
  poly::index_t n;
  poly::index_t steps;
  poly::index_t H, W;
};

class TimeTileTest : public ::testing::TestWithParam<SweepCase> {};

ir::Pipeline smoother_pipeline(int ndim, poly::index_t n, double w,
                               double inv_h2) {
  ir::PipelineBuilder b(ndim);
  const poly::Box dom = poly::Box::cube(ndim, 0, n + 1);
  ir::Handle v = b.input("v", dom);
  ir::Handle f = b.input("f", dom);
  ir::FuncSpec spec;
  spec.name = "sm";
  spec.domain = dom;
  spec.interior = poly::Box::cube(ndim, 1, n);
  ir::Handle out = b.define_tstencil(
      spec, v, {f}, 1, [&](std::span<const ir::SourceRef> s) {
        const ir::Expr stencil =
            ndim == 2 ? ir::stencil2(s[0], ir::five_point_laplacian_2d(),
                                     inv_h2)
                      : ir::stencil3(s[0], ir::seven_point_laplacian_3d(),
                                     inv_h2);
        return s[0]() - ir::make_const(w) * (stencil - s[1]());
      });
  b.mark_output(out);
  return b.build();
}

TEST_P(TimeTileTest, MatchesPlainSweeps) {
  const SweepCase c = GetParam();
  const poly::Box dom = poly::Box::cube(c.ndim, 0, c.n + 1);
  const ir::Pipeline pipe = smoother_pipeline(c.ndim, c.n, 0.15, 4.0);
  const ir::FunctionDecl& step = pipe.funcs[0];
  const ir::LoweredFunc lw = ir::lower(step);

  Buffer f = grid::make_grid(dom);
  Buffer v0 = grid::make_grid(dom);
  Rng rng(c.n * 1000 + c.steps);
  for (std::size_t i = 0; i < f.size(); ++i) f[i] = rng.uniform(-1, 1);
  grid::fill_region(grid::View::over(v0.data(), dom),
                    poly::Box::cube(c.ndim, 1, c.n),
                    [&](auto, auto, auto) { return rng.uniform(-1, 1); });

  auto run = [&](bool tiled) {
    Buffer a = v0.clone();
    Buffer b = v0.clone();  // ghost ring matches v0 in both buffers
    View bufs[2] = {grid::View::over(a.data(), dom),
                    grid::View::over(b.data(), dom)};
    std::vector<View> srcs{View{}, grid::View::over(f.data(), dom)};
    const std::vector<ChainStep> chain(static_cast<std::size_t>(c.steps),
                                       ChainStep{&step, &lw});
    if (tiled) {
      time_tiled_sweep(chain, bufs, srcs, {c.H, c.W});
    } else {
      plain_sweep(chain, bufs, srcs);
    }
    Buffer out = grid::make_grid(dom);
    grid::copy_region(grid::View::over(out.data(), dom),
                      bufs[c.steps & 1], dom);
    return out;
  };

  Buffer plain = run(false);
  Buffer tiled = run(true);
  EXPECT_EQ(grid::max_diff(grid::View::over(plain.data(), dom),
                           grid::View::over(tiled.data(), dom), dom),
            0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, TimeTileTest,
    ::testing::Values(SweepCase{2, 32, 1, 4, 8},    // single step
                      SweepCase{2, 32, 4, 4, 8},    // exact blocks
                      SweepCase{2, 33, 7, 3, 9},    // ragged last block
                      SweepCase{2, 32, 10, 4, 32},  // one block only
                      SweepCase{2, 8, 5, 4, 8},     // tiny grid
                      SweepCase{2, 64, 10, 5, 16},
                      SweepCase{3, 12, 6, 2, 6},
                      SweepCase{3, 16, 10, 4, 8}),
    [](const ::testing::TestParamInfo<SweepCase>& info) {
      const SweepCase& c = info.param;
      return std::to_string(c.ndim) + "D_n" + std::to_string(c.n) + "_T" +
             std::to_string(c.steps) + "_H" + std::to_string(c.H) + "_W" +
             std::to_string(c.W);
    });

TEST(TimeTile, ScheduleAdvancesEveryRowOncePerStep) {
  // Property: for any configuration, each (row, step) pair is produced
  // exactly once, and only after its dependencies.
  for (poly::index_t n : {16, 33, 65}) {
    for (int steps : {1, 5, 8}) {
      for (poly::index_t H : {2, 4}) {
        for (poly::index_t W : {8, 16}) {
          std::vector<std::vector<int>> produced(
              static_cast<std::size_t>(n + 2), std::vector<int>(steps, 0));
          split_tile_schedule(1, n, steps, {H, W},
                              [&](int t, poly::index_t lo, poly::index_t hi) {
                                for (poly::index_t r = lo; r <= hi; ++r) {
                                  produced[static_cast<std::size_t>(r)]
                                          [t] += 1;
                                }
                              });
          for (poly::index_t r = 1; r <= n; ++r) {
            for (int t = 0; t < steps; ++t) {
              EXPECT_EQ(produced[static_cast<std::size_t>(r)][t], 1)
                  << "row " << r << " step " << t << " n=" << n
                  << " T=" << steps << " H=" << H << " W=" << W;
            }
          }
        }
      }
    }
  }
}

TEST(TimeTile, RejectsWideSelfDependence) {
  // A radius-2 self access must be refused.
  ir::PipelineBuilder b(2);
  const poly::Box dom = poly::Box::cube(2, 0, 17);
  ir::Handle v = b.input("v", dom);
  ir::FuncSpec spec;
  spec.name = "wide";
  spec.domain = dom;
  spec.interior = poly::Box::cube(2, 2, 15);
  ir::Handle out = b.define_tstencil(
      spec, v, {}, 1, [&](std::span<const ir::SourceRef> s) {
        return s[0].at(-2, 0) + s[0].at(2, 0);
      });
  b.mark_output(out);
  const ir::Pipeline pipe = b.build();
  const ir::LoweredFunc lw = ir::lower(pipe.funcs[0]);
  grid::Buffer a = grid::make_grid(dom), bb = grid::make_grid(dom);
  View bufs[2] = {grid::View::over(a.data(), dom),
                  grid::View::over(bb.data(), dom)};
  std::vector<View> srcs{View{}};
  const std::vector<ChainStep> chain(2, ChainStep{&pipe.funcs[0], &lw});
  EXPECT_THROW(time_tiled_sweep(chain, bufs, srcs, {2, 8}), Error);
}

}  // namespace
}  // namespace polymg::runtime
