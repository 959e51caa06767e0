#include <gtest/gtest.h>

#include "polymg/poly/tiling.hpp"

namespace polymg::poly {
namespace {

TEST(Tiling3d, PartitionCoversDisjointly) {
  const Box dom{{0, 33}, {0, 17}, {0, 129}};
  const TileGrid g = make_tile_grid(dom, {8, 8, 64});
  EXPECT_EQ(g.ntiles[0], 5);
  EXPECT_EQ(g.ntiles[1], 3);
  EXPECT_EQ(g.ntiles[2], 3);
  index_t covered = 0;
  for (index_t t = 0; t < g.total; ++t) {
    const Box b = g.tile_box(t);
    EXPECT_TRUE(dom.contains(b));
    covered += b.count();
  }
  EXPECT_EQ(covered, dom.count());
  // Spot-check disjointness on a sample of pairs (full n² too slow).
  for (index_t t = 0; t < g.total; ++t) {
    EXPECT_TRUE(intersect(g.tile_box(t),
                          g.tile_box((t + 1) % g.total))
                    .empty() ||
                g.total == 1);
  }
}

TEST(Tiling3d, InteriorFormTilesClassCLevels) {
  // The 3-d class C finest level (129^3 points, 127^3 interior) in the
  // default 32x32x128 tiles: 4x4x1 tiles, where the plain form deals
  // 5x5x2 and 34 of its 50 tiles are slivers.
  const Box dom = Box::cube(3, 0, 128);
  const Box in = Box::cube(3, 1, 127);
  const TileGrid g = make_tile_grid(dom, in, {32, 32, 128});
  EXPECT_EQ(g.ntiles[0], 4);
  EXPECT_EQ(g.ntiles[1], 4);
  EXPECT_EQ(g.ntiles[2], 1);
  EXPECT_EQ(make_tile_grid(dom, {32, 32, 128}).total, 50);
  EXPECT_EQ(g.tile_box(0), (Box{{0, 32}, {0, 32}, {0, 128}}));
  EXPECT_EQ(g.tile_box(15), (Box{{97, 128}, {97, 128}, {0, 128}}));
  index_t covered = 0;
  for (index_t t = 0; t < g.total; ++t) {
    const Box b = g.tile_box(t);
    EXPECT_TRUE(dom.contains(b));
    covered += b.count();
    for (index_t u = 0; u < t; ++u) {
      EXPECT_TRUE(intersect(b, g.tile_box(u)).empty());
    }
    const Box inner = intersect(b, in);
    for (int d = 0; d < 3; ++d) EXPECT_LE(inner.dim(d).size(), g.sizes[d]);
  }
  EXPECT_EQ(covered, dom.count());
}

TEST(Tiling3d, InteriorFormTilesNasLevels) {
  // NAS-MG class C: 66^3 points (64^3 interior) -> 2x2x1 tiles, not 3x3x1.
  const Box dom = Box::cube(3, 0, 65);
  const TileGrid g = make_tile_grid(dom, Box::cube(3, 1, 64), {32, 32, 128});
  EXPECT_EQ(g.total, 4);
  EXPECT_EQ(g.tile_box(0), (Box{{0, 32}, {0, 32}, {0, 65}}));
  EXPECT_EQ(g.tile_box(3), (Box{{33, 65}, {33, 65}, {0, 65}}));
  // A coarse level whose interior fits one tile is the whole domain.
  const TileGrid c =
      make_tile_grid(Box::cube(3, 0, 17), Box::cube(3, 1, 16), {32, 32, 128});
  EXPECT_EQ(c.total, 1);
  EXPECT_EQ(c.tile_box(0), Box::cube(3, 0, 17));
}

TEST(Tiling3d, FlatIndexLastDimFastest) {
  const Box dom{{0, 15}, {0, 15}, {0, 15}};
  const TileGrid g = make_tile_grid(dom, {8, 8, 8});
  // Tiles 0 and 1 differ only in the last dimension.
  const Box a = g.tile_box(0), b = g.tile_box(1);
  EXPECT_EQ(a.dim(0), b.dim(0));
  EXPECT_EQ(a.dim(1), b.dim(1));
  EXPECT_NE(a.dim(2).lo, b.dim(2).lo);
}

}  // namespace
}  // namespace polymg::poly
