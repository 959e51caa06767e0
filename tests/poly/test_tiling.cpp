#include <gtest/gtest.h>

#include "polymg/poly/tiling.hpp"

namespace polymg::poly {
namespace {

TEST(Tiling, PartitionCoversDisjointly) {
  const Box dom{{0, 65}, {0, 129}};
  const TileGrid g = make_tile_grid(dom, {32, 64, 0});
  EXPECT_EQ(g.ntiles[0], 3);
  EXPECT_EQ(g.ntiles[1], 3);
  EXPECT_EQ(g.total, 9);
  index_t covered = 0;
  for (index_t t = 0; t < g.total; ++t) {
    const Box b = g.tile_box(t);
    EXPECT_TRUE(dom.contains(b));
    covered += b.count();
    for (index_t u = 0; u < t; ++u) {
      EXPECT_TRUE(intersect(b, g.tile_box(u)).empty());
    }
  }
  EXPECT_EQ(covered, dom.count());
}

TEST(Tiling, ZeroSizeMeansWholeDimension) {
  const Box dom{{0, 99}, {0, 99}};
  const TileGrid g = make_tile_grid(dom, {25, 0, 0});
  EXPECT_EQ(g.ntiles[0], 4);
  EXPECT_EQ(g.ntiles[1], 1);
  EXPECT_EQ(g.tile_box(0).dim(1).size(), 100);
}

TEST(Tiling, OversizeTileClamps) {
  const Box dom{{0, 9}, {0, 9}};
  const TileGrid g = make_tile_grid(dom, {100, 100, 0});
  EXPECT_EQ(g.total, 1);
  EXPECT_EQ(g.tile_box(0), dom);
}

// The interior form partitions the domain disjointly, steps through the
// interior in whole tiles (inner tiles start at interior.lo + k*size and
// span exactly `size`) and puts the ghost layers in the edge tiles; no
// tile holds more than `size` interior points in any dimension.
void expect_interior_partition(const TileGrid& g) {
  index_t covered = 0;
  for (index_t t = 0; t < g.total; ++t) {
    const Box b = g.tile_box(t);
    EXPECT_TRUE(g.domain.contains(b)) << b;
    covered += b.count();
    for (index_t u = 0; u < t; ++u) {
      EXPECT_TRUE(intersect(b, g.tile_box(u)).empty()) << b;
    }
    const Box in = intersect(b, g.interior);
    for (int d = 0; d < g.domain.ndim(); ++d) {
      EXPECT_LE(in.dim(d).size(), g.sizes[d]) << b;
      const bool first = b.dim(d).lo == g.domain.dim(d).lo;
      const bool last = b.dim(d).hi == g.domain.dim(d).hi;
      if (!first) {
        EXPECT_EQ((b.dim(d).lo - g.interior.dim(d).lo) % g.sizes[d], 0) << b;
      }
      if (!first && !last) EXPECT_EQ(b.dim(d).size(), g.sizes[d]) << b;
    }
  }
  EXPECT_EQ(covered, g.domain.count());
}

TEST(Tiling, InteriorFormTiles2kPlus1Levels) {
  // A 65-point level (63 interior points, one ghost layer per side) in
  // 16x32 tiles: 4x2 tiles instead of the 5x3 the plain form deals,
  // whose last row and column are one-point slivers.
  const Box dom{{0, 64}, {0, 64}};
  const Box in{{1, 63}, {1, 63}};
  const TileGrid g = make_tile_grid(dom, in, {16, 32, 0});
  EXPECT_EQ(g.ntiles[0], 4);
  EXPECT_EQ(g.ntiles[1], 2);
  EXPECT_EQ(g.total, 8);
  EXPECT_EQ(g.tile_box(0), (Box{{0, 16}, {0, 32}}));
  EXPECT_EQ(g.tile_box(3), (Box{{17, 32}, {33, 64}}));
  EXPECT_EQ(g.tile_box(7), (Box{{49, 64}, {33, 64}}));
  expect_interior_partition(g);
  EXPECT_EQ(make_tile_grid(dom, {16, 32, 0}).total, 15);
}

TEST(Tiling, InteriorFormTiles2kPlus2Levels) {
  // NAS-MG levels are 2^k interior points plus a ghost layer per side.
  const Box dom{{0, 65}, {0, 65}};
  const Box in{{1, 64}, {1, 64}};
  const TileGrid g = make_tile_grid(dom, in, {32, 32, 0});
  EXPECT_EQ(g.total, 4);
  EXPECT_EQ(g.tile_box(0), (Box{{0, 32}, {0, 32}}));
  EXPECT_EQ(g.tile_box(3), (Box{{33, 65}, {33, 65}}));
  expect_interior_partition(g);
}

TEST(Tiling, InteriorSmallerThanATileIsOneTile) {
  const Box dom{{0, 16}, {0, 16}};
  const Box in{{1, 15}, {1, 15}};
  const TileGrid g = make_tile_grid(dom, in, {32, 256, 0});
  EXPECT_EQ(g.total, 1);
  EXPECT_EQ(g.tile_box(0), dom);
  // Exactly one tile's worth of interior is still one tile.
  EXPECT_EQ(make_tile_grid(Box{{0, 33}}, Box{{1, 32}}, {32, 0, 0}).total, 1);
}

TEST(Tiling, InteriorFormWithWiderGhostsAndUnevenTail) {
  // Two ghost layers per side and an interior that is not a multiple of
  // the tile: the last tile holds the remainder plus the upper ghosts.
  const Box dom{{0, 44}, {0, 9}};
  const Box in{{2, 42}, {2, 7}};
  const TileGrid g = make_tile_grid(dom, in, {10, 0, 0});
  EXPECT_EQ(g.ntiles[0], 5);
  EXPECT_EQ(g.ntiles[1], 1);
  EXPECT_EQ(g.tile_box(0), (Box{{0, 11}, {0, 9}}));
  EXPECT_EQ(g.tile_box(4), (Box{{42, 44}, {0, 9}}));
  expect_interior_partition(g);
}

TEST(Tiling, PlainFormIsTheInteriorFormOverTheDomain) {
  const Box dom{{0, 65}, {0, 129}};
  const TileGrid a = make_tile_grid(dom, {32, 64, 0});
  const TileGrid b = make_tile_grid(dom, dom, {32, 64, 0});
  ASSERT_EQ(a.total, b.total);
  for (index_t t = 0; t < a.total; ++t) {
    EXPECT_EQ(a.tile_box(t), b.tile_box(t));
  }
}

TEST(Tiling, FootprintExtentBoundCoversActual) {
  // For every access shape used by multigrid, the plan-time bound must
  // dominate the runtime footprint extent at any alignment.
  const DimAccess shapes[] = {
      {1, 1, -1, 1},  // smoother
      {2, 1, -1, 1},  // restrict
      {1, 2, 0, 1},   // interp
      {1, 1, 0, 0},   // point-wise
  };
  for (const DimAccess& a : shapes) {
    for (index_t lo = 0; lo <= 3; ++lo) {
      for (index_t extent = 1; extent <= 40; ++extent) {
        const Box fp = footprint(
            Access{1, {a}}, Box{{lo, lo + extent - 1}});
        EXPECT_LE(fp.dim(0).size(), footprint_extent_bound(a, extent))
            << "access " << a << " lo " << lo << " extent " << extent;
      }
    }
  }
}

}  // namespace
}  // namespace polymg::poly
