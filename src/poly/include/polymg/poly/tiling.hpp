// Tile partitioning helpers for overlapped tiling.
//
// Overlapped tiles partition the live-out (anchor) domain disjointly; the
// overlap appears when the planner walks backwards through the fused group
// growing each producer's required region via footprint(). This header
// provides the disjoint partition of the anchor domain and the arithmetic
// for sizing the per-stage scratchpad maxima.
#pragma once

#include <array>
#include <vector>

#include "polymg/poly/access.hpp"

namespace polymg::poly {

/// Tile edge lengths, one per dimension (outermost first). Dimensions a
/// pipeline does not have are ignored.
using TileSizes = std::array<index_t, kMaxDims>;

/// Grid of tiles covering `domain` disjointly. The tiles step through
/// `interior` (a sub-box of the domain; the domain itself for the plain
/// form): tile (i0,i1,...) covers [in_d + i_d*size_d, in_d +
/// (i_d+1)*size_d - 1] with in_d = interior.lo_d, except that the first
/// tile of a dimension starts at the domain's lo and the last one ends at
/// its hi.
struct TileGrid {
  Box domain;
  Box interior;
  TileSizes sizes{};
  std::array<index_t, kMaxDims> ntiles{};  // tiles per dimension
  index_t total = 0;                       // product of ntiles

  /// Box of the flat tile index t ∈ [0, total).
  Box tile_box(index_t t) const;
};

/// Partition `domain` into tiles of at most `sizes` per dimension.
/// Dimensions with size <= 0 become a single tile spanning the domain.
TileGrid make_tile_grid(const Box& domain, const TileSizes& sizes);

/// Partition `domain` by stepping through `interior` in tiles of `sizes`:
/// ceil(interior extent / size) tiles per dimension, the first and last
/// of which also take the ghost layers below and above the interior. No
/// tile holds more than `sizes` interior points per dimension, so a
/// 2^k+1-point level with a one-point ghost ring tiles into whole tiles
/// instead of ending in a one-point sliver. Dimensions with size <= 0
/// (or an interior no wider than the size) become a single tile spanning
/// the domain.
TileGrid make_tile_grid(const Box& domain, const Box& interior,
                        const TileSizes& sizes);

/// Upper bound on the per-dimension extent of footprint(a, region) given
/// only the extent of `region` — used at plan time to size scratchpads
/// before concrete tile coordinates exist. Exact up to the +1 slack a ÷2
/// sampled access can add from floor alignment.
index_t footprint_extent_bound(const DimAccess& a, index_t region_extent);

}  // namespace polymg::poly
