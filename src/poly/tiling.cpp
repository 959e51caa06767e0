#include "polymg/poly/tiling.hpp"

namespace polymg::poly {

Box TileGrid::tile_box(index_t t) const {
  PMG_CHECK(t >= 0 && t < total, "tile index out of range");
  Box b(domain.ndim());
  // Decompose the flat index with the last dimension fastest, matching the
  // loop order of the generated code.
  std::array<index_t, kMaxDims> coord{};
  index_t rem = t;
  for (int d = domain.ndim() - 1; d >= 0; --d) {
    coord[d] = rem % ntiles[d];
    rem /= ntiles[d];
  }
  for (int d = 0; d < domain.ndim(); ++d) {
    const index_t step_lo = interior.dim(d).lo + coord[d] * sizes[d];
    const index_t lo = coord[d] == 0 ? domain.dim(d).lo : step_lo;
    const index_t hi = coord[d] == ntiles[d] - 1 ? domain.dim(d).hi
                                                  : step_lo + sizes[d] - 1;
    b.dim(d) = Interval{lo, hi};
  }
  return b;
}

TileGrid make_tile_grid(const Box& domain, const TileSizes& sizes) {
  return make_tile_grid(domain, domain, sizes);
}

TileGrid make_tile_grid(const Box& domain, const Box& interior,
                        const TileSizes& sizes) {
  PMG_CHECK(!domain.empty(), "cannot tile an empty domain");
  PMG_CHECK(interior.ndim() == domain.ndim() && !interior.empty() &&
                domain.contains(interior),
            "tile interior " << interior << " is not a non-empty sub-box of "
                             << domain);
  TileGrid g;
  g.domain = domain;
  g.interior = interior;
  g.total = 1;
  for (int d = 0; d < domain.ndim(); ++d) {
    const index_t extent = interior.dim(d).size();
    const index_t sz = sizes[d] > 0 ? std::min(sizes[d], extent) : extent;
    g.sizes[d] = sz;
    g.ntiles[d] = ceildiv(extent, sz);
    g.total *= g.ntiles[d];
  }
  return g;
}

index_t footprint_extent_bound(const DimAccess& a, index_t region_extent) {
  if (region_extent <= 0) return 0;
  // Image of an extent-e interval under floor(num*x/den) spans at most
  // floor(num*(e-1)/den) + 1 points; the offset range adds (hi - lo); the
  // floor can shift by one extra cell depending on alignment when den > 1.
  const index_t scaled =
      floordiv(a.num * (region_extent - 1), a.den) + 1;
  const index_t slack = a.den > 1 ? 1 : 0;
  return scaled + (a.hi - a.lo) + slack;
}

}  // namespace polymg::poly
