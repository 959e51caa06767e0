// Non-owning strided views over buffers.
//
// A View maps logical grid coordinates to a flat buffer whose origin may
// be offset — the same view type addresses full arrays (origin = domain
// lower corner) and tile scratchpads (origin = the tile footprint's lower
// corner), so every kernel is written once against View.
#pragma once

#include <array>

#include "polymg/poly/box.hpp"

namespace polymg::grid {

using poly::Box;
using poly::index_t;
using poly::kMaxDims;

/// Strided view: element (i0, i1, ...) lives at
///   ptr[(i0 - origin0)*stride0 + (i1 - origin1)*stride1 + ...].
/// The last dimension is contiguous (stride == 1) in all views PolyMG
/// creates; kernels rely on that for their inner loops.
struct View {
  double* ptr = nullptr;
  int ndim = 0;
  std::array<index_t, kMaxDims> origin{};
  std::array<index_t, kMaxDims> stride{};

  /// View covering `box` at the start of `data` (row-major, last dim
  /// contiguous). `data` must hold at least box.count() doubles.
  static View over(double* data, const Box& box) {
    View v;
    v.ptr = data;
    v.ndim = box.ndim();
    index_t s = 1;
    for (int d = box.ndim() - 1; d >= 0; --d) {
      v.origin[d] = box.dim(d).lo;
      v.stride[d] = s;
      s *= box.dim(d).size();
    }
    return v;
  }

  index_t offset2(index_t i, index_t j) const {
    return (i - origin[0]) * stride[0] + (j - origin[1]) * stride[1];
  }
  index_t offset3(index_t i, index_t j, index_t k) const {
    return (i - origin[0]) * stride[0] + (j - origin[1]) * stride[1] +
           (k - origin[2]) * stride[2];
  }

  double& at2(index_t i, index_t j) { return ptr[offset2(i, j)]; }
  double at2(index_t i, index_t j) const { return ptr[offset2(i, j)]; }
  double& at3(index_t i, index_t j, index_t k) {
    return ptr[offset3(i, j, k)];
  }
  double at3(index_t i, index_t j, index_t k) const {
    return ptr[offset3(i, j, k)];
  }

  /// Conservative check that this view can address every point of `box`
  /// without aliasing a neighbouring row: the origin must not exceed the
  /// box's lower corner, the last dimension must be contiguous, and each
  /// inner extent implied by the stride ratio must span the box. The
  /// outermost allocation size is not recoverable from a raw pointer, so
  /// a view can still pass while under-allocated along dimension 0 —
  /// this catches the common misuse (a view built over a smaller or
  /// shifted domain), not every possible one.
  bool covers(const Box& box) const {
    if (ptr == nullptr || ndim != box.ndim() || ndim == 0) return false;
    if (stride[ndim - 1] != 1) return false;
    for (int d = 0; d < ndim; ++d) {
      if (origin[d] > box.dim(d).lo) return false;
    }
    for (int d = ndim - 1; d >= 1; --d) {
      if (stride[d - 1] <= 0 || stride[d - 1] % stride[d] != 0) return false;
      const index_t extent = stride[d - 1] / stride[d];
      if (box.dim(d).hi - origin[d] + 1 > extent) return false;
    }
    return true;
  }

  /// Generic accessor for dimension-agnostic code paths (the stack
  /// bytecode interpreter, health scans, fault injection, tests).
  double& at(const std::array<index_t, kMaxDims>& p) {
    index_t off = 0;
    for (int d = 0; d < ndim; ++d) off += (p[d] - origin[d]) * stride[d];
    return ptr[off];
  }
  double at(const std::array<index_t, kMaxDims>& p) const {
    index_t off = 0;
    for (int d = 0; d < ndim; ++d) off += (p[d] - origin[d]) * stride[d];
    return ptr[off];
  }
};

}  // namespace polymg::grid
