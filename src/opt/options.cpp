#include "polymg/opt/options.hpp"

namespace polymg::opt {

std::string to_string(Variant v) {
  switch (v) {
    case Variant::Naive:
      return "polymg-naive";
    case Variant::Opt:
      return "polymg-opt";
    case Variant::OptPlus:
      return "polymg-opt+";
    case Variant::DtileOptPlus:
      return "polymg-dtile-opt+";
  }
  return "?";
}

std::string to_string(JitMode m) {
  switch (m) {
    case JitMode::Off:
      return "off";
    case JitMode::Auto:
      return "auto";
    case JitMode::On:
      return "on";
  }
  return "?";
}

CompileOptions CompileOptions::for_variant(Variant v, int ndim) {
  CompileOptions o;
  o.variant = v;
  o.tile = {0, 0, 0};
  (void)ndim;
  switch (v) {
    case Variant::Naive:
      o.intra_group_reuse = false;
      o.inter_group_reuse = false;
      o.pooled_allocation = false;
      o.collapse = false;
      break;
    case Variant::Opt:
      // PolyMage's image-processing optimizer: fusion + overlapped tiling
      // + scratchpads, but one-to-one storage and per-cycle allocation.
      o.intra_group_reuse = false;
      o.inter_group_reuse = false;
      o.pooled_allocation = false;
      break;
    case Variant::OptPlus:
    case Variant::DtileOptPlus:
      break;  // all storage optimizations on (the defaults)
  }
  return o;
}

poly::TileSizes CompileOptions::resolved_tile(int ndim) const {
  poly::TileSizes t = tile;
  if (ndim == 2) {
    if (t[0] <= 0) t[0] = 32;
    if (t[1] <= 0) t[1] = 256;
  } else if (ndim == 3) {
    // Upper end of the paper's 3-d search range (8:32 outer, 64:256
    // inner): larger outer tiles keep the overlapped-tile redundancy of
    // deep smoother groups acceptable on one-socket machines.
    if (t[0] <= 0) t[0] = 32;
    if (t[1] <= 0) t[1] = 32;
    if (t[2] <= 0) t[2] = 128;
  } else {
    if (t[0] <= 0) t[0] = 1024;
  }
  return t;
}

}  // namespace polymg::opt
