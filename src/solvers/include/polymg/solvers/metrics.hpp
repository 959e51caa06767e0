// Convergence metrics for the Poisson benchmarks.
#pragma once

#include "polymg/grid/ops.hpp"

namespace polymg::solvers {

using grid::View;
using poly::index_t;

/// L2 norm of the residual f - A v with A = -∇²_h (5-/7-point over h²),
/// over the interior [1, n]^d of (n+2)^d views.
double residual_norm(View v, View f, index_t n, double h);

/// Max-norm error against a reference solution over the interior.
double error_norm(View v, View exact, index_t n);

}  // namespace polymg::solvers
