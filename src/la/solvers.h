// Iterative solvers: power iteration and the Jacobi fixed-point method.
//
// The paper's convergence theory (Sect. 5.1) rests on the Jacobi method for
// y = (I - M)^-1 x, whose update y <- x + M y converges iff rho(M) < 1
// (Eq. 13). Power iteration estimates rho(M) for the exact criteria of
// Lemma 8 without materializing M.

#ifndef LINBP_LA_SOLVERS_H_
#define LINBP_LA_SOLVERS_H_

#include <cstdint>
#include <vector>

#include "src/la/kron_ops.h"

namespace linbp {

/// Result of a power-iteration spectral radius estimate.
struct PowerIterationResult {
  double spectral_radius = 0.0;
  int iterations = 0;
  bool converged = false;
};

/// Estimates rho(M) via power iteration with a deterministic pseudo-random
/// start vector. Converges for symmetric operators and for non-negative
/// operators (Perron-Frobenius); both cases cover every use in this library.
PowerIterationResult PowerIteration(const LinearOperator& op,
                                    int max_iterations = 200,
                                    double tolerance = 1e-9,
                                    std::uint64_t seed = 12345);

/// Empirical contraction rate rho-hat: least-squares log-linear fit of
/// the per-iteration residual deltas (the slope of ln(delta) over the
/// iteration index, exponentiated). Uses the last `window` entries of
/// `deltas`, skipping non-finite and non-positive values. Asymptotically
/// this estimates rho(M) of the underlying Jacobi update (Eq. 13: the
/// residual contracts by rho(M) per sweep). Returns 0 when fewer than 2
/// usable deltas remain.
double FitContractionRate(const std::vector<double>& deltas, int window = 16);

/// Result of the Jacobi fixed-point solve.
struct JacobiResult {
  std::vector<double> solution;
  int iterations = 0;
  bool converged = false;
  double last_delta = 0.0;  // max abs change in the final sweep
};

/// Solves y = x + M y by fixed-point iteration from y = 0 (equivalently,
/// y = (I - M)^-1 x when rho(M) < 1). Stops when the max abs change drops
/// below `tolerance` or after `max_iterations` sweeps, and unconverged at
/// the first sweep whose iterate is not finite (a rho(M) >= 1 system
/// overflowing).
JacobiResult JacobiSolve(const LinearOperator& op, const std::vector<double>& x,
                         int max_iterations = 200, double tolerance = 1e-12);

}  // namespace linbp

#endif  // LINBP_LA_SOLVERS_H_
