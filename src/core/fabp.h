// Binary-class linearized BP (Appendix E of the paper; FaBP of Koutra et
// al., ECML/PKDD'11).
//
// For k = 2 the residuals collapse to scalars: beliefs bhat = [b, -b],
// coupling Hhat = [[h, -h], [-h, h]]. The steady state satisfies
//   b = (I_n - c1 * A + c2 * D)^-1 e
// with c1 = 2h / (1 - 4h^2) and c2 = 4h^2 / (1 - 4h^2). This equals the
// kLinBpExact variant specialized to k = 2 (the paper shows both centering
// choices lead to the same equation). The Jacobi update
// b <- e + c1*A*b - c2*D*b is the LinBP sweep B <- E + A*B*M - D*B*M2
// with n x 1 beliefs, M = [c1] and M2 = [c2], so FaBP runs the LinBP sweep
// loop at k = 1.

#ifndef LINBP_CORE_FABP_H_
#define LINBP_CORE_FABP_H_

#include <string>
#include <vector>

#include "src/core/linbp.h"
#include "src/engine/propagation_backend.h"
#include "src/exec/exec_context.h"
#include "src/graph/graph.h"

namespace linbp {

/// Result of a FaBP solve. The flags mean what they mean on LinBpResult.
struct FabpResult {
  /// Per-node scalar residual belief in class 0 (class 1 is its negation).
  std::vector<double> beliefs;
  int iterations = 0;
  bool converged = false;
  /// The sweeps diverged: a non-finite delta, a belief magnitude above
  /// 1e12, or the early abort (the delta rose for 5 consecutive sweeps
  /// with a fitted contraction rate above 1). The early abort also sets
  /// `failed`, and `error` then carries rho-hat and, when computable, the
  /// power-iteration estimate of rho(c1 A - c2 D).
  bool diverged = false;
  /// A streamed backend failed mid-solve, or the divergence early abort
  /// fired; `error` describes it. `beliefs` holds the last completed
  /// sweep: the failing sweep is never partially applied.
  bool failed = false;
  std::string error;
  /// Fitted convergence diagnostics of this run (see linbp.h).
  ConvergenceDiagnostics diagnostics;
};

/// Options for RunFabp (mirrors LinBpOptions for the binary solver).
struct FabpOptions {
  /// Maximum sweeps.
  int max_iterations = 1000;
  /// Stop when the max abs belief change falls below this.
  double tolerance = 1e-13;
  /// Where the sweeps run.
  exec::ExecContext exec = exec::ExecContext::Default();
  /// Per-sweep telemetry hook; independent of it, sweeps record into the
  /// global obs registry (the fabp_* metrics and the "fabp_sweep" time
  /// series) and the active tracer.
  SweepObserver observer;
  /// Storage precision of the beliefs on the sweep hot path (see
  /// LinBpOptions::precision).
  Precision precision = Precision::kF64;
};

/// Solves the binary linearized system over any propagation backend with
/// the LinBP sweep loop, from zero beliefs. `h` is the scalar coupling
/// residual (homophily h > 0, heterophily h < 0, |h| < 1/2) and
/// `explicit_residuals` the per-node scalar priors (0 if unlabeled).
/// Beliefs are bit-identical across backends and thread counts per
/// precision.
FabpResult RunFabp(const engine::PropagationBackend& backend, double h,
                   const std::vector<double>& explicit_residuals,
                   const FabpOptions& options = {});

/// RunFabp on a resident graph (wraps engine::InMemoryBackend).
FabpResult RunFabp(const Graph& graph, double h,
                   const std::vector<double>& explicit_residuals,
                   const FabpOptions& options = {});

}  // namespace linbp

#endif  // LINBP_CORE_FABP_H_
