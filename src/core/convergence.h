// Convergence criteria for LinBP and LinBP* (Sect. 5.1 of the paper).
//
// Exact (necessary and sufficient, Lemma 8):
//   LinBP  converges <=> rho(Hhat (x) A - Hhat^2 (x) D) < 1
//   LinBP* converges <=> rho(Hhat) < 1 / rho(A)
// Sufficient (Lemma 9, with ||.||_M the min over Frobenius / induced-1 /
// induced-inf):
//   LinBP* : ||Hhat|| < 1 / ||A||
//   LinBP  : ||Hhat|| < (sqrt(||A||^2 + 4||D||) - ||A||) / (2 ||D||)
// Plus the simpler Lemma 23 bound ||Hhat|| < 1 / (2||A||) for induced norms.
//
// Spectral radii are estimated with power iteration on the implicit
// Kronecker operator, so no nk x nk matrix is ever materialized.
//
// These are the criteria of the paper's Jacobi iteration
// (SweepSchedule::kJacobi). The solvers' segmented Gauss-Seidel default
// converges whenever Jacobi does, and somewhat beyond (see SweepSchedule
// in src/core/linbp.h), so a threshold here is conservative for it.

#ifndef LINBP_CORE_CONVERGENCE_H_
#define LINBP_CORE_CONVERGENCE_H_

#include "src/core/coupling.h"
#include "src/core/linbp.h"
#include "src/engine/propagation_backend.h"
#include "src/graph/graph.h"

namespace linbp {

/// rho(A) of the adjacency matrix behind any propagation backend (power
/// iteration; exact for symmetric A up to the iteration tolerance).
/// `ctx` drives the backend products — the result is bit-identical at
/// every width, but a streamed backend only overlaps prefetch with
/// compute on a parallel context. Streamed backends may throw
/// engine::StreamError mid-iteration.
double AdjacencySpectralRadius(const engine::PropagationBackend& backend,
                               int max_iterations = 500,
                               double tolerance = 1e-11,
                               const exec::ExecContext& ctx =
                                   exec::ExecContext::Default());
double AdjacencySpectralRadius(const Graph& graph, int max_iterations = 500,
                               double tolerance = 1e-11);

/// rho(Hhat) of a residual coupling matrix (symmetric Jacobi eigensolver).
double CouplingSpectralRadius(const DenseMatrix& hhat);

/// rho of the LinBP propagation operator M for the given scaled residual:
/// M = Hhat (x) A - Hhat^2 (x) D  (kLinBp) or Hhat (x) A  (kLinBpStar).
/// Streamed backends may throw engine::StreamError mid-iteration.
double LinBpOperatorSpectralRadius(const engine::PropagationBackend& backend,
                                   const DenseMatrix& hhat,
                                   LinBpVariant variant,
                                   int max_iterations = 500,
                                   double tolerance = 1e-11,
                                   const exec::ExecContext& ctx =
                                       exec::ExecContext::Default());
double LinBpOperatorSpectralRadius(const Graph& graph, const DenseMatrix& hhat,
                                   LinBpVariant variant,
                                   int max_iterations = 500,
                                   double tolerance = 1e-11);

/// Lemma 8: exact convergence test for the scaled residual `hhat`.
bool LinBpConverges(const engine::PropagationBackend& backend,
                    const DenseMatrix& hhat, LinBpVariant variant);
bool LinBpConverges(const Graph& graph, const DenseMatrix& hhat,
                    LinBpVariant variant);

/// Largest eps_H such that LinBP with Hhat = eps * Hhat_o converges
/// (Lemma 8 solved for eps by bisection on rho(M(eps)) = 1).
/// For kLinBpStar this equals 1 / (rho(Hhat_o) * rho(A)) in closed form.
/// Streamed backends may throw engine::StreamError mid-iteration.
double ExactEpsilonThreshold(const engine::PropagationBackend& backend,
                             const CouplingMatrix& coupling,
                             LinBpVariant variant, double tolerance = 1e-6,
                             const exec::ExecContext& ctx =
                                 exec::ExecContext::Default());
double ExactEpsilonThreshold(const Graph& graph, const CouplingMatrix& coupling,
                             LinBpVariant variant, double tolerance = 1e-6);

/// Lemma 9: sufficient eps_H bound via the minimum norm set M.
double SufficientEpsilonBound(const Graph& graph,
                              const CouplingMatrix& coupling,
                              LinBpVariant variant);

/// Lemma 23: the simpler (less tight) bound eps < 1 / (2 ||A|| ||Hhat_o||)
/// using induced norms only. Applies to LinBP (with echo cancellation).
double SimpleEpsilonBound(const Graph& graph, const CouplingMatrix& coupling);

/// Everything above bundled for reporting (used by benches/examples).
struct ConvergenceReport {
  double adjacency_spectral_radius = 0.0;
  double coupling_spectral_radius = 0.0;  // of the unscaled residual
  double exact_epsilon_linbp = 0.0;       // Lemma 8, kLinBp
  double exact_epsilon_linbp_star = 0.0;  // Lemma 8, kLinBpStar
  double sufficient_epsilon_linbp = 0.0;  // Lemma 9, kLinBp
  double sufficient_epsilon_linbp_star = 0.0;
  double simple_epsilon_linbp = 0.0;      // Lemma 23
};
ConvergenceReport AnalyzeConvergence(const Graph& graph,
                                     const CouplingMatrix& coupling);

}  // namespace linbp

#endif  // LINBP_CORE_CONVERGENCE_H_
