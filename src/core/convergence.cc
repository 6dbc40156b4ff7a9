#include "src/core/convergence.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/engine/backend_ops.h"
#include "src/engine/in_memory_backend.h"
#include "src/la/dense_linalg.h"
#include "src/la/kron_ops.h"
#include "src/la/norms.h"
#include "src/la/solvers.h"
#include "src/util/check.h"

namespace linbp {
namespace {

// Norms of the diagonal degree matrix: induced-1 and induced-inf are the
// max degree; Frobenius is sqrt(sum d_s^2).
double MinNormOfDegrees(const std::vector<double>& degrees) {
  double max_degree = 0.0;
  double frobenius_sq = 0.0;
  for (const double d : degrees) {
    max_degree = std::max(max_degree, std::abs(d));
    frobenius_sq += d * d;
  }
  return std::min(max_degree, std::sqrt(frobenius_sq));
}

}  // namespace

double AdjacencySpectralRadius(const engine::PropagationBackend& backend,
                               int max_iterations, double tolerance,
                               const exec::ExecContext& ctx) {
  const engine::BackendAdjacencyOperator op(&backend, ctx);
  return PowerIteration(op, max_iterations, tolerance).spectral_radius;
}

double AdjacencySpectralRadius(const Graph& graph, int max_iterations,
                               double tolerance) {
  const engine::InMemoryBackend backend(&graph);
  return AdjacencySpectralRadius(backend, max_iterations, tolerance);
}

double CouplingSpectralRadius(const DenseMatrix& hhat) {
  return SymmetricSpectralRadius(hhat);
}

double LinBpOperatorSpectralRadius(const engine::PropagationBackend& backend,
                                   const DenseMatrix& hhat,
                                   LinBpVariant variant, int max_iterations,
                                   double tolerance,
                                   const exec::ExecContext& ctx) {
  LINBP_CHECK_MSG(variant != LinBpVariant::kLinBpExact,
                  "spectral criteria are defined for kLinBp / kLinBpStar");
  const DenseMatrix hhat2 = hhat.Multiply(hhat);
  const engine::BackendLinBpOperator op(
      &backend, hhat, variant == LinBpVariant::kLinBp ? &hhat2 : nullptr, ctx);
  return PowerIteration(op, max_iterations, tolerance).spectral_radius;
}

double LinBpOperatorSpectralRadius(const Graph& graph, const DenseMatrix& hhat,
                                   LinBpVariant variant, int max_iterations,
                                   double tolerance) {
  const engine::InMemoryBackend backend(&graph);
  return LinBpOperatorSpectralRadius(backend, hhat, variant, max_iterations,
                                     tolerance);
}

bool LinBpConverges(const engine::PropagationBackend& backend,
                    const DenseMatrix& hhat, LinBpVariant variant) {
  return LinBpOperatorSpectralRadius(backend, hhat, variant) < 1.0;
}

bool LinBpConverges(const Graph& graph, const DenseMatrix& hhat,
                    LinBpVariant variant) {
  const engine::InMemoryBackend backend(&graph);
  return LinBpConverges(backend, hhat, variant);
}

double ExactEpsilonThreshold(const engine::PropagationBackend& backend,
                             const CouplingMatrix& coupling,
                             LinBpVariant variant, double tolerance,
                             const exec::ExecContext& ctx) {
  const double rho_h = CouplingSpectralRadius(coupling.residual());
  LINBP_CHECK_MSG(rho_h > 0.0, "zero coupling residual");
  constexpr int kRhoIterations = 500;
  constexpr double kRhoTolerance = 1e-11;
  if (variant == LinBpVariant::kLinBpStar) {
    // Lemma 8: rho(eps * Hhat_o (x) A) = eps * rho(Hhat_o) * rho(A) = 1.
    return 1.0 / (rho_h * AdjacencySpectralRadius(backend, kRhoIterations,
                                                  kRhoTolerance, ctx));
  }
  // Bisection on eps -> rho(M(eps)); rho is increasing in eps over the
  // bracketed range.
  auto rho_at = [&](double eps) {
    return LinBpOperatorSpectralRadius(backend, coupling.ScaledResidual(eps),
                                       variant, kRhoIterations,
                                       kRhoTolerance, ctx);
  };
  double hi =
      1.0 / (rho_h * std::max(AdjacencySpectralRadius(
                                  backend, kRhoIterations, kRhoTolerance,
                                  ctx),
                              1e-12));
  // Expand until divergence; degenerate graphs (no edges) never diverge.
  int expansions = 0;
  while (rho_at(hi) < 1.0) {
    hi *= 2.0;
    if (++expansions > 80) return std::numeric_limits<double>::infinity();
  }
  double lo = hi / 2.0;
  // ...then shrink the lower end until convergence brackets the root.
  while (rho_at(lo) >= 1.0) {
    hi = lo;
    lo /= 2.0;
  }
  while ((hi - lo) / hi > tolerance) {
    const double mid = 0.5 * (lo + hi);
    if (rho_at(mid) < 1.0) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

double ExactEpsilonThreshold(const Graph& graph, const CouplingMatrix& coupling,
                             LinBpVariant variant, double tolerance) {
  const engine::InMemoryBackend backend(&graph);
  return ExactEpsilonThreshold(backend, coupling, variant, tolerance);
}

double SufficientEpsilonBound(const Graph& graph,
                              const CouplingMatrix& coupling,
                              LinBpVariant variant) {
  const double h_norm = MinNorm(coupling.residual());
  LINBP_CHECK_MSG(h_norm > 0.0, "zero coupling residual");
  const double a_norm = MinNorm(graph.adjacency());
  if (variant == LinBpVariant::kLinBpStar) {
    // ||Hhat|| < 1 / ||A||  =>  eps < 1 / (||A|| ||Hhat_o||).
    return 1.0 / (a_norm * h_norm);
  }
  const double d_norm = MinNormOfDegrees(graph.weighted_degrees());
  if (d_norm == 0.0) return 1.0 / (a_norm * h_norm);
  // ||Hhat|| < (sqrt(||A||^2 + 4 ||D||) - ||A||) / (2 ||D||).
  const double bound =
      (std::sqrt(a_norm * a_norm + 4.0 * d_norm) - a_norm) / (2.0 * d_norm);
  return bound / h_norm;
}

double SimpleEpsilonBound(const Graph& graph, const CouplingMatrix& coupling) {
  // Lemma 23 uses induced 1- or inf-norms only (max row/column sums).
  const double h_norm = std::min(Induced1Norm(coupling.residual()),
                                 InducedInfNorm(coupling.residual()));
  LINBP_CHECK_MSG(h_norm > 0.0, "zero coupling residual");
  const double a_norm = std::min(Induced1Norm(graph.adjacency()),
                                 InducedInfNorm(graph.adjacency()));
  return 1.0 / (2.0 * a_norm * h_norm);
}

ConvergenceReport AnalyzeConvergence(const Graph& graph,
                                     const CouplingMatrix& coupling) {
  ConvergenceReport report;
  report.adjacency_spectral_radius = AdjacencySpectralRadius(graph);
  report.coupling_spectral_radius = CouplingSpectralRadius(coupling.residual());
  report.exact_epsilon_linbp =
      ExactEpsilonThreshold(graph, coupling, LinBpVariant::kLinBp);
  report.exact_epsilon_linbp_star =
      ExactEpsilonThreshold(graph, coupling, LinBpVariant::kLinBpStar);
  report.sufficient_epsilon_linbp =
      SufficientEpsilonBound(graph, coupling, LinBpVariant::kLinBp);
  report.sufficient_epsilon_linbp_star =
      SufficientEpsilonBound(graph, coupling, LinBpVariant::kLinBpStar);
  report.simple_epsilon_linbp = SimpleEpsilonBound(graph, coupling);
  return report;
}

}  // namespace linbp
