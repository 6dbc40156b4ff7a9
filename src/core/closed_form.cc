#include "src/core/closed_form.h"

#include "src/engine/backend_ops.h"
#include "src/engine/in_memory_backend.h"
#include "src/la/dense_linalg.h"
#include "src/la/kron_ops.h"
#include "src/la/solvers.h"
#include "src/util/check.h"

namespace linbp {
namespace {

// Propagation and echo modulation matrices for a variant (see linbp.cc).
struct Modulations {
  DenseMatrix propagation;
  DenseMatrix echo;      // valid only when with_echo
  bool with_echo = true;
};

Modulations ModulationsFor(const DenseMatrix& hhat, LinBpVariant variant) {
  Modulations m{hhat, hhat.Multiply(hhat), true};
  switch (variant) {
    case LinBpVariant::kLinBp:
      break;
    case LinBpVariant::kLinBpStar:
      m.with_echo = false;
      break;
    case LinBpVariant::kLinBpExact:
      m.propagation = ExactModulation(hhat);
      m.echo = hhat.Multiply(m.propagation);
      break;
  }
  return m;
}

}  // namespace

DenseMatrix ClosedFormLinBpDense(const Graph& graph, const DenseMatrix& hhat,
                                 const DenseMatrix& explicit_residuals,
                                 LinBpVariant variant, std::int64_t max_dim) {
  const std::int64_t n = graph.num_nodes();
  const std::int64_t k = hhat.rows();
  LINBP_CHECK(explicit_residuals.rows() == n && explicit_residuals.cols() == k);
  LINBP_CHECK_MSG(n * k <= max_dim, "dense closed form too large");

  const Modulations mod = ModulationsFor(hhat, variant);
  const DenseMatrix a = graph.adjacency().ToDense();
  // System matrix: I - Hprop (x) A [+ Hecho (x) D].
  DenseMatrix system = DenseMatrix::Identity(n * k)
                           .Sub(mod.propagation.Kronecker(a));
  if (mod.with_echo) {
    const DenseMatrix d = DenseMatrix::Diagonal(graph.weighted_degrees());
    system = system.Add(mod.echo.Kronecker(d));
  }
  const auto lu = LuFactorization::Compute(system);
  LINBP_CHECK_MSG(lu.has_value(), "closed-form system is singular");
  const std::vector<double> solution =
      lu->Solve(VectorizeBeliefs(explicit_residuals));
  return UnvectorizeBeliefs(solution, n, k);
}

ClosedFormIterativeResult ClosedFormLinBpIterative(
    const Graph& graph, const DenseMatrix& hhat,
    const DenseMatrix& explicit_residuals, LinBpVariant variant,
    int max_iterations, double tolerance) {
  const std::int64_t n = graph.num_nodes();
  const std::int64_t k = hhat.rows();
  LINBP_CHECK(explicit_residuals.rows() == n && explicit_residuals.cols() == k);

  const Modulations mod = ModulationsFor(hhat, variant);
  const engine::InMemoryBackend backend(&graph);
  const engine::BackendLinBpOperator op(&backend, mod.propagation,
                                        mod.with_echo ? &mod.echo : nullptr);
  const JacobiResult jacobi =
      JacobiSolve(op, VectorizeBeliefs(explicit_residuals), max_iterations,
                  tolerance);
  ClosedFormIterativeResult result;
  result.beliefs = UnvectorizeBeliefs(jacobi.solution, n, k);
  result.iterations = jacobi.iterations;
  result.converged = jacobi.converged;
  return result;
}

}  // namespace linbp
