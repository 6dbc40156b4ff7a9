#include "src/core/fabp.h"

#include <cmath>
#include <utility>

#include "src/engine/in_memory_backend.h"
#include "src/obs/obs.h"
#include "src/util/check.h"

namespace linbp {

FabpResult RunFabp(const engine::PropagationBackend& backend, double h,
                   const std::vector<double>& explicit_residuals,
                   const FabpOptions& options) {
  const std::int64_t n = backend.num_nodes();
  LINBP_CHECK(static_cast<std::int64_t>(explicit_residuals.size()) == n);
  LINBP_CHECK_MSG(std::abs(h) < 0.5, "|h| must be < 1/2");
  const double denom = 1.0 - 4.0 * h * h;
  const DenseMatrix c1{{2.0 * h / denom}};
  const DenseMatrix c2{{4.0 * h * h / denom}};
  LinBpOptions loop_options;
  loop_options.max_iterations = options.max_iterations;
  loop_options.tolerance = options.tolerance;
  loop_options.exec = options.exec;
  loop_options.sweep_observer = options.observer;
  loop_options.precision = options.precision;

  // From zero beliefs the first sweep lands on the priors, as the scalar
  // Jacobi iteration b <- e + c1*A*b - c2*D*b always started.
  DenseMatrix beliefs(n, 1);
  obs::ScopedSpan span("fabp_solve");
  const core_internal::SweepLoopResult loop = core_internal::RunSweepLoop(
      backend, c1, &c2, DenseMatrix::FromVectorized(explicit_residuals, n, 1),
      loop_options, /*spectral_hint=*/-1.0, core_internal::SweepFamily::kFabp,
      &beliefs);
  if (span.active()) {
    span.SetAttr("iterations", loop.iterations);
    span.SetAttr("delta", loop.last_delta);
    span.SetAttr("rows", n);
    span.SetAttr("nnz", backend.num_stored_entries());
    span.SetAttr("precision", PrecisionName(options.precision));
  }
  FabpResult result;
  result.beliefs = std::move(beliefs.mutable_data());
  result.iterations = loop.iterations;
  result.converged = loop.converged;
  result.diverged = loop.diverged;
  result.failed = loop.failed;
  result.error = loop.error;
  result.diagnostics = loop.diagnostics;
  return result;
}

FabpResult RunFabp(const Graph& graph, double h,
                   const std::vector<double>& explicit_residuals,
                   const FabpOptions& options) {
  const engine::InMemoryBackend backend(&graph);
  return RunFabp(backend, h, explicit_residuals, options);
}

}  // namespace linbp
