#include "src/la/solvers.h"

#include <cmath>

#include "src/util/check.h"
#include "src/util/random.h"

namespace linbp {

PowerIterationResult PowerIteration(const LinearOperator& op,
                                    int max_iterations, double tolerance,
                                    std::uint64_t seed) {
  const std::int64_t n = op.dim();
  PowerIterationResult result;
  if (n == 0) {
    result.converged = true;
    return result;
  }
  Rng rng(seed);
  std::vector<double> x(n);
  for (auto& v : x) v = rng.NextDouble() + 0.1;
  std::vector<double> y;
  double prev_estimate = -1.0;
  for (int it = 1; it <= max_iterations; ++it) {
    op.Apply(x, &y);
    double norm_sq = 0.0;
    for (const double v : y) norm_sq += v * v;
    const double norm = std::sqrt(norm_sq);
    result.iterations = it;
    if (norm == 0.0) {
      // x is in the null space; the dominant eigenvalue estimate is 0.
      result.spectral_radius = 0.0;
      result.converged = true;
      return result;
    }
    for (std::int64_t i = 0; i < n; ++i) x[i] = y[i] / norm;
    result.spectral_radius = norm;
    if (prev_estimate >= 0.0 &&
        std::abs(norm - prev_estimate) <=
            tolerance * std::max(1.0, std::abs(norm))) {
      result.converged = true;
      return result;
    }
    prev_estimate = norm;
  }
  return result;
}

double FitContractionRate(const std::vector<double>& deltas, int window) {
  // ln(delta_i) ~ a + b * i over the trailing window; rho-hat = e^b.
  // Indices keep their position in `deltas` so skipped (non-positive)
  // entries leave gaps instead of compressing the fit.
  const std::size_t begin =
      window > 0 && deltas.size() > static_cast<std::size_t>(window)
          ? deltas.size() - static_cast<std::size_t>(window)
          : 0;
  double n = 0.0, sum_i = 0.0, sum_y = 0.0, sum_ii = 0.0, sum_iy = 0.0;
  for (std::size_t i = begin; i < deltas.size(); ++i) {
    const double d = deltas[i];
    if (!std::isfinite(d) || d <= 0.0) continue;
    const double xi = static_cast<double>(i);
    const double yi = std::log(d);
    n += 1.0;
    sum_i += xi;
    sum_y += yi;
    sum_ii += xi * xi;
    sum_iy += xi * yi;
  }
  if (n < 2.0) return 0.0;
  const double denom = n * sum_ii - sum_i * sum_i;
  if (denom <= 0.0) return 0.0;
  const double slope = (n * sum_iy - sum_i * sum_y) / denom;
  return std::exp(slope);
}

JacobiResult JacobiSolve(const LinearOperator& op, const std::vector<double>& x,
                         int max_iterations, double tolerance) {
  LINBP_CHECK(static_cast<std::int64_t>(x.size()) == op.dim());
  JacobiResult result;
  result.solution.assign(x.size(), 0.0);
  std::vector<double> propagated;
  for (int it = 1; it <= max_iterations; ++it) {
    op.Apply(result.solution, &propagated);
    double delta = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      const double next = x[i] + propagated[i];
      const double change = std::abs(next - result.solution[i]);
      // Unlike std::max, this keeps a NaN change (inf - inf once the
      // iterate overflows), so the finiteness check below sees it.
      if (!(change <= delta)) delta = change;
      result.solution[i] = next;
    }
    result.iterations = it;
    result.last_delta = delta;
    if (!std::isfinite(delta)) break;
    if (delta <= tolerance) {
      result.converged = true;
      break;
    }
  }
  return result;
}

}  // namespace linbp
