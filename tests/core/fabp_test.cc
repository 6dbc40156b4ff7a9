#include "src/core/fabp.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "src/core/closed_form.h"
#include "src/core/convergence.h"
#include "src/core/coupling.h"
#include "src/dataset/registry.h"
#include "src/graph/beliefs.h"
#include "src/graph/generators.h"
#include "src/la/dense_linalg.h"
#include "src/la/kron_ops.h"
#include "src/obs/metrics.h"
#include "src/obs/timeseries.h"
#include "tests/testing/test_util.h"

namespace linbp {
namespace {

using testing::ExpectVectorNear;

FabpOptions Options(int max_iterations, double tolerance = 1e-13) {
  FabpOptions options;
  options.max_iterations = max_iterations;
  options.tolerance = tolerance;
  return options;
}

TEST(FabpTest, SingleEdgeHandValue) {
  // b = (I - c1 A + c2 D)^-1 e with c1 = 2h/(1-4h^2), c2 = 4h^2/(1-4h^2).
  // For two nodes with e = (e0, 0):
  //   (1 + c2) b0 - c1 b1 = e0,  -c1 b0 + (1 + c2) b1 = 0.
  const double h = 0.15;
  const double denom = 1.0 - 4.0 * h * h;
  const double c1 = 2.0 * h / denom;
  const double c2 = 4.0 * h * h / denom;
  const Graph g(2, {{0, 1, 1.0}});
  const FabpResult result = RunFabp(g, h, {0.08, 0.0});
  ASSERT_TRUE(result.converged);
  const double det = (1.0 + c2) * (1.0 + c2) - c1 * c1;
  EXPECT_NEAR(result.beliefs[0], 0.08 * (1.0 + c2) / det, 1e-10);
  EXPECT_NEAR(result.beliefs[1], 0.08 * c1 / det, 1e-10);
}

TEST(FabpTest, HomophilyKeepsSign) {
  const Graph g = PathGraph(4);
  const FabpResult result = RunFabp(g, 0.1, {0.1, 0.0, 0.0, 0.0});
  ASSERT_TRUE(result.converged);
  for (const double b : result.beliefs) EXPECT_GT(b, 0.0);
}

TEST(FabpTest, HeterophilyAlternatesSign) {
  const Graph g = PathGraph(4);
  const FabpResult result = RunFabp(g, -0.1, {0.1, 0.0, 0.0, 0.0});
  ASSERT_TRUE(result.converged);
  EXPECT_GT(result.beliefs[0], 0.0);
  EXPECT_LT(result.beliefs[1], 0.0);
  EXPECT_GT(result.beliefs[2], 0.0);
  EXPECT_LT(result.beliefs[3], 0.0);
}

TEST(FabpTest, DivergenceAbortsEarlyWithDiagnosticError) {
  // h = 0.45 gives c1 = 2h/(1-4h^2) ~ 4.7 and c2 = 4h^2/(1-4h^2) ~ 4.3:
  // on a path graph each row's own echo term -c2 * d_s * b_s alone
  // amplifies it, so the sweeps diverge and must abort after a few
  // growth sweeps instead of running out the iteration budget.
  const Graph g = PathGraph(4);
  const FabpResult result =
      RunFabp(g, 0.45, {0.1, 0.0, 0.0, 0.0}, Options(/*max_iterations=*/600));
  EXPECT_TRUE(result.diverged);
  EXPECT_TRUE(result.failed);
  EXPECT_FALSE(result.converged);
  EXPECT_LT(result.iterations, 100);
  EXPECT_NE(result.error.find("diverging"), std::string::npos)
      << result.error;
  EXPECT_NE(result.error.find("rho_hat="), std::string::npos)
      << result.error;
  EXPECT_GT(result.diagnostics.empirical_contraction, 1.0);
  EXPECT_GT(result.diagnostics.spectral_radius_estimate, 1.0);
  // The last iterate is kept for inspection.
  EXPECT_EQ(result.beliefs.size(), 4u);
}

TEST(FabpTest, DivergenceEstimatesTheIteratedOperator) {
  // The abort's spectral estimate is rho(c1 A - c2 D), the operator the
  // sweeps iterate (~15.3 here), not the k = 2 LinBP operator's.
  const Graph g = PathGraph(4);
  const double h = 0.45;
  const double denom = 1.0 - 4.0 * h * h;
  const DenseMatrix iterated =
      g.adjacency().ToDense().Scale(2.0 * h / denom).Sub(
          DenseMatrix::Diagonal(g.weighted_degrees())
              .Scale(4.0 * h * h / denom));
  const double expected = SymmetricSpectralRadius(iterated);
  const FabpResult result = RunFabp(g, h, {0.1, 0.0, 0.0, 0.0}, Options(600));
  ASSERT_TRUE(result.diverged);
  EXPECT_NEAR(result.diagnostics.spectral_radius_estimate, expected,
              1e-6 * expected);
}

TEST(FabpTest, ConvergedRunCarriesContractionDiagnostics) {
  const Graph g = PathGraph(4);
  const FabpResult result =
      RunFabp(g, 0.1, {0.1, 0.0, 0.0, 0.0}, Options(2000, 1e-14));
  ASSERT_TRUE(result.converged);
  EXPECT_GT(result.diagnostics.empirical_contraction, 0.0);
  EXPECT_LT(result.diagnostics.empirical_contraction, 1.0);
  EXPECT_EQ(result.diagnostics.predicted_sweeps_to_tolerance, 0.0);
  EXPECT_GT(result.diagnostics.fitted_sweeps, 2);
}

TEST(FabpTest, F32PrecisionTracksF64WithinFloatResolution) {
  // The f32 sweep stores the beliefs as float and accumulates the
  // coupling products in fp64; on a well-conditioned problem the fixed
  // points agree to float resolution.
  const Graph g = PathGraph(6);
  const std::vector<double> priors = {0.1, 0.0, -0.05, 0.0, 0.0, 0.08};
  FabpOptions options;
  options.tolerance = 1e-7;  // reachable by a float-stored iterate
  const FabpResult f64 = RunFabp(g, 0.12, priors, options);
  ASSERT_TRUE(f64.converged);
  options.precision = Precision::kF32;
  const FabpResult f32 = RunFabp(g, 0.12, priors, options);
  ASSERT_TRUE(f32.converged);
  ASSERT_EQ(f32.beliefs.size(), f64.beliefs.size());
  for (std::size_t i = 0; i < f32.beliefs.size(); ++i) {
    EXPECT_NEAR(f32.beliefs[i], f64.beliefs[i], 1e-6) << "at node " << i;
    // The stored iterate was float, so widening is exact.
    EXPECT_EQ(f32.beliefs[i],
              static_cast<double>(static_cast<float>(f32.beliefs[i])));
  }
}

TEST(FabpTest, SweepsRecordFabpTelemetry) {
  // FaBP sweeps report under FaBP's names, with the per-sweep statistics
  // of the LinBP loop they run on.
  obs::TimeSeries& fabp_series =
      obs::TimeSeriesRegistry::Global().Get("fabp_sweep");
  obs::TimeSeries& linbp_series =
      obs::TimeSeriesRegistry::Global().Get("linbp_sweep");
  obs::Counter& sweeps =
      obs::Registry::Global().GetCounter("fabp_sweeps_total");
  const std::int64_t linbp_runs = linbp_series.runs();
  const std::size_t linbp_samples = linbp_series.Samples().size();
  const std::int64_t sweeps_before = sweeps.Value();

  const FabpResult result =
      RunFabp(PathGraph(6), 0.12, {0.1, 0.0, -0.05, 0.0, 0.0, 0.08});
  ASSERT_TRUE(result.converged);
  const std::vector<obs::TimeSeriesSample> samples = fabp_series.Samples();
  ASSERT_EQ(samples.size(), static_cast<std::size_t>(result.iterations));
  for (const obs::TimeSeriesSample& sample : samples) {
    EXPECT_GT(sample.delta_l2, 0.0) << "sweep " << sample.sweep;
  }
  EXPECT_EQ(sweeps.Value() - sweeps_before, result.iterations);
  EXPECT_EQ(linbp_series.runs(), linbp_runs);
  EXPECT_EQ(linbp_series.Samples().size(), linbp_samples);
}

TEST(FabpDeathTest, RejectsCouplingOutOfRange) {
  const Graph g = PathGraph(2);
  EXPECT_DEATH(RunFabp(g, 0.5, {0.0, 0.0}), "1/2");
}

// FaBP's arithmetic in plain scalar loops, in the segmented Gauss-Seidel
// order RunFabp sweeps in (SweepSchedule in src/core/linbp.h): from zero,
// row s of segment g = [g*n/S, (g+1)*n/S), S = kSweepSegments, takes
//   b_s <- e_s + (c1 * sum_t w_st x_t - d_s * (c2 * b_s))
// with x_t this sweep's value for t below g's start and the previous
// sweep's otherwise, until the largest change is within the tolerance.
struct ScalarSolve {
  std::vector<double> beliefs;
  int iterations = 0;
  bool converged = false;
};

ScalarSolve ScalarSegmentedFabp(const Graph& g, double h,
                                const std::vector<double>& priors,
                                const FabpOptions& options) {
  const double c1 = 2.0 * h / (1.0 - 4.0 * h * h);
  const double c2 = 4.0 * h * h / (1.0 - 4.0 * h * h);
  const SparseMatrix& a = g.adjacency();
  const std::vector<double>& degrees = g.weighted_degrees();
  const std::int64_t n = g.num_nodes();
  std::vector<double> b(n, 0.0);
  std::vector<double> next(n, 0.0);
  ScalarSolve solve;
  while (solve.iterations < options.max_iterations && !solve.converged) {
    double delta = 0.0;
    for (std::int64_t seg = 0; seg < kSweepSegments; ++seg) {
      const std::int64_t first = seg * n / kSweepSegments;
      const std::int64_t last = (seg + 1) * n / kSweepSegments;
      for (std::int64_t s = first; s < last; ++s) {
        double sum = 0.0;
        for (std::int64_t e = a.row_ptr()[s]; e < a.row_ptr()[s + 1]; ++e) {
          const std::int64_t t = a.col_idx()[e];
          sum += a.weight(e) * (t < first ? next[t] : b[t]);
        }
        next[s] = priors[s] + (c1 * sum - degrees[s] * (c2 * b[s]));
        delta = std::max(delta, std::abs(next[s] - b[s]));
      }
    }
    b.swap(next);
    ++solve.iterations;
    solve.converged = delta <= options.tolerance;
  }
  solve.beliefs = std::move(b);
  return solve;
}

// FaBP stays within 1e-12 of that arithmetic, in as many sweeps.
void ExpectMatchesScalarSegmented(const Graph& g, double h,
                                  const std::vector<double>& priors,
                                  const FabpOptions& options) {
  const FabpResult fabp = RunFabp(g, h, priors, options);
  const ScalarSolve scalar = ScalarSegmentedFabp(g, h, priors, options);
  EXPECT_TRUE(fabp.converged);
  EXPECT_EQ(fabp.converged, scalar.converged);
  EXPECT_EQ(fabp.iterations, scalar.iterations);
  ExpectVectorNear(fabp.beliefs, scalar.beliefs, 1e-12);
}

TEST(FabpTest, MatchesScalarSegmentedArithmetic) {
  ExpectMatchesScalarSegmented(Graph(2, {{0, 1, 1.0}}), 0.15, {0.08, 0.0},
                               {});
  const Graph path = PathGraph(4);
  for (const double h : {0.1, -0.1}) {
    ExpectMatchesScalarSegmented(path, h, {0.1, 0.0, 0.0, 0.0}, {});
  }
  ExpectMatchesScalarSegmented(path, 0.1, {0.1, 0.0, 0.0, 0.0},
                               Options(2000, 1e-14));
  ExpectMatchesScalarSegmented(PathGraph(6), 0.12,
                               {0.1, 0.0, -0.05, 0.0, 0.0, 0.08},
                               Options(1000, 1e-7));
  for (int seed = 0; seed < 8; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    // FabpEquivalenceTest's graphs and couplings.
    const Graph g = RandomConnectedGraph(12, 9, seed);
    Rng rng(seed + 1);
    const double h = 0.4 / AdjacencySpectralRadius(g) *
                     (0.5 + 0.5 * rng.NextDouble());
    std::vector<double> priors(12, 0.0);
    for (int v = 0; v < 4; ++v) {
      priors[v] = 0.2 * (2.0 * rng.NextDouble() - 1.0);
    }
    ExpectMatchesScalarSegmented(g, h, priors, Options(2000, 1e-14));
    std::vector<double> weighted_priors(10, 0.0);
    weighted_priors[0] = 0.1;
    ExpectMatchesScalarSegmented(
        RandomWeightedConnectedGraph(10, 6, 0.5, 1.5, seed + 100), 0.08,
        weighted_priors, Options(2000, 1e-14));
  }
  // And an sbm scenario with class 0's one-vs-rest priors.
  std::string error;
  const auto scenario = dataset::MakeScenario(
      "sbm:n=1200,k=4,deg=8,mode=homophily,seed=3", &error);
  ASSERT_TRUE(scenario.has_value()) << error;
  std::vector<double> priors(scenario->graph.num_nodes(), 0.0);
  for (std::int64_t v = 0; v < scenario->graph.num_nodes(); ++v) {
    priors[v] = scenario->explicit_residuals.At(v, 0);
  }
  ExpectMatchesScalarSegmented(scenario->graph, 0.02, priors, {});
}

// Appendix E: for k = 2 the binary linearization coincides with the
// kLinBpExact variant of the multi-class system.
class FabpEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(FabpEquivalenceTest, MatchesExactLinBpWithTwoClasses) {
  const std::uint64_t seed = GetParam();
  const Graph g = RandomConnectedGraph(12, 9, seed);
  Rng rng(seed + 1);
  // Keep the coupling safely inside the convergence region of the Jacobi
  // solve: rho(c1 A) ~ 2h rho(A) must stay below 1.
  const double h = 0.4 / AdjacencySpectralRadius(g) *
                   (0.5 + 0.5 * rng.NextDouble());

  // Scalar explicit beliefs -> 2-column residual matrix [e, -e].
  std::vector<double> e_scalar(12, 0.0);
  DenseMatrix e(12, 2);
  for (std::int64_t v = 0; v < 4; ++v) {
    e_scalar[v] = 0.2 * (2.0 * rng.NextDouble() - 1.0);
    e.At(v, 0) = e_scalar[v];
    e.At(v, 1) = -e_scalar[v];
  }
  const FabpResult fabp = RunFabp(g, h, e_scalar, Options(2000, 1e-14));
  ASSERT_TRUE(fabp.converged);

  const DenseMatrix hhat{{h, -h}, {-h, h}};
  const DenseMatrix linbp =
      ClosedFormLinBpDense(g, hhat, e, LinBpVariant::kLinBpExact);
  std::vector<double> linbp_first(12);
  for (std::int64_t v = 0; v < 12; ++v) {
    linbp_first[v] = linbp.At(v, 0);
    // Columns are antisymmetric in the binary case.
    EXPECT_NEAR(linbp.At(v, 1), -linbp.At(v, 0), 1e-10);
  }
  ExpectVectorNear(fabp.beliefs, linbp_first, 1e-9);
}

TEST_P(FabpEquivalenceTest, WeightedGraphsMatchToo) {
  const std::uint64_t seed = GetParam();
  const Graph g = RandomWeightedConnectedGraph(10, 6, 0.5, 1.5, seed + 100);
  const double h = 0.08;
  std::vector<double> e_scalar(10, 0.0);
  DenseMatrix e(10, 2);
  e_scalar[0] = 0.1;
  e.At(0, 0) = 0.1;
  e.At(0, 1) = -0.1;
  const FabpResult fabp = RunFabp(g, h, e_scalar, Options(2000, 1e-14));
  ASSERT_TRUE(fabp.converged);
  const DenseMatrix hhat{{h, -h}, {-h, h}};
  const DenseMatrix linbp =
      ClosedFormLinBpDense(g, hhat, e, LinBpVariant::kLinBpExact);
  for (std::int64_t v = 0; v < 10; ++v) {
    EXPECT_NEAR(fabp.beliefs[v], linbp.At(v, 0), 1e-9) << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FabpEquivalenceTest, ::testing::Range(0, 8));

}  // namespace
}  // namespace linbp
