#include "src/core/convergence.h"

#include <cmath>

#include "gtest/gtest.h"
#include "src/core/closed_form.h"
#include "src/core/coupling.h"
#include "src/graph/beliefs.h"
#include "src/graph/generators.h"
#include "tests/testing/test_util.h"

namespace linbp {
namespace {

TEST(ConvergenceTest, AdjacencySpectralRadiusOfCycle) {
  EXPECT_NEAR(AdjacencySpectralRadius(CycleGraph(8)), 2.0, 1e-7);
}

TEST(ConvergenceTest, AdjacencySpectralRadiusOfPath2) {
  EXPECT_NEAR(AdjacencySpectralRadius(PathGraph(2)), 1.0, 1e-7);
}

TEST(ConvergenceTest, WeightedAdjacencyRadiusScales) {
  const Graph unit(2, {{0, 1, 1.0}});
  const Graph heavy(2, {{0, 1, 3.0}});
  EXPECT_NEAR(AdjacencySpectralRadius(heavy),
              3.0 * AdjacencySpectralRadius(unit), 1e-6);
}

// Example 20's full set of convergence constants on the torus graph.
TEST(ConvergenceTest, Example20Constants) {
  const Graph g = TorusExampleGraph();
  const CouplingMatrix coupling = AuctionCoupling();
  const ConvergenceReport report = AnalyzeConvergence(g, coupling);
  EXPECT_NEAR(report.adjacency_spectral_radius, 1.0 + std::sqrt(2.0),
              1e-6);                                              // ~2.414
  EXPECT_NEAR(report.coupling_spectral_radius, 0.6292, 1e-3);     // ~0.629
  EXPECT_NEAR(report.exact_epsilon_linbp, 0.4877, 2e-3);          // ~0.488
  EXPECT_NEAR(report.exact_epsilon_linbp_star, 0.6583, 2e-3);     // ~0.658
  EXPECT_NEAR(report.sufficient_epsilon_linbp, 0.3598, 2e-3);     // ~0.360
  EXPECT_NEAR(report.sufficient_epsilon_linbp_star, 0.4545, 2e-3);// ~0.455
}

TEST(ConvergenceTest, LinBpStarThresholdIsClosedForm) {
  const Graph g = RandomConnectedGraph(20, 15, /*seed=*/1);
  const CouplingMatrix coupling = AuctionCoupling();
  const double threshold =
      ExactEpsilonThreshold(g, coupling, LinBpVariant::kLinBpStar);
  const double expected =
      1.0 / (CouplingSpectralRadius(coupling.residual()) *
             AdjacencySpectralRadius(g));
  EXPECT_NEAR(threshold, expected, 1e-9);
}

TEST(ConvergenceTest, LinBpConvergesPredicate) {
  const Graph g = TorusExampleGraph();
  const CouplingMatrix coupling = AuctionCoupling();
  EXPECT_TRUE(
      LinBpConverges(g, coupling.ScaledResidual(0.4), LinBpVariant::kLinBp));
  EXPECT_FALSE(
      LinBpConverges(g, coupling.ScaledResidual(0.6), LinBpVariant::kLinBp));
  EXPECT_TRUE(LinBpConverges(g, coupling.ScaledResidual(0.6),
                             LinBpVariant::kLinBpStar));
  EXPECT_FALSE(LinBpConverges(g, coupling.ScaledResidual(0.7),
                              LinBpVariant::kLinBpStar));
}

// Lemma 8 is exact: the iterative updates converge strictly below the
// threshold and diverge strictly above it.
class ExactThresholdTest : public ::testing::TestWithParam<int> {};

TEST_P(ExactThresholdTest, ThresholdSeparatesConvergenceFromDivergence) {
  const std::uint64_t seed = GetParam();
  const Graph g = RandomConnectedGraph(12, 10, seed);
  const DenseMatrix residual = testing::RandomResidualCoupling(3, 1.0, seed);
  const CouplingMatrix coupling = CouplingMatrix::FromResidual(residual);
  const SeededBeliefs seeded = SeedPaperBeliefs(12, 3, 4, seed + 5);

  for (const LinBpVariant variant :
       {LinBpVariant::kLinBp, LinBpVariant::kLinBpStar}) {
    const double threshold = ExactEpsilonThreshold(g, coupling, variant);
    LinBpOptions options;
    options.variant = variant;
    options.max_iterations = 3000;
    options.tolerance = 1e-11;
    options.schedule = SweepSchedule::kJacobi;  // Lemma 8 is Jacobi's test
    const LinBpResult below =
        RunLinBp(g, coupling.ScaledResidual(0.9 * threshold),
                 seeded.residuals, options);
    EXPECT_FALSE(below.diverged);
    EXPECT_TRUE(below.converged);
    const LinBpResult above =
        RunLinBp(g, coupling.ScaledResidual(1.1 * threshold),
                 seeded.residuals, options);
    EXPECT_TRUE(above.diverged || !above.converged);
  }
}

// Past Lemma 8's threshold Jacobi diverges, but the segmented
// Gauss-Seidel default converges wherever lambda_max(M) < 1 (the
// Householder-John theorem; see SweepSchedule), and to the same fixed
// point: Eq. 11's closed form. At 1.1x the threshold every graph here
// has lambda_min(M) <= -1 < lambda_max(M) < 1 for LinBP.
TEST_P(ExactThresholdTest, SegmentedScheduleConvergesPastJacobisThreshold) {
  const std::uint64_t seed = GetParam();
  const Graph g = RandomConnectedGraph(12, 10, seed);
  const DenseMatrix residual = testing::RandomResidualCoupling(3, 1.0, seed);
  const CouplingMatrix coupling = CouplingMatrix::FromResidual(residual);
  const SeededBeliefs seeded = SeedPaperBeliefs(12, 3, 4, seed + 5);

  int cases = 0;
  for (const LinBpVariant variant :
       {LinBpVariant::kLinBp, LinBpVariant::kLinBpStar}) {
    SCOPED_TRACE(variant == LinBpVariant::kLinBp ? "LinBP" : "LinBP*");
    const DenseMatrix hhat = coupling.ScaledResidual(
        1.1 * ExactEpsilonThreshold(g, coupling, variant));
    const testing::EigenRange range = testing::SweptOperatorEigenRange(
        g, hhat, variant == LinBpVariant::kLinBp);
    if (variant == LinBpVariant::kLinBp) {
      ASSERT_LE(range.lo, -1.0);
      ASSERT_LT(range.hi, 1.0);
    } else if (!(range.lo <= -1.0 && range.hi < 1.0)) {
      continue;  // LinBP*'s lambda_max may be the one past 1
    }
    ++cases;
    LinBpOptions options;
    options.variant = variant;
    options.max_iterations = 5000;
    options.tolerance = 1e-13;
    options.schedule = SweepSchedule::kJacobi;
    const LinBpResult jacobi =
        RunLinBp(g, hhat, seeded.residuals, options);
    EXPECT_TRUE(jacobi.diverged);
    options.schedule = SweepSchedule::kSegmentedGaussSeidel;
    const LinBpResult segmented =
        RunLinBp(g, hhat, seeded.residuals, options);
    ASSERT_TRUE(segmented.converged) << segmented.error;
    testing::ExpectMatrixNear(
        segmented.beliefs,
        ClosedFormLinBpDense(g, hhat, seeded.residuals, variant), 1e-9);
  }
  EXPECT_GE(cases, 1);
}

// Where lambda_max(M) > 1, I - M is not positive definite and the
// segmented schedule diverges too: the solve still aborts with the
// "diverging" error, which names rho(M). With the echo term, an
// eigenvalue h of Hhat and a of A give about h*a - h^2*d, at most
// a^2 / (4d) at any eps: LinBP gets past 1 only along a large a > 0 and
// h > 0, so this test takes a denser graph than the one above and
// Example 20's coupling, whose Hhat has a positive eigenvalue.
TEST_P(ExactThresholdTest, SegmentedScheduleAbortsWhenLambdaMaxPassesOne) {
  const std::uint64_t seed = GetParam();
  const Graph g = RandomConnectedGraph(12, 40, seed);
  const CouplingMatrix coupling = AuctionCoupling();
  const SeededBeliefs seeded = SeedPaperBeliefs(12, 3, 4, seed + 5);
  for (const LinBpVariant variant :
       {LinBpVariant::kLinBp, LinBpVariant::kLinBpStar}) {
    SCOPED_TRACE(variant == LinBpVariant::kLinBp ? "LinBP" : "LinBP*");
    // Grow eps until lambda_max(M) is well past 1.
    double eps = ExactEpsilonThreshold(g, coupling, variant);
    testing::EigenRange range;
    for (int step = 0; step < 40; ++step, eps *= 1.1) {
      range = testing::SweptOperatorEigenRange(
          g, coupling.ScaledResidual(eps), variant == LinBpVariant::kLinBp);
      if (range.hi > 1.2) break;
    }
    ASSERT_GT(range.hi, 1.2);
    LinBpOptions options;
    options.variant = variant;
    options.max_iterations = 600;
    const LinBpResult result =
        RunLinBp(g, coupling.ScaledResidual(eps), seeded.residuals, options);
    EXPECT_TRUE(result.diverged);
    EXPECT_TRUE(result.failed);
    EXPECT_FALSE(result.converged);
    EXPECT_NE(result.error.find("diverging"), std::string::npos)
        << result.error;
    EXPECT_NE(result.error.find("spectral radius estimate="),
              std::string::npos)
        << result.error;
    EXPECT_GT(result.diagnostics.spectral_radius_estimate, 1.0);
  }
}

TEST_P(ExactThresholdTest, SufficientBoundsAreConservative) {
  const std::uint64_t seed = GetParam();
  const Graph g = RandomConnectedGraph(15, 12, seed + 100);
  const CouplingMatrix coupling = CouplingMatrix::FromResidual(
      testing::RandomResidualCoupling(3, 1.0, seed + 100));
  for (const LinBpVariant variant :
       {LinBpVariant::kLinBp, LinBpVariant::kLinBpStar}) {
    const double exact = ExactEpsilonThreshold(g, coupling, variant);
    const double sufficient = SufficientEpsilonBound(g, coupling, variant);
    EXPECT_LE(sufficient, exact * (1.0 + 1e-6));
    EXPECT_GT(sufficient, 0.0);
  }
  // Lemma 23 is also conservative (w.r.t. the LinBP exact threshold).
  const double simple = SimpleEpsilonBound(g, coupling);
  EXPECT_LE(simple,
            ExactEpsilonThreshold(g, coupling, LinBpVariant::kLinBp) *
                (1.0 + 1e-6));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExactThresholdTest, ::testing::Range(0, 5));

TEST(ConvergenceTest, WeightedGraphThresholdAccountsForWeights) {
  // Heavier edges shrink the convergence region.
  const CouplingMatrix coupling = AuctionCoupling();
  const Graph light = RandomWeightedConnectedGraph(10, 6, 1.0, 1.0, 7);
  const Graph heavy = RandomWeightedConnectedGraph(10, 6, 2.0, 2.0, 7);
  EXPECT_GT(ExactEpsilonThreshold(light, coupling, LinBpVariant::kLinBpStar),
            ExactEpsilonThreshold(heavy, coupling, LinBpVariant::kLinBpStar));
}

}  // namespace
}  // namespace linbp
