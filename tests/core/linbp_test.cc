#include "src/core/linbp.h"

#include <cmath>
#include <cstring>

#include "gtest/gtest.h"
#include "src/core/bp.h"
#include "src/core/closed_form.h"
#include "src/core/coupling.h"
#include "src/core/labeling.h"
#include "src/graph/beliefs.h"
#include "src/graph/generators.h"
#include "src/obs/metrics.h"
#include "src/obs/timeseries.h"
#include "src/obs/trace.h"
#include "tests/testing/test_util.h"

namespace linbp {
namespace {

using testing::ExpectMatrixNear;

DenseMatrix SeedResiduals(std::int64_t n, std::int64_t k, std::uint64_t seed,
                          double fraction = 0.3) {
  const SeededBeliefs seeded = SeedPaperBeliefs(
      n, k, std::max<std::int64_t>(1, static_cast<std::int64_t>(n * fraction)),
      seed);
  return seeded.residuals;
}

TEST(LinBpTest, NoExplicitBeliefsYieldZero) {
  const Graph g = CycleGraph(5);
  const DenseMatrix hhat = AuctionCoupling().ScaledResidual(0.1);
  const LinBpResult result = RunLinBp(g, hhat, DenseMatrix(5, 3));
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.beliefs.MaxAbs(), 0.0);
}

TEST(LinBpTest, IsolatedExplicitNodeKeepsItsBeliefs) {
  const Graph g(3, {{0, 1, 1.0}});  // node 2 isolated
  const DenseMatrix hhat = HomophilyCoupling2().ScaledResidual(0.2);
  DenseMatrix e(3, 2);
  e.At(2, 0) = 0.1;
  e.At(2, 1) = -0.1;
  const LinBpResult result = RunLinBp(g, hhat, e);
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(result.beliefs.At(2, 0), 0.1, 1e-14);
  EXPECT_EQ(result.beliefs.At(0, 0), 0.0);
}

TEST(LinBpTest, BeliefRowsStayCentered) {
  const Graph g = TorusExampleGraph();
  const DenseMatrix hhat = AuctionCoupling().ScaledResidual(0.1);
  const DenseMatrix e = SeedResiduals(8, 3, /*seed=*/3, 0.4);
  const LinBpResult result = RunLinBp(g, hhat, e);
  ASSERT_TRUE(result.converged);
  for (std::int64_t v = 0; v < 8; ++v) {
    double sum = 0.0;
    for (std::int64_t c = 0; c < 3; ++c) sum += result.beliefs.At(v, c);
    EXPECT_NEAR(sum, 0.0, 1e-10) << v;
  }
}

TEST(LinBpTest, DivergenceDetectedAboveThreshold) {
  // Example 20: LinBP diverges on the torus for eps_H > ~0.488.
  const Graph g = TorusExampleGraph();
  const DenseMatrix hhat = AuctionCoupling().ScaledResidual(0.6);
  DenseMatrix e(8, 3);
  e.At(0, 0) = 0.1;
  e.At(0, 1) = -0.05;
  e.At(0, 2) = -0.05;
  LinBpOptions options;
  options.max_iterations = 600;
  options.schedule = SweepSchedule::kJacobi;  // Lemma 8 is Jacobi's test
  const LinBpResult result = RunLinBp(g, hhat, e, options);
  EXPECT_TRUE(result.diverged);
  EXPECT_FALSE(result.converged);

  // Here lambda_min(M) <= -1 < lambda_max(M) < 1: the segmented default
  // converges past Lemma 8's threshold, to Eq. 11's closed form.
  const testing::EigenRange range =
      testing::SweptOperatorEigenRange(g, hhat, /*with_echo=*/true);
  ASSERT_LE(range.lo, -1.0);
  ASSERT_LT(range.hi, 1.0);
  options.schedule = SweepSchedule::kSegmentedGaussSeidel;
  options.tolerance = 1e-13;
  const LinBpResult segmented = RunLinBp(g, hhat, e, options);
  ASSERT_TRUE(segmented.converged) << segmented.error;
  ExpectMatrixNear(segmented.beliefs, ClosedFormLinBpDense(g, hhat, e),
                   1e-9);
}

TEST(LinBpTest, StarVariantConvergesWhereEchoVariantDiverges) {
  // Between the two thresholds (0.488 < eps < 0.658) only LinBP* converges.
  const Graph g = TorusExampleGraph();
  const DenseMatrix hhat = AuctionCoupling().ScaledResidual(0.55);
  DenseMatrix e(8, 3);
  e.At(0, 0) = 0.1;
  e.At(0, 1) = -0.05;
  e.At(0, 2) = -0.05;
  LinBpOptions options;
  options.max_iterations = 2000;
  options.schedule = SweepSchedule::kJacobi;  // the thresholds are Jacobi's
  options.variant = LinBpVariant::kLinBp;
  EXPECT_TRUE(RunLinBp(g, hhat, e, options).diverged);
  options.variant = LinBpVariant::kLinBpStar;
  const LinBpResult star = RunLinBp(g, hhat, e, options);
  EXPECT_FALSE(star.diverged);
  EXPECT_TRUE(star.converged);
}

// Lemma 12 / Corollary 13: scaling E scales B linearly and leaves the
// standardized (and top-belief) assignment unchanged.
TEST(LinBpTest, ScalingExplicitBeliefsScalesFinalBeliefs) {
  const Graph g = RandomConnectedGraph(12, 8, /*seed=*/4);
  const DenseMatrix hhat = AuctionCoupling().ScaledResidual(0.05);
  const DenseMatrix e = SeedResiduals(12, 3, /*seed=*/5);
  const LinBpResult base = RunLinBp(g, hhat, e);
  const LinBpResult scaled = RunLinBp(g, hhat, e.Scale(7.5));
  ASSERT_TRUE(base.converged && scaled.converged);
  ExpectMatrixNear(scaled.beliefs, base.beliefs.Scale(7.5), 1e-9);
  ExpectMatrixNear(StandardizeRows(scaled.beliefs),
                   StandardizeRows(base.beliefs), 1e-8);
}

TEST(LinBpTest, WeightedEdgesScaleInfluence) {
  // A heavier edge transmits proportionally more residual belief.
  const DenseMatrix hhat = HomophilyCoupling2().ScaledResidual(0.1);
  DenseMatrix e(2, 2);
  e.At(0, 0) = 0.1;
  e.At(0, 1) = -0.1;
  const Graph light(2, {{0, 1, 1.0}});
  const Graph heavy(2, {{0, 1, 2.0}});
  const LinBpResult b_light = RunLinBp(light, hhat, e);
  const LinBpResult b_heavy = RunLinBp(heavy, hhat, e);
  ASSERT_TRUE(b_light.converged && b_heavy.converged);
  EXPECT_GT(b_heavy.beliefs.At(1, 0), 1.9 * b_light.beliefs.At(1, 0));
}

TEST(LinBpTest, ExactModulationMatchesSeries) {
  // Hhat* = (I - Hhat^2)^-1 Hhat = Hhat + Hhat^3 + Hhat^5 + ...
  const DenseMatrix hhat = AuctionCoupling().ScaledResidual(0.3);
  const DenseMatrix hstar = ExactModulation(hhat);
  DenseMatrix series = hhat;
  DenseMatrix power = hhat;
  for (int i = 0; i < 60; ++i) {
    power = power.Multiply(hhat).Multiply(hhat);
    series = series.Add(power);
  }
  ExpectMatrixNear(hstar, series, 1e-10);
}

TEST(LinBpTest, ExactVariantApproachesLinBpForSmallResiduals) {
  const Graph g = RandomConnectedGraph(10, 6, /*seed=*/6);
  const DenseMatrix hhat = AuctionCoupling().ScaledResidual(0.02);
  const DenseMatrix e = SeedResiduals(10, 3, /*seed=*/7);
  LinBpOptions options;
  options.variant = LinBpVariant::kLinBp;
  const LinBpResult plain = RunLinBp(g, hhat, e, options);
  options.variant = LinBpVariant::kLinBpExact;
  const LinBpResult exact = RunLinBp(g, hhat, e, options);
  ASSERT_TRUE(plain.converged && exact.converged);
  // Difference is O(hhat^3) relative to an O(hhat) signal.
  EXPECT_LT(plain.beliefs.MaxAbsDiff(exact.beliefs),
            1e-3 * plain.beliefs.MaxAbs());
}

TEST(LinBpTest, InstrumentationIsBitInvisible) {
  const Graph g = RandomConnectedGraph(40, 30, /*seed=*/9);
  const DenseMatrix hhat = AuctionCoupling().ScaledResidual(0.05);
  const DenseMatrix e = SeedResiduals(40, 3, /*seed=*/10);

  // The default schedule first, then the paper's Jacobi iteration.
  for (const SweepSchedule schedule :
       {SweepSchedule::kSegmentedGaussSeidel, SweepSchedule::kJacobi}) {
    SCOPED_TRACE(SweepScheduleName(schedule));
    LinBpOptions options;
    options.schedule = schedule;

    // Baseline: metrics and time series null-sinked, no tracer, no
    // observer, no diagnostics extras.
    obs::Registry::Global().SetEnabled(false);
    obs::TimeSeriesRegistry::Global().SetEnabled(false);
    const LinBpResult plain = RunLinBp(g, hhat, e, options);
    obs::Registry::Global().SetEnabled(true);
    obs::TimeSeriesRegistry::Global().SetEnabled(true);

    // Fully instrumented: metrics on, time series recording, span tracer
    // installed, sweep observer attached, spectral estimate requested.
    obs::Tracer tracer;
    obs::SetActiveTracer(&tracer);
    options.estimate_spectral_radius = true;
    int observed_sweeps = 0;
    std::int64_t observed_rows = 0;
    options.sweep_observer = [&](const SweepTelemetry& telemetry) {
      ++observed_sweeps;
      observed_rows = telemetry.rows;
      EXPECT_GE(telemetry.seconds, 0.0);
      EXPECT_GE(telemetry.delta_l2, 0.0);
      EXPECT_EQ(telemetry.schedule, schedule);
    };
    const LinBpResult traced = RunLinBp(g, hhat, e, options);
    obs::SetActiveTracer(nullptr);

    ASSERT_TRUE(plain.converged && traced.converged);
    EXPECT_EQ(traced.iterations, plain.iterations);
    EXPECT_EQ(observed_sweeps, traced.iterations);
    EXPECT_EQ(observed_rows, 40);
    EXPECT_GE(tracer.num_spans(),
              static_cast<std::size_t>(traced.iterations));
    // The sweep spans name the schedule.
    EXPECT_NE(tracer.ChromeTraceJson().find(
                  std::string("\"schedule\":\"") +
                  SweepScheduleName(schedule) + "\""),
              std::string::npos);
    // The instrumented run recorded one time-series sample per sweep,
    // each naming the schedule.
    const std::vector<obs::TimeSeriesSample> samples =
        obs::TimeSeriesRegistry::Global().Get("linbp_sweep").Samples();
    EXPECT_EQ(samples.size(), static_cast<std::size_t>(traced.iterations));
    for (const obs::TimeSeriesSample& sample : samples) {
      EXPECT_EQ(sample.schedule, SweepScheduleName(schedule));
    }
    // And its diagnostics carry a contraction fit plus the spectral
    // estimate the options requested.
    EXPECT_GT(traced.diagnostics.empirical_contraction, 0.0);
    EXPECT_LT(traced.diagnostics.empirical_contraction, 1.0);
    EXPECT_GT(traced.diagnostics.spectral_radius_estimate, 0.0);
    EXPECT_EQ(traced.diagnostics.predicted_sweeps_to_tolerance, 0.0);
    // Bit identity, not a tolerance: telemetry must never touch the math.
    ASSERT_EQ(plain.beliefs.rows(), traced.beliefs.rows());
    ASSERT_EQ(plain.beliefs.cols(), traced.beliefs.cols());
    EXPECT_EQ(std::memcmp(plain.beliefs.data().data(),
                          traced.beliefs.data().data(),
                          plain.beliefs.data().size() * sizeof(double)),
              0);
  }
}

TEST(LinBpTest, ContractionFitMatchesSpectralRadiusOnTorus) {
  // On a converging run the fitted rho-hat tracks rho(M): the Jacobi
  // residual contracts by exactly rho(M) per sweep asymptotically
  // (Eq. 13). Torus at eps 0.45, just under the ~0.488 threshold of
  // Example 20, converges slowly enough for a clean trailing fit.
  const Graph g = TorusExampleGraph();
  const DenseMatrix hhat = AuctionCoupling().ScaledResidual(0.45);
  DenseMatrix e(8, 3);
  e.At(0, 0) = 0.1;
  e.At(0, 1) = -0.05;
  e.At(0, 2) = -0.05;
  LinBpOptions options;
  options.max_iterations = 2000;
  options.tolerance = 1e-14;
  options.estimate_spectral_radius = true;
  options.schedule = SweepSchedule::kJacobi;
  const LinBpResult result = RunLinBp(g, hhat, e, options);
  ASSERT_TRUE(result.converged);
  const ConvergenceDiagnostics& diag = result.diagnostics;
  ASSERT_GT(diag.spectral_radius_estimate, 0.0);
  EXPECT_LT(diag.spectral_radius_estimate, 1.0);
  EXPECT_GT(diag.fitted_sweeps, 2);
  EXPECT_NEAR(diag.empirical_contraction, diag.spectral_radius_estimate,
              0.05);

  // The segmented default fits its own, faster rate: well below rho(M),
  // with rho(M) itself unchanged (it describes the operator, not the
  // schedule).
  options.schedule = SweepSchedule::kSegmentedGaussSeidel;
  const LinBpResult segmented = RunLinBp(g, hhat, e, options);
  ASSERT_TRUE(segmented.converged);
  EXPECT_LT(segmented.iterations, result.iterations);
  EXPECT_EQ(segmented.diagnostics.spectral_radius_estimate,
            diag.spectral_radius_estimate);
  EXPECT_GT(segmented.diagnostics.empirical_contraction, 0.0);
  EXPECT_LT(segmented.diagnostics.empirical_contraction,
            0.5 * diag.spectral_radius_estimate);
}

TEST(LinBpTest, PredictsRemainingSweepsWhenStoppedEarly) {
  const Graph g = TorusExampleGraph();
  const DenseMatrix hhat = AuctionCoupling().ScaledResidual(0.45);
  DenseMatrix e(8, 3);
  e.At(0, 0) = 0.1;
  e.At(0, 1) = -0.05;
  e.At(0, 2) = -0.05;
  LinBpOptions options;
  options.tolerance = 1e-14;
  options.max_iterations = 40;  // stop well before convergence
  options.schedule = SweepSchedule::kJacobi;
  const LinBpResult result = RunLinBp(g, hhat, e, options);
  ASSERT_FALSE(result.converged);
  ASSERT_FALSE(result.failed);
  // rho-hat in (0, 1) plus a positive prediction of the remaining work.
  EXPECT_GT(result.diagnostics.empirical_contraction, 0.0);
  EXPECT_LT(result.diagnostics.empirical_contraction, 1.0);
  EXPECT_GT(result.diagnostics.predicted_sweeps_to_tolerance, 0.0);
}

TEST(LinBpTest, DivergenceAbortsEarlyWithDiagnosticError) {
  // Example 20 again (eps 0.6 > ~0.488 diverges), but unlike the
  // magnitude-threshold path the early abort stops in O(patience)
  // sweeps with a diagnostic error instead of iterating until beliefs
  // exceed 1e12.
  const Graph g = TorusExampleGraph();
  const DenseMatrix hhat = AuctionCoupling().ScaledResidual(0.6);
  DenseMatrix e(8, 3);
  e.At(0, 0) = 0.1;
  e.At(0, 1) = -0.05;
  e.At(0, 2) = -0.05;
  LinBpOptions options;
  options.max_iterations = 600;
  options.schedule = SweepSchedule::kJacobi;
  const LinBpResult result = RunLinBp(g, hhat, e, options);
  EXPECT_TRUE(result.failed);
  EXPECT_TRUE(result.diverged);
  EXPECT_FALSE(result.converged);
  EXPECT_LT(result.iterations, 100);
  EXPECT_NE(result.error.find("diverging"), std::string::npos)
      << result.error;
  EXPECT_NE(result.error.find("rho_hat="), std::string::npos)
      << result.error;
  EXPECT_GT(result.diagnostics.empirical_contraction, 1.0);
  // The abort computed the exact criterion for its message: rho(M) > 1
  // confirms Lemma 8's divergence verdict.
  EXPECT_GT(result.diagnostics.spectral_radius_estimate, 1.0);
}

TEST(LinBpTest, DivergencePatienceZeroDisablesEarlyAbort) {
  const Graph g = TorusExampleGraph();
  const DenseMatrix hhat = AuctionCoupling().ScaledResidual(0.6);
  DenseMatrix e(8, 3);
  e.At(0, 0) = 0.1;
  e.At(0, 1) = -0.05;
  e.At(0, 2) = -0.05;
  LinBpOptions options;
  options.max_iterations = 600;
  options.divergence_patience = 0;
  options.schedule = SweepSchedule::kJacobi;
  const LinBpResult result = RunLinBp(g, hhat, e, options);
  // The old magnitude-threshold path: diverged but not failed, and the
  // run had to iterate until beliefs crossed divergence_threshold.
  EXPECT_TRUE(result.diverged);
  EXPECT_FALSE(result.failed);
  EXPECT_TRUE(result.error.empty()) << result.error;
}

// The headline quality result (Sect. 7, Fig. 7f): LinBP's top-belief
// assignment matches BP's for small eps_H.
class LinBpVsBpTest : public ::testing::TestWithParam<int> {};

TEST_P(LinBpVsBpTest, TopBeliefsMatchBpForSmallEps) {
  const std::uint64_t seed = GetParam();
  const Graph g = RandomConnectedGraph(30, 25, seed);
  const CouplingMatrix coupling = AuctionCoupling();
  const double eps = 0.02;
  const DenseMatrix e = SeedResiduals(30, 3, seed + 1, 0.25);

  BpOptions bp_options;
  bp_options.max_iterations = 300;
  bp_options.tolerance = 1e-13;
  const BpResult bp = RunBp(g, coupling.ScaledStochastic(eps),
                            ResidualToProbability(e), bp_options);
  ASSERT_TRUE(bp.converged);

  LinBpOptions lin_options;
  lin_options.max_iterations = 300;
  const LinBpResult lin =
      RunLinBp(g, coupling.ScaledResidual(eps), e, lin_options);
  ASSERT_TRUE(lin.converged);

  const TopBeliefAssignment bp_top =
      TopBeliefs(ProbabilityToResidual(bp.beliefs));
  const TopBeliefAssignment lin_top = TopBeliefs(lin.beliefs);
  const QualityMetrics metrics = CompareAssignments(bp_top, lin_top);
  EXPECT_GT(metrics.f1, 0.95) << "seed " << seed;
}

TEST_P(LinBpVsBpTest, ResidualBeliefsTrackBpResiduals) {
  const std::uint64_t seed = GetParam();
  const Graph g = RandomConnectedGraph(15, 10, seed + 100);
  const CouplingMatrix coupling = AuctionCoupling();
  const double eps = 0.01;
  const DenseMatrix e = SeedResiduals(15, 3, seed + 101, 0.3);

  BpOptions bp_options;
  bp_options.max_iterations = 300;
  bp_options.tolerance = 1e-14;
  const BpResult bp = RunBp(g, coupling.ScaledStochastic(eps),
                            ResidualToProbability(e), bp_options);
  ASSERT_TRUE(bp.converged);
  const LinBpResult lin = RunLinBp(g, coupling.ScaledResidual(eps), e);
  ASSERT_TRUE(lin.converged);

  // Residuals agree to second order in eps (both ~1e-2 here, error ~1e-4).
  const DenseMatrix bp_residual = ProbabilityToResidual(bp.beliefs);
  EXPECT_LT(lin.beliefs.MaxAbsDiff(bp_residual), 5e-4);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LinBpVsBpTest, ::testing::Range(0, 6));

// Larger class counts: LinBP stays consistent with its closed form for any
// k (the derivation never assumes k = 2 or 3).
class LinBpManyClassesTest : public ::testing::TestWithParam<int> {};

TEST_P(LinBpManyClassesTest, IterativeMatchesClosedForm) {
  const std::int64_t k = GetParam();
  const Graph g = RandomConnectedGraph(8, 6, /*seed=*/17 + k);
  const DenseMatrix hhat =
      testing::RandomResidualCoupling(k, 0.3 / static_cast<double>(k),
                                      23 + k);
  Rng rng(29 + k);
  DenseMatrix e(8, k);
  for (std::int64_t v = 0; v < 4; ++v) {
    double sum = 0.0;
    for (std::int64_t c = 0; c + 1 < k; ++c) {
      e.At(v, c) = 0.1 * (2.0 * rng.NextDouble() - 1.0);
      sum += e.At(v, c);
    }
    e.At(v, k - 1) = -sum;
  }
  LinBpOptions options;
  options.max_iterations = 500;
  options.tolerance = 1e-14;
  const LinBpResult iterative = RunLinBp(g, hhat, e, options);
  ASSERT_TRUE(iterative.converged) << "k=" << k;
  const DenseMatrix closed = ClosedFormLinBpDense(g, hhat, e);
  ExpectMatrixNear(iterative.beliefs, closed, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(ClassCounts, LinBpManyClassesTest,
                         ::testing::Values(2, 4, 5, 7));

}  // namespace
}  // namespace linbp
