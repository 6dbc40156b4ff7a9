// End-to-end reproduction of Example 20 / Fig. 4 of the paper: on the torus
// graph with the Fig. 1c coupling matrix, the standardized beliefs of node
// v4 under BP, LinBP and LinBP* all converge to the SBP limit
// [-0.069, 1.258, -1.189] as eps_H -> 0, and each algorithm stops
// converging exactly at its predicted threshold.

#include <cmath>

#include "gtest/gtest.h"
#include "src/core/bp.h"
#include "src/core/convergence.h"
#include "src/core/coupling.h"
#include "src/core/labeling.h"
#include "src/core/linbp.h"
#include "src/core/sbp.h"
#include "src/graph/beliefs.h"
#include "src/graph/generators.h"
#include "tests/testing/test_util.h"

namespace linbp {
namespace {

class Example20Test : public ::testing::Test {
 protected:
  Example20Test() : graph_(TorusExampleGraph()), explicit_(8, 3) {
    const double seeds[3][3] = {{2, -1, -1}, {-1, 2, -1}, {-1, -1, 2}};
    for (int v = 0; v < 3; ++v) {
      for (int c = 0; c < 3; ++c) explicit_.At(v, c) = seeds[v][c];
    }
  }

  std::vector<double> SbpStandardized() const {
    const SbpResult sbp = RunSbp(graph_, AuctionCoupling().residual(),
                                 explicit_, {0, 1, 2});
    return Standardize(BeliefRow(sbp.beliefs, 3));
  }

  Graph graph_;
  DenseMatrix explicit_;
};

TEST_F(Example20Test, SbpLimitValues) {
  const std::vector<double> standardized = SbpStandardized();
  EXPECT_NEAR(standardized[0], -0.069, 1e-3);
  EXPECT_NEAR(standardized[1], 1.258, 1e-3);
  EXPECT_NEAR(standardized[2], -1.189, 1e-3);
}

TEST_F(Example20Test, LinBpApproachesSbpForSmallEps) {
  const std::vector<double> sbp = SbpStandardized();
  for (const LinBpVariant variant :
       {LinBpVariant::kLinBp, LinBpVariant::kLinBpStar}) {
    LinBpOptions options;
    options.variant = variant;
    options.max_iterations = 400;
    options.tolerance = 1e-16;
    const LinBpResult lin = RunLinBp(
        graph_, AuctionCoupling().ScaledResidual(0.01), explicit_, options);
    ASSERT_TRUE(lin.converged);
    const std::vector<double> standardized =
        Standardize(BeliefRow(lin.beliefs, 3));
    for (int c = 0; c < 3; ++c) {
      EXPECT_NEAR(standardized[c], sbp[c], 5e-3) << "class " << c;
    }
  }
}

TEST_F(Example20Test, BpApproachesSbpForSmallEps) {
  const std::vector<double> sbp = SbpStandardized();
  // Scale explicit beliefs into valid probabilities: 0.1 * [2,-1,-1] keeps
  // residuals small; eps keeps H non-negative.
  const double eps = 0.01;
  BpOptions options;
  options.max_iterations = 500;
  options.tolerance = 1e-14;
  const BpResult bp =
      RunBp(graph_, AuctionCoupling().ScaledStochastic(eps),
            ResidualToProbability(explicit_.Scale(0.1)), options);
  ASSERT_TRUE(bp.converged);
  const std::vector<double> standardized = Standardize(
      BeliefRow(ProbabilityToResidual(bp.beliefs), 3));
  for (int c = 0; c < 3; ++c) {
    EXPECT_NEAR(standardized[c], sbp[c], 5e-2) << "class " << c;
  }
}

TEST_F(Example20Test, TopBeliefOfV4IsClass2) {
  // Fig. 4: class 2 (index 1) dominates for v4 across all methods.
  const SbpResult sbp = RunSbp(graph_, AuctionCoupling().residual(),
                               explicit_, {0, 1, 2});
  const TopBeliefAssignment top = TopBeliefs(sbp.beliefs);
  EXPECT_EQ(top.classes[3], std::vector<int>{1});
}

TEST_F(Example20Test, ConvergenceBoundariesBehaveAsPredicted) {
  // eps = 0.45 < 0.488: both converge. 0.55: only LinBP*. 0.7: neither.
  // These are Lemma 8's boundaries, which hold for the Jacobi schedule.
  LinBpOptions options;
  options.max_iterations = 4000;
  options.tolerance = 1e-14;
  options.schedule = SweepSchedule::kJacobi;

  // Perturb the (highly symmetric) Example 20 seeds slightly: the symmetric
  // seeds are orthogonal to the unstable eigenmode, so exact arithmetic
  // would hide the divergence that Lemma 8 predicts for generic inputs.
  DenseMatrix perturbed = explicit_;
  perturbed.At(0, 0) += 0.01;
  perturbed.At(0, 1) -= 0.01;

  auto run = [&](double eps, LinBpVariant variant) {
    options.variant = variant;
    return RunLinBp(graph_, AuctionCoupling().ScaledResidual(eps), perturbed,
                    options);
  };
  EXPECT_TRUE(run(0.45, LinBpVariant::kLinBp).converged);
  EXPECT_TRUE(run(0.45, LinBpVariant::kLinBpStar).converged);
  EXPECT_TRUE(run(0.55, LinBpVariant::kLinBp).diverged);
  EXPECT_TRUE(run(0.55, LinBpVariant::kLinBpStar).converged);
  EXPECT_TRUE(run(0.70, LinBpVariant::kLinBp).diverged);
  EXPECT_TRUE(run(0.70, LinBpVariant::kLinBpStar).diverged);
}

TEST_F(Example20Test, SigmaDecaysCubically) {
  // Fig. 4d: sigma(bhat_v4) = eps^3 * 0.332 in the SBP limit.
  for (const double eps : {0.05, 0.1, 0.2}) {
    LinBpOptions options;
    options.max_iterations = 1000;
    options.tolerance = 1e-16;
    const LinBpResult lin = RunLinBp(
        graph_, AuctionCoupling().ScaledResidual(eps), explicit_, options);
    ASSERT_TRUE(lin.converged);
    const double sigma = StandardDeviation(BeliefRow(lin.beliefs, 3));
    // LinBP's sigma approaches the SBP line as eps -> 0; at these scales
    // it matches within ~20%.
    EXPECT_NEAR(sigma, eps * eps * eps * 0.3323,
                0.25 * eps * eps * eps * 0.3323)
        << "eps " << eps;
  }
}

}  // namespace
}  // namespace linbp
