#include "src/core/sbp.h"

#include <set>
#include <utility>

#include "gtest/gtest.h"
#include "src/core/coupling.h"
#include "src/core/labeling.h"
#include "src/core/linbp.h"
#include "src/graph/beliefs.h"
#include "src/graph/generators.h"
#include "src/la/kron_ops.h"
#include "tests/testing/test_util.h"

namespace linbp {
namespace {

using testing::ExpectMatrixNear;
using testing::ExpectVectorNear;

TEST(GeodesicNumbersTest, PathFromOneEnd) {
  const Graph g = PathGraph(4);
  EXPECT_EQ(GeodesicNumbers(g, {0}),
            (std::vector<std::int64_t>{0, 1, 2, 3}));
}

TEST(GeodesicNumbersTest, MultipleSourcesTakeMinimum) {
  const Graph g = PathGraph(5);
  EXPECT_EQ(GeodesicNumbers(g, {0, 4}),
            (std::vector<std::int64_t>{0, 1, 2, 1, 0}));
}

TEST(GeodesicNumbersTest, UnreachableComponent) {
  const Graph g(4, {{0, 1, 1.0}, {2, 3, 1.0}});
  const auto geodesic = GeodesicNumbers(g, {0});
  EXPECT_EQ(geodesic[1], 1);
  EXPECT_EQ(geodesic[2], kUnreachable);
  EXPECT_EQ(geodesic[3], kUnreachable);
}

TEST(GeodesicNumbersTest, DuplicateSourcesAreFine) {
  const Graph g = PathGraph(3);
  EXPECT_EQ(GeodesicNumbers(g, {0, 0, 0}),
            (std::vector<std::int64_t>{0, 1, 2}));
}

// Example 18: the modified adjacency matrix of the Fig. 5 graph.
TEST(ModifiedAdjacencyTest, MatchesExample18) {
  const Graph g = Figure5ExampleGraph();
  const auto geodesic = GeodesicNumbers(g, {1, 6});  // v2, v7 explicit
  const SparseMatrix a_star = ModifiedAdjacency(g, geodesic);
  // Expected directed edges (0-indexed): from geodesic level g to g+1:
  // v2->v3, v2->v4, v7->v3, v7->v6, v3->v1, v4->v1, v4->v5, v6->v5.
  const std::set<std::pair<std::int64_t, std::int64_t>> expected = {
      {1, 2}, {1, 3}, {6, 2}, {6, 5}, {2, 0}, {3, 0}, {3, 4}, {5, 4}};
  std::set<std::pair<std::int64_t, std::int64_t>> actual;
  for (std::int64_t s = 0; s < a_star.rows(); ++s) {
    for (std::int64_t e = a_star.row_ptr()[s]; e < a_star.row_ptr()[s + 1];
         ++e) {
      actual.emplace(s, a_star.col_idx()[e]);
    }
  }
  EXPECT_EQ(actual, expected);
  // The dropped edge v1-v5 connects two geodesic-2 nodes (Example 18).
  EXPECT_EQ(a_star.At(0, 4), 0.0);
  EXPECT_EQ(a_star.At(4, 0), 0.0);
}

TEST(ModifiedAdjacencyTest, SymmetrizationRecoversAdjacencyOnPath) {
  // On a path labeled at one end every edge crosses geodesic levels, so no
  // edge is dropped and A* + A*^T reassembles the full adjacency matrix.
  const Graph g = PathGraph(7);
  const auto geodesic = GeodesicNumbers(g, {0});
  const SparseMatrix a_star = ModifiedAdjacency(g, geodesic);
  std::vector<Triplet> entries;
  for (std::int64_t s = 0; s < a_star.rows(); ++s) {
    for (std::int64_t e = a_star.row_ptr()[s]; e < a_star.row_ptr()[s + 1];
         ++e) {
      const std::int64_t t = a_star.col_idx()[e];
      const double w = a_star.weight(e);
      entries.push_back({s, t, w});
      entries.push_back({t, s, w});
    }
  }
  const SparseMatrix symmetrized =
      SparseMatrix::FromTriplets(g.num_nodes(), g.num_nodes(), entries);
  testing::ExpectSparseNear(symmetrized, g.adjacency(), 0.0);
}

TEST(ModifiedAdjacencyTest, ResultIsAcyclic) {
  // Lemma 17(1): A* has no directed cycles; every edge increases the
  // geodesic number by exactly 1.
  const Graph g = RandomConnectedGraph(30, 25, /*seed=*/3);
  const auto geodesic = GeodesicNumbers(g, {0, 5, 9});
  const SparseMatrix a_star = ModifiedAdjacency(g, geodesic);
  for (std::int64_t s = 0; s < a_star.rows(); ++s) {
    for (std::int64_t e = a_star.row_ptr()[s]; e < a_star.row_ptr()[s + 1];
         ++e) {
      EXPECT_EQ(geodesic[a_star.col_idx()[e]], geodesic[s] + 1);
    }
  }
}

// Example 16: bhat'_v1 = zeta(Hhat_o^2 (2 ehat_v2 + ehat_v7)).
TEST(SbpTest, Example16StandardizedBeliefs) {
  const Graph g = Figure5ExampleGraph();
  const DenseMatrix hhat = AuctionCoupling().residual();
  DenseMatrix e(7, 3);
  const std::vector<double> ev2 = {0.10, -0.02, -0.08};
  const std::vector<double> ev7 = {-0.03, 0.09, -0.06};
  for (int c = 0; c < 3; ++c) {
    e.At(1, c) = ev2[c];
    e.At(6, c) = ev7[c];
  }
  const SbpResult result = RunSbp(g, hhat, e, {1, 6});
  // Expected: Hhat^2 applied to (2 ev2 + ev7). (Hhat is symmetric, so the
  // row-vector convention matches the matrix-vector product.)
  std::vector<double> combined(3);
  for (int c = 0; c < 3; ++c) combined[c] = 2.0 * ev2[c] + ev7[c];
  const std::vector<double> expected =
      hhat.Multiply(hhat).MultiplyVector(combined);
  ExpectVectorNear(Standardize(BeliefRow(result.beliefs, 0)),
                   Standardize(expected), 1e-10);
}

// Example 20: bhat'_v4 = zeta(Hhat_o^3 (ehat_v1 + ehat_v3))
//                      ~ [-0.069, 1.258, -1.189].
TEST(SbpTest, Example20StandardizedBeliefs) {
  const Graph g = TorusExampleGraph();
  const DenseMatrix hhat = AuctionCoupling().residual();
  DenseMatrix e(8, 3);
  const double seeds[3][3] = {{2, -1, -1}, {-1, 2, -1}, {-1, -1, 2}};
  for (int v = 0; v < 3; ++v) {
    for (int c = 0; c < 3; ++c) e.At(v, c) = seeds[v][c];
  }
  const SbpResult result = RunSbp(g, hhat, e, {0, 1, 2});
  EXPECT_EQ(result.geodesic[3], 3);
  const std::vector<double> standardized =
      Standardize(BeliefRow(result.beliefs, 3));
  EXPECT_NEAR(standardized[0], -0.069, 1e-3);
  EXPECT_NEAR(standardized[1], 1.258, 1e-3);
  EXPECT_NEAR(standardized[2], -1.189, 1e-3);
}

// sigma(bhat_v4) = eps^3 * 0.332 for Hhat = eps * Hhat_o (Example 20).
TEST(SbpTest, Example20SigmaScalesCubically) {
  const Graph g = TorusExampleGraph();
  DenseMatrix e(8, 3);
  const double seeds[3][3] = {{2, -1, -1}, {-1, 2, -1}, {-1, -1, 2}};
  for (int v = 0; v < 3; ++v) {
    for (int c = 0; c < 3; ++c) e.At(v, c) = seeds[v][c];
  }
  for (const double eps : {0.1, 0.01}) {
    const DenseMatrix hhat = AuctionCoupling().ScaledResidual(eps);
    const SbpResult result = RunSbp(g, hhat, e, {0, 1, 2});
    EXPECT_NEAR(StandardDeviation(BeliefRow(result.beliefs, 3)),
                eps * eps * eps * 0.3323, eps * eps * eps * 1e-3);
  }
}

TEST(SbpTest, StandardizedBeliefsIndependentOfScale) {
  const Graph g = RandomConnectedGraph(20, 15, /*seed=*/5);
  const SeededBeliefs seeded = SeedPaperBeliefs(20, 3, 4, /*seed=*/6);
  const SbpResult a = RunSbp(g, AuctionCoupling().ScaledResidual(1.0),
                             seeded.residuals, seeded.explicit_nodes);
  const SbpResult b = RunSbp(g, AuctionCoupling().ScaledResidual(0.013),
                             seeded.residuals, seeded.explicit_nodes);
  ExpectMatrixNear(StandardizeRows(a.beliefs), StandardizeRows(b.beliefs),
                   1e-9);
}

TEST(SbpTest, UnreachableNodesGetZeroBeliefs) {
  const Graph g(4, {{0, 1, 1.0}, {2, 3, 1.0}});
  DenseMatrix e(4, 2);
  e.At(0, 0) = 0.1;
  e.At(0, 1) = -0.1;
  const SbpResult result =
      RunSbp(g, HomophilyCoupling2().ScaledResidual(0.5), e, {0});
  EXPECT_EQ(result.geodesic[2], kUnreachable);
  EXPECT_EQ(result.beliefs.At(2, 0), 0.0);
  EXPECT_EQ(result.beliefs.At(3, 1), 0.0);
}

TEST(SbpTest, WeightedPathMultipliesWeights) {
  // Def. 15: a path's weight is the product of its edge weights.
  const Graph g(3, {{0, 1, 2.0}, {1, 2, 3.0}});
  const DenseMatrix hhat = HomophilyCoupling2().ScaledResidual(0.5);
  DenseMatrix e(3, 2);
  e.At(0, 0) = 0.1;
  e.At(0, 1) = -0.1;
  const SbpResult result = RunSbp(g, hhat, e, {0});
  const std::vector<double> expected = hhat.Multiply(hhat).MultiplyVector(
      {0.1 * 6.0, -0.1 * 6.0});  // weight 2 * 3 = 6
  ExpectVectorNear(BeliefRow(result.beliefs, 2), expected, 1e-13);
}

// Lemma 17(2): SBP over A equals LinBP (without echo) over A*^T.
class SbpLemma17Test : public ::testing::TestWithParam<int> {};

TEST_P(SbpLemma17Test, SbpEqualsLinBpOnModifiedAdjacency) {
  const std::uint64_t seed = GetParam();
  const Graph g = RandomConnectedGraph(25, 20, seed);
  const DenseMatrix hhat = testing::RandomResidualCoupling(3, 0.2, seed + 1);
  const SeededBeliefs seeded = SeedPaperBeliefs(25, 3, 5, seed + 2);

  const SbpResult sbp =
      RunSbp(g, hhat, seeded.residuals, seeded.explicit_nodes);

  // LinBP* over A*^T: iterate B <- E + A*^T B Hhat. The DAG guarantees
  // convergence after max_geodesic iterations.
  const SparseMatrix a_star_t =
      ModifiedAdjacency(g, sbp.geodesic).Transpose();
  DenseMatrix b = seeded.residuals;
  const DenseMatrix hhat2 = hhat.Multiply(hhat);
  const std::vector<double> no_degrees(g.num_nodes(), 0.0);
  for (std::int64_t it = 0; it <= sbp.max_geodesic + 1; ++it) {
    b = seeded.residuals.Add(LinBpPropagate(
        a_star_t, no_degrees, hhat, hhat2, b, /*with_echo=*/false));
  }
  ExpectMatrixNear(sbp.beliefs, b, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SbpLemma17Test, ::testing::Range(0, 6));

// Theorem 19: standardized LinBP converges to standardized SBP as
// eps_H -> 0+ (and thus their top-belief assignments coincide).
class SbpTheorem19Test : public ::testing::TestWithParam<int> {};

TEST_P(SbpTheorem19Test, LinBpApproachesSbpForSmallEps) {
  const std::uint64_t seed = GetParam();
  const Graph g = RandomConnectedGraph(20, 14, seed + 50);
  const CouplingMatrix coupling = AuctionCoupling();
  const SeededBeliefs seeded =
      SeedPaperBeliefs(20, 3, 4, seed + 51, /*extra_digits=*/3);

  const double eps = 1e-4;
  const SbpResult sbp = RunSbp(g, coupling.ScaledResidual(eps),
                               seeded.residuals, seeded.explicit_nodes);
  LinBpOptions options;
  options.max_iterations = 500;
  options.tolerance = 1e-16;
  const LinBpResult lin =
      RunLinBp(g, coupling.ScaledResidual(eps), seeded.residuals, options);
  ASSERT_TRUE(lin.converged);

  // Compare standardized rows only where SBP reached the node.
  std::int64_t compared = 0;
  const DenseMatrix lin_std = StandardizeRows(lin.beliefs);
  const DenseMatrix sbp_std = StandardizeRows(sbp.beliefs);
  for (std::int64_t v = 0; v < g.num_nodes(); ++v) {
    if (sbp.geodesic[v] == kUnreachable) continue;
    ++compared;
    for (std::int64_t c = 0; c < 3; ++c) {
      EXPECT_NEAR(lin_std.At(v, c), sbp_std.At(v, c), 5e-2)
          << "node " << v << " class " << c;
    }
  }
  EXPECT_EQ(compared, g.num_nodes());

  // Top-belief assignments agree except for numerical ties.
  const QualityMetrics metrics =
      CompareAssignments(TopBeliefs(sbp.beliefs), TopBeliefs(lin.beliefs));
  EXPECT_GT(metrics.f1, 0.95);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SbpTheorem19Test, ::testing::Range(0, 6));

}  // namespace
}  // namespace linbp
