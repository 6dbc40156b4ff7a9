#include "src/relational/linbp_sql.h"

#include "gtest/gtest.h"
#include "src/core/coupling.h"
#include "src/core/linbp.h"
#include "src/graph/beliefs.h"
#include "src/graph/generators.h"
#include "src/relational/ops.h"
#include "tests/testing/test_util.h"

namespace linbp {
namespace {

using testing::ExpectMatrixNear;

TEST(LinBpSqlTablesTest, AdjacencyTableHasBothDirections) {
  const Graph g(3, {{0, 1, 2.0}, {1, 2, 1.0}});
  const Table a = MakeAdjacencyTable(g);
  EXPECT_EQ(a.num_rows(), 4);
  EXPECT_EQ(CountDistinctKeys(a, {"s", "t"}), 4);
}

TEST(LinBpSqlTablesTest, BeliefTableSkipsZeroEntries) {
  DenseMatrix residuals(3, 2);
  residuals.At(1, 0) = 0.1;
  residuals.At(1, 1) = -0.1;
  const Table e = MakeBeliefTable(residuals, {0, 1});
  // Node 0 has all-zero residuals, so only node 1 produces rows.
  EXPECT_EQ(e.num_rows(), 2);
  EXPECT_EQ(e.IntAt(0, 0), 1);
}

TEST(LinBpSqlTablesTest, BeliefsRoundTripThroughTable) {
  const SeededBeliefs seeded = SeedPaperBeliefs(10, 3, 4, /*seed=*/3);
  const Table e = MakeBeliefTable(seeded.residuals, seeded.explicit_nodes);
  ExpectMatrixNear(BeliefsFromTable(e, 10, 3), seeded.residuals, 0.0);
}

TEST(LinBpSqlTablesTest, CouplingTableHasAllEntries) {
  const Table h = MakeCouplingTable(AuctionCoupling().residual());
  EXPECT_EQ(h.num_rows(), 9);
}

TEST(LinBpSqlTablesTest, DegreeTableMatchesWeightedDegrees) {
  const Graph g = RandomWeightedConnectedGraph(12, 8, 0.5, 2.0, /*seed=*/4);
  const Table d = DeriveDegreeTable(MakeAdjacencyTable(g));
  EXPECT_EQ(d.num_rows(), 12);
  for (std::int64_t r = 0; r < d.num_rows(); ++r) {
    const std::int64_t v = d.IntAt(d.ColumnIndex("v"), r);
    EXPECT_NEAR(d.DoubleAt(d.ColumnIndex("d"), r),
                g.weighted_degrees()[v], 1e-12);
  }
}

TEST(LinBpSqlTablesTest, CouplingSquaredMatchesDenseSquare) {
  const DenseMatrix hhat = AuctionCoupling().ScaledResidual(0.3);
  const Table h2 = DeriveCouplingSquaredTable(MakeCouplingTable(hhat));
  const DenseMatrix expected = hhat.Multiply(hhat);
  ASSERT_EQ(h2.num_rows(), 9);
  for (std::int64_t r = 0; r < h2.num_rows(); ++r) {
    const std::int64_t c1 = h2.IntAt(h2.ColumnIndex("c1"), r);
    const std::int64_t c2 = h2.IntAt(h2.ColumnIndex("c2"), r);
    EXPECT_NEAR(h2.DoubleAt(h2.ColumnIndex("h"), r), expected.At(c1, c2),
                1e-13);
  }
}

// Algorithm 1 must match the matrix implementation sweep for sweep.
class LinBpSqlEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(LinBpSqlEquivalenceTest, MatchesMatrixLinBp) {
  const auto [seed, with_echo] = GetParam();
  const Graph g = RandomConnectedGraph(15, 12, seed);
  const DenseMatrix hhat = testing::RandomResidualCoupling(3, 0.06, seed + 1);
  const SeededBeliefs seeded = SeedPaperBeliefs(15, 3, 5, seed + 2);
  const int iterations = 5;

  const Table b_sql = RunLinBpSql(
      MakeAdjacencyTable(g),
      MakeBeliefTable(seeded.residuals, seeded.explicit_nodes),
      MakeCouplingTable(hhat), iterations, with_echo);

  LinBpOptions options;
  options.variant =
      with_echo ? LinBpVariant::kLinBp : LinBpVariant::kLinBpStar;
  options.max_iterations = iterations;
  options.tolerance = 0.0;  // force exactly `iterations` sweeps
  options.schedule = SweepSchedule::kJacobi;  // the SQL iteration's order
  const LinBpResult reference = RunLinBp(g, hhat, seeded.residuals, options);

  ExpectMatrixNear(BeliefsFromTable(b_sql, 15, 3), reference.beliefs, 1e-11);
}

TEST_P(LinBpSqlEquivalenceTest, WeightedGraphsMatchToo) {
  const auto [seed, with_echo] = GetParam();
  const Graph g = RandomWeightedConnectedGraph(10, 8, 0.5, 1.5, seed + 100);
  const DenseMatrix hhat = testing::RandomResidualCoupling(2, 0.1, seed + 101);
  const SeededBeliefs seeded = SeedPaperBeliefs(10, 2, 3, seed + 102);

  const Table b_sql = RunLinBpSql(
      MakeAdjacencyTable(g),
      MakeBeliefTable(seeded.residuals, seeded.explicit_nodes),
      MakeCouplingTable(hhat), 4, with_echo);
  LinBpOptions options;
  options.variant =
      with_echo ? LinBpVariant::kLinBp : LinBpVariant::kLinBpStar;
  options.max_iterations = 4;
  options.tolerance = 0.0;
  options.schedule = SweepSchedule::kJacobi;
  const LinBpResult reference = RunLinBp(g, hhat, seeded.residuals, options);
  ExpectMatrixNear(BeliefsFromTable(b_sql, 10, 2), reference.beliefs, 1e-11);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndEcho, LinBpSqlEquivalenceTest,
    ::testing::Combine(::testing::Range(0, 6), ::testing::Bool()));

}  // namespace
}  // namespace linbp
