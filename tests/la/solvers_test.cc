#include "src/la/solvers.h"

#include <cmath>

#include "gtest/gtest.h"
#include "src/la/dense_linalg.h"
#include "tests/testing/test_util.h"

namespace linbp {
namespace {

using testing::ExpectVectorNear;
using testing::RandomSymmetricMatrix;

TEST(PowerIterationTest, DiagonalMatrix) {
  const DenseOperator op(DenseMatrix::Diagonal({1.0, -3.0, 2.0}));
  const PowerIterationResult result = PowerIteration(op);
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(result.spectral_radius, 3.0, 1e-7);
}

TEST(PowerIterationTest, ZeroMatrix) {
  const DenseOperator op(DenseMatrix(4, 4));
  const PowerIterationResult result = PowerIteration(op);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.spectral_radius, 0.0);
}

TEST(PowerIterationTest, EmptyOperator) {
  const DenseOperator op(DenseMatrix(0, 0));
  EXPECT_TRUE(PowerIteration(op).converged);
}

class PowerIterationRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(PowerIterationRandomTest, MatchesJacobiEigenvaluesOnSymmetric) {
  const DenseMatrix a = RandomSymmetricMatrix(6, 1.0, GetParam());
  const DenseOperator op(a);
  const PowerIterationResult result = PowerIteration(op, 3000, 1e-12);
  EXPECT_NEAR(result.spectral_radius, SymmetricSpectralRadius(a), 1e-5);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PowerIterationRandomTest,
                         ::testing::Range(0, 10));

class PowerIterationNonSymmetricTest : public ::testing::TestWithParam<int> {
};

TEST_P(PowerIterationNonSymmetricTest, NonNegative2x2HandFormula) {
  // Perron-Frobenius case (as used for the edge matrix of Appendix G):
  // for [[a, b], [c, d]] >= 0 the dominant eigenvalue is
  // ((a+d) + sqrt((a-d)^2 + 4bc)) / 2.
  Rng rng(GetParam() + 60);
  const double a = rng.NextDouble();
  const double b = rng.NextDouble() + 0.1;
  const double c = rng.NextDouble() + 0.1;
  const double d = rng.NextDouble();
  const DenseOperator op(DenseMatrix{{a, b}, {c, d}});
  const double expected =
      0.5 * ((a + d) + std::sqrt((a - d) * (a - d) + 4.0 * b * c));
  EXPECT_NEAR(PowerIteration(op, 3000, 1e-13).spectral_radius, expected,
              1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PowerIterationNonSymmetricTest,
                         ::testing::Range(0, 8));

TEST(JacobiSolveTest, SolvesAgainstDirectSolve) {
  // y = (I - M)^-1 x with rho(M) < 1.
  const DenseMatrix m = RandomSymmetricMatrix(5, 0.12, /*seed=*/3);
  const DenseOperator op(m);
  std::vector<double> x = {1.0, -2.0, 0.5, 0.0, 3.0};
  const JacobiResult jacobi = JacobiSolve(op, x, 500, 1e-14);
  EXPECT_TRUE(jacobi.converged);
  const auto lu =
      LuFactorization::Compute(DenseMatrix::Identity(5).Sub(m));
  ASSERT_TRUE(lu.has_value());
  ExpectVectorNear(jacobi.solution, lu->Solve(x), 1e-10);
}

TEST(JacobiSolveTest, IdentityMinusZeroOperator) {
  const DenseOperator op(DenseMatrix(3, 3));
  const JacobiResult jacobi = JacobiSolve(op, {1.0, 2.0, 3.0});
  EXPECT_TRUE(jacobi.converged);
  // One sweep reaches the fixed point; the second detects it.
  EXPECT_LE(jacobi.iterations, 2);
  ExpectVectorNear(jacobi.solution, {1.0, 2.0, 3.0}, 0.0);
}

TEST(JacobiSolveTest, DoesNotConvergeBeyondSpectralRadiusOne) {
  // M = 2 I has rho = 2; the fixed point iteration must not converge.
  const DenseOperator op(DenseMatrix::Identity(3).Scale(2.0));
  const JacobiResult jacobi = JacobiSolve(op, {1.0, 1.0, 1.0}, 60, 1e-12);
  EXPECT_FALSE(jacobi.converged);
  EXPECT_GT(jacobi.last_delta, 1.0);
  // Given long enough the iterate overflows, and the inf - inf delta
  // after it must stop the solve unconverged, not read as no change.
  const JacobiResult overflowed =
      JacobiSolve(op, {1.0, 1.0, 1.0}, 2000, 1e-12);
  EXPECT_FALSE(overflowed.converged);
  EXPECT_LT(overflowed.iterations, 2000);
  EXPECT_FALSE(std::isfinite(overflowed.last_delta));
}

TEST(JacobiSolveTest, GeometricSeriesHandValue) {
  // Scalar case: y = x / (1 - m) for |m| < 1.
  const DenseOperator op(DenseMatrix{{0.5}});
  const JacobiResult jacobi = JacobiSolve(op, {1.0}, 500, 1e-14);
  EXPECT_TRUE(jacobi.converged);
  EXPECT_NEAR(jacobi.solution[0], 2.0, 1e-12);
}

}  // namespace
}  // namespace linbp
