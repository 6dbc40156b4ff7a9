// Shared helpers for the test suite.

#ifndef LINBP_TESTS_TESTING_TEST_UTIL_H_
#define LINBP_TESTS_TESTING_TEST_UTIL_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/graph/graph.h"
#include "src/la/dense_linalg.h"
#include "src/la/dense_matrix.h"
#include "src/la/kron_ops.h"
#include "src/la/sparse_matrix.h"
#include "src/util/random.h"

namespace linbp {
namespace testing {

/// EXPECTs every entry of two matrices to agree within `tol`.
inline void ExpectMatrixNear(const DenseMatrix& actual,
                             const DenseMatrix& expected, double tol) {
  ASSERT_EQ(actual.rows(), expected.rows());
  ASSERT_EQ(actual.cols(), expected.cols());
  for (std::int64_t r = 0; r < actual.rows(); ++r) {
    for (std::int64_t c = 0; c < actual.cols(); ++c) {
      EXPECT_NEAR(actual.At(r, c), expected.At(r, c), tol)
          << "at (" << r << ", " << c << ")\nactual:\n"
          << actual.ToString() << "\nexpected:\n"
          << expected.ToString();
    }
  }
}

/// EXPECTs two sparse matrices to agree within `tol`: same shape, and every
/// entry of either pattern matches (entries stored on one side only must be
/// within `tol` of zero). Densifying keeps the comparison independent of
/// the CSR pattern, which differs across construction orders.
inline void ExpectSparseNear(const SparseMatrix& actual,
                             const SparseMatrix& expected, double tol) {
  ASSERT_EQ(actual.rows(), expected.rows());
  ASSERT_EQ(actual.cols(), expected.cols());
  const DenseMatrix a = actual.ToDense();
  const DenseMatrix e = expected.ToDense();
  for (std::int64_t r = 0; r < a.rows(); ++r) {
    for (std::int64_t c = 0; c < a.cols(); ++c) {
      EXPECT_NEAR(a.At(r, c), e.At(r, c), tol)
          << "at (" << r << ", " << c << "); actual nnz "
          << actual.NumNonZeros() << ", expected nnz "
          << expected.NumNonZeros();
    }
  }
}

/// EXPECTs two vectors to agree within `tol`.
inline void ExpectVectorNear(const std::vector<double>& actual,
                             const std::vector<double>& expected, double tol) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_NEAR(actual[i], expected[i], tol) << "at index " << i;
  }
}

/// Reads a whole file as raw bytes (EXPECT-fails on a missing file).
inline std::vector<char> ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  EXPECT_TRUE(static_cast<bool>(in)) << path;
  const std::streamoff size = in.tellg();
  in.seekg(0);
  std::vector<char> bytes(static_cast<std::size_t>(size));
  in.read(bytes.data(), size);
  return bytes;
}

/// Overwrites a file with raw bytes (the corruption-test primitive).
inline void WriteBytes(const std::string& path,
                       const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Random dense matrix with entries uniform in [-scale, scale].
inline DenseMatrix RandomMatrix(std::int64_t rows, std::int64_t cols,
                                double scale, std::uint64_t seed) {
  Rng rng(seed);
  DenseMatrix m(rows, cols);
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t c = 0; c < cols; ++c) {
      m.At(r, c) = scale * (2.0 * rng.NextDouble() - 1.0);
    }
  }
  return m;
}

/// Random symmetric matrix with entries uniform in [-scale, scale].
inline DenseMatrix RandomSymmetricMatrix(std::int64_t dim, double scale,
                                         std::uint64_t seed) {
  Rng rng(seed);
  DenseMatrix m(dim, dim);
  for (std::int64_t r = 0; r < dim; ++r) {
    for (std::int64_t c = r; c < dim; ++c) {
      const double v = scale * (2.0 * rng.NextDouble() - 1.0);
      m.At(r, c) = v;
      m.At(c, r) = v;
    }
  }
  return m;
}

/// Random symmetric residual coupling matrix: rows and columns sum to 0,
/// entries on the order of `scale`.
inline DenseMatrix RandomResidualCoupling(std::int64_t k, double scale,
                                          std::uint64_t seed) {
  // Project a random symmetric matrix onto the doubly-centered subspace:
  // X - row_mean - col_mean + total_mean keeps symmetry and zeroes all row
  // and column sums.
  const DenseMatrix raw = RandomSymmetricMatrix(k, scale, seed);
  std::vector<double> row_mean(k, 0.0);
  double total = 0.0;
  for (std::int64_t r = 0; r < k; ++r) {
    for (std::int64_t c = 0; c < k; ++c) row_mean[r] += raw.At(r, c);
    total += row_mean[r];
    row_mean[r] /= static_cast<double>(k);
  }
  total /= static_cast<double>(k * k);
  DenseMatrix out(k, k);
  for (std::int64_t r = 0; r < k; ++r) {
    for (std::int64_t c = 0; c < k; ++c) {
      out.At(r, c) = raw.At(r, c) - row_mean[r] - row_mean[c] + total;
    }
  }
  return out;
}

/// EXPECTs two matrices to have the same storage form (unit weights or a
/// value array) and, compared with memcmp, the same weight at every
/// stored entry.
inline void ExpectSameWeights(const SparseMatrix& actual,
                              const SparseMatrix& expected) {
  EXPECT_EQ(actual.unit_weights(), expected.unit_weights());
  ASSERT_EQ(actual.NumNonZeros(), expected.NumNonZeros());
  for (std::int64_t e = 0; e < actual.NumNonZeros(); ++e) {
    const double a = actual.weight(e);
    const double b = expected.weight(e);
    ASSERT_EQ(std::memcmp(&a, &b, sizeof(double)), 0)
        << "entry " << e << ": " << a << " vs " << b;
  }
}

/// `graph` with every edge (u, v), u < v, reweighted to
/// 0.5 + ((u + 2v) mod 7) / 8, a weight in [0.5, 1.25] derived from its
/// endpoints. Generated graphs are unit-weight; this gives the tests a
/// weighted one of the same shape for the paths only weights reach.
inline Graph WithEndpointWeights(const Graph& graph) {
  std::vector<Edge> edges = graph.edges();
  for (Edge& e : edges) {
    e.weight = 0.5 + static_cast<double>((e.u + 2 * e.v) % 7) / 8.0;
  }
  return Graph(graph.num_nodes(), edges);
}

/// EXPECTs two graphs to hold the same CSR arrays and weighted degrees.
/// Values and degrees are compared with memcmp, so -0.0 and 0.0 differ,
/// and so do a unit-form graph and one holding an array of 1.0s.
inline void ExpectSameGraph(const Graph& actual, const Graph& expected) {
  const auto same_bits = [](const std::vector<double>& x,
                            const std::vector<double>& y) {
    return x.size() == y.size() &&
           (x.empty() ||
            std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0);
  };
  EXPECT_EQ(actual.num_nodes(), expected.num_nodes());
  EXPECT_EQ(actual.adjacency().row_ptr(), expected.adjacency().row_ptr());
  EXPECT_EQ(actual.adjacency().col_idx(), expected.adjacency().col_idx());
  EXPECT_EQ(actual.adjacency().unit_weights(),
            expected.adjacency().unit_weights());
  EXPECT_TRUE(same_bits(actual.adjacency().values(),
                        expected.adjacency().values()));
  EXPECT_TRUE(
      same_bits(actual.weighted_degrees(), expected.weighted_degrees()));
}

/// The smallest and largest eigenvalue of the swept LinBP operator M:
/// B -> A*B*Hhat - D*B*Hhat^2, or A*B*Hhat without the echo term
/// (LinBP*). M is symmetric, so both are real. It is materialized column
/// by column from its action on the unit n x k matrices: small graphs
/// only. Lemma 8's Jacobi test is max(|lo|, |hi|) < 1; the segmented
/// sweep schedule converges iff hi < 1 (given I + D_S positive definite,
/// see SweepSchedule).
struct EigenRange {
  double lo = 0.0;
  double hi = 0.0;
};
inline EigenRange SweptOperatorEigenRange(const Graph& graph,
                                          const DenseMatrix& hhat,
                                          bool with_echo) {
  const std::int64_t n = graph.num_nodes();
  const std::int64_t k = hhat.rows();
  const DenseMatrix hhat2 = hhat.Multiply(hhat);
  DenseMatrix m(n * k, n * k);
  for (std::int64_t col = 0; col < n * k; ++col) {
    DenseMatrix unit(n, k);
    unit.mutable_data()[col] = 1.0;
    const DenseMatrix image =
        LinBpPropagate(graph.adjacency(), graph.weighted_degrees(), hhat,
                       hhat2, unit, with_echo);
    for (std::int64_t row = 0; row < n * k; ++row) {
      m.At(row, col) = image.data()[row];
    }
  }
  const std::vector<double> eigenvalues = SymmetricEigenvalues(m);
  EigenRange range;
  range.lo = *std::min_element(eigenvalues.begin(), eigenvalues.end());
  range.hi = *std::max_element(eigenvalues.begin(), eigenvalues.end());
  return range;
}

/// Samples `count` distinct unit-weight edges absent from `existing`
/// (in either orientation) between distinct nodes in [0, n). O(count *
/// |existing|) per draw; fine for the small graphs the tests use.
inline std::vector<Edge> RandomFreshEdges(std::vector<Edge> existing,
                                          std::int64_t n, Rng& rng,
                                          std::int64_t count) {
  std::vector<Edge> fresh;
  auto present = [&](std::int64_t u, std::int64_t v) {
    for (const Edge& e : existing) {
      if ((e.u == u && e.v == v) || (e.u == v && e.v == u)) return true;
    }
    return false;
  };
  while (static_cast<std::int64_t>(fresh.size()) < count) {
    const std::int64_t u = rng.NextInt(0, n - 1);
    const std::int64_t v = rng.NextInt(0, n - 1);
    if (u == v || present(u, v)) continue;
    existing.push_back({u, v, 1.0});
    fresh.push_back({u, v, 1.0});
  }
  return fresh;
}

}  // namespace testing
}  // namespace linbp

#endif  // LINBP_TESTS_TESTING_TEST_UTIL_H_
