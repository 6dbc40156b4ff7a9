#include "src/la/sparse_matrix.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "gtest/gtest.h"
#include "src/util/random.h"
#include "tests/testing/test_util.h"

namespace linbp {
namespace {

using testing::ExpectMatrixNear;
using testing::ExpectSparseNear;
using testing::ExpectVectorNear;
using testing::RandomMatrix;

SparseMatrix RandomSparse(std::int64_t rows, std::int64_t cols,
                          std::int64_t entries, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Triplet> triplets;
  for (std::int64_t i = 0; i < entries; ++i) {
    triplets.push_back({rng.NextInt(0, rows - 1), rng.NextInt(0, cols - 1),
                        2.0 * rng.NextDouble() - 1.0});
  }
  return SparseMatrix::FromTriplets(rows, cols, std::move(triplets));
}

TEST(SparseMatrixTest, EmptyMatrix) {
  SparseMatrix m(3, 4);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 4);
  EXPECT_EQ(m.NumNonZeros(), 0);
  EXPECT_EQ(m.At(1, 2), 0.0);
}

TEST(SparseMatrixTest, FromTripletsBasic) {
  const SparseMatrix m =
      SparseMatrix::FromTriplets(2, 3, {{0, 1, 2.0}, {1, 0, -1.0}});
  EXPECT_EQ(m.NumNonZeros(), 2);
  EXPECT_EQ(m.At(0, 1), 2.0);
  EXPECT_EQ(m.At(1, 0), -1.0);
  EXPECT_EQ(m.At(0, 0), 0.0);
}

TEST(SparseMatrixTest, DuplicateTripletsAreSummed) {
  const SparseMatrix m = SparseMatrix::FromTriplets(
      2, 2, {{0, 0, 1.0}, {0, 0, 2.5}, {1, 1, -1.0}, {0, 0, 0.5}});
  EXPECT_EQ(m.NumNonZeros(), 2);
  EXPECT_EQ(m.At(0, 0), 4.0);
  EXPECT_EQ(m.At(1, 1), -1.0);
}

TEST(SparseMatrixTest, RowsAreSortedByColumn) {
  const SparseMatrix m = SparseMatrix::FromTriplets(
      1, 5, {{0, 4, 1.0}, {0, 0, 2.0}, {0, 2, 3.0}});
  ASSERT_EQ(m.NumNonZeros(), 3);
  EXPECT_EQ(m.col_idx()[0], 0);
  EXPECT_EQ(m.col_idx()[1], 2);
  EXPECT_EQ(m.col_idx()[2], 4);
}

TEST(SparseMatrixTest, ToDenseHandValue) {
  const SparseMatrix m =
      SparseMatrix::FromTriplets(2, 2, {{0, 1, 3.0}, {1, 0, 4.0}});
  ExpectMatrixNear(m.ToDense(), DenseMatrix{{0, 3}, {4, 0}}, 0.0);
}

TEST(SparseMatrixTest, MultiplyVectorMatchesDense) {
  const SparseMatrix m = RandomSparse(6, 4, 12, /*seed=*/1);
  Rng rng(2);
  std::vector<double> x(4);
  for (auto& v : x) v = rng.NextDouble();
  ExpectVectorNear(m.MultiplyVector(x), m.ToDense().MultiplyVector(x), 1e-13);
}

TEST(SparseMatrixTest, TransposeMultiplyVectorMatchesDense) {
  const SparseMatrix m = RandomSparse(6, 4, 12, /*seed=*/3);
  Rng rng(4);
  std::vector<double> x(6);
  for (auto& v : x) v = rng.NextDouble();
  ExpectVectorNear(m.TransposeMultiplyVector(x),
                   m.ToDense().Transpose().MultiplyVector(x), 1e-13);
}

TEST(SparseMatrixTest, MultiplyDenseMatchesDense) {
  const SparseMatrix m = RandomSparse(5, 5, 10, /*seed=*/5);
  const DenseMatrix b = RandomMatrix(5, 3, 1.0, 6);
  ExpectMatrixNear(m.MultiplyDense(b), m.ToDense().Multiply(b), 1e-13);
}

TEST(SparseMatrixTest, TransposeMatchesDense) {
  const SparseMatrix m = RandomSparse(4, 7, 15, /*seed=*/7);
  ExpectMatrixNear(m.Transpose().ToDense(), m.ToDense().Transpose(), 0.0);
}

TEST(SparseMatrixTest, AbsRowAndColSums) {
  const SparseMatrix m = SparseMatrix::FromTriplets(
      2, 2, {{0, 0, -2.0}, {0, 1, 3.0}, {1, 1, -4.0}});
  ExpectVectorNear(m.AbsRowSums(), {5.0, 4.0}, 0.0);
  ExpectVectorNear(m.AbsColSums(), {2.0, 7.0}, 0.0);
}

TEST(SparseMatrixTest, SquaredRowSums) {
  const SparseMatrix m = SparseMatrix::FromTriplets(
      2, 2, {{0, 0, -2.0}, {0, 1, 3.0}, {1, 1, 0.5}});
  ExpectVectorNear(m.SquaredRowSums(), {13.0, 0.25}, 1e-15);
}

TEST(SparseMatrixTest, IsSymmetric) {
  EXPECT_TRUE(SparseMatrix::FromTriplets(2, 2, {{0, 1, 2.0}, {1, 0, 2.0}})
                  .IsSymmetric());
  EXPECT_FALSE(SparseMatrix::FromTriplets(2, 2, {{0, 1, 2.0}, {1, 0, 3.0}})
                   .IsSymmetric());
  EXPECT_FALSE(
      SparseMatrix::FromTriplets(2, 2, {{0, 1, 2.0}}).IsSymmetric());
  EXPECT_FALSE(RandomSparse(2, 3, 2, 8).IsSymmetric());  // non-square
}

class SparseRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(SparseRandomTest, DenseRoundTripsThroughKernels) {
  const std::uint64_t seed = GetParam();
  const SparseMatrix m = RandomSparse(8, 8, 20, seed);
  const DenseMatrix dense = m.ToDense();
  // Transpose twice is the identity transformation.
  ExpectSparseNear(m.Transpose().Transpose(), m, 0.0);
  // SpMM against the identity reproduces the matrix.
  ExpectMatrixNear(m.MultiplyDense(DenseMatrix::Identity(8)), dense, 0.0);
}

TEST_P(SparseRandomTest, AtMatchesDense) {
  const SparseMatrix m = RandomSparse(6, 6, 14, GetParam() + 40);
  const DenseMatrix dense = m.ToDense();
  for (std::int64_t r = 0; r < 6; ++r) {
    for (std::int64_t c = 0; c < 6; ++c) {
      EXPECT_EQ(m.At(r, c), dense.At(r, c));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SparseRandomTest, ::testing::Range(0, 8));

// ---- Unit weights ----------------------------------------------------------

// A 5 x 5 pattern with all weights 1: rows 0-3 and an empty row 4.
std::vector<Triplet> UnitTriplets() {
  return {{0, 1, 1.0}, {0, 3, 1.0}, {1, 0, 1.0}, {1, 2, 1.0},
          {2, 1, 1.0}, {3, 0, 1.0}, {3, 3, 1.0}};
}

TEST(SparseMatrixUnitWeightsTest, AllOnesKeepNoValueArray) {
  const SparseMatrix m = SparseMatrix::FromTriplets(5, 5, UnitTriplets());
  EXPECT_TRUE(m.unit_weights());
  EXPECT_TRUE(m.values().empty());
  EXPECT_EQ(m.values_or_null(), nullptr);
  EXPECT_EQ(m.values_f32(), nullptr);
  EXPECT_EQ(m.NumNonZeros(), 7);
  for (std::int64_t e = 0; e < m.NumNonZeros(); ++e) {
    EXPECT_EQ(m.weight(e), 1.0);
  }
  // An empty matrix is vacuously unit.
  EXPECT_TRUE(SparseMatrix(3, 3).unit_weights());

  // Every constructor picks the same form from the same entries: an
  // empty value array is unit, and an explicit array of 1.0s is dropped.
  const SparseMatrix from_csr =
      SparseMatrix::FromCsr(5, 5, m.row_ptr(), m.col_idx(), {});
  const SparseMatrix from_ones = SparseMatrix::FromCsr(
      5, 5, m.row_ptr(), m.col_idx(), std::vector<double>(7, 1.0));
  const SparseMatrix validated = SparseMatrix::FromValidatedCsr(
      5, 5, m.row_ptr(), m.col_idx(), std::vector<double>(7, 1.0));
  for (const SparseMatrix* other : {&from_csr, &from_ones, &validated}) {
    EXPECT_TRUE(other->unit_weights());
    EXPECT_EQ(other->row_ptr(), m.row_ptr());
    EXPECT_EQ(other->col_idx(), m.col_idx());
  }
}

TEST(SparseMatrixUnitWeightsTest, OneOtherWeightBringsInTheArray) {
  // A weight other than 1 anywhere (here summed from two duplicate 1s)
  // makes the matrix weighted, with the 1s before it filled in.
  std::vector<Triplet> triplets = UnitTriplets();
  triplets.push_back({2, 1, 1.0});
  const SparseMatrix m = SparseMatrix::FromTriplets(5, 5, triplets);
  EXPECT_FALSE(m.unit_weights());
  EXPECT_EQ(m.values(),
            (std::vector<double>{1.0, 1.0, 1.0, 1.0, 2.0, 1.0, 1.0}));
  // First entry other than 1.
  const SparseMatrix first =
      SparseMatrix::FromTriplets(2, 2, {{0, 0, 0.5}, {1, 1, 1.0}});
  EXPECT_EQ(first.values(), (std::vector<double>{0.5, 1.0}));
  // -0.0 and 0.0 are weights too.
  EXPECT_FALSE(SparseMatrix::FromTriplets(1, 1, {{0, 0, 0.0}}).unit_weights());
}

TEST(SparseMatrixUnitWeightsTest, OperationsMatchTheDenseForm) {
  const SparseMatrix m = SparseMatrix::FromTriplets(5, 5, UnitTriplets());
  const DenseMatrix dense = m.ToDense();
  EXPECT_EQ(dense.At(0, 1), 1.0);
  EXPECT_EQ(dense.At(3, 3), 1.0);
  EXPECT_EQ(dense.At(4, 4), 0.0);
  for (std::int64_t r = 0; r < 5; ++r) {
    for (std::int64_t c = 0; c < 5; ++c) {
      EXPECT_EQ(m.At(r, c), dense.At(r, c));
    }
  }
  const SparseMatrix t = m.Transpose();
  EXPECT_TRUE(t.unit_weights());
  ExpectMatrixNear(t.ToDense(), dense.Transpose(), 0.0);
  EXPECT_EQ(m.AbsRowSums(), (std::vector<double>{2, 2, 1, 2, 0}));
  EXPECT_EQ(m.SquaredRowSums(), m.AbsRowSums());
  EXPECT_EQ(m.AbsColSums(), (std::vector<double>{2, 2, 1, 2, 0}));
  EXPECT_TRUE(m.IsSymmetric());
  std::vector<Triplet> lopsided = UnitTriplets();
  lopsided.push_back({4, 2, 1.0});
  EXPECT_FALSE(SparseMatrix::FromTriplets(5, 5, lopsided).IsSymmetric());

  const DenseMatrix b = RandomMatrix(5, 3, 1.0, /*seed=*/4);
  ExpectMatrixNear(m.MultiplyDense(b), dense.Multiply(b), 0.0);
  const std::vector<double> x = {0.5, -1.0, 2.0, 0.25, 3.0};
  ExpectVectorNear(m.MultiplyVector(x), dense.MultiplyVector(x), 0.0);
  ExpectVectorNear(m.TransposeMultiplyVector(x),
                   dense.Transpose().MultiplyVector(x), 0.0);
  const std::vector<float> y =
      m.MultiplyVectorF32({0.5f, -1.0f, 2.0f, 0.25f, 3.0f},
                          exec::ExecContext::Serial());
  EXPECT_EQ(y, (std::vector<float>{-0.75f, 2.5f, -1.0f, 0.75f, 0.0f}));
}

TEST(SparseMatrixFromCsrTest, AdoptsArraysExactly) {
  const SparseMatrix original = RandomSparse(40, 30, 120, /*seed=*/11);
  const SparseMatrix adopted = SparseMatrix::FromCsr(
      40, 30, original.row_ptr(), original.col_idx(), original.values());
  EXPECT_EQ(adopted.row_ptr(), original.row_ptr());
  EXPECT_EQ(adopted.col_idx(), original.col_idx());
  EXPECT_EQ(adopted.values(), original.values());
}

TEST(SparseMatrixFromCsrTest, ParallelValidationMatchesSerial) {
  const SparseMatrix original = RandomSparse(200, 200, 4000, /*seed=*/12);
  const SparseMatrix adopted = SparseMatrix::FromCsr(
      200, 200, original.row_ptr(), original.col_idx(), original.values(),
      exec::ExecContext::WithThreads(4));
  EXPECT_EQ(adopted.col_idx(), original.col_idx());
  EXPECT_EQ(adopted.values(), original.values());
}

// The block-apply entry points (the out-of-core kernels) must reproduce
// the member kernels exactly when applied one row block at a time with
// rebased local row pointers.
TEST(BlockApplyKernelsTest, SpmmRowsMatchesMultiplyDenseBlockwise) {
  const SparseMatrix m = RandomSparse(120, 120, 1500, /*seed=*/21);
  const DenseMatrix b = linbp::testing::RandomMatrix(120, 5, 1.0, 22);
  const DenseMatrix expected = m.MultiplyDense(b);

  DenseMatrix out(120, 5);
  const std::vector<std::int64_t> cuts = {0, 13, 40, 41, 90, 120};
  for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
    const std::int64_t row_begin = cuts[i];
    const std::int64_t row_end = cuts[i + 1];
    const std::int64_t rows = row_end - row_begin;
    const std::int64_t nnz_begin = m.row_ptr()[row_begin];
    // Rebased local CSR slice, exactly what a shard block holds.
    std::vector<std::int64_t> local_row_ptr(rows + 1);
    for (std::int64_t r = 0; r <= rows; ++r) {
      local_row_ptr[r] = m.row_ptr()[row_begin + r] - nnz_begin;
    }
    SpmmRows(local_row_ptr.data(), m.col_idx().data() + nnz_begin,
             m.values().data() + nnz_begin, 0, rows, b.data().data(), 5,
             out.mutable_data().data() + row_begin * 5);
  }
  EXPECT_EQ(out.MaxAbsDiff(expected), 0.0);
}

TEST(BlockApplyKernelsTest, SpmvRowsMatchesMultiplyVectorBlockwise) {
  const SparseMatrix m = RandomSparse(90, 90, 900, /*seed=*/23);
  std::vector<double> x(90);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = 0.05 * i - 2.0;
  const std::vector<double> expected = m.MultiplyVector(x);

  std::vector<double> y(90, 0.0);
  for (const std::int64_t row_begin : {0, 30, 60}) {
    const std::int64_t rows = 30;
    const std::int64_t nnz_begin = m.row_ptr()[row_begin];
    std::vector<std::int64_t> local_row_ptr(rows + 1);
    for (std::int64_t r = 0; r <= rows; ++r) {
      local_row_ptr[r] = m.row_ptr()[row_begin + r] - nnz_begin;
    }
    SpmvRows(local_row_ptr.data(), m.col_idx().data() + nnz_begin,
             m.values().data() + nnz_begin, 0, rows, x.data(),
             y.data() + row_begin);
  }
  EXPECT_EQ(y, expected);
}

// A symmetric random CSR whose rows [140, 215) and every row s with
// s % 7 == 3 are empty (isolated nodes), so whole row tiles and single
// rows of LinBpRowsT see a zero SpMM row.
SparseMatrix CsrWithEmptyRows(std::int64_t n, std::uint64_t seed) {
  Rng rng(seed);
  auto isolated = [](std::int64_t s) {
    return s % 7 == 3 || (s >= 140 && s < 215);
  };
  std::vector<Triplet> triplets;
  for (std::int64_t i = 0; i < 6 * n; ++i) {
    const std::int64_t u = rng.NextInt(0, n - 1);
    const std::int64_t v = rng.NextInt(0, n - 1);
    if (u == v || isolated(u) || isolated(v)) continue;
    const double w = 2.0 * rng.NextDouble() - 1.0;
    triplets.push_back({u, v, w});
    triplets.push_back({v, u, w});
  }
  return SparseMatrix::FromTriplets(n, n, std::move(triplets));
}

// A range's statistics folded as LinBpRowsT folds them: rows in order,
// and a row's columns in order.
template <typename Scalar>
LinBpRowStats RowOrderStats(const std::vector<Scalar>& out,
                            const std::vector<Scalar>& beliefs,
                            std::int64_t row_begin, std::int64_t row_end,
                            std::int64_t k) {
  LinBpRowStats stats;
  for (std::int64_t i = row_begin * k; i < row_end * k; ++i) {
    const double change =
        static_cast<double>(out[i]) - static_cast<double>(beliefs[i]);
    stats.delta = std::max(stats.delta, std::abs(change));
    stats.delta_sq += change * change;
    stats.magnitude =
        std::max(stats.magnitude, std::abs(static_cast<double>(out[i])));
  }
  return stats;
}

template <typename Scalar>
bool SameBytes(const std::vector<Scalar>& a, const std::vector<Scalar>& b,
               std::int64_t first, std::int64_t count) {
  return std::memcmp(a.data() + first, b.data() + first,
                     count * sizeof(Scalar)) == 0;
}

// LinBpRowsT over [0, n) in one call against the same rows split at and
// around the 64-row tile edges (an empty range included), and against a
// rebased sub-CSR addressed through row_offset, as the stream backend
// calls it.
template <typename Scalar>
void ExpectSplitRowsMatchOneCall(const SparseMatrix& m, std::int64_t k,
                                 bool echo, bool apply) {
  SCOPED_TRACE(::testing::Message()
               << (sizeof(Scalar) == 4 ? "f32" : "f64") << " k=" << k
               << (echo ? " echo" : " no echo")
               << (apply ? " apply" : " propagate"));
  const std::int64_t n = m.rows();
  Rng rng(100 + k);
  std::vector<Scalar> values(m.values().begin(), m.values().end());
  std::vector<Scalar> beliefs(n * k);
  std::vector<Scalar> residuals(n * k);
  for (std::int64_t i = 0; i < n * k; ++i) {
    // Every fifth belief is zero: the echo product skips it.
    beliefs[i] = i % 5 == 0 ? Scalar(0)
                            : static_cast<Scalar>(2.0 * rng.NextDouble() - 1);
    residuals[i] = static_cast<Scalar>(rng.NextDouble() - 0.5);
  }
  std::vector<double> hhat(k * k);
  std::vector<double> hhat2(k * k);
  for (double& h : hhat) h = 0.4 * rng.NextDouble() - 0.2;
  for (double& h : hhat2) h = 0.1 * rng.NextDouble();
  const std::vector<double> degrees = m.SquaredRowSums();

  LinBpRowsArgs<Scalar> args;
  args.row_ptr = m.row_ptr().data();
  args.col_idx = m.col_idx().data();
  args.values = values.data();
  args.k = k;
  args.beliefs = beliefs.data();
  args.hhat = hhat.data();
  args.hhat2 = echo ? hhat2.data() : nullptr;
  args.degrees = degrees.data();
  args.explicit_residuals = apply ? residuals.data() : nullptr;
  auto expect_stats = [&](const LinBpRowStats& got,
                          const std::vector<Scalar>& out,
                          std::int64_t row_begin, std::int64_t row_end) {
    const LinBpRowStats want =
        apply ? RowOrderStats(out, beliefs, row_begin, row_end, k)
              : LinBpRowStats();
    EXPECT_EQ(got.delta, want.delta) << row_begin << ".." << row_end;
    EXPECT_EQ(got.delta_sq, want.delta_sq) << row_begin << ".." << row_end;
    EXPECT_EQ(got.magnitude, want.magnitude) << row_begin << ".." << row_end;
  };

  const Scalar sentinel = static_cast<Scalar>(-7.25);
  std::vector<Scalar> whole(n * k, sentinel);
  args.row_begin = 0;
  args.row_end = n;
  args.out = whole.data();
  const LinBpRowStats whole_stats = LinBpRowsT<Scalar>(args);
  expect_stats(whole_stats, whole, 0, n);

  // Cuts at and around the tile edges (64..64 is an empty range), then
  // random ones.
  std::vector<std::int64_t> cuts = {0, 1, 63, 64, 64, 65, 127, 128, 129};
  for (int i = 0; i < 6; ++i) cuts.push_back(rng.NextInt(130, n - 1));
  std::sort(cuts.begin() + 9, cuts.end());
  cuts.push_back(n);
  std::vector<Scalar> split(n * k, sentinel);
  args.out = split.data();
  LinBpRowStats folded;
  for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
    args.row_begin = cuts[i];
    args.row_end = cuts[i + 1];
    const LinBpRowStats part = LinBpRowsT<Scalar>(args);
    expect_stats(part, split, cuts[i], cuts[i + 1]);
    folded.delta = std::max(folded.delta, part.delta);
    folded.magnitude = std::max(folded.magnitude, part.magnitude);
  }
  EXPECT_TRUE(SameBytes(split, whole, 0, n * k));
  EXPECT_EQ(folded.delta, whole_stats.delta);
  EXPECT_EQ(folded.magnitude, whole_stats.magnitude);

  // Rows [first, first + rows) as a rebased block: local row_ptr from 0,
  // column ids global, local row r is global row first + r.
  const std::int64_t first = 61;
  const std::int64_t rows = 200;
  const std::int64_t nnz_begin = m.row_ptr()[first];
  std::vector<std::int64_t> local_row_ptr(rows + 1);
  for (std::int64_t r = 0; r <= rows; ++r) {
    local_row_ptr[r] = m.row_ptr()[first + r] - nnz_begin;
  }
  std::vector<Scalar> rebased(n * k, sentinel);
  args.row_ptr = local_row_ptr.data();
  args.col_idx = m.col_idx().data() + nnz_begin;
  args.values = values.data() + nnz_begin;
  args.row_offset = first;
  args.out = rebased.data();
  const std::vector<std::int64_t> local_cuts = {0, 3, 3, 67, 68, 131, rows};
  for (std::size_t i = 0; i + 1 < local_cuts.size(); ++i) {
    args.row_begin = local_cuts[i];
    args.row_end = local_cuts[i + 1];
    expect_stats(LinBpRowsT<Scalar>(args), rebased, first + local_cuts[i],
                 first + local_cuts[i + 1]);
  }
  EXPECT_TRUE(SameBytes(rebased, whole, first * k, rows * k));
}

TEST(BlockApplyKernelsTest, LinBpRowsMatchesOneCallAcrossTileEdges) {
  const SparseMatrix m = CsrWithEmptyRows(300, /*seed=*/31);
  for (const std::int64_t k : {1, 3, 4, 8, 9}) {
    for (const bool echo : {false, true}) {
      for (const bool apply : {false, true}) {
        ExpectSplitRowsMatchOneCall<double>(m, k, echo, apply);
        ExpectSplitRowsMatchOneCall<float>(m, k, echo, apply);
      }
    }
  }
}

TEST(SparseMatrixFromCsrDeathTest, RejectsBrokenInvariants) {
  const SparseMatrix m = RandomSparse(10, 10, 30, /*seed=*/13);
  // row_ptr of the wrong length.
  EXPECT_DEATH(SparseMatrix::FromCsr(9, 10, m.row_ptr(), m.col_idx(),
                                     m.values()),
               "row_ptr");
  // Unsorted columns within a row.
  std::vector<std::int64_t> row_ptr = {0, 2};
  std::vector<std::int32_t> col_idx = {3, 1};
  std::vector<double> values = {1.0, 2.0};
  EXPECT_DEATH(
      SparseMatrix::FromCsr(1, 10, row_ptr, col_idx, values),
      "strictly");
  // Column index out of range.
  col_idx = {1, 30};
  EXPECT_DEATH(SparseMatrix::FromCsr(1, 10, row_ptr, col_idx, values),
               "col_idx");
}

}  // namespace
}  // namespace linbp
