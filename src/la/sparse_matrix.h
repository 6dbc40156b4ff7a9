// Compressed-sparse-row (CSR) matrices.
//
// The adjacency matrix A of the network is the only large matrix in the
// paper; every algorithm reduces to products of A with skinny dense n x k
// matrices (SpMM) or vectors (SpMV). The CSR layout here is immutable once
// built, which keeps the hot kernels simple and cache-friendly.
//
// A matrix has one of two storage forms, and the data decides which: a
// matrix whose stored weights are all exactly 1.0 (every generated graph,
// and the paper's unweighted ones) keeps its pattern only, with no value
// array; any other matrix keeps one double per stored entry. The row
// kernels below take a null value pointer as that unit form.
//
// The three product kernels accept an exec::ExecContext and run on its
// thread pool over nnz-balanced row blocks (exec::RowPartition). SpMV and
// SpMM assign whole output rows to exactly one block, so their parallel
// results are bit-identical to the serial kernel for every thread count.
// TransposeMultiplyVector scatters into shared output columns and instead
// reduces per-block partial vectors in block order: deterministic for a
// fixed context, equal to serial only up to floating-point rounding. The
// context-free overloads use exec::ExecContext::Default() (LINBP_THREADS).

#ifndef LINBP_LA_SPARSE_MATRIX_H_
#define LINBP_LA_SPARSE_MATRIX_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/exec/exec_context.h"
#include "src/la/dense_matrix.h"
#include "src/la/dense_matrix_f32.h"

namespace linbp {

/// One (row, col, value) coordinate entry used to build a SparseMatrix.
struct Triplet {
  std::int64_t row = 0;
  std::int64_t col = 0;
  double value = 0.0;
};

/// Block-apply SpMM entry point: the serial row-range kernel behind
/// SparseMatrix::MultiplyDense, exposed so out-of-core backends can apply
/// one row block of a CSR matrix without materializing the whole matrix.
/// Computes, for every r in [row_begin, row_end),
///   out[r*k + c] = sum over e in [row_ptr[r], row_ptr[r+1]) of
///                  values[e] * b[col_idx[e]*k + c],
/// with the same k-tiled accumulation order as MultiplyDense, so applying
/// a matrix block by block is bit-identical to the monolithic product.
/// `row_ptr` is indexed by the same row numbering as `out` (callers
/// applying a rebased shard block pass its local row_ptr and an `out`
/// pointer pre-offset to the block's first output row).
///
/// There is exactly one implementation per scalar type: the double-named
/// entry points below and the SparseMatrix::Multiply* methods all land
/// on these templates, so the row-range and whole-matrix paths cannot
/// drift. Its row loop is also the one LinBpRowsT gathers with, and k in
/// [1, 8] runs it with k fixed at compile time (one unrolled k-tile,
/// through the same k switch as LinBpRowsT); any other k runs the same
/// loop with a runtime k. Instantiated for float and double only.
///
/// A null `values` means unit weights (SparseMatrix::unit_weights()):
/// every stored weight is 1. This and the three kernels below pick the
/// form once per call, beside the k switch, as a compile-time flag: the
/// unit instantiation reads no value and multiplies by no weight, and
/// since x * 1 = x its output is bit-identical to the weighted kernel's
/// over an explicit array of ones. (That needs the build's
/// -ffp-contract=off: on FMA targets the compiler would otherwise fuse
/// products per compiled copy, and the two copies could round apart.)
template <typename Scalar>
void SpmmRowsT(const std::int64_t* row_ptr, const std::int32_t* col_idx,
               const Scalar* values, std::int64_t row_begin,
               std::int64_t row_end, const Scalar* b, std::int64_t k,
               Scalar* out);

/// Block-apply SpMV entry point: the serial row-range kernel behind
/// SparseMatrix::MultiplyVector (stored zero entries skipped). Writes
/// y[r] for r in [row_begin, row_end) under the same conventions as
/// SpmmRowsT, a null `values` included.
template <typename Scalar>
void SpmvRowsT(const std::int64_t* row_ptr, const std::int32_t* col_idx,
               const Scalar* values, std::int64_t row_begin,
               std::int64_t row_end, const Scalar* x, Scalar* y);

/// Transpose-SpMV scatter over a row range: for every r in
/// [row_begin, row_end) with x[r] != 0, adds values[e] * x[r] into
/// out[col_idx[e]] (stored zeros skipped; a null `values` is unit, as in
/// SpmmRowsT). Callers own the reduction discipline;
/// SparseMatrix::TransposeMultiplyVector sums per-block partials in block
/// order.
template <typename Scalar>
void SpmtvRowsT(const std::int64_t* row_ptr, const std::int32_t* col_idx,
                const Scalar* values, std::int64_t row_begin,
                std::int64_t row_end, const Scalar* x, Scalar* out);

extern template void SpmmRowsT<double>(const std::int64_t*,
                                       const std::int32_t*, const double*,
                                       std::int64_t, std::int64_t,
                                       const double*, std::int64_t, double*);
extern template void SpmmRowsT<float>(const std::int64_t*,
                                      const std::int32_t*, const float*,
                                      std::int64_t, std::int64_t, const float*,
                                      std::int64_t, float*);
extern template void SpmvRowsT<double>(const std::int64_t*,
                                       const std::int32_t*, const double*,
                                       std::int64_t, std::int64_t,
                                       const double*, double*);
extern template void SpmvRowsT<float>(const std::int64_t*,
                                      const std::int32_t*, const float*,
                                      std::int64_t, std::int64_t, const float*,
                                      float*);
extern template void SpmtvRowsT<double>(const std::int64_t*,
                                        const std::int32_t*, const double*,
                                        std::int64_t, std::int64_t,
                                        const double*, double*);
extern template void SpmtvRowsT<float>(const std::int64_t*,
                                       const std::int32_t*, const float*,
                                       std::int64_t, std::int64_t,
                                       const float*, float*);

/// Change statistics of a fused LinBP row range (LinBpRowsT), all fp64:
/// the max absolute belief change, the sum of squared changes, and the
/// max absolute new belief. Zero when the range only propagates.
struct LinBpRowStats {
  double delta = 0.0;
  double delta_sq = 0.0;
  double magnitude = 0.0;
};

/// Operands of one fused LinBP pass over a CSR row range. The CSR fields
/// follow SpmmRowsT (local row r has entries [row_ptr[r], row_ptr[r+1])
/// and global column ids; a null `values` means unit weights); local row
/// r is global row row_offset + r, which indexes every n x k operand and
/// `degrees`.
template <typename Scalar>
struct LinBpRowsArgs {
  const std::int64_t* row_ptr = nullptr;
  const std::int32_t* col_idx = nullptr;
  const Scalar* values = nullptr;  // nullptr: unit weights
  std::int64_t row_begin = 0;  // local rows [row_begin, row_end)
  std::int64_t row_end = 0;
  std::int64_t row_offset = 0;
  std::int64_t k = 0;
  const Scalar* beliefs = nullptr;  // B, n x k
  const double* hhat = nullptr;     // k x k modulation
  /// k x k echo modulation (Hhat^2 for LinBP); nullptr drops D*B*hhat2.
  const double* hhat2 = nullptr;
  const double* degrees = nullptr;  // d_s; read only with hhat2
  /// E, n x k: with it the range applies a Jacobi sweep, without it
  /// (nullptr) `out` receives the propagated term alone.
  const Scalar* explicit_residuals = nullptr;
  Scalar* out = nullptr;  // n x k; must not alias `beliefs`
};

/// The fused LinBP row kernel. For every row s of the range, in one
/// pass: takes the SpMM accumulator (A*B)_s, forms
///   p_s = (A*B)_s * hhat - d_s * (B_s * hhat2)
/// and writes out_s = E_s + p_s while folding the row's change against
/// B_s into the returned statistics (out_s = p_s, no statistics, without
/// E). Per element it keeps the unfused primitives' operation order, so
/// the result is bit-identical to SpmmRowsT, then DenseMatrix::Multiply
/// (zero entries skipped), then SubtractDegreeScaledEcho, then the
/// apply step; a float range accumulates SpmmRowsT<float> in float and
/// every dense product in fp64, rounding each stored element once as
/// the f32 pipeline always has. The range runs in tiles of 64 rows:
/// SpmmRowsT's row loop gathers (A*B)_s for every row of a tile, then
/// each row's dense tail runs in row order. Rows are written and the
/// statistics folded in row order (within a row, column order), as a
/// row-at-a-time pass does: splitting rows into ranges changes no output
/// bit, and a range's statistics are the row-order fold of its rows
/// wherever its tiles fall. k in [1, 8] runs a
/// compile-time-k instantiation (k = 1 is FaBP's scalar sweep), any
/// other k the same template with a runtime k; a null `values` runs the
/// unit-weight instantiation of the same body (see SpmmRowsT).
/// Instantiated for float and double only.
template <typename Scalar>
LinBpRowStats LinBpRowsT(const LinBpRowsArgs<Scalar>& args);

extern template LinBpRowStats LinBpRowsT<double>(
    const LinBpRowsArgs<double>&);
extern template LinBpRowStats LinBpRowsT<float>(const LinBpRowsArgs<float>&);

/// Double-named wrappers kept for the (large) existing call surface.
inline void SpmmRows(const std::int64_t* row_ptr, const std::int32_t* col_idx,
                     const double* values, std::int64_t row_begin,
                     std::int64_t row_end, const double* b, std::int64_t k,
                     double* out) {
  SpmmRowsT<double>(row_ptr, col_idx, values, row_begin, row_end, b, k, out);
}
inline void SpmvRows(const std::int64_t* row_ptr, const std::int32_t* col_idx,
                     const double* values, std::int64_t row_begin,
                     std::int64_t row_end, const double* x, double* y) {
  SpmvRowsT<double>(row_ptr, col_idx, values, row_begin, row_end, x, y);
}

/// Immutable CSR sparse matrix of doubles, in one of two forms: unit
/// weights (no value array: every stored weight is exactly 1.0) or
/// weighted (one double per stored entry). Every constructor picks the
/// form from the data — an empty `values` argument means unit weights,
/// and a value array that is all 1.0 is dropped — so two matrices with
/// the same entries always have the same form.
class SparseMatrix {
 public:
  /// Creates an empty rows x cols matrix (no stored entries).
  SparseMatrix(std::int64_t rows, std::int64_t cols);

  /// Builds from coordinate triplets. Duplicate (row, col) pairs are summed;
  /// entries that sum to exactly zero are kept (callers that want pruning
  /// should not emit them). Indices must be in range.
  static SparseMatrix FromTriplets(std::int64_t rows, std::int64_t cols,
                                   std::vector<Triplet> triplets);

  /// Adopts already-built CSR arrays without re-sorting (the fast path for
  /// binary snapshot deserialization). The invariants FromTriplets
  /// establishes are checked, not recomputed: row_ptr must be a monotone
  /// array of size rows + 1 ending at col_idx.size(), every row's column
  /// indices must be strictly increasing and in [0, cols), and `values`
  /// must be empty (unit weights) or hold one weight per entry. The
  /// per-row validation sweep fans out on `ctx`. Aborts on violation;
  /// callers deserializing untrusted bytes must validate first (see
  /// src/dataset/shard.cc).
  static SparseMatrix FromCsr(std::int64_t rows, std::int64_t cols,
                              std::vector<std::int64_t> row_ptr,
                              std::vector<std::int32_t> col_idx,
                              std::vector<double> values,
                              const exec::ExecContext& ctx =
                                  exec::ExecContext::Default());

  /// Adopts CSR arrays whose invariants the caller has ALREADY verified
  /// (the snapshot loader runs its own error-returning sweep first, so
  /// re-validating here would double the deserialization cost). Only the
  /// array shapes are CHECKed (an empty `values` is unit weights);
  /// adopting unverified arrays is undefined behavior in the kernels.
  static SparseMatrix FromValidatedCsr(std::int64_t rows, std::int64_t cols,
                                       std::vector<std::int64_t> row_ptr,
                                       std::vector<std::int32_t> col_idx,
                                       std::vector<double> values);

  std::int64_t rows() const { return rows_; }
  std::int64_t cols() const { return cols_; }

  /// Number of stored entries.
  std::int64_t NumNonZeros() const {
    return static_cast<std::int64_t>(col_idx_.size());
  }

  /// True when every stored weight is exactly 1.0 and no value array is
  /// kept (vacuously true without entries).
  bool unit_weights() const { return values_.empty(); }

  /// Weight of stored entry e (1.0 for a unit matrix). For cold callers;
  /// a hot loop decides the form once, from unit_weights().
  double weight(std::int64_t e) const {
    return values_.empty() ? 1.0 : values_[e];
  }

  /// CSR internals, exposed for kernels that iterate rows directly.
  /// values() is EMPTY for a unit matrix: read weights through weight(e),
  /// or hand the row kernels values_or_null().
  const std::vector<std::int64_t>& row_ptr() const { return row_ptr_; }
  const std::vector<std::int32_t>& col_idx() const { return col_idx_; }
  const std::vector<double>& values() const { return values_; }

  /// The value pointer the row kernels take: values().data(), or nullptr
  /// for a unit matrix.
  const double* values_or_null() const {
    return unit_weights() ? nullptr : values_.data();
  }

  /// Float32 copy of values(), built lazily on first use and cached for
  /// the matrix's lifetime (the CSR arrays are immutable once built, so
  /// the cache can never go stale — graph mutations construct a new
  /// SparseMatrix). Thread-safe: concurrent first calls may both build,
  /// but exactly one copy is published and all callers see a complete
  /// vector. Costs nnz * 4 bytes while alive. A unit matrix has no
  /// values to narrow: it builds nothing and returns nullptr, the unit
  /// value pointer of the f32 kernels.
  std::shared_ptr<const std::vector<float>> values_f32() const;

  /// y = A * x. Zero-weight stored entries are skipped. Bit-identical
  /// across thread counts (per-row ownership).
  std::vector<double> MultiplyVector(const std::vector<double>& x,
                                     const exec::ExecContext& ctx) const;
  std::vector<double> MultiplyVector(const std::vector<double>& x) const {
    return MultiplyVector(x, exec::ExecContext::Default());
  }

  /// y = A^T * x (without materializing the transpose). Parallel runs
  /// reduce per-block partial vectors in block order: deterministic for a
  /// fixed context, equal to the serial result up to rounding.
  std::vector<double> TransposeMultiplyVector(
      const std::vector<double>& x, const exec::ExecContext& ctx) const;
  std::vector<double> TransposeMultiplyVector(
      const std::vector<double>& x) const {
    return TransposeMultiplyVector(x, exec::ExecContext::Default());
  }

  /// C = A * B for a dense row-major B with a small number of columns.
  /// This is the LinBP hot kernel (B is the n x k belief matrix).
  /// Bit-identical across thread counts (per-row ownership). Unlike the
  /// SpMV kernels, stored zero entries are NOT skipped here: the per-entry
  /// branch is not amortized by k in the hottest loop, and belief
  /// operands are always finite.
  DenseMatrix MultiplyDense(const DenseMatrix& b,
                            const exec::ExecContext& ctx) const;
  DenseMatrix MultiplyDense(const DenseMatrix& b) const {
    return MultiplyDense(b, exec::ExecContext::Default());
  }

  /// Float32 C = A * B: same kernel template and blocking as
  /// MultiplyDense, running on the cached f32 value array. Bit-identical
  /// across thread counts (per-row ownership), but NOT bit-comparable to
  /// the fp64 product — parity is a statistical guarantee (see
  /// src/la/precision.h).
  DenseMatrixF32 MultiplyDenseF32(const DenseMatrixF32& b,
                                  const exec::ExecContext& ctx) const;

  /// Float32 y = A * x (stored zeros skipped, like MultiplyVector).
  std::vector<float> MultiplyVectorF32(const std::vector<float>& x,
                                       const exec::ExecContext& ctx) const;

  /// Returns the explicit transpose (CSR of A^T).
  SparseMatrix Transpose() const;

  /// Row sums of |a_ij| (used for the induced infinity norm).
  std::vector<double> AbsRowSums() const;

  /// Column sums of |a_ij| (used for the induced 1-norm).
  std::vector<double> AbsColSums() const;

  /// Row sums of a_ij^2; for a symmetric weighted adjacency matrix this is
  /// the paper's weighted degree d_s = sum of squared edge weights
  /// (Sect. 5.2).
  std::vector<double> SquaredRowSums() const;

  /// Value at (row, col); zero if not stored. O(log deg) per lookup.
  double At(std::int64_t row, std::int64_t col) const;

  /// Materializes the matrix densely (tests and small closed forms only).
  DenseMatrix ToDense() const;

  /// True if the matrix equals its transpose exactly (pattern and values).
  bool IsSymmetric() const;

 private:
  std::int64_t rows_ = 0;
  std::int64_t cols_ = 0;
  std::vector<std::int64_t> row_ptr_;
  std::vector<std::int32_t> col_idx_;
  std::vector<double> values_;  // empty: unit weights
  // Lazily-built f32 copy of values_ (see values_f32()). Accessed only
  // through std::atomic_load / std::atomic_compare_exchange_strong so
  // concurrent kernel launches can share one publication.
  mutable std::shared_ptr<const std::vector<float>> values_f32_cache_;
};

}  // namespace linbp

#endif  // LINBP_LA_SPARSE_MATRIX_H_
