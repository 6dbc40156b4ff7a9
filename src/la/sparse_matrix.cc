#include "src/la/sparse_matrix.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <type_traits>
#include <utility>

#include "src/exec/row_partition.h"
#include "src/util/check.h"

namespace linbp {
namespace {

// Shared blocked row iteration for the product kernels: runs
// body(row_begin, row_end) per block of the matrix's
// exec::RowPartition::ForContext split.
void ForEachRowBlock(const exec::ExecContext& ctx,
                     const std::vector<std::int64_t>& row_ptr,
                     std::int64_t work_per_entry,
                     const std::function<void(std::int64_t, std::int64_t)>&
                         body) {
  const std::int64_t num_rows =
      static_cast<std::int64_t>(row_ptr.size()) - 1;
  if (num_rows <= 0) return;
  const exec::RowPartition partition = exec::RowPartition::ForContext(
      ctx, row_ptr.data(), num_rows, work_per_entry);
  ctx.RunBlocks(partition.num_blocks(), [&](std::int64_t b) {
    body(partition.begin(b), partition.end(b));
  });
}

// SpmmRowsT's column tile: each tile's accumulators stay in registers
// while a row's entries stream by.
constexpr std::int64_t kColTile = 8;

// LinBpRowsT's row tile: the SpMM rows of a whole tile are gathered
// before any of their dense tails run.
constexpr std::int64_t kRowTile = 64;

// Weight of entry e of a row kernel's CSR: vals[e], or 1 in the
// unit-weight instantiation (kUnit, vals null), where the multiply by it
// folds away. x * 1 == x exactly, so the unit instantiation gives the
// bits of the weighted one over an array of ones.
template <bool kUnit, typename Scalar>
inline Scalar EntryWeight(const Scalar* __restrict__ vals, std::int64_t e) {
  if constexpr (kUnit) {
    (void)vals;
    (void)e;
    return Scalar(1);
  } else {
    return vals[e];
  }
}

// The one SpMM row loop: out[c] = sum over e in [row_ptr[r],
// row_ptr[r+1]) of vals[e] * b[cols[e]*k + c], per k-tile with the
// entries in order into zeroed accumulators. kK in [1, kColTile] fixes
// k at compile time (one tile, unrolled); kK == 0 uses the runtime k.
// kUnit reads no value (see EntryWeight).
//
// The operand pointers are restrict-qualified and the per-entry tile
// update carries an `omp simd` hint (the build adds -fopenmp-simd, no
// OpenMP runtime): the acc[c] lanes are independent, so vectorizing
// across c changes no accumulation order. gcc 12.2 -O3 -fopt-info-vec
// reports "loop vectorized using 16 byte vectors" for both scalar types
// (verified 2026-10; rerun with
//   g++ -std=c++17 -O3 -fopenmp-simd -fopt-info-vec -I. -c
//   src/la/sparse_matrix.cc
// when touching this kernel).
template <typename Scalar, int kK, bool kUnit>
void SpmmRowT(const std::int64_t* row_ptr,
              const std::int32_t* __restrict__ cols,
              const Scalar* __restrict__ vals, std::int64_t r,
              const Scalar* b, std::int64_t k, Scalar* __restrict__ out) {
  static_assert(kK >= 0 && kK <= kColTile, "one tile per row");
  if constexpr (kK > 0) k = kK;
  const std::int64_t e_begin = row_ptr[r];
  const std::int64_t e_end = row_ptr[r + 1];
  for (std::int64_t c0 = 0; c0 < k; c0 += kColTile) {
    const std::int64_t tile = std::min(kColTile, k - c0);
    Scalar acc[kColTile] = {};
    for (std::int64_t e = e_begin; e < e_end; ++e) {
      const Scalar w = EntryWeight<kUnit>(vals, e);
      const Scalar* __restrict__ b_row =
          b + static_cast<std::int64_t>(cols[e]) * k + c0;
#pragma omp simd
      for (std::int64_t c = 0; c < tile; ++c) acc[c] += w * b_row[c];
    }
    for (std::int64_t c = 0; c < tile; ++c) out[c0 + c] = acc[c];
  }
}

// The form switch of the row kernels: calls fn(std::true_type()) for a
// unit-weight CSR (null values) and fn(std::false_type()) otherwise.
template <typename Scalar, typename Fn>
auto DispatchUnit(const Scalar* values, Fn&& fn) {
  return values == nullptr ? fn(std::true_type()) : fn(std::false_type());
}

// The k switch of SpmmRowsT and LinBpRowsT: calls
// fn(std::integral_constant<int, kK>()) with kK = k for k in
// [1, kColTile] (row scratch in registers, unrolled k loops) and
// kK = 0, the runtime-k instantiation, for any other k.
template <typename Fn>
auto DispatchK(std::int64_t k, Fn&& fn) {
  switch (k) {
    case 1: return fn(std::integral_constant<int, 1>());
    case 2: return fn(std::integral_constant<int, 2>());
    case 3: return fn(std::integral_constant<int, 3>());
    case 4: return fn(std::integral_constant<int, 4>());
    case 5: return fn(std::integral_constant<int, 5>());
    case 6: return fn(std::integral_constant<int, 6>());
    case 7: return fn(std::integral_constant<int, 7>());
    case 8: return fn(std::integral_constant<int, 8>());
    default: return fn(std::integral_constant<int, 0>());
  }
}

// LinBpRowsT for one k (see DispatchK) and one storage form (kUnit: null
// values, see DispatchUnit), a row tile at a time. Phase 1 gathers
// (A*B)_s of every row of the tile into the tile scratch; phase 2 runs
// each row's dense tail in row order. Every element sees the same
// operations in the same order as a row-at-a-time pass, and the
// statistics fold in row order, so the tile changes no bit.
template <typename Scalar, int kK, bool kUnit>
LinBpRowStats LinBpRowsForK(const LinBpRowsArgs<Scalar>& args) {
  const std::int64_t k = kK > 0 ? kK : args.k;
  const std::int64_t* row_ptr = args.row_ptr;
  const Scalar* b = args.beliefs;
  const bool echo = args.hhat2 != nullptr;
  const bool apply = args.explicit_residuals != nullptr;

  // Scratch: the tile's SpMM rows, one row's two dense products, and the
  // coupling matrices copied next to them.
  constexpr std::int64_t kSlots = kK > 0 ? kK : 1;
  Scalar ab_fixed[kRowTile * kSlots] = {};
  double prop_fixed[kSlots] = {};
  double echo_fixed[kSlots] = {};
  double h_fixed[kSlots * kSlots] = {};
  double h2_fixed[kSlots * kSlots] = {};
  Scalar* ab_tile = ab_fixed;
  double* prop = prop_fixed;
  double* echo_row = echo_fixed;
  const double* h = args.hhat;
  const double* h2 = args.hhat2;
  std::vector<Scalar> ab_heap;
  std::vector<double> dense_heap;
  if constexpr (kK > 0) {
    std::copy(args.hhat, args.hhat + kK * kK, h_fixed);
    h = h_fixed;
    if (echo) {
      std::copy(args.hhat2, args.hhat2 + kK * kK, h2_fixed);
      h2 = h2_fixed;
    }
  } else {
    ab_heap.resize(kRowTile * k);
    dense_heap.resize(2 * k);
    ab_tile = ab_heap.data();
    prop = dense_heap.data();
    echo_row = dense_heap.data() + k;
  }

  LinBpRowStats stats;
  for (std::int64_t tile_begin = args.row_begin; tile_begin < args.row_end;
       tile_begin += kRowTile) {
    const std::int64_t tile_end =
        std::min(tile_begin + kRowTile, args.row_end);
    // Phase 1: (A*B)_s for every row of the tile.
    for (std::int64_t r = tile_begin; r < tile_end; ++r) {
      SpmmRowT<Scalar, kK, kUnit>(row_ptr, args.col_idx, args.values, r, b,
                                  k, ab_tile + (r - tile_begin) * k);
    }
    // Phase 2: each row's dense tail, in row order.
    for (std::int64_t r = tile_begin; r < tile_end; ++r) {
      const std::int64_t s = args.row_offset + r;
      const Scalar* own = b + s * k;
      const Scalar* ab = ab_tile + (r - tile_begin) * k;
      // (A*B)_s * hhat and B_s * hhat2 in DenseMatrix::Multiply's order,
      // zero entries of the left operand skipped.
      for (std::int64_t j = 0; j < k; ++j) prop[j] = 0.0;
      for (std::int64_t l = 0; l < k; ++l) {
        const double a = static_cast<double>(ab[l]);
        if (a == 0.0) continue;
        for (std::int64_t j = 0; j < k; ++j) prop[j] += a * h[l * k + j];
      }
      if (echo) {
        for (std::int64_t j = 0; j < k; ++j) echo_row[j] = 0.0;
        for (std::int64_t l = 0; l < k; ++l) {
          const double a = static_cast<double>(own[l]);
          if (a == 0.0) continue;
          for (std::int64_t j = 0; j < k; ++j) {
            echo_row[j] += a * h2[l * k + j];
          }
        }
      }
      const double d = echo ? args.degrees[s] : 0.0;
      Scalar* out = args.out + s * k;
      const Scalar* e_row = apply ? args.explicit_residuals + s * k : nullptr;
      for (std::int64_t j = 0; j < k; ++j) {
        // Each stored product rounds once (a no-op for double).
        Scalar p = static_cast<Scalar>(prop[j]);
        if (echo) {
          p = static_cast<Scalar>(
              static_cast<double>(p) -
              d * static_cast<double>(static_cast<Scalar>(echo_row[j])));
        }
        if (!apply) {
          out[j] = p;
          continue;
        }
        const Scalar value = e_row[j] + p;
        const double change =
            static_cast<double>(value) - static_cast<double>(own[j]);
        stats.delta = std::max(stats.delta, std::abs(change));
        stats.delta_sq += change * change;
        stats.magnitude =
            std::max(stats.magnitude, std::abs(static_cast<double>(value)));
        out[j] = value;
      }
    }
  }
  return stats;
}

}  // namespace

template <typename Scalar>
void SpmmRowsT(const std::int64_t* row_ptr, const std::int32_t* col_idx,
               const Scalar* values, std::int64_t row_begin,
               std::int64_t row_end, const Scalar* b, std::int64_t k,
               Scalar* out) {
  // For a fixed output element the entry order is that of an untiled
  // scalar loop, so the result is bit-identical to it for the same
  // Scalar, at every k and every row range.
  DispatchUnit(values, [&](auto unit) {
    DispatchK(k, [&](auto fixed_k) {
      constexpr int kK = decltype(fixed_k)::value;
      for (std::int64_t r = row_begin; r < row_end; ++r) {
        SpmmRowT<Scalar, kK, decltype(unit)::value>(row_ptr, col_idx, values,
                                                    r, b, k, out + r * k);
      }
    });
  });
}

template <typename Scalar>
void SpmvRowsT(const std::int64_t* row_ptr, const std::int32_t* col_idx,
               const Scalar* values, std::int64_t row_begin,
               std::int64_t row_end, const Scalar* x, Scalar* y) {
  // The stored-zero skip protects 0 * inf / 0 * nan in operand vectors
  // (explicit entries with zero weight are legal CSR); it lives here, in
  // the one per-scalar implementation, so MultiplyVector and the
  // row-range entry point cannot drift. A unit weight is never zero, so
  // the unit instantiation has no skip.
  DispatchUnit(values, [&](auto unit) {
    constexpr bool kUnit = decltype(unit)::value;
    for (std::int64_t r = row_begin; r < row_end; ++r) {
      Scalar acc = Scalar(0);
      for (std::int64_t e = row_ptr[r]; e < row_ptr[r + 1]; ++e) {
        const Scalar w = EntryWeight<kUnit>(values, e);
        if (w == Scalar(0)) continue;
        acc += w * x[col_idx[e]];
      }
      y[r] = acc;
    }
  });
}

template <typename Scalar>
void SpmtvRowsT(const std::int64_t* row_ptr, const std::int32_t* col_idx,
                const Scalar* values, std::int64_t row_begin,
                std::int64_t row_end, const Scalar* x, Scalar* out) {
  DispatchUnit(values, [&](auto unit) {
    constexpr bool kUnit = decltype(unit)::value;
    for (std::int64_t r = row_begin; r < row_end; ++r) {
      const Scalar xr = x[r];
      if (xr == Scalar(0)) continue;
      for (std::int64_t e = row_ptr[r]; e < row_ptr[r + 1]; ++e) {
        const Scalar w = EntryWeight<kUnit>(values, e);
        if (w == Scalar(0)) continue;
        out[col_idx[e]] += w * xr;
      }
    }
  });
}

template void SpmmRowsT<double>(const std::int64_t*, const std::int32_t*,
                                const double*, std::int64_t, std::int64_t,
                                const double*, std::int64_t, double*);
template void SpmmRowsT<float>(const std::int64_t*, const std::int32_t*,
                               const float*, std::int64_t, std::int64_t,
                               const float*, std::int64_t, float*);
template void SpmvRowsT<double>(const std::int64_t*, const std::int32_t*,
                                const double*, std::int64_t, std::int64_t,
                                const double*, double*);
template void SpmvRowsT<float>(const std::int64_t*, const std::int32_t*,
                               const float*, std::int64_t, std::int64_t,
                               const float*, float*);
template void SpmtvRowsT<double>(const std::int64_t*, const std::int32_t*,
                                 const double*, std::int64_t, std::int64_t,
                                 const double*, double*);
template void SpmtvRowsT<float>(const std::int64_t*, const std::int32_t*,
                                const float*, std::int64_t, std::int64_t,
                                const float*, float*);

template <typename Scalar>
LinBpRowStats LinBpRowsT(const LinBpRowsArgs<Scalar>& args) {
  return DispatchUnit(args.values, [&](auto unit) {
    return DispatchK(args.k, [&](auto fixed_k) {
      return LinBpRowsForK<Scalar, decltype(fixed_k)::value,
                           decltype(unit)::value>(args);
    });
  });
}

template LinBpRowStats LinBpRowsT<double>(const LinBpRowsArgs<double>&);
template LinBpRowStats LinBpRowsT<float>(const LinBpRowsArgs<float>&);

SparseMatrix::SparseMatrix(std::int64_t rows, std::int64_t cols)
    : rows_(rows), cols_(cols), row_ptr_(rows + 1, 0) {
  LINBP_CHECK(rows >= 0 && cols >= 0);
}

SparseMatrix SparseMatrix::FromTriplets(std::int64_t rows, std::int64_t cols,
                                        std::vector<Triplet> triplets) {
  SparseMatrix m(rows, cols);
  for (const Triplet& t : triplets) {
    LINBP_CHECK(t.row >= 0 && t.row < rows && t.col >= 0 && t.col < cols);
  }
  std::sort(triplets.begin(), triplets.end(),
            [](const Triplet& a, const Triplet& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });
  m.col_idx_.reserve(triplets.size());
  std::size_t i = 0;
  while (i < triplets.size()) {
    // Sum runs of duplicate (row, col) coordinates.
    double sum = triplets[i].value;
    std::size_t j = i + 1;
    while (j < triplets.size() && triplets[j].row == triplets[i].row &&
           triplets[j].col == triplets[i].col) {
      sum += triplets[j].value;
      ++j;
    }
    // values_ stays empty while every weight is 1; the first other weight
    // brings in the array, with the 1s before it.
    if (sum != 1.0 && m.values_.empty()) {
      m.values_.reserve(triplets.size());
      m.values_.assign(m.col_idx_.size(), 1.0);
      m.values_.push_back(sum);
    } else if (!m.values_.empty()) {
      m.values_.push_back(sum);
    }
    m.col_idx_.push_back(static_cast<std::int32_t>(triplets[i].col));
    ++m.row_ptr_[triplets[i].row + 1];
    i = j;
  }
  for (std::int64_t r = 0; r < rows; ++r) m.row_ptr_[r + 1] += m.row_ptr_[r];
  return m;
}

SparseMatrix SparseMatrix::FromCsr(std::int64_t rows, std::int64_t cols,
                                   std::vector<std::int64_t> row_ptr,
                                   std::vector<std::int32_t> col_idx,
                                   std::vector<double> values,
                                   const exec::ExecContext& ctx) {
  LINBP_CHECK(static_cast<std::int64_t>(row_ptr.size()) == rows + 1);
  LINBP_CHECK(values.empty() || col_idx.size() == values.size());
  LINBP_CHECK(row_ptr.front() == 0);
  LINBP_CHECK(row_ptr.back() == static_cast<std::int64_t>(col_idx.size()));
  ctx.ParallelFor(0, rows, /*min_grain=*/4096,
                  [&](std::int64_t row_begin, std::int64_t row_end) {
                    for (std::int64_t r = row_begin; r < row_end; ++r) {
                      LINBP_CHECK(row_ptr[r] <= row_ptr[r + 1]);
                      for (std::int64_t e = row_ptr[r]; e < row_ptr[r + 1];
                           ++e) {
                        LINBP_CHECK(col_idx[e] >= 0 && col_idx[e] < cols);
                        LINBP_CHECK_MSG(e == row_ptr[r] ||
                                            col_idx[e - 1] < col_idx[e],
                                        "CSR columns must be strictly "
                                        "increasing within a row");
                      }
                    }
                  });
  return FromValidatedCsr(rows, cols, std::move(row_ptr),
                          std::move(col_idx), std::move(values));
}

SparseMatrix SparseMatrix::FromValidatedCsr(
    std::int64_t rows, std::int64_t cols, std::vector<std::int64_t> row_ptr,
    std::vector<std::int32_t> col_idx, std::vector<double> values) {
  SparseMatrix m(rows, cols);
  LINBP_CHECK(static_cast<std::int64_t>(row_ptr.size()) == rows + 1);
  LINBP_CHECK(values.empty() || col_idx.size() == values.size());
  m.row_ptr_ = std::move(row_ptr);
  m.col_idx_ = std::move(col_idx);
  // An array of 1.0s is freed: the matrix takes the unit form.
  if (std::any_of(values.begin(), values.end(),
                  [](double v) { return v != 1.0; })) {
    m.values_ = std::move(values);
  }
  return m;
}

std::vector<double> SparseMatrix::MultiplyVector(
    const std::vector<double>& x, const exec::ExecContext& ctx) const {
  LINBP_CHECK(static_cast<std::int64_t>(x.size()) == cols_);
  std::vector<double> y(rows_, 0.0);
  ForEachRowBlock(ctx, row_ptr_, /*work_per_entry=*/1,
                  [&](std::int64_t row_begin, std::int64_t row_end) {
                    SpmvRows(row_ptr_.data(), col_idx_.data(),
                             values_or_null(), row_begin, row_end, x.data(),
                             y.data());
                  });
  return y;
}

std::vector<double> SparseMatrix::TransposeMultiplyVector(
    const std::vector<double>& x, const exec::ExecContext& ctx) const {
  LINBP_CHECK(static_cast<std::int64_t>(x.size()) == rows_);
  std::vector<double> y(cols_, 0.0);
  const std::int64_t blocks =
      ctx.NumChunks(NumNonZeros(), exec::kDefaultMinWorkPerChunk);
  auto scatter_rows = [&](std::int64_t row_begin, std::int64_t row_end,
                          double* out) {
    SpmtvRowsT<double>(row_ptr_.data(), col_idx_.data(), values_or_null(),
                       row_begin, row_end, x.data(), out);
  };
  if (blocks <= 1 || rows_ <= 1) {
    scatter_rows(0, rows_, y.data());
    return y;
  }
  // Blocked per-thread-accumulator reduction: every block scatters into a
  // private column accumulator; the partials are then summed in block
  // order, which keeps the result deterministic for a fixed context.
  const exec::RowPartition partition =
      exec::RowPartition::NnzBalanced(row_ptr_, blocks);
  std::vector<std::vector<double>> partials(
      partition.num_blocks(), std::vector<double>(cols_, 0.0));
  ctx.RunBlocks(partition.num_blocks(), [&](std::int64_t b) {
    scatter_rows(partition.begin(b), partition.end(b), partials[b].data());
  });
  for (const std::vector<double>& partial : partials) {
    for (std::int64_t c = 0; c < cols_; ++c) y[c] += partial[c];
  }
  return y;
}

DenseMatrix SparseMatrix::MultiplyDense(const DenseMatrix& b,
                                        const exec::ExecContext& ctx) const {
  LINBP_CHECK(b.rows() == cols_);
  const std::int64_t k = b.cols();
  DenseMatrix out(rows_, k);
  const double* b_data = b.data().data();
  double* out_data = out.mutable_data().data();
  // The k-tiled kernel itself lives in SpmmRows (shared with the
  // out-of-core block-apply path); this wrapper only supplies the
  // nnz-balanced parallel row blocking.
  ForEachRowBlock(ctx, row_ptr_, /*work_per_entry=*/k,
                  [&](std::int64_t row_begin, std::int64_t row_end) {
                    SpmmRows(row_ptr_.data(), col_idx_.data(),
                             values_or_null(), row_begin, row_end, b_data, k,
                             out_data);
                  });
  return out;
}

std::shared_ptr<const std::vector<float>> SparseMatrix::values_f32() const {
  if (unit_weights()) return nullptr;
  std::shared_ptr<const std::vector<float>> cached =
      std::atomic_load(&values_f32_cache_);
  if (cached != nullptr) return cached;
  auto built = std::make_shared<std::vector<float>>(values_.size());
  for (std::size_t i = 0; i < values_.size(); ++i) {
    (*built)[i] = static_cast<float>(values_[i]);
  }
  std::shared_ptr<const std::vector<float>> publish = std::move(built);
  // On a lost race, adopt the winner's copy (identical contents) so
  // every caller shares one allocation.
  if (std::atomic_compare_exchange_strong(&values_f32_cache_, &cached,
                                          publish)) {
    return publish;
  }
  return cached;
}

DenseMatrixF32 SparseMatrix::MultiplyDenseF32(
    const DenseMatrixF32& b, const exec::ExecContext& ctx) const {
  LINBP_CHECK(b.rows() == cols_);
  const std::int64_t k = b.cols();
  DenseMatrixF32 out(rows_, k);
  // Null for a unit matrix: the kernels' unit form.
  const std::shared_ptr<const std::vector<float>> vals = values_f32();
  const float* vals_data = vals != nullptr ? vals->data() : nullptr;
  const float* b_data = b.data().data();
  float* out_data = out.mutable_data().data();
  // f32 entries cost half the bandwidth of f64, so the nnz-balanced
  // blocking sees half the per-entry work (floor 1 keeps k=1 sane).
  const std::int64_t work_per_entry = std::max<std::int64_t>(1, k / 2);
  ForEachRowBlock(ctx, row_ptr_, work_per_entry,
                  [&](std::int64_t row_begin, std::int64_t row_end) {
                    SpmmRowsT<float>(row_ptr_.data(), col_idx_.data(),
                                     vals_data, row_begin, row_end, b_data, k,
                                     out_data);
                  });
  return out;
}

std::vector<float> SparseMatrix::MultiplyVectorF32(
    const std::vector<float>& x, const exec::ExecContext& ctx) const {
  LINBP_CHECK(static_cast<std::int64_t>(x.size()) == cols_);
  std::vector<float> y(rows_, 0.0f);
  const std::shared_ptr<const std::vector<float>> vals = values_f32();
  const float* vals_data = vals != nullptr ? vals->data() : nullptr;
  ForEachRowBlock(ctx, row_ptr_, /*work_per_entry=*/1,
                  [&](std::int64_t row_begin, std::int64_t row_end) {
                    SpmvRowsT<float>(row_ptr_.data(), col_idx_.data(),
                                     vals_data, row_begin, row_end, x.data(),
                                     y.data());
                  });
  return y;
}

SparseMatrix SparseMatrix::Transpose() const {
  SparseMatrix t(cols_, rows_);
  t.col_idx_.resize(col_idx_.size());
  t.values_.resize(values_.size());  // stays empty for a unit matrix
  // Counting sort of entries by column index.
  for (const std::int32_t c : col_idx_) ++t.row_ptr_[c + 1];
  for (std::int64_t r = 0; r < cols_; ++r) t.row_ptr_[r + 1] += t.row_ptr_[r];
  std::vector<std::int64_t> cursor(t.row_ptr_.begin(), t.row_ptr_.end() - 1);
  for (std::int64_t r = 0; r < rows_; ++r) {
    for (std::int64_t e = row_ptr_[r]; e < row_ptr_[r + 1]; ++e) {
      const std::int64_t pos = cursor[col_idx_[e]]++;
      t.col_idx_[pos] = static_cast<std::int32_t>(r);
      if (!unit_weights()) t.values_[pos] = values_[e];
    }
  }
  return t;
}

std::vector<double> SparseMatrix::AbsRowSums() const {
  std::vector<double> sums(rows_, 0.0);
  for (std::int64_t r = 0; r < rows_; ++r) {
    for (std::int64_t e = row_ptr_[r]; e < row_ptr_[r + 1]; ++e) {
      sums[r] += std::abs(weight(e));
    }
  }
  return sums;
}

std::vector<double> SparseMatrix::AbsColSums() const {
  std::vector<double> sums(cols_, 0.0);
  for (std::size_t e = 0; e < col_idx_.size(); ++e) {
    sums[col_idx_[e]] += std::abs(weight(static_cast<std::int64_t>(e)));
  }
  return sums;
}

std::vector<double> SparseMatrix::SquaredRowSums() const {
  std::vector<double> sums(rows_, 0.0);
  for (std::int64_t r = 0; r < rows_; ++r) {
    for (std::int64_t e = row_ptr_[r]; e < row_ptr_[r + 1]; ++e) {
      sums[r] += weight(e) * weight(e);
    }
  }
  return sums;
}

double SparseMatrix::At(std::int64_t row, std::int64_t col) const {
  LINBP_CHECK(row >= 0 && row < rows_ && col >= 0 && col < cols_);
  const auto begin = col_idx_.begin() + row_ptr_[row];
  const auto end = col_idx_.begin() + row_ptr_[row + 1];
  const auto it =
      std::lower_bound(begin, end, static_cast<std::int32_t>(col));
  if (it == end || *it != col) return 0.0;
  return weight(it - col_idx_.begin());
}

DenseMatrix SparseMatrix::ToDense() const {
  DenseMatrix d(rows_, cols_);
  for (std::int64_t r = 0; r < rows_; ++r) {
    for (std::int64_t e = row_ptr_[r]; e < row_ptr_[r + 1]; ++e) {
      d.At(r, col_idx_[e]) += weight(e);
    }
  }
  return d;
}

bool SparseMatrix::IsSymmetric() const {
  if (rows_ != cols_) return false;
  // The transpose has this matrix's form, so a unit matrix compares its
  // pattern only.
  const SparseMatrix t = Transpose();
  if (t.row_ptr_ != row_ptr_ || t.col_idx_ != col_idx_) return false;
  for (std::size_t e = 0; e < values_.size(); ++e) {
    if (t.values_[e] != values_[e]) return false;
  }
  return true;
}

}  // namespace linbp
