// Row-major dense float32 matrix: the belief-storage type of the f32
// precision mode.
//
// Deliberately minimal — it exists so the hot-path sweep operands can be
// float without templating DenseMatrix and everything built on it. The
// solvers convert at the precision seam (FromF64 on entry, ToF64 on
// exit); the fused row kernel (LinBpRowsT<float>) does every dense
// product and all arithmetic that feeds diagnostics in fp64. This type
// only stores and shuttles data.

#ifndef LINBP_LA_DENSE_MATRIX_F32_H_
#define LINBP_LA_DENSE_MATRIX_F32_H_

#include <cstdint>
#include <vector>

#include "src/la/dense_matrix.h"
#include "src/util/check.h"

namespace linbp {

/// Row-major rows x cols matrix of floats.
class DenseMatrixF32 {
 public:
  DenseMatrixF32() = default;
  DenseMatrixF32(std::int64_t rows, std::int64_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0f) {
    LINBP_CHECK(rows >= 0 && cols >= 0);
  }

  /// Narrowing conversion from fp64 (round-to-nearest per element).
  static DenseMatrixF32 FromF64(const DenseMatrix& m) {
    DenseMatrixF32 out(m.rows(), m.cols());
    const std::vector<double>& src = m.data();
    for (std::size_t i = 0; i < src.size(); ++i) {
      out.data_[i] = static_cast<float>(src[i]);
    }
    return out;
  }

  /// Widening conversion to fp64 (exact per element).
  DenseMatrix ToF64() const {
    DenseMatrix out(rows_, cols_);
    std::vector<double>& dst = out.mutable_data();
    for (std::size_t i = 0; i < data_.size(); ++i) {
      dst[i] = static_cast<double>(data_[i]);
    }
    return out;
  }

  std::int64_t rows() const { return rows_; }
  std::int64_t cols() const { return cols_; }

  float& At(std::int64_t r, std::int64_t c) { return data_[r * cols_ + c]; }
  float At(std::int64_t r, std::int64_t c) const {
    return data_[r * cols_ + c];
  }

  const std::vector<float>& data() const { return data_; }
  std::vector<float>& mutable_data() { return data_; }

 private:
  std::int64_t rows_ = 0;
  std::int64_t cols_ = 0;
  std::vector<float> data_;
};

}  // namespace linbp

#endif  // LINBP_LA_DENSE_MATRIX_F32_H_
