#include "src/la/kron_ops.h"

#include <algorithm>

#include "src/exec/row_partition.h"
#include "src/util/check.h"

namespace linbp {

DenseOperator::DenseOperator(DenseMatrix m) : m_(std::move(m)) {
  LINBP_CHECK(m_.rows() == m_.cols());
}

void DenseOperator::Apply(const std::vector<double>& x,
                          std::vector<double>* y) const {
  *y = m_.MultiplyVector(x);
}

DenseMatrix LinBpPropagate(const SparseMatrix& adjacency,
                           const std::vector<double>& degrees,
                           const DenseMatrix& hhat, const DenseMatrix& hhat2,
                           const DenseMatrix& beliefs, bool with_echo,
                           const exec::ExecContext& ctx) {
  const std::int64_t n = adjacency.rows();
  const std::int64_t k = hhat.rows();
  LINBP_CHECK(adjacency.cols() == n);
  LINBP_CHECK(hhat.cols() == k);
  LINBP_CHECK(beliefs.rows() == n && beliefs.cols() == k);
  DenseMatrix propagated(n, k);
  LinBpRowsArgs<double> args;
  args.row_ptr = adjacency.row_ptr().data();
  args.col_idx = adjacency.col_idx().data();
  args.values = adjacency.values_or_null();
  args.k = k;
  args.beliefs = beliefs.data().data();
  args.hhat = hhat.data().data();
  if (with_echo) {
    LINBP_CHECK(static_cast<std::int64_t>(degrees.size()) == n);
    LINBP_CHECK(hhat2.rows() == k && hhat2.cols() == k);
    args.hhat2 = hhat2.data().data();
    args.degrees = degrees.data();
  }
  args.out = propagated.mutable_data().data();
  // The fused row kernel with its propagate-only epilogue, over the
  // matrix's nnz-balanced row blocks.
  const exec::RowPartition blocks =
      exec::RowPartition::ForContext(ctx, args.row_ptr, n, k);
  ctx.RunBlocks(blocks.num_blocks(), [&](std::int64_t b) {
    LinBpRowsArgs<double> block = args;
    block.row_begin = blocks.begin(b);
    block.row_end = blocks.end(b);
    LinBpRowsT<double>(block);
  });
  return propagated;
}

void SubtractDegreeScaledEcho(const std::vector<double>& degrees,
                              const DenseMatrix& echo,
                              const exec::ExecContext& ctx,
                              DenseMatrix* propagated) {
  const std::int64_t n = propagated->rows();
  const std::int64_t k = propagated->cols();
  LINBP_CHECK(echo.rows() == n && echo.cols() == k);
  LINBP_CHECK(static_cast<std::int64_t>(degrees.size()) == n);
  ctx.ParallelFor(0, n,
                  exec::kDefaultMinWorkPerChunk / std::max<std::int64_t>(1, k),
                  [&](std::int64_t row_begin, std::int64_t row_end) {
                    for (std::int64_t s = row_begin; s < row_end; ++s) {
                      const double d = degrees[s];
                      for (std::int64_t c = 0; c < k; ++c) {
                        propagated->At(s, c) -= d * echo.At(s, c);
                      }
                    }
                  });
}

LinBpOperator::LinBpOperator(const SparseMatrix* adjacency,
                             std::vector<double> degrees, DenseMatrix hhat,
                             bool with_echo, exec::ExecContext ctx)
    : adjacency_(adjacency),
      degrees_(std::move(degrees)),
      hhat_(std::move(hhat)),
      hhat2_(hhat_.Multiply(hhat_)),
      with_echo_(with_echo),
      ctx_(std::move(ctx)) {
  LINBP_CHECK(adjacency_ != nullptr);
  LINBP_CHECK(adjacency_->rows() == adjacency_->cols());
  LINBP_CHECK(hhat_.rows() == hhat_.cols());
  LINBP_CHECK(static_cast<std::int64_t>(degrees_.size()) ==
              adjacency_->rows());
}

std::int64_t LinBpOperator::dim() const {
  return adjacency_->rows() * hhat_.rows();
}

void LinBpOperator::Apply(const std::vector<double>& x,
                          std::vector<double>* y) const {
  const std::int64_t n = adjacency_->rows();
  const std::int64_t k = hhat_.rows();
  const DenseMatrix b = UnvectorizeBeliefs(x, n, k);
  const DenseMatrix out = LinBpPropagate(*adjacency_, degrees_, hhat_, hhat2_,
                                         b, with_echo_, ctx_);
  *y = VectorizeBeliefs(out);
}

DenseMatrix UnvectorizeBeliefs(const std::vector<double>& v, std::int64_t n,
                               std::int64_t k) {
  return DenseMatrix::FromVectorized(v, n, k);
}

std::vector<double> VectorizeBeliefs(const DenseMatrix& b) {
  return b.Vectorize();
}

}  // namespace linbp
