#include "src/engine/propagation_backend.h"

#include "src/exec/row_partition.h"
#include "src/la/sparse_matrix.h"
#include "src/util/check.h"

namespace linbp {
namespace engine {
namespace {

// Visits the f64 row blocks of `backend` and fans each block out on
// `ctx` over nnz-balanced ranges of its rows (the split the fused sweep
// and the resident kernels use), calling rows(block, begin, end) once
// per range. Output rows belong to one range each, so per-row kernels
// give the same bits at every thread count and block split.
bool VisitRowRanges(
    const PropagationBackend& backend, std::int64_t work_per_entry,
    const exec::ExecContext& ctx,
    const std::function<void(const CsrBlock&, std::int64_t, std::int64_t)>&
        rows,
    std::string* error) {
  return backend.VisitRowBlocks(
      Precision::kF64, ctx,
      [&](const CsrBlock& block) {
        const exec::RowPartition ranges = exec::RowPartition::ForContext(
            ctx, block.row_ptr, block.num_rows, work_per_entry);
        ctx.RunBlocks(ranges.num_blocks(), [&](std::int64_t p) {
          rows(block, ranges.begin(p), ranges.end(p));
        });
      },
      error);
}

}  // namespace

bool PropagationBackend::MultiplyDense(const DenseMatrix& b,
                                       const exec::ExecContext& ctx,
                                       DenseMatrix* out,
                                       std::string* error) const {
  const std::int64_t k = b.cols();
  LINBP_CHECK(b.rows() == num_nodes());
  *out = DenseMatrix(num_nodes(), k);
  const double* b_data = b.data().data();
  double* out_data = out->mutable_data().data();
  return VisitRowRanges(
      *this, k, ctx,
      [&](const CsrBlock& block, std::int64_t begin, std::int64_t end) {
        SpmmRows(block.row_ptr, block.col_idx, block.values, begin, end,
                 b_data, k, out_data + block.row_begin * k);
      },
      error);
}

bool PropagationBackend::MultiplyVector(const std::vector<double>& x,
                                        const exec::ExecContext& ctx,
                                        std::vector<double>* y,
                                        std::string* error) const {
  LINBP_CHECK(static_cast<std::int64_t>(x.size()) == num_nodes());
  y->assign(num_nodes(), 0.0);
  double* y_data = y->data();
  return VisitRowRanges(
      *this, 1, ctx,
      [&](const CsrBlock& block, std::int64_t begin, std::int64_t end) {
        SpmvRows(block.row_ptr, block.col_idx, block.values, begin, end,
                 x.data(), y_data + block.row_begin);
      },
      error);
}

}  // namespace engine
}  // namespace linbp
