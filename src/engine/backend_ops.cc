#include "src/engine/backend_ops.h"

#include <algorithm>
#include <type_traits>
#include <utility>

#include "src/exec/row_partition.h"
#include "src/util/check.h"

namespace linbp {
namespace engine {
namespace {

// The operands every fused step shares: the coupling matrices, the
// degrees when the echo term is on, and the n x k buffers.
template <typename Scalar>
LinBpRowsArgs<Scalar> StepArgs(const PropagationBackend& backend,
                               const DenseMatrix& hhat,
                               const DenseMatrix* hhat2,
                               const Scalar* beliefs,
                               const Scalar* explicit_residuals,
                               Scalar* out) {
  const std::int64_t k = hhat.rows();
  LINBP_CHECK(hhat.cols() == k);
  LinBpRowsArgs<Scalar> args;
  args.k = k;
  args.beliefs = beliefs;
  args.hhat = hhat.data().data();
  if (hhat2 != nullptr) {
    LINBP_CHECK(hhat2->rows() == k && hhat2->cols() == k);
    LINBP_CHECK(static_cast<std::int64_t>(backend.weighted_degrees().size()) ==
                backend.num_nodes());
    args.hhat2 = hhat2->data().data();
    args.degrees = backend.weighted_degrees().data();
  }
  args.explicit_residuals = explicit_residuals;
  args.out = out;
  return args;
}

// Runs LinBpRowsT over every row of the backend: one block visit, each
// block fanned out on `ctx` over nnz-balanced ranges of its rows. Range
// statistics fold in row order — delta and magnitude are maxima,
// independent of the split; delta_sq is a sum, deterministic for a
// fixed backend and ctx.
template <typename Scalar>
bool RunLinBpRows(const PropagationBackend& backend,
                  const LinBpRowsArgs<Scalar>& args,
                  const exec::ExecContext& ctx, LinBpRowStats* stats,
                  std::string* error) {
  constexpr bool kF32 = std::is_same_v<Scalar, float>;
  std::vector<LinBpRowStats> partials;
  const bool visited = backend.VisitRowBlocks(
      kF32 ? Precision::kF32 : Precision::kF64, ctx,
      [&](const CsrBlock& block) {
        const exec::RowPartition ranges = exec::RowPartition::ForContext(
            ctx, block.row_ptr, block.num_rows, args.k);
        const std::size_t first = partials.size();
        partials.resize(first + ranges.num_blocks());
        ctx.RunBlocks(ranges.num_blocks(), [&](std::int64_t p) {
          LinBpRowsArgs<Scalar> range = args;
          range.row_ptr = block.row_ptr;
          range.col_idx = block.col_idx;
          if constexpr (kF32) {
            range.values = block.values_f32;
          } else {
            range.values = block.values;
          }
          range.row_begin = ranges.begin(p);
          range.row_end = ranges.end(p);
          range.row_offset = block.row_begin;
          partials[first + p] = LinBpRowsT<Scalar>(range);
        });
      },
      error);
  if (!visited) return false;
  *stats = LinBpRowStats();
  for (const LinBpRowStats& part : partials) {
    stats->delta = std::max(stats->delta, part.delta);
    stats->delta_sq += part.delta_sq;
    stats->magnitude = std::max(stats->magnitude, part.magnitude);
  }
  return true;
}

template <typename Matrix>
bool Sweep(const PropagationBackend& backend, const DenseMatrix& hhat,
           const DenseMatrix* hhat2, const Matrix& beliefs,
           const Matrix& explicit_residuals, const exec::ExecContext& ctx,
           Matrix* next, LinBpRowStats* stats, std::string* error) {
  const std::int64_t n = backend.num_nodes();
  const std::int64_t k = hhat.rows();
  LINBP_CHECK(beliefs.rows() == n && beliefs.cols() == k);
  LINBP_CHECK(explicit_residuals.rows() == n &&
              explicit_residuals.cols() == k);
  LINBP_CHECK(next->rows() == n && next->cols() == k && next != &beliefs);
  return RunLinBpRows(
      backend,
      StepArgs(backend, hhat, hhat2, beliefs.data().data(),
               explicit_residuals.data().data(),
               next->mutable_data().data()),
      ctx, stats, error);
}

// The propagate-only pass: *out = A*B*hhat - D*B*(*hhat2), no echo term
// when hhat2 is null.
bool Propagate(const PropagationBackend& backend, const DenseMatrix& hhat,
               const DenseMatrix* hhat2, const DenseMatrix& beliefs,
               const exec::ExecContext& ctx, DenseMatrix* out,
               std::string* error) {
  const std::int64_t n = backend.num_nodes();
  LINBP_CHECK(beliefs.rows() == n && beliefs.cols() == hhat.rows());
  LINBP_CHECK(out != &beliefs);
  *out = DenseMatrix(n, hhat.rows());
  LinBpRowStats unused;
  return RunLinBpRows(
      backend,
      StepArgs<double>(backend, hhat, hhat2, beliefs.data().data(), nullptr,
                       out->mutable_data().data()),
      ctx, &unused, error);
}

}  // namespace

bool BackendLinBpSweep(const PropagationBackend& backend,
                       const DenseMatrix& hhat, const DenseMatrix* hhat2,
                       const DenseMatrix& beliefs,
                       const DenseMatrix& explicit_residuals,
                       const exec::ExecContext& ctx, DenseMatrix* next,
                       LinBpRowStats* stats, std::string* error) {
  return Sweep(backend, hhat, hhat2, beliefs, explicit_residuals, ctx, next,
               stats, error);
}

bool BackendLinBpSweep(const PropagationBackend& backend,
                       const DenseMatrix& hhat, const DenseMatrix* hhat2,
                       const DenseMatrixF32& beliefs,
                       const DenseMatrixF32& explicit_residuals,
                       const exec::ExecContext& ctx, DenseMatrixF32* next,
                       LinBpRowStats* stats, std::string* error) {
  return Sweep(backend, hhat, hhat2, beliefs, explicit_residuals, ctx, next,
               stats, error);
}

bool BackendLinBpPropagate(const PropagationBackend& backend,
                           const DenseMatrix& hhat, const DenseMatrix& hhat2,
                           const DenseMatrix& beliefs, bool with_echo,
                           const exec::ExecContext& ctx, DenseMatrix* out,
                           std::string* error) {
  return Propagate(backend, hhat, with_echo ? &hhat2 : nullptr, beliefs, ctx,
                   out, error);
}

BackendAdjacencyOperator::BackendAdjacencyOperator(
    const PropagationBackend* backend, exec::ExecContext ctx)
    : backend_(backend), ctx_(std::move(ctx)) {
  LINBP_CHECK(backend_ != nullptr);
}

std::int64_t BackendAdjacencyOperator::dim() const {
  return backend_->num_nodes();
}

void BackendAdjacencyOperator::Apply(const std::vector<double>& x,
                                     std::vector<double>* y) const {
  std::string error;
  if (!backend_->MultiplyVector(x, ctx_, y, &error)) {
    throw StreamError(error);
  }
}

BackendLinBpOperator::BackendLinBpOperator(const PropagationBackend* backend,
                                           DenseMatrix modulation,
                                           const DenseMatrix* echo_modulation,
                                           exec::ExecContext ctx)
    : backend_(backend),
      modulation_(std::move(modulation)),
      ctx_(std::move(ctx)) {
  LINBP_CHECK(backend_ != nullptr);
  LINBP_CHECK(modulation_.rows() == modulation_.cols());
  if (echo_modulation != nullptr) echo_modulation_ = *echo_modulation;
}

std::int64_t BackendLinBpOperator::dim() const {
  return backend_->num_nodes() * modulation_.rows();
}

void BackendLinBpOperator::Apply(const std::vector<double>& x,
                                 std::vector<double>* y) const {
  const DenseMatrix b =
      UnvectorizeBeliefs(x, backend_->num_nodes(), modulation_.rows());
  DenseMatrix out;
  std::string error;
  if (!Propagate(*backend_, modulation_,
                 echo_modulation_ ? &*echo_modulation_ : nullptr, b, ctx_,
                 &out, &error)) {
    throw StreamError(error);
  }
  *y = VectorizeBeliefs(out);
}

}  // namespace engine
}  // namespace linbp
