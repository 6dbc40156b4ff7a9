// Propagation backends: where the adjacency matrix lives during a solve.
//
// Every LinBP-family algorithm reduces to passes over the rows of the
// (fixed, symmetric) adjacency matrix A against skinny dense operands,
// plus the diagonal degree echo term. The solvers in src/core therefore
// do not need a materialized Graph — only something that hands out A's
// rows and the weighted degrees. PropagationBackend is that seam, and
// it has one primitive: VisitRowBlocks hands A out as CSR row blocks.
// InMemoryBackend visits the resident CSR as one block, and
// ShardStreamBackend (src/engine/shard_stream_backend.h) streams the row
// blocks of a sharded snapshot, never holding more than two blocks' CSR
// in memory. Everything else is written once on the primitive: the fused
// LinBP / FaBP sweep (src/engine/backend_ops.h) and the SpMM / SpMV
// members below.
//
// Contract: for the same on-disk/in-memory matrix, every backend must
// produce BIT-IDENTICAL results at every thread count. The consumers run
// the row-range kernels in src/la/sparse_matrix.h (SpmmRows / SpmvRows /
// the fused LinBpRowsT), whose per-row results do not depend on how rows
// are grouped into blocks or ranges, so this holds by construction.
//
// Failure model: in-memory visits cannot fail; streamed ones can (I/O
// errors, checksum mismatches on a shard read mid-sweep). A failed visit
// returns false and fills *error instead of aborting, so a corrupted
// shard surfaces as a recoverable error with the caller's state intact.

#ifndef LINBP_ENGINE_PROPAGATION_BACKEND_H_
#define LINBP_ENGINE_PROPAGATION_BACKEND_H_

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/exec/exec_context.h"
#include "src/la/dense_matrix.h"
#include "src/la/precision.h"

namespace linbp {
namespace engine {

/// One contiguous row block of A in CSR form, as a block visitor sees
/// it. Local row r in [0, num_rows) is global row row_begin + r; its
/// entries are [row_ptr[r], row_ptr[r + 1]) of col_idx and the values,
/// and column ids are global. For a weighted A exactly one of `values` /
/// `values_f32` is set: the precision the visit asked for. For a unit-
/// weight A both are null — the row kernels' unit form — in either
/// precision, and no value is read, narrowed or widened.
struct CsrBlock {
  std::int64_t row_begin = 0;
  std::int64_t num_rows = 0;
  const std::int64_t* row_ptr = nullptr;  // num_rows + 1 offsets
  const std::int32_t* col_idx = nullptr;
  const double* values = nullptr;
  const float* values_f32 = nullptr;
};

/// Called once per block, in row order, on the visiting thread. Block
/// consumers fan out over exec::RowPartition::ForContext ranges of the
/// block's rows.
using BlockVisitor = std::function<void(const CsrBlock&)>;

/// Abstract provider of the n x n symmetric adjacency matrix A that every
/// LinBP / FaBP propagation step passes over.
class PropagationBackend {
 public:
  virtual ~PropagationBackend() = default;

  /// Number of nodes n (A is n x n).
  virtual std::int64_t num_nodes() const = 0;

  /// Number of stored adjacency entries (2x the undirected edge count).
  virtual std::int64_t num_stored_entries() const = 0;

  /// Weighted degrees d_s = sum of squared incident edge weights
  /// (Sect. 5.2), the diagonal of the echo term (row counts for a
  /// unit-weight A).
  virtual const std::vector<double>& weighted_degrees() const = 0;

  /// Visits A as CSR row blocks that tile [0, n) in row order, with the
  /// values in `precision`, calling `visit` once per block. The fused
  /// LinBP / FaBP sweep (src/engine/backend_ops.h) and the products below
  /// run on this primitive; `ctx` drives any I/O pipeline and the visitor
  /// fans out on it itself. The
  /// block's arrays live until `visit` returns. Returns false and fills
  /// *error on a stream failure: the blocks before the failing one were
  /// visited, no later one is.
  virtual bool VisitRowBlocks(Precision precision,
                              const exec::ExecContext& ctx,
                              const BlockVisitor& visit,
                              std::string* error) const = 0;

  /// *out = A * b (SpMM; b is n x k), on VisitRowBlocks: each block fans
  /// out on `ctx` over nnz-balanced ranges of its rows. Resizes *out.
  /// Returns false and fills *error on a stream failure; *out is
  /// unspecified then.
  bool MultiplyDense(const DenseMatrix& b, const exec::ExecContext& ctx,
                     DenseMatrix* out, std::string* error) const;

  /// *y = A * x (SpMV, stored zeros skipped), the same way. Resizes *y.
  /// Same failure contract as MultiplyDense.
  bool MultiplyVector(const std::vector<double>& x,
                      const exec::ExecContext& ctx, std::vector<double>* y,
                      std::string* error) const;
};

/// Thrown by the LinearOperator adapters in src/engine/backend_ops.h when
/// a backend product fails inside an iterative solver that has no error
/// channel of its own (power iteration, Jacobi). Callers that drive those
/// solvers over a streamed backend catch this and convert it back into an
/// error return.
class StreamError : public std::runtime_error {
 public:
  explicit StreamError(const std::string& message)
      : std::runtime_error(message) {}
};

}  // namespace engine
}  // namespace linbp

#endif  // LINBP_ENGINE_PROPAGATION_BACKEND_H_
