// Static partitions of a CSR row space into contiguous blocks.
//
// Parallel sparse kernels split rows, not entries, so a balanced split
// must account for the nonzeros per row: on skewed graphs a uniform row
// split leaves one thread with most of the work. NnzBalanced() cuts
// blocks of approximately equal nonzero count, finding each cut by binary
// search over the CSR row_ptr.
// The partition is a pure function of (row_ptr, max_blocks), which keeps
// parallel runs deterministic — and is the seam future sharded / out-of-
// core backends will reuse to assign row ranges to shards.

#ifndef LINBP_EXEC_ROW_PARTITION_H_
#define LINBP_EXEC_ROW_PARTITION_H_

#include <cstdint>
#include <vector>

#include "src/exec/exec_context.h"

namespace linbp {
namespace exec {

/// An ordered list of contiguous row blocks [begin(b), end(b)) that
/// exactly tiles [0, num_rows).
class RowPartition {
 public:
  /// At most `max_blocks` blocks of (almost) equal row count.
  static RowPartition Uniform(std::int64_t num_rows, std::int64_t max_blocks);

  /// At most `max_blocks` blocks of approximately equal stored-entry
  /// count, computed from a CSR row_ptr array (size num_rows + 1,
  /// monotone). Every block holds at least one row; fewer blocks are
  /// returned when rows run out.
  static RowPartition NnzBalanced(const std::vector<std::int64_t>& row_ptr,
                                  std::int64_t max_blocks);

  /// NnzBalanced over `num_rows` + 1 monotone offsets that need not start
  /// at 0 (the rows of a sub-range of a larger CSR).
  static RowPartition NnzBalanced(const std::int64_t* row_ptr,
                                  std::int64_t num_rows,
                                  std::int64_t max_blocks);

  /// The split a CSR kernel fans out over on `ctx`: one block when
  /// ctx.NumChunks(nnz * work_per_entry, kDefaultMinWorkPerChunk) is 1
  /// (serial context, or too little work to amortize a dispatch), else
  /// that many nnz-balanced blocks. Depends only on the row offsets,
  /// the work estimate and ctx's thread count.
  static RowPartition ForContext(const ExecContext& ctx,
                                 const std::int64_t* row_ptr,
                                 std::int64_t num_rows,
                                 std::int64_t work_per_entry);

  std::int64_t num_blocks() const {
    return static_cast<std::int64_t>(bounds_.size()) - 1;
  }
  std::int64_t begin(std::int64_t block) const { return bounds_[block]; }
  std::int64_t end(std::int64_t block) const { return bounds_[block + 1]; }

  /// Block boundaries: bounds()[b] .. bounds()[b+1] is block b.
  const std::vector<std::int64_t>& bounds() const { return bounds_; }

 private:
  explicit RowPartition(std::vector<std::int64_t> bounds)
      : bounds_(std::move(bounds)) {}

  std::vector<std::int64_t> bounds_;  // size num_blocks + 1, starts at 0
};

}  // namespace exec
}  // namespace linbp

#endif  // LINBP_EXEC_ROW_PARTITION_H_
