#include "src/exec/row_partition.h"

#include <algorithm>

#include "src/util/check.h"

namespace linbp {
namespace exec {

RowPartition RowPartition::Uniform(std::int64_t num_rows,
                                   std::int64_t max_blocks) {
  LINBP_CHECK(num_rows >= 0 && max_blocks >= 1);
  const std::int64_t blocks = std::max<std::int64_t>(
      1, std::min(max_blocks, num_rows));
  std::vector<std::int64_t> bounds(blocks + 1);
  for (std::int64_t b = 0; b <= blocks; ++b) {
    bounds[b] = b * num_rows / blocks;
  }
  return RowPartition(std::move(bounds));
}

RowPartition RowPartition::NnzBalanced(
    const std::vector<std::int64_t>& row_ptr, std::int64_t max_blocks) {
  LINBP_CHECK(!row_ptr.empty());
  return NnzBalanced(row_ptr.data(),
                     static_cast<std::int64_t>(row_ptr.size()) - 1,
                     max_blocks);
}

RowPartition RowPartition::NnzBalanced(const std::int64_t* row_ptr,
                                       std::int64_t num_rows,
                                       std::int64_t max_blocks) {
  LINBP_CHECK(num_rows >= 0 && max_blocks >= 1);
  const std::int64_t base = row_ptr[0];
  const std::int64_t total = row_ptr[num_rows] - base;
  if (total == 0) return Uniform(num_rows, max_blocks);
  const std::int64_t blocks = std::max<std::int64_t>(
      1, std::min(max_blocks, num_rows));

  // Cut block b at the first row whose cumulative nnz reaches the ideal
  // prefix (b+1) * total / blocks, always advancing at least one row so no
  // block is empty. row_ptr is monotone, so a binary search finds the
  // same cut a row-by-row walk would.
  std::vector<std::int64_t> bounds;
  bounds.reserve(blocks + 1);
  bounds.push_back(0);
  std::int64_t row = 0;
  for (std::int64_t b = 0; b < blocks && row < num_rows; ++b) {
    const std::int64_t target = base + (b + 1) * total / blocks;
    // Rows left must stay >= blocks remaining after this one.
    const std::int64_t max_cut = num_rows - (blocks - 1 - b);
    const std::int64_t cut =
        std::lower_bound(row_ptr + row + 1, row_ptr + max_cut, target) -
        row_ptr;
    bounds.push_back(cut);
    row = cut;
  }
  bounds.back() = num_rows;
  return RowPartition(std::move(bounds));
}

RowPartition RowPartition::ForContext(const ExecContext& ctx,
                                      const std::int64_t* row_ptr,
                                      std::int64_t num_rows,
                                      std::int64_t work_per_entry) {
  const std::int64_t nnz = row_ptr[num_rows] - row_ptr[0];
  const std::int64_t blocks =
      ctx.NumChunks(nnz * work_per_entry, kDefaultMinWorkPerChunk);
  if (blocks <= 1) return Uniform(num_rows, 1);
  return NnzBalanced(row_ptr, num_rows, blocks);
}

}  // namespace exec
}  // namespace linbp
