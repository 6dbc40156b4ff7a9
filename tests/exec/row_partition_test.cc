#include "src/exec/row_partition.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/util/random.h"

namespace linbp {
namespace exec {
namespace {

// Asserts the partition tiles [0, num_rows) with monotone bounds.
void ExpectTiles(const RowPartition& p, std::int64_t num_rows) {
  ASSERT_GE(p.num_blocks(), 1);
  EXPECT_EQ(p.begin(0), 0);
  EXPECT_EQ(p.end(p.num_blocks() - 1), num_rows);
  for (std::int64_t b = 0; b < p.num_blocks(); ++b) {
    EXPECT_LE(p.begin(b), p.end(b)) << "block " << b;
    if (b > 0) {
      EXPECT_EQ(p.begin(b), p.end(b - 1)) << "block " << b;
    }
  }
}

// CSR row_ptr from per-row nnz counts.
std::vector<std::int64_t> RowPtr(const std::vector<std::int64_t>& nnz) {
  std::vector<std::int64_t> row_ptr(nnz.size() + 1, 0);
  for (std::size_t r = 0; r < nnz.size(); ++r) {
    row_ptr[r + 1] = row_ptr[r] + nnz[r];
  }
  return row_ptr;
}

TEST(RowPartitionTest, UniformTilesTheRowRange) {
  const RowPartition p = RowPartition::Uniform(10, 3);
  EXPECT_EQ(p.num_blocks(), 3);
  ExpectTiles(p, 10);
}

TEST(RowPartitionTest, UniformClampsBlocksToRows) {
  const RowPartition p = RowPartition::Uniform(2, 8);
  EXPECT_EQ(p.num_blocks(), 2);
  ExpectTiles(p, 2);
}

TEST(RowPartitionTest, UniformHandlesZeroRows) {
  const RowPartition p = RowPartition::Uniform(0, 4);
  EXPECT_EQ(p.num_blocks(), 1);
  EXPECT_EQ(p.begin(0), 0);
  EXPECT_EQ(p.end(0), 0);
}

TEST(RowPartitionTest, NnzBalancedTilesAndHasNoEmptyBlocks) {
  const RowPartition p =
      RowPartition::NnzBalanced(RowPtr({5, 1, 1, 1, 1, 1, 1, 1, 5, 5}), 4);
  ExpectTiles(p, 10);
  EXPECT_LE(p.num_blocks(), 4);
  for (std::int64_t b = 0; b < p.num_blocks(); ++b) {
    EXPECT_GT(p.end(b) - p.begin(b), 0) << "block " << b;
  }
}

TEST(RowPartitionTest, NnzBalancedBalancesSkewedRows) {
  // One heavy row at the front: a uniform split would put all the work in
  // block 0; the nnz-balanced split isolates the heavy row.
  std::vector<std::int64_t> nnz(100, 1);
  nnz[0] = 1000;
  const auto row_ptr = RowPtr(nnz);
  const RowPartition p = RowPartition::NnzBalanced(row_ptr, 4);
  ExpectTiles(p, 100);
  // Block 0 must not extend past the heavy row plus a few light rows: its
  // nnz is within 2x of the ideal 1100 / 4 = 275... except the heavy row
  // alone exceeds it, so block 0 is exactly that indivisible row region.
  EXPECT_LE(p.end(0), 2);
  // The light tail is spread over the remaining blocks.
  EXPECT_GE(p.num_blocks(), 2);
}

TEST(RowPartitionTest, NnzBalancedHandlesEmptyMatrix) {
  const RowPartition p = RowPartition::NnzBalanced(RowPtr({0, 0, 0, 0}), 3);
  ExpectTiles(p, 4);
}

TEST(RowPartitionTest, NnzBalancedSingleBlock) {
  const RowPartition p = RowPartition::NnzBalanced(RowPtr({2, 3, 4}), 1);
  EXPECT_EQ(p.num_blocks(), 1);
  ExpectTiles(p, 3);
}

TEST(RowPartitionTest, NnzBalancedMoreBlocksThanRows) {
  const RowPartition p = RowPartition::NnzBalanced(RowPtr({7, 7}), 16);
  EXPECT_LE(p.num_blocks(), 2);
  ExpectTiles(p, 2);
}

TEST(RowPartitionTest, NnzBalancedSubRangeMatchesRebasedRows) {
  // Rows 3..9 of a larger CSR, addressed in place (offsets start at 14),
  // split exactly like the same rows rebased to start at 0.
  const auto row_ptr = RowPtr({5, 4, 5, 1, 7, 1, 1, 9, 2, 3});
  const std::vector<std::int64_t> rebased =
      RowPtr({1, 7, 1, 1, 9, 2, 3});
  for (const std::int64_t blocks : {1, 2, 3, 5}) {
    EXPECT_EQ(RowPartition::NnzBalanced(row_ptr.data() + 3, 7, blocks)
                  .bounds(),
              RowPartition::NnzBalanced(rebased, blocks).bounds())
        << blocks << " blocks";
  }
}

TEST(RowPartitionTest, ForContextFansOutOnlyWithWorkAndThreads) {
  const auto row_ptr = RowPtr(std::vector<std::int64_t>(64, 4));
  // Serial: one block however much work there is.
  const RowPartition serial = RowPartition::ForContext(
      ExecContext::Serial(), row_ptr.data(), 64, 1 << 20);
  EXPECT_EQ(serial.num_blocks(), 1);
  ExpectTiles(serial, 64);
  const ExecContext four = ExecContext::WithThreads(4);
  // 256 entries x 4 units is below one chunk's minimum work.
  EXPECT_EQ(RowPartition::ForContext(four, row_ptr.data(), 64, 4)
                .num_blocks(),
            1);
  // Enough work: one nnz-balanced block per thread.
  const RowPartition wide =
      RowPartition::ForContext(four, row_ptr.data(), 64, 64);
  EXPECT_EQ(wide.bounds(), RowPartition::NnzBalanced(row_ptr, 4).bounds());
}

TEST(RowPartitionTest, NnzBalancedEqualRowsSplitEvenly) {
  const RowPartition p =
      RowPartition::NnzBalanced(RowPtr(std::vector<std::int64_t>(64, 4)), 4);
  ASSERT_EQ(p.num_blocks(), 4);
  for (std::int64_t b = 0; b < 4; ++b) {
    EXPECT_EQ(p.end(b) - p.begin(b), 16) << "block " << b;
  }
}

// NnzBalanced's bounds as the row-by-row walk computed them before the
// binary search; shard.cc cuts shards with NnzBalanced, so the on-disk
// shard layout depends on these exact bounds.
std::vector<std::int64_t> WalkedBounds(const std::int64_t* row_ptr,
                                       std::int64_t num_rows,
                                       std::int64_t max_blocks) {
  const std::int64_t base = row_ptr[0];
  const std::int64_t total = row_ptr[num_rows] - base;
  if (total == 0) return RowPartition::Uniform(num_rows, max_blocks).bounds();
  const std::int64_t blocks = std::max<std::int64_t>(
      1, std::min(max_blocks, num_rows));
  std::vector<std::int64_t> bounds = {0};
  std::int64_t row = 0;
  for (std::int64_t b = 0; b < blocks && row < num_rows; ++b) {
    const std::int64_t target = base + (b + 1) * total / blocks;
    std::int64_t cut = row + 1;
    const std::int64_t max_cut = num_rows - (blocks - 1 - b);
    while (cut < max_cut && row_ptr[cut] < target) ++cut;
    bounds.push_back(cut);
    row = cut;
  }
  bounds.back() = num_rows;
  return bounds;
}

void ExpectWalkedBounds(const std::vector<std::int64_t>& row_ptr,
                        const std::string& label) {
  const std::int64_t num_rows = static_cast<std::int64_t>(row_ptr.size()) - 1;
  for (const std::int64_t blocks : {1, 2, 3, 4, 7, 8, 16, 64, 1000}) {
    EXPECT_EQ(RowPartition::NnzBalanced(row_ptr, blocks).bounds(),
              WalkedBounds(row_ptr.data(), num_rows, blocks))
        << label << ", " << blocks << " blocks";
  }
}

TEST(RowPartitionTest, NnzBalancedBoundsEqualTheRowWalk) {
  Rng rng(17);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<std::int64_t> nnz(rng.NextInt(1, 300));
    for (std::int64_t& count : nnz) {
      // Mostly light rows, some empty, a few heavy ones.
      count = rng.NextBernoulli(0.05) ? rng.NextInt(50, 500)
                                      : rng.NextInt(0, 12);
    }
    ExpectWalkedBounds(RowPtr(nnz), "random rows, trial " +
                                        std::to_string(trial));
  }

  std::vector<std::int64_t> dense_row(200, 2);
  dense_row[117] = 100000;
  ExpectWalkedBounds(RowPtr(dense_row), "one very dense row");

  std::vector<std::int64_t> one_row(150, 0);
  one_row[42] = 9;
  ExpectWalkedBounds(RowPtr(one_row), "all rows empty but one");

  ExpectWalkedBounds(RowPtr({3, 0, 5}), "more blocks than rows");
  ExpectWalkedBounds(RowPtr({4}), "a single row");

  // A sub-range of a larger CSR, addressed in place: offsets start at
  // row_ptr[37] != 0.
  std::vector<std::int64_t> nnz(400);
  for (std::int64_t& count : nnz) count = rng.NextInt(0, 20);
  const std::vector<std::int64_t> row_ptr = RowPtr(nnz);
  const std::int64_t first = 37;
  const std::int64_t rows = 250;
  ASSERT_NE(row_ptr[first], 0);
  for (const std::int64_t blocks : {1, 2, 3, 4, 8, 300}) {
    EXPECT_EQ(
        RowPartition::NnzBalanced(row_ptr.data() + first, rows, blocks)
            .bounds(),
        WalkedBounds(row_ptr.data() + first, rows, blocks))
        << "sub-range, " << blocks << " blocks";
  }
}

}  // namespace
}  // namespace exec
}  // namespace linbp
