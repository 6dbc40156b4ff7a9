// ShardStreamReader: per-block reads match the bulk loader, every
// corruption is an error return, and the residency byte accounting is
// exact.

#include "src/dataset/shard_stream.h"

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "src/dataset/format_internal.h"
#include "src/dataset/registry.h"
#include "src/dataset/shard.h"
#include "src/dataset/snapshot.h"
#include "tests/testing/shard_bytes.h"
#include "tests/testing/test_util.h"

namespace linbp {
namespace dataset {
namespace {

using linbp::testing::FirstRowWithEntries;
using linbp::testing::GroupEnd;
using linbp::testing::LayoutOf;
using linbp::testing::ReadBytes;
using linbp::testing::ReadShard;
using linbp::testing::ReadTestVarint;
using linbp::testing::SetGroupEnd;
using linbp::testing::SetVarintBytes;
using linbp::testing::ShardLayout;
using linbp::testing::WriteBytes;
using linbp::testing::WriteField;
using linbp::testing::WriteForgedShard;

constexpr char kSpec[] = "sbm:n=600,k=3,deg=6,seed=11";
constexpr std::int64_t kShards = 4;
// Two shards of about 10,000 rows: five row groups each, so compressed
// decodes fan out.
constexpr char kMultiGroupSpec[] = "sbm:n=20000,k=3,deg=6,seed=11";
constexpr std::int64_t kMultiGroupShards = 2;

// The generated graph of `spec`, reweighted (WithEndpointWeights) unless
// `unit`: generated graphs are unit-weight, and most of the reader's
// checks are on the value section only a weighted graph has.
Scenario MakeTestScenario(const std::string& spec, bool unit = false) {
  std::string error;
  auto scenario = MakeScenario(spec, &error);
  EXPECT_TRUE(scenario.has_value()) << error;
  if (!unit) {
    scenario->graph = linbp::testing::WithEndpointWeights(scenario->graph);
  }
  return std::move(*scenario);
}

Scenario TestScenario() { return MakeTestScenario(kSpec); }

std::string ShardScenario(const Scenario& scenario, const std::string& name,
                          ShardCompression compression =
                              ShardCompression::kF64,
                          std::int64_t shards = kShards) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::string error;
  const auto result =
      ShardSnapshot(scenario, shards, dir, &error, compression);
  EXPECT_TRUE(result.has_value()) << error;
  return result.has_value() ? result->manifest_path : "";
}

ShardStreamReader OpenReader(const std::string& manifest) {
  std::string error;
  auto reader = ShardStreamReader::Open(manifest, &error);
  EXPECT_TRUE(reader.has_value()) << error;
  return std::move(*reader);
}

TEST(ShardStreamReaderTest, BlocksReassembleTheScenario) {
  for (const bool unit : {false, true}) {
    SCOPED_TRACE(unit ? "unit weights" : "weighted");
    const Scenario scenario = MakeTestScenario(kSpec, unit);
    const SparseMatrix& adjacency = scenario.graph.adjacency();
    ASSERT_EQ(adjacency.unit_weights(), unit);
    const std::string manifest = ShardScenario(scenario, "reader_blocks");
    const ShardStreamReader reader = OpenReader(manifest);
    EXPECT_EQ(reader.unit_weights(), unit);
    ASSERT_EQ(reader.num_shards(), kShards);
    EXPECT_EQ(reader.num_nodes(), scenario.graph.num_nodes());
    EXPECT_EQ(reader.nnz(), scenario.graph.num_directed_edges());
    EXPECT_EQ(reader.name(), scenario.name);
    EXPECT_EQ(reader.spec(), scenario.spec);

    const auto& row_ptr = adjacency.row_ptr();
    const auto& col_idx = adjacency.col_idx();
    std::int64_t covered_rows = 0;
    std::int64_t covered_nnz = 0;
    for (std::int64_t s = 0; s < reader.num_shards(); ++s) {
      ShardStreamBlock block;
      std::string error;
      ASSERT_TRUE(reader.ReadBlock(s, &block, &error)) << error;
      EXPECT_EQ(block.shard, s);
      EXPECT_EQ(block.row_begin, reader.row_begin(s));
      EXPECT_EQ(block.row_end, reader.row_end(s));
      covered_rows += block.num_rows();
      covered_nnz += block.nnz();
      // Every entry matches the monolithic CSR's slice.
      const std::int64_t nnz_begin = row_ptr[block.row_begin];
      for (std::int64_t r = 0; r < block.num_rows(); ++r) {
        EXPECT_EQ(block.row_ptr[r], row_ptr[block.row_begin + r] - nnz_begin);
      }
      // A unit-weight block holds no values, a weighted one every weight.
      EXPECT_TRUE(block.values_f32.empty());
      EXPECT_EQ(block.values.empty(), unit);
      EXPECT_EQ(reader.block_csr_bytes(s),
                (block.num_rows() + 1) * 8 + block.nnz() * (unit ? 4 : 12));
      for (std::int64_t e = 0; e < block.nnz(); ++e) {
        EXPECT_EQ(block.col_idx[e], col_idx[nnz_begin + e]);
        EXPECT_EQ(unit ? 1.0 : block.values[e],
                  adjacency.weight(nnz_begin + e));
      }
      for (std::size_t i = 0; i < block.explicit_nodes.size(); ++i) {
        const std::int64_t v = block.explicit_nodes[i];
        for (std::int64_t c = 0; c < reader.k(); ++c) {
          EXPECT_EQ(block.explicit_rows[i * reader.k() + c],
                    scenario.explicit_residuals.At(v, c));
        }
      }
    }
    EXPECT_EQ(covered_rows, scenario.graph.num_nodes());
    EXPECT_EQ(covered_nnz, scenario.graph.num_directed_edges());
  }
}

TEST(ShardStreamReaderTest, ResidencyAccountingIsExact) {
  const Scenario scenario = TestScenario();
  const std::string manifest = ShardScenario(scenario, "reader_bytes");
  const ShardStreamReader reader = OpenReader(manifest);
  EXPECT_EQ(reader.resident_csr_bytes(), 0);
  EXPECT_EQ(reader.peak_resident_csr_bytes(), 0);

  std::string error;
  {
    ShardStreamBlock a;
    ASSERT_TRUE(reader.ReadBlock(0, &a, &error)) << error;
    EXPECT_EQ(reader.resident_csr_bytes(), reader.block_csr_bytes(0));
    {
      ShardStreamBlock b;
      ASSERT_TRUE(reader.ReadBlock(1, &b, &error)) << error;
      EXPECT_EQ(reader.resident_csr_bytes(),
                reader.block_csr_bytes(0) + reader.block_csr_bytes(1));
      // Move transfers, not duplicates, the accounting.
      ShardStreamBlock moved = std::move(b);
      EXPECT_EQ(reader.resident_csr_bytes(),
                reader.block_csr_bytes(0) + reader.block_csr_bytes(1));
    }
    EXPECT_EQ(reader.resident_csr_bytes(), reader.block_csr_bytes(0));
  }
  EXPECT_EQ(reader.resident_csr_bytes(), 0);
  EXPECT_EQ(reader.peak_resident_csr_bytes(),
            reader.block_csr_bytes(0) + reader.block_csr_bytes(1));
  EXPECT_LE(reader.block_csr_bytes(0), reader.max_block_csr_bytes());
}

TEST(ShardStreamReaderTest, RejectsEveryCorruption) {
  const Scenario scenario = TestScenario();
  const std::string manifest = ShardScenario(scenario, "reader_corrupt");
  const std::string shard1 =
      std::filesystem::path(manifest).parent_path() / ShardFileName(1);
  const std::vector<char> pristine = ReadBytes(shard1);

  const ShardStreamReader reader = OpenReader(manifest);
  ShardStreamBlock block;
  std::string error;

  // Payload bit flip -> checksum mismatch.
  std::vector<char> bytes = pristine;
  bytes[64 + 33] ^= 0x04;
  WriteBytes(shard1, bytes);
  EXPECT_FALSE(reader.ReadBlock(1, &block, &error));
  EXPECT_NE(error.find("checksum mismatch"), std::string::npos) << error;
  EXPECT_EQ(reader.resident_csr_bytes(), 0);

  // Header row range disagreeing with the manifest.
  bytes = pristine;
  bytes[16] ^= 0x01;
  WriteBytes(shard1, bytes);
  EXPECT_FALSE(reader.ReadBlock(1, &block, &error));
  EXPECT_NE(error.find("disagrees with its manifest entry"),
            std::string::npos)
      << error;

  // Truncation below the declared payload.
  bytes = pristine;
  bytes.resize(bytes.size() - 16);
  WriteBytes(shard1, bytes);
  EXPECT_FALSE(reader.ReadBlock(1, &block, &error));

  // Wrong magic.
  bytes = pristine;
  bytes[0] = 'X';
  WriteBytes(shard1, bytes);
  EXPECT_FALSE(reader.ReadBlock(1, &block, &error));
  EXPECT_NE(error.find("bad magic"), std::string::npos) << error;

  // Missing file.
  std::filesystem::remove(shard1);
  EXPECT_FALSE(reader.ReadBlock(1, &block, &error));
  EXPECT_NE(error.find("cannot open"), std::string::npos) << error;

  // Restored bytes read cleanly again (the reader holds no stale state).
  WriteBytes(shard1, pristine);
  EXPECT_TRUE(reader.ReadBlock(1, &block, &error)) << error;
  EXPECT_EQ(reader.resident_csr_bytes(), reader.block_csr_bytes(1));
}

TEST(ShardStreamReaderTest, OpenValidatesTheManifest) {
  const Scenario scenario = TestScenario();
  const std::string manifest = ShardScenario(scenario, "reader_manifest");
  std::string error;
  EXPECT_FALSE(
      ShardStreamReader::Open("/nonexistent/manifest.lbpm", &error)
          .has_value());

  std::vector<char> bytes = ReadBytes(manifest);
  bytes[70] ^= 0x10;
  WriteBytes(manifest, bytes);
  EXPECT_FALSE(ShardStreamReader::Open(manifest, &error).has_value());
  EXPECT_NE(error.find("checksum mismatch"), std::string::npos) << error;
}

// ---- Decode corruption ----------------------------------------------------

// Applies `mutate` to shard `index` of `manifest`, re-forges every
// checksum on the path to it, then expects the streamed and the bulk
// load both to fail with `what` and the reader to hold nothing. The
// pristine bytes are restored afterwards.
void ExpectRejected(const std::string& manifest, std::int64_t index,
                    const std::string& what,
                    const std::function<void(std::vector<char>*)>& mutate) {
  SCOPED_TRACE(what);
  const std::vector<char> shard_pristine = ReadShard(manifest, index);
  std::vector<char> shard = shard_pristine;
  mutate(&shard);
  WriteForgedShard(manifest, index, std::move(shard));

  std::string error;
  auto reader = ShardStreamReader::Open(manifest, &error);
  ASSERT_TRUE(reader.has_value()) << error;
  ShardStreamBlock block;
  EXPECT_FALSE(reader->ReadBlock(index, &block, &error));
  EXPECT_NE(error.find(what), std::string::npos) << error;
  EXPECT_EQ(reader->resident_csr_bytes(), 0);
  EXPECT_FALSE(LoadShardedSnapshot(manifest, &error).has_value());
  EXPECT_NE(error.find(what), std::string::npos) << error;
  WriteForgedShard(manifest, index, shard_pristine);
}

TEST(ShardStreamReaderTest, CompressedBlocksMatchTheMonolithicCsr) {
  const Scenario scenario = TestScenario();
  for (const bool f32 : {false, true}) {
    const std::string manifest = ShardScenario(
        scenario, f32 ? "v2_blocks_f32" : "v2_blocks_f64",
        f32 ? ShardCompression::kF32 : ShardCompression::kF64);
    const ShardStreamReader reader = OpenReader(manifest);
    EXPECT_EQ(reader.values_f32(), f32);
    const auto& row_ptr = scenario.graph.adjacency().row_ptr();
    const auto& col_idx = scenario.graph.adjacency().col_idx();
    const auto& values = scenario.graph.adjacency().values();
    for (std::int64_t s = 0; s < reader.num_shards(); ++s) {
      ShardStreamBlock block;
      std::string error;
      ASSERT_TRUE(reader.ReadBlock(s, &block, &error)) << error;
      // Exactly one value representation is populated per block.
      EXPECT_EQ(block.values.empty(), f32);
      EXPECT_EQ(block.values_f32.empty(), !f32);
      const std::int64_t nnz_begin = row_ptr[block.row_begin];
      for (std::int64_t r = 0; r < block.num_rows(); ++r) {
        ASSERT_EQ(block.row_ptr[r],
                  row_ptr[block.row_begin + r] - nnz_begin);
      }
      for (std::int64_t e = 0; e < block.nnz(); ++e) {
        ASSERT_EQ(block.col_idx[e], col_idx[nnz_begin + e]);
        if (f32) {
          ASSERT_EQ(block.values_f32[e],
                    static_cast<float>(values[nnz_begin + e]));
        } else {
          ASSERT_EQ(block.values[e], values[nnz_begin + e]);
        }
      }
    }
  }
}

TEST(ShardStreamReaderTest, CompressedReadsCountEncodedBytes) {
  const Scenario scenario = TestScenario();
  const std::string manifest =
      ShardScenario(scenario, "v2_encoded", ShardCompression::kF64);
  const ShardStreamReader reader = OpenReader(manifest);
  const std::filesystem::path dir =
      std::filesystem::path(manifest).parent_path();
  std::int64_t expected_file = 0;
  std::int64_t expected_encoded = 0;
  std::string error;
  for (std::int64_t s = 0; s < reader.num_shards(); ++s) {
    ShardStreamBlock block;
    ASSERT_TRUE(reader.ReadBlock(s, &block, &error)) << error;
    const std::int64_t file_size = static_cast<std::int64_t>(
        std::filesystem::file_size(dir / ShardFileName(s)));
    expected_file += file_size;
    expected_encoded += file_size - 64;
  }
  EXPECT_EQ(reader.file_bytes_read_total(), expected_file);
  EXPECT_EQ(reader.encoded_bytes_read_total(), expected_encoded);
  // The whole point of v2: the wire bytes undercut the decoded CSR.
  EXPECT_LT(reader.encoded_bytes_read_total(),
            reader.csr_bytes_read_total());
}

// The compressed corruption matrix: every malformed column section is an
// error return naming the defect — never a crash — even when every
// checksum on the path to it has been re-forged to match the hostile
// bytes. The test shards have one row group each.
TEST(ShardStreamReaderTest, CompressedRejectsEveryColumnSectionCorruption) {
  const Scenario scenario = TestScenario();
  const std::string manifest =
      ShardScenario(scenario, "v2_corrupt", ShardCompression::kF64);
  const std::vector<char> shard_pristine = ReadShard(manifest, 1);
  ASSERT_EQ(LayoutOf(shard_pristine).groups, 1);

  // Row 1's entry-count varint leads the varints, after the table.
  ExpectRejected(manifest, 1, "row group 0: truncated varint",
                 [](std::vector<char>* shard) {
                   SetVarintBytes(shard, 1);
                   (*shard)[LayoutOf(*shard).varints] =
                       static_cast<char>(0x80);
                 });

  ExpectRejected(manifest, 1, "varint overflow (more than 5 bytes)",
                 [](std::vector<char>* shard) {
                   for (int i = 0; i < 5; ++i) {
                     (*shard)[LayoutOf(*shard).varints + i] =
                         static_cast<char>(0x80);
                   }
                 });

  ExpectRejected(manifest, 1, "column id out of range",
                 [](std::vector<char>* shard) {
                   const std::size_t off = FirstRowWithEntries(*shard, 0, 1);
                   // Overwrite the first (absolute) column id with the
                   // 5-byte varint for 2^32 - 1 — far past any node id.
                   const unsigned char huge[5] = {0xFF, 0xFF, 0xFF, 0xFF,
                                                  0x0F};
                   std::memcpy(shard->data() + off, huge, 5);
                 });

  ExpectRejected(manifest, 1,
                 "non-monotone delta (columns not strictly increasing)",
                 [](std::vector<char>* shard) {
                   std::size_t off = FirstRowWithEntries(*shard, 0, 2);
                   ReadTestVarint(*shard, &off);  // first column id
                   (*shard)[off] = 0x00;  // delta 0: not strictly rising
                 });

  ExpectRejected(manifest, 1, "trailing bytes in the column section",
                 [](std::vector<char>* shard) {
                   // Steal the first value's bytes.
                   SetVarintBytes(shard, LayoutOf(*shard).varint_bytes + 8);
                 });

  // A row listing itself. Only the row's first column id is rewritten
  // (possibly clobbering the byte after it): the decode stops right
  // there, so nothing behind it is read.
  ExpectRejected(manifest, 1, "self-loop", [](std::vector<char>* shard) {
    const ShardLayout layout = LayoutOf(*shard);
    std::size_t off = layout.varints;
    ASSERT_GE(ReadTestVarint(*shard, &off), 1u);
    std::vector<char> self;
    internal::AppendVarint(static_cast<std::uint64_t>(layout.row_begin),
                           &self);
    std::memcpy(shard->data() + off, self.data(), self.size());
  });

  // A NaN weight, caught as the value section is copied.
  ExpectRejected(manifest, 1, "invalid shard value section (row group 0: "
                              "non-finite weight)",
                 [](std::vector<char>* shard) {
                   const double nan = std::numeric_limits<double>::quiet_NaN();
                   std::memcpy(shard->data() + LayoutOf(*shard).values, &nan,
                               8);
                 });

  // Wrong value-section size: the file ends before the values the header
  // counts promise.
  ExpectRejected(manifest, 1, "truncated shard payload",
                 [](std::vector<char>* shard) {
                   shard->resize(shard->size() - 4);
                 });

  // Forged checksums around a tampered stored value: per-block structure
  // stays valid, so only the bulk loader's cross-shard symmetry sweep
  // can catch it — with an error, never a crash.
  {
    std::vector<char> shard = shard_pristine;
    const double tweaked = 7.5;
    std::memcpy(shard.data() + LayoutOf(shard).values, &tweaked, 8);
    WriteForgedShard(manifest, 1, std::move(shard));
    std::string error;
    EXPECT_FALSE(LoadShardedSnapshot(manifest, &error).has_value());
    EXPECT_NE(error.find("invalid adjacency payload"), std::string::npos)
        << error;
  }

  // Restored pristine bytes stream cleanly again.
  WriteForgedShard(manifest, 1, shard_pristine);
  const ShardStreamReader reader = OpenReader(manifest);
  ShardStreamBlock block;
  std::string error;
  EXPECT_TRUE(reader.ReadBlock(1, &block, &error)) << error;
}

// Each defect of the unit-weight flag fails the stream — at Open for a
// manifest defect, at the block read for a shard defect — with its
// message, and the reader holds nothing afterwards.
TEST(ShardStreamReaderTest, UnitWeightFormatDefectsFailWithPreciseErrors) {
  const Scenario scenario = linbp::testing::SparseUnitScenario();
  for (const auto& defect : linbp::testing::UnitFormatCases()) {
    SCOPED_TRACE(defect.name);
    const std::string manifest =
        ShardScenario(scenario, "reader_unit_defects", ShardCompression::kF64,
                      2);
    defect.forge(manifest);
    std::string error;
    auto reader = ShardStreamReader::Open(manifest, &error);
    if (reader.has_value()) {
      ShardStreamBlock block;
      EXPECT_FALSE(reader->ReadBlock(0, &block, &error));
      EXPECT_EQ(error, linbp::testing::ShardFilePath(manifest, 0) +
                           defect.error);
      EXPECT_EQ(reader->resident_csr_bytes(), 0);
    } else {
      EXPECT_EQ(error, manifest + defect.error);
    }
  }
}

// A shard set written before the unit-weight flag (value sections of
// 1.0s) streams its values as stored, and a fresh unit-weight set of the
// same scenario streams the same pattern with none.
TEST(ShardStreamReaderTest, LegacyValueSectionsStreamAsStored) {
  const Scenario scenario = MakeTestScenario(kSpec, /*unit=*/true);
  const std::string unit = ShardScenario(scenario, "reader_unit");
  const std::string legacy = ShardScenario(scenario, "reader_legacy");
  linbp::testing::ForgeLegacyValueSections(legacy);
  const ShardStreamReader unit_reader = OpenReader(unit);
  const ShardStreamReader legacy_reader = OpenReader(legacy);
  EXPECT_TRUE(unit_reader.unit_weights());
  EXPECT_FALSE(legacy_reader.unit_weights());
  for (std::int64_t s = 0; s < unit_reader.num_shards(); ++s) {
    ShardStreamBlock a;
    ShardStreamBlock b;
    std::string error;
    ASSERT_TRUE(unit_reader.ReadBlock(s, &a, &error)) << error;
    ASSERT_TRUE(legacy_reader.ReadBlock(s, &b, &error)) << error;
    EXPECT_EQ(a.row_ptr, b.row_ptr);
    EXPECT_EQ(a.col_idx, b.col_idx);
    EXPECT_TRUE(a.values.empty());
    EXPECT_EQ(b.values, std::vector<double>(b.col_idx.size(), 1.0));
    EXPECT_EQ(a.explicit_rows, b.explicit_rows);
    EXPECT_EQ(b.resident_csr_bytes() - a.resident_csr_bytes(), 8 * b.nnz());
  }
}

// A shard file that is a directory: the read is an error, never an
// allocation sized by whatever the OS reports for a directory.
TEST(ShardStreamReaderTest, ShardFileThatIsADirectoryIsAnError) {
  const Scenario scenario = TestScenario();
  const std::string manifest = ShardScenario(scenario, "reader_dir_entry");
  const std::string shard1 =
      std::filesystem::path(manifest).parent_path() / ShardFileName(1);
  std::filesystem::remove(shard1);
  std::filesystem::create_directory(shard1);

  const ShardStreamReader reader = OpenReader(manifest);
  ShardStreamBlock block;
  std::string error;
  EXPECT_FALSE(reader.ReadBlock(1, &block, &error));
  EXPECT_NE(error.find("not a regular file"), std::string::npos) << error;
  EXPECT_EQ(reader.resident_csr_bytes(), 0);
  EXPECT_FALSE(LoadShardedSnapshot(manifest, &error).has_value());
}

// ---- Block reuse ---------------------------------------------------------

void ExpectSameBlock(const ShardStreamBlock& expected,
                     const ShardStreamBlock& actual) {
  EXPECT_EQ(actual.shard, expected.shard);
  EXPECT_EQ(actual.row_begin, expected.row_begin);
  EXPECT_EQ(actual.row_end, expected.row_end);
  EXPECT_EQ(actual.row_ptr, expected.row_ptr);
  EXPECT_EQ(actual.col_idx, expected.col_idx);
  EXPECT_EQ(actual.values, expected.values);
  EXPECT_EQ(actual.values_f32, expected.values_f32);
  EXPECT_EQ(actual.explicit_nodes, expected.explicit_nodes);
  EXPECT_EQ(actual.explicit_rows, expected.explicit_rows);
  EXPECT_EQ(actual.ground_truth, expected.ground_truth);
  EXPECT_EQ(actual.resident_csr_bytes(), expected.resident_csr_bytes());
}

void ExpectEmptyBlock(const ShardStreamBlock& block) {
  EXPECT_EQ(block.num_rows(), 0);
  EXPECT_EQ(block.nnz(), 0);
  EXPECT_TRUE(block.row_ptr.empty());
  EXPECT_TRUE(block.col_idx.empty());
  EXPECT_TRUE(block.values.empty());
  EXPECT_TRUE(block.values_f32.empty());
  EXPECT_TRUE(block.explicit_nodes.empty());
  EXPECT_TRUE(block.explicit_rows.empty());
  EXPECT_TRUE(block.ground_truth.empty());
  EXPECT_EQ(block.resident_csr_bytes(), 0);
}

// A `.lbps` streams like any manifest: its one inline shard is the whole
// CSR, read from its range of the file.
TEST(ShardStreamReaderTest, InlineShardStreamsTheWholeScenario) {
  const Scenario scenario = TestScenario();
  const std::string path = ::testing::TempDir() + "/reader_inline.lbps";
  std::string error;
  ASSERT_TRUE(SaveSnapshot(scenario, path, &error)) << error;
  const ShardStreamReader reader = OpenReader(path);
  ASSERT_EQ(reader.num_shards(), 1);
  ShardStreamBlock block;
  ASSERT_TRUE(reader.ReadBlock(0, &block, &error)) << error;
  EXPECT_EQ(block.row_ptr, scenario.graph.adjacency().row_ptr());
  EXPECT_EQ(block.col_idx, scenario.graph.adjacency().col_idx());
  EXPECT_EQ(block.values, scenario.graph.adjacency().values());
  EXPECT_EQ(block.explicit_nodes, scenario.explicit_nodes);
  EXPECT_EQ(block.ground_truth, scenario.ground_truth);
  EXPECT_EQ(reader.file_bytes_read_total(),
            static_cast<std::int64_t>(std::filesystem::file_size(path)) -
                static_cast<std::int64_t>(
                    linbp::testing::ManifestBytes(ReadBytes(path))));

  // The file grown after Open: the next read fails before buffering it.
  const std::uintmax_t size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, std::uintmax_t{1} << 40);
  EXPECT_FALSE(reader.ReadBlock(0, &block, &error));
  EXPECT_EQ(error, path + ": oversized file (" +
                       std::to_string(std::uintmax_t{1} << 40) +
                       " bytes, expected " + std::to_string(size) + ")");
  ExpectEmptyBlock(block);
  std::filesystem::resize_file(path, size);
  EXPECT_TRUE(reader.ReadBlock(0, &block, &error)) << error;
}

// A refilled block equals a fresh read, member by member, whatever it
// held before: a larger shard with explicit nodes, ground truth and f32
// values from another manifest, or the previous shard of the same one.
// Its residency moves with it.
TEST(ShardStreamReaderTest, RefilledBlockEqualsAFreshRead) {
  const Scenario with_truth = TestScenario();
  std::string error;
  const auto without_truth = MakeScenario("kronecker:g=1,seed=4", &error);
  ASSERT_TRUE(without_truth.has_value()) << error;
  ASSERT_TRUE(with_truth.HasGroundTruth());
  ASSERT_FALSE(without_truth->HasGroundTruth());

  // One shard: every row, explicit node and ground-truth entry.
  const std::string source_dir = ::testing::TempDir() + "/reuse_source";
  std::filesystem::remove_all(source_dir);
  const auto written = ShardSnapshot(with_truth, 1, source_dir, &error,
                                     ShardCompression::kF32);
  ASSERT_TRUE(written.has_value()) << error;
  const ShardStreamReader source = OpenReader(written->manifest_path);

  const struct {
    const Scenario* scenario;
    ShardCompression compression;
    const char* name;
  } targets[] = {
      {&with_truth, ShardCompression::kF64, "reuse_f64"},
      {&*without_truth, ShardCompression::kF64, "reuse_plain_f64"},
  };
  for (const auto& target : targets) {
    SCOPED_TRACE(target.name);
    const ShardStreamReader reader = OpenReader(
        ShardScenario(*target.scenario, target.name, target.compression));
    ShardStreamBlock chained;  // walks every shard in turn
    std::vector<char> scratch;
    for (std::int64_t s = 0; s < reader.num_shards(); ++s) {
      ShardStreamBlock fresh;
      ASSERT_TRUE(reader.ReadBlock(s, &fresh, &error)) << error;
      ShardStreamBlock primed;
      ASSERT_TRUE(source.ReadBlock(0, &primed, &error)) << error;
      ASSERT_GT(primed.num_rows(), fresh.num_rows());
      ASSERT_FALSE(primed.explicit_nodes.empty());
      ASSERT_FALSE(primed.values_f32.empty());
      ASSERT_TRUE(reader.ReadBlock(s, &primed, &error, &scratch)) << error;
      ExpectSameBlock(fresh, primed);
      EXPECT_EQ(source.resident_csr_bytes(), 0);

      ASSERT_TRUE(reader.ReadBlock(s, &chained, &error, &scratch)) << error;
      ExpectSameBlock(fresh, chained);
      EXPECT_EQ(reader.resident_csr_bytes(), 3 * reader.block_csr_bytes(s));
    }
  }
}

// A failed read into a used block leaves it empty and uncounted, whether
// it fails before the block is sized (a missing file) or after (a NaN
// weight behind forged checksums).
TEST(ShardStreamReaderTest, FailedRefillLeavesTheBlockEmpty) {
  const Scenario scenario = TestScenario();
  const std::string manifest =
      ShardScenario(scenario, "refill_fail", ShardCompression::kF64);
  const std::string shard1 =
      std::filesystem::path(manifest).parent_path() / ShardFileName(1);
  std::vector<char> shard = ReadShard(manifest, 1);
  WriteField(&shard, LayoutOf(shard).values,
             std::numeric_limits<double>::quiet_NaN());
  WriteForgedShard(manifest, 1, std::move(shard));
  const ShardStreamReader reader = OpenReader(manifest);

  ShardStreamBlock block;
  std::vector<char> scratch;
  std::string error;
  ASSERT_TRUE(reader.ReadBlock(0, &block, &error, &scratch)) << error;
  EXPECT_FALSE(reader.ReadBlock(1, &block, &error, &scratch));
  EXPECT_NE(error.find("non-finite weight"), std::string::npos) << error;
  ExpectEmptyBlock(block);
  EXPECT_EQ(reader.resident_csr_bytes(), 0);

  ASSERT_TRUE(reader.ReadBlock(0, &block, &error, &scratch)) << error;
  std::filesystem::remove(shard1);
  EXPECT_FALSE(reader.ReadBlock(1, &block, &error, &scratch));
  EXPECT_NE(error.find("cannot open"), std::string::npos) << error;
  ExpectEmptyBlock(block);
  EXPECT_EQ(reader.resident_csr_bytes(), 0);

  // The emptied block is an ordinary block again.
  ASSERT_TRUE(reader.ReadBlock(0, &block, &error, &scratch)) << error;
  EXPECT_EQ(reader.resident_csr_bytes(), reader.block_csr_bytes(0));
}

// ---- Row groups ----------------------------------------------------------

// The row-group table is checked whole before any group decodes, and
// each group must consume exactly its bytes and yield exactly its
// entries: every inconsistency is an error naming it, on the streamed and
// the bulk path alike.
TEST(ShardStreamReaderTest, CompressedRejectsEveryRowGroupTableCorruption) {
  const std::string manifest =
      ShardScenario(MakeTestScenario(kMultiGroupSpec), "table_corrupt",
                    ShardCompression::kF64, kMultiGroupShards);
  const std::vector<char> pristine = ReadShard(manifest, 1);
  const ShardLayout layout = LayoutOf(pristine);
  ASSERT_GE(layout.groups, 4);
  const std::int64_t last = layout.groups - 1;
  std::uint64_t nnz = 0;
  std::memcpy(&nnz, pristine.data() + 32, 8);
  const auto table = [](const std::string& what) {
    return "invalid shard column section (row-group table: " + what + ")";
  };

  ExpectRejected(manifest, 1, table("byte ends decrease"),
                 [](std::vector<char>* shard) {
                   SetGroupEnd(shard, 1, 0, GroupEnd(*shard, 0, 0) - 1);
                 });
  ExpectRejected(manifest, 1, table("entry ends decrease"),
                 [](std::vector<char>* shard) {
                   SetGroupEnd(shard, 1, 1, GroupEnd(*shard, 0, 1) - 1);
                 });
  ExpectRejected(manifest, 1, table("byte end past the section"),
                 [&](std::vector<char>* shard) {
                   SetGroupEnd(shard, 1, 0, layout.varint_bytes + 1);
                 });
  ExpectRejected(manifest, 1, table("entry end past the header nnz"),
                 [&](std::vector<char>* shard) {
                   SetGroupEnd(shard, 1, 1, nnz + 1);
                 });
  ExpectRejected(manifest, 1, table("last byte end short of the section end"),
                 [&](std::vector<char>* shard) {
                   SetGroupEnd(shard, last, 0, layout.varint_bytes - 1);
                 });
  ExpectRejected(manifest, 1, table("last entry end short of the header nnz"),
                 [&](std::vector<char>* shard) {
                   SetGroupEnd(shard, last, 1, nnz - 1);
                 });
  // Group 1 loses its last byte, which ends the last varint of its last
  // row: the group stops mid-row. (Group 2 now starts one byte early and
  // fails too, but the lowest failing group is the one reported.)
  ExpectRejected(manifest, 1,
                 "invalid shard column section (row group 1: truncated "
                 "varint)",
                 [](std::vector<char>* shard) {
                   SetGroupEnd(shard, 1, 0, GroupEnd(*shard, 1, 0) - 1);
                 });
  // Group 1 claims one entry more than its rows hold.
  ExpectRejected(manifest, 1,
                 "invalid shard column section (row group 1: row entry "
                 "counts fall short of the row group's entries)",
                 [](std::vector<char>* shard) {
                   SetGroupEnd(shard, 1, 1, GroupEnd(*shard, 1, 1) + 1);
                 });
  // And one entry fewer.
  ExpectRejected(manifest, 1,
                 "invalid shard column section (row group 1: row entry "
                 "counts exceed the row group's entries)",
                 [](std::vector<char>* shard) {
                   SetGroupEnd(shard, 1, 1, GroupEnd(*shard, 1, 1) - 1);
                 });
}

template <typename T>
bool SameBytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) ==
                           0);
}

// Decoded at 1, 2, 4 and 8 threads, every block of a multi-group
// manifest is memcmp-equal to the serial read and to its slice of the
// monolithic CSR, with f64 values, with f32 values, and with none (unit
// weights).
TEST(ShardStreamReaderTest, MultiGroupBlocksAreIdenticalAtEveryThreadCount) {
  const Scenario weighted = MakeTestScenario(kMultiGroupSpec);
  const Scenario unit_weighted = MakeTestScenario(kMultiGroupSpec, true);
  std::vector<exec::ExecContext> contexts;
  for (const int threads : {1, 2, 4, 8}) {
    contexts.push_back(exec::ExecContext::WithThreads(threads));
  }
  for (const char* leg : {"f64", "f32", "unit"}) {
    SCOPED_TRACE(leg);
    const bool f32 = std::string(leg) == "f32";
    const bool unit = std::string(leg) == "unit";
    const Scenario& scenario = unit ? unit_weighted : weighted;
    const auto& row_ptr = scenario.graph.adjacency().row_ptr();
    const auto& col_idx = scenario.graph.adjacency().col_idx();
    const auto& values = scenario.graph.adjacency().values();
    ASSERT_EQ(values.empty(), unit);
    const ShardStreamReader reader = OpenReader(ShardScenario(
        scenario, std::string("multi_group_") + leg,
        f32 ? ShardCompression::kF32 : ShardCompression::kF64,
        kMultiGroupShards));
    for (std::int64_t s = 0; s < reader.num_shards(); ++s) {
      std::string error;
      ShardStreamBlock serial;
      ASSERT_TRUE(reader.ReadBlock(s, &serial, &error)) << error;
      const std::int64_t nnz_begin = row_ptr[serial.row_begin];
      const std::int64_t nnz_end = row_ptr[serial.row_end];
      std::vector<std::int64_t> expected_row_ptr;
      for (std::int64_t r = serial.row_begin; r <= serial.row_end; ++r) {
        expected_row_ptr.push_back(row_ptr[r] - nnz_begin);
      }
      EXPECT_TRUE(SameBytes(serial.row_ptr, expected_row_ptr));
      EXPECT_TRUE(SameBytes(
          serial.col_idx,
          std::vector<std::int32_t>(col_idx.begin() + nnz_begin,
                                    col_idx.begin() + nnz_end)));
      if (unit) {
        EXPECT_TRUE(serial.values.empty());
        EXPECT_TRUE(serial.values_f32.empty());
      } else {
        const std::vector<double> slice(values.begin() + nnz_begin,
                                        values.begin() + nnz_end);
        if (f32) {
          EXPECT_TRUE(SameBytes(
              serial.values_f32,
              std::vector<float>(slice.begin(), slice.end())));
        } else {
          EXPECT_TRUE(SameBytes(serial.values, slice));
        }
      }

      std::vector<char> bytes;
      ASSERT_TRUE(reader.FetchBlock(s, &bytes, &error)) << error;
      ASSERT_GE(LayoutOf(bytes).groups, 4);
      for (const exec::ExecContext& ctx : contexts) {
        SCOPED_TRACE(::testing::Message() << "threads " << ctx.threads());
        ShardStreamBlock block;
        ASSERT_TRUE(reader.DecodeBlock(s, bytes, ctx, &block, &error))
            << error;
        EXPECT_TRUE(SameBytes(block.row_ptr, serial.row_ptr));
        EXPECT_TRUE(SameBytes(block.col_idx, serial.col_idx));
        EXPECT_TRUE(SameBytes(block.values, serial.values));
        EXPECT_TRUE(SameBytes(block.values_f32, serial.values_f32));
        ExpectSameBlock(serial, block);
      }
    }
  }
}

// Defects in groups 2, 3 and 4 of one shard: groups 3 and 4 fail at
// their first rows, group 2 only at its last weight, so lanes running
// groups 3 or 4 find their defects first (the shard is dense, so a group
// takes far longer to decode than a pool lane takes to wake). The decode
// still reports group 2's, with the same message at every thread count,
// on every repetition, and from the bulk loader.
TEST(ShardStreamReaderTest, MultiGroupErrorIsTheSameAtEveryThreadCount) {
  const std::string manifest = ShardScenario(
      MakeTestScenario("sbm:n=10240,k=3,deg=40,seed=11"),
      "multi_group_error", ShardCompression::kF64, 1);
  std::vector<char> shard = ReadShard(manifest, 0);
  ASSERT_EQ(LayoutOf(shard).groups, 5);
  for (const std::int64_t g : {3, 4}) {
    std::size_t off = FirstRowWithEntries(shard, g, 2);
    ReadTestVarint(shard, &off);  // first column id
    shard[off] = 0x00;            // delta 0
  }
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::memcpy(shard.data() + LayoutOf(shard).values +
                  8 * (GroupEnd(shard, 2, 1) - 1),
              &nan, 8);  // group 2's last weight
  WriteForgedShard(manifest, 0, std::move(shard));

  const ShardStreamReader reader = OpenReader(manifest);
  std::vector<char> bytes;
  std::string error;
  ASSERT_TRUE(reader.FetchBlock(0, &bytes, &error)) << error;
  const std::string expected =
      "invalid shard value section (row group 2: non-finite weight)";
  std::string first;
  for (const int threads : {1, 2, 4, 8}) {
    SCOPED_TRACE(::testing::Message() << "threads " << threads);
    const exec::ExecContext ctx = exec::ExecContext::WithThreads(threads);
    for (int rep = 0; rep < 10; ++rep) {
      ShardStreamBlock block;
      EXPECT_FALSE(reader.DecodeBlock(0, bytes, ctx, &block, &error));
      EXPECT_NE(error.find(expected), std::string::npos) << error;
      if (first.empty()) first = error;
      EXPECT_EQ(error, first);
      ExpectEmptyBlock(block);
      EXPECT_EQ(reader.resident_csr_bytes(), 0);
    }
  }
  for (const int threads : {1, 4}) {
    EXPECT_FALSE(LoadShardedSnapshot(manifest, &error,
                                     exec::ExecContext::WithThreads(threads))
                     .has_value());
    EXPECT_EQ(error, first);
  }
}

// A shard file longer than its manifest entry declares fails before it is
// read — the size is known up front, so a grown file (here sparse, far
// beyond memory) is never buffered, on the streamed and the bulk path.
TEST(ShardStreamReaderTest, OversizedShardFileFailsBeforeItIsRead) {
  const Scenario scenario = TestScenario();
  const std::string manifest = ShardScenario(scenario, "oversized_shard");
  const std::string shard1 =
      std::filesystem::path(manifest).parent_path() / ShardFileName(1);
  const std::uintmax_t size = std::filesystem::file_size(shard1);
  const ShardStreamReader reader = OpenReader(manifest);
  for (const std::uintmax_t grown : {size + 1, std::uintmax_t{1} << 40}) {
    std::filesystem::resize_file(shard1, grown);
    const std::string expected = shard1 + ": oversized file (" +
                                 std::to_string(grown) + " bytes, expected " +
                                 std::to_string(size) + ")";
    ShardStreamBlock block;
    std::string error;
    EXPECT_FALSE(reader.ReadBlock(1, &block, &error));
    EXPECT_EQ(error, expected);
    ExpectEmptyBlock(block);
    EXPECT_EQ(reader.resident_csr_bytes(), 0);
    std::vector<char> bytes;
    EXPECT_FALSE(reader.FetchBlock(1, &bytes, &error));
    EXPECT_EQ(error, expected);
    EXPECT_TRUE(bytes.empty());
    EXPECT_FALSE(LoadShardedSnapshot(manifest, &error).has_value());
    EXPECT_EQ(error, expected);
  }
  // The bulk loader's preflight checks every size before it reads any
  // shard, so a corrupt shard 0 does not get to report first.
  const std::string shard0 =
      std::filesystem::path(manifest).parent_path() / ShardFileName(0);
  const std::vector<char> pristine0 = ReadBytes(shard0);
  std::vector<char> corrupt0 = pristine0;
  corrupt0[64 + 3] ^= 0x10;
  WriteBytes(shard0, corrupt0);
  std::string error;
  EXPECT_FALSE(LoadShardedSnapshot(manifest, &error).has_value());
  EXPECT_NE(error.find(shard1 + ": oversized file"), std::string::npos)
      << error;
  WriteBytes(shard0, pristine0);

  // Cut back to size, the shard reads cleanly again.
  std::filesystem::resize_file(shard1, size);
  ShardStreamBlock block;
  EXPECT_TRUE(reader.ReadBlock(1, &block, &error)) << error;
  EXPECT_TRUE(LoadShardedSnapshot(manifest, &error).has_value()) << error;
}

// Open reads a manifest through the one head read: one grown by a byte,
// or to 1 TiB (sparse), fails before it is buffered — beside its shards
// and with them inline.
TEST(ShardStreamReaderTest, OversizedManifestFailsOpen) {
  const Scenario scenario = TestScenario();
  const std::string inline_path = ::testing::TempDir() + "/open_big.lbps";
  std::string error;
  ASSERT_TRUE(SaveSnapshot(scenario, inline_path, &error)) << error;
  for (const std::string& manifest :
       {ShardScenario(scenario, "oversized_manifest"), inline_path}) {
    SCOPED_TRACE(manifest);
    const std::uintmax_t size = std::filesystem::file_size(manifest);
    for (const std::uintmax_t grown : {size + 1, std::uintmax_t{1} << 40}) {
      std::filesystem::resize_file(manifest, grown);
      EXPECT_FALSE(ShardStreamReader::Open(manifest, &error).has_value());
      EXPECT_EQ(error, manifest + ": oversized file (" +
                           std::to_string(grown) + " bytes, expected " +
                           std::to_string(size) + ")");
    }
    std::filesystem::resize_file(manifest, size);
    EXPECT_TRUE(ShardStreamReader::Open(manifest, &error).has_value())
        << error;
  }
}

// ---- Decoded-block cache -------------------------------------------------

TEST(ShardBlockCacheTest, LruEvictsToStayWithinBudget) {
  const Scenario scenario = TestScenario();
  const std::string manifest = ShardScenario(scenario, "cache_lru");
  const ShardStreamReader reader = OpenReader(manifest);
  std::string error;

  auto read_block = [&](std::int64_t s) {
    auto block = std::make_shared<ShardStreamBlock>();
    EXPECT_TRUE(reader.ReadBlock(s, block.get(), &error)) << error;
    return std::shared_ptr<const ShardStreamBlock>(std::move(block));
  };

  // Budget for roughly two blocks.
  ShardBlockCache cache(2 * reader.max_block_csr_bytes());
  EXPECT_EQ(cache.Lookup(0), nullptr);
  EXPECT_EQ(cache.misses_total(), 1);
  cache.Insert(0, read_block(0));
  cache.Insert(1, read_block(1));
  EXPECT_NE(cache.Lookup(0), nullptr);
  EXPECT_NE(cache.Lookup(1), nullptr);
  EXPECT_EQ(cache.hits_total(), 2);
  EXPECT_LE(cache.cached_bytes(), cache.budget_bytes());

  // A third block forces the least-recently-used entry out: block 0's
  // hit predates block 1's, so 0 is the victim.
  cache.Insert(2, read_block(2));
  EXPECT_GE(cache.evictions_total(), 1);
  EXPECT_LE(cache.cached_bytes(), cache.budget_bytes());
  EXPECT_EQ(cache.Lookup(0), nullptr);  // the LRU victim
  EXPECT_NE(cache.Lookup(2), nullptr);
}

TEST(ShardBlockCacheTest, ZeroBudgetAndOversizedBlocksNeverCache) {
  const Scenario scenario = TestScenario();
  const std::string manifest = ShardScenario(scenario, "cache_off");
  const ShardStreamReader reader = OpenReader(manifest);
  std::string error;
  auto block = std::make_shared<ShardStreamBlock>();
  ASSERT_TRUE(reader.ReadBlock(0, block.get(), &error)) << error;

  ShardBlockCache off(0);
  off.Insert(0, block);
  EXPECT_EQ(off.Lookup(0), nullptr);
  EXPECT_EQ(off.cached_bytes(), 0);

  // A budget smaller than the block: Insert is a no-op, not an eviction
  // storm.
  ShardBlockCache tiny(16);
  tiny.Insert(0, block);
  EXPECT_EQ(tiny.cached_bytes(), 0);
  EXPECT_EQ(tiny.evictions_total(), 0);
  EXPECT_EQ(tiny.Lookup(0), nullptr);
}

TEST(ShardBlockCacheTest, DuplicateInsertKeepsTheFirstBlock) {
  const Scenario scenario = TestScenario();
  const std::string manifest = ShardScenario(scenario, "cache_dup");
  const ShardStreamReader reader = OpenReader(manifest);
  std::string error;
  auto first = std::make_shared<ShardStreamBlock>();
  ASSERT_TRUE(reader.ReadBlock(0, first.get(), &error)) << error;
  auto second = std::make_shared<ShardStreamBlock>();
  ASSERT_TRUE(reader.ReadBlock(0, second.get(), &error)) << error;

  ShardBlockCache cache(8 * reader.max_block_csr_bytes());
  cache.Insert(0, first);
  const std::int64_t bytes_after_first = cache.cached_bytes();
  cache.Insert(0, second);
  EXPECT_EQ(cache.cached_bytes(), bytes_after_first);
  EXPECT_EQ(cache.Lookup(0).get(), first.get());
}

TEST(ShardManifestInfoTest, ReportsTotalShardPayloadBytes) {
  const Scenario scenario = TestScenario();
  const std::string manifest = ShardScenario(scenario, "reader_info");
  std::string error;
  const auto info = ReadShardManifestInfo(manifest, &error);
  ASSERT_TRUE(info.has_value()) << error;
  ASSERT_EQ(static_cast<std::int64_t>(info->shards.size()), kShards);
  // The declared payload bytes equal the on-disk file sizes minus the
  // 64-byte headers — the writer emits exactly the declared sections.
  std::int64_t total = 0;
  const std::filesystem::path dir =
      std::filesystem::path(manifest).parent_path();
  for (std::size_t s = 0; s < info->shards.size(); ++s) {
    const ShardRangeInfo& shard = info->shards[s];
    EXPECT_GT(shard.payload_bytes, 0);
    EXPECT_EQ(static_cast<std::uintmax_t>(shard.payload_bytes + 64),
              std::filesystem::file_size(dir / ShardFileName(s)));
    total += shard.payload_bytes;
  }
  EXPECT_EQ(info->total_encoded_payload_bytes, total);
  EXPECT_GT(info->total_shard_payload_bytes, info->file_bytes);
}

}  // namespace
}  // namespace dataset
}  // namespace linbp
