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
#include "tests/testing/test_util.h"

namespace linbp {
namespace dataset {
namespace {

using linbp::testing::ReadBytes;
using linbp::testing::WriteBytes;

constexpr char kSpec[] = "sbm:n=600,k=3,deg=6,seed=11";
constexpr std::int64_t kShards = 4;

Scenario TestScenario() {
  std::string error;
  auto scenario = MakeScenario(kSpec, &error);
  EXPECT_TRUE(scenario.has_value()) << error;
  return std::move(*scenario);
}

std::string ShardScenario(const Scenario& scenario, const std::string& name,
                          ShardCompression compression =
                              ShardCompression::kNone) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::string error;
  const auto result =
      ShardSnapshot(scenario, kShards, dir, &error, compression);
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
  const Scenario scenario = TestScenario();
  const std::string manifest = ShardScenario(scenario, "reader_blocks");
  const ShardStreamReader reader = OpenReader(manifest);
  ASSERT_EQ(reader.num_shards(), kShards);
  EXPECT_EQ(reader.num_nodes(), scenario.graph.num_nodes());
  EXPECT_EQ(reader.nnz(), scenario.graph.num_directed_edges());
  EXPECT_EQ(reader.name(), scenario.name);
  EXPECT_EQ(reader.spec(), scenario.spec);

  const auto& row_ptr = scenario.graph.adjacency().row_ptr();
  const auto& col_idx = scenario.graph.adjacency().col_idx();
  const auto& values = scenario.graph.adjacency().values();
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
    for (std::int64_t e = 0; e < block.nnz(); ++e) {
      EXPECT_EQ(block.col_idx[e], col_idx[nnz_begin + e]);
      EXPECT_EQ(block.values[e], values[nnz_begin + e]);
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

// ---- Compressed streams --------------------------------------------------

// Re-forges the payload checksum in a header, so the corruption tests
// can build checksum-valid hostile bytes that only the structural decode
// can reject.
void FixChecksum(std::vector<char>* bytes) {
  const std::uint64_t checksum =
      internal::PayloadChecksum(bytes->data() + 64, bytes->size() - 64);
  std::memcpy(bytes->data() + 56, &checksum, 8);
}

// Byte offset of shard `index`'s manifest entry; compressed entries carry
// an extra i64 payload_bytes before the checksum.
std::size_t ManifestEntryOffset(const std::vector<char>& manifest,
                                std::int64_t index) {
  std::uint32_t version = 0;
  std::memcpy(&version, manifest.data() + 8, 4);
  std::int64_t k = 0;
  std::memcpy(&k, manifest.data() + 24, 8);
  std::size_t off = 64;
  auto skip_string = [&] {
    std::uint32_t length = 0;
    std::memcpy(&length, manifest.data() + off, 4);
    off += 4 + length;
  };
  skip_string();  // name
  skip_string();  // spec
  off += static_cast<std::size_t>(k * k) * 8;  // coupling residual
  for (std::int64_t s = 0; s < index; ++s) {
    off += (IsCompressedShardVersion(version) ? 8 * 5 : 8 * 4) + 8;
    skip_string();  // file name
  }
  return off;
}

// Byte offset of the checksum inside shard `index`'s manifest entry.
std::size_t ManifestEntryChecksumOffset(const std::vector<char>& manifest,
                                        std::int64_t index) {
  std::uint32_t version = 0;
  std::memcpy(&version, manifest.data() + 8, 4);
  return ManifestEntryOffset(manifest, index) +
         (IsCompressedShardVersion(version) ? 8 * 5 : 8 * 4);
}

// Writes `shard` as shard `index`'s file and re-forges every checksum on
// the path to it (shard header, manifest entry, manifest header), so only
// the structural decode can reject the bytes.
void WriteForgedShard(const std::string& manifest, std::int64_t index,
                      std::vector<char> shard) {
  FixChecksum(&shard);
  WriteBytes(std::filesystem::path(manifest).parent_path() /
                 ShardFileName(index),
             shard);
  std::vector<char> man = ReadBytes(manifest);
  std::memcpy(man.data() + ManifestEntryChecksumOffset(man, index),
              shard.data() + 56, 8);
  FixChecksum(&man);
  WriteBytes(manifest, man);
}

// Reads one LEB128 varint from pristine test bytes (trusted input).
std::uint64_t ReadTestVarint(const std::vector<char>& bytes,
                             std::size_t* off) {
  std::uint64_t value = 0;
  int shift = 0;
  while (true) {
    const unsigned char byte = static_cast<unsigned char>(bytes[*off]);
    ++*off;
    value |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return value;
    shift += 7;
  }
}

TEST(ShardStreamReaderTest, CompressedBlocksMatchTheMonolithicCsr) {
  const Scenario scenario = TestScenario();
  for (const bool f32 : {false, true}) {
    const std::string manifest = ShardScenario(
        scenario, f32 ? "v2_blocks_f32" : "v2_blocks_f64",
        f32 ? ShardCompression::kF32 : ShardCompression::kF64);
    const ShardStreamReader reader = OpenReader(manifest);
    EXPECT_EQ(reader.version(), kShardFormatVersionCompressed);
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

TEST(ShardStreamReaderTest, UncompressedReadsCountNoEncodedBytes) {
  const Scenario scenario = TestScenario();
  const std::string manifest = ShardScenario(scenario, "v1_encoded");
  const ShardStreamReader reader = OpenReader(manifest);
  ShardStreamBlock block;
  std::string error;
  ASSERT_TRUE(reader.ReadBlock(0, &block, &error)) << error;
  EXPECT_EQ(reader.version(), kShardFormatVersionRaw);
  EXPECT_GT(reader.file_bytes_read_total(), 0);
  EXPECT_EQ(reader.encoded_bytes_read_total(), 0);
}

// The v2 corruption matrix: every malformed column section is an error
// return naming the defect — never a crash — even when every checksum on
// the path to it has been re-forged to match the hostile bytes.
TEST(ShardStreamReaderTest, CompressedRejectsEveryColumnSectionCorruption) {
  const Scenario scenario = TestScenario();
  const std::string manifest =
      ShardScenario(scenario, "v2_corrupt", ShardCompression::kF64);
  const std::string shard1 =
      std::filesystem::path(manifest).parent_path() / ShardFileName(1);
  const std::vector<char> shard_pristine = ReadBytes(shard1);
  const std::vector<char> manifest_pristine = ReadBytes(manifest);

  // Applies `mutate` to shard 1, re-forges every checksum on the path to
  // it, then expects both the streamed and the bulk load to fail with
  // `what`.
  const auto expect_rejected =
      [&](const std::string& what,
          const std::function<void(std::vector<char>*)>& mutate) {
        std::vector<char> shard = shard_pristine;
        mutate(&shard);
        WriteForgedShard(manifest, 1, std::move(shard));

        std::string error;
        auto reader = ShardStreamReader::Open(manifest, &error);
        ASSERT_TRUE(reader.has_value()) << what << ": " << error;
        ShardStreamBlock block;
        EXPECT_FALSE(reader->ReadBlock(1, &block, &error)) << what;
        EXPECT_NE(error.find(what), std::string::npos)
            << what << " -> " << error;
        EXPECT_EQ(reader->resident_csr_bytes(), 0) << what;
        EXPECT_FALSE(LoadShardedSnapshot(manifest, &error).has_value())
            << what;
        EXPECT_NE(error.find(what), std::string::npos)
            << what << " -> " << error;
      };

  // The column section starts at byte 72: 64-byte header, then the u64
  // encoded-section size. Row 1's nnz varint leads the section.
  expect_rejected("truncated varint", [](std::vector<char>* shard) {
    const std::uint64_t one = 1;
    std::memcpy(shard->data() + 64, &one, 8);
    (*shard)[72] = static_cast<char>(0x80);
  });

  expect_rejected("varint overflow (more than 5 bytes)",
                  [](std::vector<char>* shard) {
                    for (int i = 0; i < 5; ++i) {
                      (*shard)[72 + i] = static_cast<char>(0x80);
                    }
                  });

  expect_rejected("column id out of range", [&](std::vector<char>* shard) {
    std::size_t off = 72;
    const std::uint64_t nnz0 = ReadTestVarint(*shard, &off);
    ASSERT_GE(nnz0, 1u);
    // Overwrite the first (absolute) column id with the 5-byte varint
    // for 2^32 - 1 — far past any node id.
    const unsigned char huge[5] = {0xFF, 0xFF, 0xFF, 0xFF, 0x0F};
    std::memcpy(shard->data() + off, huge, 5);
  });

  expect_rejected("non-monotone delta (columns not strictly increasing)",
                  [&](std::vector<char>* shard) {
                    std::size_t off = 72;
                    const std::uint64_t nnz0 = ReadTestVarint(*shard, &off);
                    ASSERT_GE(nnz0, 2u);
                    ReadTestVarint(*shard, &off);  // first column id
                    (*shard)[off] = 0x00;  // delta 0: not strictly rising
                  });

  expect_rejected("trailing bytes in the column section",
                  [](std::vector<char>* shard) {
                    std::uint64_t encoded = 0;
                    std::memcpy(&encoded, shard->data() + 64, 8);
                    encoded += 8;  // steal the first value's bytes
                    std::memcpy(shard->data() + 64, &encoded, 8);
                  });

  // A row listing itself. Only the row's first column id is rewritten
  // (possibly clobbering the byte after it): the decode stops right
  // there, so nothing behind it is read.
  expect_rejected("self-loop", [&](std::vector<char>* shard) {
    std::int64_t row_begin = 0;
    std::memcpy(&row_begin, shard->data() + 16, 8);
    std::size_t off = 72;
    const std::uint64_t nnz0 = ReadTestVarint(*shard, &off);
    ASSERT_GE(nnz0, 1u);
    std::vector<char> self;
    internal::AppendVarint(static_cast<std::uint64_t>(row_begin), &self);
    std::memcpy(shard->data() + off, self.data(), self.size());
  });

  // A NaN weight, caught as the value section is copied.
  expect_rejected("non-finite weight", [](std::vector<char>* shard) {
    std::uint64_t encoded = 0;
    std::memcpy(&encoded, shard->data() + 64, 8);
    const double nan = std::numeric_limits<double>::quiet_NaN();
    std::memcpy(shard->data() + 72 + encoded, &nan, 8);
  });

  // Wrong value-section size: the file ends before the values the header
  // counts promise.
  {
    std::vector<char> shard = shard_pristine;
    shard.resize(shard.size() - 4);
    WriteForgedShard(manifest, 1, std::move(shard));
    std::string error;
    auto reader = ShardStreamReader::Open(manifest, &error);
    ASSERT_TRUE(reader.has_value()) << error;
    ShardStreamBlock block;
    EXPECT_FALSE(reader->ReadBlock(1, &block, &error));
    EXPECT_NE(error.find("truncated"), std::string::npos) << error;
  }

  // Forged checksums around a tampered stored value: per-block structure
  // stays valid, so only the bulk loader's cross-shard symmetry sweep
  // can catch it — with an error, never a crash.
  {
    std::vector<char> shard = shard_pristine;
    std::uint64_t encoded = 0;
    std::memcpy(&encoded, shard.data() + 64, 8);
    const double tweaked = 7.5;
    std::memcpy(shard.data() + 72 + encoded, &tweaked, 8);
    WriteForgedShard(manifest, 1, std::move(shard));
    std::string error;
    EXPECT_FALSE(LoadShardedSnapshot(manifest, &error).has_value());
    EXPECT_NE(error.find("invalid adjacency payload"), std::string::npos)
        << error;
  }

  // Restored pristine bytes stream cleanly again.
  WriteBytes(shard1, shard_pristine);
  WriteBytes(manifest, manifest_pristine);
  const ShardStreamReader reader = OpenReader(manifest);
  ShardStreamBlock block;
  std::string error;
  EXPECT_TRUE(reader.ReadBlock(1, &block, &error)) << error;
}

// Raw shards are copied verbatim and checked afterwards: the whole
// row_ptr must be monotone before any entry range in it is trusted.
TEST(ShardStreamReaderTest, RawRejectsNonMonotoneRowPointers) {
  const Scenario scenario = TestScenario();
  const std::string manifest = ShardScenario(scenario, "raw_row_ptr");
  std::vector<char> shard = ReadBytes(
      std::filesystem::path(manifest).parent_path() / ShardFileName(1));
  // row_ptr[1] far past nnz while row_ptr[0] <= row_ptr[1] holds: an
  // entry sweep trusting row 0's range would read far out of bounds.
  const std::int64_t huge = 1000000;
  std::memcpy(shard.data() + 64 + 8, &huge, 8);
  WriteForgedShard(manifest, 1, std::move(shard));
  const ShardStreamReader reader = OpenReader(manifest);
  ShardStreamBlock block;
  std::string error;
  EXPECT_FALSE(reader.ReadBlock(1, &block, &error));
  EXPECT_NE(error.find("invalid shard row pointers"), std::string::npos)
      << error;
  EXPECT_EQ(reader.resident_csr_bytes(), 0);
  EXPECT_FALSE(LoadShardedSnapshot(manifest, &error).has_value());
  EXPECT_NE(error.find("invalid shard row pointers"), std::string::npos)
      << error;
}

// A manifest entry naming a directory: the read is an error, never an
// allocation sized by whatever the OS reports for a directory.
TEST(ShardStreamReaderTest, ShardEntryNamingADirectoryIsAnError) {
  const Scenario scenario = TestScenario();
  const std::string manifest =
      ShardScenario(scenario, "reader_dir_entry", ShardCompression::kF64);
  std::vector<char> man = ReadBytes(manifest);
  // The u32 file-name length follows the entry's u64 checksum.
  const std::size_t name_at = ManifestEntryChecksumOffset(man, 1) + 8;
  std::uint32_t length = 0;
  std::memcpy(&length, man.data() + name_at, 4);
  const std::uint32_t one = 1;
  std::memcpy(man.data() + name_at, &one, 4);
  man.erase(man.begin() + name_at + 4, man.begin() + name_at + 4 + length);
  man.insert(man.begin() + name_at + 4, '.');
  FixChecksum(&man);
  WriteBytes(manifest, man);

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
      {&with_truth, ShardCompression::kNone, "reuse_raw"},
      {&with_truth, ShardCompression::kF64, "reuse_f64"},
      {&*without_truth, ShardCompression::kNone, "reuse_plain_raw"},
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
  std::vector<char> shard = ReadBytes(shard1);
  std::uint64_t encoded = 0;
  std::memcpy(&encoded, shard.data() + 64, 8);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::memcpy(shard.data() + 72 + encoded, &nan, 8);
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
  for (const ShardRangeInfo& shard : info->shards) {
    EXPECT_GT(shard.payload_bytes, 0);
    EXPECT_EQ(static_cast<std::uintmax_t>(shard.payload_bytes + 64),
              std::filesystem::file_size(dir / shard.file));
    total += shard.payload_bytes;
  }
  EXPECT_EQ(info->total_shard_payload_bytes, total);
  EXPECT_GT(info->total_shard_payload_bytes, info->file_bytes);
}

}  // namespace
}  // namespace dataset
}  // namespace linbp
