#include "src/dataset/shard.h"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "src/dataset/format_internal.h"
#include "src/dataset/registry.h"
#include "src/dataset/snapshot.h"
#include "tests/testing/shard_bytes.h"
#include "tests/testing/test_util.h"

namespace linbp {
namespace dataset {
namespace {

using linbp::testing::ForgeLegacyValueSections;
using linbp::testing::ForgeManifest;
using linbp::testing::LayoutOf;
using linbp::testing::ManifestEntryOffset;
using linbp::testing::ReadBytes;
using linbp::testing::ReadField;
using linbp::testing::ReadShard;
using linbp::testing::ValueBytes;
using linbp::testing::WriteBytes;
using linbp::testing::WriteField;
using linbp::testing::WriteForgedShard;

std::string TempDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// (Value-returning helpers cannot ASSERT, and dereferencing an empty
// optional after a failed EXPECT is UB — so both report the failure and
// return an inert sentinel the caller's own assertions then catch.)
Scenario TestScenario() {
  std::string error;
  auto scenario =
      MakeScenario("fraud:users=80,products=40,seed=13", &error);
  if (!scenario.has_value()) {
    ADD_FAILURE() << "TestScenario: " << error;
    // A minimal but structurally valid sentinel: downstream save/load
    // helpers run without CHECK-aborting, and the caller's assertions
    // against the real scenario's properties fail cleanly.
    Scenario sentinel;
    sentinel.name = "sentinel";
    sentinel.k = 2;
    sentinel.coupling_residual = DenseMatrix(2, 2);
    sentinel.graph = Graph(2, {Edge{0, 1, 1.0}});
    sentinel.explicit_residuals = DenseMatrix(2, 2);
    return sentinel;
  }
  return std::move(*scenario);
}

// TestScenario with a weighted graph of the same shape (every generated
// graph is unit-weight, so its shards carry no value section).
Scenario WeightedTestScenario() {
  Scenario scenario = TestScenario();
  scenario.graph = linbp::testing::WithEndpointWeights(scenario.graph);
  return scenario;
}

// Writes the test scenario as a sharded snapshot; returns the manifest
// path (empty on failure).
std::string ShardedScenario(const Scenario& scenario, const std::string& name,
                            std::int64_t shards) {
  const std::string dir = TempDir(name);
  std::string error;
  const auto result = ShardSnapshot(scenario, shards, dir, &error);
  if (!result.has_value()) {
    ADD_FAILURE() << "ShardedScenario: " << error;
    return std::string();
  }
  EXPECT_GE(result->num_shards, 1);
  EXPECT_LE(result->num_shards, shards);
  return result->manifest_path;
}

void ExpectScenariosIdentical(const Scenario& a, const Scenario& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.spec, b.spec);
  EXPECT_EQ(a.k, b.k);
  EXPECT_EQ(a.graph.adjacency().row_ptr(), b.graph.adjacency().row_ptr());
  EXPECT_EQ(a.graph.adjacency().col_idx(), b.graph.adjacency().col_idx());
  linbp::testing::ExpectSameWeights(a.graph.adjacency(), b.graph.adjacency());
  EXPECT_EQ(a.graph.weighted_degrees(), b.graph.weighted_degrees());
  EXPECT_EQ(a.coupling_residual.data(), b.coupling_residual.data());
  EXPECT_EQ(a.explicit_residuals.data(), b.explicit_residuals.data());
  EXPECT_EQ(a.explicit_nodes, b.explicit_nodes);
  EXPECT_EQ(a.ground_truth, b.ground_truth);
}

TEST(ShardTest, RoundTripsBitIdenticallyToMonolithicSnapshot) {
  for (const bool weighted : {false, true}) {
    SCOPED_TRACE(weighted ? "weighted" : "unit weights");
    const Scenario original =
        weighted ? WeightedTestScenario() : TestScenario();
    ASSERT_EQ(original.graph.adjacency().unit_weights(), !weighted);
    const std::string manifest = ShardedScenario(original, "roundtrip", 4);
    std::string error;
    const auto loaded = LoadShardedSnapshot(manifest, &error);
    ASSERT_TRUE(loaded.has_value()) << error;
    ExpectScenariosIdentical(original, *loaded);

    // The acceptance bar: a sharded load is indistinguishable from the
    // monolithic snapshot of the same scenario — byte for byte when both
    // are re-saved monolithically.
    const std::string mono = ::testing::TempDir() + "/shard_vs_mono.lbps";
    const std::string remono = ::testing::TempDir() + "/shard_vs_mono2.lbps";
    ASSERT_TRUE(SaveSnapshot(original, mono, &error)) << error;
    ASSERT_TRUE(SaveSnapshot(*loaded, remono, &error)) << error;
    EXPECT_EQ(ReadBytes(mono), ReadBytes(remono));
  }
}

TEST(ShardTest, SingleShardAndMoreShardsThanRowsBothWork) {
  const Scenario original = TestScenario();
  std::string error;
  for (const std::int64_t shards : {std::int64_t{1}, std::int64_t{100000}}) {
    const std::string manifest = ShardedScenario(
        original, "count" + std::to_string(shards), shards);
    const auto loaded = LoadShardedSnapshot(manifest, &error);
    ASSERT_TRUE(loaded.has_value()) << error;
    ExpectScenariosIdentical(original, *loaded);
  }
}

TEST(ShardTest, RoundTripsWithoutGroundTruth) {
  std::string error;
  auto original = MakeScenario("kronecker:g=1,seed=4", &error);
  ASSERT_TRUE(original.has_value()) << error;
  ASSERT_FALSE(original->HasGroundTruth());
  const std::string manifest = ShardedScenario(*original, "no_truth", 3);
  const auto loaded = LoadShardedSnapshot(manifest, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  ExpectScenariosIdentical(*original, *loaded);
}

TEST(ShardTest, ParallelLoadIsBitIdenticalToSerial) {
  const Scenario original = TestScenario();
  const std::string manifest = ShardedScenario(original, "parallel", 4);
  std::string error;
  const auto serial =
      LoadShardedSnapshot(manifest, &error, exec::ExecContext::Serial());
  ASSERT_TRUE(serial.has_value()) << error;
  const auto threaded = LoadShardedSnapshot(
      manifest, &error, exec::ExecContext::WithThreads(4));
  ASSERT_TRUE(threaded.has_value()) << error;
  ExpectScenariosIdentical(*serial, *threaded);
}

TEST(ShardTest, SnapScenarioAcceptsManifestTransparently) {
  const Scenario original = TestScenario();
  const std::string manifest = ShardedScenario(original, "registry", 3);
  std::string error;
  const auto loaded = MakeScenario("snap:path=" + manifest, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  ExpectScenariosIdentical(original, *loaded);

  // A `.lbps` is the same layout with its shard inline.
  const std::string mono = ::testing::TempDir() + "/registry_mono.lbps";
  ASSERT_TRUE(SaveSnapshot(original, mono, &error)) << error;
  const auto mono_loaded = MakeScenario("snap:path=" + mono, &error);
  ASSERT_TRUE(mono_loaded.has_value()) << error;
  ExpectScenariosIdentical(original, *mono_loaded);
}

TEST(ShardTest, ManifestInfoReportsTheShardTable) {
  const Scenario original = TestScenario();
  const std::string manifest = ShardedScenario(original, "info", 4);
  std::string error;
  const auto info = ReadShardManifestInfo(manifest, &error);
  ASSERT_TRUE(info.has_value()) << error;
  EXPECT_FALSE(info->shards_inline);
  EXPECT_FALSE(info->values_f32);
  EXPECT_TRUE(info->unit_weights);
  EXPECT_EQ(info->num_nodes, original.graph.num_nodes());
  EXPECT_EQ(info->k, original.k);
  EXPECT_EQ(info->nnz, original.graph.num_directed_edges());
  EXPECT_EQ(info->num_explicit,
            static_cast<std::int64_t>(original.explicit_nodes.size()));
  EXPECT_TRUE(info->has_ground_truth);
  EXPECT_EQ(info->name, "fraud");
  ASSERT_EQ(static_cast<std::int64_t>(info->shards.size()), 4);
  std::int64_t nnz_sum = 0;
  std::int64_t expected_begin = 0;
  for (const ShardRangeInfo& shard : info->shards) {
    EXPECT_EQ(shard.row_begin, expected_begin);
    EXPECT_GT(shard.row_end, shard.row_begin);
    expected_begin = shard.row_end;
    nnz_sum += shard.nnz;
  }
  EXPECT_EQ(expected_begin, original.graph.num_nodes());
  EXPECT_EQ(nnz_sum, info->nnz);
}

// ---- Value widths ----------------------------------------------------------

// Shards with an explicit value width; returns the manifest path.
std::string ShardedCompressed(const Scenario& scenario,
                              const std::string& name, std::int64_t shards,
                              ShardCompression compression) {
  const std::string dir = TempDir(name);
  std::string error;
  const auto result =
      ShardSnapshot(scenario, shards, dir, &error, compression);
  if (!result.has_value()) {
    ADD_FAILURE() << "ShardedCompressed: " << error;
    return std::string();
  }
  return result->manifest_path;
}

TEST(ShardTest, F32RoundTripWidensStoredFloatsExactly) {
  const Scenario original = WeightedTestScenario();
  const std::string manifest = ShardedCompressed(
      original, "v2_f32", 4, ShardCompression::kF32);
  std::string error;
  const auto loaded = LoadShardedSnapshot(manifest, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  // Structure and the f64 side sections survive untouched; only the
  // adjacency values pass through a single f32 narrowing.
  EXPECT_EQ(original.graph.adjacency().row_ptr(),
            loaded->graph.adjacency().row_ptr());
  EXPECT_EQ(original.graph.adjacency().col_idx(),
            loaded->graph.adjacency().col_idx());
  EXPECT_EQ(original.explicit_residuals.data(),
            loaded->explicit_residuals.data());
  EXPECT_EQ(original.ground_truth, loaded->ground_truth);
  const auto& expected = original.graph.adjacency().values();
  const auto& actual = loaded->graph.adjacency().values();
  ASSERT_FALSE(expected.empty());
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t e = 0; e < expected.size(); ++e) {
    ASSERT_EQ(actual[e],
              static_cast<double>(static_cast<float>(expected[e])))
        << "entry " << e;
  }

  // Narrowing is idempotent: re-sharding the loaded scenario as f32 and
  // loading again is a bit-identical round trip.
  const std::string manifest2 = ShardedCompressed(
      *loaded, "v2_f32_again", 4, ShardCompression::kF32);
  const auto reloaded = LoadShardedSnapshot(manifest2, &error);
  ASSERT_TRUE(reloaded.has_value()) << error;
  ExpectScenariosIdentical(*loaded, *reloaded);
}

TEST(ShardTest, ManifestInfoReportsValueWidthAndBothSizes) {
  const Scenario original = WeightedTestScenario();
  for (const bool f32 : {false, true}) {
    const std::string manifest = ShardedCompressed(
        original, f32 ? "v2_info_f32" : "v2_info_f64", 4,
        f32 ? ShardCompression::kF32 : ShardCompression::kF64);
    std::string error;
    const auto info = ReadShardManifestInfo(manifest, &error);
    ASSERT_TRUE(info.has_value()) << error;
    EXPECT_EQ(info->values_f32, f32);
    EXPECT_FALSE(info->unit_weights);
    const std::filesystem::path dir =
        std::filesystem::path(manifest).parent_path();
    std::int64_t encoded_total = 0;
    std::int64_t decoded_total = 0;
    for (std::size_t s = 0; s < info->shards.size(); ++s) {
      const ShardRangeInfo& shard = info->shards[s];
      // Declared on-disk payload equals the file size minus the header;
      // the decoded side is what the resident CSR blocks will cost.
      EXPECT_EQ(static_cast<std::uintmax_t>(shard.payload_bytes + 64),
                std::filesystem::file_size(dir / ShardFileName(s)));
      EXPECT_GT(shard.decoded_bytes, shard.payload_bytes);
      encoded_total += shard.payload_bytes;
      decoded_total += shard.decoded_bytes;
    }
    EXPECT_EQ(info->total_encoded_payload_bytes, encoded_total);
    EXPECT_EQ(info->total_shard_payload_bytes, decoded_total);
    // Delta+varint columns must beat raw i32s on a sorted-neighbor graph.
    EXPECT_LT(info->total_encoded_payload_bytes,
              info->total_shard_payload_bytes);
  }
}

// A unit-weight graph stores no values: the unit bit is set, the f32 bit
// never is, kF32 writes the same bytes as kF64, and the decoded size
// counts the CSR pattern only.
TEST(ShardTest, UnitWeightShardsCarryNoValues) {
  const Scenario original = TestScenario();
  ASSERT_TRUE(original.graph.adjacency().unit_weights());
  const std::string f64 =
      ShardedCompressed(original, "unit_f64", 4, ShardCompression::kF64);
  const std::string f32 =
      ShardedCompressed(original, "unit_f32", 4, ShardCompression::kF32);
  std::string error;
  const auto info = ReadShardManifestInfo(f64, &error);
  ASSERT_TRUE(info.has_value()) << error;
  EXPECT_TRUE(info->unit_weights);
  EXPECT_FALSE(info->values_f32);
  EXPECT_EQ(ReadField<std::uint32_t>(ReadBytes(f64), 48) & 10u, 8u);
  EXPECT_EQ(ReadBytes(f64), ReadBytes(f32));
  for (std::size_t s = 0; s < info->shards.size(); ++s) {
    const ShardRangeInfo& shard = info->shards[s];
    EXPECT_EQ(ReadField<std::uint32_t>(ReadShard(f64, s), 48) & 10u, 8u);
    EXPECT_EQ(ReadShard(f64, s), ReadShard(f32, s));
    EXPECT_EQ(shard.decoded_bytes,
              (shard.row_end - shard.row_begin + 1) * 8 + shard.nnz * 4 +
                  shard.num_explicit * 8 * (1 + info->k) +
                  (shard.row_end - shard.row_begin) * 4);
  }
  const auto loaded = LoadShardedSnapshot(f32, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_TRUE(loaded->graph.adjacency().values().empty());
  ExpectScenariosIdentical(original, *loaded);
}

// A version-6 file written before the unit-weight flag stores a value
// section of 1.0s and no bit 3. It still loads, into the unit form, and
// equals the scenario it was written from.
TEST(ShardTest, LegacyValueSectionOfOnesLoadsAsUnitWeights) {
  const Scenario original = TestScenario();
  const std::string manifest = ShardedScenario(original, "legacy_ones", 3);
  ForgeLegacyValueSections(manifest);
  std::string error;
  const auto info = ReadShardManifestInfo(manifest, &error);
  ASSERT_TRUE(info.has_value()) << error;
  EXPECT_FALSE(info->unit_weights);
  const auto loaded = LoadShardedSnapshot(manifest, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_TRUE(loaded->graph.adjacency().unit_weights());
  ExpectScenariosIdentical(original, *loaded);
}

// Each defect of the unit-weight flag fails the bulk load with its own
// message.
TEST(ShardTest, UnitWeightFormatDefectsFailWithPreciseErrors) {
  const Scenario original = linbp::testing::SparseUnitScenario();
  for (const auto& defect : linbp::testing::UnitFormatCases()) {
    SCOPED_TRACE(defect.name);
    const std::string manifest = ShardedScenario(original, "unit_defects", 2);
    std::string error;
    ASSERT_TRUE(LoadShardedSnapshot(manifest, &error).has_value()) << error;
    defect.forge(manifest);
    EXPECT_FALSE(LoadShardedSnapshot(manifest, &error).has_value());
    EXPECT_NE(error.find(defect.error), std::string::npos) << error;
  }
}

// A manifest entry declares its payload size, and the parser
// bounds it below by what the counts need on disk — the u64 varint byte
// count, 16 bytes per 2048-row group, a varint byte per row and per
// entry, the values and the raw sections — so the preflight ties every
// decoded allocation to real bytes. One byte under that floor is
// rejected; the floor itself parses.
TEST(ShardTest, PayloadFloorCountsTheRowGroupTable) {
  for (const bool weighted : {false, true}) {
    SCOPED_TRACE(weighted ? "weighted" : "unit weights");
    const Scenario original =
        weighted ? WeightedTestScenario() : TestScenario();
    const std::string manifest = ShardedScenario(original, "payload_floor", 3);
    const std::vector<char> pristine = ReadBytes(manifest);
    const std::int64_t k = ReadField<std::int64_t>(pristine, 24);
    const std::uint32_t flags = ReadField<std::uint32_t>(pristine, 48);
    const std::size_t entry = ManifestEntryOffset(pristine, 1);
    std::int64_t counts[4] = {};  // row_begin, row_end, nnz, num_explicit
    std::memcpy(counts, pristine.data() + entry, sizeof(counts));
    const std::int64_t rows = counts[1] - counts[0];
    const std::int64_t nnz = counts[2];
    // The values count only with a value section: 8 bytes each here.
    EXPECT_EQ(ValueBytes(flags), weighted ? 8u : 0u);
    const std::int64_t floor =
        8 + 16 * ((rows + 2047) / 2048) + rows + nnz +
        static_cast<std::int64_t>(ValueBytes(flags)) * nnz +
        8 * counts[3] * (1 + k) + ((flags & 1) != 0 ? 4 * rows : 0);
    for (const std::int64_t declared : {floor - 1, floor}) {
      WriteBytes(manifest, pristine);
      ForgeManifest(manifest, [&](std::vector<char>* bytes) {
        WriteField(bytes, entry + 32, declared);
      });
      std::string error;
      EXPECT_EQ(ReadShardManifestInfo(manifest, &error).has_value(),
                declared == floor)
          << declared << " vs floor " << floor << ": " << error;
      if (declared < floor) {
        EXPECT_NE(error.find("payload size is inconsistent with its counts"),
                  std::string::npos)
            << error;
      }
    }
  }
}

// ---- Corruption matrix ---------------------------------------------------

TEST(ShardTest, RejectsMissingShardFile) {
  const Scenario original = TestScenario();
  const std::string manifest = ShardedScenario(original, "missing", 3);
  const std::string victim =
      (std::filesystem::path(manifest).parent_path() / ShardFileName(1))
          .string();
  std::filesystem::remove(victim);
  std::string error;
  EXPECT_FALSE(LoadShardedSnapshot(manifest, &error).has_value());
  EXPECT_NE(error.find("cannot open"), std::string::npos) << error;
}

TEST(ShardTest, RejectsManifestChecksumMismatch) {
  const Scenario original = TestScenario();
  const std::string manifest = ShardedScenario(original, "man_check", 3);
  std::vector<char> bytes = ReadBytes(manifest);
  bytes[bytes.size() - 3] ^= 0x40;  // flip a payload byte, keep the header
  WriteBytes(manifest, bytes);
  std::string error;
  EXPECT_FALSE(LoadShardedSnapshot(manifest, &error).has_value());
  EXPECT_NE(error.find("checksum mismatch"), std::string::npos) << error;
  EXPECT_FALSE(ReadShardManifestInfo(manifest, &error).has_value());
}

TEST(ShardTest, RejectsBadMagicVersionAndEndianness) {
  const Scenario original = TestScenario();
  const std::string manifest = ShardedScenario(original, "man_header", 3);
  const std::vector<char> bytes = ReadBytes(manifest);
  std::string error;

  std::vector<char> bad_magic = bytes;
  bad_magic[0] = 'X';
  WriteBytes(manifest, bad_magic);
  EXPECT_FALSE(LoadShardedSnapshot(manifest, &error).has_value());
  EXPECT_NE(error.find("bad magic"), std::string::npos) << error;

  std::vector<char> bad_version = bytes;
  const std::uint32_t version = 99;
  std::memcpy(bad_version.data() + 8, &version, 4);
  WriteBytes(manifest, bad_version);
  EXPECT_FALSE(LoadShardedSnapshot(manifest, &error).has_value());
  EXPECT_NE(error.find("unsupported shard manifest version 99"),
            std::string::npos)
      << error;

  std::vector<char> swapped = bytes;
  std::swap(swapped[12], swapped[15]);
  std::swap(swapped[13], swapped[14]);
  WriteBytes(manifest, swapped);
  EXPECT_FALSE(LoadShardedSnapshot(manifest, &error).has_value());
  EXPECT_NE(error.find("big-endian"), std::string::npos) << error;
}

// Earlier versions (1 and 3 raw shards; 2, 4 and 5 compressed ones) must
// fail as unsupported versions, never reach the checksum comparison or be
// parsed as the current layout — as a manifest, and as a shard file a
// current manifest points at.
TEST(ShardTest, RejectsThePreviousFormatVersions) {
  const Scenario original = TestScenario();
  const std::string manifest = ShardedScenario(original, "previous", 3);
  const std::vector<char> pristine = ReadBytes(manifest);
  const std::string shard =
      (std::filesystem::path(manifest).parent_path() / ShardFileName(1))
          .string();
  const std::vector<char> pristine_shard = ReadBytes(shard);
  for (const std::uint32_t previous : {1u, 2u, 3u, 4u, 5u}) {
    SCOPED_TRACE(previous);
    std::string error;
    std::vector<char> old_manifest = pristine;
    WriteField(&old_manifest, 8, previous);
    WriteBytes(manifest, old_manifest);
    const std::string expected = manifest +
                                 ": unsupported shard manifest version " +
                                 std::to_string(previous) + " (expected 6)";
    EXPECT_FALSE(LoadShardedSnapshot(manifest, &error).has_value());
    EXPECT_EQ(error, expected);
    EXPECT_FALSE(ReadShardManifestInfo(manifest, &error).has_value());
    EXPECT_EQ(error, expected);
    WriteBytes(manifest, pristine);

    std::vector<char> old_shard = pristine_shard;
    WriteField(&old_shard, 8, previous);
    WriteBytes(shard, old_shard);
    EXPECT_FALSE(LoadShardedSnapshot(manifest, &error).has_value());
    EXPECT_EQ(error, shard + ": unsupported snapshot shard version " +
                         std::to_string(previous) + " (expected 6)");
    WriteBytes(shard, pristine_shard);
  }
}

// A manifest longer than its header, strings and shard table imply fails
// before it is read (the 1 TiB file is sparse); one cut short of that
// size is a truncated manifest.
TEST(ShardTest, OversizedOrTruncatedManifestFailsBeforeItIsRead) {
  const Scenario original = TestScenario();
  const std::string manifest = ShardedScenario(original, "man_size", 3);
  const std::uintmax_t size = std::filesystem::file_size(manifest);
  for (const std::uintmax_t grown : {size + 1, std::uintmax_t{1} << 40}) {
    SCOPED_TRACE(grown);
    std::filesystem::resize_file(manifest, grown);
    const std::string expected = manifest + ": oversized file (" +
                                 std::to_string(grown) + " bytes, expected " +
                                 std::to_string(size) + ")";
    std::string error;
    EXPECT_FALSE(LoadShardedSnapshot(manifest, &error).has_value());
    EXPECT_EQ(error, expected);
    EXPECT_FALSE(ReadShardManifestInfo(manifest, &error).has_value());
    EXPECT_EQ(error, expected);
  }
  std::filesystem::resize_file(manifest, size - 1);
  std::string error;
  EXPECT_FALSE(LoadShardedSnapshot(manifest, &error).has_value());
  EXPECT_EQ(error, manifest + ": truncated manifest payload");
  EXPECT_FALSE(ReadShardManifestInfo(manifest, &error).has_value());
  EXPECT_EQ(error, manifest + ": truncated manifest payload");
}

TEST(ShardTest, RejectsRowRangeGapAndOverlap) {
  const Scenario original = TestScenario();
  for (const std::int64_t delta : {std::int64_t{1}, std::int64_t{-1}}) {
    const std::string manifest = ShardedScenario(
        original, delta > 0 ? "gap" : "overlap", 3);
    // Shift shard 1's row_begin: +1 opens a gap, -1 overlaps shard 0.
    ForgeManifest(manifest, [&](std::vector<char>* bytes) {
      const std::size_t entry = ManifestEntryOffset(*bytes, 1);
      WriteField(bytes, entry, ReadField<std::int64_t>(*bytes, entry) + delta);
    });
    std::string error;
    EXPECT_FALSE(LoadShardedSnapshot(manifest, &error).has_value());
    EXPECT_NE(error.find("gap or overlap"), std::string::npos) << error;
  }
}

TEST(ShardTest, RejectsShardChecksumMismatch) {
  const Scenario original = TestScenario();
  const std::string manifest = ShardedScenario(original, "shard_check", 3);
  const std::string victim =
      (std::filesystem::path(manifest).parent_path() / ShardFileName(0))
          .string();
  std::vector<char> bytes = ReadBytes(victim);
  bytes[bytes.size() - 5] ^= 0x10;
  WriteBytes(victim, bytes);
  std::string error;
  EXPECT_FALSE(LoadShardedSnapshot(manifest, &error).has_value());
  EXPECT_NE(error.find("checksum mismatch"), std::string::npos) << error;
}

TEST(ShardTest, RejectsShardHeaderDisagreeingWithManifest) {
  const Scenario original = TestScenario();
  const std::string manifest = ShardedScenario(original, "mismatch", 3);
  const std::string victim =
      (std::filesystem::path(manifest).parent_path() / ShardFileName(2))
          .string();
  std::vector<char> bytes = ReadBytes(victim);
  // Claim a different shard index (payload untouched, checksums intact).
  const std::uint32_t wrong_index = 7;
  std::memcpy(bytes.data() + 52, &wrong_index, 4);
  WriteBytes(victim, bytes);
  std::string error;
  EXPECT_FALSE(LoadShardedSnapshot(manifest, &error).has_value());
  EXPECT_NE(error.find("disagrees with its manifest entry"),
            std::string::npos)
      << error;
}

TEST(ShardTest, RejectsTruncatedShardFile) {
  const Scenario original = TestScenario();
  const std::string manifest = ShardedScenario(original, "truncated", 3);
  const std::string victim =
      (std::filesystem::path(manifest).parent_path() / ShardFileName(1))
          .string();
  const std::vector<char> bytes = ReadBytes(victim);
  WriteBytes(victim,
             std::vector<char>(bytes.begin(), bytes.end() - 64));
  std::string error;
  EXPECT_FALSE(LoadShardedSnapshot(manifest, &error).has_value());
  EXPECT_NE(error.find("truncated"), std::string::npos) << error;
}

TEST(ShardTest, RejectsCrossShardAsymmetryWithForgedChecksums) {
  const Scenario original = WeightedTestScenario();
  const std::string manifest = ShardedScenario(original, "asymmetry", 3);
  // Overwrite one stored value inside shard 0 and re-forge every
  // checksum: the mirror entry (in shard 0 or a later shard) keeps the
  // old weight, so only the global cross-shard symmetry sweep can catch
  // the corruption — with an error, never a crash.
  std::vector<char> shard = ReadShard(manifest, 0);
  WriteField(&shard, LayoutOf(shard).values, 7.5);
  WriteForgedShard(manifest, 0, shard);
  std::string error;
  EXPECT_FALSE(LoadShardedSnapshot(manifest, &error).has_value());
  EXPECT_NE(error.find("invalid adjacency payload"), std::string::npos)
      << error;
}

// The floor of ParseManifest's payload-size check for `nnz` entries over
// `rows` rows, with `num_explicit` explicit nodes.
std::int64_t PayloadFloor(const std::vector<char>& manifest, std::int64_t rows,
                          std::int64_t nnz, std::int64_t num_explicit) {
  const std::int64_t k = ReadField<std::int64_t>(manifest, 24);
  const std::uint32_t flags = ReadField<std::uint32_t>(manifest, 48);
  const bool truth = (flags & 1) != 0;
  return 8 + 16 * ((rows + 2047) / 2048) + rows + nnz +
         static_cast<std::int64_t>(ValueBytes(flags)) * nnz +
         8 * num_explicit * (1 + k) + (truth ? 4 * rows : 0);
}

TEST(ShardTest, RejectsHugeShardCountsWithoutAllocating) {
  const Scenario original = TestScenario();
  const std::string manifest = ShardedScenario(original, "huge", 2);
  // Declare an absurd global and shard-0 nnz, with a payload size that
  // matches it and a fixed-up manifest checksum: the preflight against
  // actual shard file sizes must reject it before any multi-terabyte
  // resize.
  ForgeManifest(manifest, [](std::vector<char>* bytes) {
    const std::int64_t huge = std::int64_t{1} << 40;
    const std::size_t entry = ManifestEntryOffset(*bytes, 0);
    const std::int64_t nnz1 =
        ReadField<std::int64_t>(*bytes, ManifestEntryOffset(*bytes, 1) + 16);
    const std::int64_t rows = ReadField<std::int64_t>(*bytes, entry + 8);
    WriteField(bytes, 32, huge);
    WriteField(bytes, entry + 16, huge - nnz1);
    WriteField(bytes, entry + 32,
               PayloadFloor(*bytes, rows, huge - nnz1,
                            ReadField<std::int64_t>(*bytes, entry + 24)));
  });
  std::string error;
  EXPECT_FALSE(LoadShardedSnapshot(manifest, &error).has_value());
  EXPECT_NE(error.find("truncated shard payload"), std::string::npos)
      << error;
}

TEST(ShardTest, RejectsOverflowingShardCountSums) {
  const Scenario original = TestScenario();
  const std::string manifest = ShardedScenario(original, "overflow", 2);
  // Two entries at the per-shard 2^48 cap, each with a payload size its
  // counts can explain: a naive int64 accumulation across a 2^20-entry
  // table could wrap, so the parser must bound each entry against the
  // remaining manifest total instead.
  ForgeManifest(manifest, [](std::vector<char>* bytes) {
    const std::int64_t huge = std::int64_t{1} << 48;
    for (const std::int64_t s : {0, 1}) {
      const std::size_t entry = ManifestEntryOffset(*bytes, s);
      const std::int64_t rows = ReadField<std::int64_t>(*bytes, entry + 8) -
                                ReadField<std::int64_t>(*bytes, entry);
      WriteField(bytes, entry + 16, huge);
      WriteField(bytes, entry + 32,
                 PayloadFloor(*bytes, rows, huge,
                              ReadField<std::int64_t>(*bytes, entry + 24)));
    }
  });
  std::string error;
  EXPECT_FALSE(LoadShardedSnapshot(manifest, &error).has_value());
  EXPECT_NE(error.find("exceed the manifest totals"), std::string::npos)
      << error;
}

TEST(ShardTest, RejectsExplicitNodeOutsideItsShard) {
  const Scenario original = TestScenario();
  const std::string manifest = ShardedScenario(original, "expl_range", 3);
  std::vector<char> shard = ReadShard(manifest, 0);
  const std::int64_t row_end = ReadField<std::int64_t>(shard, 24);
  ASSERT_GT(ReadField<std::int64_t>(shard, 40), 0);
  // Point the first explicit id, right after the values (none for this
  // unit-weight scenario), past the shard's row range and forge the
  // checksums; the per-shard range check must reject it.
  WriteField(&shard, LayoutOf(shard).explicit_nodes, row_end);
  WriteForgedShard(manifest, 0, shard);
  std::string error;
  EXPECT_FALSE(LoadShardedSnapshot(manifest, &error).has_value());
  EXPECT_NE(error.find("outside the shard's row range"), std::string::npos)
      << error;
}

TEST(ShardTest, WriterRejectsBadInputsWithErrors) {
  const Scenario original = TestScenario();
  std::string error;
  EXPECT_FALSE(ShardSnapshot(original, 0, TempDir("bad_count"), &error)
                   .has_value());
  EXPECT_NE(error.find("shard count"), std::string::npos) << error;

  Scenario empty;
  empty.k = 2;
  empty.coupling_residual = DenseMatrix(2, 2);
  empty.explicit_residuals = DenseMatrix(0, 2);
  EXPECT_FALSE(
      ShardSnapshot(empty, 2, TempDir("empty"), &error).has_value());
  EXPECT_NE(error.find("empty scenario"), std::string::npos) << error;
}

TEST(ShardTest, LoadedScenarioRunsEndToEnd) {
  const Scenario original = TestScenario();
  const std::string manifest = ShardedScenario(original, "end_to_end", 4);
  std::string error;
  const auto loaded = LoadShardedSnapshot(manifest, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_TRUE(loaded->graph.adjacency().IsSymmetric());
  EXPECT_EQ(loaded->Coupling().k(), loaded->k);
  for (std::int64_t v = 0; v < loaded->graph.num_nodes(); ++v) {
    EXPECT_EQ(loaded->graph.Degree(v), original.graph.Degree(v));
  }
}

}  // namespace
}  // namespace dataset
}  // namespace linbp
