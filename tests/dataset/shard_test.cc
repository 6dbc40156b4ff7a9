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
#include "tests/testing/test_util.h"

namespace linbp {
namespace dataset {
namespace {

using linbp::testing::ReadBytes;
using linbp::testing::WriteBytes;

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
  EXPECT_EQ(a.graph.adjacency().values(), b.graph.adjacency().values());
  EXPECT_EQ(a.graph.weighted_degrees(), b.graph.weighted_degrees());
  EXPECT_EQ(a.coupling_residual.data(), b.coupling_residual.data());
  EXPECT_EQ(a.explicit_residuals.data(), b.explicit_residuals.data());
  EXPECT_EQ(a.explicit_nodes, b.explicit_nodes);
  EXPECT_EQ(a.ground_truth, b.ground_truth);
}

// Re-forges the payload checksum in a header, so the corruption tests can
// build "checksum-valid" hostile bytes.
void FixChecksum(std::vector<char>* bytes) {
  const std::uint64_t checksum =
      internal::PayloadChecksum(bytes->data() + 64, bytes->size() - 64);
  std::memcpy(bytes->data() + 56, &checksum, 8);
}

// Byte offset of shard `index`'s manifest entry (the i64 row_begin).
// Reads the header version: compressed entries carry an extra i64
// payload_bytes.
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
    // row_begin, row_end, nnz, num_explicit, [payload_bytes,] checksum
    off += (IsCompressedShardVersion(version) ? 8 * 5 : 8 * 4) + 8;
    skip_string();  // file name
  }
  return off;
}

// Rewrites one shard file's payload byte and re-forges every checksum on
// the path to it (shard header, manifest entry, manifest header), so only
// the structural validation can catch the change.
void TamperShardValueAndForgeChecksums(const std::string& manifest_path,
                                       const std::string& shard_path) {
  std::vector<char> shard = ReadBytes(shard_path);
  std::int64_t row_begin = 0, row_end = 0, nnz = 0;
  std::memcpy(&row_begin, shard.data() + 16, 8);
  std::memcpy(&row_end, shard.data() + 24, 8);
  std::memcpy(&nnz, shard.data() + 32, 8);
  ASSERT_GT(nnz, 0);
  // First stored value of the shard: after the local row_ptr and col_idx.
  const std::size_t values_offset =
      64 + static_cast<std::size_t>(row_end - row_begin + 1) * 8 +
      static_cast<std::size_t>(nnz) * 4;
  const double tweaked = 7.5;
  std::memcpy(shard.data() + values_offset, &tweaked, 8);
  FixChecksum(&shard);
  std::uint64_t forged = 0;
  std::memcpy(&forged, shard.data() + 56, 8);
  WriteBytes(shard_path, shard);

  std::vector<char> manifest = ReadBytes(manifest_path);
  const std::size_t entry = ManifestEntryOffset(manifest, 0);
  std::memcpy(manifest.data() + entry + 32, &forged, 8);
  FixChecksum(&manifest);
  WriteBytes(manifest_path, manifest);
}

TEST(ShardTest, RoundTripsBitIdenticallyToMonolithicSnapshot) {
  const Scenario original = TestScenario();
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
  EXPECT_TRUE(LooksLikeShardManifest(manifest));
  std::string error;
  const auto loaded = MakeScenario("snap:path=" + manifest, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  ExpectScenariosIdentical(original, *loaded);

  // A monolithic snapshot is NOT mistaken for a manifest.
  const std::string mono = ::testing::TempDir() + "/registry_mono.lbps";
  ASSERT_TRUE(SaveSnapshot(original, mono, &error)) << error;
  EXPECT_FALSE(LooksLikeShardManifest(mono));
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
  EXPECT_EQ(info->version, kShardFormatVersionRaw);
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

// ---- Compressed (v2) shards ----------------------------------------------

// Shards with an explicit compression choice; returns the manifest path.
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

TEST(ShardTest, CompressedF64RoundTripsBitIdentically) {
  const Scenario original = TestScenario();
  const std::string manifest = ShardedCompressed(
      original, "v2_f64", 4, ShardCompression::kF64);
  std::string error;
  const auto loaded = LoadShardedSnapshot(manifest, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  ExpectScenariosIdentical(original, *loaded);
}

TEST(ShardTest, CompressedF32RoundTripWidensStoredFloatsExactly) {
  const Scenario original = TestScenario();
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

TEST(ShardTest, CompressedParallelLoadIsBitIdenticalToSerial) {
  const Scenario original = TestScenario();
  const std::string manifest = ShardedCompressed(
      original, "v2_parallel", 4, ShardCompression::kF64);
  std::string error;
  const auto serial =
      LoadShardedSnapshot(manifest, &error, exec::ExecContext::Serial());
  ASSERT_TRUE(serial.has_value()) << error;
  const auto threaded = LoadShardedSnapshot(
      manifest, &error, exec::ExecContext::WithThreads(4));
  ASSERT_TRUE(threaded.has_value()) << error;
  ExpectScenariosIdentical(*serial, *threaded);
}

TEST(ShardTest, ManifestInfoReportsV2CompressionAndBothSizes) {
  const Scenario original = TestScenario();
  for (const bool f32 : {false, true}) {
    const std::string manifest = ShardedCompressed(
        original, f32 ? "v2_info_f32" : "v2_info_f64", 4,
        f32 ? ShardCompression::kF32 : ShardCompression::kF64);
    std::string error;
    const auto info = ReadShardManifestInfo(manifest, &error);
    ASSERT_TRUE(info.has_value()) << error;
    EXPECT_EQ(info->version, kShardFormatVersionCompressed);
    EXPECT_EQ(info->values_f32, f32);
    const std::filesystem::path dir =
        std::filesystem::path(manifest).parent_path();
    std::int64_t encoded_total = 0;
    std::int64_t decoded_total = 0;
    for (const ShardRangeInfo& shard : info->shards) {
      // Declared on-disk payload equals the file size minus the header;
      // the decoded side is what the resident CSR blocks will cost.
      EXPECT_EQ(static_cast<std::uintmax_t>(shard.payload_bytes + 64),
                std::filesystem::file_size(dir / shard.file));
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

// A compressed manifest entry declares its payload size, and the parser
// bounds it below by what the counts need on disk — the u64 varint byte
// count, 16 bytes per 2048-row group, a varint byte per row and per
// entry, the values and the raw sections — so the preflight ties every
// decoded allocation to real bytes. One byte under that floor is
// rejected; the floor itself parses.
TEST(ShardTest, CompressedPayloadFloorCountsTheRowGroupTable) {
  const Scenario original = TestScenario();
  const std::string manifest = ShardedCompressed(
      original, "payload_floor", 3, ShardCompression::kF64);
  const std::vector<char> pristine = ReadBytes(manifest);
  std::int64_t k = 0;
  std::uint32_t flags = 0;
  std::memcpy(&k, pristine.data() + 24, 8);
  std::memcpy(&flags, pristine.data() + 48, 4);
  const std::size_t entry = ManifestEntryOffset(pristine, 1);
  std::int64_t counts[4] = {};  // row_begin, row_end, nnz, num_explicit
  std::memcpy(counts, pristine.data() + entry, sizeof(counts));
  const std::int64_t rows = counts[1] - counts[0];
  const std::int64_t nnz = counts[2];
  const std::int64_t floor = 8 + 16 * ((rows + 2047) / 2048) + rows + nnz +
                             8 * nnz + 8 * counts[3] * (1 + k) +
                             ((flags & 1) != 0 ? 4 * rows : 0);
  for (const std::int64_t declared : {floor - 1, floor}) {
    std::vector<char> bytes = pristine;
    std::memcpy(bytes.data() + entry + 32, &declared, 8);
    FixChecksum(&bytes);
    WriteBytes(manifest, bytes);
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

// Versions 1 (raw) and 2 (compressed) are the same layouts checksummed
// with FNV-1a, and version 4 is the compressed layout without the
// row-group table: a file still carrying one must fail as an unsupported
// version, never reach the checksum comparison or be parsed as another
// layout. Version 4 sits between the two live versions, so it is tried
// on a raw manifest too.
TEST(ShardTest, RejectsThePreviousFormatVersions) {
  const Scenario original = TestScenario();
  for (const ShardCompression compression :
       {ShardCompression::kNone, ShardCompression::kF64}) {
    const bool raw = compression == ShardCompression::kNone;
    const std::string manifest = ShardedCompressed(
        original, raw ? "previous_raw" : "previous_compressed", 3,
        compression);
    const std::vector<char> pristine = ReadBytes(manifest);
    const std::string shard =
        (std::filesystem::path(manifest).parent_path() / ShardFileName(1))
            .string();
    const std::vector<char> pristine_shard = ReadBytes(shard);
    for (const std::uint32_t previous : {1u, 2u, 4u}) {
      SCOPED_TRACE(::testing::Message() << (raw ? "raw" : "compressed")
                                        << " relabelled " << previous);
      std::string error;
      std::vector<char> old_manifest = pristine;
      std::memcpy(old_manifest.data() + 8, &previous, 4);
      WriteBytes(manifest, old_manifest);
      EXPECT_FALSE(LoadShardedSnapshot(manifest, &error).has_value());
      EXPECT_NE(error.find("unsupported shard manifest version " +
                           std::to_string(previous) + " (expected 3 or 5)"),
                std::string::npos)
          << error;
      EXPECT_FALSE(ReadShardManifestInfo(manifest, &error).has_value());
      WriteBytes(manifest, pristine);

      // A current manifest pointing at a shard file of the old version.
      std::vector<char> old_shard = pristine_shard;
      std::memcpy(old_shard.data() + 8, &previous, 4);
      WriteBytes(shard, old_shard);
      EXPECT_FALSE(LoadShardedSnapshot(manifest, &error).has_value());
      EXPECT_NE(error.find("unsupported snapshot shard version " +
                           std::to_string(previous)),
                std::string::npos)
          << error;
      WriteBytes(shard, pristine_shard);
    }
  }
}

TEST(ShardTest, RejectsRowRangeGapAndOverlap) {
  const Scenario original = TestScenario();
  for (const std::int64_t delta : {std::int64_t{1}, std::int64_t{-1}}) {
    const std::string manifest = ShardedScenario(
        original, delta > 0 ? "gap" : "overlap", 3);
    std::vector<char> bytes = ReadBytes(manifest);
    // Shift shard 1's row_begin: +1 opens a gap, -1 overlaps shard 0.
    const std::size_t entry = ManifestEntryOffset(bytes, 1);
    std::int64_t row_begin = 0;
    std::memcpy(&row_begin, bytes.data() + entry, 8);
    row_begin += delta;
    std::memcpy(bytes.data() + entry, &row_begin, 8);
    FixChecksum(&bytes);
    WriteBytes(manifest, bytes);
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
  const Scenario original = TestScenario();
  const std::string manifest = ShardedScenario(original, "asymmetry", 3);
  const std::string victim =
      (std::filesystem::path(manifest).parent_path() / ShardFileName(0))
          .string();
  // Overwrite one stored value inside shard 0 and re-forge every
  // checksum: the mirror entry (in shard 0 or a later shard) keeps the
  // old weight, so only the global cross-shard symmetry sweep can catch
  // the corruption — with an error, never a crash.
  TamperShardValueAndForgeChecksums(manifest, victim);
  std::string error;
  EXPECT_FALSE(LoadShardedSnapshot(manifest, &error).has_value());
  EXPECT_NE(error.find("invalid adjacency payload"), std::string::npos)
      << error;
}

TEST(ShardTest, RejectsHugeShardCountsWithoutAllocating) {
  const Scenario original = TestScenario();
  const std::string manifest = ShardedScenario(original, "huge", 2);
  std::vector<char> bytes = ReadBytes(manifest);
  // Declare an absurd global and shard-0 nnz with a fixed-up manifest
  // checksum: the preflight against actual shard file sizes must reject
  // it before any multi-terabyte resize.
  const std::int64_t huge = std::int64_t{1} << 40;
  std::memcpy(bytes.data() + 32, &huge, 8);
  const std::size_t entry = ManifestEntryOffset(bytes, 0);
  std::int64_t nnz1 = 0;
  std::memcpy(&nnz1, bytes.data() + ManifestEntryOffset(bytes, 1) + 16, 8);
  const std::int64_t huge0 = huge - nnz1;
  std::memcpy(bytes.data() + entry + 16, &huge0, 8);
  FixChecksum(&bytes);
  WriteBytes(manifest, bytes);
  std::string error;
  EXPECT_FALSE(LoadShardedSnapshot(manifest, &error).has_value());
  EXPECT_NE(error.find("truncated shard payload"), std::string::npos)
      << error;
}

TEST(ShardTest, RejectsOverflowingShardCountSums) {
  const Scenario original = TestScenario();
  const std::string manifest = ShardedScenario(original, "overflow", 2);
  std::vector<char> bytes = ReadBytes(manifest);
  // Two entries at the per-shard 2^48 cap: a naive int64 accumulation
  // across a 2^20-entry table could wrap, so the parser must bound each
  // entry against the remaining manifest total instead.
  const std::int64_t huge = std::int64_t{1} << 48;
  std::memcpy(bytes.data() + ManifestEntryOffset(bytes, 0) + 16, &huge, 8);
  std::memcpy(bytes.data() + ManifestEntryOffset(bytes, 1) + 16, &huge, 8);
  FixChecksum(&bytes);
  WriteBytes(manifest, bytes);
  std::string error;
  EXPECT_FALSE(LoadShardedSnapshot(manifest, &error).has_value());
  EXPECT_NE(error.find("exceed the manifest totals"), std::string::npos)
      << error;
}

TEST(ShardTest, RejectsExplicitNodeOutsideItsShard) {
  const Scenario original = TestScenario();
  const std::string manifest = ShardedScenario(original, "expl_range", 3);
  const std::string victim =
      (std::filesystem::path(manifest).parent_path() / ShardFileName(0))
          .string();
  std::vector<char> shard = ReadBytes(victim);
  std::int64_t row_begin = 0, row_end = 0, nnz = 0, num_explicit = 0;
  std::memcpy(&row_begin, shard.data() + 16, 8);
  std::memcpy(&row_end, shard.data() + 24, 8);
  std::memcpy(&nnz, shard.data() + 32, 8);
  std::memcpy(&num_explicit, shard.data() + 40, 8);
  ASSERT_GT(num_explicit, 0);
  const std::size_t explicit_offset =
      64 + static_cast<std::size_t>(row_end - row_begin + 1) * 8 +
      static_cast<std::size_t>(nnz) * 12;
  // Point the first explicit id past the shard's row range and forge the
  // checksums; the per-shard range check must reject it.
  std::memcpy(shard.data() + explicit_offset, &row_end, 8);
  FixChecksum(&shard);
  std::uint64_t forged = 0;
  std::memcpy(&forged, shard.data() + 56, 8);
  WriteBytes(victim, shard);
  std::vector<char> manifest_bytes = ReadBytes(manifest);
  std::memcpy(manifest_bytes.data() + ManifestEntryOffset(manifest_bytes, 0) +
                  32,
              &forged, 8);
  FixChecksum(&manifest_bytes);
  WriteBytes(manifest, manifest_bytes);
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
