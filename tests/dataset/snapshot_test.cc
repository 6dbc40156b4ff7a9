// Snapshots: a `.lbps` is a shard manifest with its one shard inline.
// Round trips, the corruption matrix on that file, the retired layouts,
// and parity with shard sets written from the same scenario.

#include "src/dataset/snapshot.h"

#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "src/dataset/format_internal.h"
#include "src/dataset/registry.h"
#include "src/dataset/shard.h"
#include "src/dataset/shard_stream.h"
#include "src/obs/trace.h"
#include "tests/testing/shard_bytes.h"
#include "tests/testing/test_util.h"

namespace linbp {
namespace dataset {
namespace {

using linbp::testing::FixChecksum;
using linbp::testing::ForgeManifest;
using linbp::testing::GroupEnd;
using linbp::testing::LayoutOf;
using linbp::testing::ManifestBytes;
using linbp::testing::ManifestEntryOffset;
using linbp::testing::ReadBytes;
using linbp::testing::ReadField;
using linbp::testing::ReadShard;
using linbp::testing::WriteBytes;
using linbp::testing::WriteField;
using linbp::testing::WriteForgedShard;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

Scenario MakeTestScenario(const std::string& spec) {
  std::string error;
  auto scenario = MakeScenario(spec, &error);
  EXPECT_TRUE(scenario.has_value()) << error;
  return std::move(*scenario);
}

Scenario TestScenario() {
  return MakeTestScenario("fraud:users=80,products=40,seed=13");
}

// TestScenario with a weighted graph of the same shape: generated graphs
// are unit-weight, and only a weighted one has a value section.
Scenario WeightedTestScenario() {
  Scenario scenario = TestScenario();
  scenario.graph = linbp::testing::WithEndpointWeights(scenario.graph);
  return scenario;
}

std::string SavedSnapshot(const Scenario& scenario, const std::string& name) {
  const std::string path = TempPath(name);
  std::string error;
  EXPECT_TRUE(SaveSnapshot(scenario, path, &error)) << error;
  return path;
}

// Names, CSR, degrees, explicit rows and truth, the doubles compared with
// memcmp.
void ExpectScenariosIdentical(const Scenario& a, const Scenario& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.spec, b.spec);
  EXPECT_EQ(a.k, b.k);
  linbp::testing::ExpectSameGraph(b.graph, a.graph);
  ASSERT_EQ(a.explicit_residuals.data().size(),
            b.explicit_residuals.data().size());
  EXPECT_EQ(std::memcmp(a.explicit_residuals.data().data(),
                        b.explicit_residuals.data().data(),
                        a.explicit_residuals.data().size() * sizeof(double)),
            0);
  EXPECT_EQ(a.coupling_residual.data(), b.coupling_residual.data());
  EXPECT_EQ(a.explicit_nodes, b.explicit_nodes);
  EXPECT_EQ(a.ground_truth, b.ground_truth);
}

// Every reader of a file — the bulk load, `info` and the streaming reader
// — must fail on it with exactly `expected`.
void ExpectEveryReaderFails(const std::string& path,
                            const std::string& expected) {
  std::string error;
  EXPECT_FALSE(LoadSnapshot(path, &error).has_value());
  EXPECT_EQ(error, expected);
  error.clear();
  EXPECT_FALSE(ReadShardManifestInfo(path, &error).has_value());
  EXPECT_EQ(error, expected);
  error.clear();
  EXPECT_FALSE(ShardStreamReader::Open(path, &error).has_value());
  EXPECT_EQ(error, expected);
}

TEST(SnapshotTest, RoundTripsBitIdentically) {
  for (const bool weighted : {false, true}) {
    SCOPED_TRACE(weighted ? "weighted" : "unit weights");
    const Scenario original =
        weighted ? WeightedTestScenario() : TestScenario();
    ASSERT_EQ(original.graph.adjacency().unit_weights(), !weighted);
    const std::string path = SavedSnapshot(original, "roundtrip.lbps");
    std::string error;
    const auto loaded = LoadSnapshot(path, &error);
    ASSERT_TRUE(loaded.has_value()) << error;
    ExpectScenariosIdentical(original, *loaded);
    EXPECT_EQ(loaded->graph.num_undirected_edges(),
              original.graph.num_undirected_edges());

    // Saving the loaded scenario reproduces the file byte for byte.
    const std::string resaved = SavedSnapshot(*loaded, "roundtrip2.lbps");
    EXPECT_EQ(ReadBytes(path), ReadBytes(resaved));
  }
}

// The bulk load and the streaming reader (Open, then every block) fail
// on `path` with exactly `expected`.
void ExpectLoadAndStreamFail(const std::string& path,
                             const std::string& expected) {
  std::string error;
  EXPECT_FALSE(LoadSnapshot(path, &error).has_value());
  EXPECT_EQ(error, expected);
  error.clear();
  const auto reader = ShardStreamReader::Open(path, &error);
  bool streamed = reader.has_value();
  for (std::int64_t s = 0; streamed && s < reader->num_shards(); ++s) {
    ShardStreamBlock block;
    streamed = reader->ReadBlock(s, &block, &error);
  }
  EXPECT_FALSE(streamed);
  EXPECT_EQ(error, expected);
}

// A `.lbps` of a unit-weight graph has flag bit 3 and no value section;
// one written before the flag (a value section of 1.0s, no bit 3) still
// loads, into the unit form, and streams the same blocks.
TEST(SnapshotTest, UnitWeightsStoreNoValuesAndLegacyOnesStillLoad) {
  const Scenario original = TestScenario();
  const std::string path = SavedSnapshot(original, "unit.lbps");
  std::string error;
  const auto info = ReadShardManifestInfo(path, &error);
  ASSERT_TRUE(info.has_value()) << error;
  EXPECT_TRUE(info->unit_weights);
  EXPECT_FALSE(info->values_f32);
  const std::vector<char> unit_file = ReadBytes(path);

  linbp::testing::ForgeLegacyValueSections(path);
  const std::vector<char> legacy_file = ReadBytes(path);
  const std::size_t nnz =
      static_cast<std::size_t>(original.graph.num_directed_edges());
  EXPECT_EQ(legacy_file.size(), unit_file.size() + 8 * nnz);
  const auto legacy_info = ReadShardManifestInfo(path, &error);
  ASSERT_TRUE(legacy_info.has_value()) << error;
  EXPECT_FALSE(legacy_info->unit_weights);
  const auto loaded = LoadSnapshot(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_TRUE(loaded->graph.adjacency().unit_weights());
  ExpectScenariosIdentical(original, *loaded);
  // Saving it again writes today's file.
  EXPECT_EQ(ReadBytes(SavedSnapshot(*loaded, "unit_again.lbps")), unit_file);

  // The streaming reader hands out the legacy values as stored.
  const auto reader = ShardStreamReader::Open(path, &error);
  ASSERT_TRUE(reader.has_value()) << error;
  EXPECT_FALSE(reader->unit_weights());
  ShardStreamBlock block;
  ASSERT_TRUE(reader->ReadBlock(0, &block, &error)) << error;
  EXPECT_EQ(block.values, std::vector<double>(block.col_idx.size(), 1.0));
}

// Each defect of the unit-weight flag, forged into an inline file behind
// valid checksums, fails the bulk load and the stream with its message.
TEST(SnapshotTest, UnitWeightFormatDefectsFailWithPreciseErrors) {
  for (const auto& defect : linbp::testing::UnitFormatCases()) {
    SCOPED_TRACE(defect.name);
    const std::string path =
        SavedSnapshot(linbp::testing::SparseUnitScenario(), "unit_bad.lbps");
    std::string error;
    ASSERT_TRUE(LoadSnapshot(path, &error).has_value()) << error;
    defect.forge(path);
    ExpectLoadAndStreamFail(path, path + defect.error);
  }
}

TEST(SnapshotTest, RoundTripsWithoutGroundTruth) {
  const Scenario original = MakeTestScenario("kronecker:g=1,seed=4");
  ASSERT_FALSE(original.HasGroundTruth());
  const std::string path = SavedSnapshot(original, "no_truth.lbps");
  std::string error;
  const auto loaded = LoadSnapshot(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  ExpectScenariosIdentical(original, *loaded);
}

TEST(SnapshotTest, ParallelLoadIsBitIdenticalToSerial) {
  // 5000 rows: one inline shard of three row groups, decoded on every lane.
  const Scenario original =
      MakeTestScenario("sbm:n=5000,k=3,deg=6,labeled=0.1,seed=3");
  const std::string path = SavedSnapshot(original, "parallel.lbps");
  std::string error;
  const auto serial = LoadSnapshot(path, &error, exec::ExecContext::Serial());
  ASSERT_TRUE(serial.has_value()) << error;
  ExpectScenariosIdentical(original, *serial);
  for (const int threads : {2, 4, 8}) {
    SCOPED_TRACE(threads);
    const auto threaded =
        LoadSnapshot(path, &error, exec::ExecContext::WithThreads(threads));
    ASSERT_TRUE(threaded.has_value()) << error;
    ExpectScenariosIdentical(*serial, *threaded);
  }
}

// The same scenario written by SaveSnapshot (one inline shard) and by
// ShardSnapshot (four shard files) loads memcmp-equal.
TEST(SnapshotTest, LoadsEqualTheSameScenariosShardSet) {
  for (const char* spec : {"fraud:users=80,products=40,seed=13",
                           "sbm:n=5000,k=3,deg=6,seed=3",
                           "kronecker:g=1,seed=4"}) {
    SCOPED_TRACE(spec);
    const Scenario original = MakeTestScenario(spec);
    const std::string path = SavedSnapshot(original, "parity.lbps");
    const std::string dir = TempPath("parity_shards");
    std::filesystem::remove_all(dir);
    std::string error;
    const auto written = ShardSnapshot(original, 4, dir, &error);
    ASSERT_TRUE(written.has_value()) << error;
    ASSERT_EQ(written->num_shards, 4);
    const auto from_file = LoadSnapshot(path, &error);
    ASSERT_TRUE(from_file.has_value()) << error;
    const auto from_shards = LoadShardedSnapshot(written->manifest_path,
                                                 &error);
    ASSERT_TRUE(from_shards.has_value()) << error;
    ExpectScenariosIdentical(*from_file, *from_shards);
    ExpectScenariosIdentical(original, *from_file);
  }
}

// A traced load shows the load layer's five spans and is memcmp-equal to
// an untraced one.
TEST(SnapshotTest, TracedLoadShowsTheLoadSpansAndEqualsAnUntracedOne) {
  const Scenario original = TestScenario();
  const std::string path = SavedSnapshot(original, "traced.lbps");
  std::string error;
  const auto untraced = LoadSnapshot(path, &error);
  ASSERT_TRUE(untraced.has_value()) << error;
  obs::Tracer tracer;
  obs::SetActiveTracer(&tracer);
  const auto traced = LoadSnapshot(path, &error);
  obs::SetActiveTracer(nullptr);
  ASSERT_TRUE(traced.has_value()) << error;
  ExpectScenariosIdentical(*untraced, *traced);
  const std::string json = tracer.Json();
  for (const char* span : {"load_read", "load_checksum", "load_decode",
                           "load_validate", "load_adopt"}) {
    EXPECT_NE(json.find("\"name\":\"" + std::string(span) + "\""),
              std::string::npos)
        << span << " in " << json;
  }
  // The reads carry their bytes (the manifest, then the inline shard),
  // and the adopt span the form the graph took.
  const std::vector<char> file = ReadBytes(path);
  const std::size_t manifest_bytes = ManifestBytes(file);
  EXPECT_NE(json.find("\"bytes\":" + std::to_string(manifest_bytes)),
            std::string::npos)
      << json;
  EXPECT_NE(
      json.find("\"bytes\":" + std::to_string(file.size() - manifest_bytes)),
      std::string::npos)
      << json;
  EXPECT_NE(json.find("\"unit_weights\":1"), std::string::npos) << json;
}

TEST(SnapshotTest, InfoReadsTheManifestWithoutTheShard) {
  const Scenario original = TestScenario();
  const std::string path = SavedSnapshot(original, "info.lbps");
  std::string error;
  const auto info = ReadShardManifestInfo(path, &error);
  ASSERT_TRUE(info.has_value()) << error;
  EXPECT_TRUE(info->shards_inline);
  EXPECT_FALSE(info->values_f32);
  EXPECT_EQ(info->num_nodes, original.graph.num_nodes());
  EXPECT_EQ(info->k, original.k);
  EXPECT_EQ(info->nnz, original.graph.num_directed_edges());
  EXPECT_EQ(info->num_explicit,
            static_cast<std::int64_t>(original.explicit_nodes.size()));
  EXPECT_TRUE(info->has_ground_truth);
  EXPECT_EQ(info->name, "fraud");
  EXPECT_EQ(info->spec, "fraud:users=80,products=40,seed=13");
  ASSERT_EQ(info->shards.size(), 1u);
  EXPECT_EQ(info->shards[0].row_end, original.graph.num_nodes());
  const std::vector<char> file = ReadBytes(path);
  EXPECT_EQ(info->file_bytes, static_cast<std::int64_t>(file.size()));
  EXPECT_EQ(info->file_bytes,
            static_cast<std::int64_t>(ManifestBytes(file)) + 64 +
                info->total_encoded_payload_bytes);
}

TEST(SnapshotTest, SaveReportsBufferedWriteFailures) {
  // /dev/full accepts the open but fails every flush with ENOSPC — the
  // disk-full scenario. A writer that skips the flush/close check would
  // report success for a file that was never durably written.
  if (!std::ifstream("/dev/full").good()) {
    GTEST_SKIP() << "/dev/full not available";
  }
  const Scenario scenario = TestScenario();
  std::string error;
  EXPECT_FALSE(SaveSnapshot(scenario, "/dev/full", &error));
  EXPECT_NE(error.find("failed"), std::string::npos) << error;
}

TEST(SnapshotTest, SaveReportsUnwritablePathsAndEmptyScenarios) {
  const Scenario scenario = TestScenario();
  std::string error;
  EXPECT_FALSE(SaveSnapshot(scenario, ::testing::TempDir(), &error));
  EXPECT_NE(error.find("cannot write"), std::string::npos) << error;

  Scenario empty;
  empty.k = 2;
  empty.coupling_residual = DenseMatrix(2, 2);
  empty.explicit_residuals = DenseMatrix(0, 2);
  EXPECT_FALSE(SaveSnapshot(empty, TempPath("empty.lbps"), &error));
  EXPECT_NE(error.find("empty scenario"), std::string::npos) << error;
}

// ---- Corruption matrix ---------------------------------------------------

TEST(SnapshotTest, RejectsMissingAndTruncatedFiles) {
  std::string error;
  EXPECT_FALSE(LoadSnapshot(TempPath("absent.lbps"), &error).has_value());
  EXPECT_NE(error.find("cannot open"), std::string::npos);

  const Scenario original = TestScenario();
  const std::string path = SavedSnapshot(original, "truncate.lbps");
  const std::vector<char> bytes = ReadBytes(path);
  const std::size_t manifest_bytes = ManifestBytes(bytes);
  const struct {
    std::size_t keep;
    std::string expected;
  } cuts[] = {
      {40, ": truncated shard manifest (shorter than the header)"},
      {manifest_bytes - 1, ": truncated manifest payload"},
      {manifest_bytes + 10, ": truncated shard payload"},
      {bytes.size() - 1, ": truncated shard payload"},
  };
  for (const auto& cut : cuts) {
    SCOPED_TRACE(cut.keep);
    WriteBytes(path, std::vector<char>(bytes.begin(),
                                       bytes.begin() + cut.keep));
    ExpectEveryReaderFails(path, path + cut.expected);
  }
}

// A file longer than its manifest and shard imply fails before it is
// read, in every reader: a 1 TiB sparse file must never be buffered.
TEST(SnapshotTest, OversizedFileIsAnErrorBeforeItIsRead) {
  const Scenario original = TestScenario();
  const std::string path = SavedSnapshot(original, "oversized.lbps");
  const std::uintmax_t size = std::filesystem::file_size(path);
  for (const std::uintmax_t grown : {size + 1, std::uintmax_t{1} << 40}) {
    SCOPED_TRACE(grown);
    std::filesystem::resize_file(path, grown);
    ExpectEveryReaderFails(path, path + ": oversized file (" +
                                     std::to_string(grown) +
                                     " bytes, expected " +
                                     std::to_string(size) + ")");
  }
  std::filesystem::resize_file(path, size);
  std::string error;
  EXPECT_TRUE(LoadSnapshot(path, &error).has_value()) << error;
}

// The name and spec lengths are read before the rest of the file: a
// length that points past the end of the file, or a file that ends inside
// a length prefix, is a truncated manifest in every reader.
TEST(SnapshotTest, StringLengthPastTheEndIsATruncatedManifest) {
  const Scenario original = TestScenario();
  const std::string path = SavedSnapshot(original, "strings.lbps");
  const std::vector<char> bytes = ReadBytes(path);
  std::uint32_t name_length = 0;
  std::memcpy(&name_length, bytes.data() + 64, 4);
  const std::size_t spec_at = 64 + 4 + name_length;
  const std::string truncated = path + ": truncated manifest payload";
  const std::uint32_t huge = 0xfffffff0u;
  for (const std::size_t at : {std::size_t{64}, spec_at}) {
    SCOPED_TRACE(at);
    std::vector<char> forged = bytes;
    std::memcpy(forged.data() + at, &huge, 4);
    WriteBytes(path, forged);
    ExpectEveryReaderFails(path, truncated);
  }
  for (const std::size_t keep : {std::size_t{66}, spec_at + 2}) {
    SCOPED_TRACE(keep);
    WriteBytes(path, std::vector<char>(bytes.begin(), bytes.begin() + keep));
    ExpectEveryReaderFails(path, truncated);
  }
}

TEST(SnapshotTest, RejectsBadMagicVersionAndEndianness) {
  const Scenario original = TestScenario();
  const std::string path = SavedSnapshot(original, "header.lbps");
  const std::vector<char> bytes = ReadBytes(path);
  const std::size_t shard_at = ManifestBytes(bytes);

  std::vector<char> bad_magic = bytes;
  bad_magic[0] = 'X';
  WriteBytes(path, bad_magic);
  ExpectEveryReaderFails(path,
                         path + ": not a LinBP shard manifest (bad magic)");

  std::vector<char> bad_version = bytes;
  WriteField<std::uint32_t>(&bad_version, 8, 99);
  WriteBytes(path, bad_version);
  ExpectEveryReaderFails(
      path, path + ": unsupported shard manifest version 99 (expected 6)");

  // A big-endian writer would emit the tag byte-swapped.
  std::vector<char> swapped = bytes;
  std::swap(swapped[12], swapped[15]);
  std::swap(swapped[13], swapped[14]);
  WriteBytes(path, swapped);
  ExpectEveryReaderFails(path,
                         path + ": big-endian shard manifest is not supported");

  // The inline shard's own header is checked the same way.
  std::vector<char> shard_version = bytes;
  WriteField<std::uint32_t>(&shard_version, shard_at + 8, 5);
  WriteBytes(path, shard_version);
  std::string error;
  EXPECT_FALSE(LoadSnapshot(path, &error).has_value());
  EXPECT_EQ(error,
            path + ": unsupported snapshot shard version 5 (expected 6)");
  std::vector<char> shard_magic = bytes;
  shard_magic[shard_at] = 'X';
  WriteBytes(path, shard_magic);
  EXPECT_FALSE(LoadSnapshot(path, &error).has_value());
  EXPECT_EQ(error, path + ": not a LinBP snapshot shard (bad magic)");
}

TEST(SnapshotTest, RejectsBitFlipsAndBadHeaderCounts) {
  const Scenario original = TestScenario();
  const std::string path = SavedSnapshot(original, "corrupt.lbps");
  const std::vector<char> bytes = ReadBytes(path);

  // One flipped bit in the manifest payload, then in the shard payload.
  std::vector<char> flipped = bytes;
  flipped[ManifestBytes(bytes) - 3] ^= 0x20;
  WriteBytes(path, flipped);
  ExpectEveryReaderFails(path,
                         path + ": checksum mismatch (corrupted manifest)");
  flipped = bytes;
  flipped[flipped.size() - 7] ^= 0x20;
  WriteBytes(path, flipped);
  std::string error;
  EXPECT_FALSE(LoadSnapshot(path, &error).has_value());
  EXPECT_EQ(error, path + ": checksum mismatch (corrupted shard)");

  // num_explicit > num_nodes in the header.
  std::vector<char> bad_counts = bytes;
  WriteField<std::int64_t>(&bad_counts, 40, original.graph.num_nodes() + 1);
  WriteBytes(path, bad_counts);
  ExpectEveryReaderFails(
      path, path + ": corrupted manifest header (counts out of range)");

  // An unknown flag bit.
  std::vector<char> bad_flags = bytes;
  WriteField<std::uint32_t>(&bad_flags, 48, 1u | 4u | 64u);
  WriteBytes(path, bad_flags);
  ExpectEveryReaderFails(path,
                         path + ": corrupted manifest header (unknown flags)");
}

// Hostile payloads behind re-forged checksums: only the decode and the
// mirror sweep can reject them, with errors, never a crash.
TEST(SnapshotTest, RejectsChecksumValidVarintCorruptionAndAsymmetry) {
  const Scenario original = WeightedTestScenario();
  const std::string path = SavedSnapshot(original, "hostile.lbps");
  const std::vector<char> pristine = ReadBytes(path);

  std::vector<char> shard = ReadShard(path, 0);
  std::size_t off = linbp::testing::FirstRowWithEntries(shard, 0, 2);
  linbp::testing::ReadTestVarint(shard, &off);  // the first column id
  shard[off] = 0x00;                            // delta 0: not rising
  WriteForgedShard(path, 0, shard);
  std::string error;
  EXPECT_FALSE(LoadSnapshot(path, &error).has_value());
  EXPECT_EQ(error, path +
                       ": invalid shard column section (row group 0: "
                       "non-monotone delta (columns not strictly "
                       "increasing))");

  // The first stored weight changes, its mirror keeps the old one.
  WriteBytes(path, pristine);
  shard = ReadShard(path, 0);
  WriteField(&shard, LayoutOf(shard).values, 7.5);
  WriteForgedShard(path, 0, shard);
  EXPECT_FALSE(LoadSnapshot(path, &error).has_value());
  EXPECT_NE(error.find("invalid adjacency payload"), std::string::npos)
      << error;
}

// The loader looks up the mirror of every entry above the diagonal and
// counts them: an entry below the diagonal without its mirror, one above
// without its mirror, and a mirror with another weight all fail, from an
// inline file and from a shard set; the symmetric twin loads.
TEST(SnapshotTest, RejectsAnEntryWithoutItsMirrorOnEitherSide) {
  struct Csr {
    const char* what;
    std::vector<std::int64_t> row_ptr;
    std::vector<std::int32_t> col_idx;
    std::vector<double> values;
    bool symmetric;
  };
  const Csr cases[] = {
      {"symmetric", {0, 1, 3, 4}, {1, 0, 2, 1}, {1, 1, 2, 2}, true},
      {"below without mirror", {0, 1, 2, 3}, {1, 0, 0}, {1, 1, 1}, false},
      {"above without mirror", {0, 1, 3, 3}, {1, 0, 2}, {1, 1, 1}, false},
      {"another weight", {0, 1, 3, 4}, {1, 0, 2, 1}, {1, 1, 2, 3}, false},
  };
  for (const Csr& csr : cases) {
    SCOPED_TRACE(csr.what);
    Scenario scenario;
    scenario.k = 2;
    scenario.coupling_residual = DenseMatrix(2, 2);
    scenario.explicit_residuals = DenseMatrix(3, 2);
    scenario.graph = Graph::FromValidatedAdjacency(
        SparseMatrix::FromValidatedCsr(3, 3, csr.row_ptr, csr.col_idx,
                                       csr.values));
    const std::string file = SavedSnapshot(scenario, "mirror.lbps");
    const std::string dir = TempPath("mirror_shards");
    std::filesystem::remove_all(dir);
    std::string error;
    const auto written = ShardSnapshot(scenario, 2, dir, &error);
    ASSERT_TRUE(written.has_value()) << error;
    ASSERT_EQ(written->num_shards, 2);
    for (const std::string& manifest : {file, written->manifest_path}) {
      const auto loaded = LoadShardedSnapshot(manifest, &error);
      EXPECT_EQ(loaded.has_value(), csr.symmetric) << manifest;
      if (!csr.symmetric) {
        EXPECT_EQ(error, manifest +
                             ": invalid adjacency payload (an entry's "
                             "mirror is missing or has another weight)");
      }
    }
  }
}

// Counts far beyond the file behind consistent checksums are rejected
// before anything is sized by them: an allocation of 2^40 entries would
// abort the test.
TEST(SnapshotTest, RejectsHugeCountsWithoutAllocating) {
  const Scenario original = TestScenario();
  const std::string path = SavedSnapshot(original, "huge.lbps");
  const std::vector<char> bytes = ReadBytes(path);
  const std::int64_t huge = std::int64_t{1} << 40;

  // The header alone (outside the manifest checksum).
  std::vector<char> forged = bytes;
  WriteField<std::int64_t>(&forged, 32, huge);
  WriteBytes(path, forged);
  ExpectEveryReaderFails(
      path, path + ": shard nnz counts do not sum to the manifest total");

  // Header and entry agree, and the entry's payload size matches its
  // counts: the file is far too short for it.
  WriteBytes(path, bytes);
  ForgeManifest(path, [&](std::vector<char>* file) {
    const std::size_t entry = ManifestEntryOffset(*file, 0);
    const std::int64_t rows = original.graph.num_nodes();
    WriteField<std::int64_t>(file, 32, huge);
    WriteField<std::int64_t>(file, entry + 16, huge);
    const std::int64_t value_bytes = static_cast<std::int64_t>(
        linbp::testing::ValueBytes(ReadField<std::uint32_t>(*file, 48)));
    WriteField<std::int64_t>(
        file, entry + 32,
        8 + 16 + rows + huge + value_bytes * huge +
            8 * static_cast<std::int64_t>(original.explicit_nodes.size()) *
                (1 + original.k) +
            4 * rows);
  });
  ExpectEveryReaderFails(path, path + ": truncated shard payload");
}

// Every defect class the load no longer re-checks after the decode —
// non-monotone rows, an out-of-range or unsorted column, a self-loop, a
// NaN weight — still fails, through the decode, on the bulk path: in an
// inline file and in a shard set.
TEST(SnapshotTest, DefectsTheDecodeRejectsFailTheBulkLoad) {
  // Multi-group shards, so the row-group table can go non-monotone, and
  // weighted, so they have a value section.
  Scenario original = MakeTestScenario("sbm:n=5000,k=3,deg=4,seed=2");
  original.graph = linbp::testing::WithEndpointWeights(original.graph);
  const auto& row_ptr = original.graph.adjacency().row_ptr();
  std::int64_t first_row = 0;  // the first row with an entry
  while (row_ptr[first_row + 1] == row_ptr[first_row]) ++first_row;

  const struct {
    const char* what;
    std::function<void(std::vector<char>*)> mutate;
  } defects[] = {
      {"row-group table: entry ends decrease",
       [](std::vector<char>* shard) {
         linbp::testing::SetGroupEnd(shard, 1, 1, GroupEnd(*shard, 0, 1) - 1);
       }},
      {"row group 0: column id out of range",
       [](std::vector<char>* shard) {
         // The first column id becomes 2^32 - 1, far past any node.
         const unsigned char id[5] = {0xFF, 0xFF, 0xFF, 0xFF, 0x0F};
         std::memcpy(shard->data() +
                         linbp::testing::FirstRowWithEntries(*shard, 0, 1),
                     id, 5);
       }},
      {"row group 0: non-monotone delta",
       [](std::vector<char>* shard) {
         std::size_t off = linbp::testing::FirstRowWithEntries(*shard, 0, 2);
         linbp::testing::ReadTestVarint(*shard, &off);
         (*shard)[off] = 0x00;
       }},
      {"row group 0: self-loop",
       [&](std::vector<char>* shard) {
         // The decode stops at the self-loop, so a longer varint may
         // clobber what follows it.
         std::vector<char> self;
         internal::AppendVarint(static_cast<std::uint64_t>(first_row), &self);
         std::memcpy(shard->data() +
                         linbp::testing::FirstRowWithEntries(*shard, 0, 1),
                     self.data(), self.size());
       }},
      {"row group 0: non-finite weight",
       [](std::vector<char>* shard) {
         WriteField(shard, LayoutOf(*shard).values,
                    std::numeric_limits<double>::quiet_NaN());
       }},
  };

  const std::string file = SavedSnapshot(original, "defects.lbps");
  const std::string dir = TempPath("defects_shards");
  std::filesystem::remove_all(dir);
  std::string error;
  const auto written = ShardSnapshot(original, 2, dir, &error);
  ASSERT_TRUE(written.has_value()) << error;
  for (const std::string& manifest : {file, written->manifest_path}) {
    const std::vector<char> manifest_pristine = ReadBytes(manifest);
    const std::vector<char> shard_pristine = ReadShard(manifest, 0);
    ASSERT_GE(LayoutOf(shard_pristine).groups, 2);
    for (const auto& defect : defects) {
      SCOPED_TRACE(manifest + ": " + defect.what);
      std::vector<char> shard = shard_pristine;
      defect.mutate(&shard);
      WriteForgedShard(manifest, 0, shard);
      EXPECT_FALSE(LoadShardedSnapshot(manifest, &error,
                                       exec::ExecContext::WithThreads(4))
                       .has_value());
      EXPECT_NE(error.find(defect.what), std::string::npos) << error;
      WriteForgedShard(manifest, 0, shard_pristine);
      EXPECT_EQ(ReadBytes(manifest), manifest_pristine);
    }
    EXPECT_TRUE(LoadShardedSnapshot(manifest, &error).has_value()) << error;
  }
}

// ---- Retired layouts -----------------------------------------------------

// A 64-byte header of the shape every layout has used: magic, version,
// endian tag, four i64 counts, u32 flags, a u32 count and a checksum,
// followed by `payload`.
std::vector<char> HandMadeFile(const char* magic, std::uint32_t version,
                               const std::vector<char>& payload) {
  std::vector<char> bytes(64 + payload.size());
  std::memcpy(bytes.data(), magic, 8);
  WriteField(&bytes, 8, version);
  WriteField(&bytes, 12, internal::kEndianTag);
  WriteField<std::int64_t>(&bytes, 16, 2);  // nodes (or row_begin 0..2)
  WriteField<std::int64_t>(&bytes, 24, 2);  // k
  WriteField<std::int64_t>(&bytes, 32, 2);  // nnz
  WriteField<std::uint32_t>(&bytes, 52, 1);  // shards
  std::memcpy(bytes.data() + 64, payload.data(), payload.size());
  FixChecksum(&bytes);
  return bytes;
}

// Files of the retired layouts, built by hand since no writer makes them
// any more, fail with an error that names what they are.
TEST(SnapshotTest, RetiredLayoutsFailWithAPreciseError) {
  // A version-2 raw snapshot: strings, coupling, then raw CSR arrays.
  std::vector<char> raw_payload;
  internal::AppendString("sbm", &raw_payload);
  internal::AppendString("sbm:n=2", &raw_payload);
  raw_payload.resize(raw_payload.size() + 4 * 8 + 3 * 8 + 2 * 4 + 2 * 8, 0);
  const std::string snapshot = TempPath("retired_v2.lbps");
  WriteBytes(snapshot, HandMadeFile("LINBPSNP", 2, raw_payload));
  ExpectEveryReaderFails(snapshot,
                         snapshot + ": retired raw snapshot layout (version "
                                    "2); regenerate it with `linbp_cli "
                                    "convert`");

  // Version-3 (raw shards) and version-5 (compressed shards) manifests,
  // each with its shard file beside it.
  for (const std::uint32_t version : {3u, 5u}) {
    SCOPED_TRACE(version);
    const std::string dir = TempPath("retired_v" + std::to_string(version));
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    std::vector<char> entry_payload;
    internal::AppendString("sbm", &entry_payload);
    internal::AppendString("sbm:n=2", &entry_payload);
    entry_payload.resize(entry_payload.size() + 4 * 8 + 6 * 8, 0);
    internal::AppendString(ShardFileName(0), &entry_payload);
    const std::string manifest = dir + "/" + ShardManifestFileName();
    WriteBytes(manifest, HandMadeFile("LINBPSHM", version, entry_payload));
    WriteBytes(dir + "/" + ShardFileName(0),
               HandMadeFile("LINBPSHD", version, std::vector<char>(40, 0)));
    ExpectEveryReaderFails(manifest,
                           manifest + ": unsupported shard manifest version " +
                               std::to_string(version) + " (expected 6)");
  }
}

TEST(SnapshotTest, LoadedScenarioRunsEndToEnd) {
  const Scenario original = TestScenario();
  const std::string path = SavedSnapshot(original, "end_to_end.lbps");
  std::string error;
  const auto loaded = LoadSnapshot(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  // The reconstructed graph is a fully functional Graph: symmetric
  // adjacency, consistent degrees, usable by the solvers.
  EXPECT_TRUE(loaded->graph.adjacency().IsSymmetric());
  EXPECT_EQ(loaded->Coupling().k(), loaded->k);
  for (std::int64_t v = 0; v < loaded->graph.num_nodes(); ++v) {
    EXPECT_EQ(loaded->graph.Degree(v), original.graph.Degree(v));
  }
}

}  // namespace
}  // namespace dataset
}  // namespace linbp
