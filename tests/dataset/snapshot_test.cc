#include "src/dataset/snapshot.h"

#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "src/dataset/format_internal.h"
#include "src/dataset/registry.h"
#include "tests/testing/test_util.h"

namespace linbp {
namespace dataset {
namespace {

using linbp::testing::ReadBytes;
using linbp::testing::WriteBytes;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

Scenario TestScenario() {
  std::string error;
  auto scenario =
      MakeScenario("fraud:users=80,products=40,seed=13", &error);
  EXPECT_TRUE(scenario.has_value()) << error;
  return std::move(*scenario);
}

std::string SavedSnapshot(const Scenario& scenario, const std::string& name) {
  const std::string path = TempPath(name);
  std::string error;
  EXPECT_TRUE(SaveSnapshot(scenario, path, &error)) << error;
  return path;
}

void ExpectScenariosIdentical(const Scenario& a, const Scenario& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.spec, b.spec);
  EXPECT_EQ(a.k, b.k);
  // CSR arrays must match bit for bit.
  EXPECT_EQ(a.graph.adjacency().row_ptr(), b.graph.adjacency().row_ptr());
  EXPECT_EQ(a.graph.adjacency().col_idx(), b.graph.adjacency().col_idx());
  EXPECT_EQ(a.graph.adjacency().values(), b.graph.adjacency().values());
  EXPECT_EQ(a.graph.weighted_degrees(), b.graph.weighted_degrees());
  EXPECT_EQ(a.coupling_residual.data(), b.coupling_residual.data());
  EXPECT_EQ(a.explicit_residuals.data(), b.explicit_residuals.data());
  EXPECT_EQ(a.explicit_nodes, b.explicit_nodes);
  EXPECT_EQ(a.ground_truth, b.ground_truth);
}

TEST(SnapshotTest, RoundTripsBitIdentically) {
  const Scenario original = TestScenario();
  const std::string path = SavedSnapshot(original, "roundtrip.lbps");
  std::string error;
  const auto loaded = LoadSnapshot(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  ExpectScenariosIdentical(original, *loaded);

  // The derived edge list is the canonical (u < v, sorted) ordering the
  // generators produce, with identical weights.
  ASSERT_EQ(loaded->graph.edges().size(), original.graph.edges().size());
  EXPECT_EQ(loaded->graph.num_undirected_edges(),
            original.graph.num_undirected_edges());

  // Saving the loaded scenario reproduces the file byte for byte.
  const std::string resaved = SavedSnapshot(*loaded, "roundtrip2.lbps");
  EXPECT_EQ(ReadBytes(path), ReadBytes(resaved));
}

TEST(SnapshotTest, RoundTripsWithoutGroundTruth) {
  std::string error;
  auto original = MakeScenario("kronecker:g=1,seed=4", &error);
  ASSERT_TRUE(original.has_value()) << error;
  ASSERT_FALSE(original->HasGroundTruth());
  const std::string path = SavedSnapshot(*original, "no_truth.lbps");
  const auto loaded = LoadSnapshot(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  ExpectScenariosIdentical(*original, *loaded);
}

TEST(SnapshotTest, ParallelLoadIsBitIdenticalToSerial) {
  const Scenario original = TestScenario();
  const std::string path = SavedSnapshot(original, "parallel.lbps");
  std::string error;
  const auto serial =
      LoadSnapshot(path, &error, exec::ExecContext::Serial());
  ASSERT_TRUE(serial.has_value()) << error;
  const auto threaded =
      LoadSnapshot(path, &error, exec::ExecContext::WithThreads(4));
  ASSERT_TRUE(threaded.has_value()) << error;
  ExpectScenariosIdentical(*serial, *threaded);
}

TEST(SnapshotTest, InfoReadsHeaderWithoutDeserializing) {
  const Scenario original = TestScenario();
  const std::string path = SavedSnapshot(original, "info.lbps");
  std::string error;
  const auto info = ReadSnapshotInfo(path, &error);
  ASSERT_TRUE(info.has_value()) << error;
  EXPECT_EQ(info->version, kSnapshotVersion);
  EXPECT_EQ(info->num_nodes, original.graph.num_nodes());
  EXPECT_EQ(info->k, original.k);
  EXPECT_EQ(info->nnz, original.graph.num_directed_edges());
  EXPECT_EQ(info->num_explicit,
            static_cast<std::int64_t>(original.explicit_nodes.size()));
  EXPECT_TRUE(info->has_ground_truth);
  EXPECT_EQ(info->name, "fraud");
  EXPECT_EQ(info->spec, "fraud:users=80,products=40,seed=13");
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

TEST(SnapshotTest, SaveReportsUnwritablePaths) {
  const Scenario scenario = TestScenario();
  std::string error;
  EXPECT_FALSE(SaveSnapshot(scenario, ::testing::TempDir(), &error));
  EXPECT_NE(error.find("cannot write"), std::string::npos) << error;
}

TEST(SnapshotTest, RejectsMissingAndTruncatedFiles) {
  std::string error;
  EXPECT_FALSE(LoadSnapshot(TempPath("absent.lbps"), &error).has_value());
  EXPECT_NE(error.find("cannot open"), std::string::npos);

  const Scenario original = TestScenario();
  const std::string path = SavedSnapshot(original, "truncate.lbps");
  const std::vector<char> bytes = ReadBytes(path);
  // Shorter than the header.
  WriteBytes(path, std::vector<char>(bytes.begin(), bytes.begin() + 40));
  EXPECT_FALSE(LoadSnapshot(path, &error).has_value());
  EXPECT_NE(error.find("truncated"), std::string::npos) << error;
  // Header intact, payload cut.
  WriteBytes(path,
             std::vector<char>(bytes.begin(), bytes.end() - 100));
  EXPECT_FALSE(LoadSnapshot(path, &error).has_value());
  // (either the checksum or the section reads catch it first)
  EXPECT_FALSE(error.empty());
}

// A snapshot longer than its header and strings imply fails before it
// is read, in both readers, with the shard loaders' message: a 1 TiB
// sparse file must never be buffered.
TEST(SnapshotTest, OversizedFileIsAnErrorBeforeItIsRead) {
  const Scenario original = TestScenario();
  const std::string path = SavedSnapshot(original, "oversized.lbps");
  const std::uintmax_t size = std::filesystem::file_size(path);
  for (const std::uintmax_t grown : {size + 1, std::uintmax_t{1} << 40}) {
    SCOPED_TRACE(grown);
    std::filesystem::resize_file(path, grown);
    const std::string expected = path + ": oversized file (" +
                                 std::to_string(grown) + " bytes, expected " +
                                 std::to_string(size) + ")";
    std::string error;
    EXPECT_FALSE(LoadSnapshot(path, &error).has_value());
    EXPECT_EQ(error, expected);
    error.clear();
    EXPECT_FALSE(ReadSnapshotInfo(path, &error).has_value());
    EXPECT_EQ(error, expected);
  }
  std::filesystem::resize_file(path, size);
  std::string error;
  const auto info = ReadSnapshotInfo(path, &error);
  ASSERT_TRUE(info.has_value()) << error;
  EXPECT_EQ(info->file_bytes, static_cast<std::int64_t>(size));
  EXPECT_TRUE(LoadSnapshot(path, &error).has_value()) << error;
}

// The name and spec lengths are read before the rest of the file: a
// length that points past the end of the file, a file that ends inside a
// length prefix, or one cut short of the size they imply is a truncated
// payload in both readers.
TEST(SnapshotTest, StringLengthPastTheEndIsATruncatedPayload) {
  const Scenario original = TestScenario();
  const std::string path = SavedSnapshot(original, "strings.lbps");
  const std::vector<char> bytes = ReadBytes(path);
  std::uint32_t name_length = 0;
  std::memcpy(&name_length, bytes.data() + 64, 4);
  const std::size_t spec_at = 64 + 4 + name_length;
  const std::string truncated = path + ": truncated snapshot payload";
  auto expect_truncated = [&](const std::vector<char>& file) {
    WriteBytes(path, file);
    std::string error;
    EXPECT_FALSE(LoadSnapshot(path, &error).has_value());
    EXPECT_EQ(error, truncated);
    error.clear();
    EXPECT_FALSE(ReadSnapshotInfo(path, &error).has_value());
    EXPECT_EQ(error, truncated);
  };
  const std::uint32_t huge = 0xfffffff0u;
  for (const std::size_t at : {std::size_t{64}, spec_at}) {
    SCOPED_TRACE(at);
    std::vector<char> forged = bytes;
    std::memcpy(forged.data() + at, &huge, 4);
    expect_truncated(forged);
  }
  for (const std::size_t keep :
       {std::size_t{66}, spec_at + 2, bytes.size() - 1}) {
    SCOPED_TRACE(keep);
    expect_truncated(std::vector<char>(bytes.begin(), bytes.begin() + keep));
  }
}

TEST(SnapshotTest, RejectsBadMagicVersionAndEndianness) {
  const Scenario original = TestScenario();
  const std::string path = SavedSnapshot(original, "header.lbps");
  const std::vector<char> bytes = ReadBytes(path);
  std::string error;

  std::vector<char> bad_magic = bytes;
  bad_magic[0] = 'X';
  WriteBytes(path, bad_magic);
  EXPECT_FALSE(LoadSnapshot(path, &error).has_value());
  EXPECT_NE(error.find("bad magic"), std::string::npos) << error;

  std::vector<char> bad_version = bytes;
  const std::uint32_t version = 99;
  std::memcpy(bad_version.data() + 8, &version, 4);
  WriteBytes(path, bad_version);
  EXPECT_FALSE(LoadSnapshot(path, &error).has_value());
  EXPECT_NE(error.find("unsupported snapshot version 99"),
            std::string::npos)
      << error;

  // A big-endian writer would emit the tag byte-swapped.
  std::vector<char> swapped = bytes;
  std::swap(swapped[12], swapped[15]);
  std::swap(swapped[13], swapped[14]);
  WriteBytes(path, swapped);
  EXPECT_FALSE(LoadSnapshot(path, &error).has_value());
  EXPECT_NE(error.find("big-endian"), std::string::npos) << error;

  EXPECT_FALSE(ReadSnapshotInfo(path, &error).has_value());
}

// Version 1 is the same layout checksummed with FNV-1a: it must fail as
// an unsupported version, never reach the checksum comparison.
TEST(SnapshotTest, RejectsThePreviousFormatVersion) {
  const Scenario original = TestScenario();
  const std::string path = SavedSnapshot(original, "previous.lbps");
  std::vector<char> bytes = ReadBytes(path);
  const std::uint32_t previous = kSnapshotVersion - 1;
  std::memcpy(bytes.data() + 8, &previous, 4);
  WriteBytes(path, bytes);
  std::string error;
  EXPECT_FALSE(LoadSnapshot(path, &error).has_value());
  EXPECT_NE(error.find("unsupported snapshot version 1"), std::string::npos)
      << error;
  EXPECT_FALSE(ReadSnapshotInfo(path, &error).has_value());
  EXPECT_NE(error.find("unsupported snapshot version 1"), std::string::npos)
      << error;
}

TEST(SnapshotTest, RejectsCorruptedPayloadAndHeaderCounts) {
  const Scenario original = TestScenario();
  const std::string path = SavedSnapshot(original, "corrupt.lbps");
  const std::vector<char> bytes = ReadBytes(path);
  std::string error;

  // Flip one payload byte: the checksum must catch it.
  std::vector<char> flipped = bytes;
  flipped[flipped.size() - 7] ^= 0x20;
  WriteBytes(path, flipped);
  EXPECT_FALSE(LoadSnapshot(path, &error).has_value());
  EXPECT_NE(error.find("checksum mismatch"), std::string::npos) << error;

  // num_explicit > num_nodes in the header.
  std::vector<char> bad_counts = bytes;
  const std::int64_t huge = original.graph.num_nodes() + 1;
  std::memcpy(bad_counts.data() + 40, &huge, 8);
  WriteBytes(path, bad_counts);
  EXPECT_FALSE(LoadSnapshot(path, &error).has_value());
  EXPECT_NE(error.find("counts out of range"), std::string::npos) << error;

  // Appended trailing garbage changes the payload, so it cannot pass.
  std::vector<char> padded = bytes;
  padded.insert(padded.end(), 16, '\0');
  WriteBytes(path, padded);
  EXPECT_FALSE(LoadSnapshot(path, &error).has_value());
}

// Helpers for crafting checksum-valid but structurally hostile payloads:
// the loader must reject them with errors, never crash or abort.
void FixChecksum(std::vector<char>* bytes) {
  const std::uint64_t checksum =
      internal::PayloadChecksum(bytes->data() + 64, bytes->size() - 64);
  std::memcpy(bytes->data() + 56, &checksum, 8);
}

// Byte offset of the CSR row_ptr section inside the payload.
std::size_t RowPtrOffset(const std::vector<char>& bytes) {
  std::int64_t k = 0;
  std::memcpy(&k, bytes.data() + 24, 8);
  std::size_t off = 64;
  auto skip_string = [&] {
    std::uint32_t length = 0;
    std::memcpy(&length, bytes.data() + off, 4);
    off += 4 + length;
  };
  skip_string();  // name
  skip_string();  // spec
  off += static_cast<std::size_t>(k * k) * 8;  // coupling residual
  return off;
}

TEST(SnapshotTest, RejectsChecksumValidRowPtrCorruption) {
  const Scenario original = TestScenario();
  const std::string path = SavedSnapshot(original, "hostile_rowptr.lbps");
  std::vector<char> bytes = ReadBytes(path);
  // row_ptr[1] = 1000000 with nnz far smaller: without the up-front
  // whole-array monotonicity check the entry sweep would read col_idx a
  // million entries out of bounds.
  const std::int64_t huge = 1000000;
  std::memcpy(bytes.data() + RowPtrOffset(bytes) + 8, &huge, 8);
  FixChecksum(&bytes);
  WriteBytes(path, bytes);
  std::string error;
  EXPECT_FALSE(LoadSnapshot(path, &error).has_value());
  EXPECT_NE(error.find("invalid CSR row pointers"), std::string::npos)
      << error;
}

TEST(SnapshotTest, RejectsChecksumValidAsymmetry) {
  const Scenario original = TestScenario();
  const std::string path = SavedSnapshot(original, "hostile_values.lbps");
  std::vector<char> bytes = ReadBytes(path);
  // Overwrite the first stored value only: its mirror keeps the old
  // weight, so the symmetry sweep must reject the payload.
  const std::size_t values_offset =
      RowPtrOffset(bytes) +
      static_cast<std::size_t>(original.graph.num_nodes() + 1) * 8 +
      static_cast<std::size_t>(original.graph.num_directed_edges()) * 4;
  const double tweaked = 7.5;
  std::memcpy(bytes.data() + values_offset, &tweaked, 8);
  FixChecksum(&bytes);
  WriteBytes(path, bytes);
  std::string error;
  EXPECT_FALSE(LoadSnapshot(path, &error).has_value());
  EXPECT_NE(error.find("invalid adjacency payload"), std::string::npos)
      << error;
}

TEST(SnapshotTest, RejectsHugeNnzWithoutAllocating) {
  const Scenario original = TestScenario();
  const std::string path = SavedSnapshot(original, "hostile_nnz.lbps");
  std::vector<char> bytes = ReadBytes(path);
  // An nnz so large that count * sizeof(T) wraps size_t: the bounds
  // check must reject it before any resize, not abort on length_error.
  const std::int64_t nnz = std::int64_t{1} << 62;
  std::memcpy(bytes.data() + 32, &nnz, 8);
  WriteBytes(path, bytes);
  std::string error;
  EXPECT_FALSE(LoadSnapshot(path, &error).has_value());
  EXPECT_NE(error.find("truncated"), std::string::npos) << error;
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
