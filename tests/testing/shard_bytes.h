// Byte-level access to shard manifests and shards (src/dataset/shard.h),
// for tests that forge hostile but checksum-valid files. Every helper
// takes a manifest path that is either a directory's `manifest.lbpm` or a
// `.lbps` with its shards inline, and finds the shard bytes in either.

#ifndef LINBP_TESTS_TESTING_SHARD_BYTES_H_
#define LINBP_TESTS_TESTING_SHARD_BYTES_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "src/dataset/format_internal.h"
#include "src/dataset/shard.h"
#include "tests/testing/test_util.h"

namespace linbp {
namespace testing {

/// Reads one little-endian POD at `at`.
template <typename T>
T ReadField(const std::vector<char>& bytes, std::size_t at) {
  T value{};
  std::memcpy(&value, bytes.data() + at, sizeof(T));
  return value;
}

template <typename T>
void WriteField(std::vector<char>* bytes, std::size_t at, T value) {
  std::memcpy(bytes->data() + at, &value, sizeof(T));
}

/// Re-forges the checksum of the 64-byte header at `at` over the
/// `payload_bytes` bytes after it (default: to the end of `bytes`).
inline void FixChecksum(std::vector<char>* bytes, std::size_t at = 0,
                        std::size_t payload_bytes = SIZE_MAX) {
  const std::size_t begin = at + 64;
  const std::size_t size =
      payload_bytes == SIZE_MAX ? bytes->size() - begin : payload_bytes;
  WriteField(bytes, at + 56,
             dataset::internal::PayloadChecksum(bytes->data() + begin, size));
}

/// Offset of shard s's 48-byte entry in the manifest at the front of
/// `file` (fields: row_begin, row_end, nnz, num_explicit, payload_bytes,
/// checksum).
inline std::size_t ManifestEntryOffset(const std::vector<char>& file,
                                       std::int64_t s) {
  const std::int64_t k = ReadField<std::int64_t>(file, 24);
  const std::size_t name = ReadField<std::uint32_t>(file, 64);
  const std::size_t spec = ReadField<std::uint32_t>(file, 68 + name);
  return 72 + name + spec + static_cast<std::size_t>(k * k) * 8 +
         48 * static_cast<std::size_t>(s);
}

/// Size of the manifest at the front of `file`.
inline std::size_t ManifestBytes(const std::vector<char>& file) {
  return ManifestEntryOffset(file, ReadField<std::uint32_t>(file, 52));
}

inline bool ShardsInline(const std::vector<char>& file) {
  return (ReadField<std::uint32_t>(file, 48) & 4u) != 0;
}

/// Where shard s's header starts in an inline file.
inline std::size_t InlineShardOffset(const std::vector<char>& file,
                                     std::int64_t s) {
  std::size_t at = ManifestBytes(file);
  for (std::int64_t t = 0; t < s; ++t) {
    at += 64 + ReadField<std::int64_t>(file, ManifestEntryOffset(file, t) +
                                                 32);
  }
  return at;
}

inline std::string ShardFilePath(const std::string& manifest,
                                 std::int64_t s) {
  return (std::filesystem::path(manifest).parent_path() /
          dataset::ShardFileName(s))
      .string();
}

/// Shard s's bytes (header and payload), wherever they live.
inline std::vector<char> ReadShard(const std::string& manifest,
                                   std::int64_t s) {
  const std::vector<char> file = ReadBytes(manifest);
  if (!ShardsInline(file)) return ReadBytes(ShardFilePath(manifest, s));
  const std::size_t at = InlineShardOffset(file, s);
  const std::size_t size =
      64 + ReadField<std::int64_t>(file, ManifestEntryOffset(file, s) + 32);
  return std::vector<char>(file.begin() + at, file.begin() + at + size);
}

/// Stores `shard` as shard s's bytes and re-forges every checksum on the
/// path to it (its header, its manifest entry, the manifest header), so
/// only a structural check can reject it. Unless `declare_size`, the
/// manifest's declared payload size is left alone: a shard of another
/// length reads as truncated or oversized.
inline void WriteForgedShard(const std::string& manifest, std::int64_t s,
                             std::vector<char> shard,
                             bool declare_size = false) {
  FixChecksum(&shard);
  std::vector<char> file = ReadBytes(manifest);
  const std::size_t entry = ManifestEntryOffset(file, s);
  if (ShardsInline(file)) {
    const std::size_t at = InlineShardOffset(file, s);
    const std::size_t size = 64 + ReadField<std::int64_t>(file, entry + 32);
    file.erase(file.begin() + at, file.begin() + at + size);
    file.insert(file.begin() + at, shard.begin(), shard.end());
  } else {
    WriteBytes(ShardFilePath(manifest, s), shard);
  }
  if (declare_size) {
    WriteField(&file, entry + 32,
               static_cast<std::int64_t>(shard.size()) - 64);
  }
  WriteField(&file, entry + 40, ReadField<std::uint64_t>(shard, 56));
  FixChecksum(&file, 0, ManifestBytes(file) - 64);
  WriteBytes(manifest, file);
}

/// Rewrites the manifest's own bytes through `mutate` (which sees the
/// whole file, inline shards included) and re-forges its checksum.
template <typename Mutate>
void ForgeManifest(const std::string& manifest, const Mutate& mutate) {
  std::vector<char> file = ReadBytes(manifest);
  mutate(&file);
  FixChecksum(&file, 0, ManifestBytes(file) - 64);
  WriteBytes(manifest, file);
}

/// Reads one LEB128 varint from trusted test bytes.
inline std::uint64_t ReadTestVarint(const std::vector<char>& bytes,
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

/// Bytes per stored value under header or manifest `flags`: none for
/// unit weights (bit 3), 4 for f32 (bit 1), else 8.
inline std::size_t ValueBytes(std::uint32_t flags) {
  return (flags & 8u) != 0 ? 0 : (flags & 2u) != 0 ? 4 : 8;
}

/// Where the sections of a shard start: the u64 varint byte count right
/// after the 64-byte header, then one 16-byte (byte end, entry end) pair
/// per row group, the varints, the values (none for unit weights), and
/// the explicit node ids.
struct ShardLayout {
  std::int64_t row_begin = 0;
  std::int64_t groups = 0;
  std::size_t varints = 0;
  std::uint64_t varint_bytes = 0;
  std::size_t values = 0;
  std::size_t explicit_nodes = 0;
};

inline ShardLayout LayoutOf(const std::vector<char>& shard) {
  ShardLayout layout;
  layout.row_begin = ReadField<std::int64_t>(shard, 16);
  layout.groups = dataset::internal::RowGroupCount(
      ReadField<std::int64_t>(shard, 24) - layout.row_begin);
  layout.varints = 72 + 16 * static_cast<std::size_t>(layout.groups);
  layout.varint_bytes = ReadField<std::uint64_t>(shard, 64);
  layout.values = layout.varints + layout.varint_bytes;
  layout.explicit_nodes =
      layout.values + ValueBytes(ReadField<std::uint32_t>(shard, 48)) *
                          ReadField<std::uint64_t>(shard, 32);
  return layout;
}

/// `shard` with an f64 value section of 1.0s (one per entry) inserted
/// after its varints, as the writer stored a unit-weight graph before
/// flag bit 3; its header flags are left as they are.
inline std::vector<char> WithOnesValueSection(std::vector<char> shard) {
  const std::size_t nnz =
      static_cast<std::size_t>(ReadField<std::int64_t>(shard, 32));
  std::vector<char> ones(8 * nnz);
  for (std::size_t e = 0; e < nnz; ++e) WriteField(&ones, 8 * e, 1.0);
  const std::size_t at = LayoutOf(shard).values;
  shard.insert(shard.begin() + static_cast<std::ptrdiff_t>(at), ones.begin(),
               ones.end());
  return shard;
}

/// Rewrites the unit-weight shard set of `manifest` as a writer without
/// flag bit 3 stored it: the bit cleared in the manifest and in every
/// shard header, and a value section of 1.0s in every shard, its size
/// declared in the manifest.
inline void ForgeLegacyValueSections(const std::string& manifest) {
  const std::int64_t shards =
      ReadField<std::uint32_t>(ReadBytes(manifest), 52);
  for (std::int64_t s = 0; s < shards; ++s) {
    std::vector<char> shard = WithOnesValueSection(ReadShard(manifest, s));
    WriteField(&shard, 48, ReadField<std::uint32_t>(shard, 48) & ~8u);
    WriteForgedShard(manifest, s, std::move(shard), /*declare_size=*/true);
  }
  ForgeManifest(manifest, [](std::vector<char>* file) {
    WriteField(file, 48, ReadField<std::uint32_t>(*file, 48) & ~8u);
  });
}

/// A unit-weight scenario far sparser than its node count (20 entries
/// spread over 300 nodes), with explicit beliefs and ground truth: the
/// manifest's payload-size ceiling (4 spare bytes per row and entry) then
/// leaves room for a forged value section in any of its shards, so the
/// shard decode is what meets it.
inline dataset::Scenario SparseUnitScenario() {
  constexpr std::int64_t kNodes = 300;
  dataset::Scenario scenario;
  scenario.name = "sparse";
  scenario.spec = "sparse:test";
  scenario.k = 2;
  scenario.coupling_residual = DenseMatrix(2, 2);
  std::vector<Edge> edges;
  for (std::int64_t i = 0; i < 10; ++i) edges.push_back({30 * i, 30 * i + 1});
  scenario.graph = Graph(kNodes, edges);
  scenario.explicit_residuals = DenseMatrix(kNodes, 2);
  scenario.explicit_nodes = {0, 150};
  scenario.explicit_residuals.At(0, 0) = 0.1;
  scenario.explicit_residuals.At(150, 1) = 0.1;
  scenario.ground_truth.assign(kNodes, 0);
  return scenario;
}

/// One forged defect of a unit-weight shard set, with the error every
/// reader reports for it.
struct UnitFormatCase {
  const char* name;
  void (*forge)(const std::string& manifest);
  const char* error;
};

/// The unit-weight flag's defects, each forged into shard 0 or the
/// manifest of a SparseUnitScenario() set with every checksum re-forged.
inline std::vector<UnitFormatCase> UnitFormatCases() {
  return {
      {"unit and f32 bits in the manifest",
       [](const std::string& manifest) {
         ForgeManifest(manifest, [](std::vector<char>* file) {
           WriteField(file, 48, ReadField<std::uint32_t>(*file, 48) | 2u);
         });
       },
       ": corrupted manifest header (unit weights with f32 values)"},
      {"unit and f32 bits in a shard header",
       [](const std::string& manifest) {
         std::vector<char> shard = ReadShard(manifest, 0);
         WriteField(&shard, 48, ReadField<std::uint32_t>(shard, 48) | 2u);
         WriteForgedShard(manifest, 0, std::move(shard));
       },
       ": shard header disagrees with its manifest entry"},
      {"shard header without the manifest's unit bit",
       [](const std::string& manifest) {
         std::vector<char> shard = ReadShard(manifest, 0);
         WriteField(&shard, 48, ReadField<std::uint32_t>(shard, 48) & ~8u);
         WriteForgedShard(manifest, 0, std::move(shard));
       },
       ": shard header disagrees with its manifest entry"},
      {"unit shard that still carries a value section",
       [](const std::string& manifest) {
         WriteForgedShard(manifest, 0,
                          WithOnesValueSection(ReadShard(manifest, 0)),
                          /*declare_size=*/true);
       },
       ": trailing bytes after the shard payload"},
      {"payload one value section short",
       [](const std::string& manifest) {
         // Every header says weighted, but no shard has its values: the
         // declared payloads fall 8 bytes per entry short of the floor.
         const std::int64_t shards =
             ReadField<std::uint32_t>(ReadBytes(manifest), 52);
         for (std::int64_t s = 0; s < shards; ++s) {
           std::vector<char> shard = ReadShard(manifest, s);
           WriteField(&shard, 48, ReadField<std::uint32_t>(shard, 48) & ~8u);
           WriteForgedShard(manifest, s, std::move(shard));
         }
         ForgeManifest(manifest, [](std::vector<char>* file) {
           WriteField(file, 48, ReadField<std::uint32_t>(*file, 48) & ~8u);
         });
       },
       ": shard 0 payload size is inconsistent with its counts"},
  };
}

/// Field 0 (varint-byte end) or 1 (entry end) of row group g's pair.
inline std::uint64_t GroupEnd(const std::vector<char>& shard, std::int64_t g,
                              int field) {
  return ReadField<std::uint64_t>(shard, 72 + 16 * g + 8 * field);
}

inline void SetGroupEnd(std::vector<char>* shard, std::int64_t g, int field,
                        std::uint64_t value) {
  WriteField(shard, 72 + 16 * g + 8 * field, value);
}

/// Sets the varint byte count and the last group's byte end together, so
/// the table stays consistent and only the varints can be at fault.
inline void SetVarintBytes(std::vector<char>* shard, std::uint64_t bytes) {
  WriteField(shard, 64, bytes);
  SetGroupEnd(shard, LayoutOf(*shard).groups - 1, 0, bytes);
}

/// Offset of the first row in group g with at least `min_entries`
/// entries, just past its entry count.
inline std::size_t FirstRowWithEntries(const std::vector<char>& shard,
                                       std::int64_t g,
                                       std::uint64_t min_entries) {
  const ShardLayout layout = LayoutOf(shard);
  std::size_t off =
      layout.varints + (g == 0 ? 0 : GroupEnd(shard, g - 1, 0));
  while (true) {
    const std::uint64_t entries = ReadTestVarint(shard, &off);
    if (entries >= min_entries) return off;
    for (std::uint64_t e = 0; e < entries; ++e) ReadTestVarint(shard, &off);
  }
}

}  // namespace testing
}  // namespace linbp

#endif  // LINBP_TESTS_TESTING_SHARD_BYTES_H_
