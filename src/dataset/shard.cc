#include "src/dataset/shard.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <utility>
#include <vector>

#include "src/dataset/format_internal.h"
#include "src/exec/row_partition.h"
#include "src/util/check.h"

namespace linbp {
namespace dataset {
namespace {

using internal::AppendPod;
using internal::AppendString;
using internal::CheckShardAgainstManifest;
using internal::Cursor;
using internal::EncodeColumnSection;
using internal::kFlagF32Values;
using internal::kFlagGroundTruth;
using internal::kHeaderBytes;
using internal::kMaxClasses;
using internal::kShardFileMagic;
using internal::kShardManifestMagic;
using internal::ParseShardManifest;
using internal::PayloadChecksum;
using internal::ShardFileHeader;
using internal::ShardManifest;
using internal::ShardManifestEntry;
using internal::ShardPayloadBytes;
using internal::ShardSiblingPath;

void WriteShardHeader(const ShardFileHeader& h, std::uint32_t version,
                      char* out) {
  std::memcpy(out, kShardFileMagic, 8);
  std::memcpy(out + 8, &version, 4);
  std::memcpy(out + 12, &internal::kEndianTag, 4);
  std::memcpy(out + 16, &h.row_begin, 8);
  std::memcpy(out + 24, &h.row_end, 8);
  std::memcpy(out + 32, &h.nnz, 8);
  std::memcpy(out + 40, &h.num_explicit, 8);
  std::memcpy(out + 48, &h.flags, 4);
  std::memcpy(out + 52, &h.shard_index, 4);
  std::memcpy(out + 56, &h.checksum, 8);
}

// Reads, checks, and copies ONE shard file into its slices of the
// global arrays. `nnz_offset` / `explicit_offset` locate the shard's
// slice; the row_ptr entries it owns are [row_begin, row_end) (the
// terminating global entry row_ptr[n] is set once by the caller, so no
// two shards ever write the same element).
bool LoadOneShard(const std::string& manifest_path,
                  const ShardManifest& manifest, std::int64_t shard,
                  std::int64_t nnz_offset, std::int64_t explicit_offset,
                  const exec::ExecContext& ctx,
                  internal::ScenarioParts* parts, std::string* error) {
  const ShardManifestEntry& entry = manifest.entries[shard];
  const std::string path = ShardSiblingPath(manifest_path, entry.file);
  std::vector<char> bytes;
  if (!internal::ReadFileBytes(path, &bytes, error,
                               kHeaderBytes + entry.payload_bytes)) {
    return false;
  }
  ShardFileHeader h;
  if (!CheckShardAgainstManifest(path, bytes, manifest, shard, &h, error)) {
    return false;
  }

  const std::int64_t rows = h.row_end - h.row_begin;
  const std::int64_t k = manifest.k;
  const char* payload = bytes.data() + kHeaderBytes;
  std::size_t payload_size = bytes.size() - kHeaderBytes;
  if (IsCompressedShardVersion(manifest.version)) {
    // The decoder writes straight into this shard's col_idx and values
    // slices (f32 values widen exactly); only the row pointers need the
    // slice offset added. Its row groups fan out on `ctx` when this
    // shard is the only task (inside a multi-shard fan-out they run
    // inline, as every nested pool call does).
    std::vector<std::int64_t> local_row_ptr(rows + 1);
    if (!internal::DecodeCompressedCsr(
            path, manifest, h, ctx, &payload, &payload_size,
            local_row_ptr.data(),
            parts->col_idx.data() + nnz_offset,
            parts->values.data() + nnz_offset, error)) {
      return false;
    }
    for (std::int64_t r = 0; r < rows; ++r) {
      parts->row_ptr[h.row_begin + r] = nnz_offset + local_row_ptr[r];
    }
  } else {
    Cursor cursor(payload, payload_size);
    std::vector<std::int64_t> local_row_ptr;
    if (!cursor.ReadVector(&local_row_ptr,
                           static_cast<std::size_t>(rows + 1))) {
      *error = path + ": truncated shard payload";
      return false;
    }
    if (local_row_ptr.front() != 0 || local_row_ptr.back() != h.nnz) {
      *error = path + ": invalid shard row pointers";
      return false;
    }
    for (std::int64_t r = 0; r < rows; ++r) {
      if (local_row_ptr[r] > local_row_ptr[r + 1]) {
        *error = path + ": invalid shard row pointers";
        return false;
      }
      parts->row_ptr[h.row_begin + r] = nnz_offset + local_row_ptr[r];
    }
    if (!cursor.Read(parts->col_idx.data() + nnz_offset,
                     static_cast<std::size_t>(h.nnz)) ||
        !cursor.Read(parts->values.data() + nnz_offset,
                     static_cast<std::size_t>(h.nnz))) {
      *error = path + ": truncated shard payload";
      return false;
    }
    payload += payload_size - cursor.remaining();
    payload_size = cursor.remaining();
  }
  Cursor cursor(payload, payload_size);
  const bool arrays_ok =
      cursor.Read(parts->explicit_nodes.data() + explicit_offset,
                  static_cast<std::size_t>(h.num_explicit)) &&
      cursor.Read(parts->explicit_rows.data() + explicit_offset * k,
                  static_cast<std::size_t>(h.num_explicit * k)) &&
      (!manifest.has_ground_truth ||
       cursor.Read(parts->ground_truth.data() + h.row_begin,
                   static_cast<std::size_t>(rows)));
  if (!arrays_ok) {
    *error = path + ": truncated shard payload";
    return false;
  }
  if (cursor.remaining() != 0) {
    *error = path + ": trailing bytes after the shard payload";
    return false;
  }
  // Each explicit node must belong to this shard's row block — the
  // global list is the concatenation of the per-shard slices, so this
  // is what keeps it sorted and correctly attributed.
  for (std::int64_t i = 0; i < h.num_explicit; ++i) {
    const std::int64_t v = parts->explicit_nodes[explicit_offset + i];
    if (v < h.row_begin || v >= h.row_end) {
      *error = path + ": explicit node outside the shard's row range";
      return false;
    }
  }
  return true;
}

}  // namespace

std::string ShardManifestFileName() { return "manifest.lbpm"; }

std::string ShardFileName(std::int64_t shard) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "shard-%06lld.lbpsd",
                static_cast<long long>(shard));
  return buf;
}

std::optional<ShardWriteResult> ShardSnapshot(const Scenario& scenario,
                                              std::int64_t max_shards,
                                              const std::string& dir,
                                              std::string* error,
                                              ShardCompression compression) {
  LINBP_CHECK(error != nullptr);
  LINBP_CHECK(scenario.k >= 1 && scenario.k <= kMaxClasses);
  LINBP_CHECK(scenario.coupling_residual.rows() == scenario.k &&
              scenario.coupling_residual.cols() == scenario.k);
  const Graph& graph = scenario.graph;
  const SparseMatrix& adjacency = graph.adjacency();
  LINBP_CHECK(scenario.explicit_residuals.rows() == graph.num_nodes() &&
              scenario.explicit_residuals.cols() == scenario.k);
  LINBP_CHECK(!scenario.HasGroundTruth() ||
              static_cast<std::int64_t>(scenario.ground_truth.size()) ==
                  graph.num_nodes());
  if (max_shards < 1 || max_shards > kMaxShards) {
    *error = dir + ": shard count must be in [1, " +
             std::to_string(kMaxShards) + "]";
    return std::nullopt;
  }
  const std::int64_t n = graph.num_nodes();
  if (n == 0) {
    *error = dir + ": cannot shard an empty scenario";
    return std::nullopt;
  }
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    *error = dir + ": cannot create directory (" + ec.message() + ")";
    return std::nullopt;
  }

  const exec::RowPartition partition =
      exec::RowPartition::NnzBalanced(adjacency.row_ptr(), max_shards);
  const std::int64_t num_shards = partition.num_blocks();
  const std::uint32_t version = compression == ShardCompression::kNone
                                    ? kShardFormatVersionRaw
                                    : kShardFormatVersionCompressed;
  const bool compressed = IsCompressedShardVersion(version);
  const bool values_f32 = compression == ShardCompression::kF32;
  const std::uint32_t flags =
      (scenario.HasGroundTruth() ? kFlagGroundTruth : 0) |
      (values_f32 ? kFlagF32Values : 0);
  const bool has_ground_truth = scenario.HasGroundTruth();
  const auto& row_ptr = adjacency.row_ptr();
  const auto& col_idx = adjacency.col_idx();
  const auto& values = adjacency.values();
  const auto& explicit_nodes = scenario.explicit_nodes;

  std::vector<ShardManifestEntry> entries(num_shards);
  for (std::int64_t s = 0; s < num_shards; ++s) {
    const std::int64_t row_begin = partition.begin(s);
    const std::int64_t row_end = partition.end(s);
    const std::int64_t rows = row_end - row_begin;
    const std::int64_t nnz_begin = row_ptr[row_begin];
    const std::int64_t nnz = row_ptr[row_end] - nnz_begin;
    // The explicit list is sorted, so this shard's slice is a range.
    const auto explicit_begin = std::lower_bound(
        explicit_nodes.begin(), explicit_nodes.end(), row_begin);
    const auto explicit_end = std::lower_bound(
        explicit_begin, explicit_nodes.end(), row_end);
    const std::int64_t num_explicit = explicit_end - explicit_begin;

    std::vector<char> payload;
    payload.reserve(static_cast<std::size_t>(ShardPayloadBytes(
        rows, nnz, num_explicit, scenario.k, has_ground_truth)));
    std::vector<std::int64_t> local_row_ptr(rows + 1);
    for (std::int64_t r = 0; r <= rows; ++r) {
      local_row_ptr[r] = row_ptr[row_begin + r] - nnz_begin;
    }
    if (compressed) {
      EncodeColumnSection(local_row_ptr.data(), rows,
                          col_idx.data() + nnz_begin, &payload);
      if (values_f32) {
        std::vector<float> narrow(values.begin() + nnz_begin,
                                  values.begin() + nnz_begin + nnz);
        AppendPod(narrow.data(), narrow.size(), &payload);
      } else {
        AppendPod(values.data() + nnz_begin, static_cast<std::size_t>(nnz),
                  &payload);
      }
    } else {
      AppendPod(local_row_ptr.data(), local_row_ptr.size(), &payload);
      AppendPod(col_idx.data() + nnz_begin, static_cast<std::size_t>(nnz),
                &payload);
      AppendPod(values.data() + nnz_begin, static_cast<std::size_t>(nnz),
                &payload);
    }
    AppendPod(explicit_nodes.data() + (explicit_begin -
                                       explicit_nodes.begin()),
              static_cast<std::size_t>(num_explicit), &payload);
    std::vector<double> rows_buf;
    rows_buf.reserve(static_cast<std::size_t>(num_explicit * scenario.k));
    for (auto it = explicit_begin; it != explicit_end; ++it) {
      LINBP_CHECK(*it >= 0 && *it < n);
      for (std::int64_t c = 0; c < scenario.k; ++c) {
        rows_buf.push_back(scenario.explicit_residuals.At(*it, c));
      }
    }
    AppendPod(rows_buf.data(), rows_buf.size(), &payload);
    if (has_ground_truth) {
      AppendPod(scenario.ground_truth.data() + row_begin,
                static_cast<std::size_t>(rows), &payload);
    }

    ShardFileHeader header;
    header.row_begin = row_begin;
    header.row_end = row_end;
    header.nnz = nnz;
    header.num_explicit = num_explicit;
    header.flags = flags;
    header.shard_index = static_cast<std::uint32_t>(s);
    header.checksum = PayloadChecksum(payload.data(), payload.size());
    char header_bytes[kHeaderBytes];
    WriteShardHeader(header, version, header_bytes);
    const std::string file = ShardFileName(s);
    if (!internal::WriteFileDurably((std::filesystem::path(dir) / file)
                                        .string(),
                                    header_bytes, kHeaderBytes, payload,
                                    error)) {
      return std::nullopt;
    }
    entries[s] = ShardManifestEntry{
        row_begin, row_end, nnz, num_explicit,
        static_cast<std::int64_t>(payload.size()), header.checksum, file};
  }

  // Manifest last: a crashed writer leaves shard files but no loadable
  // manifest, so partial output can never be mistaken for a snapshot.
  std::vector<char> payload;
  AppendString(scenario.name, &payload);
  AppendString(scenario.spec, &payload);
  AppendPod(scenario.coupling_residual.data().data(),
            static_cast<std::size_t>(scenario.k * scenario.k), &payload);
  for (const ShardManifestEntry& entry : entries) {
    AppendPod(&entry.row_begin, 1, &payload);
    AppendPod(&entry.row_end, 1, &payload);
    AppendPod(&entry.nnz, 1, &payload);
    AppendPod(&entry.num_explicit, 1, &payload);
    if (compressed) AppendPod(&entry.payload_bytes, 1, &payload);
    AppendPod(&entry.checksum, 1, &payload);
    AppendString(entry.file, &payload);
  }
  char header_bytes[kHeaderBytes];
  std::memcpy(header_bytes, kShardManifestMagic, 8);
  std::memcpy(header_bytes + 8, &version, 4);
  std::memcpy(header_bytes + 12, &internal::kEndianTag, 4);
  const std::int64_t nnz_total = adjacency.NumNonZeros();
  const std::int64_t num_explicit_total =
      static_cast<std::int64_t>(explicit_nodes.size());
  std::memcpy(header_bytes + 16, &n, 8);
  std::memcpy(header_bytes + 24, &scenario.k, 8);
  std::memcpy(header_bytes + 32, &nnz_total, 8);
  std::memcpy(header_bytes + 40, &num_explicit_total, 8);
  std::memcpy(header_bytes + 48, &flags, 4);
  const std::uint32_t shard_count = static_cast<std::uint32_t>(num_shards);
  std::memcpy(header_bytes + 52, &shard_count, 4);
  const std::uint64_t checksum =
      PayloadChecksum(payload.data(), payload.size());
  std::memcpy(header_bytes + 56, &checksum, 8);

  ShardWriteResult result;
  result.manifest_path =
      (std::filesystem::path(dir) / ShardManifestFileName()).string();
  result.num_shards = num_shards;
  if (!internal::WriteFileDurably(result.manifest_path, header_bytes,
                                  kHeaderBytes, payload, error)) {
    return std::nullopt;
  }
  return result;
}

std::optional<Scenario> LoadShardedSnapshot(const std::string& manifest_path,
                                            std::string* error,
                                            const exec::ExecContext& ctx) {
  LINBP_CHECK(error != nullptr);
  std::vector<char> bytes;
  if (!internal::ReadFileBytes(manifest_path, &bytes, error)) {
    return std::nullopt;
  }
  ShardManifest manifest;
  if (!ParseShardManifest(manifest_path, bytes, &manifest, error)) {
    return std::nullopt;
  }
  bytes.clear();
  bytes.shrink_to_fit();

  const std::int64_t num_shards =
      static_cast<std::int64_t>(manifest.entries.size());
  // Preflight: every shard file must be exactly as large as its manifest
  // entry declares. Not shorter: that bounds the global allocations below
  // by actual on-disk bytes, so a checksum-consistent but hostile manifest
  // cannot drive the loader into a multi-terabyte resize (the same
  // guarantee the monolithic loader gets from its bounds-checked Cursor).
  // Not longer: a grown file fails here, before any shard is read whole.
  for (std::int64_t s = 0; s < num_shards; ++s) {
    const ShardManifestEntry& entry = manifest.entries[s];
    const std::string shard_path =
        ShardSiblingPath(manifest_path, entry.file);
    std::error_code ec;
    const std::uintmax_t file_size =
        std::filesystem::file_size(shard_path, ec);
    if (ec) {
      *error = shard_path + ": cannot open";
      return std::nullopt;
    }
    // entry.payload_bytes is either computed from the counts (raw) or
    // declared but bounds-checked against them during parse
    // (compressed), so either way it ties the decoded allocation to real
    // file bytes.
    const std::int64_t needed =
        static_cast<std::int64_t>(internal::kHeaderBytes) +
        entry.payload_bytes;
    if (file_size < static_cast<std::uintmax_t>(needed)) {
      *error = shard_path + ": truncated shard payload";
      return std::nullopt;
    }
    if (file_size > static_cast<std::uintmax_t>(needed)) {
      *error = internal::OversizedFileError(
          shard_path, file_size, static_cast<std::uint64_t>(needed));
      return std::nullopt;
    }
  }
  // Per-shard slice offsets (exclusive prefix sums over the manifest).
  std::vector<std::int64_t> nnz_offset(num_shards + 1, 0);
  std::vector<std::int64_t> explicit_offset(num_shards + 1, 0);
  for (std::int64_t s = 0; s < num_shards; ++s) {
    nnz_offset[s + 1] = nnz_offset[s] + manifest.entries[s].nnz;
    explicit_offset[s + 1] =
        explicit_offset[s] + manifest.entries[s].num_explicit;
  }

  internal::ScenarioParts parts;
  parts.name = manifest.name;
  parts.spec = manifest.spec;
  parts.num_nodes = manifest.num_nodes;
  parts.k = manifest.k;
  parts.has_ground_truth = manifest.has_ground_truth;
  parts.coupling = std::move(manifest.coupling);
  parts.row_ptr.resize(manifest.num_nodes + 1);
  parts.col_idx.resize(manifest.nnz);
  parts.values.resize(manifest.nnz);
  parts.explicit_nodes.resize(manifest.num_explicit);
  parts.explicit_rows.resize(manifest.num_explicit * manifest.k);
  if (manifest.has_ground_truth) {
    parts.ground_truth.resize(manifest.num_nodes);
  }
  parts.row_ptr[manifest.num_nodes] = manifest.nnz;

  // One task per shard: each reads its file and writes disjoint slices
  // of the global arrays, so the fan-out is race-free by construction.
  std::vector<std::string> shard_errors(num_shards);
  ctx.RunBlocks(num_shards, [&](std::int64_t s) {
    LoadOneShard(manifest_path, manifest, s, nnz_offset[s],
                 explicit_offset[s], ctx, &parts, &shard_errors[s]);
  });
  for (std::int64_t s = 0; s < num_shards; ++s) {
    if (!shard_errors[s].empty()) {
      *error = shard_errors[s];
      return std::nullopt;
    }
  }

  // Global validation (structure, cross-shard symmetry, coupling,
  // beliefs, truth) runs once, in parallel, then the trusted adopt
  // paths take over — the same code path the monolithic loader uses, so
  // a sharded load is bit-identical to the monolithic one.
  return internal::ValidateAndAssembleScenario(manifest_path,
                                               std::move(parts), ctx, error);
}

std::optional<ShardManifestInfo> ReadShardManifestInfo(
    const std::string& path, std::string* error) {
  LINBP_CHECK(error != nullptr);
  std::vector<char> bytes;
  if (!internal::ReadFileBytes(path, &bytes, error)) return std::nullopt;
  ShardManifest manifest;
  if (!ParseShardManifest(path, bytes, &manifest, error)) {
    return std::nullopt;
  }
  ShardManifestInfo info;
  info.version = manifest.version;
  info.num_nodes = manifest.num_nodes;
  info.k = manifest.k;
  info.nnz = manifest.nnz;
  info.num_explicit = manifest.num_explicit;
  info.has_ground_truth = manifest.has_ground_truth;
  info.values_f32 = manifest.values_f32;
  info.file_bytes = manifest.file_bytes;
  info.name = manifest.name;
  info.spec = manifest.spec;
  info.shards.reserve(manifest.entries.size());
  for (const ShardManifestEntry& entry : manifest.entries) {
    // Declared payload sizes, not on-disk file sizes: the info call
    // stays manifest-only (no shard I/O). The decoded bytes are what a
    // full load would have to hold resident; for raw shards they equal the
    // on-disk payload.
    const std::int64_t decoded_bytes = internal::ShardDecodedPayloadBytes(
        entry.row_end - entry.row_begin, entry.nnz, entry.num_explicit,
        manifest.k, manifest.has_ground_truth, manifest.values_f32);
    info.total_shard_payload_bytes += decoded_bytes;
    info.total_encoded_payload_bytes += entry.payload_bytes;
    info.shards.push_back(ShardRangeInfo{entry.row_begin, entry.row_end,
                                         entry.nnz, entry.num_explicit,
                                         entry.payload_bytes, decoded_bytes,
                                         entry.file});
  }
  return info;
}

bool LooksLikeShardManifest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  char magic[8] = {};
  if (!in.read(magic, 8)) return false;
  return std::memcmp(magic, kShardManifestMagic, 8) == 0;
}

}  // namespace dataset
}  // namespace linbp
