#include "src/dataset/shard.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <utility>
#include <vector>

#include "src/dataset/format_internal.h"
#include "src/exec/row_partition.h"
#include "src/obs/obs.h"
#include "src/util/check.h"

namespace linbp {
namespace dataset {
namespace {

using internal::kHeaderBytes;
using internal::ShardFileHeader;
using internal::ShardManifest;
using internal::ShardManifestEntry;

// Writes a 64-byte header in the shape manifests and shards share: magic,
// version, endian tag, four i64 fields, the flags, a u32 count (shards in
// a manifest, the index in a shard) and the payload checksum.
void WriteHeader(const char* magic, const std::int64_t (&fields)[4],
                 std::uint32_t flags, std::uint32_t count,
                 std::uint64_t checksum, char* out) {
  std::memcpy(out, magic, 8);
  std::memcpy(out + 8, &kShardFormatVersion, 4);
  std::memcpy(out + 12, &internal::kEndianTag, 4);
  std::memcpy(out + 16, fields, 32);
  std::memcpy(out + 48, &flags, 4);
  std::memcpy(out + 52, &count, 4);
  std::memcpy(out + 56, &checksum, 8);
}

// The decoded arrays of a Scenario, assembled from per-shard slices.
struct ScenarioParts {
  std::vector<std::int64_t> row_ptr;       // num_nodes + 1
  std::vector<std::int32_t> col_idx;
  std::vector<double> values;              // empty for unit weights
  std::vector<std::int64_t> explicit_nodes;
  std::vector<double> explicit_rows;       // explicit_nodes.size() * k
  std::vector<std::int32_t> ground_truth;  // num_nodes iff has_ground_truth
};

// Shards beside the manifest must be exactly as large as their entries
// declare, checked for every shard before any is read: not shorter, so
// the arrays sized from the manifest are backed by real bytes, and not
// longer, so a grown file fails before it is buffered. (Inline shards
// get the same check from ReadShardManifest.)
bool CheckShardFileSizes(const std::string& manifest_path,
                         const ShardManifest& manifest, std::string* error) {
  for (std::size_t s = 0; s < manifest.entries.size(); ++s) {
    const std::string path = internal::ShardPath(manifest_path, manifest, s);
    std::error_code ec;
    const std::uintmax_t size = std::filesystem::file_size(path, ec);
    if (ec) {
      *error = path + ": cannot open";
      return false;
    }
    const std::uintmax_t expected =
        kHeaderBytes +
        static_cast<std::uintmax_t>(manifest.entries[s].payload_bytes);
    if (size < expected) {
      *error = path + ": truncated shard payload";
      return false;
    }
    if (size > expected) {
      *error = internal::OversizedFileError(path, size, expected);
      return false;
    }
  }
  return true;
}

// Reads, checks, and decodes ONE shard into its slices of the global
// arrays. `nnz_offset` / `explicit_offset` locate the shard's slice; the
// row_ptr entries it owns are [row_begin, row_end) (the terminating
// global entry row_ptr[n] is set once by the caller, so no two shards
// ever write the same element).
bool LoadOneShard(const std::string& manifest_path,
                  const ShardManifest& manifest, std::int64_t shard,
                  std::int64_t nnz_offset, std::int64_t explicit_offset,
                  const exec::ExecContext& ctx, ScenarioParts* parts,
                  std::string* error) {
  const std::string path = internal::ShardPath(manifest_path, manifest, shard);
  std::vector<char> bytes;
  {
    obs::ScopedSpan span("load_read");
    if (!internal::ReadShardBytes(path, manifest, shard, &bytes, error)) {
      return false;
    }
    if (span.active()) {
      span.SetAttr("shard", shard);
      span.SetAttr("bytes", static_cast<std::int64_t>(bytes.size()));
    }
  }
  ShardFileHeader h;
  {
    obs::ScopedSpan span("load_checksum");
    if (span.active()) span.SetAttr("shard", shard);
    if (!internal::CheckShardAgainstManifest(path, bytes, manifest, shard, &h,
                                             error)) {
      return false;
    }
  }
  obs::ScopedSpan span("load_decode");
  if (span.active()) span.SetAttr("shard", shard);
  const std::int64_t rows = h.row_end - h.row_begin;
  const std::int64_t k = manifest.k;
  const char* payload = bytes.data() + kHeaderBytes;
  std::size_t payload_size = bytes.size() - kHeaderBytes;
  // The decoder writes straight into this shard's col_idx and values
  // slices (f32 values widen exactly; unit weights have none); only the
  // row pointers need the slice offset added. Its row groups fan out on
  // `ctx` when this shard is the only task (inside a multi-shard fan-out
  // they run inline, as every nested pool call does).
  std::vector<std::int64_t> local_row_ptr(rows + 1);
  if (!internal::DecodeCompressedCsr(
          path, manifest, h, ctx, &payload, &payload_size,
          local_row_ptr.data(), parts->col_idx.data() + nnz_offset,
          manifest.unit_weights ? nullptr
                                : parts->values.data() + nnz_offset,
          error)) {
    return false;
  }
  for (std::int64_t r = 0; r < rows; ++r) {
    parts->row_ptr[h.row_begin + r] = nnz_offset + local_row_ptr[r];
  }
  internal::Cursor cursor(payload, payload_size);
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

// Runs the checks no single shard's decode can make, then assembles the
// Scenario through the trusted FromValidatedCsr / FromValidatedAdjacency
// adopt paths, so validation runs exactly once. `path` prefixes every
// error message.
std::optional<Scenario> ValidateAndAssembleScenario(
    const std::string& path, ShardManifest manifest, ScenarioParts parts,
    const exec::ExecContext& ctx, std::string* error) {
  const std::int64_t n = manifest.num_nodes;
  const std::int64_t k = manifest.k;
  Scenario scenario;
  {
    obs::ScopedSpan span("load_validate");
    const std::vector<std::int64_t>& row_ptr = parts.row_ptr;
    const std::vector<std::int32_t>& col_idx = parts.col_idx;
    // Null for unit weights: the sweep then checks the pattern only.
    const double* values =
        manifest.unit_weights ? nullptr : parts.values.data();
    // Every row came out of DecodeCompressedCsr, which rejected
    // non-monotone rows, out-of-range or unsorted columns, self-loops and
    // non-finite weights, and the shards tile the rows, so every row range
    // is sound. What a row-local decode cannot see is an entry's mirror,
    // which may live in another shard's rows: (r, c) needs (c, r) with an
    // equal weight. Only entries above the diagonal are looked up. Their
    // mirrors are distinct entries below it, so when the entries above are
    // exactly half of all (none lie on it), the mirrors are every entry
    // below, and each of those has its mirror too.
    LINBP_CHECK(row_ptr.front() == 0 &&
                row_ptr.back() == static_cast<std::int64_t>(col_idx.size()));
    std::atomic<bool> symmetric(true);
    std::atomic<std::int64_t> above(0);
    ctx.ParallelFor(0, n, /*min_grain=*/2048, [&](std::int64_t row_begin,
                                                  std::int64_t row_end) {
      std::int64_t count = 0;
      for (std::int64_t r = row_begin; r < row_end; ++r) {
        const auto row_end_it = col_idx.begin() + row_ptr[r + 1];
        const auto first_above = std::upper_bound(
            col_idx.begin() + row_ptr[r], row_end_it,
            static_cast<std::int32_t>(r));
        count += row_end_it - first_above;
        for (auto col = first_above; col != row_end_it; ++col) {
          const auto begin = col_idx.begin() + row_ptr[*col];
          const auto end = col_idx.begin() + row_ptr[*col + 1];
          const auto it =
              std::lower_bound(begin, end, static_cast<std::int32_t>(r));
          if (it == end || *it != r ||
              (values != nullptr && values[it - col_idx.begin()] !=
                                        values[col - col_idx.begin()])) {
            symmetric.store(false, std::memory_order_relaxed);
            return;
          }
        }
      }
      above.fetch_add(count, std::memory_order_relaxed);
    });
    if (!symmetric.load() ||
        2 * above.load() != static_cast<std::int64_t>(col_idx.size())) {
      *error = path + ": invalid adjacency payload (an entry's mirror is "
                      "missing or has another weight)";
      return std::nullopt;
    }

    if (!internal::CheckCouplingResidual(path, manifest.coupling, k,
                                         error)) {
      return std::nullopt;
    }
    scenario.name = std::move(manifest.name);
    scenario.spec = std::move(manifest.spec);
    scenario.k = k;
    scenario.coupling_residual = DenseMatrix(k, k);
    std::copy(manifest.coupling.begin(), manifest.coupling.end(),
              scenario.coupling_residual.mutable_data().begin());

    scenario.explicit_nodes = std::move(parts.explicit_nodes);
    scenario.explicit_residuals = DenseMatrix(n, k);
    for (std::size_t i = 0; i < scenario.explicit_nodes.size(); ++i) {
      const std::int64_t v = scenario.explicit_nodes[i];
      if (v < 0 || v >= n ||
          (i > 0 && scenario.explicit_nodes[i - 1] >= v)) {
        *error = path + ": invalid explicit node list";
        return std::nullopt;
      }
      for (std::int64_t c = 0; c < k; ++c) {
        const double b = parts.explicit_rows[i * k + c];
        if (!std::isfinite(b)) {
          *error = path + ": non-finite explicit belief";
          return std::nullopt;
        }
        scenario.explicit_residuals.At(v, c) = b;
      }
    }

    for (const std::int32_t cls : parts.ground_truth) {
      if (cls < -1 || cls >= k) {
        *error = path + ": ground-truth class out of range";
        return std::nullopt;
      }
    }
    scenario.ground_truth = std::move(parts.ground_truth);
  }

  // The arrays passed full validation above, so the trusted adopt paths
  // apply — re-running the CHECKed sweeps would just double the cost of
  // the load. Degree reconstruction still fans out on ctx (row counts for
  // unit weights). A value section that is all 1.0 (a file written
  // before the unit-weight flag) is dropped here, so the graph takes the
  // unit form either way.
  obs::ScopedSpan span("load_adopt");
  scenario.graph = Graph::FromValidatedAdjacency(
      SparseMatrix::FromValidatedCsr(n, n, std::move(parts.row_ptr),
                                     std::move(parts.col_idx),
                                     std::move(parts.values)),
      ctx);
  if (span.active()) {
    const bool unit = scenario.graph.adjacency().unit_weights();
    span.SetAttr("unit_weights", static_cast<std::int64_t>(unit ? 1 : 0));
  }
  return scenario;
}

}  // namespace

std::string ShardManifestFileName() { return "manifest.lbpm"; }

std::string ShardFileName(std::int64_t shard) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "shard-%06lld.lbpsd",
                static_cast<long long>(shard));
  return buf;
}

namespace internal {

std::optional<ShardWriteResult> WriteShardSet(const Scenario& scenario,
                                              std::int64_t max_shards,
                                              ShardCompression compression,
                                              bool shards_inline,
                                              const std::string& path,
                                              std::string* error) {
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
    *error = path + ": shard count must be in [1, " +
             std::to_string(kMaxShards) + "]";
    return std::nullopt;
  }
  const std::int64_t n = graph.num_nodes();
  if (n == 0) {
    *error = path + ": cannot store an empty scenario";
    return std::nullopt;
  }
  const std::filesystem::path dir(path);
  if (!shards_inline) {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
      *error = path + ": cannot create directory (" + ec.message() + ")";
      return std::nullopt;
    }
  }

  const exec::RowPartition partition =
      exec::RowPartition::NnzBalanced(adjacency.row_ptr(), max_shards);
  const std::int64_t num_shards = partition.num_blocks();
  const std::int64_t k = scenario.k;
  const bool has_ground_truth = scenario.HasGroundTruth();
  // A unit-weight adjacency writes no value section, whatever
  // `compression` asks for.
  const bool unit_weights = adjacency.unit_weights();
  const bool values_f32 =
      !unit_weights && compression == ShardCompression::kF32;
  const std::int64_t value_bytes = unit_weights ? 0 : values_f32 ? 4 : 8;
  const std::uint32_t flags = (has_ground_truth ? kFlagGroundTruth : 0) |
                              (values_f32 ? kFlagF32Values : 0) |
                              (unit_weights ? kFlagUnitWeights : 0);
  const auto& row_ptr = adjacency.row_ptr();
  const auto& col_idx = adjacency.col_idx();
  const auto& values = adjacency.values();
  const auto& explicit_nodes = scenario.explicit_nodes;
  const std::size_t manifest_bytes =
      kHeaderBytes + 8 + scenario.name.size() + scenario.spec.size() +
      8 * static_cast<std::size_t>(k * k) +
      kManifestEntryBytes * static_cast<std::size_t>(num_shards);

  // Inline, `file` is the whole output: room for the manifest, filled in
  // once the shard table is known, then every shard. Beside the
  // manifest, `file` holds one shard at a time.
  std::vector<char> file(shards_inline ? manifest_bytes : 0);
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

    if (!shards_inline) file.clear();
    const std::size_t header_at = file.size();
    file.reserve(header_at + kHeaderBytes +
                 static_cast<std::size_t>(ShardDecodedPayloadBytes(
                     rows, nnz, num_explicit, k, has_ground_truth,
                     value_bytes)));
    file.resize(header_at + kHeaderBytes);
    std::vector<std::int64_t> local_row_ptr(rows + 1);
    for (std::int64_t r = 0; r <= rows; ++r) {
      local_row_ptr[r] = row_ptr[row_begin + r] - nnz_begin;
    }
    EncodeColumnSection(local_row_ptr.data(), rows,
                        col_idx.data() + nnz_begin, &file);
    if (values_f32) {
      const std::vector<float> narrow(values.begin() + nnz_begin,
                                      values.begin() + nnz_begin + nnz);
      AppendPod(narrow.data(), narrow.size(), &file);
    } else if (!unit_weights) {
      AppendPod(values.data() + nnz_begin, static_cast<std::size_t>(nnz),
                &file);
    }
    AppendPod(explicit_nodes.data() + (explicit_begin - explicit_nodes.begin()),
              static_cast<std::size_t>(num_explicit), &file);
    // Only the labeled rows of the (mostly zero) belief matrix are stored.
    for (auto it = explicit_begin; it != explicit_end; ++it) {
      LINBP_CHECK(*it >= 0 && *it < n);
      AppendPod(scenario.explicit_residuals.data().data() + *it * k,
                static_cast<std::size_t>(k), &file);
    }
    if (has_ground_truth) {
      AppendPod(scenario.ground_truth.data() + row_begin,
                static_cast<std::size_t>(rows), &file);
    }

    const std::size_t payload_at = header_at + kHeaderBytes;
    const std::uint64_t checksum = PayloadChecksum(
        file.data() + payload_at, file.size() - payload_at);
    WriteHeader(kShardFileMagic, {row_begin, row_end, nnz, num_explicit},
                flags, static_cast<std::uint32_t>(s), checksum,
                file.data() + header_at);
    entries[s] = ShardManifestEntry{
        row_begin, row_end, nnz, num_explicit,
        static_cast<std::int64_t>(file.size() - payload_at), checksum};
    if (!shards_inline &&
        !WriteFileDurably((dir / ShardFileName(s)).string(), file, error)) {
      return std::nullopt;
    }
  }

  std::vector<char> manifest(kHeaderBytes);
  AppendString(scenario.name, &manifest);
  AppendString(scenario.spec, &manifest);
  AppendPod(scenario.coupling_residual.data().data(),
            static_cast<std::size_t>(k * k), &manifest);
  for (const ShardManifestEntry& entry : entries) {
    const std::int64_t fields[5] = {entry.row_begin, entry.row_end,
                                    entry.nnz, entry.num_explicit,
                                    entry.payload_bytes};
    AppendPod(fields, 5, &manifest);
    AppendPod(&entry.checksum, 1, &manifest);
  }
  LINBP_CHECK(manifest.size() == manifest_bytes);
  WriteHeader(kShardManifestMagic,
              {n, k, adjacency.NumNonZeros(),
               static_cast<std::int64_t>(explicit_nodes.size())},
              flags | (shards_inline ? kFlagShardsInline : 0),
              static_cast<std::uint32_t>(num_shards),
              PayloadChecksum(manifest.data() + kHeaderBytes,
                              manifest_bytes - kHeaderBytes),
              manifest.data());

  ShardWriteResult result;
  result.num_shards = num_shards;
  if (shards_inline) {
    result.manifest_path = path;
    std::memcpy(file.data(), manifest.data(), manifest_bytes);
    manifest = std::move(file);
  } else {
    // Manifest last: a crashed writer leaves shard files but no loadable
    // manifest, so partial output can never be mistaken for a snapshot.
    result.manifest_path = (dir / ShardManifestFileName()).string();
  }
  if (!WriteFileDurably(result.manifest_path, manifest, error)) {
    return std::nullopt;
  }
  return result;
}

}  // namespace internal

std::optional<ShardWriteResult> ShardSnapshot(const Scenario& scenario,
                                              std::int64_t max_shards,
                                              const std::string& dir,
                                              std::string* error,
                                              ShardCompression compression) {
  return internal::WriteShardSet(scenario, max_shards, compression,
                                 /*shards_inline=*/false, dir, error);
}

std::optional<Scenario> LoadShardedSnapshot(const std::string& manifest_path,
                                            std::string* error,
                                            const exec::ExecContext& ctx) {
  LINBP_CHECK(error != nullptr);
  ShardManifest manifest;
  {
    obs::ScopedSpan span("load_read");
    if (!internal::ReadShardManifest(manifest_path, &manifest, error) ||
        (!manifest.shards_inline &&
         !CheckShardFileSizes(manifest_path, manifest, error))) {
      return std::nullopt;
    }
    if (span.active()) {
      // The manifest alone: inline shards start right after it.
      span.SetAttr("bytes", manifest.shards_inline
                                ? static_cast<std::int64_t>(
                                      manifest.entries.front().offset)
                                : manifest.file_bytes);
    }
  }
  // Per-shard slice offsets (exclusive prefix sums over the manifest).
  const std::int64_t num_shards =
      static_cast<std::int64_t>(manifest.entries.size());
  std::vector<std::int64_t> nnz_offset(num_shards + 1, 0);
  std::vector<std::int64_t> explicit_offset(num_shards + 1, 0);
  for (std::int64_t s = 0; s < num_shards; ++s) {
    nnz_offset[s + 1] = nnz_offset[s] + manifest.entries[s].nnz;
    explicit_offset[s + 1] =
        explicit_offset[s] + manifest.entries[s].num_explicit;
  }

  // The file sizes are checked, so these counts are backed by real bytes.
  ScenarioParts parts;
  {
    obs::ScopedSpan span("load_decode");
    parts.row_ptr.resize(manifest.num_nodes + 1);
    parts.col_idx.resize(manifest.nnz);
    if (!manifest.unit_weights) parts.values.resize(manifest.nnz);
    parts.explicit_nodes.resize(manifest.num_explicit);
    parts.explicit_rows.resize(manifest.num_explicit * manifest.k);
    if (manifest.has_ground_truth) {
      parts.ground_truth.resize(manifest.num_nodes);
    }
    parts.row_ptr[manifest.num_nodes] = manifest.nnz;
  }

  // One task per shard: each reads its bytes and writes disjoint slices
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
  return ValidateAndAssembleScenario(manifest_path, std::move(manifest),
                                     std::move(parts), ctx, error);
}

std::optional<ShardManifestInfo> ReadShardManifestInfo(
    const std::string& path, std::string* error) {
  LINBP_CHECK(error != nullptr);
  ShardManifest manifest;
  if (!internal::ReadShardManifest(path, &manifest, error)) {
    return std::nullopt;
  }
  ShardManifestInfo info;
  info.num_nodes = manifest.num_nodes;
  info.k = manifest.k;
  info.nnz = manifest.nnz;
  info.num_explicit = manifest.num_explicit;
  info.has_ground_truth = manifest.has_ground_truth;
  info.values_f32 = manifest.values_f32;
  info.unit_weights = manifest.unit_weights;
  info.shards_inline = manifest.shards_inline;
  info.file_bytes = manifest.file_bytes;
  info.name = manifest.name;
  info.spec = manifest.spec;
  info.shards.reserve(manifest.entries.size());
  for (const ShardManifestEntry& entry : manifest.entries) {
    // Declared payload sizes: the info call reads no shard. The decoded
    // bytes are what a full load would have to hold resident.
    const std::int64_t decoded_bytes = internal::ShardDecodedPayloadBytes(
        entry.row_end - entry.row_begin, entry.nnz, entry.num_explicit,
        manifest.k, manifest.has_ground_truth, manifest.value_bytes());
    info.total_shard_payload_bytes += decoded_bytes;
    info.total_encoded_payload_bytes += entry.payload_bytes;
    info.shards.push_back(ShardRangeInfo{entry.row_begin, entry.row_end,
                                         entry.nnz, entry.num_explicit,
                                         entry.payload_bytes, decoded_bytes});
  }
  return info;
}

}  // namespace dataset
}  // namespace linbp
