// Sharded snapshots: one Scenario split into per-row-block shard files
// plus a checksummed manifest.
//
// The paper's scalability experiments (Sect. 7) run LinBP/SBP on graphs
// with hundreds of millions of edges — larger than one comfortably
// resident CSR. The linearized fixed-point iteration decomposes cleanly
// over contiguous row blocks, so the shard key is the same nnz-balanced
// exec::RowPartition the parallel kernels already split on: one shard =
// one row block, holding that block's slice of every Scenario section.
// Shards load in parallel on an ExecContext (one task per shard), which
// also makes the sharded format the seam for future out-of-core or
// distributed execution.
//
// On-disk layout. ShardSnapshot writes into a directory:
//
//   <dir>/manifest.lbpm        the manifest (written last, so a crashed
//                              writer never leaves a loadable manifest
//                              pointing at missing shards)
//   <dir>/shard-000000.lbpsd   shard 0 (rows [0, r1))
//   <dir>/shard-000001.lbpsd   shard 1 (rows [r1, r2))
//   ...
//
// Manifest file (little-endian, 64-byte header like snapshot.h):
//
//   offset  size  field
//   0       8     magic "LINBPSHM"
//   8       4     u32 version (3 = raw payloads, 5 = compressed)
//   12      4     u32 endian tag 0x01020304
//   16      8     i64 num_nodes
//   24      8     i64 k (classes)
//   32      8     i64 nnz (global stored adjacency entries)
//   40      8     i64 num_explicit (global)
//   48      4     u32 flags (bit 0: ground truth present;
//                            bit 1, compressed only: f32 value sections)
//   52      4     u32 num_shards
//   56      8     u64 PayloadChecksum of the manifest payload
//   64      ...   payload:
//                   u32 name length, name bytes
//                   u32 spec length, spec bytes
//                   f64[k*k] coupling residual (row-major)
//                   num_shards x shard entry:
//                     i64 row_begin, i64 row_end
//                     i64 nnz, i64 num_explicit
//                     i64 payload_bytes (compressed only: the shard
//                         file's on-disk payload size, not derivable
//                         from the counts once the columns are
//                         varint-packed)
//                     u64 PayloadChecksum of the shard's payload
//                     u32 file-name length, file-name bytes (relative
//                         to the manifest's directory)
//
// Shard file (64-byte header):
//
//   0       8     magic "LINBPSHD"
//   8       4     u32 version (matches the manifest)
//   12      4     u32 endian tag
//   16      8     i64 row_begin
//   24      8     i64 row_end
//   32      8     i64 nnz (this shard's stored entries)
//   40      8     i64 num_explicit (this shard's explicit nodes)
//   48      4     u32 flags (bit 0: ground-truth slice present;
//                            bit 1, compressed only: f32 value section)
//   52      4     u32 shard index
//   56      8     u64 PayloadChecksum of the shard payload
//   64      ...   raw payload (version 3):
//                   i64[rows + 1]       local row_ptr (rebased to 0)
//                   i32[nnz]            col_idx (GLOBAL column ids)
//                   f64[nnz]            values
//                   i64[num_explicit]   explicit node ids (global, sorted,
//                                       inside [row_begin, row_end))
//                   f64[num_explicit*k] explicit residual rows
//                   i32[rows]           ground truth slice (iff flag)
//
// A compressed payload replaces the row_ptr + col_idx sections with a
// delta+varint column section and optionally narrows the values:
//
//   64      ...   compressed payload (version 5):
//                   u64                 varint byte count (V)
//                   ceil(rows / 2048) x row-group pair:
//                     u64 varint-byte end, u64 entry end (see below)
//                   V bytes, per row:   varint row entry count, then the
//                                       row's GLOBAL column ids — the
//                                       first raw, the rest as strictly
//                                       positive deltas (LEB128, max 5
//                                       bytes per varint)
//                   f64[nnz]|f32[nnz]   values (f32 iff flag bit 1; the
//                                       writer narrows once, so decoded
//                                       blocks feed the f32 kernels with
//                                       no second narrowing pass)
//                   ... explicit ids / rows / ground truth as raw
//
// Sorted columns make the deltas small — most ids encode in 1-2 bytes
// instead of 4 — which cuts the bytes an out-of-core sweep re-reads
// from disk (the stream is bandwidth-bound, not FLOP-bound). Column
// encoding is lossless and f64 values are stored exactly, so compressed
// f64 solves stay bit-identical to raw and to in-memory; compressed f32
// narrows each value once at write time, exactly matching the narrowing
// the f32 kernel path applies to resident f64 graphs.
//
// The row-group table exists so one shard can decode on every core. A
// varint can only be found by walking every varint before it, so a
// plain stream decodes on one thread, and decoding was most of a
// streamed sweep's cost. Row group g is rows [2048 g, 2048 (g + 1)); its
// pair gives the offset just past its varints (counted from the first
// varint) and the index just past its entries (counted from the shard's
// first entry), and it starts where group g - 1 ends. So each group —
// its varints and its slice of the value section — decodes on its own
// lane, and readers check the table (ends never decrease, the last pair
// ends exactly at V and nnz) before any group runs, then require every
// group to consume exactly its bytes and yield exactly its entries.
// 2048 is a format constant (internal::kRowGroupRows), not a setting.
//
// PayloadChecksum (src/dataset/format_internal.h) is a word-at-a-time
// hash with four 64-bit lanes. Versions 1 (raw) and 2 (compressed) were
// the same layouts checksummed with byte-serial FNV-1a; version 4 was
// the compressed layout without the row-group table. Readers reject all
// three as unsupported versions.
//
// LoadShardedSnapshot rejects every mismatch with a descriptive error,
// never a crash: bad magic/version/endianness, checksum failures at the
// manifest or shard level, shard headers disagreeing with their manifest
// entry, row-range gaps or overlaps, count mismatches, truncation,
// trailing bytes, shard files longer than their entry declares (checked
// before anything is read), missing shard files, and — via the shared global
// validation sweep — cross-shard asymmetry of the assembled adjacency.
// A successful load is bit-identical to loading the monolithic snapshot
// of the same scenario.

#ifndef LINBP_DATASET_SHARD_H_
#define LINBP_DATASET_SHARD_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/dataset/scenario.h"
#include "src/exec/exec_context.h"

namespace linbp {
namespace dataset {

/// Format version of raw (uncompressed) sharded snapshots, the default.
/// Manifests and shard files share the version field.
inline constexpr std::uint32_t kShardFormatVersionRaw = 3;

/// Format version of compressed (delta+varint column, row-grouped)
/// sharded snapshots; also the newest version the readers accept.
inline constexpr std::uint32_t kShardFormatVersionCompressed = 5;

/// The one layout test every reader and writer goes through: true for
/// the compressed layout, false for the raw one.
inline constexpr bool IsCompressedShardVersion(std::uint32_t version) {
  return version == kShardFormatVersionCompressed;
}

/// How ShardSnapshot encodes shard payloads.
enum class ShardCompression {
  kNone,  // raw: row_ptr/col_idx/f64 values
  kF64,   // compressed: delta+varint columns, f64 values (lossless)
  kF32,   // compressed: delta+varint columns, values narrowed to f32
};

/// Sanity bound on the shard count a manifest may declare.
inline constexpr std::int64_t kMaxShards = 1 << 20;

/// File names ShardSnapshot produces inside its directory.
std::string ShardManifestFileName();
std::string ShardFileName(std::int64_t shard);

/// Where ShardSnapshot wrote, for callers that report or chain on it.
struct ShardWriteResult {
  std::string manifest_path;
  std::int64_t num_shards = 0;
};

/// Splits `scenario` into at most `max_shards` nnz-balanced row blocks
/// (exec::RowPartition::NnzBalanced over the CSR row pointers; fewer
/// shards when rows run out) and writes one shard file per block plus
/// the manifest into `dir` (created if missing). `compression` picks the
/// payload encoding: kNone writes the raw layout, kF64/kF32 the
/// compressed one (see the layout comment above). Every file is flushed
/// and close-checked before success is reported; the manifest is
/// written last. Returns
/// nullopt and fills *error on I/O failure or an unshardable scenario
/// (no nodes, max_shards out of [1, kMaxShards]).
std::optional<ShardWriteResult> ShardSnapshot(
    const Scenario& scenario, std::int64_t max_shards, const std::string& dir,
    std::string* error,
    ShardCompression compression = ShardCompression::kNone);

/// Loads a sharded snapshot back into a Scenario. Shard files are read
/// and deserialized in parallel on `ctx` (one task per shard, directly
/// into the assembled global arrays), then the shared structural
/// validation sweep runs once before the trusted
/// SparseMatrix::FromValidatedCsr / Graph::FromValidatedAdjacency adopt
/// paths — no serial re-validation pass. Returns nullopt and fills
/// *error on any corruption or manifest/shard mismatch.
std::optional<Scenario> LoadShardedSnapshot(const std::string& manifest_path,
                                            std::string* error,
                                            const exec::ExecContext& ctx =
                                                exec::ExecContext::Default());

/// One manifest shard entry, as reported by ReadShardManifestInfo.
struct ShardRangeInfo {
  std::int64_t row_begin = 0;
  std::int64_t row_end = 0;
  std::int64_t nnz = 0;
  std::int64_t num_explicit = 0;
  /// Declared on-disk payload bytes of this shard's file (header
  /// excluded): computed from the manifest counts for raw shards, read
  /// from the manifest entry for compressed ones — either way, file size
  /// minus 64.
  std::int64_t payload_bytes = 0;
  /// Bytes the shard occupies once decoded into resident CSR sections
  /// (== payload_bytes for raw shards; larger for compressed ones).
  std::int64_t decoded_bytes = 0;
  std::string file;
};

/// Manifest fields, without reading any shard file.
struct ShardManifestInfo {
  std::uint32_t version = 0;
  std::int64_t num_nodes = 0;
  std::int64_t k = 0;
  std::int64_t nnz = 0;
  std::int64_t num_explicit = 0;
  bool has_ground_truth = false;
  /// Compressed only: value sections are stored as f32.
  bool values_f32 = false;
  /// Size of the manifest file itself.
  std::int64_t file_bytes = 0;
  /// Sum of every shard's decoded payload bytes — what a full
  /// LoadShardedSnapshot must hold resident at once, so callers (e.g.
  /// `linbp_cli info`) can warn when a graph exceeds available RAM and
  /// should stream instead. For compressed manifests this is the
  /// decoded total, not the (smaller) on-disk one.
  std::int64_t total_shard_payload_bytes = 0;
  /// Sum of every shard's on-disk payload bytes (== the payload total
  /// above for raw shards; the compressed size otherwise).
  std::int64_t total_encoded_payload_bytes = 0;
  std::string name;
  std::string spec;
  std::vector<ShardRangeInfo> shards;
};

/// Reads and fully validates the manifest (header, checksum, shard
/// table consistency); does not open the shard files.
std::optional<ShardManifestInfo> ReadShardManifestInfo(
    const std::string& path, std::string* error);

/// True when `path` exists and starts with the shard-manifest magic —
/// the dispatch test that lets the `snap:` scenario and `linbp_cli info`
/// accept monolithic snapshots and shard manifests interchangeably.
bool LooksLikeShardManifest(const std::string& path);

}  // namespace dataset
}  // namespace linbp

#endif  // LINBP_DATASET_SHARD_H_
