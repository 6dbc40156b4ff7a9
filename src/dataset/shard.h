// Sharded snapshots: the one on-disk form of a Scenario — a checksummed
// manifest plus one or more shards, each the slice of every Scenario
// section that belongs to one row block.
//
// The paper's scalability experiments (Sect. 7) run LinBP/SBP on graphs
// with hundreds of millions of edges — larger than one comfortably
// resident CSR. The linearized fixed-point iteration decomposes cleanly
// over contiguous row blocks, so the shard key is the same nnz-balanced
// exec::RowPartition the parallel kernels already split on: one shard =
// one row block. Shards load in parallel on an ExecContext (one task per
// shard, and one per row group inside a shard), and the out-of-core
// engine streams them one block at a time (src/dataset/shard_stream.h).
//
// The shards live in one of two places:
//   - beside the manifest, as ShardSnapshot writes them into a directory:
//       <dir>/manifest.lbpm        the manifest (written last, so a crashed
//                                  writer never leaves a loadable manifest
//                                  pointing at missing shards)
//       <dir>/shard-000000.lbpsd   shard 0 (rows [0, r1))
//       <dir>/shard-000001.lbpsd   shard 1 (rows [r1, r2))
//       ...
//     A shard's file name follows from its index (ShardFileName); the
//     manifest stores no names.
//   - inline, right after the manifest in the same file, as SaveSnapshot
//     writes a `.lbps` (src/dataset/snapshot.h): shard s (its header and
//     payload) follows shard s - 1, and the file ends with the last one.
//
// Manifest (little-endian; version 6):
//
//   offset  size  field
//   0       8     magic "LINBPSHM"
//   8       4     u32 version (6)
//   12      4     u32 endian tag 0x01020304 (byte-swapped on a
//                 big-endian writer, which readers reject)
//   16      8     i64 num_nodes
//   24      8     i64 k (classes)
//   32      8     i64 nnz (global stored adjacency entries)
//   40      8     i64 num_explicit (global)
//   48      4     u32 flags (see the flag table below)
//   52      4     u32 num_shards
//   56      8     u64 PayloadChecksum of the manifest payload
//   64      ...   payload:
//                   u32 name length, name bytes
//                   u32 spec length, spec bytes
//                   f64[k*k] coupling residual (row-major)
//                   num_shards x 48-byte shard entry:
//                     i64 row_begin, i64 row_end
//                     i64 nnz, i64 num_explicit
//                     i64 payload_bytes (the shard's on-disk payload
//                         size: varint columns make it underivable from
//                         the counts)
//                     u64 PayloadChecksum of the shard's payload
//
// The header and the two string lengths fix the manifest's exact size,
// 64 + 4 + |name| + 4 + |spec| + 8k² + 48·num_shards, so every reader
// takes them first and rejects a shorter file, or (shards beside it) a
// longer one, before reading the rest. With inline shards the file is
// exactly the manifest plus Σ(64 + payload_bytes); any other size fails
// before a shard byte is buffered.
//
// Shard (64-byte header, then the payload):
//
//   0       8     magic "LINBPSHD"
//   8       4     u32 version (6, shared with the manifest)
//   12      4     u32 endian tag
//   16      8     i64 row_begin
//   24      8     i64 row_end
//   32      8     i64 nnz (this shard's stored entries)
//   40      8     i64 num_explicit (this shard's explicit nodes)
//   48      4     u32 flags (the manifest's, without bit 2)
//   52      4     u32 shard index
//   56      8     u64 PayloadChecksum of the shard payload
//   64      ...   payload:
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
//                                       no second narrowing pass; absent
//                                       iff flag bit 3)
//                   i64[num_explicit]   explicit node ids (global, sorted,
//                                       inside [row_begin, row_end))
//                   f64[num_explicit*k] explicit residual rows
//                   i32[rows]           ground truth slice (iff flag)
//
// Flags (manifest and shard headers; a shard's must equal its
// manifest's without bit 2):
//
//   bit  value  meaning
//   0    1      ground truth present (a slice per shard)
//   1    2      f32 value sections
//   2    4      manifest only: the shards follow it in the same file
//   3    8      unit weights: every stored weight is 1.0 and the shards
//               have no value section
//
// Any other bit is an error ("unknown flags"), and so are bits 1 and 3
// together. The writers set bit 3 exactly when the adjacency is unit
// (SparseMatrix::unit_weights(); every generated graph is), and then
// never bit 1: a unit graph written with ShardCompression::kF32 gets the
// same bytes as with kF64. Bit 3 came after the first version-6 files,
// which store a value section of 1.0s instead; they still load, and
// their graph takes the unit form when it is adopted.
//
// Sorted columns make the deltas small — most ids encode in 1-2 bytes
// instead of 4 — which cuts the bytes a load or an out-of-core sweep
// reads (the stream is bandwidth-bound, not FLOP-bound). Column encoding
// is lossless and f64 values are stored exactly, so f64 shards load and
// stream bit-identically to the scenario they were written from; f32
// shards narrow each value once at write time, exactly matching the
// narrowing the f32 kernel path applies to resident f64 graphs.
//
// The row-group table exists so one shard can decode on every core. A
// varint can only be found by walking every varint before it, so a
// plain stream decodes on one thread. Row group g is rows [2048 g,
// 2048 (g + 1)); its pair gives the offset just past its varints
// (counted from the first varint) and the index just past its entries
// (counted from the shard's first entry), and it starts where group
// g - 1 ends. So each group — its varints and its slice of the value
// section — decodes on its own lane, and readers check the table (ends
// never decrease, the last pair ends exactly at V and nnz) before any
// group runs, then require every group to consume exactly its bytes and
// yield exactly its entries. 2048 is a format constant
// (internal::kRowGroupRows), not a setting.
//
// PayloadChecksum (src/dataset/format_internal.h) is a word-at-a-time
// hash with four 64-bit lanes. Readers accept version 6 only. Earlier
// files — raw snapshots ("LINBPSNP", versions 1-2), raw shards (1, 3),
// compressed shards (2, 4, 5) — fail with a precise error and are
// regenerated from their scenario spec with `linbp_cli convert` or
// `linbp_cli shard`.
//
// LoadShardedSnapshot rejects every mismatch with a descriptive error,
// never a crash: bad magic/version/endianness, checksum failures at the
// manifest or shard level, shard headers disagreeing with their manifest
// entry, row-range gaps or overlaps, count mismatches, truncated or
// oversized files (checked before anything sized by them is read),
// missing shard files, malformed column sections, self-loops, non-finite
// weights, and — via one global sweep — cross-shard asymmetry of the
// assembled adjacency. Loads of the same scenario are bit-identical
// whatever its shard count and wherever its shards live.

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

/// Format version of manifests and shards (they share the field); the
/// only version the readers accept.
inline constexpr std::uint32_t kShardFormatVersion = 6;

/// How shard payloads store their values; column ids are always
/// delta+varint encoded. A unit-weight scenario stores no values, so
/// the choice changes nothing for it.
enum class ShardCompression {
  kF64,  // f64 values (lossless)
  kF32,  // values narrowed to f32
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
/// value width. Every file is flushed and close-checked before success
/// is reported; the manifest is written last. Returns nullopt and fills
/// *error on I/O failure or an unshardable scenario (no nodes,
/// max_shards out of [1, kMaxShards]).
std::optional<ShardWriteResult> ShardSnapshot(
    const Scenario& scenario, std::int64_t max_shards, const std::string& dir,
    std::string* error, ShardCompression compression = ShardCompression::kF64);

/// Loads a shard manifest — a directory's `manifest.lbpm` or a `.lbps`
/// with its shards inline — back into a Scenario. Shards are read,
/// checksummed and decoded in parallel on `ctx` (one task per shard,
/// straight into the assembled global arrays; a lone shard fans its row
/// groups out instead), then one global sweep checks that every entry has
/// its mirror before the trusted SparseMatrix::FromValidatedCsr /
/// Graph::FromValidatedAdjacency adopt paths run. With a tracer installed
/// the load shows as `load_read`, `load_checksum` and `load_decode` spans
/// per shard (plus a `load_read` for the manifest and a `load_decode` for
/// sizing the arrays), then `load_validate` and `load_adopt`. Returns
/// nullopt and fills *error on any corruption or manifest/shard mismatch.
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
  /// On-disk payload bytes of this shard (its header excluded), as the
  /// manifest declares them.
  std::int64_t payload_bytes = 0;
  /// Bytes the shard occupies once decoded into resident CSR sections.
  std::int64_t decoded_bytes = 0;
};

/// Manifest fields, without reading any shard.
struct ShardManifestInfo {
  std::int64_t num_nodes = 0;
  std::int64_t k = 0;
  std::int64_t nnz = 0;
  std::int64_t num_explicit = 0;
  bool has_ground_truth = false;
  /// Value sections are stored as f32.
  bool values_f32 = false;
  /// Every weight is 1.0 and the shards have no value section.
  bool unit_weights = false;
  /// The shards follow the manifest in its own file (a `.lbps`).
  bool shards_inline = false;
  /// Size of the file that holds the manifest (with inline shards, the
  /// whole file).
  std::int64_t file_bytes = 0;
  /// Sum of every shard's decoded payload bytes — what a full
  /// LoadShardedSnapshot must hold resident at once, so callers (e.g.
  /// `linbp_cli info`) can warn when a graph exceeds available RAM and
  /// should stream instead.
  std::int64_t total_shard_payload_bytes = 0;
  /// Sum of every shard's on-disk payload bytes.
  std::int64_t total_encoded_payload_bytes = 0;
  std::string name;
  std::string spec;
  std::vector<ShardRangeInfo> shards;
};

/// Reads and fully validates the manifest (size, header, checksum, shard
/// table consistency) through the one head read every reader shares; does
/// not read any shard.
std::optional<ShardManifestInfo> ReadShardManifestInfo(
    const std::string& path, std::string* error);

}  // namespace dataset
}  // namespace linbp

#endif  // LINBP_DATASET_SHARD_H_
