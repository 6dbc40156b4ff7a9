// Shared internals of the binary dataset format (dataset-private).
//
// Every stored graph is one shard manifest plus its shards
// (src/dataset/shard.h documents the layout): beside the manifest in a
// directory (ShardSnapshot), or inline after it in one `.lbps` file
// (SaveSnapshot). The bulk loader (shard.cc) and the out-of-core streaming
// reader (shard_stream.cc) share everything here — little-endian PODs,
// length-prefixed strings, one word-at-a-time payload checksum
// (PayloadChecksum), the one manifest read, and the shard checks and
// decode — so the two readers cannot drift apart. It is an implementation
// detail of src/dataset: nothing outside the library links against it.

#ifndef LINBP_DATASET_FORMAT_INTERNAL_H_
#define LINBP_DATASET_FORMAT_INTERNAL_H_

#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "src/dataset/scenario.h"
#include "src/dataset/shard.h"
#include "src/exec/exec_context.h"

namespace linbp {
namespace dataset {
namespace internal {

/// Shared header constants: every dataset file starts with an 8-byte
/// magic, a u32 version, and the u32 endian tag at offset 12.
inline constexpr std::uint32_t kEndianTag = 0x01020304u;
inline constexpr std::uint32_t kEndianTagSwapped = 0x04030201u;
// Header flag bits (src/dataset/shard.h has the table): manifests carry
// all four, shards all but kFlagShardsInline.
inline constexpr std::uint32_t kFlagGroundTruth = 1u;
// The value sections store f32 instead of f64.
inline constexpr std::uint32_t kFlagF32Values = 2u;
// Manifests only: the shards follow the manifest in the same file.
inline constexpr std::uint32_t kFlagShardsInline = 4u;
// Every stored weight is 1.0, and the shards have no value section.
// Never together with kFlagF32Values.
inline constexpr std::uint32_t kFlagUnitWeights = 8u;
inline constexpr std::size_t kHeaderBytes = 64;
// Bytes of one manifest shard entry: six 8-byte fields.
inline constexpr std::size_t kManifestEntryBytes = 48;
// Far above any real class count; bounds k before allocating k*k doubles.
inline constexpr std::int64_t kMaxClasses = 1024;

/// The payload checksum of every format: a word-at-a-time hash with four
/// independent 64-bit lanes. Little-endian 8-byte word i goes to lane
/// i % 4 as `h = (h ^ w) * K; h ^= h >> 29` (K odd); the final partial
/// word, zero-padded, continues the lane rotation. The lanes then fold,
/// one after another, through murmur's fmix64 together with the byte
/// length. Every step is a bijection of the lane state, so changing any
/// single word — in particular any single bit — always changes the
/// result, and the four independent multiply chains keep the loop near
/// memory speed: about 5.8 GB/s on one core of a 4-vCPU Xeon, where the
/// byte-serial FNV-1a it replaced managed 0.74. The value is part of the
/// on-disk formats: changing it needs a format version bump.
std::uint64_t PayloadChecksum(const char* data, std::size_t size);

/// Appends `count` PODs to a payload buffer.
template <typename T>
void AppendPod(const T* data, std::size_t count, std::vector<char>* out) {
  const std::size_t bytes = count * sizeof(T);
  const std::size_t offset = out->size();
  out->resize(offset + bytes);
  if (bytes > 0) std::memcpy(out->data() + offset, data, bytes);
}

/// Appends a u32-length-prefixed string.
void AppendString(const std::string& s, std::vector<char>* out);

/// Bounds-checked sequential reader over payload bytes.
class Cursor {
 public:
  Cursor(const char* data, std::size_t size) : data_(data), remaining_(size) {}

  template <typename T>
  bool Read(T* out, std::size_t count) {
    // Division, not multiplication: a crafted header count must not wrap
    // the byte total around size_t and slip past the bound.
    if (count > remaining_ / sizeof(T)) return false;
    const std::size_t bytes = count * sizeof(T);
    if (bytes > 0) std::memcpy(out, data_, bytes);
    data_ += bytes;
    remaining_ -= bytes;
    return true;
  }

  template <typename T>
  bool ReadVector(std::vector<T>* out, std::size_t count) {
    if (count > remaining_ / sizeof(T)) return false;
    out->resize(count);
    return Read(out->data(), count);
  }

  bool ReadString(std::string* out) {
    std::uint32_t length = 0;
    if (!Read(&length, 1)) return false;
    if (length > remaining_) return false;
    out->assign(data_, length);
    data_ += length;
    remaining_ -= length;
    return true;
  }

  std::size_t remaining() const { return remaining_; }

 private:
  const char* data_;
  std::size_t remaining_;
};

/// Reads up to `length` bytes at `offset` of the regular file `path` into
/// *out (fewer where the file ends first) and the file's size into
/// *file_bytes, reusing *out's capacity: a caller that passes the same
/// buffer for every read allocates only when a read outgrows it. A file
/// larger than `max_file_bytes` fails before anything is allocated or
/// read (OversizedFileError), so a reader that knows a file's exact size
/// is never made to buffer a file that cannot be valid. Returns false and
/// fills *error ("<path>: cannot open", "<path>: not a regular file",
/// "<path>: read failed") otherwise.
bool ReadFileRange(const std::string& path, std::uint64_t offset,
                   std::uint64_t length, std::uint64_t max_file_bytes,
                   std::vector<char>* out, std::uint64_t* file_bytes,
                   std::string* error);

/// "<path>: oversized file (<size> bytes, expected <expected>)": the one
/// message for a file longer than its manifest says, whichever reader
/// finds it.
std::string OversizedFileError(const std::string& path, std::uint64_t size,
                               std::uint64_t expected);

/// Writes `bytes`, then flushes and closes with the stream state checked
/// at every step: a buffered failure (disk full, quota) often surfaces
/// only at flush/close, and reporting success on a truncated file would
/// defeat the checksum the reader trusts.
bool WriteFileDurably(const std::string& path, const std::vector<char>& bytes,
                      std::string* error);

/// Validates the coupling residual of a manifest, k*k row-major: finite
/// entries, symmetry, |row sum| <= 1e-9. One gate shared by the bulk
/// loader and the streaming reader, so the two paths cannot drift on what
/// counts as a valid manifest. `path` prefixes the error.
bool CheckCouplingResidual(const std::string& path,
                           const std::vector<double>& coupling,
                           std::int64_t k, std::string* error);

/// Magics of the shard manifest and shard files.
inline constexpr char kShardManifestMagic[8] = {'L', 'I', 'N', 'B',
                                                'P', 'S', 'H', 'M'};
inline constexpr char kShardFileMagic[8] = {'L', 'I', 'N', 'B',
                                            'P', 'S', 'H', 'D'};

/// One parsed manifest shard entry.
struct ShardManifestEntry {
  std::int64_t row_begin = 0;
  std::int64_t row_end = 0;
  std::int64_t nnz = 0;
  std::int64_t num_explicit = 0;
  /// The shard's on-disk payload size (its file size minus the 64-byte
  /// header), declared by the manifest: varint columns make it
  /// underivable from the counts.
  std::int64_t payload_bytes = 0;
  std::uint64_t checksum = 0;
  /// Where the shard's header starts in the file that holds it: 0 in a
  /// shard file, past the manifest and the shards before it when inline.
  std::uint64_t offset = 0;
};

/// A read and validated shard manifest.
struct ShardManifest {
  std::int64_t num_nodes = 0;
  std::int64_t k = 0;
  std::int64_t nnz = 0;
  std::int64_t num_explicit = 0;
  bool has_ground_truth = false;
  bool values_f32 = false;
  bool shards_inline = false;
  /// Unit weights: the shards carry no value section (never with
  /// values_f32).
  bool unit_weights = false;
  std::string name;
  std::string spec;
  std::vector<double> coupling;  // k*k
  std::vector<ShardManifestEntry> entries;
  /// Size of the file that holds the manifest: the manifest alone, or,
  /// with inline shards, the manifest plus every shard.
  std::int64_t file_bytes = 0;

  /// Bytes per stored value, on disk and decoded: 0 (unit weights), 4
  /// (f32) or 8.
  std::int64_t value_bytes() const {
    return unit_weights ? 0 : values_f32 ? 4 : 8;
  }
};

/// The one manifest read of every reader. It reads the header and the
/// name and spec lengths first, which fix the manifest's exact size
/// (64 + 4 + |name| + 4 + |spec| + 8k² + 48·num_shards), so a file too
/// short for it is a "truncated manifest payload" and, without inline
/// shards, a longer one is an OversizedFileError, before the rest is read.
/// Then it reads the manifest and validates it fully: header ranges,
/// payload checksum, and a shard table whose row ranges exactly tile
/// [0, num_nodes) with per-shard counts summing to the global ones and
/// payload sizes the counts can explain. With inline shards, the file
/// must be exactly the manifest plus Σ(64 + payload_bytes): shorter is a
/// "truncated shard payload", longer an OversizedFileError — both found
/// before any shard byte is buffered.
bool ReadShardManifest(const std::string& path, ShardManifest* m,
                       std::string* error);

/// The file holding shard `shard` of the manifest at `manifest_path`:
/// ShardFileName(shard) beside it, or the manifest's own file when the
/// shards are inline.
std::string ShardPath(const std::string& manifest_path,
                      const ShardManifest& manifest, std::int64_t shard);

/// Reads shard `shard`'s header and payload from `path` (its ShardPath)
/// into *out, reusing its capacity. The file's size is bounded before
/// anything is read — a shard file by its header and declared payload, an
/// inline file by the size the manifest fixed — so a grown file is an
/// OversizedFileError, never buffered. A short read is left for
/// CheckShardAgainstManifest to report as truncated.
bool ReadShardBytes(const std::string& path, const ShardManifest& manifest,
                    std::int64_t shard, std::vector<char>* out,
                    std::string* error);

/// Decoded (resident) payload byte count of one shard: the CSR sections
/// as arrays, `value_bytes` per value (ShardManifest::value_bytes(): none
/// for unit weights), plus the explicit and ground-truth sections. It is
/// what RAM warnings and `info` report as "decoded".
std::int64_t ShardDecodedPayloadBytes(std::int64_t rows, std::int64_t nnz,
                                      std::int64_t num_explicit,
                                      std::int64_t k, bool has_ground_truth,
                                      std::int64_t value_bytes);

// ---------------------------------------------------------------------
// Column section: a u64 count of the varint bytes, the row-group table,
// then per row a varint entry count and the row's column ids as varints —
// the first id raw, each subsequent id as the strictly positive delta to
// its predecessor (columns are sorted, so deltas are small and most ids
// fit 1-2 bytes). Varints are LEB128 (7 payload bits per byte, high bit
// = continuation); every encoded value fits int32, so a valid varint is
// at most 5 bytes.
//
// A varint stream can only be walked from its start, so one shard would
// decode on one core. The row-group table cuts it into independent
// pieces: rows [g * kRowGroupRows, (g + 1) * kRowGroupRows) form group
// g, and its pair (u64 varint-byte end, u64 entry end) says where the
// group's varints and its entries end, counted from the first varint
// and from the shard's first entry. Group g starts where group g - 1
// ends (group 0 at zero), so every group — and its slice of the value
// section — decodes on its own lane. The table costs 16 bytes per 2048
// rows, under 1% of even an edgeless group's varints.

/// Rows per row group. A format constant: changing it changes every
/// shard's layout, so it needs a format version bump.
inline constexpr std::int64_t kRowGroupRows = 2048;

/// Row groups of a shard with `rows` rows (>= 1 for rows >= 1).
inline std::int64_t RowGroupCount(std::int64_t rows) {
  return (rows + kRowGroupRows - 1) / kRowGroupRows;
}

/// Appends one LEB128 varint.
void AppendVarint(std::uint64_t value, std::vector<char>* out);

/// Appends the whole column section for `rows` rows of sorted column ids
/// (u64 varint byte count, row-group table, varints). `local_row_ptr`
/// has rows + 1 entries rebased to 0.
void EncodeColumnSection(const std::int64_t* local_row_ptr, std::int64_t rows,
                         const std::int32_t* col_idx, std::vector<char>* out);

/// Parsed header of one shard.
struct ShardFileHeader {
  std::int64_t row_begin = 0;
  std::int64_t row_end = 0;
  std::int64_t nnz = 0;
  std::int64_t num_explicit = 0;
  std::uint32_t flags = 0;
  std::uint32_t shard_index = 0;
  std::uint64_t checksum = 0;
};

/// Validates one shard's bytes (header and payload) against its manifest
/// entry: magic / version / endianness, a header agreeing with the
/// manifest (row range, counts, flags — including the f32-values and
/// unit-weight bits — and index), the payload checksum matching both the
/// header and the manifest, and a payload exactly entry.payload_bytes
/// long (which bounds every count-sized allocation a decoder makes).
/// Fills *h on success.
/// The payload itself (bytes after the 64-byte header) is NOT decoded
/// here.
bool CheckShardAgainstManifest(const std::string& path,
                               const std::vector<char>& bytes,
                               const ShardManifest& manifest,
                               std::int64_t shard, ShardFileHeader* h,
                               std::string* error);

/// Decodes the CSR sections at the front of a shard payload (the bytes
/// after the header): the column section into a local row_ptr (rows + 1
/// entries, rebased to 0) and h.nnz column ids, and the h.nnz stored
/// values (f32 or f64, per the manifest) into `values` as `Value`, each
/// checked finite as it is copied. `Value` is double (widening f32
/// exactly) or, for f32 manifests only, float. A unit-weight manifest
/// has no value section, and nothing is written to `values` (callers
/// pass nullptr). On success advances *payload / *payload_size past both
/// sections.
///
/// The whole row-group table is checked first: byte and entry ends never
/// decrease, stay inside the section and h.nnz, and the last pair ends
/// exactly at both. Then each group decodes its rows and copies its
/// slice of the values as one task on `ctx`, and must consume exactly
/// its bytes and yield exactly its entries. The decode enforces
/// everything the row kernels rely on — strictly increasing column ids
/// in [0, num_nodes), no self-loops, finite weights — so no second
/// structural pass over the decoded arrays is needed. It allocates
/// nothing, and the outputs and the error do not depend on ctx: when
/// several groups fail, the lowest one's reason is reported. Errors
/// name `path`: "truncated shard payload", "invalid shard column section
/// (row-group table: <reason>)", "invalid shard column section (row
/// group <g>: <reason>)" with reasons such as "truncated varint",
/// "non-monotone delta" or "self-loop", and "invalid shard value section
/// (row group <g>: non-finite weight)". Instantiated for double and
/// float.
template <typename Value>
bool DecodeCompressedCsr(const std::string& path,
                         const ShardManifest& manifest,
                         const ShardFileHeader& h,
                         const exec::ExecContext& ctx, const char** payload,
                         std::size_t* payload_size,
                         std::int64_t* local_row_ptr, std::int32_t* col_idx,
                         Value* values, std::string* error);

/// Writes `scenario` as a shard set: at most `max_shards` nnz-balanced row
/// blocks (exec::RowPartition::NnzBalanced over the CSR row pointers),
/// encoded per `compression`. With `shards_inline` the manifest and every
/// shard go into the one file `path`; otherwise `path` is a directory
/// (created if missing) that receives ShardFileName(s) for every shard and
/// then, last, ShardManifestFileName(). Returns nullopt and fills *error
/// on I/O failure or an unshardable scenario (no nodes, max_shards out of
/// [1, kMaxShards]).
std::optional<ShardWriteResult> WriteShardSet(const Scenario& scenario,
                                              std::int64_t max_shards,
                                              ShardCompression compression,
                                              bool shards_inline,
                                              const std::string& path,
                                              std::string* error);

}  // namespace internal
}  // namespace dataset
}  // namespace linbp

#endif  // LINBP_DATASET_FORMAT_INTERNAL_H_
