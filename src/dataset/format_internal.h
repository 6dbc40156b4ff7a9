// Shared internals of the binary dataset formats (dataset-private).
//
// The monolithic snapshot (src/dataset/snapshot.h) and the sharded
// snapshot (src/dataset/shard.h) serialize the same Scenario sections
// with the same conventions — little-endian PODs, length-prefixed
// strings, one word-at-a-time payload checksum (PayloadChecksum), and
// error-returning validation of every structural invariant before the
// trusted CSR adopt paths run.
// This header keeps those pieces in one place so the two formats cannot
// drift apart. It is an implementation detail of src/dataset: nothing
// outside the library links against it.

#ifndef LINBP_DATASET_FORMAT_INTERNAL_H_
#define LINBP_DATASET_FORMAT_INTERNAL_H_

#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <optional>
#include <string>
#include <vector>

#include "src/dataset/scenario.h"
#include "src/exec/exec_context.h"

namespace linbp {
namespace dataset {
namespace internal {

/// Shared header constants: every dataset file starts with an 8-byte
/// magic, a u32 version, and the u32 endian tag at offset 12.
inline constexpr std::uint32_t kEndianTag = 0x01020304u;
inline constexpr std::uint32_t kEndianTagSwapped = 0x04030201u;
inline constexpr std::uint32_t kFlagGroundTruth = 1u;
// Compressed shards only: the value section stores f32 instead of f64.
inline constexpr std::uint32_t kFlagF32Values = 2u;
inline constexpr std::size_t kHeaderBytes = 64;
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

/// Reads a whole regular file into *out, reusing its capacity: a caller
/// that passes the same buffer for every read allocates only when a
/// file outgrows it. A file larger than `max_bytes` fails before
/// anything is allocated or read (OversizedFileError), so a caller that
/// knows the exact size (a shard file: its manifest entry fixes it) is
/// never made to buffer a file that cannot be valid. Returns false and
/// fills *error ("<path>: cannot open", "<path>: not a regular file",
/// "<path>: read failed") otherwise.
bool ReadFileBytes(const std::string& path, std::vector<char>* out,
                   std::string* error,
                   std::uint64_t max_bytes = UINT64_MAX);

/// Reads up to `length` bytes at `offset` of the regular file `path`
/// into *out (fewer where the file ends first) and its size into
/// *file_bytes: how a reader takes a file's leading fields without
/// buffering the rest. Same open and read errors as ReadFileBytes.
bool ReadFileRange(const std::string& path, std::uint64_t offset,
                   std::size_t length, std::vector<char>* out,
                   std::uint64_t* file_bytes, std::string* error);

/// "<path>: oversized file (<size> bytes, expected <expected>)": the one
/// message for a file longer than its header (a snapshot) or its
/// manifest entry (a shard) declares, whichever reader finds it.
std::string OversizedFileError(const std::string& path, std::uint64_t size,
                               std::uint64_t expected);

/// Writes header + payload, then flushes and closes with the stream
/// state checked at every step: a buffered failure (disk full, quota)
/// often surfaces only at flush/close, and reporting success on a
/// truncated file would defeat the checksum the reader trusts.
bool WriteFileDurably(const std::string& path, const char* header,
                      std::size_t header_bytes,
                      const std::vector<char>& payload, std::string* error);

/// Validates the shared magic/version/endianness prefix of a header.
/// `magic` must point at 8 bytes; `what` names the format in errors
/// ("snapshot", "shard manifest", ...).
bool CheckMagicVersionEndian(const std::string& path, const char* data,
                             std::size_t size, const char* magic,
                             std::uint32_t expected_version, const char* what,
                             std::string* error);

/// Multi-version variant: accepts exactly the listed versions (not a
/// range: a retired version between two live ones must still fail as
/// unsupported) and reports the one found through *version. The
/// single-version overload above delegates here with a one-entry list.
bool CheckMagicVersionEndianIn(const std::string& path, const char* data,
                               std::size_t size, const char* magic,
                               std::initializer_list<std::uint32_t> versions,
                               const char* what, std::uint32_t* version,
                               std::string* error);

/// Validates a k*k row-major coupling residual: finite entries,
/// symmetry, |row sum| <= 1e-9. One gate shared by the bulk loader
/// (ValidateAndAssembleScenario) and the streaming reader
/// (ShardStreamReader::Open), so the two paths cannot drift on what
/// counts as a valid manifest. `path` prefixes the error.
bool CheckCouplingResidual(const std::string& path,
                           const std::vector<double>& coupling,
                           std::int64_t k, std::string* error);

/// Validates the count fields every dataset header carries: num_nodes in
/// [0, int32 max], k in [1, kMaxClasses], nnz >= 0, num_explicit in
/// [0, num_nodes], and no flag bits outside `allowed_flags` (snapshot and
/// raw shard headers pass kFlagGroundTruth; compressed shard headers
/// additionally admit kFlagF32Values). `what` names the header in errors
/// ("header", "manifest header").
bool CheckHeaderCounts(const std::string& path, std::int64_t num_nodes,
                       std::int64_t k, std::int64_t nnz,
                       std::int64_t num_explicit, std::uint32_t flags,
                       std::uint32_t allowed_flags, const char* what,
                       std::string* error);

/// The deserialized sections of one Scenario, before validation. The
/// monolithic loader fills this from a single payload; the sharded
/// loader assembles it from per-shard slices.
struct ScenarioParts {
  std::string name;
  std::string spec;
  std::int64_t num_nodes = 0;
  std::int64_t k = 0;
  bool has_ground_truth = false;
  std::vector<double> coupling;            // k*k, row-major
  std::vector<std::int64_t> row_ptr;       // num_nodes + 1
  std::vector<std::int32_t> col_idx;
  std::vector<double> values;
  std::vector<std::int64_t> explicit_nodes;
  std::vector<double> explicit_rows;       // explicit_nodes.size() * k
  std::vector<std::int32_t> ground_truth;  // num_nodes iff has_ground_truth
};

// ---------------------------------------------------------------------
// Shard-format internals, shared by the bulk loader (shard.cc) and the
// out-of-core streaming reader (shard_stream.cc). The on-disk layout is
// documented in src/dataset/shard.h.

/// Magics of the shard manifest and shard files.
inline constexpr char kShardManifestMagic[8] = {'L', 'I', 'N', 'B',
                                                'P', 'S', 'H', 'M'};
inline constexpr char kShardFileMagic[8] = {'L', 'I', 'N', 'B',
                                            'P', 'S', 'H', 'D'};

/// One parsed manifest shard entry. `payload_bytes` is the on-disk
/// payload size (file size minus the 64-byte header): for raw shards it
/// is recomputed from the counts via ShardPayloadBytes, for compressed
/// ones it is read from the manifest (the encoded size is not derivable
/// from counts).
struct ShardManifestEntry {
  std::int64_t row_begin = 0;
  std::int64_t row_end = 0;
  std::int64_t nnz = 0;
  std::int64_t num_explicit = 0;
  std::int64_t payload_bytes = 0;
  std::uint64_t checksum = 0;
  std::string file;
};

/// A parsed + validated shard manifest.
struct ShardManifest {
  std::uint32_t version = 0;
  std::int64_t num_nodes = 0;
  std::int64_t k = 0;
  std::int64_t nnz = 0;
  std::int64_t num_explicit = 0;
  bool has_ground_truth = false;
  bool values_f32 = false;  // compressed only: value sections store f32
  std::string name;
  std::string spec;
  std::vector<double> coupling;  // k*k
  std::vector<ShardManifestEntry> entries;
  std::int64_t file_bytes = 0;
};

/// Parses and fully validates a manifest: header ranges, payload
/// checksum, and a shard table whose row ranges exactly tile
/// [0, num_nodes) with per-shard counts summing to the global ones.
/// Accepts the raw and the compressed format version (src/dataset/
/// shard.h) and records the one found in m->version.
bool ParseShardManifest(const std::string& path,
                        const std::vector<char>& bytes, ShardManifest* m,
                        std::string* error);

/// Joins a shard file name with the directory its manifest lives in.
std::string ShardSiblingPath(const std::string& manifest_path,
                             const std::string& file);

/// Exact payload byte count of one shard file — the single source of
/// truth shared by the writer's buffer reserve, the bulk loader's
/// preflight (which bounds the global allocations by actual on-disk
/// bytes), and the manifest-info payload total. A format change that
/// grows the payload must land here, or the preflight would either
/// reject valid files or (worse) reopen the hostile-manifest allocation
/// hole it exists to close. Cannot overflow: rows <= 2^31, nnz <= 2^48
/// (manifest cap), k <= kMaxClasses.
std::int64_t ShardPayloadBytes(std::int64_t rows, std::int64_t nnz,
                               std::int64_t num_explicit, std::int64_t k,
                               bool has_ground_truth);

/// Decoded (resident) payload byte count of one shard, either layout:
/// the raw sections with the value width picked by `values_f32`. For raw
/// shards this equals ShardPayloadBytes; for compressed ones it is what
/// the shard occupies after decoding, which is what RAM warnings and
/// `info` report as "decoded".
std::int64_t ShardDecodedPayloadBytes(std::int64_t rows, std::int64_t nnz,
                                      std::int64_t num_explicit,
                                      std::int64_t k, bool has_ground_truth,
                                      bool values_f32);

/// Smallest possible on-disk payload of a compressed shard with the
/// given counts: the u64 varint byte count, the row-group table, at
/// least one varint byte per row and per column id, the exact value
/// section, and the raw-layout explicit/ground-truth sections. The
/// loader preflight checks each compressed entry's payload_bytes against
/// this floor, so a hostile manifest cannot claim huge decoded counts
/// backed by a tiny file and trigger a multi-terabyte resize — the same
/// hole ShardPayloadBytes closes for raw shards. Cannot overflow for the
/// same count caps.
std::int64_t CompressedShardPayloadBytesMin(std::int64_t rows,
                                            std::int64_t nnz,
                                            std::int64_t num_explicit,
                                            std::int64_t k,
                                            bool has_ground_truth,
                                            bool values_f32);

// ---------------------------------------------------------------------
// Compressed column section: a u64 count of the varint bytes, the
// row-group table, then per row a varint entry count and the row's
// column ids as varints — the first id raw, each subsequent id as the
// strictly positive delta to its predecessor (columns are sorted, so
// deltas are small and most ids fit 1-2 bytes). Varints are LEB128
// (7 payload bits per byte, high bit = continuation); every encoded
// value fits int32, so a valid varint is at most 5 bytes.
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
/// compressed shard's layout, so it needs a format version bump.
inline constexpr std::int64_t kRowGroupRows = 2048;

/// Row groups of a compressed shard with `rows` rows (>= 1 for rows >= 1).
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

/// Parsed header of one shard file.
struct ShardFileHeader {
  std::int64_t row_begin = 0;
  std::int64_t row_end = 0;
  std::int64_t nnz = 0;
  std::int64_t num_explicit = 0;
  std::uint32_t flags = 0;
  std::uint32_t shard_index = 0;
  std::uint64_t checksum = 0;
};

/// Validates one shard file's bytes against its manifest entry: magic /
/// version / endianness (the shard's version must equal the manifest's),
/// a header agreeing with the manifest (row range, counts, flags —
/// including the f32-values bit — and index), the payload checksum
/// matching both the header and the manifest, and a payload exactly
/// entry.payload_bytes long (which bounds every count-sized allocation a
/// decoder makes). Fills *h on success. The payload itself (bytes after
/// the 64-byte header) is NOT deserialized here.
bool CheckShardAgainstManifest(const std::string& path,
                               const std::vector<char>& bytes,
                               const ShardManifest& manifest,
                               std::int64_t shard, ShardFileHeader* h,
                               std::string* error);

/// Decodes the CSR sections at the front of a compressed shard payload
/// (the bytes after the header): the column section into a local row_ptr
/// (rows + 1 entries, rebased to 0) and h.nnz column ids, and the h.nnz
/// stored values (f32 or f64, per the manifest) into `values` as
/// `Value`, each checked finite as it is copied. `Value` is double
/// (widening f32 exactly) or, for f32 manifests only, float. On success
/// advances *payload / *payload_size past both sections.
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

/// Validates every structural invariant with error returns (the checksum
/// only proves the bytes match what was written, not that a writer was
/// well behaved): CSR row-pointer monotonicity, per-row column ordering
/// and range, no self-loops, finite symmetric weights (the CSR sweeps
/// fan out on `ctx`), a finite zero-row-sum symmetric coupling residual,
/// a sorted in-range explicit node list with finite rows, and in-range
/// ground-truth classes. On success assembles the Scenario through the
/// trusted FromValidatedCsr / FromValidatedAdjacency adopt paths, so
/// validation runs exactly once. `path` prefixes every error message.
std::optional<Scenario> ValidateAndAssembleScenario(
    const std::string& path, ScenarioParts parts,
    const exec::ExecContext& ctx, std::string* error);

}  // namespace internal
}  // namespace dataset
}  // namespace linbp

#endif  // LINBP_DATASET_FORMAT_INTERNAL_H_
