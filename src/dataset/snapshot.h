// Binary graph snapshots: fast, checksummed persistence for Scenarios.
//
// Text edge lists parse one token at a time; a snapshot is a single
// read + memcpy of the frozen CSR arrays, so loading is dominated by I/O
// instead of parsing (see BENCH_dataset.json; the deserialization-side
// CSR validation and graph reconstruction fan out on an ExecContext).
// The on-disk layout is little-endian and versioned:
//
//   offset  size  field
//   0       8     magic "LINBPSNP"
//   8       4     u32 version (currently 2; version 1 was the same
//                 layout checksummed with byte-serial FNV-1a)
//   12      4     u32 endian tag 0x01020304 (byte-swapped on a
//                 big-endian writer, which readers reject)
//   16      8     i64 num_nodes
//   24      8     i64 k (classes)
//   32      8     i64 nnz (stored adjacency entries, 2x undirected edges)
//   40      8     i64 num_explicit (nodes with explicit beliefs)
//   48      4     u32 flags (bit 0: ground truth present)
//   52      4     u32 reserved (0)
//   56      8     u64 PayloadChecksum of the payload bytes (the
//                 word-at-a-time hash in src/dataset/format_internal.h)
//   64      ...   payload:
//                   u32 name length, name bytes
//                   u32 spec length, spec bytes
//                   f64[k*k]            coupling residual (row-major)
//                   i64[num_nodes + 1]  CSR row_ptr
//                   i32[nnz]            CSR col_idx
//                   f64[nnz]            CSR values
//                   i64[num_explicit]   explicit node ids (sorted)
//                   f64[num_explicit*k] explicit residual rows
//                   i32[num_nodes]      ground truth (iff flag bit 0)
//
// The header counts and the two string lengths fix the exact file size,
// so both readers take those fields first (three short reads) and
// reject a shorter file ("truncated snapshot payload") or a longer one
// ("oversized file (N bytes, expected M)") before reading the rest.
// Load also rejects wrong magic/version/endianness, checksum mismatches,
// and structurally invalid CSR payloads with descriptive errors — it
// never aborts on bad bytes, and never buffers more than the header
// declares. For graphs larger
// than one comfortably resident file, src/dataset/shard.h splits the same
// sections by exec::RowPartition row blocks into per-shard files behind a
// checksummed manifest; both formats share their serialization and
// validation internals (src/dataset/format_internal.h).

#ifndef LINBP_DATASET_SNAPSHOT_H_
#define LINBP_DATASET_SNAPSHOT_H_

#include <cstdint>
#include <optional>
#include <string>

#include "src/dataset/scenario.h"
#include "src/exec/exec_context.h"

namespace linbp {
namespace dataset {

/// Current snapshot format version.
inline constexpr std::uint32_t kSnapshotVersion = 2;

/// Writes `scenario` to `path`. Returns false and fills *error on I/O
/// failure.
bool SaveSnapshot(const Scenario& scenario, const std::string& path,
                  std::string* error);

/// Reads a snapshot back into a Scenario. CSR validation, symmetry
/// checking, and the weighted degrees run on `ctx`. Returns nullopt
/// and fills *error on I/O failure or any form of corruption.
std::optional<Scenario> LoadSnapshot(const std::string& path,
                                     std::string* error,
                                     const exec::ExecContext& ctx =
                                         exec::ExecContext::Default());

/// Header fields of a snapshot, without materializing the graph.
struct SnapshotInfo {
  std::uint32_t version = 0;
  std::int64_t num_nodes = 0;
  std::int64_t k = 0;
  std::int64_t nnz = 0;
  std::int64_t num_explicit = 0;
  bool has_ground_truth = false;
  std::int64_t file_bytes = 0;
  std::string name;
  std::string spec;
};

/// Reads and validates the header (magic, version, endianness, size
/// bounds) plus the name/spec strings, and checks the file has exactly
/// the size they imply; reads nothing past the strings, so it does not
/// verify the checksum or deserialize the arrays.
std::optional<SnapshotInfo> ReadSnapshotInfo(const std::string& path,
                                             std::string* error);

}  // namespace dataset
}  // namespace linbp

#endif  // LINBP_DATASET_SNAPSHOT_H_
