// Streaming access to sharded snapshots, one row block at a time.
//
// LoadShardedSnapshot (src/dataset/shard.h) materializes the whole CSR;
// this reader is the out-of-core alternative: Open() reads and fully
// validates only the manifest — a directory's `manifest.lbpm` or a
// `.lbps` with its shards inline, through the same head read the bulk
// loader uses — and each ReadBlock(s) call reads, checksum-verifies, and
// decodes exactly ONE shard's row block into a self-contained
// ShardStreamBlock. Blocks release their memory on destruction, so a
// caller that walks the shards with a bounded window (e.g. the
// double-buffered pipeline in src/exec/pipeline.h) keeps the peak
// resident CSR at O(window * max shard) instead of O(nnz). A caller that
// refills the same blocks (see ReadBlock) also stops allocating.
// ReadBlock is two halves a caller may run on different threads:
// FetchBlock (read the shard's bytes, check header and checksum — I/O
// and one fast pass) and DecodeBlock (decode and validate, with the
// shard's row groups fanned out on an ExecContext).
//
// Every ReadBlock re-validates its shard from the bytes on disk — the
// header against the manifest entry, the word-at-a-time payload checksum
// (internal::PayloadChecksum), then the decode: the row-group table is
// checked whole, each group's varint decode enforces the CSR structure
// (column-id bounds and ordering, no self-loops) as it unpacks, and its
// values are checked finite as they are copied, so the bytes are walked
// once; then the explicit-node slice. Corruption that appears mid-stream
// (between sweeps of an iterative solve) surfaces as an error return on
// the sweep that hits it, never as a crash or a silent wrong product.
// What the streaming path does NOT check is cross-shard symmetry of the
// assembled matrix (that requires the mirror entry's shard); symmetric-
// by-construction holds for every manifest the writers produce.
//
// Byte accounting: the reader counts the CSR bytes (row_ptr + col_idx +
// values, if any) of every live block, with a high-water mark, so tests and
// benchmarks can assert the streaming guarantee ("no more than two
// blocks resident") directly instead of trusting the pipeline shape.

#ifndef LINBP_DATASET_SHARD_STREAM_H_
#define LINBP_DATASET_SHARD_STREAM_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/exec/exec_context.h"

namespace linbp {
namespace dataset {

namespace internal {
struct ShardManifest;

/// Shared live/peak CSR byte counters (atomic: blocks are created and
/// destroyed from prefetch threads while others are consumed), plus
/// cumulative stream-I/O totals over the reader's lifetime.
struct ShardByteAccounting {
  std::atomic<std::int64_t> resident{0};
  std::atomic<std::int64_t> peak{0};
  // Cumulative, successful ReadBlock calls only (so the CSR total is
  // exactly the sum of block_csr_bytes over the blocks handed out, and
  // matches the global shard_stream_* registry series one-for-one).
  std::atomic<std::int64_t> blocks_read{0};
  std::atomic<std::int64_t> file_bytes_read{0};
  std::atomic<std::int64_t> csr_bytes_read{0};
  std::atomic<std::int64_t> checksum_retries{0};
  // On-disk payload bytes of the blocks read — the wire size the varint
  // encoding is shrinking, vs csr_bytes_read's decoded size.
  std::atomic<std::int64_t> encoded_bytes_read{0};

  void Add(std::int64_t bytes) {
    const std::int64_t now =
        resident.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    std::int64_t seen = peak.load(std::memory_order_relaxed);
    while (seen < now &&
           !peak.compare_exchange_weak(seen, now,
                                       std::memory_order_relaxed)) {
    }
  }
  void Release(std::int64_t bytes) {
    resident.fetch_sub(bytes, std::memory_order_relaxed);
  }
};
}  // namespace internal

/// One deserialized shard row block. Movable, not copyable; its CSR
/// bytes count against the owning reader's residency until destruction.
class ShardStreamBlock {
 public:
  ShardStreamBlock() = default;
  ~ShardStreamBlock();
  ShardStreamBlock(ShardStreamBlock&& other) noexcept;
  ShardStreamBlock& operator=(ShardStreamBlock&& other) noexcept;
  ShardStreamBlock(const ShardStreamBlock&) = delete;
  ShardStreamBlock& operator=(const ShardStreamBlock&) = delete;

  std::int64_t shard = 0;
  std::int64_t row_begin = 0;
  std::int64_t row_end = 0;
  std::vector<std::int64_t> row_ptr;  // local (rebased to 0), rows + 1
  std::vector<std::int32_t> col_idx;  // GLOBAL column ids
  /// At most one of `values` / `values_f32` is populated: f64 for f64
  /// manifests, f32 for f32 ones, neither for unit-weight ones
  /// (ShardStreamReader::unit_weights()). Keeping the
  /// narrow section narrow is the point — an f32 shard's values really
  /// are half the resident bytes, and the f32 kernels consume them with
  /// no second narrowing pass. f64 consumers widen per block.
  std::vector<double> values;
  std::vector<float> values_f32;
  std::vector<std::int64_t> explicit_nodes;  // global ids, sorted
  std::vector<double> explicit_rows;         // explicit_nodes.size() * k
  std::vector<std::int32_t> ground_truth;    // rows, iff manifest flag

  std::int64_t num_rows() const { return row_end - row_begin; }
  std::int64_t nnz() const {
    return static_cast<std::int64_t>(col_idx.size());
  }
  /// The CSR bytes this block counts against its reader's residency —
  /// what a budgeted cache must account per cached block.
  std::int64_t resident_csr_bytes() const { return counted_bytes_; }

 private:
  friend class ShardStreamReader;
  void ReleaseAccounting();

  std::shared_ptr<internal::ShardByteAccounting> accounting_;
  std::int64_t counted_bytes_ = 0;
};

/// Validated handle on a shard manifest with per-block streaming reads.
/// ReadBlock, FetchBlock and DecodeBlock are const and thread-safe (the
/// accounting is atomic), so a prefetch thread may fetch block s + 1
/// while block s is decoded and consumed.
class ShardStreamReader {
 public:
  ShardStreamReader(ShardStreamReader&&) = default;
  ShardStreamReader& operator=(ShardStreamReader&&) = default;

  /// Reads and fully validates the manifest (size, header, checksum,
  /// shard table, coupling); reads no shard. Returns nullopt and fills
  /// *error on any corruption.
  static std::optional<ShardStreamReader> Open(
      const std::string& manifest_path, std::string* error);

  std::int64_t num_shards() const;
  std::int64_t num_nodes() const;
  std::int64_t k() const;
  std::int64_t nnz() const;
  std::int64_t num_explicit() const;
  bool has_ground_truth() const;
  /// True when blocks carry f32 value sections.
  bool values_f32() const;
  /// True when every weight is 1.0: blocks carry no values at all.
  bool unit_weights() const;
  const std::string& name() const;
  const std::string& spec() const;
  /// The k*k residual coupling matrix from the manifest (row-major).
  const std::vector<double>& coupling() const;

  std::int64_t row_begin(std::int64_t shard) const;
  std::int64_t row_end(std::int64_t shard) const;

  /// CSR bytes (row_ptr + col_idx + values, none for unit weights) of
  /// shard `s`, from the manifest counts.
  std::int64_t block_csr_bytes(std::int64_t shard) const;
  /// Max over shards of block_csr_bytes — the streaming unit size.
  std::int64_t max_block_csr_bytes() const;

  /// Reads and fully validates shard `shard` into *block: FetchBlock,
  /// then DecodeBlock on a serial context. Returns false and fills *error
  /// on I/O failure or any corruption; *block is left empty then (no
  /// rows, no entries, no counted bytes).
  ///
  /// Buffer reuse: *block is refilled in place, not rebuilt. The shard
  /// it held before is released from the residency count first, and its
  /// vectors keep their capacity, so a caller that cycles the same
  /// blocks through a pass allocates nothing once each block has held a
  /// shard at least as large as the next one. `file_bytes`, if given, is
  /// the scratch buffer the shard file is read into, reused the same way
  /// (its contents afterwards are unspecified); nullptr reads into a
  /// temporary. The scratch never belongs to the block and never counts
  /// as resident. Concurrent calls need distinct blocks and buffers.
  bool ReadBlock(std::int64_t shard, ShardStreamBlock* block,
                 std::string* error,
                 std::vector<char>* file_bytes = nullptr) const;

  /// ReadBlock's first half: reads shard `shard`'s bytes (its header and
  /// payload, from its own file or its range of an inline one) into
  /// *file_bytes (capacity reused as in ReadBlock) and checks them
  /// against the manifest — size (a file longer than the manifest says
  /// fails before it is read), header, and payload checksum, with one
  /// re-read after a failed check. Returns false and fills *error otherwise.
  /// Touches no block and no residency count.
  bool FetchBlock(std::int64_t shard, std::vector<char>* file_bytes,
                  std::string* error) const;

  /// ReadBlock's second half: deserializes and validates `file_bytes`,
  /// which a successful FetchBlock(shard) filled, into *block (refilled
  /// and emptied on failure as in ReadBlock). The shard's row groups,
  /// and their value slices, decode as parallel tasks on `ctx`;
  /// the block and any error message are the same at every thread
  /// count. Allocates nothing once the block has held a shard this
  /// large. Call it from a thread that may use ctx's pool: a pool
  /// thread or the pool's owner, not a helper thread started inside a
  /// pool task (that thread would wait on the very batch it runs in).
  bool DecodeBlock(std::int64_t shard, const std::vector<char>& file_bytes,
                   const exec::ExecContext& ctx, ShardStreamBlock* block,
                   std::string* error) const;

  /// CSR bytes of currently live blocks / their lifetime high-water
  /// mark. Blocks keep their count alive past the reader (shared
  /// ownership), so these are exact even with prefetch in flight.
  std::int64_t resident_csr_bytes() const;
  std::int64_t peak_resident_csr_bytes() const;

  /// Cumulative I/O totals over successful ReadBlock calls: blocks
  /// handed out, shard-file bytes read for them, and their CSR bytes
  /// (sum of block_csr_bytes). These equal the global registry's
  /// shard_stream_{blocks_read,bytes_read,csr_bytes}_total deltas for
  /// reads through this reader.
  std::int64_t blocks_read_total() const;
  std::int64_t file_bytes_read_total() const;
  std::int64_t csr_bytes_read_total() const;
  /// On-disk payload bytes of the blocks read.
  std::int64_t encoded_bytes_read_total() const;
  /// Times a shard failed manifest/checksum verification and the one
  /// re-read attempt was taken (transient-read protection; a second
  /// failure surfaces as the error).
  std::int64_t checksum_retries_total() const;

 private:
  ShardStreamReader();

  std::vector<std::string> shard_paths_;  // per shard, ShardPath once
  std::shared_ptr<internal::ShardManifest> manifest_;
  std::shared_ptr<internal::ShardByteAccounting> accounting_;
};

/// Memory-budgeted LRU cache of decoded blocks, keyed by shard index.
/// When a streamed solve's working set fits the budget, sweeps after the
/// first hit the cache and re-read nothing from disk; otherwise LRU
/// eviction bounds cached bytes by the budget. Thread-safe (one mutex:
/// the cache sits on the slow path — a hit replaces a disk read and a
/// full decode, so contention is dwarfed by the work it saves). Cached
/// blocks keep their reader's ShardByteAccounting alive and counted, so
/// residency instrumentation includes what the cache is holding.
class ShardBlockCache {
 public:
  /// `budget_bytes` <= 0 disables caching entirely (every Lookup
  /// misses, every Insert is dropped).
  explicit ShardBlockCache(std::int64_t budget_bytes);

  /// Returns the cached block for `shard` and refreshes its recency, or
  /// nullptr on a miss.
  std::shared_ptr<const ShardStreamBlock> Lookup(std::int64_t shard);

  /// Offers a freshly decoded block. Blocks larger than the whole
  /// budget are not cached; otherwise least-recently-used entries are
  /// evicted until the block fits.
  void Insert(std::int64_t shard,
              std::shared_ptr<const ShardStreamBlock> block);

  std::int64_t budget_bytes() const { return budget_bytes_; }
  std::int64_t cached_bytes() const;
  std::int64_t hits_total() const {
    return hits_.load(std::memory_order_relaxed);
  }
  std::int64_t misses_total() const {
    return misses_.load(std::memory_order_relaxed);
  }
  std::int64_t evictions_total() const {
    return evictions_.load(std::memory_order_relaxed);
  }

 private:
  struct Entry {
    std::shared_ptr<const ShardStreamBlock> block;
    std::uint64_t stamp = 0;  // recency; larger = more recently used
  };

  std::int64_t budget_bytes_ = 0;
  std::atomic<std::int64_t> hits_{0};
  std::atomic<std::int64_t> misses_{0};
  std::atomic<std::int64_t> evictions_{0};
  mutable std::mutex mu_;
  std::int64_t cached_bytes_ = 0;   // guarded by mu_
  std::uint64_t next_stamp_ = 0;    // guarded by mu_
  std::unordered_map<std::int64_t, Entry> entries_;  // guarded by mu_
};

}  // namespace dataset
}  // namespace linbp

#endif  // LINBP_DATASET_SHARD_STREAM_H_
