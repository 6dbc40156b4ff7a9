#include "src/dataset/shard_stream.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/dataset/format_internal.h"
#include "src/obs/obs.h"
#include "src/util/check.h"

namespace linbp {
namespace dataset {

void ShardStreamBlock::ReleaseAccounting() {
  if (accounting_ != nullptr && counted_bytes_ > 0) {
    accounting_->Release(counted_bytes_);
  }
  accounting_ = nullptr;
  counted_bytes_ = 0;
}

ShardStreamBlock::~ShardStreamBlock() { ReleaseAccounting(); }

ShardStreamBlock::ShardStreamBlock(ShardStreamBlock&& other) noexcept
    : shard(other.shard),
      row_begin(other.row_begin),
      row_end(other.row_end),
      row_ptr(std::move(other.row_ptr)),
      col_idx(std::move(other.col_idx)),
      values(std::move(other.values)),
      values_f32(std::move(other.values_f32)),
      explicit_nodes(std::move(other.explicit_nodes)),
      explicit_rows(std::move(other.explicit_rows)),
      ground_truth(std::move(other.ground_truth)),
      accounting_(std::move(other.accounting_)),
      counted_bytes_(other.counted_bytes_) {
  other.accounting_ = nullptr;
  other.counted_bytes_ = 0;
}

ShardStreamBlock& ShardStreamBlock::operator=(
    ShardStreamBlock&& other) noexcept {
  if (this == &other) return *this;
  ReleaseAccounting();
  shard = other.shard;
  row_begin = other.row_begin;
  row_end = other.row_end;
  row_ptr = std::move(other.row_ptr);
  col_idx = std::move(other.col_idx);
  values = std::move(other.values);
  values_f32 = std::move(other.values_f32);
  explicit_nodes = std::move(other.explicit_nodes);
  explicit_rows = std::move(other.explicit_rows);
  ground_truth = std::move(other.ground_truth);
  accounting_ = std::move(other.accounting_);
  counted_bytes_ = other.counted_bytes_;
  other.accounting_ = nullptr;
  other.counted_bytes_ = 0;
  return *this;
}

ShardStreamReader::ShardStreamReader()
    : accounting_(std::make_shared<internal::ShardByteAccounting>()) {}

std::optional<ShardStreamReader> ShardStreamReader::Open(
    const std::string& manifest_path, std::string* error) {
  LINBP_CHECK(error != nullptr);
  auto manifest = std::make_shared<internal::ShardManifest>();
  if (!internal::ReadShardManifest(manifest_path, manifest.get(), error)) {
    return std::nullopt;
  }
  // Same coupling gate the bulk loader applies, so a manifest the
  // streaming path accepts is exactly one LoadShardedSnapshot accepts.
  if (!internal::CheckCouplingResidual(manifest_path, manifest->coupling,
                                       manifest->k, error)) {
    return std::nullopt;
  }
  ShardStreamReader reader;
  for (std::size_t s = 0; s < manifest->entries.size(); ++s) {
    reader.shard_paths_.push_back(
        internal::ShardPath(manifest_path, *manifest, s));
  }
  reader.manifest_ = std::move(manifest);
  return reader;
}

std::int64_t ShardStreamReader::num_shards() const {
  return static_cast<std::int64_t>(manifest_->entries.size());
}
std::int64_t ShardStreamReader::num_nodes() const {
  return manifest_->num_nodes;
}
std::int64_t ShardStreamReader::k() const { return manifest_->k; }
std::int64_t ShardStreamReader::nnz() const { return manifest_->nnz; }
std::int64_t ShardStreamReader::num_explicit() const {
  return manifest_->num_explicit;
}
bool ShardStreamReader::has_ground_truth() const {
  return manifest_->has_ground_truth;
}
bool ShardStreamReader::values_f32() const { return manifest_->values_f32; }
bool ShardStreamReader::unit_weights() const {
  return manifest_->unit_weights;
}
const std::string& ShardStreamReader::name() const {
  return manifest_->name;
}
const std::string& ShardStreamReader::spec() const {
  return manifest_->spec;
}
const std::vector<double>& ShardStreamReader::coupling() const {
  return manifest_->coupling;
}

std::int64_t ShardStreamReader::row_begin(std::int64_t shard) const {
  return manifest_->entries[shard].row_begin;
}
std::int64_t ShardStreamReader::row_end(std::int64_t shard) const {
  return manifest_->entries[shard].row_end;
}

std::int64_t ShardStreamReader::block_csr_bytes(std::int64_t shard) const {
  const internal::ShardManifestEntry& entry = manifest_->entries[shard];
  const std::int64_t rows = entry.row_end - entry.row_begin;
  return (rows + 1) * 8 + entry.nnz * (4 + manifest_->value_bytes());
}

std::int64_t ShardStreamReader::max_block_csr_bytes() const {
  std::int64_t max_bytes = 0;
  for (std::int64_t s = 0; s < num_shards(); ++s) {
    max_bytes = std::max(max_bytes, block_csr_bytes(s));
  }
  return max_bytes;
}

std::int64_t ShardStreamReader::resident_csr_bytes() const {
  return accounting_->resident.load(std::memory_order_relaxed);
}
std::int64_t ShardStreamReader::peak_resident_csr_bytes() const {
  return accounting_->peak.load(std::memory_order_relaxed);
}
std::int64_t ShardStreamReader::blocks_read_total() const {
  return accounting_->blocks_read.load(std::memory_order_relaxed);
}
std::int64_t ShardStreamReader::file_bytes_read_total() const {
  return accounting_->file_bytes_read.load(std::memory_order_relaxed);
}
std::int64_t ShardStreamReader::csr_bytes_read_total() const {
  return accounting_->csr_bytes_read.load(std::memory_order_relaxed);
}
std::int64_t ShardStreamReader::checksum_retries_total() const {
  return accounting_->checksum_retries.load(std::memory_order_relaxed);
}
std::int64_t ShardStreamReader::encoded_bytes_read_total() const {
  return accounting_->encoded_bytes_read.load(std::memory_order_relaxed);
}

bool ShardStreamReader::FetchBlock(std::int64_t shard,
                                   std::vector<char>* file_bytes,
                                   std::string* error) const {
  LINBP_CHECK(file_bytes != nullptr && error != nullptr);
  LINBP_CHECK(shard >= 0 && shard < num_shards());
  const std::string& path = shard_paths_[shard];
  const auto read = [&] {
    obs::ScopedSpan span("stream_read");
    const bool ok = internal::ReadShardBytes(path, *manifest_, shard,
                                             file_bytes, error);
    if (span.active()) {
      span.SetAttr("shard", shard);
      span.SetAttr("bytes", static_cast<std::int64_t>(file_bytes->size()));
    }
    return ok;
  };
  const auto check = [&] {
    obs::ScopedSpan span("stream_checksum");
    internal::ShardFileHeader h;
    return internal::CheckShardAgainstManifest(path, *file_bytes, *manifest_,
                                               shard, &h, error);
  };
  if (!read()) return false;
  if (check()) return true;
  // One re-read before giving up: a mismatch can be a transient partial
  // read (e.g. a writer still flushing); persistent on-disk corruption
  // fails identically on the second pass.
  accounting_->checksum_retries.fetch_add(1, std::memory_order_relaxed);
  LINBP_OBS_COUNTER_ADD("shard_stream_checksum_retries_total", 1);
  return read() && check();
}

bool ShardStreamReader::ReadBlock(std::int64_t shard,
                                  ShardStreamBlock* block, std::string* error,
                                  std::vector<char>* file_bytes) const {
  LINBP_CHECK(block != nullptr);
  std::vector<char> temporary;
  std::vector<char>& bytes = file_bytes != nullptr ? *file_bytes : temporary;
  if (!FetchBlock(shard, &bytes, error)) {
    *block = ShardStreamBlock();
    return false;
  }
  return DecodeBlock(shard, bytes, exec::ExecContext::Serial(), block, error);
}

bool ShardStreamReader::DecodeBlock(std::int64_t shard,
                                    const std::vector<char>& bytes,
                                    const exec::ExecContext& ctx,
                                    ShardStreamBlock* block,
                                    std::string* error) const {
  LINBP_CHECK(block != nullptr && error != nullptr);
  LINBP_CHECK(shard >= 0 && shard < num_shards());
  obs::ScopedSpan span("stream_decode");
  if (span.active()) span.SetAttr("shard", shard);
  // Refilled in place: only the count of the shard the block held is
  // dropped, its vectors keep their capacity. Every failure empties it.
  block->ReleaseAccounting();
  const auto fail = [block] {
    *block = ShardStreamBlock();
    return false;
  };
  const internal::ShardManifest& manifest = *manifest_;
  const internal::ShardManifestEntry& entry = manifest.entries[shard];
  const std::string& path = shard_paths_[shard];
  // FetchBlock proved the header equals the manifest entry and the file
  // has exactly the declared size; anything else is a caller bug.
  LINBP_CHECK(bytes.size() ==
              internal::kHeaderBytes +
                  static_cast<std::size_t>(entry.payload_bytes));
  internal::ShardFileHeader h;
  h.row_begin = entry.row_begin;
  h.row_end = entry.row_end;
  h.nnz = entry.nnz;
  h.num_explicit = entry.num_explicit;

  // The checks above bound every count by the file's real size, so the
  // sections can be sized up front.
  const std::int64_t rows = h.row_end - h.row_begin;
  const std::int64_t k = manifest.k;
  const std::size_t nnz = static_cast<std::size_t>(h.nnz);
  block->shard = shard;
  block->row_begin = h.row_begin;
  block->row_end = h.row_end;
  block->row_ptr.resize(static_cast<std::size_t>(rows + 1));
  block->col_idx.resize(nnz);
  block->values.resize(manifest.value_bytes() == 8 ? nnz : 0);
  block->values_f32.resize(manifest.value_bytes() == 4 ? nnz : 0);
  // The CSR memory is live from here on: count it before decoding so the
  // residency instrumentation never under-reports.
  block->accounting_ = accounting_;
  block->counted_bytes_ = block_csr_bytes(shard);
  accounting_->Add(block->counted_bytes_);

  // The decode enforces the CSR structure as it unpacks and checks each
  // value finite as it is copied: no second pass. Its row groups fan out
  // on ctx.
  const char* payload = bytes.data() + internal::kHeaderBytes;
  std::size_t payload_size = bytes.size() - internal::kHeaderBytes;
  const bool decoded =
      manifest.values_f32
          ? internal::DecodeCompressedCsr(
                path, manifest, h, ctx, &payload, &payload_size,
                block->row_ptr.data(), block->col_idx.data(),
                block->values_f32.data(), error)
          : internal::DecodeCompressedCsr(
                path, manifest, h, ctx, &payload, &payload_size,
                block->row_ptr.data(), block->col_idx.data(),
                manifest.unit_weights ? nullptr : block->values.data(),
                error);
  if (!decoded) return fail();

  internal::Cursor cursor(payload, payload_size);
  if (!manifest.has_ground_truth) block->ground_truth.clear();
  const bool sections_ok =
      cursor.ReadVector(&block->explicit_nodes,
                        static_cast<std::size_t>(h.num_explicit)) &&
      cursor.ReadVector(&block->explicit_rows,
                        static_cast<std::size_t>(h.num_explicit * k)) &&
      (!manifest.has_ground_truth ||
       cursor.ReadVector(&block->ground_truth,
                         static_cast<std::size_t>(rows)));
  if (!sections_ok || cursor.remaining() != 0) {
    *error = path + (sections_ok ? ": trailing bytes after the shard payload"
                                 : ": truncated shard payload");
    return fail();
  }
  for (std::int64_t i = 0; i < h.num_explicit; ++i) {
    const std::int64_t v = block->explicit_nodes[i];
    if (v < h.row_begin || v >= h.row_end ||
        (i > 0 && block->explicit_nodes[i - 1] >= v)) {
      *error = path + ": invalid explicit node list";
      return fail();
    }
    for (std::int64_t c = 0; c < k; ++c) {
      if (!std::isfinite(block->explicit_rows[i * k + c])) {
        *error = path + ": non-finite explicit belief";
        return fail();
      }
    }
  }
  for (const std::int32_t cls : block->ground_truth) {
    if (cls < -1 || cls >= k) {
      *error = path + ": ground-truth class out of range";
      return fail();
    }
  }
  // Count the completed read (cumulative totals are success-only, so
  // they sum consistently with the blocks actually handed out).
  const std::int64_t file_bytes_read = static_cast<std::int64_t>(bytes.size());
  accounting_->blocks_read.fetch_add(1, std::memory_order_relaxed);
  accounting_->file_bytes_read.fetch_add(file_bytes_read,
                                         std::memory_order_relaxed);
  accounting_->csr_bytes_read.fetch_add(block->counted_bytes_,
                                        std::memory_order_relaxed);
  LINBP_OBS_COUNTER_ADD("shard_stream_blocks_read_total", 1);
  LINBP_OBS_COUNTER_ADD("shard_stream_bytes_read_total", file_bytes_read);
  LINBP_OBS_COUNTER_ADD("shard_stream_csr_bytes_total",
                        block->counted_bytes_);
  const std::int64_t encoded =
      file_bytes_read - static_cast<std::int64_t>(internal::kHeaderBytes);
  accounting_->encoded_bytes_read.fetch_add(encoded,
                                            std::memory_order_relaxed);
  LINBP_OBS_COUNTER_ADD("shard_stream_encoded_bytes_total", encoded);
  return true;
}

ShardBlockCache::ShardBlockCache(std::int64_t budget_bytes)
    : budget_bytes_(budget_bytes) {}

std::int64_t ShardBlockCache::cached_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cached_bytes_;
}

std::shared_ptr<const ShardStreamBlock> ShardBlockCache::Lookup(
    std::int64_t shard) {
  if (budget_bytes_ <= 0) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(shard);
  if (it == entries_.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  it->second.stamp = ++next_stamp_;
  hits_.fetch_add(1, std::memory_order_relaxed);
  LINBP_OBS_COUNTER_ADD("shard_stream_cache_hits_total", 1);
  return it->second.block;
}

void ShardBlockCache::Insert(std::int64_t shard,
                             std::shared_ptr<const ShardStreamBlock> block) {
  if (budget_bytes_ <= 0 || block == nullptr) return;
  const std::int64_t bytes = block->resident_csr_bytes();
  // A block larger than the whole budget can never fit; caching it
  // anyway would turn the budget into a no-op.
  if (bytes > budget_bytes_) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto existing = entries_.find(shard);
  if (existing != entries_.end()) {
    // Concurrent readers can decode the same shard; keep the first.
    existing->second.stamp = ++next_stamp_;
    return;
  }
  while (cached_bytes_ + bytes > budget_bytes_ && !entries_.empty()) {
    auto victim = entries_.begin();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->second.stamp < victim->second.stamp) victim = it;
    }
    cached_bytes_ -= victim->second.block->resident_csr_bytes();
    entries_.erase(victim);
    evictions_.fetch_add(1, std::memory_order_relaxed);
    LINBP_OBS_COUNTER_ADD("shard_stream_cache_evictions_total", 1);
  }
  cached_bytes_ += bytes;
  entries_.emplace(shard, Entry{std::move(block), ++next_stamp_});
}

}  // namespace dataset
}  // namespace linbp
