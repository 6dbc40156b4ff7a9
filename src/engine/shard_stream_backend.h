// The out-of-core propagation backend: LinBP/FaBP sweeps over a sharded
// snapshot without ever materializing the full CSR.
//
// Each block visit (a fused LinBP sweep, A*B or A*x) walks the
// manifest's row blocks through the double-buffered pipeline of
// src/exec/pipeline.h: while block s is decoded and applied — the shard
// file's bytes deserialized (a compressed shard's row groups in parallel
// over the ExecContext), then the block's CSR against the full belief
// matrix into the block's disjoint output rows, again in parallel — the
// file of block s+1 is read and checksum-verified on a prefetch thread,
// so I/O overlaps compute. (With a serial context there is no prefetch
// thread: each block is read and decoded in one step.) At most TWO
// blocks' CSR bytes are resident at any instant beyond what a cache
// keeps — asserted by the reader's byte accounting. The row-range
// kernels are the same SpmmRows / SpmvRows / LinBpRowsT the in-memory
// path runs, and per-row results do not depend on the block split, so
// streamed products — and therefore streamed LinBP/FaBP beliefs — are
// bit-identical to the in-memory run at every thread count.
//
// Open() makes one streaming pass over all shards to derive the
// O(n)-sized solver inputs (weighted degrees, explicit residual rows,
// ground truth); those are the same asymptotic size as the belief matrix
// every solver holds anyway. Only the O(nnz) CSR stays on disk.
//
// A shard that fails its checksum mid-visit (e.g. corruption appearing
// between sweeps) makes the visit return false with a descriptive
// error; the caller's solver state is left intact and the reader's
// residency drops back to zero.

#ifndef LINBP_ENGINE_SHARD_STREAM_BACKEND_H_
#define LINBP_ENGINE_SHARD_STREAM_BACKEND_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/dataset/shard_stream.h"
#include "src/engine/propagation_backend.h"
#include "src/la/dense_matrix.h"

namespace linbp {
namespace engine {

/// Streams a sharded snapshot's row blocks for every product.
class ShardStreamBackend final : public PropagationBackend {
 public:
  /// Opens `manifest_path`, validates the manifest, and runs the single
  /// derivation pass (streamed, double-buffered on `ctx`). Returns
  /// nullopt and fills *error on any corruption or I/O failure.
  /// `cache_budget_bytes` > 0 keeps decoded blocks in a budgeted LRU
  /// cache across products/sweeps (see dataset::ShardBlockCache): when
  /// the working set fits, sweeps after the first re-read nothing from
  /// disk; 0 (the default) preserves the strict two-blocks-resident
  /// streaming behavior.
  static std::optional<ShardStreamBackend> Open(
      const std::string& manifest_path, std::string* error,
      const exec::ExecContext& ctx = exec::ExecContext::Default(),
      std::int64_t cache_budget_bytes = 0);

  // PropagationBackend:
  std::int64_t num_nodes() const override;
  std::int64_t num_stored_entries() const override;
  const std::vector<double>& weighted_degrees() const override;
  /// One block per shard, through the cache and the double-buffered
  /// pipeline. A block stored in the other precision is converted once
  /// as it is visited (f64-valued shards narrowed for an f32 visit,
  /// compressed f32 shards widened for an f64 one); a block in the
  /// requested precision is handed over as stored, and a unit-weight
  /// block with null value pointers in either precision.
  bool VisitRowBlocks(Precision precision, const exec::ExecContext& ctx,
                      const BlockVisitor& visit,
                      std::string* error) const override;

  // Scenario-level inputs a solver pipeline needs, derived at Open()
  // without adopting a global CSR:
  std::int64_t k() const { return reader_->k(); }
  const std::string& name() const { return reader_->name(); }
  const std::string& spec() const { return reader_->spec(); }
  /// Unscaled k x k residual coupling from the manifest.
  const DenseMatrix& coupling_residual() const { return coupling_residual_; }
  /// n x k explicit residual beliefs (zero rows for unlabeled nodes).
  const DenseMatrix& explicit_residuals() const {
    return explicit_residuals_;
  }
  /// Sorted node ids with explicit beliefs.
  const std::vector<std::int64_t>& explicit_nodes() const {
    return explicit_nodes_;
  }
  /// Ground-truth class per node (-1 unknown); empty when absent.
  const std::vector<int>& ground_truth() const { return ground_truth_; }
  bool HasGroundTruth() const { return !ground_truth_.empty(); }

  /// The underlying reader (residency instrumentation, shard geometry).
  const dataset::ShardStreamReader& reader() const { return *reader_; }
  /// The decoded-block cache; nullptr when opened with budget 0.
  const dataset::ShardBlockCache* cache() const { return cache_.get(); }

 private:
  ShardStreamBackend() = default;

  // Streams every block once through the pipeline and hands it to
  // `apply` (called in shard order on the caller thread). Shared by the
  // products and the Open() derivation pass. Blocks come from the cache
  // when one is configured and hot; misses are fetched on the prefetch
  // thread, decoded on ctx by the caller, and populate it. Without a
  // cache the pass refills blocks and file buffers it owns, so its reads
  // stop allocating once those have held the largest shard.
  bool StreamBlocks(
      const exec::ExecContext& ctx,
      const std::function<void(const dataset::ShardStreamBlock&)>& apply,
      std::string* error) const;

  // shared_ptr keeps the backend movable/copyable while blocks hold the
  // accounting alive; the reader itself is immutable after Open.
  std::shared_ptr<const dataset::ShardStreamReader> reader_;
  std::shared_ptr<dataset::ShardBlockCache> cache_;
  std::vector<double> weighted_degrees_;
  DenseMatrix coupling_residual_;
  DenseMatrix explicit_residuals_;
  std::vector<std::int64_t> explicit_nodes_;
  std::vector<int> ground_truth_;
};

}  // namespace engine
}  // namespace linbp

#endif  // LINBP_ENGINE_SHARD_STREAM_BACKEND_H_
