#include "src/engine/shard_stream_backend.h"

#include <algorithm>
#include <utility>

#include "src/exec/pipeline.h"
#include "src/obs/obs.h"
#include "src/util/check.h"

namespace linbp {
namespace engine {

bool ShardStreamBackend::StreamBlocks(
    const exec::ExecContext& ctx,
    const std::function<void(const dataset::ShardStreamBlock&)>& apply,
    std::string* error) const {
  const dataset::ShardStreamReader& reader = *reader_;
  dataset::ShardBlockCache* cache = cache_.get();
  // Prefetch overlap needs a second runnable lane; with a serial context
  // everything runs inline (results are identical either way).
  const bool overlap = ctx.threads() > 1;
  obs::ScopedSpan span("shard_stream_pass");
  if (span.active()) {
    span.SetAttr("shards", reader.num_shards());
    span.SetAttr("overlap", static_cast<std::int64_t>(overlap ? 1 : 0));
    span.SetAttr("unit_weights",
                 static_cast<std::int64_t>(reader.unit_weights() ? 1 : 0));
  }
  // With overlap, the prefetch thread only fetches shard s + 1 (read,
  // header check, checksum) into its pipeline slot's file buffer while
  // the consumer decodes shard s on ctx's lanes and applies it. The
  // decode must stay on the consumer to fan out: the consumer is the
  // pool's caller or a pool task (where nested pool calls run inline),
  // while a prefetch thread started inside a pool task would wait
  // forever on that task's batch. Slot s % 2's previous item (s - 2)
  // has been consumed by the time s is fetched, so two buffers serve
  // the pass, and an uncached pass decodes into one recycled block.
  // Without overlap each shard is fetched and decoded in one step, so
  // one buffer serves the pass and is still in cache when refilled
  // (alternating two cost a serial pass about a quarter more); shard
  // s + 1 is then decoded before shard s is applied, so two recycled
  // blocks alternate. Uncached passes stop allocating once the scratch
  // has held the largest shard; cached ones decode misses into fresh
  // blocks the cache keeps. The pass owns its scratch, so residency
  // drops to zero when it ends, failed or not.
  std::vector<char> file_bytes[2];
  dataset::ShardStreamBlock recycled[2];
  const auto buffer = [&](std::int64_t s) -> std::vector<char>& {
    return file_bytes[overlap ? s % 2 : 0];
  };
  // An item is a decoded block — cached (a hit costs a refcount bump, not
  // a read) or recycled — or, with overlap, null for a fetched shard that
  // the consumer still has to decode.
  using Item = std::shared_ptr<const dataset::ShardStreamBlock>;
  const auto decode = [&](std::int64_t s, Item* item, std::string* err) {
    if (cache == nullptr) {
      dataset::ShardStreamBlock* block = &recycled[overlap ? 0 : s % 2];
      if (!reader.DecodeBlock(s, buffer(s), ctx, block, err)) return false;
      *item = Item(Item(), block);
      return true;
    }
    auto block = std::make_shared<dataset::ShardStreamBlock>();
    if (!reader.DecodeBlock(s, buffer(s), ctx, block.get(), err)) {
      return false;
    }
    cache->Insert(s, block);
    *item = std::move(block);
    return true;
  };
  return exec::RunDoubleBuffered<Item>(
      reader.num_shards(), overlap,
      [&](std::int64_t s, Item* item, std::string* err) {
        if (cache != nullptr) {
          *item = cache->Lookup(s);
          if (*item != nullptr) return true;
        }
        if (!reader.FetchBlock(s, &buffer(s), err)) return false;
        return overlap || decode(s, item, err);
      },
      [&](std::int64_t s, Item* item, std::string* err) {
        if (*item == nullptr && !decode(s, item, err)) return false;
        apply(**item);
        return true;
      },
      error);
}

std::optional<ShardStreamBackend> ShardStreamBackend::Open(
    const std::string& manifest_path, std::string* error,
    const exec::ExecContext& ctx, std::int64_t cache_budget_bytes) {
  LINBP_CHECK(error != nullptr);
  auto reader = dataset::ShardStreamReader::Open(manifest_path, error);
  if (!reader.has_value()) return std::nullopt;

  ShardStreamBackend backend;
  backend.reader_ = std::make_shared<const dataset::ShardStreamReader>(
      std::move(*reader));
  if (cache_budget_bytes > 0) {
    backend.cache_ =
        std::make_shared<dataset::ShardBlockCache>(cache_budget_bytes);
  }
  const std::int64_t n = backend.reader_->num_nodes();
  const std::int64_t k = backend.reader_->k();

  // The reader's Open already ran the shared coupling gate
  // (internal::CheckCouplingResidual), so this is a plain copy.
  backend.coupling_residual_ = DenseMatrix(k, k);
  std::copy(backend.reader_->coupling().begin(),
            backend.reader_->coupling().end(),
            backend.coupling_residual_.mutable_data().begin());

  // One streamed pass derives every O(n)-sized solver input. Blocks
  // arrive in shard order, so the explicit list stays sorted.
  backend.weighted_degrees_.assign(n, 0.0);
  backend.explicit_residuals_ = DenseMatrix(n, k);
  backend.explicit_nodes_.reserve(backend.reader_->num_explicit());
  if (backend.reader_->has_ground_truth()) {
    backend.ground_truth_.assign(n, -1);
  }
  const bool unit = backend.reader_->unit_weights();
  const bool f32 = backend.reader_->values_f32();
  const bool streamed = backend.StreamBlocks(
      ctx,
      [&](const dataset::ShardStreamBlock& block) {
        // Same per-row summation order as SquaredRowSums, so the echo
        // term matches the in-memory degrees bit-for-bit. f32-valued
        // shards widen per entry — exactly what an in-memory load of
        // the same shards holds, so identity is preserved there too.
        // Unit-weight degrees are the row counts, as in memory.
        for (std::int64_t r = 0; r < block.num_rows(); ++r) {
          double degree = 0.0;
          if (unit) {
            degree = static_cast<double>(block.row_ptr[r + 1] -
                                         block.row_ptr[r]);
          } else {
            for (std::int64_t e = block.row_ptr[r];
                 e < block.row_ptr[r + 1]; ++e) {
              const double v = f32 ? static_cast<double>(block.values_f32[e])
                                   : block.values[e];
              degree += v * v;
            }
          }
          backend.weighted_degrees_[block.row_begin + r] = degree;
        }
        for (std::size_t i = 0; i < block.explicit_nodes.size(); ++i) {
          const std::int64_t v = block.explicit_nodes[i];
          backend.explicit_nodes_.push_back(v);
          for (std::int64_t c = 0; c < k; ++c) {
            backend.explicit_residuals_.At(v, c) =
                block.explicit_rows[i * k + c];
          }
        }
        for (std::size_t r = 0; r < block.ground_truth.size(); ++r) {
          backend.ground_truth_[block.row_begin + r] =
              block.ground_truth[r];
        }
      },
      error);
  if (!streamed) return std::nullopt;
  return backend;
}

std::int64_t ShardStreamBackend::num_nodes() const {
  return reader_->num_nodes();
}

std::int64_t ShardStreamBackend::num_stored_entries() const {
  return reader_->nnz();
}

const std::vector<double>& ShardStreamBackend::weighted_degrees() const {
  return weighted_degrees_;
}

bool ShardStreamBackend::VisitRowBlocks(Precision precision,
                                        const exec::ExecContext& ctx,
                                        const BlockVisitor& visit,
                                        std::string* error) const {
  // A block stored in the other precision is converted once, into a
  // buffer reused across the pass's blocks. Unit-weight blocks have no
  // values: both pointers stay null in either precision.
  std::vector<double> widened;
  std::vector<float> narrowed;
  const bool unit = reader_->unit_weights();
  const bool stored_f32 = reader_->values_f32();
  return StreamBlocks(
      ctx,
      [&](const dataset::ShardStreamBlock& block) {
        CsrBlock view;
        view.row_begin = block.row_begin;
        view.num_rows = block.num_rows();
        view.row_ptr = block.row_ptr.data();
        view.col_idx = block.col_idx.data();
        if (!unit && precision == Precision::kF32) {
          if (!stored_f32) {
            narrowed.assign(block.values.begin(), block.values.end());
          }
          view.values_f32 =
              stored_f32 ? block.values_f32.data() : narrowed.data();
        } else if (!unit) {
          if (stored_f32) {
            widened.assign(block.values_f32.begin(), block.values_f32.end());
          }
          view.values = stored_f32 ? widened.data() : block.values.data();
        }
        visit(view);
      },
      error);
}

}  // namespace engine
}  // namespace linbp
