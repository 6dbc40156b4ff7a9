#include "src/engine/in_memory_backend.h"

#include <memory>

#include "src/util/check.h"

namespace linbp {
namespace engine {

InMemoryBackend::InMemoryBackend(const Graph* graph) : graph_(graph) {
  LINBP_CHECK(graph_ != nullptr);
}

std::int64_t InMemoryBackend::num_nodes() const { return graph_->num_nodes(); }

std::int64_t InMemoryBackend::num_stored_entries() const {
  return graph_->num_directed_edges();
}

const std::vector<double>& InMemoryBackend::weighted_degrees() const {
  return graph_->weighted_degrees();
}

bool InMemoryBackend::VisitRowBlocks(Precision precision,
                                     const exec::ExecContext& ctx,
                                     const BlockVisitor& visit,
                                     std::string* error) const {
  (void)ctx;
  (void)error;
  const SparseMatrix& a = graph_->adjacency();
  CsrBlock block;
  block.num_rows = a.rows();
  block.row_ptr = a.row_ptr().data();
  block.col_idx = a.col_idx().data();
  // Pins the matrix's cached narrowed copy for the visit. A unit matrix
  // leaves both value pointers null.
  std::shared_ptr<const std::vector<float>> values_f32;
  if (!a.unit_weights() && precision == Precision::kF32) {
    values_f32 = a.values_f32();
    block.values_f32 = values_f32->data();
  } else if (!a.unit_weights()) {
    block.values = a.values().data();
  }
  visit(block);
  return true;
}

}  // namespace engine
}  // namespace linbp
