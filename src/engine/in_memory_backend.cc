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
  // Pins the matrix's cached narrowed copy for the visit.
  std::shared_ptr<const std::vector<float>> values_f32;
  if (precision == Precision::kF32) {
    values_f32 = a.values_f32();
    block.values_f32 = values_f32->data();
  } else {
    block.values = a.values().data();
  }
  visit(block);
  return true;
}

bool InMemoryBackend::MultiplyDense(const DenseMatrix& b,
                                    const exec::ExecContext& ctx,
                                    DenseMatrix* out,
                                    std::string* error) const {
  (void)error;
  *out = graph_->adjacency().MultiplyDense(b, ctx);
  return true;
}

bool InMemoryBackend::MultiplyVector(const std::vector<double>& x,
                                     const exec::ExecContext& ctx,
                                     std::vector<double>* y,
                                     std::string* error) const {
  (void)error;
  *y = graph_->adjacency().MultiplyVector(x, ctx);
  return true;
}

bool InMemoryBackend::MultiplyVectorF32(const std::vector<float>& x,
                                        const exec::ExecContext& ctx,
                                        std::vector<float>* y,
                                        std::string* error) const {
  (void)error;
  *y = graph_->adjacency().MultiplyVectorF32(x, ctx);
  return true;
}

}  // namespace engine
}  // namespace linbp
