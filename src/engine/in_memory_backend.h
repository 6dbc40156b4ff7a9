// The resident-CSR propagation backend: a zero-cost adapter from a Graph
// to the PropagationBackend interface. The block visitor sees the whole
// CSR as one block, so a solver running on this backend is bit-for-bit
// the solver running on the Graph directly.

#ifndef LINBP_ENGINE_IN_MEMORY_BACKEND_H_
#define LINBP_ENGINE_IN_MEMORY_BACKEND_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/engine/propagation_backend.h"
#include "src/graph/graph.h"

namespace linbp {
namespace engine {

/// Wraps a Graph (not owned; must outlive the backend). Never fails.
class InMemoryBackend final : public PropagationBackend {
 public:
  explicit InMemoryBackend(const Graph* graph);

  std::int64_t num_nodes() const override;
  std::int64_t num_stored_entries() const override;
  const std::vector<double>& weighted_degrees() const override;
  /// One block: the whole CSR (f32 values from the matrix's cached
  /// narrowed copy).
  bool VisitRowBlocks(Precision precision, const exec::ExecContext& ctx,
                      const BlockVisitor& visit,
                      std::string* error) const override;

  const Graph& graph() const { return *graph_; }

 private:
  const Graph* graph_;  // not owned
};

}  // namespace engine
}  // namespace linbp

#endif  // LINBP_ENGINE_IN_MEMORY_BACKEND_H_
