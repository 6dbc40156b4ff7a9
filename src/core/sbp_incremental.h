// Incremental maintenance of SBP results (Sect. 6.3 and Appendix C).
//
// SbpState keeps the dynamic graph, geodesic numbers, and beliefs, and
// supports the batch updates of the paper plus their decremental duals:
//   * AddExplicitBeliefs — Algorithm 3 (new labeled nodes),
//   * AddEdges           — Algorithm 4 (new edges),
//   * RemoveEdges        — edge deletions (geodesics recomputed, newly
//                          unreachable nodes zeroed),
//   * UpdateEdgeWeights  — weight changes (geodesics unchanged).
// All touch only the affected region of the graph. The updates implement
// a corrected level-ordered worklist: the paper's literal Datalog can
// re-target nodes with equal geodesic numbers; we
// instead (1) maintain geodesic numbers, (2) seed the dirty set from
// geodesic changes plus level-crossing edges that appeared, vanished, or
// changed weight, and (3) recompute beliefs level by level. Results are
// always identical to a from-scratch SBP run (property-tested).
//
// Every update validates its whole batch up front and returns -1 with an
// error description on bad input (out-of-range node, missing/duplicate
// edge, non-finite value), leaving the state untouched — states fed from
// an update stream survive hostile input without aborting.

#ifndef LINBP_CORE_SBP_INCREMENTAL_H_
#define LINBP_CORE_SBP_INCREMENTAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/sbp.h"
#include "src/graph/graph.h"
#include "src/la/dense_matrix.h"

namespace linbp {

/// Mutable SBP computation state supporting incremental updates.
class SbpState {
 public:
  /// Empty state over `num_nodes` isolated nodes with coupling `hhat`.
  /// Belief recomputation of large dirty levels fans out on `exec`
  /// (per-node ownership: results are bit-identical across thread counts).
  SbpState(std::int64_t num_nodes, DenseMatrix hhat,
           exec::ExecContext exec = exec::ExecContext::Default());

  /// Bootstraps from a full graph and initial explicit beliefs
  /// (Algorithm 2: the initial from-scratch assignment).
  static SbpState FromGraph(const Graph& graph, DenseMatrix hhat,
                            const DenseMatrix& explicit_residuals,
                            const std::vector<std::int64_t>& explicit_nodes,
                            exec::ExecContext exec =
                                exec::ExecContext::Default());

  /// Algorithm 3: adds (or overwrites) explicit beliefs for `nodes`; row i
  /// of `residuals` is the belief of nodes[i]. Updates all affected nodes
  /// and returns the number recomputed. An invalid batch — an
  /// out-of-range node id, a row/class count mismatch, or a non-finite
  /// residual — returns -1 with *error filled (when non-null) and leaves
  /// the state untouched; it never aborts.
  int AddExplicitBeliefs(const std::vector<std::int64_t>& nodes,
                         const DenseMatrix& residuals,
                         std::string* error = nullptr);

  /// Algorithm 4: adds undirected edges and updates all affected nodes;
  /// returns the number recomputed. An invalid batch — an out-of-range
  /// endpoint, self-loop, non-finite weight, duplicate within the batch,
  /// or an edge already present — returns -1 with *error filled (when
  /// non-null) and leaves the state untouched; it never aborts.
  int AddEdges(const std::vector<Edge>& edges, std::string* error = nullptr);

  /// Removes undirected edges (weights ignored — an edge is named by its
  /// endpoints) and updates all affected nodes; returns the number
  /// recomputed. Geodesic numbers are recomputed and nodes that become
  /// unreachable from every explicit node have their beliefs zeroed, the
  /// from-scratch convention. An invalid batch — an out-of-range
  /// endpoint, a missing edge, or a duplicate pair within the batch —
  /// returns -1 with *error filled (when non-null) and leaves the state
  /// untouched.
  int RemoveEdges(const std::vector<Edge>& edges,
                  std::string* error = nullptr);

  /// Overwrites the weights of existing undirected edges and updates all
  /// affected nodes; returns the number recomputed. Geodesic numbers are
  /// unchanged (SBP shortest paths are hop counts). An invalid batch —
  /// an out-of-range endpoint, a missing edge, a non-finite weight, or a
  /// duplicate pair within the batch — returns -1 with *error filled
  /// (when non-null) and leaves the state untouched.
  int UpdateEdgeWeights(const std::vector<Edge>& edges,
                        std::string* error = nullptr);

  /// Current residual beliefs (n x k).
  const DenseMatrix& beliefs() const { return beliefs_; }

  /// Current geodesic numbers (kUnreachable for unlabeled components).
  const std::vector<std::int64_t>& geodesic() const { return geodesic_; }

  /// Nodes currently carrying explicit beliefs (unsorted).
  const std::vector<std::int64_t>& explicit_nodes() const {
    return explicit_nodes_;
  }

  std::int64_t num_nodes() const {
    return static_cast<std::int64_t>(adjacency_.size());
  }
  std::int64_t k() const { return hhat_.rows(); }

  /// Statistics: nodes whose beliefs were recomputed by the last update.
  std::int64_t last_update_recomputed_nodes() const {
    return last_update_recomputed_nodes_;
  }

 private:
  struct Neighbor {
    std::int64_t node;
    double weight;
  };

  // linbp::ValidateEdgeBatch against the adjacency lists:
  // `require_present` demands the edge exists (removal/reweight) while
  // its negation demands it does not (addition); `check_weights` demands
  // finite weights. Returns empty for a valid batch, else the first
  // problem.
  std::string ValidateEdgeBatch(const std::vector<Edge>& edges,
                                bool require_present,
                                bool check_weights) const;

  // Recomputes beliefs of `t` from its current parents (geodesic g-1).
  void RecomputeBeliefs(std::int64_t t);

  // Propagates belief recomputation level by level starting from `dirty`
  // (nodes whose beliefs must be recomputed; explicit g=0 nodes excluded).
  void PropagateDirty(std::vector<std::int64_t> dirty);

  std::vector<std::vector<Neighbor>> adjacency_;
  DenseMatrix hhat_;
  DenseMatrix beliefs_;
  std::vector<std::int64_t> geodesic_;
  std::vector<std::int64_t> explicit_nodes_;
  std::vector<bool> is_explicit_;
  std::int64_t last_update_recomputed_nodes_ = 0;
  exec::ExecContext exec_;
};

}  // namespace linbp

#endif  // LINBP_CORE_SBP_INCREMENTAL_H_
