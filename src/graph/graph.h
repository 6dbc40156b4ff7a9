// Undirected weighted graphs.
//
// A Graph is its symmetric CSR adjacency matrix plus the per-node weighted
// degrees; the CSR is the only adjacency store. Per Sect. 5.2 of the
// paper, the degree of a node in a weighted graph is the sum of the
// *squared* weights of its incident edges (the echo travels across each
// edge twice). Edge edits (EditedGraph) merge a batch into the CSR rows.
// A graph whose weights are all 1 (every generated graph) keeps its CSR
// in SparseMatrix's unit form, with no value array; its weighted degrees
// are then its plain degrees.

#ifndef LINBP_GRAPH_GRAPH_H_
#define LINBP_GRAPH_GRAPH_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/la/sparse_matrix.h"

namespace linbp {

/// One undirected weighted edge.
struct Edge {
  std::int64_t u = 0;
  std::int64_t v = 0;
  double weight = 1.0;
};

/// Immutable undirected weighted graph: a symmetric CSR adjacency matrix
/// and its weighted degrees.
class Graph {
 public:
  /// Creates an empty graph with no nodes.
  Graph() : adjacency_(0, 0) {}

  /// Builds a graph on `num_nodes` nodes from undirected edges. Each edge
  /// {u, v, w} contributes both A(u,v) = w and A(v,u) = w. Self-loops and
  /// duplicate edges are rejected (the paper's graphs have neither).
  Graph(std::int64_t num_nodes, const std::vector<Edge>& edges);

  /// Adopts an already-symmetric CSR adjacency matrix (the snapshot
  /// deserialization path: the matrix comes from SparseMatrix::FromCsr and
  /// is kept as is; only the weighted degrees are computed). Aborts if
  /// the matrix is not square, has diagonal entries, or is not symmetric
  /// in pattern and values. The symmetry sweep and the degree computation
  /// are one parallel pass on `ctx`.
  static Graph FromAdjacency(SparseMatrix adjacency,
                             const exec::ExecContext& ctx =
                                 exec::ExecContext::Default());

  /// FromAdjacency without the symmetry/self-loop checks, for callers that
  /// have ALREADY verified both (the snapshot loader's error-returning
  /// validation pass, EditedGraph's merge): the pass computes the degrees
  /// only. Adopting an unverified matrix is undefined behavior.
  static Graph FromValidatedAdjacency(SparseMatrix adjacency,
                                      const exec::ExecContext& ctx =
                                          exec::ExecContext::Default());

  std::int64_t num_nodes() const { return adjacency_.rows(); }

  /// Number of stored adjacency entries (2x the undirected edge count, the
  /// paper's convention in Fig. 6a).
  std::int64_t num_directed_edges() const { return adjacency_.NumNonZeros(); }

  /// Number of undirected edges.
  std::int64_t num_undirected_edges() const {
    return adjacency_.NumNonZeros() / 2;
  }

  /// Symmetric weighted adjacency matrix A.
  const SparseMatrix& adjacency() const { return adjacency_; }

  /// Weighted degrees d_s = sum over neighbors of w_{s,t}^2 (Sect. 5.2).
  /// For unweighted graphs this equals the ordinary degree (a unit-form
  /// adjacency takes it from the row counts, the same bits).
  const std::vector<double>& weighted_degrees() const {
    return weighted_degrees_;
  }

  /// Number of neighbors of `node`.
  std::int64_t Degree(std::int64_t node) const;

  /// The undirected edge list, read off the CSR's upper triangle: u < v,
  /// sorted by (u, v), weight 1.0 on every edge of a unit-form graph.
  /// Materializes O(m) on every call, so callers hoist it out of loops.
  std::vector<Edge> edges() const;

 private:
  static Graph FromAdjacencyImpl(SparseMatrix adjacency,
                                 const exec::ExecContext& ctx, bool validate);

  SparseMatrix adjacency_;
  std::vector<double> weighted_degrees_;
};

/// `graph` with a validated edge batch applied, as one linear merge of the
/// batch's sorted directed entries into the CSR rows. With `remove` false
/// each edge is an upsert: it adds a new edge (a batch that passed
/// ValidateNewEdgeBatch) or overwrites a stored weight (one that passed
/// ValidateEdgeReweightBatch); with `remove` true the named edges are
/// dropped (ValidateEdgeRemovalBatch). The result equals Graph(n, edited
/// edge list) bit for bit: weights are copied, never summed, so -0.0 and
/// stored zeros survive, and the form matches too. A unit graph stays
/// unit under removals and under adds or reweights to weight 1; a weight
/// other than 1 brings in the value array, and the edit that removes or
/// reweights to 1 the last such weight returns the graph to the unit
/// form. Degrees are recomputed on `ctx`. An unvalidated batch is
/// undefined behavior.
Graph EditedGraph(const Graph& graph, const std::vector<Edge>& batch,
                  bool remove, const exec::ExecContext& ctx =
                                   exec::ExecContext::Default());

/// For a structurally symmetric CSR matrix, returns for every stored entry
/// e = (s -> t) the index of its mirror entry (t -> s). Message-passing BP
/// and the directed edge matrix of Appendix G both need this mapping.
std::vector<std::int64_t> ReverseEdgeIndex(const SparseMatrix& adjacency);

/// Validates an edge batch against a graph on `num_nodes` nodes whose
/// stored undirected pairs `stored(u, v)` reports (called with u < v):
/// endpoints in range, no self-loops, finite weights when
/// `check_weights`, every edge stored when `require_present` and none
/// stored otherwise, and no duplicate undirected pair within the batch.
/// Returns an empty string for a valid batch, else a description of the
/// first problem. This is the error-returning complement of the
/// CHECK-aborting Graph constructor, for the incremental solvers' edge
/// streams arriving from user input.
std::string ValidateEdgeBatch(
    std::int64_t num_nodes, const std::vector<Edge>& edges,
    bool require_present, bool check_weights,
    const std::function<bool(std::int64_t u, std::int64_t v)>& stored);

/// Validates a batch of edges to be ADDED to `graph`: endpoints in
/// range, no self-loops, finite weights, no duplicate undirected pair
/// within the batch, and no edge already stored in the adjacency (the
/// stored pattern decides — a zero weight is still a stored entry).
/// Returns an empty string for a valid batch, else a description of the
/// first problem.
std::string ValidateNewEdgeBatch(const Graph& graph,
                                 const std::vector<Edge>& edges);

/// Validates a batch of edges to be REMOVED from `graph`: endpoints in
/// range, every named undirected edge currently stored in the adjacency,
/// and no duplicate pair within the batch. Weights are ignored — removal
/// names an edge, it does not assert its weight. Returns an empty string
/// for a valid batch, else a description of the first problem.
std::string ValidateEdgeRemovalBatch(const Graph& graph,
                                     const std::vector<Edge>& edges);

/// Validates a batch of edge REWEIGHTS on `graph`: endpoints in range,
/// every named undirected edge currently stored, finite new weights, and
/// no duplicate pair within the batch. Returns an empty string for a
/// valid batch, else a description of the first problem.
std::string ValidateEdgeReweightBatch(const Graph& graph,
                                      const std::vector<Edge>& edges);

}  // namespace linbp

#endif  // LINBP_GRAPH_GRAPH_H_
