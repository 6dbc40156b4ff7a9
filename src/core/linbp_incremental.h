// Warm-started incremental LinBP.
//
// Sect. 8 of the paper notes that incrementally maintaining LinBP results
// (general matrix computations) is future work. The linear fixed point
// B = E + M(B) gives a simple effective scheme: after a small change to E
// or to the graph, re-run the sweep loop *warm-started* from the previous
// solution (segmented Gauss-Seidel sweeps by default; see SweepSchedule).
// Because the fixed point moves continuously with the inputs, a localized
// change converges in a handful of sweeps instead of a full cold start
// (measured in bench/ablation_incremental_linbp.cc and property-tested
// against cold solves).
//
// The state solves through a PropagationBackend (src/engine), so warm
// restarts also run out-of-core over a ShardStreamBackend. A streamed
// backend that fails mid-solve (shard corruption appearing between
// sweeps) rolls the state back to the last good solution: updates are
// all-or-nothing.

#ifndef LINBP_CORE_LINBP_INCREMENTAL_H_
#define LINBP_CORE_LINBP_INCREMENTAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/linbp.h"
#include "src/engine/propagation_backend.h"
#include "src/graph/graph.h"
#include "src/la/dense_matrix.h"

namespace linbp {

/// Mutable LinBP computation state supporting warm-started updates.
class LinBpState {
 public:
  /// Solves the initial system (cold start) on an owned in-memory graph.
  LinBpState(Graph graph, DenseMatrix hhat, DenseMatrix explicit_residuals,
             LinBpOptions options = {});

  /// Solves the initial system over an arbitrary backend (e.g. an
  /// engine::ShardStreamBackend for out-of-core warm restarts). A cold
  /// solve that fails (streamed corruption) leaves beliefs() at the last
  /// completed sweep with converged() false and last_error() set.
  /// Edge mutations are unsupported on this path (no owned graph).
  LinBpState(std::shared_ptr<const engine::PropagationBackend> backend,
             DenseMatrix hhat, DenseMatrix explicit_residuals,
             LinBpOptions options = {});

  /// Solves the initial system on a shared graph viewed through an
  /// externally built backend (tests inject failure-capable backends
  /// here). The backend must read `graph`'s adjacency afresh on every
  /// visit: edge mutations replace *graph in place.
  LinBpState(std::shared_ptr<Graph> graph,
             std::shared_ptr<const engine::PropagationBackend> backend,
             DenseMatrix hhat, DenseMatrix explicit_residuals,
             LinBpOptions options = {});

  /// Overwrites the explicit beliefs of `nodes` (row i of `residuals` is
  /// nodes[i]) and re-solves warm-started. Returns the sweeps used. An
  /// invalid batch — an out-of-range node id, a residual row count that
  /// does not match `nodes`, a class count that does not match the
  /// coupling, or a non-finite residual — returns -1 with *error filled
  /// (when non-null) and leaves the state untouched; it never aborts.
  /// Also returns -1 when a streamed backend failed mid-solve — the
  /// state (beliefs AND explicit residuals) is then rolled back, with
  /// the failure in last_error().
  int UpdateExplicitBeliefs(const std::vector<std::int64_t>& nodes,
                            const DenseMatrix& residuals,
                            std::string* error = nullptr);

  /// Movable but not copyable: the graph lives behind a shared pointer
  /// (so the backend's reference survives moves), and a copy would
  /// alias it — AddEdges on the copy would mutate the original's graph
  /// under its cached solution.
  LinBpState(LinBpState&&) = default;
  LinBpState& operator=(LinBpState&&) = default;
  LinBpState(const LinBpState&) = delete;
  LinBpState& operator=(const LinBpState&) = delete;

  /// Adds undirected edges and re-solves warm-started. Returns the sweeps
  /// used. (The edit is one linear merge into the CSR; the belief warm
  /// start is what saves the iterations.) An invalid batch — an
  /// out-of-range endpoint, self-loop, non-finite weight, duplicate within
  /// the batch, or an edge already in the graph — returns -1 with *error
  /// filled (when non-null) and leaves the state untouched; it never
  /// aborts. Also returns -1 on a state without an owned graph (streamed
  /// backends cannot mutate edges) and on a mid-solve stream failure
  /// (graph AND beliefs rolled back).
  int AddEdges(const std::vector<Edge>& edges, std::string* error = nullptr);

  /// Removes undirected edges (weights ignored — an edge is named by its
  /// endpoints) and re-solves warm-started. Same all-or-nothing contract
  /// as AddEdges: the batch is validated up front (endpoints in range,
  /// every edge currently present, no duplicate pair in the batch), an
  /// invalid batch returns -1 + *error with the state untouched, and a
  /// mid-solve backend failure rolls graph and beliefs back.
  int RemoveEdges(const std::vector<Edge>& edges,
                  std::string* error = nullptr);

  /// Overwrites the weights of existing undirected edges and re-solves
  /// warm-started. Same all-or-nothing contract as AddEdges: validated up
  /// front (endpoints in range, every edge currently present, finite new
  /// weights, no duplicate pair in the batch), -1 + *error on an invalid
  /// batch with the state untouched, rollback on a mid-solve failure.
  int UpdateEdgeWeights(const std::vector<Edge>& edges,
                        std::string* error = nullptr);

  /// Current solution (residual beliefs).
  const DenseMatrix& beliefs() const { return beliefs_; }

  /// The owned graph. Only valid for states constructed from a Graph.
  const Graph& graph() const;

  /// True when the state owns a mutable in-memory graph (AddEdges works).
  bool has_graph() const { return graph_ != nullptr; }

  const engine::PropagationBackend& backend() const { return *backend_; }
  bool converged() const { return converged_; }

  /// Failure message of the last solve (empty on success).
  const std::string& last_error() const { return last_error_; }

  /// Convergence diagnostics of the most recent (re-)solve: fitted
  /// rho-hat and predicted sweeps to tolerance. Its rho(M) field is the
  /// cached SpectralRadius() value the solve started with (-1 while the
  /// cache is stale), or the estimate a divergence abort computed for
  /// its message. The state never estimates up front: it ignores
  /// options.estimate_spectral_radius.
  const ConvergenceDiagnostics& diagnostics() const { return diagnostics_; }

  /// rho(M) of the current operator (Lemma 8's convergence test), by
  /// LinBpOperatorSpectralRadius at 500 steps and tolerance 1e-11 on the
  /// state's context: bit-identical to a cold estimate of the current
  /// graph. Computed on the first call after an edge mutation and cached
  /// until the next one; belief updates keep the cache, and a rolled-back
  /// mutation restores it. Returns -1, and leaves the cache stale, when a
  /// streamed backend fails mid-estimate.
  double SpectralRadius();

  /// Sweeps used by the initial cold solve, for comparison.
  int cold_start_iterations() const { return cold_start_iterations_; }

 private:
  // Runs the update equation from the current beliefs_ until convergence.
  // Returns the sweeps used, or -1 on a backend failure (beliefs_ then
  // hold the last completed sweep; last_error_ describes the failure).
  int Solve();

  // The three edge mutations: validates the batch, replaces *graph_ in
  // place with EditedGraph(*graph_, batch, remove) while keeping the old
  // graph (moved out, not copied), re-solves warm-started, and on a
  // backend failure moves the old graph back and restores beliefs and
  // the rho(M) cache.
  int EditEdges(const std::vector<Edge>& edges,
                std::string (*validate)(const Graph&,
                                        const std::vector<Edge>&),
                bool remove, std::string* error);

  // Owned graph for the in-memory construction path (null for
  // backend-constructed states). Held behind a stable pointer so the
  // backend's reference survives moves of the state.
  std::shared_ptr<Graph> graph_;
  std::shared_ptr<const engine::PropagationBackend> backend_;
  DenseMatrix hhat_;
  DenseMatrix explicit_residuals_;
  LinBpOptions options_;
  DenseMatrix beliefs_;
  bool converged_ = false;
  std::string last_error_;
  int cold_start_iterations_ = 0;
  // SpectralRadius()'s cache (-1 = stale). Edge mutations change the
  // operator and mark it stale; warm re-solves pass it to the sweep loop
  // as the divergence abort's rho(M).
  double spectral_estimate_ = -1.0;
  ConvergenceDiagnostics diagnostics_;
};

}  // namespace linbp

#endif  // LINBP_CORE_LINBP_INCREMENTAL_H_
