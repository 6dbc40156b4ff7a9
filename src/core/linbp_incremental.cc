#include "src/core/linbp_incremental.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "src/engine/in_memory_backend.h"
#include "src/la/kron_ops.h"
#include "src/obs/obs.h"
#include "src/util/check.h"

namespace linbp {

namespace {

// Every `return -1` on a validation path is a rejection; every undo of
// state after a mid-solve backend failure is a rollback.
void RecordRejection() { LINBP_OBS_COUNTER_ADD("linbp_state_rejections_total", 1); }
void RecordRollback() { LINBP_OBS_COUNTER_ADD("linbp_state_rollbacks_total", 1); }

}  // namespace

LinBpState::LinBpState(Graph graph, DenseMatrix hhat,
                       DenseMatrix explicit_residuals, LinBpOptions options)
    : graph_(std::make_shared<Graph>(std::move(graph))),
      backend_(std::make_shared<engine::InMemoryBackend>(graph_.get())),
      hhat_(std::move(hhat)),
      explicit_residuals_(std::move(explicit_residuals)),
      options_(options),
      beliefs_(explicit_residuals_) {
  LINBP_CHECK(hhat_.rows() == hhat_.cols());
  LINBP_CHECK(explicit_residuals_.rows() == graph_->num_nodes());
  LINBP_CHECK(explicit_residuals_.cols() == hhat_.rows());
  LINBP_CHECK_MSG(options_.variant != LinBpVariant::kLinBpExact,
                  "warm-started updates support kLinBp / kLinBpStar");
  cold_start_iterations_ = Solve();
}

LinBpState::LinBpState(
    std::shared_ptr<const engine::PropagationBackend> backend,
    DenseMatrix hhat, DenseMatrix explicit_residuals, LinBpOptions options)
    : backend_(std::move(backend)),
      hhat_(std::move(hhat)),
      explicit_residuals_(std::move(explicit_residuals)),
      options_(options),
      beliefs_(explicit_residuals_) {
  LINBP_CHECK(backend_ != nullptr);
  LINBP_CHECK(hhat_.rows() == hhat_.cols());
  LINBP_CHECK(explicit_residuals_.rows() == backend_->num_nodes());
  LINBP_CHECK(explicit_residuals_.cols() == hhat_.rows());
  LINBP_CHECK_MSG(options_.variant != LinBpVariant::kLinBpExact,
                  "warm-started updates support kLinBp / kLinBpStar");
  cold_start_iterations_ = Solve();
}

LinBpState::LinBpState(
    std::shared_ptr<Graph> graph,
    std::shared_ptr<const engine::PropagationBackend> backend,
    DenseMatrix hhat, DenseMatrix explicit_residuals, LinBpOptions options)
    : graph_(std::move(graph)),
      backend_(std::move(backend)),
      hhat_(std::move(hhat)),
      explicit_residuals_(std::move(explicit_residuals)),
      options_(options),
      beliefs_(explicit_residuals_) {
  LINBP_CHECK(graph_ != nullptr);
  LINBP_CHECK(backend_ != nullptr);
  LINBP_CHECK(backend_->num_nodes() == graph_->num_nodes());
  LINBP_CHECK(hhat_.rows() == hhat_.cols());
  LINBP_CHECK(explicit_residuals_.rows() == graph_->num_nodes());
  LINBP_CHECK(explicit_residuals_.cols() == hhat_.rows());
  LINBP_CHECK_MSG(options_.variant != LinBpVariant::kLinBpExact,
                  "warm-started updates support kLinBp / kLinBpStar");
  cold_start_iterations_ = Solve();
}

const Graph& LinBpState::graph() const {
  LINBP_CHECK_MSG(graph_ != nullptr,
                  "state was constructed from a backend without a graph");
  return *graph_;
}

int LinBpState::Solve() {
  const DenseMatrix hhat2 = hhat_.Multiply(hhat_);
  converged_ = false;
  last_error_.clear();
  // The cached estimate travels as the hint, so the loop runs power
  // iteration once per operator (when requested, or for a divergence
  // abort's message), not on every warm re-solve.
  const core_internal::SweepLoopResult loop = core_internal::RunSweepLoop(
      *backend_, hhat_,
      options_.variant == LinBpVariant::kLinBp ? &hhat2 : nullptr,
      explicit_residuals_, options_, spectral_estimate_,
      core_internal::SweepFamily::kLinBp, &beliefs_);
  diagnostics_ = loop.diagnostics;
  if (loop.diagnostics.spectral_radius_estimate >= 0.0) {
    spectral_estimate_ = loop.diagnostics.spectral_radius_estimate;
  }
  converged_ = loop.converged;
  if (loop.failed) {
    last_error_ = loop.error;
    return -1;  // beliefs_ hold the last completed sweep; callers roll back
  }
  return loop.iterations;
}

int LinBpState::UpdateExplicitBeliefs(const std::vector<std::int64_t>& nodes,
                                      const DenseMatrix& residuals,
                                      std::string* error) {
  // Validate up front with error returns, not CHECKs: node ids and
  // residual rows arrive straight off an update stream, and a hostile
  // line must never abort the server or touch the state.
  if (static_cast<std::int64_t>(nodes.size()) != residuals.rows()) {
    if (error != nullptr) {
      *error = "belief update names " + std::to_string(nodes.size()) +
               " nodes but carries " + std::to_string(residuals.rows()) +
               " residual rows";
    }
    RecordRejection();
    return -1;
  }
  if (residuals.cols() != hhat_.rows()) {
    if (error != nullptr) {
      *error = "belief update has " + std::to_string(residuals.cols()) +
               " classes but the coupling has " +
               std::to_string(hhat_.rows());
    }
    RecordRejection();
    return -1;
  }
  const std::int64_t n = backend_->num_nodes();
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i] < 0 || nodes[i] >= n) {
      if (error != nullptr) {
        *error = "belief update names node " + std::to_string(nodes[i]) +
                 " outside [0, " + std::to_string(n) + ")";
      }
      RecordRejection();
      return -1;
    }
    for (std::int64_t c = 0; c < residuals.cols(); ++c) {
      if (!std::isfinite(residuals.At(static_cast<std::int64_t>(i), c))) {
        if (error != nullptr) {
          *error = "belief update for node " + std::to_string(nodes[i]) +
                   " has a non-finite residual";
        }
        RecordRejection();
        return -1;
      }
    }
  }
  // Snapshot for rollback: a streamed backend can fail several sweeps in
  // (shard corruption appearing mid-stream), and a half-advanced warm
  // start would poison every later update. Updates are all-or-nothing.
  const DenseMatrix saved_beliefs = beliefs_;
  DenseMatrix saved_rows(static_cast<std::int64_t>(nodes.size()),
                         hhat_.rows());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (std::int64_t c = 0; c < hhat_.rows(); ++c) {
      saved_rows.At(static_cast<std::int64_t>(i), c) =
          explicit_residuals_.At(nodes[i], c);
      explicit_residuals_.At(nodes[i], c) =
          residuals.At(static_cast<std::int64_t>(i), c);
    }
  }
  const int sweeps = Solve();
  if (sweeps < 0) {
    // Reverse order: with a duplicate node in the batch, the first
    // slot saved the true original and a later slot saved an already-
    // overwritten row — undoing back to front lands on the original.
    for (std::size_t i = nodes.size(); i-- > 0;) {
      for (std::int64_t c = 0; c < hhat_.rows(); ++c) {
        explicit_residuals_.At(nodes[i], c) =
            saved_rows.At(static_cast<std::int64_t>(i), c);
      }
    }
    beliefs_ = saved_beliefs;
    RecordRollback();
    if (error != nullptr) *error = last_error_;
  }
  return sweeps;
}

bool LinBpState::RequireMutableGraph(std::string* error) const {
  if (graph_ != nullptr) return true;
  if (error != nullptr) {
    *error = "backend does not own a mutable graph (streamed states "
             "cannot mutate edges)";
  }
  RecordRejection();
  return false;
}

int LinBpState::RebuildGraphAndResolve(std::vector<Edge> new_edges,
                                       std::string* error) {
  // Snapshot for rollback: a streamed backend can fail several sweeps
  // in, and the contract is all-or-nothing — on failure the caller must
  // see the old graph AND the old beliefs, not the new graph with a
  // half-advanced warm start.
  Graph saved_graph = *graph_;
  const DenseMatrix saved_beliefs = beliefs_;
  // Assign in place: the backend holds a pointer to *graph_.
  *graph_ = Graph(graph_->num_nodes(), new_edges);
  // The mutation changed the operator, so any cached rho(M) is stale.
  // (On rollback this is merely conservative: the next solve re-fits.)
  spectral_estimate_ = -1.0;
  const int sweeps = Solve();
  if (sweeps < 0) {
    *graph_ = std::move(saved_graph);
    beliefs_ = saved_beliefs;
    RecordRollback();
    if (error != nullptr) *error = last_error_;
  }
  return sweeps;
}

int LinBpState::AddEdges(const std::vector<Edge>& edges,
                         std::string* error) {
  if (!RequireMutableGraph(error)) return -1;
  // Validate the whole batch up front with error returns — the Graph
  // constructor CHECK-aborts on these, which is the wrong failure mode
  // for edges arriving from user input or an update stream. The state is
  // only touched once every edge has passed.
  const std::string problem = ValidateNewEdgeBatch(*graph_, edges);
  if (!problem.empty()) {
    if (error != nullptr) *error = problem;
    RecordRejection();
    return -1;
  }
  std::vector<Edge> combined = graph_->edges();
  combined.insert(combined.end(), edges.begin(), edges.end());
  return RebuildGraphAndResolve(std::move(combined), error);
}

int LinBpState::RemoveEdges(const std::vector<Edge>& edges,
                            std::string* error) {
  if (!RequireMutableGraph(error)) return -1;
  const std::string problem = ValidateEdgeRemovalBatch(*graph_, edges);
  if (!problem.empty()) {
    if (error != nullptr) *error = problem;
    RecordRejection();
    return -1;
  }
  std::vector<std::pair<std::int64_t, std::int64_t>> doomed;
  doomed.reserve(edges.size());
  for (const Edge& e : edges) {
    doomed.emplace_back(std::min(e.u, e.v), std::max(e.u, e.v));
  }
  std::sort(doomed.begin(), doomed.end());
  std::vector<Edge> kept;
  kept.reserve(graph_->edges().size() - edges.size());
  for (const Edge& e : graph_->edges()) {
    if (!std::binary_search(doomed.begin(), doomed.end(),
                            std::make_pair(e.u, e.v))) {
      kept.push_back(e);
    }
  }
  return RebuildGraphAndResolve(std::move(kept), error);
}

int LinBpState::UpdateEdgeWeights(const std::vector<Edge>& edges,
                                  std::string* error) {
  if (!RequireMutableGraph(error)) return -1;
  const std::string problem = ValidateEdgeReweightBatch(*graph_, edges);
  if (!problem.empty()) {
    if (error != nullptr) *error = problem;
    RecordRejection();
    return -1;
  }
  std::vector<std::pair<std::pair<std::int64_t, std::int64_t>, double>>
      reweights;
  reweights.reserve(edges.size());
  for (const Edge& e : edges) {
    reweights.push_back(
        {{std::min(e.u, e.v), std::max(e.u, e.v)}, e.weight});
  }
  std::sort(reweights.begin(), reweights.end());
  std::vector<Edge> rebuilt = graph_->edges();
  for (Edge& e : rebuilt) {
    const auto it = std::lower_bound(
        reweights.begin(), reweights.end(),
        std::make_pair(std::make_pair(e.u, e.v),
                       -std::numeric_limits<double>::infinity()));
    if (it != reweights.end() && it->first == std::make_pair(e.u, e.v)) {
      e.weight = it->second;
    }
  }
  return RebuildGraphAndResolve(std::move(rebuilt), error);
}

}  // namespace linbp
