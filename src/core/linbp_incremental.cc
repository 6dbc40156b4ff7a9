#include "src/core/linbp_incremental.h"

#include <cmath>
#include <exception>
#include <string>
#include <utility>

#include "src/core/convergence.h"
#include "src/engine/in_memory_backend.h"
#include "src/obs/obs.h"
#include "src/util/check.h"

namespace linbp {

namespace {

// Every `return -1` on a validation path is a rejection; every undo of
// state after a mid-solve backend failure is a rollback.
int Reject(const std::string& problem, std::string* error) {
  if (error != nullptr) *error = problem;
  LINBP_OBS_COUNTER_ADD("linbp_state_rejections_total", 1);
  return -1;
}
void RecordRollback() { LINBP_OBS_COUNTER_ADD("linbp_state_rollbacks_total", 1); }

// The belief-batch counterpart of the graph's Validate*EdgeBatch: empty
// for a valid batch, else its first problem.
std::string ValidateBeliefBatch(const std::vector<std::int64_t>& nodes,
                                const DenseMatrix& residuals, std::int64_t n,
                                std::int64_t k) {
  if (static_cast<std::int64_t>(nodes.size()) != residuals.rows()) {
    return "belief update names " + std::to_string(nodes.size()) +
           " nodes but carries " + std::to_string(residuals.rows()) +
           " residual rows";
  }
  if (residuals.cols() != k) {
    return "belief update has " + std::to_string(residuals.cols()) +
           " classes but the coupling has " + std::to_string(k);
  }
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i] < 0 || nodes[i] >= n) {
      return "belief update names node " + std::to_string(nodes[i]) +
             " outside [0, " + std::to_string(n) + ")";
    }
    for (std::int64_t c = 0; c < k; ++c) {
      if (!std::isfinite(residuals.At(static_cast<std::int64_t>(i), c))) {
        return "belief update for node " + std::to_string(nodes[i]) +
               " has a non-finite residual";
      }
    }
  }
  return std::string();
}

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
  // The cached rho(M) travels as the hint, so a divergence abort reuses
  // it; the solve itself never runs power iteration up front.
  const core_internal::SweepLoopResult loop = core_internal::RunSweepLoop(
      *backend_, hhat_,
      options_.variant == LinBpVariant::kLinBp ? &hhat2 : nullptr,
      explicit_residuals_, options_, spectral_estimate_,
      core_internal::SweepFamily::kLinBp, &beliefs_);
  diagnostics_ = loop.diagnostics;
  converged_ = loop.converged;
  if (loop.failed) {
    last_error_ = loop.error;
    return -1;  // beliefs_ hold the last completed sweep; callers roll back
  }
  return loop.iterations;
}

double LinBpState::SpectralRadius() {
  if (spectral_estimate_ >= 0.0) return spectral_estimate_;
  obs::ScopedSpan span("spectral_estimate");
  LINBP_OBS_COUNTER_ADD("linbp_spectral_estimates_total", 1);
  try {
    spectral_estimate_ = LinBpOperatorSpectralRadius(
        *backend_, hhat_, options_.variant, 500, 1e-11, options_.exec);
  } catch (const std::exception&) {
    return -1.0;  // a streamed backend failed; the cache stays stale
  }
  if (span.active()) span.SetAttr("spectral_radius", spectral_estimate_);
  return spectral_estimate_;
}

int LinBpState::UpdateExplicitBeliefs(const std::vector<std::int64_t>& nodes,
                                      const DenseMatrix& residuals,
                                      std::string* error) {
  {
    // Validate up front with error returns, not CHECKs: node ids and
    // residual rows arrive straight off an update stream, and a hostile
    // line must never abort the server or touch the state.
    obs::ScopedSpan span("update_validate");
    const std::string problem = ValidateBeliefBatch(
        nodes, residuals, backend_->num_nodes(), hhat_.rows());
    if (!problem.empty()) return Reject(problem, error);
  }
  // Snapshot for rollback: a streamed backend can fail several sweeps in
  // (shard corruption appearing mid-stream), and a half-advanced warm
  // start would poison every later update. Updates are all-or-nothing.
  // The operator does not change, so neither does the rho(M) cache.
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
  obs::ScopedSpan span("update_resolve");
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
  if (span.active()) span.SetAttr("sweeps", sweeps);
  return sweeps;
}

int LinBpState::EditEdges(
    const std::vector<Edge>& edges,
    std::string (*validate)(const Graph&, const std::vector<Edge>&),
    bool remove, std::string* error) {
  {
    // Validate the whole batch up front with error returns — the Graph
    // constructor CHECK-aborts on these, which is the wrong failure mode
    // for edges arriving from user input or an update stream. The state
    // is only touched once every edge has passed.
    obs::ScopedSpan span("update_validate");
    if (graph_ == nullptr) {
      return Reject("backend does not own a mutable graph (streamed "
                    "states cannot mutate edges)",
                    error);
    }
    const std::string problem = validate(*graph_, edges);
    if (!problem.empty()) return Reject(problem, error);
  }
  // Snapshot for rollback: a streamed backend can fail several sweeps
  // in, and the contract is all-or-nothing — on failure the caller must
  // see the old graph, beliefs and rho(M) cache, not the new graph with
  // a half-advanced warm start or the rejected operator's rho(M).
  Graph saved_graph;
  DenseMatrix saved_beliefs;
  const double saved_estimate = spectral_estimate_;
  {
    obs::ScopedSpan span("update_graph_edit");
    // Edit in place, moving the old graph out instead of copying it: the
    // backend holds a pointer to *graph_.
    saved_graph = std::exchange(
        *graph_, EditedGraph(*graph_, edges, remove, options_.exec));
    saved_beliefs = beliefs_;
    spectral_estimate_ = -1.0;  // a new operator; SpectralRadius() recomputes
  }
  obs::ScopedSpan span("update_resolve");
  const int sweeps = Solve();
  if (sweeps < 0) {
    *graph_ = std::move(saved_graph);
    beliefs_ = std::move(saved_beliefs);
    spectral_estimate_ = saved_estimate;
    RecordRollback();
    if (error != nullptr) *error = last_error_;
  }
  if (span.active()) span.SetAttr("sweeps", sweeps);
  return sweeps;
}

int LinBpState::AddEdges(const std::vector<Edge>& edges,
                         std::string* error) {
  return EditEdges(edges, ValidateNewEdgeBatch, /*remove=*/false, error);
}

int LinBpState::RemoveEdges(const std::vector<Edge>& edges,
                            std::string* error) {
  return EditEdges(edges, ValidateEdgeRemovalBatch, /*remove=*/true, error);
}

int LinBpState::UpdateEdgeWeights(const std::vector<Edge>& edges,
                                  std::string* error) {
  return EditEdges(edges, ValidateEdgeReweightBatch, /*remove=*/false,
                   error);
}

}  // namespace linbp
