#include "src/core/sbp_incremental.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <string>
#include <unordered_map>
#include <utility>

#include "src/obs/obs.h"
#include "src/util/check.h"

namespace linbp {

namespace {
// Validation rejections on the SbpState mutation paths (SBP warm updates
// never roll back: dirty-region recompute only runs after validation).
void RecordRejection() { LINBP_OBS_COUNTER_ADD("sbp_state_rejections_total", 1); }
}  // namespace

SbpState::SbpState(std::int64_t num_nodes, DenseMatrix hhat,
                   exec::ExecContext exec)
    : adjacency_(num_nodes),
      hhat_(std::move(hhat)),
      beliefs_(num_nodes, hhat_.rows()),
      geodesic_(num_nodes, kUnreachable),
      is_explicit_(num_nodes, false),
      exec_(std::move(exec)) {
  LINBP_CHECK(hhat_.rows() == hhat_.cols() && hhat_.rows() >= 2);
}

SbpState SbpState::FromGraph(const Graph& graph, DenseMatrix hhat,
                             const DenseMatrix& explicit_residuals,
                             const std::vector<std::int64_t>& explicit_nodes,
                             exec::ExecContext exec) {
  SbpState state(graph.num_nodes(), std::move(hhat), std::move(exec));
  // One exact-size list per CSR row, in the row's ascending column order.
  const SparseMatrix& adjacency = graph.adjacency();
  const std::vector<std::int64_t>& row_ptr = adjacency.row_ptr();
  const std::vector<std::int32_t>& col_idx = adjacency.col_idx();
  for (std::int64_t v = 0; v < graph.num_nodes(); ++v) {
    std::vector<Neighbor>& neighbors = state.adjacency_[v];
    neighbors.reserve(static_cast<std::size_t>(row_ptr[v + 1] - row_ptr[v]));
    for (std::int64_t p = row_ptr[v]; p < row_ptr[v + 1]; ++p) {
      neighbors.push_back({col_idx[p], adjacency.weight(p)});
    }
  }
  DenseMatrix rows(static_cast<std::int64_t>(explicit_nodes.size()),
                   state.k());
  for (std::size_t i = 0; i < explicit_nodes.size(); ++i) {
    for (std::int64_t c = 0; c < state.k(); ++c) {
      rows.At(static_cast<std::int64_t>(i), c) =
          explicit_residuals.At(explicit_nodes[i], c);
    }
  }
  std::string problem;
  LINBP_CHECK_MSG(state.AddExplicitBeliefs(explicit_nodes, rows, &problem) >=
                      0,
                  "FromGraph bootstrap rejected its explicit beliefs");
  return state;
}

std::string SbpState::ValidateEdgeBatch(const std::vector<Edge>& edges,
                                        bool require_present,
                                        bool check_weights) const {
  return linbp::ValidateEdgeBatch(
      num_nodes(), edges, require_present, check_weights,
      [this](std::int64_t u, std::int64_t v) {
        for (const Neighbor& nb : adjacency_[u]) {
          if (nb.node == v) return true;
        }
        return false;
      });
}

void SbpState::RecomputeBeliefs(std::int64_t t) {
  const std::int64_t num_classes = k();
  std::vector<double> aggregated(num_classes, 0.0);
  for (const Neighbor& nb : adjacency_[t]) {
    if (geodesic_[nb.node] != geodesic_[t] - 1) continue;
    for (std::int64_t c = 0; c < num_classes; ++c) {
      aggregated[c] += nb.weight * beliefs_.At(nb.node, c);
    }
  }
  for (std::int64_t c = 0; c < num_classes; ++c) {
    double value = 0.0;
    for (std::int64_t j = 0; j < num_classes; ++j) {
      value += aggregated[j] * hhat_.At(j, c);
    }
    beliefs_.At(t, c) = value;
  }
}

void SbpState::PropagateDirty(std::vector<std::int64_t> dirty) {
  // Bucket by geodesic level; process ascending so parents are final when a
  // child is recomputed. Cascades only ever target level g + 1, so once a
  // level starts its bucket is complete: the recompute phase can fan out
  // (each node reads level g - 1 and writes its own belief row), and only
  // the child-enqueue scan stays serial.
  std::vector<std::vector<std::int64_t>> buckets;
  std::vector<bool> marked(num_nodes(), false);
  auto enqueue = [&](std::int64_t node) {
    if (marked[node] || is_explicit_[node]) return;
    const std::int64_t g = geodesic_[node];
    if (g == kUnreachable) return;
    if (static_cast<std::int64_t>(buckets.size()) <= g) buckets.resize(g + 1);
    buckets[g].push_back(node);
    marked[node] = true;
  };
  for (const std::int64_t node : dirty) enqueue(node);
  for (std::size_t level = 1; level < buckets.size(); ++level) {
    // buckets may grow (at higher levels) while iterating; index-based
    // access throughout instead of holding references.
    exec_.ParallelFor(
        0, static_cast<std::int64_t>(buckets[level].size()), /*min_grain=*/64,
        [&](std::int64_t begin, std::int64_t end) {
          for (std::int64_t i = begin; i < end; ++i) {
            RecomputeBeliefs(buckets[level][i]);
          }
        });
    last_update_recomputed_nodes_ +=
        static_cast<std::int64_t>(buckets[level].size());
    for (std::size_t i = 0; i < buckets[level].size(); ++i) {
      const std::int64_t t = buckets[level][i];
      for (const Neighbor& nb : adjacency_[t]) {
        if (geodesic_[nb.node] == geodesic_[t] + 1) enqueue(nb.node);
      }
    }
  }
}

int SbpState::AddExplicitBeliefs(const std::vector<std::int64_t>& nodes,
                                 const DenseMatrix& residuals,
                                 std::string* error) {
  // Validate up front with error returns: node ids and residuals arrive
  // straight off an update stream, and a hostile line must never abort
  // the server or touch the state.
  if (static_cast<std::int64_t>(nodes.size()) != residuals.rows()) {
    if (error != nullptr) {
      *error = "belief update names " + std::to_string(nodes.size()) +
               " nodes but carries " + std::to_string(residuals.rows()) +
               " residual rows";
    }
    RecordRejection();
    return -1;
  }
  if (residuals.cols() != k()) {
    if (error != nullptr) {
      *error = "belief update has " + std::to_string(residuals.cols()) +
               " classes but the coupling has " + std::to_string(k());
    }
    RecordRejection();
    return -1;
  }
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i] < 0 || nodes[i] >= num_nodes()) {
      if (error != nullptr) {
        *error = "belief update names node " + std::to_string(nodes[i]) +
                 " outside [0, " + std::to_string(num_nodes()) + ")";
      }
      RecordRejection();
      return -1;
    }
    for (std::int64_t c = 0; c < k(); ++c) {
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
  last_update_recomputed_nodes_ = 0;

  // Phase 1: install the new explicit beliefs and geodesic number 0.
  std::unordered_map<std::int64_t, std::int64_t> old_geodesic;
  std::deque<std::int64_t> relax_queue;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const std::int64_t v = nodes[i];
    if (!is_explicit_[v]) {
      is_explicit_[v] = true;
      explicit_nodes_.push_back(v);
      old_geodesic.emplace(v, geodesic_[v]);
      geodesic_[v] = 0;
      relax_queue.push_back(v);
    }
    for (std::int64_t c = 0; c < k(); ++c) {
      beliefs_.At(v, c) = residuals.At(static_cast<std::int64_t>(i), c);
    }
  }

  // Phase 2: BFS relaxation of geodesic numbers (they can only decrease).
  while (!relax_queue.empty()) {
    const std::int64_t u = relax_queue.front();
    relax_queue.pop_front();
    for (const Neighbor& nb : adjacency_[u]) {
      if (geodesic_[nb.node] == kUnreachable ||
          geodesic_[nb.node] > geodesic_[u] + 1) {
        old_geodesic.emplace(nb.node, geodesic_[nb.node]);
        geodesic_[nb.node] = geodesic_[u] + 1;
        relax_queue.push_back(nb.node);
      }
    }
  }

  // Phase 3: seed the dirty set.
  std::vector<std::int64_t> dirty;
  for (const auto& [changed, old_g] : old_geodesic) {
    dirty.push_back(changed);  // enqueue skips explicit nodes itself
    for (const Neighbor& nb : adjacency_[changed]) {
      // Former children lost a parent; new children gained one.
      if ((old_g != kUnreachable && geodesic_[nb.node] == old_g + 1) ||
          geodesic_[nb.node] == geodesic_[changed] + 1) {
        dirty.push_back(nb.node);
      }
    }
  }
  // Overwritten explicit beliefs (geodesic unchanged) still dirty their
  // children.
  for (const std::int64_t v : nodes) {
    for (const Neighbor& nb : adjacency_[v]) {
      if (geodesic_[nb.node] == 1) dirty.push_back(nb.node);
    }
  }
  PropagateDirty(std::move(dirty));
  return static_cast<int>(last_update_recomputed_nodes_);
}

int SbpState::AddEdges(const std::vector<Edge>& edges, std::string* error) {
  const std::string problem =
      ValidateEdgeBatch(edges, /*require_present=*/false,
                        /*check_weights=*/true);
  if (!problem.empty()) {
    if (error != nullptr) *error = problem;
    RecordRejection();
    return -1;
  }
  last_update_recomputed_nodes_ = 0;

  // Phase 1: extend the adjacency lists.
  for (const Edge& e : edges) {
    adjacency_[e.u].push_back({e.v, e.weight});
    adjacency_[e.v].push_back({e.u, e.weight});
  }

  // Phase 2: relax geodesic numbers across the new edges, then outward.
  std::unordered_map<std::int64_t, std::int64_t> old_geodesic;
  std::deque<std::int64_t> relax_queue;
  auto relax = [&](std::int64_t from, std::int64_t to) {
    if (geodesic_[from] == kUnreachable) return;
    const std::int64_t candidate = geodesic_[from] + 1;
    if (geodesic_[to] == kUnreachable || geodesic_[to] > candidate) {
      old_geodesic.emplace(to, geodesic_[to]);
      geodesic_[to] = candidate;
      relax_queue.push_back(to);
    }
  };
  for (const Edge& e : edges) {
    relax(e.u, e.v);
    relax(e.v, e.u);
  }
  while (!relax_queue.empty()) {
    const std::int64_t u = relax_queue.front();
    relax_queue.pop_front();
    for (const Neighbor& nb : adjacency_[u]) relax(u, nb.node);
  }

  // Phase 3: seed the dirty set — geodesic changes (plus their former and
  // current children) and new geodesic-crossing edges.
  std::vector<std::int64_t> dirty;
  for (const auto& [changed, old_g] : old_geodesic) {
    dirty.push_back(changed);
    for (const Neighbor& nb : adjacency_[changed]) {
      if ((old_g != kUnreachable && geodesic_[nb.node] == old_g + 1) ||
          geodesic_[nb.node] == geodesic_[changed] + 1) {
        dirty.push_back(nb.node);
      }
    }
  }
  for (const Edge& e : edges) {
    if (geodesic_[e.u] != kUnreachable &&
        geodesic_[e.v] == geodesic_[e.u] + 1) {
      dirty.push_back(e.v);
    }
    if (geodesic_[e.v] != kUnreachable &&
        geodesic_[e.u] == geodesic_[e.v] + 1) {
      dirty.push_back(e.u);
    }
  }
  PropagateDirty(std::move(dirty));
  return static_cast<int>(last_update_recomputed_nodes_);
}

int SbpState::RemoveEdges(const std::vector<Edge>& edges,
                          std::string* error) {
  const std::string problem =
      ValidateEdgeBatch(edges, /*require_present=*/true,
                        /*check_weights=*/false);
  if (!problem.empty()) {
    if (error != nullptr) *error = problem;
    RecordRejection();
    return -1;
  }
  last_update_recomputed_nodes_ = 0;

  // Phase 1: drop the edges from both adjacency lists.
  for (const Edge& e : edges) {
    auto drop = [this](std::int64_t from, std::int64_t to) {
      auto& list = adjacency_[from];
      for (std::size_t i = 0; i < list.size(); ++i) {
        if (list[i].node == to) {
          list[i] = list.back();
          list.pop_back();
          return;
        }
      }
    };
    drop(e.u, e.v);
    drop(e.v, e.u);
  }

  // Phase 2: geodesic numbers can only grow under deletions, and a
  // decremental relaxation would have to discover *which* nodes lost
  // their last shortest path — a full multi-source BFS from the explicit
  // nodes is simpler and always right. Deletions are expected to be rare
  // relative to queries; the belief recomputation below stays localized.
  std::vector<std::int64_t> old_geodesic = geodesic_;
  std::fill(geodesic_.begin(), geodesic_.end(), kUnreachable);
  std::deque<std::int64_t> bfs;
  for (const std::int64_t v : explicit_nodes_) {
    geodesic_[v] = 0;
    bfs.push_back(v);
  }
  while (!bfs.empty()) {
    const std::int64_t u = bfs.front();
    bfs.pop_front();
    for (const Neighbor& nb : adjacency_[u]) {
      if (geodesic_[nb.node] == kUnreachable) {
        geodesic_[nb.node] = geodesic_[u] + 1;
        bfs.push_back(nb.node);
      }
    }
  }

  // Phase 3: seed the dirty set. A node whose geodesic changed must be
  // recomputed at its new level (or zeroed if now unreachable, the
  // from-scratch convention for unlabeled components); its former
  // children lost a parent and its current children gained one. A
  // removed level-crossing edge dirties the child endpoint even when no
  // geodesic moved (it lost that parent's contribution).
  std::vector<std::int64_t> dirty;
  for (std::int64_t v = 0; v < num_nodes(); ++v) {
    if (geodesic_[v] == old_geodesic[v]) continue;
    if (geodesic_[v] == kUnreachable) {
      for (std::int64_t c = 0; c < k(); ++c) beliefs_.At(v, c) = 0.0;
      ++last_update_recomputed_nodes_;
    } else {
      dirty.push_back(v);
    }
    for (const Neighbor& nb : adjacency_[v]) {
      if ((old_geodesic[v] != kUnreachable &&
           old_geodesic[nb.node] == old_geodesic[v] + 1) ||
          (geodesic_[v] != kUnreachable &&
           geodesic_[nb.node] == geodesic_[v] + 1)) {
        dirty.push_back(nb.node);
      }
    }
  }
  for (const Edge& e : edges) {
    if (old_geodesic[e.u] != kUnreachable &&
        old_geodesic[e.v] == old_geodesic[e.u] + 1) {
      dirty.push_back(e.v);
    }
    if (old_geodesic[e.v] != kUnreachable &&
        old_geodesic[e.u] == old_geodesic[e.v] + 1) {
      dirty.push_back(e.u);
    }
  }
  PropagateDirty(std::move(dirty));
  return static_cast<int>(last_update_recomputed_nodes_);
}

int SbpState::UpdateEdgeWeights(const std::vector<Edge>& edges,
                                std::string* error) {
  const std::string problem =
      ValidateEdgeBatch(edges, /*require_present=*/true,
                        /*check_weights=*/true);
  if (!problem.empty()) {
    if (error != nullptr) *error = problem;
    RecordRejection();
    return -1;
  }
  last_update_recomputed_nodes_ = 0;

  // Weights do not move geodesic numbers (SBP shortest paths count
  // hops), so only beliefs flowing across a reweighted level-crossing
  // edge change: dirty the child endpoint and let the cascade handle
  // its descendants.
  std::vector<std::int64_t> dirty;
  for (const Edge& e : edges) {
    auto reweight = [this](std::int64_t from, std::int64_t to, double w) {
      for (Neighbor& nb : adjacency_[from]) {
        if (nb.node == to) {
          nb.weight = w;
          return;
        }
      }
    };
    reweight(e.u, e.v, e.weight);
    reweight(e.v, e.u, e.weight);
    if (geodesic_[e.u] != kUnreachable &&
        geodesic_[e.v] == geodesic_[e.u] + 1) {
      dirty.push_back(e.v);
    }
    if (geodesic_[e.v] != kUnreachable &&
        geodesic_[e.u] == geodesic_[e.v] + 1) {
      dirty.push_back(e.u);
    }
  }
  PropagateDirty(std::move(dirty));
  return static_cast<int>(last_update_recomputed_nodes_);
}

}  // namespace linbp
