#include "src/graph/graph.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "src/util/check.h"

namespace linbp {

Graph::Graph(std::int64_t num_nodes, const std::vector<Edge>& edges)
    : adjacency_(num_nodes, num_nodes) {
  std::vector<Triplet> triplets;
  triplets.reserve(edges.size() * 2);
  for (const Edge& e : edges) {
    LINBP_CHECK(e.u >= 0 && e.u < num_nodes && e.v >= 0 && e.v < num_nodes);
    LINBP_CHECK_MSG(e.u != e.v, "self-loops are not supported");
    triplets.push_back({e.u, e.v, e.weight});
    triplets.push_back({e.v, e.u, e.weight});
  }
  adjacency_ = SparseMatrix::FromTriplets(num_nodes, num_nodes,
                                          std::move(triplets));
  // FromTriplets sums a repeated undirected pair into one entry.
  LINBP_CHECK_MSG(adjacency_.NumNonZeros() ==
                      2 * static_cast<std::int64_t>(edges.size()),
                  "duplicate undirected edge");
  weighted_degrees_ = adjacency_.SquaredRowSums();
}

Graph Graph::FromAdjacency(SparseMatrix adjacency,
                           const exec::ExecContext& ctx) {
  return FromAdjacencyImpl(std::move(adjacency), ctx, /*validate=*/true);
}

Graph Graph::FromValidatedAdjacency(SparseMatrix adjacency,
                                    const exec::ExecContext& ctx) {
  return FromAdjacencyImpl(std::move(adjacency), ctx, /*validate=*/false);
}

// One parallel sweep optionally validates (no self-loops, symmetric
// pattern and values via a mirror binary search per entry) and computes
// the weighted degrees. A unit matrix has no values to compare, and its
// degrees are its row counts: the same bits as summing 1 * 1 per entry.
// Rows are chunk-owned, so the writes race with nothing.
Graph Graph::FromAdjacencyImpl(SparseMatrix adjacency,
                               const exec::ExecContext& ctx, bool validate) {
  LINBP_CHECK_MSG(adjacency.rows() == adjacency.cols(),
                  "adjacency matrix must be square");
  const std::int64_t n = adjacency.rows();
  const auto& row_ptr = adjacency.row_ptr();
  const auto& col_idx = adjacency.col_idx();
  const double* values = adjacency.values_or_null();

  Graph graph;
  graph.weighted_degrees_.assign(n, 0.0);
  ctx.ParallelFor(0, n, /*min_grain=*/512, [&](std::int64_t row_begin,
                                               std::int64_t row_end) {
    for (std::int64_t r = row_begin; r < row_end; ++r) {
      if (validate) {
        for (std::int64_t e = row_ptr[r]; e < row_ptr[r + 1]; ++e) {
          const std::int64_t c = col_idx[e];
          LINBP_CHECK_MSG(c != r, "self-loops are not supported");
          const auto begin = col_idx.begin() + row_ptr[c];
          const auto end = col_idx.begin() + row_ptr[c + 1];
          const auto it =
              std::lower_bound(begin, end, static_cast<std::int32_t>(r));
          LINBP_CHECK_MSG(it != end && *it == r &&
                              (values == nullptr ||
                               values[it - col_idx.begin()] == values[e]),
                          "adjacency matrix is not symmetric");
        }
      }
      double degree = 0.0;
      if (values == nullptr) {
        degree = static_cast<double>(row_ptr[r + 1] - row_ptr[r]);
      } else {
        for (std::int64_t e = row_ptr[r]; e < row_ptr[r + 1]; ++e) {
          degree += values[e] * values[e];
        }
      }
      graph.weighted_degrees_[r] = degree;
    }
  });
  graph.adjacency_ = std::move(adjacency);
  return graph;
}

std::int64_t Graph::Degree(std::int64_t node) const {
  LINBP_CHECK(node >= 0 && node < num_nodes());
  return adjacency_.row_ptr()[node + 1] - adjacency_.row_ptr()[node];
}

std::vector<Edge> Graph::edges() const {
  const auto& row_ptr = adjacency_.row_ptr();
  const auto& col_idx = adjacency_.col_idx();
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(num_undirected_edges()));
  for (std::int64_t r = 0; r < num_nodes(); ++r) {
    for (std::int64_t e = row_ptr[r]; e < row_ptr[r + 1]; ++e) {
      if (col_idx[e] > r) {
        edges.push_back({r, col_idx[e], adjacency_.weight(e)});
      }
    }
  }
  return edges;
}

Graph EditedGraph(const Graph& graph, const std::vector<Edge>& batch,
                  bool remove, const exec::ExecContext& ctx) {
  // Both directed entries of every edit, in CSR order.
  std::vector<Triplet> edits;
  edits.reserve(batch.size() * 2);
  for (const Edge& e : batch) {
    edits.push_back({e.u, e.v, e.weight});
    edits.push_back({e.v, e.u, e.weight});
  }
  std::sort(edits.begin(), edits.end(),
            [](const Triplet& a, const Triplet& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });

  const std::int64_t n = graph.num_nodes();
  const SparseMatrix& old = graph.adjacency();
  const auto& old_row_ptr = old.row_ptr();
  const auto& old_col_idx = old.col_idx();
  // The result keeps a value array when the graph has one or the batch
  // brings in a weight other than 1; FromValidatedCsr drops it again
  // when every weight left is 1 (the last other one removed or
  // reweighted to 1). A unit graph edited with weight-1 edges and
  // removals merges its pattern only.
  const bool weighted =
      !old.unit_weights() ||
      (!remove && std::any_of(batch.begin(), batch.end(),
                              [](const Edge& e) { return e.weight != 1.0; }));
  const std::size_t capacity =
      old_col_idx.size() + (remove ? 0 : edits.size());
  std::vector<std::int64_t> row_ptr(n + 1, 0);
  std::vector<std::int32_t> col_idx;
  std::vector<double> values;
  col_idx.reserve(capacity);
  if (weighted) values.reserve(capacity);
  const auto copy_old = [&](std::int64_t from, std::int64_t to) {
    col_idx.insert(col_idx.end(), old_col_idx.begin() + from,
                   old_col_idx.begin() + to);
    if (!weighted) return;
    if (old.unit_weights()) {
      values.insert(values.end(), static_cast<std::size_t>(to - from), 1.0);
    } else {
      values.insert(values.end(), old.values().begin() + from,
                    old.values().begin() + to);
    }
  };
  auto edit = edits.begin();
  for (std::int64_t r = 0; r < n; ++r) {
    std::int64_t p = old_row_ptr[r];
    const std::int64_t end = old_row_ptr[r + 1];
    for (; edit != edits.end() && edit->row == r; ++edit) {
      const std::int64_t from = p;
      while (p < end && old_col_idx[p] < edit->col) ++p;
      copy_old(from, p);
      // The edit replaces the stored entry at its column, if any.
      if (p < end && old_col_idx[p] == edit->col) ++p;
      if (!remove) {
        col_idx.push_back(static_cast<std::int32_t>(edit->col));
        if (weighted) values.push_back(edit->value);
      }
    }
    copy_old(p, end);
    row_ptr[r + 1] = static_cast<std::int64_t>(col_idx.size());
  }
  return Graph::FromValidatedAdjacency(
      SparseMatrix::FromValidatedCsr(n, n, std::move(row_ptr),
                                     std::move(col_idx), std::move(values)),
      ctx);
}

std::string ValidateEdgeBatch(
    std::int64_t num_nodes, const std::vector<Edge>& edges,
    bool require_present, bool check_weights,
    const std::function<bool(std::int64_t u, std::int64_t v)>& stored) {
  std::vector<std::pair<std::int64_t, std::int64_t>> keys;
  keys.reserve(edges.size());
  for (const Edge& e : edges) {
    if (e.u < 0 || e.u >= num_nodes || e.v < 0 || e.v >= num_nodes) {
      return "edge (" + std::to_string(e.u) + ", " + std::to_string(e.v) +
             ") has an endpoint outside [0, " + std::to_string(num_nodes) +
             ")";
    }
    if (e.u == e.v) {
      return "self-loop on node " + std::to_string(e.u) +
             " is not supported";
    }
    if (check_weights && !std::isfinite(e.weight)) {
      return "edge (" + std::to_string(e.u) + ", " + std::to_string(e.v) +
             ") has a non-finite weight";
    }
    const std::int64_t u = std::min(e.u, e.v);
    const std::int64_t v = std::max(e.u, e.v);
    const bool present = stored(u, v);
    if (present && !require_present) {
      return "edge (" + std::to_string(u) + ", " + std::to_string(v) +
             ") already exists in the graph";
    }
    if (!present && require_present) {
      return "edge (" + std::to_string(u) + ", " + std::to_string(v) +
             ") does not exist in the graph";
    }
    keys.emplace_back(u, v);
  }
  std::sort(keys.begin(), keys.end());
  const auto dup = std::adjacent_find(keys.begin(), keys.end());
  if (dup != keys.end()) {
    return "duplicate edge (" + std::to_string(dup->first) + ", " +
           std::to_string(dup->second) + ") in the batch";
  }
  return std::string();
}

namespace {

// The Graph validators: ValidateEdgeBatch with a binary search of row u.
std::string ValidateGraphEdgeBatch(const Graph& graph,
                                   const std::vector<Edge>& edges,
                                   bool require_present, bool check_weights) {
  const auto& row_ptr = graph.adjacency().row_ptr();
  const auto& col_idx = graph.adjacency().col_idx();
  return ValidateEdgeBatch(
      graph.num_nodes(), edges, require_present, check_weights,
      [&](std::int64_t u, std::int64_t v) {
        return std::binary_search(col_idx.begin() + row_ptr[u],
                                  col_idx.begin() + row_ptr[u + 1],
                                  static_cast<std::int32_t>(v));
      });
}

}  // namespace

std::string ValidateNewEdgeBatch(const Graph& graph,
                                 const std::vector<Edge>& edges) {
  return ValidateGraphEdgeBatch(graph, edges, /*require_present=*/false,
                                /*check_weights=*/true);
}

std::string ValidateEdgeRemovalBatch(const Graph& graph,
                                     const std::vector<Edge>& edges) {
  return ValidateGraphEdgeBatch(graph, edges, /*require_present=*/true,
                                /*check_weights=*/false);
}

std::string ValidateEdgeReweightBatch(const Graph& graph,
                                      const std::vector<Edge>& edges) {
  return ValidateGraphEdgeBatch(graph, edges, /*require_present=*/true,
                                /*check_weights=*/true);
}

std::vector<std::int64_t> ReverseEdgeIndex(const SparseMatrix& adjacency) {
  LINBP_CHECK(adjacency.rows() == adjacency.cols());
  const auto& row_ptr = adjacency.row_ptr();
  const auto& col_idx = adjacency.col_idx();
  std::vector<std::int64_t> reverse(col_idx.size());
  for (std::int64_t s = 0; s < adjacency.rows(); ++s) {
    for (std::int64_t e = row_ptr[s]; e < row_ptr[s + 1]; ++e) {
      const std::int64_t t = col_idx[e];
      // Within row t, columns are sorted; binary search for s.
      const auto begin = col_idx.begin() + row_ptr[t];
      const auto end = col_idx.begin() + row_ptr[t + 1];
      const auto it =
          std::lower_bound(begin, end, static_cast<std::int32_t>(s));
      LINBP_CHECK_MSG(it != end && *it == s,
                      "adjacency matrix is not structurally symmetric");
      reverse[e] = it - col_idx.begin();
    }
  }
  return reverse;
}

}  // namespace linbp
