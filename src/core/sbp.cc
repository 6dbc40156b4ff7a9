#include "src/core/sbp.h"

#include <algorithm>
#include <deque>

#include "src/obs/obs.h"
#include "src/util/check.h"
#include "src/util/timer.h"

namespace linbp {

std::vector<std::int64_t> GeodesicNumbers(
    const Graph& graph, const std::vector<std::int64_t>& sources) {
  const std::int64_t n = graph.num_nodes();
  std::vector<std::int64_t> geodesic(n, kUnreachable);
  std::deque<std::int64_t> queue;
  for (const std::int64_t s : sources) {
    LINBP_CHECK(s >= 0 && s < n);
    if (geodesic[s] != 0) {
      geodesic[s] = 0;
      queue.push_back(s);
    }
  }
  const auto& row_ptr = graph.adjacency().row_ptr();
  const auto& col_idx = graph.adjacency().col_idx();
  while (!queue.empty()) {
    const std::int64_t u = queue.front();
    queue.pop_front();
    for (std::int64_t e = row_ptr[u]; e < row_ptr[u + 1]; ++e) {
      const std::int64_t v = col_idx[e];
      if (geodesic[v] == kUnreachable) {
        geodesic[v] = geodesic[u] + 1;
        queue.push_back(v);
      }
    }
  }
  return geodesic;
}

SparseMatrix ModifiedAdjacency(const Graph& graph,
                               const std::vector<std::int64_t>& geodesic) {
  const std::int64_t n = graph.num_nodes();
  LINBP_CHECK(static_cast<std::int64_t>(geodesic.size()) == n);
  std::vector<Triplet> triplets;
  for (const Edge& e : graph.edges()) {
    const std::int64_t gu = geodesic[e.u];
    const std::int64_t gv = geodesic[e.v];
    if (gu == kUnreachable || gv == kUnreachable || gu == gv) continue;
    if (gu < gv) {
      triplets.push_back({e.u, e.v, e.weight});
    } else {
      triplets.push_back({e.v, e.u, e.weight});
    }
  }
  return SparseMatrix::FromTriplets(n, n, std::move(triplets));
}

SbpResult RunSbp(const Graph& graph, const DenseMatrix& hhat,
                 const DenseMatrix& explicit_residuals,
                 const std::vector<std::int64_t>& explicit_nodes,
                 const exec::ExecContext& exec,
                 const SweepObserver& observer) {
  const std::int64_t n = graph.num_nodes();
  const std::int64_t k = hhat.rows();
  LINBP_CHECK(hhat.cols() == k && k >= 2);
  LINBP_CHECK(explicit_residuals.rows() == n && explicit_residuals.cols() == k);

  SbpResult result;
  result.geodesic = GeodesicNumbers(graph, explicit_nodes);
  result.beliefs = DenseMatrix(n, k);
  for (const std::int64_t s : explicit_nodes) {
    for (std::int64_t c = 0; c < k; ++c) {
      result.beliefs.At(s, c) = explicit_residuals.At(s, c);
    }
  }

  // Bucket nodes by geodesic number so levels can be processed in order.
  std::int64_t max_geodesic = 0;
  for (const std::int64_t g : result.geodesic) {
    max_geodesic = std::max(max_geodesic, g);
  }
  result.max_geodesic = max_geodesic;
  std::vector<std::vector<std::int64_t>> levels(max_geodesic + 1);
  for (std::int64_t s = 0; s < n; ++s) {
    if (result.geodesic[s] > 0) levels[result.geodesic[s]].push_back(s);
  }

  const SparseMatrix& adjacency = graph.adjacency();
  const auto& row_ptr = adjacency.row_ptr();
  const auto& col_idx = adjacency.col_idx();
  for (std::int64_t level = 1; level <= max_geodesic; ++level) {
    // Every node of this level reads only level - 1 beliefs and writes its
    // own row, so the level is embarrassingly parallel.
    const std::vector<std::int64_t>& frontier = levels[level];
    obs::ScopedSpan span("sbp_level");
    WallTimer level_timer;
    exec.ParallelFor(
        0, static_cast<std::int64_t>(frontier.size()), /*min_grain=*/64,
        [&](std::int64_t begin, std::int64_t end) {
          std::vector<double> aggregated(k);
          for (std::int64_t i = begin; i < end; ++i) {
            const std::int64_t t = frontier[i];
            // Sum the weighted beliefs of parents (geodesic level - 1) ...
            std::fill(aggregated.begin(), aggregated.end(), 0.0);
            for (std::int64_t e = row_ptr[t]; e < row_ptr[t + 1]; ++e) {
              const std::int64_t s = col_idx[e];
              if (result.geodesic[s] != level - 1) continue;
              const double w = adjacency.weight(e);
              for (std::int64_t c = 0; c < k; ++c) {
                aggregated[c] += w * result.beliefs.At(s, c);
              }
            }
            // ... then modulate once through Hhat (b_t = Hhat^T * sum, i.e.
            // the row-vector product sum^T * Hhat as in B <- A B Hhat).
            for (std::int64_t c = 0; c < k; ++c) {
              double value = 0.0;
              for (std::int64_t j = 0; j < k; ++j) {
                value += aggregated[j] * hhat.At(j, c);
              }
              result.beliefs.At(t, c) = value;
            }
          }
        });
    const double seconds = level_timer.Seconds();
    const std::int64_t frontier_rows =
        static_cast<std::int64_t>(frontier.size());
    std::int64_t frontier_nnz = 0;
    for (const std::int64_t t : frontier) {
      frontier_nnz += row_ptr[t + 1] - row_ptr[t];
    }
    LINBP_OBS_COUNTER_ADD("sbp_levels_total", 1);
    LINBP_OBS_COUNTER_ADD("sbp_nodes_processed_total", frontier_rows);
    LINBP_OBS_COUNTER_ADD("sbp_nnz_processed_total", frontier_nnz);
    LINBP_OBS_HISTOGRAM_OBSERVE("sbp_level_seconds", seconds);
    if (span.active()) {
      span.SetAttr("level", level);
      span.SetAttr("rows", frontier_rows);
      span.SetAttr("nnz", frontier_nnz);
    }
    if (observer) {
      SweepTelemetry telemetry;
      telemetry.sweep = static_cast<int>(level);
      telemetry.seconds = seconds;
      telemetry.rows = frontier_rows;
      telemetry.nnz = frontier_nnz;
      observer(telemetry);
    }
  }
  return result;
}

}  // namespace linbp
