// Experiment E7 (Fig. 7d): time per iteration of LinBP vs SBP in the
// in-memory implementation. LinBP touches every edge in every iteration;
// SBP visits each geodesic level (and thus each edge) once, so its
// per-iteration cost varies and the total sums to a single pass.

// --check (a CTest regression guard): the per-iteration numbers are only
// meaningful if the manually instrumented sweeps compute what the
// library solvers compute — asserts the hand-rolled LinBP sweep loop
// matches RunLinBp bit-for-bit after 5 iterations, and the per-level SBP
// slice matches RunSbp at 1e-9, on graph #2.

#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/coupling.h"
#include "src/core/linbp.h"
#include "src/core/sbp.h"
#include "src/graph/beliefs.h"
#include "src/la/kron_ops.h"
#include "src/obs/timeseries.h"
#include "src/util/table_printer.h"
#include "src/util/timer.h"

namespace {

int RunCheck() {
  using namespace linbp;
  const Graph graph = bench::PaperGraph(2);
  const CouplingMatrix coupling = KroneckerExperimentCoupling();
  const SeededBeliefs seeded = bench::PaperSeeds(graph, 4002);
  const double eps = 0.0005;
  const int iterations = 5;
  int failures = 0;

  // The driver's manual LinBP sweep (propagate + re-add explicit) must
  // equal RunLinBp under the fixed-sweep protocol.
  const DenseMatrix hhat = coupling.ScaledResidual(eps);
  const DenseMatrix hhat2 = hhat.Multiply(hhat);
  DenseMatrix beliefs = seeded.residuals;
  for (int it = 0; it < iterations; ++it) {
    const DenseMatrix next =
        LinBpPropagate(graph.adjacency(), graph.weighted_degrees(), hhat,
                       hhat2, beliefs, /*with_echo=*/true);
    for (std::int64_t s = 0; s < next.rows(); ++s) {
      for (std::int64_t c = 0; c < next.cols(); ++c) {
        beliefs.At(s, c) = seeded.residuals.At(s, c) + next.At(s, c);
      }
    }
  }
  LinBpOptions options;
  options.max_iterations = iterations;
  options.tolerance = 0.0;
  const LinBpResult reference = RunLinBp(graph, hhat, seeded.residuals,
                                         options);
  const double linbp_diff = beliefs.MaxAbsDiff(reference.beliefs);
  std::printf("fig7d manual LinBP sweeps vs RunLinBp: max abs diff %.3e "
              "(want <= 1e-12)  %s\n",
              linbp_diff, linbp_diff <= 1e-12 ? "OK" : "FAIL");
  if (linbp_diff > 1e-12) ++failures;

  // The per-level SBP slice (run through EVERY level) must reproduce
  // RunSbp.
  const std::vector<std::int64_t> geodesic =
      GeodesicNumbers(graph, seeded.explicit_nodes);
  std::int64_t max_level = 0;
  for (const std::int64_t g : geodesic) max_level = std::max(max_level, g);
  const DenseMatrix& hh = coupling.residual();
  DenseMatrix b(graph.num_nodes(), 3);
  for (const std::int64_t s : seeded.explicit_nodes) {
    for (int c = 0; c < 3; ++c) b.At(s, c) = seeded.residuals.At(s, c);
  }
  const auto& row_ptr = graph.adjacency().row_ptr();
  const auto& col_idx = graph.adjacency().col_idx();
  const SparseMatrix& adjacency = graph.adjacency();
  for (std::int64_t level = 1; level <= max_level; ++level) {
    for (std::int64_t t = 0; t < graph.num_nodes(); ++t) {
      if (geodesic[t] != level) continue;
      double agg[3] = {0, 0, 0};
      for (std::int64_t e = row_ptr[t]; e < row_ptr[t + 1]; ++e) {
        const std::int64_t s = col_idx[e];
        if (geodesic[s] != level - 1) continue;
        const double w = adjacency.weight(e);
        for (int c = 0; c < 3; ++c) agg[c] += w * b.At(s, c);
      }
      for (int c = 0; c < 3; ++c) {
        double value = 0.0;
        for (int j = 0; j < 3; ++j) value += agg[j] * hh.At(j, c);
        b.At(t, c) = value;
      }
    }
  }
  const SbpResult sbp = RunSbp(graph, hh, seeded.residuals,
                               seeded.explicit_nodes);
  const double sbp_diff = b.MaxAbsDiff(sbp.beliefs);
  std::printf("fig7d manual SBP level slices vs RunSbp: max abs diff %.3e "
              "(want <= 1e-9)  %s\n",
              sbp_diff, sbp_diff <= 1e-9 ? "OK" : "FAIL");
  if (sbp_diff > 1e-9) ++failures;
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace linbp;
  const bench::Args args(argc, argv);
  const bench::MetricsDumpGuard metrics_guard(args);
  if (args.Has("check")) return RunCheck();
  const int graph_index = static_cast<int>(args.Int("graph", 6));
  const int iterations = static_cast<int>(args.Int("iterations", 5));
  const CouplingMatrix coupling = KroneckerExperimentCoupling();
  const double eps = 0.0005;

  const Graph graph = bench::PaperGraph(graph_index);
  const SeededBeliefs seeded = bench::PaperSeeds(graph, 4000 + graph_index);
  std::printf("== Fig. 7d: per-iteration time on graph #%d (%lld edges) ==\n\n",
              graph_index,
              static_cast<long long>(graph.num_directed_edges()));

  // LinBP: run the library solver under the fixed-sweep protocol and
  // read each sweep's wall time back from the "linbp_sweep" obs time
  // series — the same per-sweep samples --metrics-out reports, so the
  // table and the JSON report can never disagree.
  const DenseMatrix hhat = coupling.ScaledResidual(eps);
  LinBpOptions lin_options;
  lin_options.max_iterations = iterations;
  lin_options.tolerance = 0.0;
  RunLinBp(graph, hhat, seeded.residuals, lin_options);
  std::vector<double> linbp_times(iterations, 0.0);
  for (const obs::TimeSeriesSample& sample :
       obs::TimeSeriesRegistry::Global().Get("linbp_sweep").Samples()) {
    // Index by the recorded sweep number: past the recorder capacity the
    // series decimates, and decimated samples keep their sweep ids.
    if (sample.sweep >= 1 && sample.sweep <= iterations) {
      linbp_times[sample.sweep - 1] = sample.seconds * 1e3;
    }
  }

  // SBP: time each geodesic level (its "iterations"); levels beyond the
  // maximum geodesic number cost nothing.
  const std::vector<std::int64_t> geodesic =
      GeodesicNumbers(graph, seeded.explicit_nodes);
  std::int64_t max_level = 0;
  for (const std::int64_t g : geodesic) max_level = std::max(max_level, g);
  // One full pass, timed per level: re-run RunSbp on level-censored graphs
  // would distort; instead time level slices directly.
  std::vector<double> sbp_times(iterations, 0.0);
  {
    const DenseMatrix& hh = coupling.residual();
    DenseMatrix b(graph.num_nodes(), 3);
    for (const std::int64_t s : seeded.explicit_nodes) {
      for (int c = 0; c < 3; ++c) b.At(s, c) = seeded.residuals.At(s, c);
    }
    const auto& row_ptr = graph.adjacency().row_ptr();
    const auto& col_idx = graph.adjacency().col_idx();
    const SparseMatrix& adjacency = graph.adjacency();
    std::vector<std::vector<std::int64_t>> levels(max_level + 1);
    for (std::int64_t v = 0; v < graph.num_nodes(); ++v) {
      if (geodesic[v] > 0) levels[geodesic[v]].push_back(v);
    }
    for (std::int64_t level = 1;
         level <= max_level && level <= iterations; ++level) {
      WallTimer timer;
      for (const std::int64_t t : levels[level]) {
        double agg[3] = {0, 0, 0};
        for (std::int64_t e = row_ptr[t]; e < row_ptr[t + 1]; ++e) {
          const std::int64_t s = col_idx[e];
          if (geodesic[s] != level - 1) continue;
          const double w = adjacency.weight(e);
          for (int c = 0; c < 3; ++c) agg[c] += w * b.At(s, c);
        }
        for (int c = 0; c < 3; ++c) {
          double value = 0.0;
          for (int j = 0; j < 3; ++j) value += agg[j] * hh.At(j, c);
          b.At(t, c) = value;
        }
      }
      sbp_times[level - 1] = timer.Millis();
    }
  }

  TablePrinter table({"iteration", "LinBP [ms]", "SBP [ms]"});
  for (int it = 0; it < iterations; ++it) {
    table.AddRow({std::to_string(it + 1),
                  TablePrinter::Num(linbp_times[it], 4),
                  TablePrinter::Num(sbp_times[it], 4)});
  }
  table.Print();
  double sbp_total = 0.0;
  double linbp_total = 0.0;
  for (int it = 0; it < iterations; ++it) {
    sbp_total += sbp_times[it];
    linbp_total += linbp_times[it];
  }
  std::printf("\nLinBP total %.2f ms (constant per iteration); SBP total "
              "%.2f ms\n(varies per level and stops once every node is "
              "reached, max level %lld)\n",
              linbp_total, sbp_total, static_cast<long long>(max_level));
  return 0;
}
