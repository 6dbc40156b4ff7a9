// Ablation: warm-started incremental LinBP (the Sect. 8 future-work item).
//
// After a change to the explicit beliefs, re-solving the linear system from
// the previous solution converges in sweeps ~ log(||change||/tol), while a
// cold start always pays log(||B*||/tol). The harness shows both regimes:
// replacing beliefs with entirely new values (change as large as the
// solution — warm start saves nothing) versus perturbing them by a shrinking
// delta (warm start sweeps fall with log delta).

#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/convergence.h"
#include "src/core/coupling.h"
#include "src/core/linbp.h"
#include "src/core/linbp_incremental.h"
#include "src/graph/beliefs.h"
#include "src/util/table_printer.h"

int main(int argc, char** argv) {
  using namespace linbp;
  const bench::Args args(argc, argv, {"graph"});
  const bench::MetricsDumpGuard metrics_guard(args);
  const int graph_index = static_cast<int>(args.Int("graph", 4));
  const Graph graph = bench::PaperGraph(graph_index);
  const std::int64_t n = graph.num_nodes();
  const CouplingMatrix coupling = KroneckerExperimentCoupling();
  const double eps =
      0.8 * ExactEpsilonThreshold(graph, coupling, LinBpVariant::kLinBp);
  const SeededBeliefs seeded = bench::PaperSeeds(graph, 888);

  LinBpOptions options;
  options.max_iterations = 5000;
  options.tolerance = 1e-12;

  WallTimer timer;
  LinBpState state(graph, coupling.ScaledResidual(eps), seeded.residuals,
                   options);
  const double cold_seconds = timer.Seconds();
  std::printf("== Ablation: warm-started incremental LinBP, graph #%d ==\n\n",
              graph_index);
  std::printf("cold start: %d sweeps, %s (eps at 80%% of the exact "
              "threshold)\n\n",
              state.cold_start_iterations(),
              bench::FormatSeconds(cold_seconds).c_str());

  // Perturb 10% of the explicit nodes by a relative delta; delta = 1 is a
  // full replacement.
  const std::int64_t batch =
      std::max<std::int64_t>(1, seeded.explicit_nodes.size() / 10);
  std::vector<std::int64_t> nodes(seeded.explicit_nodes.begin(),
                                  seeded.explicit_nodes.begin() + batch);

  TablePrinter table({"delta", "warm sweeps", "cold sweeps", "warm time",
                      "cold time", "sweep savings"});
  for (const double delta : {1.0, 0.1, 0.01, 0.001, 0.0001}) {
    // new = old + delta * random grid value (rows stay centered).
    const SeededBeliefs noise =
        SeedPaperBeliefs(n, 3, batch, 999 + static_cast<int>(1e5 * delta));
    DenseMatrix rows(batch, 3);
    DenseMatrix combined = seeded.residuals;
    for (std::int64_t i = 0; i < batch; ++i) {
      for (int c = 0; c < 3; ++c) {
        const double value =
            seeded.residuals.At(nodes[i], c) +
            delta * noise.residuals.At(noise.explicit_nodes[i], c);
        rows.At(i, c) = value;
        combined.At(nodes[i], c) = value;
      }
    }
    // Reset the state to the base solution, then apply the perturbation.
    LinBpState warm_state(graph, coupling.ScaledResidual(eps),
                          seeded.residuals, options);
    timer.Reset();
    const int warm_sweeps = warm_state.UpdateExplicitBeliefs(nodes, rows);
    const double warm_seconds = timer.Seconds();

    timer.Reset();
    const LinBpResult cold =
        RunLinBp(graph, coupling.ScaledResidual(eps), combined, options);
    const double cold_update_seconds = timer.Seconds();

    table.AddRow({TablePrinter::Num(delta, 2), std::to_string(warm_sweeps),
                  std::to_string(cold.iterations),
                  bench::FormatSeconds(warm_seconds),
                  bench::FormatSeconds(cold_update_seconds),
                  TablePrinter::Num(100.0 * (1.0 - static_cast<double>(
                                                       warm_sweeps) /
                                                       cold.iterations),
                                    3) +
                      "%"});
  }
  table.Print();
  std::printf("\n(warm-start sweeps shrink with log(delta): refreshing\n"
              "slightly stale beliefs is nearly free, while wholesale\n"
              "replacement costs a cold start — the LINVIEW-style delta\n"
              "maintenance the paper cites would remove that limit)\n");
  return 0;
}
