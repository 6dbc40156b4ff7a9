// Ablation: what does the echo-cancellation term buy?
//
// LinBP keeps the -D B Hhat^2 term that compensates for a node's beliefs
// echoing back through its neighbors; LinBP* drops it. This harness
// quantifies the trade-off the paper discusses: LinBP* converges over a
// wider eps_H range (its operator has a smaller spectral radius), while
// LinBP tracks BP slightly more faithfully at larger eps_H, and both cost
// the same per sweep up to the extra rank-k term.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/bp.h"
#include "src/core/convergence.h"
#include "src/core/coupling.h"
#include "src/core/labeling.h"
#include "src/core/linbp.h"
#include "src/core/sbp.h"
#include "src/graph/beliefs.h"
#include "src/util/table_printer.h"

int main(int argc, char** argv) {
  using namespace linbp;
  const bench::Args args(argc, argv, {"graph"});
  const bench::MetricsDumpGuard metrics_guard(args);
  const int graph_index = static_cast<int>(args.Int("graph", 3));
  const Graph graph = bench::PaperGraph(graph_index);
  const CouplingMatrix coupling = KroneckerExperimentCoupling();
  const SeededBeliefs seeded = bench::PaperSeeds(graph, 777);

  const double exact_linbp =
      ExactEpsilonThreshold(graph, coupling, LinBpVariant::kLinBp);
  const double exact_star =
      ExactEpsilonThreshold(graph, coupling, LinBpVariant::kLinBpStar);
  std::printf("== Ablation: echo cancellation, graph #%d ==\n\n",
              graph_index);
  std::printf("exact eps thresholds: LinBP %.4e, LinBP* %.4e "
              "(star region is %.1f%% wider)\n\n",
              exact_linbp, exact_star,
              100.0 * (exact_star / exact_linbp - 1.0));

  // Score only information-bearing nodes (see fig7fg_quality.cc).
  const std::vector<std::int64_t> geodesic =
      GeodesicNumbers(graph, seeded.explicit_nodes);
  std::vector<std::int64_t> scored_nodes;
  for (std::int64_t v = 0; v < graph.num_nodes(); ++v) {
    if (geodesic[v] != kUnreachable) scored_nodes.push_back(v);
  }

  TablePrinter table({"eps/exact", "eps_H", "LinBP F1 vs BP",
                      "LinBP* F1 vs BP", "LinBP sweeps", "LinBP* sweeps"});
  for (const double fraction : {0.05, 0.2, 0.5, 0.8, 0.95}) {
    const double eps = fraction * exact_linbp;
    BpOptions bp_options;
    bp_options.max_iterations = 1000;
    bp_options.tolerance = 1e-13;
    const BpResult bp =
        RunBp(graph, coupling.ScaledStochastic(eps),
              ResidualToProbability(seeded.residuals), bp_options);
    std::vector<std::string> row = {TablePrinter::Num(fraction, 2),
                                    TablePrinter::Num(eps, 3)};
    if (!bp.converged) {
      table.AddRow({row[0], row[1], "- (BP diverged)", "-", "-", "-"});
      continue;
    }
    const TopBeliefAssignment gt =
        TopBeliefs(ProbabilityToResidual(bp.beliefs));
    std::vector<std::string> sweeps;
    for (const LinBpVariant variant :
         {LinBpVariant::kLinBp, LinBpVariant::kLinBpStar}) {
      LinBpOptions options;
      options.schedule = SweepSchedule::kJacobi;  // the paper's iteration
      options.variant = variant;
      options.max_iterations = 3000;
      options.tolerance = 1e-13;
      const LinBpResult lin = RunLinBp(graph, coupling.ScaledResidual(eps),
                                       seeded.residuals, options);
      row.push_back(lin.converged
                        ? TablePrinter::Num(
                              CompareAssignments(gt, TopBeliefs(lin.beliefs),
                                                 scored_nodes)
                                  .f1,
                              5)
                        : "-");
      sweeps.push_back(lin.converged ? std::to_string(lin.iterations) : "-");
    }
    row.insert(row.end(), sweeps.begin(), sweeps.end());
    table.AddRow(row);
  }
  table.Print();
  std::printf(
      "\n(near the threshold LinBP needs more sweeps — its operator's\n"
      "spectral radius is closer to 1 at the same eps — while accuracy\n"
      "differences against BP stay within ties; the echo term mainly\n"
      "matters for the convergence *criterion*, Eq. 16 vs Eq. 17)\n");
  return 0;
}
