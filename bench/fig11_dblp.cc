// Experiment E13 (Fig. 11): the DBLP experiment on the synthetic
// heterogeneous bibliographic graph (4 classes, ~10.4% labeled, homophily
// coupling of Fig. 11a). F1 of LinBP / LinBP* / SBP against BP as ground
// truth across the eps_H sweep. The paper's result: > 0.9 F1 while BP
// converges, with LinBP tracking BP almost exactly; SBP slightly lower
// due to ties.

#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/bp.h"
#include "src/core/convergence.h"
#include "src/core/coupling.h"
#include "src/core/labeling.h"
#include "src/core/linbp.h"
#include "src/core/sbp.h"
#include "src/graph/beliefs.h"
#include "src/graph/dblp.h"
#include "src/util/table_printer.h"

int main(int argc, char** argv) {
  using namespace linbp;
  const bench::Args args(argc, argv, {"full"});
  const bench::MetricsDumpGuard metrics_guard(args);

  DblpConfig config;
  if (!args.Has("full")) {
    // Scaled-down default so the sweep finishes in seconds; --full runs the
    // paper-sized graph (~36k nodes, ~300k directed edges).
    config.num_papers = 3000;
    config.num_authors = 3100;
    config.num_terms = 1600;
  }
  const DblpGraph dblp = MakeSyntheticDblp(config);
  const Graph& graph = dblp.graph;
  const std::int64_t n = graph.num_nodes();
  const CouplingMatrix coupling = DblpCoupling();

  std::printf("== Fig. 11: synthetic DBLP (%lld nodes, %lld directed edges, "
              "%zu labeled) ==\n\n",
              static_cast<long long>(n),
              static_cast<long long>(graph.num_directed_edges()),
              dblp.labeled_nodes.size());
  const double exact =
      ExactEpsilonThreshold(graph, coupling, LinBpVariant::kLinBp);
  std::printf("Lemma 8 exact eps threshold: %.3e (paper: ~1.3e-3)\n\n",
              exact);

  DenseMatrix explicit_beliefs(n, 4);
  for (const std::int64_t v : dblp.labeled_nodes) {
    const auto row = ExplicitResidualForClass(4, dblp.node_class[v], 0.1);
    for (int c = 0; c < 4; ++c) explicit_beliefs.At(v, c) = row[c];
  }

  const SbpResult sbp = RunSbp(graph, coupling.residual(), explicit_beliefs,
                               dblp.labeled_nodes);
  const TopBeliefAssignment sbp_top = TopBeliefs(sbp.beliefs);

  TablePrinter table({"eps_H", "LinBP F1", "LinBP* F1", "SBP F1"});
  const std::vector<double> eps_grid = {1e-7, 1e-6, 1e-5, 1e-4, 3e-4,
                                        6e-4, 1e-3, 2e-3};
  for (const double eps : eps_grid) {
    // Ground truth: BP at this eps.
    BpOptions bp_options;
    bp_options.max_iterations = 300;
    bp_options.tolerance = 1e-12;
    const BpResult bp =
        RunBp(graph, coupling.ScaledStochastic(eps),
              ResidualToProbability(explicit_beliefs), bp_options);
    if (!bp.converged) {
      table.AddRow({TablePrinter::Num(eps, 2), "-", "-", "-"});
      continue;
    }
    const TopBeliefAssignment gt =
        TopBeliefs(ProbabilityToResidual(bp.beliefs));

    std::vector<std::string> row = {TablePrinter::Num(eps, 2)};
    for (const LinBpVariant variant :
         {LinBpVariant::kLinBp, LinBpVariant::kLinBpStar}) {
      LinBpOptions options;
      options.schedule = SweepSchedule::kJacobi;  // the paper's iteration
      options.variant = variant;
      options.max_iterations = 300;
      options.tolerance = 1e-16;
      const LinBpResult lin = RunLinBp(graph, coupling.ScaledResidual(eps),
                                       explicit_beliefs, options);
      row.push_back(lin.converged
                        ? TablePrinter::Num(
                              CompareAssignments(gt, TopBeliefs(lin.beliefs))
                                  .f1,
                              5)
                        : "-");
    }
    row.push_back(TablePrinter::Num(CompareAssignments(gt, sbp_top).f1, 5));
    table.AddRow(row);
  }
  table.Print();
  std::printf("\n(paper: LinBP/LinBP* F1 ~1.0 while BP converges; SBP above\n"
              "0.95 but below LinBP because of tie-induced extra labels)\n");
  return 0;
}
