// Experiment E14 (Appendix G): comparing the Mooij-Kappen sufficient bound
// for standard BP, c(H) * rho(A_edge) < 1, with the exact LinBP* criterion
// rho(Hhat) * rho(A) < 1, plus the appendix's empirical observation
// rho(A_edge) + 1 ~ rho(A) on realistic graphs.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/convergence.h"
#include "src/core/coupling.h"
#include "src/core/mooij.h"
#include "src/graph/dblp.h"
#include "src/util/table_printer.h"

int main(int argc, char** argv) {
  using namespace linbp;
  const bench::Args args(argc, argv, {"max-graph"});
  const bench::MetricsDumpGuard metrics_guard(args);
  const int max_graph = static_cast<int>(args.Int("max-graph", 3));

  std::printf("== Appendix G: BP vs LinBP* convergence bounds ==\n\n");

  struct NamedGraph {
    std::string name;
    Graph graph;
  };
  std::vector<NamedGraph> graphs;
  graphs.push_back({"torus (Fig. 5c)", TorusExampleGraph()});
  graphs.push_back({"cycle-32", CycleGraph(32)});
  graphs.push_back({"grid-8x8", GridGraph(8, 8)});
  for (int index = 1; index <= max_graph; ++index) {
    graphs.push_back({"kronecker #" + std::to_string(index),
                      bench::PaperGraph(index)});
  }
  {
    DblpConfig config;
    config.num_papers = 1500;
    config.num_authors = 1550;
    config.num_terms = 800;
    graphs.push_back({"dblp (small)", MakeSyntheticDblp(config).graph});
  }

  // Spectral structure: rho(A_edge) + 1 ~ rho(A) (and always <).
  std::printf("-- edge matrix vs adjacency spectral radii --\n");
  TablePrinter spectral({"graph", "rho(A)", "rho(A_edge)",
                         "rho(A_edge)+1", "ratio"});
  for (const auto& [name, graph] : graphs) {
    const double rho_a = AdjacencySpectralRadius(graph);
    const double rho_edge = EdgeMatrixSpectralRadius(graph);
    spectral.AddRow({name, TablePrinter::Num(rho_a, 4),
                     TablePrinter::Num(rho_edge, 4),
                     TablePrinter::Num(rho_edge + 1.0, 4),
                     TablePrinter::Num((rho_edge + 1.0) / rho_a, 4)});
  }
  spectral.Print();

  // Bound comparison at a common eps for the Fig. 6b coupling.
  const CouplingMatrix coupling = KroneckerExperimentCoupling();
  std::printf("\n-- bound values for Hhat = eps * Hhat_o (Fig. 6b), "
              "converges iff < 1 --\n");
  TablePrinter bounds({"graph", "eps", "c(H)", "Mooij c*rho(Ae)",
                       "LinBP* rho(H)rho(A)", "BP bound ok",
                       "LinBP* ok"});
  for (const auto& [name, graph] : graphs) {
    const double exact = ExactEpsilonThreshold(
        graph, coupling, LinBpVariant::kLinBpStar);
    const double eps = 0.8 * exact;  // just inside LinBP*'s region
    const BoundComparison comparison =
        CompareConvergenceBounds(graph, coupling.ScaledResidual(eps));
    bounds.AddRow({name, TablePrinter::Num(eps, 3),
                   TablePrinter::Num(comparison.coupling_constant, 4),
                   TablePrinter::Num(comparison.mooij_value, 4),
                   TablePrinter::Num(comparison.linbp_star_value, 4),
                   comparison.mooij_value < 1.0 ? "yes" : "no",
                   comparison.linbp_star_value < 1.0 ? "yes" : "no"});
  }
  bounds.Print();
  std::printf(
      "\n(appendix: neither bound subsumes the other; for multi-class\n"
      "couplings c(H) > rho(Hhat) usually makes the LinBP* criterion\n"
      "admit a wider range of Hhat)\n");
  return 0;
}
