// Ablation: which norm makes the Lemma 9 sufficient bound tight?
//
// Lemma 9 upper-bounds the spectral radius with any sub-multiplicative
// norm and recommends minimizing over {Frobenius, induced-1, induced-inf}.
// This harness reports, per graph family, the eps_H bound each individual
// norm yields for LinBP, the combined (min) bound, the simpler Lemma 23
// bound, and the exact Lemma 8 threshold — quantifying how much of the
// exact region each choice certifies.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/convergence.h"
#include "src/core/coupling.h"
#include "src/graph/dblp.h"
#include "src/la/norms.h"
#include "src/util/table_printer.h"

namespace {

using namespace linbp;

// Lemma 9 LinBP bound for one specific norm of A / D / Hhat_o.
double BoundWithNorm(const Graph& graph, const CouplingMatrix& coupling,
                     double (*matrix_norm)(const SparseMatrix&),
                     double (*dense_norm)(const DenseMatrix&)) {
  const double a = matrix_norm(graph.adjacency());
  const double h = dense_norm(coupling.residual());
  const DenseMatrix degrees =
      DenseMatrix::Diagonal(graph.weighted_degrees());
  const double d = dense_norm(degrees);
  if (d == 0.0) return 1.0 / (a * h);
  return (std::sqrt(a * a + 4.0 * d) - a) / (2.0 * d) / h;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args(argc, argv, {"max-graph"});
  const bench::MetricsDumpGuard metrics_guard(args);
  const int max_graph = static_cast<int>(args.Int("max-graph", 3));

  std::printf("== Ablation: Lemma 9 norm choice (LinBP bound as %% of the "
              "exact Lemma 8 threshold) ==\n\n");
  const CouplingMatrix coupling = KroneckerExperimentCoupling();

  struct NamedGraph {
    std::string name;
    Graph graph;
  };
  std::vector<NamedGraph> graphs;
  graphs.push_back({"torus", TorusExampleGraph()});
  graphs.push_back({"grid-12x12", GridGraph(12, 12)});
  graphs.push_back({"random n=200", RandomConnectedGraph(200, 400, 3)});
  for (int index = 1; index <= max_graph; ++index) {
    graphs.push_back({"kronecker #" + std::to_string(index),
                      bench::PaperGraph(index)});
  }
  {
    DblpConfig config;
    config.num_papers = 1200;
    config.num_authors = 1250;
    config.num_terms = 650;
    graphs.push_back({"dblp (small)", MakeSyntheticDblp(config).graph});
  }

  TablePrinter table({"graph", "exact eps", "Frobenius", "induced-1",
                      "induced-inf", "min (Lemma 9)", "Lemma 23"});
  for (const auto& [name, graph] : graphs) {
    const double exact =
        ExactEpsilonThreshold(graph, coupling, LinBpVariant::kLinBp);
    auto percent = [&](double bound) {
      return TablePrinter::Num(100.0 * bound / exact, 3) + "%";
    };
    const double frobenius = BoundWithNorm(
        graph, coupling,
        static_cast<double (*)(const SparseMatrix&)>(&FrobeniusNorm),
        static_cast<double (*)(const DenseMatrix&)>(&FrobeniusNorm));
    const double induced1 = BoundWithNorm(
        graph, coupling,
        static_cast<double (*)(const SparseMatrix&)>(&Induced1Norm),
        static_cast<double (*)(const DenseMatrix&)>(&Induced1Norm));
    const double induced_inf = BoundWithNorm(
        graph, coupling,
        static_cast<double (*)(const SparseMatrix&)>(&InducedInfNorm),
        static_cast<double (*)(const DenseMatrix&)>(&InducedInfNorm));
    const double combined =
        SufficientEpsilonBound(graph, coupling, LinBpVariant::kLinBp);
    const double simple = SimpleEpsilonBound(graph, coupling);
    table.AddRow({name, TablePrinter::Num(exact, 4), percent(frobenius),
                  percent(induced1), percent(induced_inf), percent(combined),
                  percent(simple)});
  }
  table.Print();
  std::printf(
      "\n(the best single norm depends on the degree distribution: the\n"
      "induced norms win on regular-ish graphs, Frobenius on hub-heavy\n"
      "ones; minimizing per matrix — the paper's recommendation — always\n"
      "certifies the largest region, and Lemma 23 is uniformly looser)\n");
  return 0;
}
