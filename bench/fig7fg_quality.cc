// Experiments E9/E10 (Fig. 7f/7g): label quality across the eps_H sweep.
//  * Fig. 7f: recall and precision of LinBP with BP as ground truth.
//  * Fig. 7g: recall/precision of SBP w.r.t. LinBP, and of LinBP* w.r.t.
//    LinBP (the latter two are equal since both are unique assignments).
// The vertical reference lines of the figures are the Lemma 9 (sufficient)
// and Lemma 8 (exact) thresholds, printed below.

// --check (a CTest regression guard): asserts the figures' quality
// claims at one eps inside the guaranteed-convergence region on
// graph #2 — LinBP must match BP's labels essentially exactly
// (recall = precision = 1 up to tolerance), and SBP~LinBP recall /
// precision must stay at their recorded goldens.

#include <cmath>
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
#include "src/util/table_printer.h"

namespace {

int RunCheck() {
  using namespace linbp;
  const Graph graph = bench::PaperGraph(2);
  const CouplingMatrix coupling = KroneckerExperimentCoupling();
  const SeededBeliefs seeded = bench::PaperSeeds(graph, 6002);
  const double eps = 1e-5;  // well inside the Lemma 9 region for graph #2
  int failures = 0;

  const SbpResult sbp = RunSbp(graph, coupling.residual(), seeded.residuals,
                               seeded.explicit_nodes);
  std::vector<std::int64_t> scored;
  for (std::int64_t v = 0; v < graph.num_nodes(); ++v) {
    if (sbp.geodesic[v] != kUnreachable) scored.push_back(v);
  }

  LinBpOptions options;
  options.schedule = SweepSchedule::kJacobi;  // the paper's iteration
  options.max_iterations = 500;
  options.tolerance = 1e-16;
  const LinBpResult lin = RunLinBp(graph, coupling.ScaledResidual(eps),
                                   seeded.residuals, options);
  BpOptions bp_options;
  bp_options.max_iterations = 500;
  bp_options.tolerance = 1e-13;
  const BpResult bp = RunBp(graph, coupling.ScaledStochastic(eps),
                            ResidualToProbability(seeded.residuals),
                            bp_options);
  if (!lin.converged || !bp.converged) {
    std::printf("fig7fg check FAILED: LinBP converged=%d BP converged=%d\n",
                lin.converged, bp.converged);
    return 1;
  }
  const TopBeliefAssignment lin_top = TopBeliefs(lin.beliefs);

  auto check = [&failures](const char* what, double got, double want,
                           double tolerance) {
    const bool ok = std::abs(got - want) <= tolerance;
    std::printf("fig7fg %-22s got %.4f want %.4f +/- %.3f  %s\n", what, got,
                want, tolerance, ok ? "OK" : "FAIL");
    if (!ok) ++failures;
  };
  // Fig. 7f claim: inside the guaranteed region LinBP reproduces BP.
  const QualityMetrics vs_bp = CompareAssignments(
      TopBeliefs(ProbabilityToResidual(bp.beliefs)), lin_top, scored);
  check("LinBP~BP recall", vs_bp.recall, 1.0, 0.001);
  check("LinBP~BP precision", vs_bp.precision, 1.0, 0.001);
  // Fig. 7g: SBP w.r.t. LinBP (goldens from a serial run; SBP's exact
  // ties drag precision below recall).
  const QualityMetrics vs_sbp =
      CompareAssignments(lin_top, TopBeliefs(sbp.beliefs), scored);
  check("SBP~LinBP recall", vs_sbp.recall, 1.0, 0.02);
  check("SBP~LinBP precision", vs_sbp.precision, 0.9979, 0.02);
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace linbp;
  const bench::Args args(argc, argv, {"check", "extra-digits", "graph"});
  const bench::MetricsDumpGuard metrics_guard(args);
  if (args.Has("check")) return RunCheck();
  const int graph_index = static_cast<int>(args.Int("graph", 4));
  const int extra_digits = static_cast<int>(args.Int("extra-digits", 0));
  const Graph graph = bench::PaperGraph(graph_index);
  const CouplingMatrix coupling = KroneckerExperimentCoupling();
  const SeededBeliefs seeded =
      bench::PaperSeeds(graph, 6000 + graph_index, extra_digits);

  const double sufficient =
      SufficientEpsilonBound(graph, coupling, LinBpVariant::kLinBp);
  const double exact =
      ExactEpsilonThreshold(graph, coupling, LinBpVariant::kLinBp);
  std::printf("== Fig. 7f/7g: quality vs eps_H on graph #%d ==\n\n",
              graph_index);
  std::printf("Lemma 9 sufficient eps: %.3e   Lemma 8 exact eps: %.3e\n"
              "(the paper's graph #5 values: 2e-4 and 2.8e-3)\n\n",
              sufficient, exact);

  const SbpResult sbp = RunSbp(graph, coupling.residual(), seeded.residuals,
                               seeded.explicit_nodes);
  const TopBeliefAssignment sbp_top = TopBeliefs(sbp.beliefs);

  // Score only nodes reachable from explicit beliefs: nodes in unlabeled
  // components carry no information, and their "labels" are machine noise
  // around the uniform belief (BP) vs an exact three-way tie (LinBP/SBP).
  std::vector<std::int64_t> scored_nodes;
  for (std::int64_t v = 0; v < graph.num_nodes(); ++v) {
    if (sbp.geodesic[v] != kUnreachable) scored_nodes.push_back(v);
  }
  std::printf("scoring %zu of %lld nodes (reachable from explicit "
              "beliefs)\n\n",
              scored_nodes.size(),
              static_cast<long long>(graph.num_nodes()));

  TablePrinter table({"eps_H", "LinBP~BP r", "LinBP~BP p", "LinBP*~LinBP r=p",
                      "SBP~LinBP r", "SBP~LinBP p"});
  const std::vector<double> eps_grid = {1e-8, 1e-7, 1e-6, 1e-5, 1e-4,
                                        2e-4, 5e-4, 1e-3, 2e-3, 5e-3};
  for (const double eps : eps_grid) {
    LinBpOptions options;
    options.schedule = SweepSchedule::kJacobi;  // the paper's iteration
    options.max_iterations = 500;
    options.tolerance = 1e-16;
    const LinBpResult lin = RunLinBp(graph, coupling.ScaledResidual(eps),
                                     seeded.residuals, options);
    std::vector<std::string> row = {TablePrinter::Num(eps, 2)};
    if (!lin.converged) {
      table.AddRow({row[0], "-", "-", "-", "-", "-"});
      continue;
    }
    const TopBeliefAssignment lin_top = TopBeliefs(lin.beliefs);

    // Fig. 7f: LinBP w.r.t. BP.
    std::string r_bp = "-";
    std::string p_bp = "-";
    BpOptions bp_options;
    bp_options.max_iterations = 500;
    bp_options.tolerance = 1e-13;
    const BpResult bp =
        RunBp(graph, coupling.ScaledStochastic(eps),
              ResidualToProbability(seeded.residuals), bp_options);
    if (bp.converged) {
      const QualityMetrics quality = CompareAssignments(
          TopBeliefs(ProbabilityToResidual(bp.beliefs)), lin_top,
          scored_nodes);
      r_bp = TablePrinter::Num(quality.recall, 5);
      p_bp = TablePrinter::Num(quality.precision, 5);
    }

    // Fig. 7g: LinBP* w.r.t. LinBP (unique assignments: r == p).
    options.variant = LinBpVariant::kLinBpStar;
    const LinBpResult star = RunLinBp(graph, coupling.ScaledResidual(eps),
                                      seeded.residuals, options);
    const std::string star_rp =
        star.converged
            ? TablePrinter::Num(
                  CompareAssignments(lin_top, TopBeliefs(star.beliefs),
                                     scored_nodes)
                      .recall,
                  5)
            : "-";

    // Fig. 7g: SBP w.r.t. LinBP.
    const QualityMetrics sbp_quality =
        CompareAssignments(lin_top, sbp_top, scored_nodes);
    table.AddRow({row[0], r_bp, p_bp, star_rp,
                  TablePrinter::Num(sbp_quality.recall, 5),
                  TablePrinter::Num(sbp_quality.precision, 5)});
  }
  table.Print();
  std::printf(
      "\n(paper: LinBP matches BP exactly inside the guaranteed range,\n"
      "accuracy > 99.9%% overall; SBP~LinBP recall ~0.995 / precision\n"
      "~0.978 with SBP's extra tied labels dragging precision below\n"
      "recall; --extra-digits=2 applies the paper's tie-avoidance remedy)\n");
  return 0;
}
