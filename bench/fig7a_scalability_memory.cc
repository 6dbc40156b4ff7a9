// Experiment E4 (Fig. 7a): runtime of standard BP vs LinBP in the
// in-memory implementation across Kronecker graph sizes, 5 iterations each
// (the paper's timing protocol). The headline claim: LinBP is orders of
// magnitude faster than BP at the same asymptotic (linear-in-edges)
// scaling; the paper's reference line is 100k edges/second.
//
// --check (a CTest regression guard): the figure's timing claim is
// hardware-bound, but its premise — both methods compute the SAME labels
// under the protocol — is not. Runs BP and LinBP to convergence on
// graph #2 and asserts their label agreement over nodes reachable from
// the explicit seeds stays at the recorded golden.

#include <cmath>
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/bp.h"
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
  const SeededBeliefs seeded = bench::PaperSeeds(graph, 1002);
  const double eps = 0.0005;

  BpOptions bp_options;
  bp_options.max_iterations = 500;
  bp_options.tolerance = 1e-13;
  const BpResult bp = RunBp(graph, coupling.ScaledStochastic(eps),
                            ResidualToProbability(seeded.residuals),
                            bp_options);
  LinBpOptions lin_options;
  lin_options.schedule = SweepSchedule::kJacobi;  // the paper's iteration
  lin_options.max_iterations = 500;
  lin_options.tolerance = 1e-16;
  const LinBpResult lin = RunLinBp(graph, coupling.ScaledResidual(eps),
                                   seeded.residuals, lin_options);
  if (!bp.converged || !lin.converged) {
    std::printf("fig7a check FAILED: BP converged=%d LinBP converged=%d\n",
                bp.converged, lin.converged);
    return 1;
  }
  // Score only nodes reachable from the seeds: unlabeled components
  // carry machine-noise "labels" in BP vs exact ties in LinBP.
  const std::vector<std::int64_t> geodesic =
      GeodesicNumbers(graph, seeded.explicit_nodes);
  std::vector<std::int64_t> scored;
  for (std::int64_t v = 0; v < graph.num_nodes(); ++v) {
    if (geodesic[v] != kUnreachable) scored.push_back(v);
  }
  const QualityMetrics quality = CompareAssignments(
      TopBeliefs(ProbabilityToResidual(bp.beliefs)), TopBeliefs(lin.beliefs),
      scored);
  // Golden from a serial run of this check (deterministic: seeded graph,
  // bit-identical kernels); tolerance absorbs cross-compiler rounding on
  // near-tie labels.
  constexpr double kGoldenF1 = 1.0;
  constexpr double kTolerance = 0.02;
  const bool ok = std::abs(quality.f1 - kGoldenF1) <= kTolerance;
  std::printf("fig7a LinBP~BP agreement on %zu reachable nodes: F1 %.4f "
              "want %.4f +/- %.2f  %s\n",
              scored.size(), quality.f1, kGoldenF1, kTolerance,
              ok ? "OK" : "FAIL");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace linbp;
  const bench::Args args(
      argc, argv, {"check", "iterations", "max-graph", "threads"});
  const bench::MetricsDumpGuard metrics_guard(args);
  if (args.Has("check")) return RunCheck();
  const int max_graph = static_cast<int>(args.Int("max-graph", 6));
  const int iterations = static_cast<int>(args.Int("iterations", 5));
  const exec::ExecContext ctx = bench::ExecFromArgs(args);
  const CouplingMatrix coupling = KroneckerExperimentCoupling();
  const double eps = 0.0005;  // inside the convergence region of Fig. 7f

  std::printf("== Fig. 7a: in-memory scalability, %d iterations, "
              "%d thread(s) ==\n\n",
              iterations, ctx.threads());
  TablePrinter table({"#", "edges", "BP", "LinBP", "BP/LinBP",
                      "BP e/s", "LinBP e/s"});
  for (int index = 1; index <= max_graph; ++index) {
    const Graph graph = bench::PaperGraph(index);
    const SeededBeliefs seeded = bench::PaperSeeds(graph, 1000 + index);
    const DenseMatrix priors = ResidualToProbability(seeded.residuals);
    const DenseMatrix h = coupling.ScaledStochastic(eps);
    const DenseMatrix hhat = coupling.ScaledResidual(eps);

    BpOptions bp_options;
    bp_options.max_iterations = iterations;
    bp_options.tolerance = 0.0;
    const double bp_seconds = bench::TimeSeconds(
        [&] { RunBp(graph, h, priors, bp_options); });

    LinBpOptions lin_options;
    lin_options.schedule = SweepSchedule::kJacobi;  // the paper's iteration
    lin_options.max_iterations = iterations;
    lin_options.tolerance = 0.0;
    lin_options.exec = ctx;
    const double lin_seconds = bench::TimeSeconds(
        [&] { RunLinBp(graph, hhat, seeded.residuals, lin_options); });

    const double edges = static_cast<double>(graph.num_directed_edges());
    table.AddRow({std::to_string(index),
                  TablePrinter::Int(graph.num_directed_edges()),
                  bench::FormatSeconds(bp_seconds),
                  bench::FormatSeconds(lin_seconds),
                  TablePrinter::Num(bp_seconds / lin_seconds, 3),
                  TablePrinter::Num(edges / bp_seconds, 3),
                  TablePrinter::Num(edges / lin_seconds, 3)});
  }
  table.Print();
  std::printf("\n(paper: BP/LinBP ratio grows to ~600x at graph #9; both\n"
              "scale linearly in edges; reference line 100k edges/s)\n");
  return 0;
}
