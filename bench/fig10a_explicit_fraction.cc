// Experiment E11 (Fig. 10a): runtime of LinBP vs SBP on the relational
// engine as the fraction of explicit nodes grows. LinBP gets slightly
// slower (denser belief tables mean larger joins every iteration) while
// SBP gets slightly faster (fewer geodesic levels to traverse).

#include <cstdio>

#include "bench/bench_common.h"
#include "src/core/coupling.h"
#include "src/graph/beliefs.h"
#include "src/relational/linbp_sql.h"
#include "src/relational/sbp_sql.h"
#include "src/util/table_printer.h"

int main(int argc, char** argv) {
  using namespace linbp;
  const bench::Args args(argc, argv, {"graph", "iterations"});
  const bench::MetricsDumpGuard metrics_guard(args);
  const int graph_index = static_cast<int>(args.Int("graph", 4));
  const int iterations = static_cast<int>(args.Int("iterations", 5));
  const Graph graph = bench::PaperGraph(graph_index);
  const std::int64_t n = graph.num_nodes();
  const CouplingMatrix coupling = KroneckerExperimentCoupling();
  const double eps = 0.0005;
  const Table a = MakeAdjacencyTable(graph);
  const Table h_scaled = MakeCouplingTable(coupling.ScaledResidual(eps));
  const Table h_unscaled = MakeCouplingTable(coupling.residual());

  std::printf("== Fig. 10a: runtime vs fraction of explicit nodes, "
              "graph #%d ==\n\n",
              graph_index);
  TablePrinter table({"explicit", "LinBP(SQL)", "SBP(SQL)"});
  for (const int percent : {5, 10, 20, 40, 60, 80}) {
    const std::int64_t num_explicit =
        std::max<std::int64_t>(1, n * percent / 100);
    const SeededBeliefs seeded =
        SeedPaperBeliefs(n, 3, num_explicit, 7000 + percent);
    const Table e = MakeBeliefTable(seeded.residuals, seeded.explicit_nodes);

    const double linbp_seconds = bench::TimeSeconds(
        [&] { RunLinBpSql(a, e, h_scaled, iterations); });
    const double sbp_seconds =
        bench::TimeSeconds([&] { SbpSql sbp(a, e, h_unscaled); });

    table.AddRow({std::to_string(percent) + "%",
                  bench::FormatSeconds(linbp_seconds),
                  bench::FormatSeconds(sbp_seconds)});
  }
  table.Print();
  std::printf("\n(paper: LinBP drifts slightly up, SBP slightly down as\n"
              "explicit beliefs densify; both effects are minor)\n");
  return 0;
}
