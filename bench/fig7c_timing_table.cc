// Experiment E6 (Fig. 7c): the combined timing table over the largest
// graphs — BP and LinBP in memory, LinBP / SBP / Delta-SBP on the
// relational engine, plus the paper's ratio columns.

// --check (a CTest regression guard): the table compares the SAME
// computation across engines, so the in-memory LinBP and the relational
// RunLinBpSql must agree — asserts belief parity at 1e-9 after the
// 5-iteration protocol on graph #1.

#include <cstdio>

#include "bench/bench_common.h"
#include "src/core/bp.h"
#include "src/core/coupling.h"
#include "src/core/linbp.h"
#include "src/graph/beliefs.h"
#include "src/relational/linbp_sql.h"
#include "src/relational/sbp_sql.h"
#include "src/util/table_printer.h"

namespace {

int RunCheck() {
  using namespace linbp;
  const Graph graph = bench::PaperGraph(1);
  const std::int64_t n = graph.num_nodes();
  const CouplingMatrix coupling = KroneckerExperimentCoupling();
  const SeededBeliefs seeded = bench::PaperSeeds(graph, 3001);
  const double eps = 0.0005;
  const int iterations = 5;

  LinBpOptions options;
  options.schedule = SweepSchedule::kJacobi;  // the paper's iteration
  options.max_iterations = iterations;
  options.tolerance = 0.0;
  const LinBpResult memory = RunLinBp(graph, coupling.ScaledResidual(eps),
                                      seeded.residuals, options);
  const Table b = RunLinBpSql(
      MakeAdjacencyTable(graph),
      MakeBeliefTable(seeded.residuals, seeded.explicit_nodes),
      MakeCouplingTable(coupling.ScaledResidual(eps)), iterations);
  const double diff =
      memory.beliefs.MaxAbsDiff(BeliefsFromTable(b, n, 3));
  const bool ok = diff <= 1e-9;
  std::printf("fig7c LinBP memory vs SQL engine on graph #1: max abs diff "
              "%.3e (want <= 1e-9)  %s\n",
              diff, ok ? "OK" : "FAIL");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace linbp;
  const bench::Args args(argc, argv, {"check", "max-graph", "min-graph"});
  const bench::MetricsDumpGuard metrics_guard(args);
  if (args.Has("check")) return RunCheck();
  const int min_graph = static_cast<int>(args.Int("min-graph", 2));
  const int max_graph = static_cast<int>(args.Int("max-graph", 5));
  const int iterations = 5;
  const CouplingMatrix coupling = KroneckerExperimentCoupling();
  const double eps = 0.0005;

  std::printf("== Fig. 7c: timing of all methods (memory / relational) ==\n\n");
  TablePrinter table({"#", "BP[mem]", "LinBP[mem]", "LinBP[SQL]", "SBP[SQL]",
                      "dSBP[SQL]", "BP/LinBP", "LinBP/SBP", "SBP/dSBP"});
  for (int index = min_graph; index <= max_graph; ++index) {
    const Graph graph = bench::PaperGraph(index);
    const std::int64_t n = graph.num_nodes();
    const SeededBeliefs seeded = bench::PaperSeeds(graph, 3000 + index);

    BpOptions bp_options;
    bp_options.max_iterations = iterations;
    bp_options.tolerance = 0.0;
    const double bp_mem = bench::TimeSeconds([&] {
      RunBp(graph, coupling.ScaledStochastic(eps),
            ResidualToProbability(seeded.residuals), bp_options);
    });

    LinBpOptions lin_options;
    lin_options.schedule = SweepSchedule::kJacobi;  // the paper's iteration
    lin_options.max_iterations = iterations;
    lin_options.tolerance = 0.0;
    const double lin_mem = bench::TimeSeconds([&] {
      RunLinBp(graph, coupling.ScaledResidual(eps), seeded.residuals,
               lin_options);
    });

    const Table a = MakeAdjacencyTable(graph);
    const Table e = MakeBeliefTable(seeded.residuals, seeded.explicit_nodes);
    const double lin_sql = bench::TimeSeconds([&] {
      RunLinBpSql(a, e, MakeCouplingTable(coupling.ScaledResidual(eps)),
                  iterations);
    });

    WallTimer timer;
    SbpSql sbp(a, e, MakeCouplingTable(coupling.residual()));
    const double sbp_sql = timer.Seconds();
    const SeededBeliefs update =
        SeedPaperBeliefs(n, 3, bench::OnePermille(n), 9100 + index);
    const double dsbp_sql = bench::TimeSeconds([&] {
      sbp.AddExplicitBeliefs(
          MakeBeliefTable(update.residuals, update.explicit_nodes));
    });

    table.AddRow({std::to_string(index), bench::FormatSeconds(bp_mem),
                  bench::FormatSeconds(lin_mem),
                  bench::FormatSeconds(lin_sql),
                  bench::FormatSeconds(sbp_sql),
                  bench::FormatSeconds(dsbp_sql),
                  TablePrinter::Num(bp_mem / lin_mem, 3),
                  TablePrinter::Num(lin_sql / sbp_sql, 3),
                  TablePrinter::Num(sbp_sql / dsbp_sql, 3)});
  }
  table.Print();
  std::printf("\n(paper graph #5 row: BP 2 s / LinBP 0.03 s in JAVA; LinBP\n"
              "40 s / SBP 4 s / dSBP 0.5 s on PostgreSQL; ratios 60 / 10 /\n"
              "7.5 — absolute numbers differ, ratios keep their shape)\n");
  return 0;
}
