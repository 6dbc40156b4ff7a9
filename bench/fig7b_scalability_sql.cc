// Experiment E5 (Fig. 7b): runtime of LinBP vs SBP vs Delta-SBP on the
// relational engine (the PostgreSQL stand-in) across Kronecker graph sizes.
// LinBP runs 5 iterations, SBP runs to termination, Delta-SBP applies a
// batch of new explicit beliefs for 1 permille of the nodes on top of the
// initial 5% (the paper's update protocol).

// --check (a CTest regression guard): the figure's speedup claim only
// means anything if Delta-SBP computes the same beliefs as a from-scratch
// SBP — asserts that parity at 1e-9 on graph #1 with the paper's update
// protocol (batch of new beliefs on top of an initial seed set).

#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/coupling.h"
#include "src/graph/beliefs.h"
#include "src/relational/linbp_sql.h"
#include "src/relational/ops.h"
#include "src/relational/sbp_sql.h"
#include "src/util/table_printer.h"

namespace {

int RunCheck() {
  using namespace linbp;
  const Graph graph = bench::PaperGraph(1);
  const std::int64_t n = graph.num_nodes();
  const CouplingMatrix coupling = KroneckerExperimentCoupling();
  const Table a = MakeAdjacencyTable(graph);
  const Table h = MakeCouplingTable(coupling.residual());
  // One seeded pool split into an initial set and a later batch, so the
  // incremental and the scratch run end with identical explicit beliefs.
  const std::int64_t total = bench::FivePercent(n) + bench::OnePermille(n);
  const SeededBeliefs all = SeedPaperBeliefs(n, 3, total, 2001);
  const std::int64_t num_old = bench::FivePercent(n);
  const std::vector<std::int64_t> old_nodes(
      all.explicit_nodes.begin(), all.explicit_nodes.begin() + num_old);
  const std::vector<std::int64_t> new_nodes(
      all.explicit_nodes.begin() + num_old, all.explicit_nodes.end());

  SbpSql incremental(a, MakeBeliefTable(all.residuals, old_nodes), h);
  incremental.AddExplicitBeliefs(MakeBeliefTable(all.residuals, new_nodes));
  const SbpSql scratch(
      a, MakeBeliefTable(all.residuals, all.explicit_nodes), h);

  const DenseMatrix delta =
      BeliefsFromTable(incremental.beliefs(), n, 3);
  const DenseMatrix full = BeliefsFromTable(scratch.beliefs(), n, 3);
  const double diff = delta.MaxAbsDiff(full);
  const bool ok = diff <= 1e-9;
  std::printf("fig7b dSBP vs scratch SBP on graph #1: max abs diff %.3e "
              "(want <= 1e-9)  %s\n",
              diff, ok ? "OK" : "FAIL");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace linbp;
  const bench::Args args(argc, argv, {"check", "iterations", "max-graph"});
  const bench::MetricsDumpGuard metrics_guard(args);
  if (args.Has("check")) return RunCheck();
  const int max_graph = static_cast<int>(args.Int("max-graph", 5));
  const int iterations = static_cast<int>(args.Int("iterations", 5));
  const CouplingMatrix coupling = KroneckerExperimentCoupling();
  const double eps = 0.0005;

  std::printf("== Fig. 7b: relational-engine scalability ==\n\n");
  TablePrinter table({"#", "edges", "LinBP(SQL)", "SBP(SQL)", "dSBP(SQL)",
                      "LinBP/SBP", "SBP/dSBP"});
  for (int index = 1; index <= max_graph; ++index) {
    const Graph graph = bench::PaperGraph(index);
    const std::int64_t n = graph.num_nodes();
    const SeededBeliefs seeded = bench::PaperSeeds(graph, 2000 + index);
    const Table a = MakeAdjacencyTable(graph);
    const Table e = MakeBeliefTable(seeded.residuals, seeded.explicit_nodes);
    const Table h = MakeCouplingTable(coupling.ScaledResidual(eps));
    const Table h_unscaled = MakeCouplingTable(coupling.residual());

    const double linbp_seconds = bench::TimeSeconds(
        [&] { RunLinBpSql(a, e, h, iterations); });
    double sbp_seconds = 0.0;
    {
      WallTimer timer;
      SbpSql sbp(a, e, h_unscaled);
      sbp_seconds = timer.Seconds();

      // Delta-SBP: new beliefs for 1 permille of all nodes.
      const SeededBeliefs update =
          SeedPaperBeliefs(n, 3, bench::OnePermille(n), 9000 + index);
      const Table en =
          MakeBeliefTable(update.residuals, update.explicit_nodes);
      const double delta_seconds =
          bench::TimeSeconds([&] { sbp.AddExplicitBeliefs(en); });

      const double edges = static_cast<double>(graph.num_directed_edges());
      (void)edges;
      table.AddRow({std::to_string(index),
                    TablePrinter::Int(graph.num_directed_edges()),
                    bench::FormatSeconds(linbp_seconds),
                    bench::FormatSeconds(sbp_seconds),
                    bench::FormatSeconds(delta_seconds),
                    TablePrinter::Num(linbp_seconds / sbp_seconds, 3),
                    TablePrinter::Num(sbp_seconds / delta_seconds, 3)});
    }
  }
  table.Print();
  std::printf("\n(paper: SBP ~10x faster than LinBP on SQL; dSBP another\n"
              "~2.5x on the larger graphs; all scale linearly in edges)\n");
  return 0;
}
