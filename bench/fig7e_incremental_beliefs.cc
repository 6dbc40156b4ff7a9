// Experiment E8 (Fig. 7e): Delta-SBP vs recompute-from-scratch on the
// relational engine for a varying fraction of new explicit beliefs. The
// protocol fixes 10% explicit nodes *after* the update and varies which
// fraction of them is new: at x% new, the state starts with (10 - x/10)%
// and receives the remaining x/10 % as a batch. The paper's crossover:
// incremental wins below ~50% new beliefs.

// --check (a CTest regression guard): the crossover curve is only valid
// if every point compares equal computations — asserts dSBP-vs-scratch
// belief parity at 1e-9 for the 40% point of the protocol on graph #2.

#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/coupling.h"
#include "src/graph/beliefs.h"
#include "src/relational/linbp_sql.h"
#include "src/relational/sbp_sql.h"
#include "src/util/table_printer.h"

namespace {

int RunCheck() {
  using namespace linbp;
  const Graph graph = bench::PaperGraph(2);
  const std::int64_t n = graph.num_nodes();
  const CouplingMatrix coupling = KroneckerExperimentCoupling();
  const Table a = MakeAdjacencyTable(graph);
  const Table h = MakeCouplingTable(coupling.residual());
  const std::int64_t total_explicit = std::max<std::int64_t>(1, n / 10);
  const SeededBeliefs all = SeedPaperBeliefs(n, 3, total_explicit, 5002);
  const std::int64_t num_new = total_explicit * 40 / 100;
  const std::int64_t num_old = total_explicit - num_new;
  const std::vector<std::int64_t> old_nodes(
      all.explicit_nodes.begin(), all.explicit_nodes.begin() + num_old);
  const std::vector<std::int64_t> new_nodes(
      all.explicit_nodes.begin() + num_old, all.explicit_nodes.end());

  SbpSql incremental(a, MakeBeliefTable(all.residuals, old_nodes), h);
  incremental.AddExplicitBeliefs(MakeBeliefTable(all.residuals, new_nodes));
  const SbpSql scratch(
      a, MakeBeliefTable(all.residuals, all.explicit_nodes), h);
  const double diff =
      BeliefsFromTable(incremental.beliefs(), n, 3)
          .MaxAbsDiff(BeliefsFromTable(scratch.beliefs(), n, 3));
  const bool ok = diff <= 1e-9;
  std::printf("fig7e dSBP (40%% new) vs scratch on graph #2: max abs diff "
              "%.3e (want <= 1e-9)  %s\n",
              diff, ok ? "OK" : "FAIL");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace linbp;
  const bench::Args args(argc, argv, {"check", "graph"});
  const bench::MetricsDumpGuard metrics_guard(args);
  if (args.Has("check")) return RunCheck();
  const int graph_index = static_cast<int>(args.Int("graph", 4));
  const Graph graph = bench::PaperGraph(graph_index);
  const std::int64_t n = graph.num_nodes();
  const CouplingMatrix coupling = KroneckerExperimentCoupling();
  const Table a = MakeAdjacencyTable(graph);
  const Table h = MakeCouplingTable(coupling.residual());

  // 10% explicit after the update, seeded once so every configuration works
  // with the same final belief set.
  const std::int64_t total_explicit =
      std::max<std::int64_t>(1, n / 10);
  const SeededBeliefs all =
      SeedPaperBeliefs(n, 3, total_explicit, 5000 + graph_index);

  std::printf("== Fig. 7e: dSBP vs SBP recompute, graph #%d "
              "(%lld nodes, 10%% explicit after update) ==\n\n",
              graph_index, static_cast<long long>(n));
  TablePrinter table({"new fraction", "initial expl.", "new expl.",
                      "dSBP", "SBP scratch", "speedup"});
  for (const int percent_new : {10, 20, 40, 50, 60, 80, 100}) {
    const std::int64_t num_new = total_explicit * percent_new / 100;
    const std::int64_t num_old = total_explicit - num_new;
    const std::vector<std::int64_t> old_nodes(
        all.explicit_nodes.begin(), all.explicit_nodes.begin() + num_old);
    const std::vector<std::int64_t> new_nodes(
        all.explicit_nodes.begin() + num_old, all.explicit_nodes.end());

    // Incremental: bootstrap with the old labels, then add the batch.
    SbpSql incremental(a, MakeBeliefTable(all.residuals, old_nodes), h);
    const double delta_seconds = bench::TimeSeconds([&] {
      incremental.AddExplicitBeliefs(
          MakeBeliefTable(all.residuals, new_nodes));
    });

    // From scratch with the full final label set.
    const double scratch_seconds = bench::TimeSeconds([&] {
      SbpSql scratch(a, MakeBeliefTable(all.residuals, all.explicit_nodes),
                     h);
    });

    table.AddRow({std::to_string(percent_new) + "%",
                  TablePrinter::Int(num_old), TablePrinter::Int(num_new),
                  bench::FormatSeconds(delta_seconds),
                  bench::FormatSeconds(scratch_seconds),
                  TablePrinter::Num(scratch_seconds / delta_seconds, 3)});
  }
  table.Print();
  std::printf("\n(paper: incremental updates win below ~50%% new beliefs\n"
              "and approach the scratch cost as the fraction grows)\n");
  return 0;
}
