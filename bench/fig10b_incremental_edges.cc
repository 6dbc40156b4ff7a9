// Experiment E12 (Fig. 10b): Delta-SBP for edge insertions vs recompute
// from scratch, varying the fraction of new edges. The protocol keeps 10%
// of nodes explicit, holds out x% of the final edges, and either streams
// them through Algorithm 4 or rebuilds the state from scratch. Edge updates
// pay for wave propagation, so the incremental advantage fades much faster
// than for belief updates (the paper's crossover: ~3% new edges).
//
// --check: golden-value guardrail (the fig10b_golden_check CTest test).
// The figure's claim only stands if Delta-SBP computes the SAME beliefs
// as the recompute it is raced against, so the check streams a held-out
// edge fraction through Algorithm 4 and asserts the final belief table
// matches the from-scratch state bit-for-bit within 1e-9 — on a smaller
// graph than the timing run, so it is cheap enough for every CI pass.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/coupling.h"
#include "src/graph/beliefs.h"
#include "src/relational/linbp_sql.h"
#include "src/relational/sbp_sql.h"
#include "src/util/random.h"
#include "src/util/table_printer.h"

int main(int argc, char** argv) {
  using namespace linbp;
  const bench::Args args(argc, argv, {"check", "graph"});
  const bench::MetricsDumpGuard metrics_guard(args);
  const bool check = args.Has("check");
  const int graph_index =
      static_cast<int>(args.Int("graph", check ? 2 : 4));
  const Graph graph = bench::PaperGraph(graph_index);
  const std::int64_t n = graph.num_nodes();
  const CouplingMatrix coupling = KroneckerExperimentCoupling();
  const Table h = MakeCouplingTable(coupling.residual());
  const SeededBeliefs seeded = SeedPaperBeliefs(
      n, 3, std::max<std::int64_t>(1, n / 10), 8000 + graph_index);
  const Table e = MakeBeliefTable(seeded.residuals, seeded.explicit_nodes);

  // Deterministic shuffle so the held-out fraction is a uniform sample of
  // the edges rather than the tail of the generator's enumeration order.
  std::vector<Edge> all_edges = graph.edges();
  {
    Rng rng(31337);
    for (std::size_t i = all_edges.size(); i > 1; --i) {
      std::swap(all_edges[i - 1], all_edges[rng.NextBounded(i)]);
    }
  }
  const auto total = static_cast<std::int64_t>(all_edges.size());

  if (check) {
    int failures = 0;
    for (const int percent : {2, 5}) {
      const std::int64_t num_new = total * percent / 100;
      const std::int64_t num_old = total - num_new;
      const Graph start(n, std::vector<Edge>(all_edges.begin(),
                                             all_edges.begin() + num_old));
      SbpSql incremental(MakeAdjacencyTable(start), e, h);
      Table an({"s", "t", "w"},
               {ColumnType::kInt, ColumnType::kInt, ColumnType::kDouble});
      for (std::int64_t i = num_old; i < total; ++i) {
        an.AppendRow({Value::Int(all_edges[i].u),
                      Value::Int(all_edges[i].v),
                      Value::Double(all_edges[i].weight)});
      }
      incremental.AddEdges(an);
      const SbpSql scratch(MakeAdjacencyTable(graph), e, h);
      const DenseMatrix delta_beliefs =
          BeliefsFromTable(incremental.beliefs(), n, 3);
      const DenseMatrix scratch_beliefs =
          BeliefsFromTable(scratch.beliefs(), n, 3);
      double max_diff = 0.0;
      for (std::int64_t v = 0; v < n; ++v) {
        for (std::int64_t c = 0; c < 3; ++c) {
          max_diff = std::max(max_diff,
                              std::abs(delta_beliefs.At(v, c) -
                                       scratch_beliefs.At(v, c)));
        }
      }
      const bool ok = max_diff <= 1e-9 &&
                      incremental.beliefs().num_rows() ==
                          scratch.beliefs().num_rows() &&
                      incremental.beliefs().num_rows() > 0;
      std::printf("graph #%d, %d%% new edges (%lld): dSBP vs scratch "
                  "max |diff| %.3g (want <= 1e-9), %lld belief rows  %s\n",
                  graph_index, percent, static_cast<long long>(num_new),
                  max_diff,
                  static_cast<long long>(incremental.beliefs().num_rows()),
                  ok ? "OK" : "FAIL");
      if (!ok) ++failures;
    }
    if (failures > 0) {
      std::printf("%d golden check(s) FAILED\n", failures);
      return 1;
    }
    std::printf("all golden checks passed\n");
    return 0;
  }

  std::printf("== Fig. 10b: dSBP(edges) vs SBP recompute, graph #%d "
              "(%lld undirected edges) ==\n\n",
              graph_index, static_cast<long long>(total));
  TablePrinter table({"new edges", "count", "dSBP", "SBP scratch",
                      "speedup"});
  for (const int percent : {1, 2, 3, 5, 8, 10}) {
    const std::int64_t num_new = total * percent / 100;
    const std::int64_t num_old = total - num_new;
    const std::vector<Edge> old_edges(all_edges.begin(),
                                      all_edges.begin() + num_old);
    const Graph start(n, old_edges);

    SbpSql incremental(MakeAdjacencyTable(start), e, h);
    Table an({"s", "t", "w"},
             {ColumnType::kInt, ColumnType::kInt, ColumnType::kDouble});
    for (std::int64_t i = num_old; i < total; ++i) {
      an.AppendRow({Value::Int(all_edges[i].u), Value::Int(all_edges[i].v),
                    Value::Double(all_edges[i].weight)});
    }
    const double delta_seconds =
        bench::TimeSeconds([&] { incremental.AddEdges(an); });

    const double scratch_seconds = bench::TimeSeconds(
        [&] { SbpSql scratch(MakeAdjacencyTable(graph), e, h); });

    table.AddRow({std::to_string(percent) + "%", TablePrinter::Int(num_new),
                  bench::FormatSeconds(delta_seconds),
                  bench::FormatSeconds(scratch_seconds),
                  TablePrinter::Num(scratch_seconds / delta_seconds, 3)});
  }
  table.Print();
  std::printf("\n(paper: edge updates only pay off for small fractions —\n"
              "crossover around ~3%% of the edges — while belief updates\n"
              "stayed profitable up to ~50%%, cf. fig7e)\n");
  return 0;
}
