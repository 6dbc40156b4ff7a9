// Experiment E3 (Fig. 6a): the synthetic Kronecker graph family used by all
// scalability experiments. Graph #g is the (g+4)-th Kronecker power of the
// path P3, giving 3^(g+4) nodes and 4^(g+4) adjacency entries; the paper
// seeds 5% of the nodes with explicit beliefs (and updates 1 permille).
//
// --check: golden-value guardrail (the fig6_golden_check CTest test).
// The family is closed-form, so the goldens are exact hard-coded values:
// graph #g must have 3^(g+4) nodes and 4^(g+4) stored adjacency entries
// (the paper's Fig. 6a row for #1: 243 nodes, 1 024 edges), and the
// Sect. 7 seeding helpers must reproduce the recorded explicit counts.

#include <algorithm>
#include <cstdio>

#include "bench/bench_common.h"
#include "src/util/table_printer.h"

int main(int argc, char** argv) {
  using namespace linbp;
  const bench::Args args(argc, argv, {"check", "max-graph"});
  const bench::MetricsDumpGuard metrics_guard(args);
  // Graph #7 has 4.2M adjacency entries; fine to *generate* by default.
  const int max_graph = static_cast<int>(args.Int("max-graph", 7));

  if (args.Has("check")) {
    // Hard-coded goldens (paper Fig. 6a / Sect. 7), NOT recomputed from
    // the generator's or bench_common's formulas — a regression in
    // either must fail the check, so nothing here may share code with
    // what it guards.
    struct Golden {
      std::int64_t nodes;
      std::int64_t entries;
      std::int64_t five_percent;
      std::int64_t one_permille;
    };
    const Golden goldens[] = {
        {243, 1024, 12, 1},        // graph #1 (the paper's example row)
        {729, 4096, 36, 1},        // #2
        {2187, 16384, 109, 2},     // #3
        {6561, 65536, 328, 6},     // #4
    };
    const int checkable =
        static_cast<int>(sizeof(goldens) / sizeof(goldens[0]));
    int failures = 0;
    for (int index = 1; index <= std::min(max_graph, checkable); ++index) {
      const Graph graph = bench::PaperGraph(index);
      const Golden& want = goldens[index - 1];
      const bool ok = graph.num_nodes() == want.nodes &&
                      graph.num_directed_edges() == want.entries &&
                      bench::FivePercent(graph.num_nodes()) ==
                          want.five_percent &&
                      bench::OnePermille(graph.num_nodes()) ==
                          want.one_permille;
      std::printf("graph #%d  got %lld nodes / %lld entries / %lld / %lld "
                  "expl.  want %lld / %lld / %lld / %lld  %s\n",
                  index, static_cast<long long>(graph.num_nodes()),
                  static_cast<long long>(graph.num_directed_edges()),
                  static_cast<long long>(
                      bench::FivePercent(graph.num_nodes())),
                  static_cast<long long>(
                      bench::OnePermille(graph.num_nodes())),
                  static_cast<long long>(want.nodes),
                  static_cast<long long>(want.entries),
                  static_cast<long long>(want.five_percent),
                  static_cast<long long>(want.one_permille),
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

  std::printf("== Fig. 6a: synthetic Kronecker graphs ==\n\n");
  TablePrinter table({"#", "nodes n", "edges e", "e/n", "expl. 5%",
                      "expl. 1permille"});
  for (int index = 1; index <= max_graph; ++index) {
    const Graph graph = bench::PaperGraph(index);
    const std::int64_t n = graph.num_nodes();
    const std::int64_t e = graph.num_directed_edges();
    table.AddRow({std::to_string(index), TablePrinter::Int(n),
                  TablePrinter::Int(e),
                  TablePrinter::Num(static_cast<double>(e) /
                                        static_cast<double>(n),
                                    3),
                  TablePrinter::Int(bench::FivePercent(n)),
                  TablePrinter::Int(bench::OnePermille(n))});
  }
  table.Print();
  std::printf("\n(paper row for graph #1: 243 nodes, 1 024 edges, e/n 4.2, "
              "12 / 1 explicit)\n");
  return 0;
}
