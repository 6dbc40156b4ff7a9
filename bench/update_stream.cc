// Mixed update-stream replay: warm incremental serving vs cold re-solves.
//
// For every built-in scenario family, GenerateUpdateTrace manufactures an
// interleaved add/delete/reweight/belief trace; the bench replays it
// against a warm LinBpState (the `linbp_cli serve` engine) measuring
// per-update latency by kind and the warm sweep counts, then solves the
// final graph cold for the comparison the figure-10b benches make for
// SBP. One JSON record per scenario feeds BENCH_dataset.json.
//
// --check: parity guardrail (the update_stream_parity_check CTest test).
// The warm numbers only mean anything if replay lands on the same fixed
// point as a from-scratch solve, so the check replays a trace on LinBP
// AND SBP states and asserts the final beliefs match the cold solves on
// the final graph within 1e-9.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/convergence.h"
#include "src/core/coupling.h"
#include "src/core/linbp_incremental.h"
#include "src/core/sbp.h"
#include "src/core/sbp_incremental.h"
#include "src/dataset/registry.h"
#include "src/dataset/update_stream.h"
#include "src/util/table_printer.h"

namespace {

using namespace linbp;

struct TraceProblem {
  dataset::Scenario scenario;
  dataset::UpdateTrace trace;
  Graph start_graph;
  Graph final_graph;
  DenseMatrix final_residuals;
  double eps = 0.0;
};

// Builds the trace and both endpoint graphs, and picks an eps convergent
// on BOTH (half the smaller exact threshold), mirroring `linbp_cli
// trace`.
bool BuildTraceProblem(const std::string& spec, std::int64_t num_ops,
                       std::uint64_t seed, const exec::ExecContext& ctx,
                       TraceProblem* out) {
  std::string error;
  auto scenario = dataset::MakeScenario(spec, &error, ctx);
  if (!scenario.has_value()) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return false;
  }
  out->scenario = std::move(*scenario);
  dataset::UpdateTraceOptions options;
  options.num_ops = num_ops;
  options.seed = seed;
  out->trace = dataset::GenerateUpdateTrace(out->scenario, options);
  const std::int64_t n = out->scenario.graph.num_nodes();
  out->start_graph = Graph(n, out->trace.start_edges);
  std::vector<Edge> final_edges = out->trace.start_edges;
  out->final_residuals = out->scenario.explicit_residuals;
  if (!dataset::ApplyUpdateOpsToProblem(out->trace.ops, n, &final_edges,
                                        &out->final_residuals, &error)) {
    std::fprintf(stderr, "error: generated trace is invalid: %s\n",
                 error.c_str());
    return false;
  }
  out->final_graph = Graph(n, final_edges);
  const CouplingMatrix coupling = out->scenario.Coupling();
  const double threshold = std::min(
      ExactEpsilonThreshold(out->start_graph, coupling, LinBpVariant::kLinBp),
      ExactEpsilonThreshold(out->final_graph, coupling,
                            LinBpVariant::kLinBp));
  out->eps = std::isfinite(threshold) ? 0.5 * threshold : 1.0;
  return true;
}

LinBpOptions TightOptions(const exec::ExecContext& ctx) {
  LinBpOptions options;
  options.max_iterations = 2000;
  options.tolerance = 1e-13;
  options.exec = ctx;
  return options;
}

int RunCheck(const exec::ExecContext& ctx) {
  const std::vector<std::string> suite = {
      "sbm:n=400,k=4,deg=8,mode=homophily,seed=3",
      "sbm:n=400,k=2,deg=8,mode=heterophily,seed=3",
      "rmat:scale=8,ef=6,k=3,seed=3",
      "fraud:users=200,products=100,seed=3",
      "dblp:papers=150,authors=160,terms=80,seed=3",
      "kronecker:g=2,seed=3",
  };
  int failures = 0;
  for (const std::string& spec : suite) {
    TraceProblem problem;
    if (!BuildTraceProblem(spec, /*num_ops=*/40, /*seed=*/11, ctx,
                           &problem)) {
      ++failures;
      continue;
    }
    const CouplingMatrix coupling = problem.scenario.Coupling();
    const DenseMatrix hhat = coupling.ScaledResidual(problem.eps);
    std::string error;

    // LinBP: warm replay vs cold solve of the final problem.
    LinBpState warm(problem.start_graph, hhat,
                    problem.scenario.explicit_residuals,
                    TightOptions(ctx));
    bool replay_ok = true;
    for (const dataset::UpdateOp& op : problem.trace.ops) {
      if (dataset::ApplyUpdateOp(op, &warm, &error) < 0) {
        std::fprintf(stderr, "error: LinBP replay rejected '%s': %s\n",
                     dataset::FormatUpdateOp(op).c_str(), error.c_str());
        replay_ok = false;
        break;
      }
    }
    const LinBpState cold(problem.final_graph, hhat, problem.final_residuals,
                          TightOptions(ctx));
    const double linbp_diff =
        replay_ok ? warm.beliefs().MaxAbsDiff(cold.beliefs()) : 1.0;

    // SBP: warm replay vs from-scratch run on the final graph.
    SbpState sbp = SbpState::FromGraph(
        problem.start_graph, coupling.residual(),
        problem.scenario.explicit_residuals,
        problem.scenario.explicit_nodes, ctx);
    bool sbp_ok = true;
    for (const dataset::UpdateOp& op : problem.trace.ops) {
      if (dataset::ApplyUpdateOp(op, &sbp, &error) < 0) {
        std::fprintf(stderr, "error: SBP replay rejected '%s': %s\n",
                     dataset::FormatUpdateOp(op).c_str(), error.c_str());
        sbp_ok = false;
        break;
      }
    }
    std::vector<std::int64_t> final_explicit;
    for (std::int64_t v = 0; v < problem.final_residuals.rows(); ++v) {
      for (std::int64_t c = 0; c < problem.final_residuals.cols(); ++c) {
        if (problem.final_residuals.At(v, c) != 0.0) {
          final_explicit.push_back(v);
          break;
        }
      }
    }
    const SbpResult sbp_cold =
        RunSbp(problem.final_graph, coupling.residual(),
               problem.final_residuals, final_explicit, ctx);
    const double sbp_diff =
        sbp_ok ? sbp.beliefs().MaxAbsDiff(sbp_cold.beliefs) : 1.0;

    const bool ok =
        replay_ok && sbp_ok && linbp_diff <= 1e-9 && sbp_diff <= 1e-9;
    std::printf("%-46s linbp |diff| %.3g, sbp |diff| %.3g "
                "(want <= 1e-9)  %s\n",
                spec.c_str(), linbp_diff, sbp_diff, ok ? "OK" : "FAIL");
    if (!ok) ++failures;
  }
  if (failures > 0) {
    std::printf("%d parity check(s) FAILED\n", failures);
    return 1;
  }
  std::printf("all parity checks passed\n");
  return 0;
}

int RunBench(const exec::ExecContext& ctx, std::int64_t num_ops,
             std::uint64_t seed) {
  const std::vector<std::string> suite = {
      "sbm:n=4000,k=4,deg=8,mode=homophily,seed=3",
      "sbm:n=4000,k=2,deg=8,mode=heterophily,seed=3",
      "rmat:scale=12,ef=8,k=3,seed=3",
      "fraud:users=1200,products=600,seed=3",
      "dblp:papers=800,authors=900,terms=400,seed=3",
      "kronecker:g=3,seed=3",
  };
  std::printf("== update-stream replay: warm LinBpState vs cold solves "
              "==\n\n");
  TablePrinter table({"scenario", "ops", "warm sweeps", "cold sweeps",
                      "mean update", "cold solve", "speedup"});
  for (const std::string& spec : suite) {
    TraceProblem problem;
    if (!BuildTraceProblem(spec, num_ops, seed, ctx, &problem)) return 1;
    const CouplingMatrix coupling = problem.scenario.Coupling();
    const DenseMatrix hhat = coupling.ScaledResidual(problem.eps);
    std::string error;

    LinBpState warm(problem.start_graph, hhat,
                    problem.scenario.explicit_residuals,
                    TightOptions(ctx));
    std::int64_t kind_count[4] = {0, 0, 0, 0};
    double kind_seconds[4] = {0.0, 0.0, 0.0, 0.0};
    std::int64_t warm_sweeps = 0;
    double replay_seconds = 0.0;
    for (const dataset::UpdateOp& op : problem.trace.ops) {
      int sweeps = 0;
      const double seconds = bench::TimeSeconds(
          [&] { sweeps = dataset::ApplyUpdateOp(op, &warm, &error); });
      if (sweeps < 0) {
        std::fprintf(stderr, "error: replay rejected '%s': %s\n",
                     dataset::FormatUpdateOp(op).c_str(), error.c_str());
        return 1;
      }
      const int kind = static_cast<int>(op.kind);
      ++kind_count[kind];
      kind_seconds[kind] += seconds;
      warm_sweeps += sweeps;
      replay_seconds += seconds;
    }

    int cold_sweeps = 0;
    double cold_seconds = 0.0;
    DenseMatrix cold_beliefs;
    cold_seconds = bench::TimeSeconds([&] {
      LinBpState cold(problem.final_graph, hhat, problem.final_residuals,
                      TightOptions(ctx));
      cold_sweeps = cold.cold_start_iterations();
      cold_beliefs = cold.beliefs();
    });
    const double parity = warm.beliefs().MaxAbsDiff(cold_beliefs);

    const double mean_update =
        replay_seconds / static_cast<double>(problem.trace.ops.size());
    const double per_update_cold = cold_seconds;
    table.AddRow({problem.scenario.name,
                  TablePrinter::Int(
                      static_cast<std::int64_t>(problem.trace.ops.size())),
                  TablePrinter::Int(warm_sweeps),
                  TablePrinter::Int(cold_sweeps),
                  bench::FormatSeconds(mean_update),
                  bench::FormatSeconds(cold_seconds),
                  TablePrinter::Num(per_update_cold / mean_update, 2)});

    std::printf(
        "{\n"
        "  \"bench\": \"update_stream\",\n"
        "  \"scenario\": \"%s\",\n"
        "  \"nodes\": %lld,\n"
        "  \"start_edges\": %lld,\n"
        "  \"final_edges\": %lld,\n"
        "  \"threads\": %d,\n"
        "  \"ops\": %lld,\n"
        "  \"ops_add\": %lld,\n"
        "  \"ops_delete\": %lld,\n"
        "  \"ops_reweight\": %lld,\n"
        "  \"ops_belief\": %lld,\n"
        "  \"warm_total_sweeps\": %lld,\n"
        "  \"cold_solve_sweeps\": %d,\n"
        "  \"mean_update_seconds\": %.6g,\n"
        "  \"mean_add_seconds\": %.6g,\n"
        "  \"mean_delete_seconds\": %.6g,\n"
        "  \"mean_reweight_seconds\": %.6g,\n"
        "  \"mean_belief_seconds\": %.6g,\n"
        "  \"cold_solve_seconds\": %.6g,\n"
        "  \"cold_vs_warm_update\": %.2f,\n"
        "  \"warm_vs_cold_max_abs_diff\": %.3g,\n"
        "  %s\n"
        "}\n",
        problem.scenario.spec.c_str(),
        static_cast<long long>(problem.scenario.graph.num_nodes()),
        static_cast<long long>(problem.start_graph.num_undirected_edges()),
        static_cast<long long>(problem.final_graph.num_undirected_edges()),
        ctx.threads(),
        static_cast<long long>(problem.trace.ops.size()),
        static_cast<long long>(kind_count[0]),
        static_cast<long long>(kind_count[1]),
        static_cast<long long>(kind_count[2]),
        static_cast<long long>(kind_count[3]),
        static_cast<long long>(warm_sweeps), cold_sweeps, mean_update,
        kind_count[0] > 0 ? kind_seconds[0] / kind_count[0] : 0.0,
        kind_count[1] > 0 ? kind_seconds[1] / kind_count[1] : 0.0,
        kind_count[2] > 0 ? kind_seconds[2] / kind_count[2] : 0.0,
        kind_count[3] > 0 ? kind_seconds[3] / kind_count[3] : 0.0,
        cold_seconds, per_update_cold / mean_update, parity,
        bench::HostJsonBlock().c_str());
  }
  table.Print();
  std::printf("\n(per-update latency includes the warm re-solve; 'speedup' "
              "is one cold solve over one mean warm update — the serving "
              "margin)\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args(argc, argv, {"check", "ops", "seed", "threads"});
  const bench::MetricsDumpGuard metrics_guard(args);
  const exec::ExecContext ctx = bench::ExecFromArgs(args);
  if (args.Has("check")) return RunCheck(ctx);
  return RunBench(ctx, args.Int("ops", 48), args.Int("seed", 11));
}
