// Scenario sweep: run any registered dataset scenario end-to-end.
//
// For each spec the driver materializes the scenario, runs LinBP (eps_H =
// half the exact Lemma 8 threshold) and SBP, and reports wall-clock times
// plus F1 against the planted ground truth (or, for truthless scenarios
// like the paper's Kronecker family, LinBP-vs-SBP agreement).
//
// Modes:
//   --scenario=SPEC   sweep a single spec instead of the default suite
//   --check           assert the default suite's F1 scores stay within
//                     tolerance of recorded golden values (regression
//                     guardrail, registered as a CTest test). With
//                     --scenario plus --golden=IDX, checks that single
//                     spec against suite entry IDX's goldens instead —
//                     the CI shard round-trip loads a sharded manifest
//                     of a suite scenario and asserts identical quality.
//   --io-bench        compare text edge-list parsing vs snapshot loading
//                     (one inline shard) vs loading N shard files of the
//                     same layout on one scenario and print a JSON record
//                     (the source of BENCH_dataset.json); --shards=N
//                     bounds the shard count (default: max(2, threads))
//   --stream          shard one scenario, run LinBP in memory and
//                     out-of-core (ShardStreamBackend), assert the
//                     beliefs are bit-identical, and print a JSON record
//                     with wall-clock and peak-RSS columns (also lands
//                     in BENCH_dataset.json).
//                     --compress=f64|f32 picks the shards' value width
//                     (default f64); --cache-budget=BYTES enables the decoded-
//                     block LRU cache for the streamed solve. The record
//                     carries both as identity fields plus the solve's
//                     stream bytes per sweep and cache hit rate.
//   --parity          run every suite spec (or --scenario=SPEC) with
//                     float64 AND float32 belief storage and assert the
//                     fp32 run stays faithful: label flips on at most
//                     0.5% of nodes and a final residual delta at the
//                     fp32 noise floor. Registered as a CTest test at 1
//                     and 4 threads (the precision-seam guardrail).
//   --precision=P     belief-storage precision for the sweep / stream
//                     modes: f64 (default) or f32
//   --threads=N       kernel thread count (0 = all hardware threads)

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/convergence.h"
#include "src/core/labeling.h"
#include "src/core/linbp.h"
#include "src/core/sbp.h"
#include "src/dataset/registry.h"
#include "src/dataset/shard.h"
#include "src/dataset/snapshot.h"
#include "src/engine/shard_stream_backend.h"
#include "src/graph/io.h"
#include "src/util/mem_info.h"
#include "src/util/table_printer.h"

namespace {

using namespace linbp;

// The default sweep covers every built-in workload at bench-friendly
// sizes; --check asserts on exactly this suite.
const std::vector<std::string>& DefaultSuite() {
  static const std::vector<std::string> suite = {
      "sbm:n=4000,k=4,deg=8,mode=homophily,seed=3",
      // k = 2 keeps heterophily informative: with more classes a
      // cross-class edge only says "one of the k-1 others".
      "sbm:n=4000,k=2,deg=8,mode=heterophily,seed=3",
      "rmat:scale=12,ef=8,k=3,seed=3",
      "fraud:users=1200,products=600,seed=3",
      "dblp:papers=800,authors=900,terms=400,seed=3",
      "kronecker:g=3,seed=3",
  };
  return suite;
}

struct SweepResult {
  std::string spec;
  double build_seconds = 0.0;
  double linbp_seconds = 0.0;
  double sbp_seconds = 0.0;
  int linbp_iterations = 0;
  // F1 vs ground truth (or -1 when the scenario has none).
  double linbp_f1 = -1.0;
  double sbp_f1 = -1.0;
  // F1 agreement between the two methods over all nodes.
  double agreement_f1 = 0.0;
  std::int64_t nodes = 0;
  std::int64_t edges = 0;
};

TopBeliefAssignment GroundTruthAssignment(
    const dataset::Scenario& scenario, std::vector<std::int64_t>* known) {
  TopBeliefAssignment truth;
  truth.classes.resize(scenario.graph.num_nodes());
  for (std::int64_t v = 0; v < scenario.graph.num_nodes(); ++v) {
    if (scenario.ground_truth[v] >= 0) {
      truth.classes[v].push_back(scenario.ground_truth[v]);
      known->push_back(v);
    }
  }
  return truth;
}

bool RunOne(const std::string& spec, const exec::ExecContext& ctx,
            Precision precision, SweepResult* result) {
  result->spec = spec;
  std::string error;
  dataset::Scenario scenario;
  result->build_seconds = bench::TimeSeconds([&] {
    auto built = dataset::MakeScenario(spec, &error, ctx);
    if (built.has_value()) scenario = std::move(*built);
  });
  if (scenario.k == 0) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return false;
  }
  result->nodes = scenario.graph.num_nodes();
  result->edges = scenario.graph.num_undirected_edges();

  const CouplingMatrix coupling = scenario.Coupling();
  const double threshold =
      ExactEpsilonThreshold(scenario.graph, coupling, LinBpVariant::kLinBp);
  const double eps = std::isfinite(threshold) ? 0.5 * threshold : 1.0;

  LinBpResult linbp;
  LinBpOptions options;
  options.max_iterations = 1000;
  options.exec = ctx;
  options.precision = precision;
  result->linbp_seconds = bench::TimeSeconds([&] {
    linbp = RunLinBp(scenario.graph, coupling.ScaledResidual(eps),
                     scenario.explicit_residuals, options);
  });
  result->linbp_iterations = linbp.iterations;
  if (linbp.diverged) {
    std::fprintf(stderr, "error: LinBP diverged on %s\n", spec.c_str());
    return false;
  }

  SbpResult sbp;
  result->sbp_seconds = bench::TimeSeconds([&] {
    sbp = RunSbp(scenario.graph, coupling.residual(),
                 scenario.explicit_residuals, scenario.explicit_nodes, ctx);
  });

  const TopBeliefAssignment linbp_top = TopBeliefs(linbp.beliefs);
  const TopBeliefAssignment sbp_top = TopBeliefs(sbp.beliefs);
  result->agreement_f1 = CompareAssignments(linbp_top, sbp_top).f1;
  if (scenario.HasGroundTruth()) {
    std::vector<std::int64_t> known;
    const TopBeliefAssignment truth = GroundTruthAssignment(scenario, &known);
    result->linbp_f1 = CompareAssignments(truth, linbp_top, known).f1;
    result->sbp_f1 = CompareAssignments(truth, sbp_top, known).f1;
  }
  return true;
}

int RunSweep(const std::vector<std::string>& specs,
             const exec::ExecContext& ctx, Precision precision) {
  TablePrinter table({"scenario", "n", "e", "build", "LinBP", "iters",
                      "SBP", "F1 LinBP", "F1 SBP", "agree"});
  for (const std::string& spec : specs) {
    SweepResult r;
    if (!RunOne(spec, ctx, precision, &r)) return 1;
    auto f1 = [](double value) {
      return value < 0.0 ? std::string("-") : TablePrinter::Num(value, 4);
    };
    table.AddRow({r.spec, TablePrinter::Int(r.nodes),
                  TablePrinter::Int(r.edges),
                  bench::FormatSeconds(r.build_seconds),
                  bench::FormatSeconds(r.linbp_seconds),
                  TablePrinter::Int(r.linbp_iterations),
                  bench::FormatSeconds(r.sbp_seconds), f1(r.linbp_f1),
                  f1(r.sbp_f1), TablePrinter::Num(r.agreement_f1, 4)});
  }
  table.Print();
  return 0;
}

// Golden F1 values for the default suite, recorded from a serial run of
// this driver (deterministic: every scenario is seeded and the kernels
// are bit-identical across thread counts). The tolerance absorbs
// cross-compiler rounding that could flip near-tie labels.
struct Golden {
  double linbp_f1;
  double sbp_f1;
};
constexpr double kF1Tolerance = 0.02;

// `spec_override` + `golden_index` check one spec against a suite
// entry's goldens (e.g. a sharded snapshot of that suite scenario, which
// must reproduce its quality exactly); empty override checks the whole
// default suite.
int RunCheck(const exec::ExecContext& ctx, const std::string& spec_override,
             std::int64_t golden_index) {
  const std::vector<Golden> goldens = {
      {0.9047, 0.8449},  // sbm homophily
      {0.9719, 0.9527},  // sbm heterophily (k = 2)
      {0.8387, 0.8213},  // rmat
      {0.9478, 0.9420},  // fraud
      {0.7306, 0.7227},  // dblp
      {-1.0, -1.0},      // kronecker (no ground truth; agreement only)
  };
  std::vector<std::string> suite = DefaultSuite();
  std::vector<std::size_t> indices(suite.size());
  for (std::size_t i = 0; i < suite.size(); ++i) indices[i] = i;
  if (!spec_override.empty()) {
    if (golden_index < 0 ||
        golden_index >= static_cast<std::int64_t>(goldens.size())) {
      std::fprintf(stderr,
                   "error: --golden must name a suite index in [0, %zu)\n",
                   goldens.size());
      return 1;
    }
    suite = {spec_override};
    indices = {static_cast<std::size_t>(golden_index)};
  }
  int failures = 0;
  for (std::size_t i = 0; i < suite.size(); ++i) {
    SweepResult r;
    // Goldens were recorded at f64; --check always runs f64.
    if (!RunOne(suite[i], ctx, Precision::kF64, &r)) return 1;
    auto check = [&](const char* what, double got, double want) {
      if (want < 0.0) return;  // no golden for truthless scenarios
      const bool ok = std::abs(got - want) <= kF1Tolerance;
      std::printf("%-6s %-50s got %.4f want %.4f +/- %.2f  %s\n", what,
                  r.spec.c_str(), got, want, kF1Tolerance,
                  ok ? "OK" : "FAIL");
      if (!ok) ++failures;
    };
    check("linbp", r.linbp_f1, goldens[indices[i]].linbp_f1);
    check("sbp", r.sbp_f1, goldens[indices[i]].sbp_f1);
  }
  if (failures > 0) {
    std::printf("%d golden check(s) FAILED\n", failures);
    return 1;
  }
  std::printf("all golden checks passed\n");
  return 0;
}

// --parity: the precision-seam quality guardrail. Solves every spec
// twice — float64 and float32 belief storage, identical options
// otherwise — and asserts the fp32 run stays faithful to fp64:
//   * both runs finish without divergence or failure,
//   * the top-1 labels differ on at most 0.5% of nodes (fp32 rounding
//     may legitimately flip near-tie nodes, never well-separated ones),
//   * the fp32 final residual delta sits at the float32 noise floor
//     (<= 1e-5; the fp64 tolerance of 1e-12 is below float resolution,
//     so the fp32 run is expected to stall there rather than meet it).
int RunParity(const std::vector<std::string>& specs,
              const exec::ExecContext& ctx) {
  constexpr double kMaxFlipFraction = 0.005;
  constexpr double kF32DeltaFloor = 1e-5;
  int failures = 0;
  for (const std::string& spec : specs) {
    std::string error;
    auto scenario = dataset::MakeScenario(spec, &error, ctx);
    if (!scenario.has_value()) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 1;
    }
    const CouplingMatrix coupling = scenario->Coupling();
    const double threshold = ExactEpsilonThreshold(scenario->graph, coupling,
                                                   LinBpVariant::kLinBp);
    const double eps = std::isfinite(threshold) ? 0.5 * threshold : 1.0;
    LinBpOptions options;
    options.max_iterations = 1000;
    options.exec = ctx;
    const LinBpResult f64 =
        RunLinBp(scenario->graph, coupling.ScaledResidual(eps),
                 scenario->explicit_residuals, options);
    options.precision = Precision::kF32;
    const LinBpResult f32 =
        RunLinBp(scenario->graph, coupling.ScaledResidual(eps),
                 scenario->explicit_residuals, options);
    if (f64.diverged || f64.failed || f32.diverged || f32.failed) {
      std::printf("parity %-50s solver FAILED (f64 %s, f32 %s)\n",
                  spec.c_str(), f64.failed ? "failed" : "ok",
                  f32.failed ? "failed" : "ok");
      ++failures;
      continue;
    }
    const TopBeliefAssignment top64 = TopBeliefs(f64.beliefs);
    const TopBeliefAssignment top32 = TopBeliefs(f32.beliefs);
    const std::int64_t n = scenario->graph.num_nodes();
    std::int64_t flips = 0;
    for (std::int64_t v = 0; v < n; ++v) {
      if (top64.classes[v] != top32.classes[v]) ++flips;
    }
    const double flip_fraction =
        n > 0 ? static_cast<double>(flips) / static_cast<double>(n) : 0.0;
    const bool flips_ok = flip_fraction <= kMaxFlipFraction;
    const bool delta_ok = f32.last_delta <= kF32DeltaFloor;
    std::printf("parity %-50s flips %lld/%lld (%.4f%%, bound 0.5%%)  "
                "f32 delta %.3e (floor %.0e)  %s\n",
                spec.c_str(), static_cast<long long>(flips),
                static_cast<long long>(n), 100.0 * flip_fraction,
                f32.last_delta, kF32DeltaFloor,
                (flips_ok && delta_ok) ? "OK" : "FAIL");
    if (!flips_ok || !delta_ok) ++failures;
  }
  if (failures > 0) {
    std::printf("%d precision parity check(s) FAILED\n", failures);
    return 1;
  }
  std::printf("all precision parity checks passed\n");
  return 0;
}

int RunIoBench(const std::string& spec, const exec::ExecContext& ctx,
               int reps, std::int64_t shards) {
  std::string error;
  auto scenario = dataset::MakeScenario(spec, &error, ctx);
  if (!scenario.has_value()) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  const std::string edges_path = "/tmp/linbp_iobench_edges.txt";
  const std::string beliefs_path = "/tmp/linbp_iobench_beliefs.txt";
  const std::string snapshot_path = "/tmp/linbp_iobench.lbps";
  const std::string shards_dir = "/tmp/linbp_iobench_shards";
  if (shards <= 0) shards = std::max(2, ctx.threads());
  const auto sharded =
      dataset::ShardSnapshot(*scenario, shards, shards_dir, &error);
  if (!WriteEdgeList(scenario->graph, edges_path) ||
      !WriteBeliefs(scenario->explicit_residuals, scenario->explicit_nodes,
                    beliefs_path) ||
      !dataset::SaveSnapshot(*scenario, snapshot_path, &error) ||
      !sharded.has_value()) {
    std::fprintf(stderr, "error: cannot write bench inputs (%s)\n",
                 error.c_str());
    return 1;
  }

  double text_seconds = 1e100;
  double snap_seconds = 1e100;
  double shard_seconds = 1e100;
  for (int rep = 0; rep < reps; ++rep) {
    text_seconds = std::min(text_seconds, bench::TimeSeconds([&] {
      auto graph = ReadEdgeList(edges_path, &error);
      if (!graph.has_value()) std::abort();
      auto beliefs = ReadBeliefs(beliefs_path, graph->num_nodes(),
                                 scenario->k, &error);
      if (!beliefs.has_value()) std::abort();
    }));
    snap_seconds = std::min(snap_seconds, bench::TimeSeconds([&] {
      auto loaded = dataset::LoadSnapshot(snapshot_path, &error, ctx);
      if (!loaded.has_value()) std::abort();
    }));
    shard_seconds = std::min(shard_seconds, bench::TimeSeconds([&] {
      auto loaded =
          dataset::LoadShardedSnapshot(sharded->manifest_path, &error, ctx);
      if (!loaded.has_value()) std::abort();
    }));
  }
  std::printf(
      "{\n"
      "  \"bench\": \"dataset_snapshot_load\",\n"
      "  \"scenario\": \"%s\",\n"
      "  \"nodes\": %lld,\n"
      "  \"undirected_edges\": %lld,\n"
      "  \"threads\": %d,\n"
      "  \"reps\": %d,\n"
      "  \"text_parse_seconds\": %.6f,\n"
      "  \"snapshot_load_seconds\": %.6f,\n"
      "  \"speedup\": %.2f,\n"
      "  \"num_shards\": %lld,\n"
      "  \"sharded_load_seconds\": %.6f,\n"
      "  \"sharded_vs_monolithic\": %.2f,\n"
      "  \"peak_rss_bytes\": %lld,\n"
      "  %s\n"
      "}\n",
      spec.c_str(), static_cast<long long>(scenario->graph.num_nodes()),
      static_cast<long long>(scenario->graph.num_undirected_edges()),
      ctx.threads(), reps, text_seconds, snap_seconds,
      text_seconds / snap_seconds,
      static_cast<long long>(sharded->num_shards), shard_seconds,
      snap_seconds / shard_seconds,
      static_cast<long long>(util::PeakRssBytes()),
      bench::HostJsonBlock().c_str());
  return 0;
}

// --stream: the out-of-core proof bench. Runs the same LinBP solve twice
// — resident CSR vs streamed shards — asserts bit-identity, and reports
// wall-clock + peak-RSS + peak streamed-CSR residency. The in-memory
// solve runs FIRST so its peak RSS (full CSR + solver state) is what the
// process-wide VmHWM records; the streamed residency column is the
// reader's exact byte counter, immune to that ordering.
int RunStreamBench(const std::string& spec, const exec::ExecContext& ctx,
                   std::int64_t shards, int iterations, Precision precision,
                   const std::string& compress,
                   std::int64_t cache_budget) {
  std::string error;
  auto scenario = dataset::MakeScenario(spec, &error, ctx);
  if (!scenario.has_value()) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  const std::string shards_dir = "/tmp/linbp_streambench_shards";
  if (shards <= 0) shards = std::max<std::int64_t>(4, ctx.threads());
  if (compress != "f64" && compress != "f32") {
    std::fprintf(stderr, "error: --compress must be f64 or f32\n");
    return 1;
  }
  const dataset::ShardCompression compression =
      compress == "f32" ? dataset::ShardCompression::kF32
                        : dataset::ShardCompression::kF64;
  const std::string compression_name = "varint-" + compress;
  const auto sharded = dataset::ShardSnapshot(*scenario, shards, shards_dir,
                                              &error, compression);
  if (!sharded.has_value()) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  if (compression == dataset::ShardCompression::kF32) {
    // f32 shards narrow the values once at write time; the fair (and
    // bit-identical) in-memory reference is a solve over the same
    // narrowed graph, i.e. the shards loaded back whole.
    scenario = dataset::LoadShardedSnapshot(sharded->manifest_path, &error,
                                            ctx);
    if (!scenario.has_value()) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 1;
    }
  }

  const CouplingMatrix coupling = scenario->Coupling();
  const double threshold =
      ExactEpsilonThreshold(scenario->graph, coupling, LinBpVariant::kLinBp);
  const double eps = std::isfinite(threshold) ? 0.5 * threshold : 1.0;
  LinBpOptions options;
  options.max_iterations = iterations;
  options.tolerance = 0.0;  // fixed-sweep timing protocol
  // Jacobi keeps the recorded per-sweep timings (BENCH_dataset.json)
  // comparable with earlier records.
  options.schedule = SweepSchedule::kJacobi;
  options.exec = ctx;
  // Bit-identity between the resident and streamed runs holds per
  // precision: the f32 path narrows shard values once per block load and
  // runs the same row-owned kernels, so the assertion below stays exact.
  options.precision = precision;

  LinBpResult in_memory;
  const double memory_seconds = bench::TimeSeconds([&] {
    in_memory = RunLinBp(scenario->graph, coupling.ScaledResidual(eps),
                         scenario->explicit_residuals, options);
  });

  std::optional<linbp::engine::ShardStreamBackend> backend;
  const double open_seconds = bench::TimeSeconds([&] {
    backend = linbp::engine::ShardStreamBackend::Open(sharded->manifest_path,
                                                      &error, ctx,
                                                      cache_budget);
  });
  if (!backend.has_value()) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  // Deltas around the timed solve isolate the sweeps' disk traffic from
  // the derivation pass Open already charged to the same counters.
  const std::int64_t bytes_before = backend->reader().file_bytes_read_total();
  const std::int64_t blocks_before = backend->reader().blocks_read_total();
  LinBpResult streamed;
  const double stream_seconds = bench::TimeSeconds([&] {
    streamed = RunLinBp(*backend, coupling.ScaledResidual(eps),
                        backend->explicit_residuals(), options);
  });
  const std::int64_t solve_bytes_read =
      backend->reader().file_bytes_read_total() - bytes_before;
  const std::int64_t solve_blocks_read =
      backend->reader().blocks_read_total() - blocks_before;
  std::int64_t cache_hits = 0;
  double cache_hit_rate = 0.0;
  if (backend->cache() != nullptr) {
    cache_hits = backend->cache()->hits_total();
    const std::int64_t lookups =
        cache_hits + backend->cache()->misses_total();
    if (lookups > 0) {
      cache_hit_rate = static_cast<double>(cache_hits) /
                       static_cast<double>(lookups);
    }
  }
  if (streamed.failed) {
    std::fprintf(stderr, "error: %s\n", streamed.error.c_str());
    return 1;
  }
  const double max_abs_diff =
      streamed.beliefs.MaxAbsDiff(in_memory.beliefs);
  if (max_abs_diff != 0.0) {
    std::fprintf(stderr,
                 "error: streamed beliefs differ from in-memory "
                 "(max abs diff %.3e)\n",
                 max_abs_diff);
    return 1;
  }

  std::printf(
      "{\n"
      "  \"bench\": \"stream_solve\",\n"
      "  \"scenario\": \"%s\",\n"
      "  \"nodes\": %lld,\n"
      "  \"undirected_edges\": %lld,\n"
      "  \"threads\": %d,\n"
      "  \"iterations\": %d,\n"
      "  \"precision\": \"%s\",\n"
      "  \"compression\": \"%s\",\n"
      "  \"cache_budget\": %lld,\n"
      "  \"num_shards\": %lld,\n"
      "  \"inmemory_solve_seconds\": %.6f,\n"
      "  \"stream_open_seconds\": %.6f,\n"
      "  \"stream_solve_seconds\": %.6f,\n"
      "  \"stream_vs_inmemory\": %.2f,\n"
      "  \"beliefs_bit_identical\": true,\n"
      "  \"solve_bytes_read\": %lld,\n"
      "  \"solve_bytes_per_sweep\": %lld,\n"
      "  \"solve_blocks_read\": %lld,\n"
      "  \"cache_hits\": %lld,\n"
      "  \"cache_hit_rate\": %.4f,\n"
      "  \"full_csr_bytes\": %lld,\n"
      "  \"max_block_csr_bytes\": %lld,\n"
      "  \"peak_stream_resident_csr_bytes\": %lld,\n"
      "  \"peak_rss_bytes\": %lld,\n"
      "  %s\n"
      "}\n",
      spec.c_str(), static_cast<long long>(scenario->graph.num_nodes()),
      static_cast<long long>(scenario->graph.num_undirected_edges()),
      ctx.threads(), iterations, PrecisionName(precision),
      compression_name.c_str(), static_cast<long long>(cache_budget),
      static_cast<long long>(sharded->num_shards), memory_seconds,
      open_seconds, stream_seconds, stream_seconds / memory_seconds,
      static_cast<long long>(solve_bytes_read),
      static_cast<long long>(iterations > 0 ? solve_bytes_read / iterations
                                            : 0),
      static_cast<long long>(solve_blocks_read),
      static_cast<long long>(cache_hits), cache_hit_rate,
      static_cast<long long>(
          (scenario->graph.num_nodes() + 1) * 8 +
          scenario->graph.num_directed_edges() * 12),
      static_cast<long long>(backend->reader().max_block_csr_bytes()),
      static_cast<long long>(backend->reader().peak_resident_csr_bytes()),
      static_cast<long long>(util::PeakRssBytes()),
      bench::HostJsonBlock().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args(
      argc, argv, {"cache-budget", "check", "compress", "golden", "io-bench",
                    "iterations", "parity", "precision", "reps", "scenario",
                    "shards", "stream", "threads"});
  const bench::MetricsDumpGuard metrics_guard(args);
  const exec::ExecContext ctx = bench::ExecFromArgs(args);
  Precision precision = Precision::kF64;
  if (!ParsePrecision(args.Str("precision", "f64"), &precision)) {
    std::fprintf(stderr, "error: --precision must be f32 or f64\n");
    return 1;
  }
  if (args.Has("check")) {
    return RunCheck(ctx, args.Str("scenario", ""), args.Int("golden", -1));
  }
  if (args.Has("parity")) {
    const std::string spec = args.Str("scenario", "");
    return RunParity(spec.empty() ? DefaultSuite()
                                  : std::vector<std::string>{spec},
                     ctx);
  }
  if (args.Has("io-bench")) {
    return RunIoBench(args.Str("scenario", "sbm:n=200000,k=4,deg=10,seed=5"),
                      ctx, static_cast<int>(args.Int("reps", 3)),
                      args.Int("shards", 0));
  }
  if (args.Has("stream")) {
    return RunStreamBench(
        args.Str("scenario", "sbm:n=200000,k=4,deg=10,seed=5"), ctx,
        args.Int("shards", 0),
        static_cast<int>(args.Int("iterations", 10)), precision,
        args.Str("compress", "f64"), args.Int("cache-budget", 0));
  }
  const std::string spec = args.Str("scenario", "");
  std::printf("== scenario sweep (LinBP vs SBP, %s beliefs) ==\n\n",
              PrecisionName(precision));
  const int code = spec.empty() ? RunSweep(DefaultSuite(), ctx, precision)
                                : RunSweep({spec}, ctx, precision);
  if (code == 0) {
    std::printf("\n(F1 columns compare against planted ground truth; "
                "'agree' is LinBP-vs-SBP label agreement)\n");
  }
  return code;
}
