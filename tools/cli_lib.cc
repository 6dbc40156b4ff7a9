#include "tools/cli_lib.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <utility>

#include "src/core/bp.h"
#include "src/core/convergence.h"
#include "src/core/coupling.h"
#include "src/core/labeling.h"
#include "src/core/linbp.h"
#include "src/core/linbp_incremental.h"
#include "src/core/sbp.h"
#include "src/dataset/registry.h"
#include "src/dataset/scenario.h"
#include "src/dataset/shard.h"
#include "src/dataset/snapshot.h"
#include "src/dataset/update_stream.h"
#include "src/engine/shard_stream_backend.h"
#include "src/exec/exec_context.h"
#include "src/graph/beliefs.h"
#include "src/graph/io.h"
#include "src/la/matrix_io.h"
#include "src/obs/export.h"
#include "src/obs/obs.h"
#include "src/util/mem_info.h"
#include "src/util/timer.h"

namespace linbp {
namespace cli {

bool LowRamWarning(std::int64_t payload_bytes,
                   std::int64_t available_bytes) {
  // available_bytes == 0 is AvailableMemoryBytes's "unknown" fallback
  // (no /proc/meminfo, unparsable field) — warning on it would flag
  // every container whose memory we simply cannot see.
  return available_bytes > 0 && payload_bytes > available_bytes;
}

namespace {

// Parses one "--name=value" argument; returns the value when `arg` starts
// with "--name=".
std::optional<std::string> FlagValue(const std::string& arg,
                                     const std::string& prefix) {
  if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
  return std::nullopt;
}

// Strict "--threads=N" parse shared by the pipeline and convert (unlike
// ParseThreadsSpec, a bad flag is an error, not a silent serial fallback).
bool ParseThreadsFlag(const std::string& value, int* threads,
                      std::string* error) {
  char* end = nullptr;
  const long long parsed =
      value.empty() ? -1 : std::strtoll(value.c_str(), &end, 10);
  if (value.empty() || *end != '\0' || parsed < 0) {
    *error = "--threads must be a number >= 0";
    return false;
  }
  *threads = static_cast<int>(std::min<long long>(parsed, exec::kMaxThreads));
  return true;
}

exec::ExecContext ContextFor(int threads) {
  return threads >= 0 ? exec::ExecContext::WithThreads(threads)
                      : exec::ExecContext::Default();
}

// Materializes the pipeline's problem instance from either a scenario
// spec or the edge-list/belief files. Scenario construction (snapshot
// deserialization in particular) parallelizes on `ctx`.
std::optional<dataset::Scenario> BuildProblem(const Options& options,
                                              const exec::ExecContext& ctx,
                                              std::string* error) {
  if (!options.scenario.empty()) {
    auto scenario = dataset::MakeScenario(options.scenario, error, ctx);
    if (!scenario.has_value()) return std::nullopt;
    if (!options.coupling.empty()) {
      const auto coupling =
          dataset::ResolveCouplingSpec(options.coupling, error);
      if (!coupling.has_value()) return std::nullopt;
      if (coupling->k() != scenario->k) {
        *error = "--coupling disagrees with the scenario's class count";
        return std::nullopt;
      }
      scenario->coupling_residual = coupling->residual();
    }
    return scenario;
  }

  const std::string coupling_spec =
      options.coupling.empty() ? "homophily2" : options.coupling;
  const auto coupling = dataset::ResolveCouplingSpec(coupling_spec, error);
  if (!coupling.has_value()) return std::nullopt;
  auto graph = ReadEdgeList(options.graph_path, error);
  if (!graph.has_value()) return std::nullopt;
  auto beliefs =
      ReadBeliefs(options.beliefs_path, graph->num_nodes(), coupling->k(),
                  error);
  if (!beliefs.has_value()) return std::nullopt;
  dataset::Scenario scenario;
  scenario.name = "file";
  scenario.k = coupling->k();
  scenario.coupling_residual = coupling->residual();
  scenario.explicit_residuals = std::move(beliefs->residuals);
  scenario.explicit_nodes = std::move(beliefs->explicit_nodes);
  scenario.graph = std::move(*graph);
  return scenario;
}

// Strict "--compress[=f64|f32]" parse shared by convert and shard; the
// bare flag means f64 (lossless), the default.
bool ParseCompressFlag(const std::string& value, std::string* compress,
                       std::string* error) {
  if (value != "f64" && value != "f32") {
    *error = "--compress must be f64 or f32";
    return false;
  }
  *compress = value;
  return true;
}

dataset::ShardCompression CompressionFromFlag(const std::string& compress) {
  return compress == "f32" ? dataset::ShardCompression::kF32
                           : dataset::ShardCompression::kF64;
}

// Strict "--shards=N" parse shared by convert and shard.
bool ParseShardsFlag(const std::string& value, std::int64_t* shards,
                     std::string* error) {
  char* end = nullptr;
  const long long parsed =
      value.empty() ? 0 : std::strtoll(value.c_str(), &end, 10);
  if (value.empty() || *end != '\0' || parsed < 1 ||
      parsed > dataset::kMaxShards) {
    *error = "--shards must be a number in [1, " +
             std::to_string(dataset::kMaxShards) + "]";
    return false;
  }
  *shards = parsed;
  return true;
}

std::optional<ConvertOptions> ParseConvertOptions(
    const std::vector<std::string>& args, std::string* error) {
  ConvertOptions options;
  for (const std::string& arg : args) {
    if (auto v = FlagValue(arg, "--scenario=")) {
      options.scenario = *v;
    } else if (auto v = FlagValue(arg, "--out=")) {
      options.snapshot_path = *v;
    } else if (auto v = FlagValue(arg, "--out-shards=")) {
      options.shards_dir = *v;
    } else if (auto v = FlagValue(arg, "--shards=")) {
      if (!ParseShardsFlag(*v, &options.shards, error)) return std::nullopt;
    } else if (arg == "--compress") {
      options.compress = "f64";
    } else if (auto v = FlagValue(arg, "--compress=")) {
      if (!ParseCompressFlag(*v, &options.compress, error)) {
        return std::nullopt;
      }
    } else if (auto v = FlagValue(arg, "--out-graph=")) {
      options.graph_path = *v;
    } else if (auto v = FlagValue(arg, "--out-beliefs=")) {
      options.beliefs_path = *v;
    } else if (auto v = FlagValue(arg, "--out-labels=")) {
      options.labels_path = *v;
    } else if (auto v = FlagValue(arg, "--threads=")) {
      if (!ParseThreadsFlag(*v, &options.threads, error)) return std::nullopt;
    } else {
      *error = "unknown argument: " + arg;
      return std::nullopt;
    }
  }
  if (options.scenario.empty()) {
    *error = "convert: --scenario is required";
    return std::nullopt;
  }
  if (options.snapshot_path.empty() && options.shards_dir.empty() &&
      options.graph_path.empty() && options.beliefs_path.empty() &&
      options.labels_path.empty()) {
    *error = "convert: pick at least one of --out, --out-shards, "
             "--out-graph, --out-beliefs, --out-labels";
    return std::nullopt;
  }
  return options;
}

int RunConvert(const ConvertOptions& options, std::string* output,
               std::string* error) {
  auto scenario = dataset::MakeScenario(options.scenario, error,
                                        ContextFor(options.threads));
  if (!scenario.has_value()) return 1;
  if (!options.snapshot_path.empty()) {
    if (!dataset::SaveSnapshot(*scenario, options.snapshot_path, error)) {
      return 1;
    }
  }
  std::int64_t shards_written = 0;
  if (!options.shards_dir.empty()) {
    const auto sharded = dataset::ShardSnapshot(
        *scenario, options.shards, options.shards_dir, error,
        CompressionFromFlag(options.compress));
    if (!sharded.has_value()) return 1;
    shards_written = sharded->num_shards;
  }
  if (!options.graph_path.empty() &&
      !WriteEdgeList(scenario->graph, options.graph_path)) {
    *error = options.graph_path + ": cannot write";
    return 1;
  }
  if (!options.beliefs_path.empty() &&
      !WriteBeliefs(scenario->explicit_residuals, scenario->explicit_nodes,
                    options.beliefs_path)) {
    *error = options.beliefs_path + ": cannot write";
    return 1;
  }
  if (!options.labels_path.empty()) {
    if (!scenario->HasGroundTruth()) {
      *error = "convert: scenario '" + scenario->name +
               "' has no ground truth to export";
      return 1;
    }
    if (!WriteLabels(scenario->ground_truth, options.labels_path)) {
      *error = options.labels_path + ": cannot write";
      return 1;
    }
  }
  std::ostringstream lines;
  lines << scenario->name << ": " << scenario->graph.num_nodes()
        << " nodes, " << scenario->graph.num_undirected_edges()
        << " edges, k=" << scenario->k << ", "
        << scenario->explicit_nodes.size() << " explicit";
  if (shards_written > 0) lines << ", " << shards_written << " shards";
  lines << "\n";
  *output = lines.str();
  return 0;
}

std::optional<ShardOptions> ParseShardOptions(
    const std::vector<std::string>& args, std::string* error) {
  ShardOptions options;
  for (const std::string& arg : args) {
    if (auto v = FlagValue(arg, "--scenario=")) {
      options.scenario = *v;
    } else if (auto v = FlagValue(arg, "--out-dir=")) {
      options.out_dir = *v;
    } else if (auto v = FlagValue(arg, "--shards=")) {
      if (!ParseShardsFlag(*v, &options.shards, error)) return std::nullopt;
    } else if (arg == "--compress") {
      options.compress = "f64";
    } else if (auto v = FlagValue(arg, "--compress=")) {
      if (!ParseCompressFlag(*v, &options.compress, error)) {
        return std::nullopt;
      }
    } else if (auto v = FlagValue(arg, "--threads=")) {
      if (!ParseThreadsFlag(*v, &options.threads, error)) return std::nullopt;
    } else {
      *error = "unknown argument: " + arg;
      return std::nullopt;
    }
  }
  if (options.scenario.empty() || options.out_dir.empty()) {
    *error = "shard: --scenario and --out-dir are required";
    return std::nullopt;
  }
  return options;
}

int RunShard(const ShardOptions& options, std::string* output,
             std::string* error) {
  auto scenario = dataset::MakeScenario(options.scenario, error,
                                        ContextFor(options.threads));
  if (!scenario.has_value()) return 1;
  const auto result = dataset::ShardSnapshot(
      *scenario, options.shards, options.out_dir, error,
      CompressionFromFlag(options.compress));
  if (!result.has_value()) return 1;
  std::ostringstream lines;
  lines << scenario->name << ": " << scenario->graph.num_nodes()
        << " nodes, " << scenario->graph.num_undirected_edges()
        << " edges -> " << result->num_shards << " shard(s), manifest "
        << result->manifest_path << "\n";
  *output = lines.str();
  return 0;
}

int RunInfo(const InfoOptions& options, std::string* output,
            std::string* error) {
  const auto info =
      dataset::ReadShardManifestInfo(options.snapshot_path, error);
  if (!info.has_value()) return 1;
  const auto ratio = [](std::int64_t encoded, std::int64_t decoded) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2f",
                  decoded > 0 ? static_cast<double>(encoded) /
                                    static_cast<double>(decoded)
                              : 1.0);
    return std::string(buf);
  };
  std::ostringstream lines;
  lines << "snapshot:      " << options.snapshot_path << "\n"
        << "version:       " << dataset::kShardFormatVersion << "\n"
        << "values:        "
        << (info->unit_weights ? "none (unit weights)"
                               : info->values_f32 ? "f32" : "f64")
        << "\n"
        << "nodes:         " << info->num_nodes << "\n"
        << "classes k:     " << info->k << "\n"
        << "stored entries " << info->nnz << " (" << info->nnz / 2
        << " undirected edges)\n"
        << "explicit:      " << info->num_explicit << "\n"
        << "ground truth:  " << (info->has_ground_truth ? "yes" : "no")
        << "\n"
        << "scenario:      " << info->name << "\n"
        << "spec:          " << info->spec << "\n"
        << "file bytes:    " << info->file_bytes << "\n"
        << "payload bytes  " << info->total_shard_payload_bytes
        << " (all shards, decoded; " << info->total_encoded_payload_bytes
        << " encoded on disk, ratio "
        << ratio(info->total_encoded_payload_bytes,
                 info->total_shard_payload_bytes)
        << ")\n"
        << "shards:        " << info->shards.size()
        << (info->shards_inline ? " (inline)" : " (beside the manifest)")
        << "\n";
  for (std::size_t s = 0; s < info->shards.size(); ++s) {
    const dataset::ShardRangeInfo& shard = info->shards[s];
    lines << "  shard " << s << ": rows [" << shard.row_begin << ", "
          << shard.row_end << "), " << shard.nnz << " entries, "
          << shard.num_explicit << " explicit, " << shard.payload_bytes
          << " bytes encoded (" << shard.decoded_bytes << " decoded, ratio "
          << ratio(shard.payload_bytes, shard.decoded_bytes) << ")";
    if (!info->shards_inline) lines << ", " << dataset::ShardFileName(s);
    lines << "\n";
  }
  // A full (non-streamed) load must hold every shard's payload resident
  // at once; warn when that exceeds what the machine can offer so the
  // user reaches for --stream before the OOM killer does.
  const std::int64_t available = util::AvailableMemoryBytes();
  if (LowRamWarning(info->total_shard_payload_bytes, available)) {
    lines << "warning: total shard payload (" << info->total_shard_payload_bytes
          << " bytes) exceeds available RAM (" << available
          << " bytes); solve with --stream on this file instead of "
             "loading it whole\n";
  }
  *output = lines.str();
  return 0;
}

// Shared eps_H selection: an explicit positive value, or half the exact
// Lemma 8 threshold of `graph` for the chosen variant.
bool ResolveEps(const std::string& spec, const Graph& graph,
                const CouplingMatrix& coupling, LinBpVariant variant,
                double* eps, std::string* error) {
  if (spec == "auto") {
    const double threshold = ExactEpsilonThreshold(graph, coupling, variant);
    *eps = std::isfinite(threshold) ? 0.5 * threshold : 1.0;
    return true;
  }
  *eps = std::atof(spec.c_str());
  if (!(*eps > 0.0)) {
    *error = "--eps must be positive or 'auto'";
    return false;
  }
  return true;
}

// Strict node-id parse for the serve REPL's `q` lines.
bool ParseNodeIdToken(const std::string& token, std::int64_t* out) {
  if (token.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(token.c_str(), &end, 10);
  if (*end != '\0' || errno == ERANGE) return false;
  *out = static_cast<std::int64_t>(value);
  return true;
}

// One "v class [class...]" line per queried node, from the rows of
// `beliefs` named by `nodes` (the full-graph `labels` command passes
// every node).
void EmitTopBeliefLines(const DenseMatrix& beliefs,
                        const std::vector<std::int64_t>& nodes,
                        std::ostream& out) {
  DenseMatrix rows(static_cast<std::int64_t>(nodes.size()), beliefs.cols());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (std::int64_t c = 0; c < beliefs.cols(); ++c) {
      rows.At(static_cast<std::int64_t>(i), c) = beliefs.At(nodes[i], c);
    }
  }
  const TopBeliefAssignment top = TopBeliefs(rows);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    out << nodes[i];
    for (const int cls : top.classes[i]) out << ' ' << cls;
    out << '\n';
  }
}

std::optional<ServeOptions> ParseServeOptions(
    const std::vector<std::string>& args, std::string* error) {
  ServeOptions options;
  for (const std::string& arg : args) {
    if (auto v = FlagValue(arg, "--scenario=")) {
      options.scenario = *v;
    } else if (auto v = FlagValue(arg, "--coupling=")) {
      options.coupling = *v;
    } else if (auto v = FlagValue(arg, "--method=")) {
      options.method = *v;
    } else if (auto v = FlagValue(arg, "--eps=")) {
      options.eps = *v;
    } else if (auto v = FlagValue(arg, "--precision=")) {
      options.precision = *v;
    } else if (auto v = FlagValue(arg, "--threads=")) {
      if (!ParseThreadsFlag(*v, &options.threads, error)) return std::nullopt;
    } else {
      *error = "unknown argument: " + arg;
      return std::nullopt;
    }
  }
  if (options.scenario.empty()) {
    *error = "serve: --scenario is required";
    return std::nullopt;
  }
  if (options.method != "linbp" && options.method != "linbp*") {
    *error = "serve supports --method=linbp or linbp* (the warm state is "
             "linearized)";
    return std::nullopt;
  }
  Precision precision = Precision::kF64;
  if (!ParsePrecision(options.precision, &precision)) {
    *error = "--precision must be f32 or f64";
    return std::nullopt;
  }
  return options;
}

std::optional<TraceOptions> ParseTraceOptions(
    const std::vector<std::string>& args, std::string* error) {
  TraceOptions options;
  for (const std::string& arg : args) {
    if (auto v = FlagValue(arg, "--scenario=")) {
      options.scenario = *v;
    } else if (auto v = FlagValue(arg, "--out-dir=")) {
      options.out_dir = *v;
    } else if (auto v = FlagValue(arg, "--ops=")) {
      std::int64_t parsed = 0;
      if (!ParseNodeIdToken(*v, &parsed) || parsed < 1) {
        *error = "--ops must be a number >= 1";
        return std::nullopt;
      }
      options.ops = parsed;
    } else if (auto v = FlagValue(arg, "--seed=")) {
      std::int64_t parsed = 0;
      if (!ParseNodeIdToken(*v, &parsed) || parsed < 0) {
        *error = "--seed must be a number >= 0";
        return std::nullopt;
      }
      options.seed = static_cast<std::uint64_t>(parsed);
    } else if (auto v = FlagValue(arg, "--method=")) {
      options.method = *v;
    } else if (auto v = FlagValue(arg, "--threads=")) {
      if (!ParseThreadsFlag(*v, &options.threads, error)) return std::nullopt;
    } else {
      *error = "unknown argument: " + arg;
      return std::nullopt;
    }
  }
  if (options.scenario.empty() || options.out_dir.empty()) {
    *error = "trace: --scenario and --out-dir are required";
    return std::nullopt;
  }
  if (options.method != "linbp" && options.method != "linbp*") {
    *error = "trace supports --method=linbp or linbp*";
    return std::nullopt;
  }
  return options;
}

int RunList(std::string* output) {
  std::ostringstream lines;
  lines << "registered scenarios (--scenario=name:key=value,...):\n";
  for (const dataset::ScenarioInfo& info : dataset::ListScenarios()) {
    lines << "  " << info.name << "  " << info.description << "\n"
          << "      params: " << info.params_help << "\n";
  }
  *output = lines.str();
  return 0;
}

}  // namespace

std::string Usage() {
  return
      "linbp_cli --graph=EDGES --beliefs=BELIEFS | --scenario=SPEC\n"
      "          [--coupling=PRESET|FILE] [--method=bp|linbp|linbp*|sbp]\n"
      "          [--eps=auto|VALUE] [--k=K] [--output=FILE] [--report]\n"
      "          [--threads=N] [--stream [--cache-budget=BYTES]]\n"
      "          [--precision=f32|f64]\n"
      "linbp_cli list\n"
      "linbp_cli convert --scenario=SPEC [--out=SNAPSHOT]\n"
      "          [--out-shards=DIR [--shards=N] [--compress[=f64|f32]]]\n"
      "          [--out-graph=FILE]\n"
      "          [--out-beliefs=FILE] [--out-labels=FILE]\n"
      "linbp_cli shard --scenario=SPEC --out-dir=DIR [--shards=N]\n"
      "          [--compress[=f64|f32]]\n"
      "linbp_cli info --snapshot=FILE|MANIFEST\n"
      "linbp_cli serve --scenario=SPEC [--coupling=PRESET|FILE]\n"
      "          [--method=linbp|linbp*] [--eps=auto|VALUE] [--threads=N]\n"
      "          [--precision=f32|f64]\n"
      "linbp_cli trace --scenario=SPEC --out-dir=DIR [--ops=N] [--seed=S]\n"
      "          [--method=linbp|linbp*]\n"
      "  global flags (any command): --metrics-out=FILE writes a JSON\n"
      "           metrics + time-series + trace-span report on exit;\n"
      "           --trace-out=FILE writes a Chrome trace-event JSON\n"
      "           (load in chrome://tracing or ui.perfetto.dev);\n"
      "           --quiet silences diagnostic notes on stderr\n"
      "  EDGES:   'u v [w]' per line;  BELIEFS: 'v c b' per line\n"
      "  SPEC:    e.g. sbm:n=10000,k=4,mode=heterophily | snap:path=g.lbps\n"
      "           (snap: also accepts a shard directory's manifest.lbpm;\n"
      "           see `linbp_cli list`)\n"
      "  presets: homophily2 heterophily2 auction dblp4 kronecker3\n"
      "  shards:  nnz-balanced row blocks (exec::RowPartition); default 4\n"
      "  threads: 0 = all hardware threads; default: LINBP_THREADS or 1\n"
      "  precision: f64 (default, bit-exact to prior releases) or f32\n"
      "           (float32 belief storage, ~half the memory traffic per\n"
      "           sweep; delta norms and diagnostics stay fp64; labels\n"
      "           can flip on a small fraction of borderline nodes;\n"
      "           linbp/linbp* only)\n"
      "  stream:  out-of-core solve over a snap:path=FILE spec (a .lbps\n"
      "           or a manifest.lbpm); the shards stream with prefetch\n"
      "           (peak CSR = 2 blocks) and labels match the in-memory run\n"
      "           bit for bit;\n"
      "           --cache-budget=BYTES keeps decoded blocks in an LRU\n"
      "           cache so sweeps after the first skip disk when the\n"
      "           working set fits (0 = off, the default)\n"
      "  compress: the shards' value width: f64 (the default, and what a\n"
      "           bare --compress means; lossless, labels unchanged) or f32\n"
      "           (half the value bytes; beliefs then match the f32 solve\n"
      "           of the same shards). Column ids are always delta+varint\n"
      "           encoded. A graph whose weights are all 1 stores no\n"
      "           values, so f32 writes the same bytes as f64 for it\n"
      "  serve:   REPL on stdin; per line: a u v w | d u v | w u v w |\n"
      "           b node k r_1..r_k | q v [v...] | labels | stats |\n"
      "           metrics | quit. Updates reply 'ok sweeps=N' or\n"
      "           'error: ...' (state untouched on error); queries reply\n"
      "           label lines; stats adds convergence diagnostics\n"
      "           (rho_hat, spectral_radius, predicted_sweeps, and the\n"
      "           sweep schedule) and update/query latency\n"
      "           percentiles; metrics dumps Prometheus text\n"
      "           exposition. spectral_radius is\n"
      "           rho(M) by power iteration, run when stats asks and\n"
      "           cached until the next edge edit; rho_hat is the fitted\n"
      "           rate of the segmented Gauss-Seidel sweeps, below it\n"
      "  trace:   writes start.lbps, final.lbps, updates.txt, eps.txt for\n"
      "           the serve round-trip (warm replay vs cold solve)\n";
}

std::optional<Options> ParseOptions(const std::vector<std::string>& args,
                                    std::string* error) {
  Options options;
  for (const std::string& arg : args) {
    if (auto v = FlagValue(arg, "--scenario=")) {
      options.scenario = *v;
    } else if (auto v = FlagValue(arg, "--graph=")) {
      options.graph_path = *v;
    } else if (auto v = FlagValue(arg, "--beliefs=")) {
      options.beliefs_path = *v;
    } else if (auto v = FlagValue(arg, "--coupling=")) {
      options.coupling = *v;
    } else if (auto v = FlagValue(arg, "--method=")) {
      options.method = *v;
    } else if (auto v = FlagValue(arg, "--eps=")) {
      options.eps = *v;
    } else if (auto v = FlagValue(arg, "--k=")) {
      options.k = std::atoll(v->c_str());
    } else if (auto v = FlagValue(arg, "--output=")) {
      options.output_path = *v;
    } else if (auto v = FlagValue(arg, "--threads=")) {
      if (!ParseThreadsFlag(*v, &options.threads, error)) return std::nullopt;
    } else if (auto v = FlagValue(arg, "--precision=")) {
      options.precision = *v;
    } else if (auto v = FlagValue(arg, "--cache-budget=")) {
      char* end = nullptr;
      const long long parsed =
          v->empty() ? -1 : std::strtoll(v->c_str(), &end, 10);
      if (v->empty() || *end != '\0' || parsed < 0) {
        *error = "--cache-budget must be a byte count >= 0";
        return std::nullopt;
      }
      options.cache_budget = parsed;
    } else if (arg == "--report") {
      options.report = true;
    } else if (arg == "--stream") {
      options.stream = true;
    } else {
      *error = "unknown argument: " + arg;
      return std::nullopt;
    }
  }
  const bool has_files =
      !options.graph_path.empty() || !options.beliefs_path.empty();
  if (!options.scenario.empty() && has_files) {
    *error = "--scenario and --graph/--beliefs are mutually exclusive";
    return std::nullopt;
  }
  if (options.scenario.empty() &&
      (options.graph_path.empty() || options.beliefs_path.empty())) {
    *error = "either --scenario or both --graph and --beliefs are required";
    return std::nullopt;
  }
  if (options.method != "bp" && options.method != "linbp" &&
      options.method != "linbp*" && options.method != "sbp") {
    *error = "unknown method: " + options.method;
    return std::nullopt;
  }
  if (options.stream) {
    if (options.scenario.empty()) {
      *error = "--stream requires a --scenario=snap:path=MANIFEST spec";
      return std::nullopt;
    }
    if (options.method != "linbp" && options.method != "linbp*") {
      *error = "--stream supports --method=linbp or linbp* (BP and SBP "
               "need the materialized graph)";
      return std::nullopt;
    }
  }
  if (options.cache_budget > 0 && !options.stream) {
    *error = "--cache-budget requires --stream (the in-memory solver "
             "holds the whole CSR already)";
    return std::nullopt;
  }
  Precision precision = Precision::kF64;
  if (!ParsePrecision(options.precision, &precision)) {
    *error = "--precision must be f32 or f64";
    return std::nullopt;
  }
  if (precision == Precision::kF32 && options.method != "linbp" &&
      options.method != "linbp*") {
    *error = "--precision=f32 supports --method=linbp or linbp* (BP and "
             "SBP have no float32 belief path)";
    return std::nullopt;
  }
  return options;
}

namespace {

// Applies a validated --precision string to LinBpOptions. A float-stored
// iterate stalls near 1e-8, so the f64 default tolerance (1e-12) is
// unreachable at f32: it would burn the whole iteration budget on solve
// and make serve's initial solve "fail" to converge. Stop at float
// resolution instead; delta norms stay fp64 either way.
void ApplyPrecision(const std::string& precision, LinBpOptions* options) {
  ParsePrecision(precision, &options->precision);
  if (options->precision == Precision::kF32) options->tolerance = 1e-6;
}

// Emits the "v class [class...]" label lines and honors --output.
int EmitLabelLines(const TopBeliefAssignment& top, std::int64_t num_nodes,
                   const Options& options, std::string* output,
                   std::string* error) {
  std::ostringstream lines;
  for (std::int64_t v = 0; v < num_nodes; ++v) {
    lines << v;
    for (const int cls : top.classes[v]) lines << ' ' << cls;
    lines << '\n';
  }
  *output = lines.str();
  if (!options.output_path.empty()) {
    std::ofstream out(options.output_path);
    if (!out) {
      *error = options.output_path + ": cannot write";
      return 1;
    }
    out << *output;
  }
  return 0;
}

// F1 against a ground-truth vector (-1 = unknown), printed to stderr.
void ReportGroundTruthQuality(const std::vector<int>& ground_truth,
                              const TopBeliefAssignment& top) {
  TopBeliefAssignment truth;
  truth.classes.resize(ground_truth.size());
  std::vector<std::int64_t> known;
  for (std::size_t v = 0; v < ground_truth.size(); ++v) {
    if (ground_truth[v] >= 0) {
      truth.classes[v].push_back(ground_truth[v]);
      known.push_back(static_cast<std::int64_t>(v));
    }
  }
  const QualityMetrics quality = CompareAssignments(truth, top, known);
  std::fprintf(stderr, "ground truth: %lld nodes, F1 %.4f\n",
               static_cast<long long>(known.size()), quality.f1);
}

// The --stream pipeline: open the manifest as a ShardStreamBackend and
// run LinBP / LinBP* out-of-core. Every product streams the shards with
// double-buffered prefetch; beliefs (hence labels) are bit-identical to
// the in-memory run on the same manifest.
int RunStreamPipeline(const Options& options, std::string* output,
                      std::string* error) {
  const exec::ExecContext ctx = ContextFor(options.threads);
  const auto parsed = dataset::ParseScenarioSpec(options.scenario, error);
  if (!parsed.has_value()) return 1;
  dataset::ScenarioParams params = parsed->params;
  const std::string manifest_path = params.Str("path", "");
  if (parsed->name != "snap" || manifest_path.empty()) {
    *error = "--stream requires a snap:path=MANIFEST scenario spec";
    return 1;
  }
  // Mirror the registry's typo rejection: the non-stream snap: path
  // errors on unknown keys, so the streamed one must too.
  const std::vector<std::string> unconsumed = params.UnconsumedKeys();
  if (!unconsumed.empty()) {
    *error = "snap: unknown parameter '" + unconsumed.front() + "'";
    return 1;
  }
  auto backend = engine::ShardStreamBackend::Open(manifest_path, error, ctx,
                                                  options.cache_budget);
  if (!backend.has_value()) return 1;
  if (backend->explicit_nodes().empty()) {
    *error = "no explicit beliefs";
    return 1;
  }
  CouplingMatrix coupling =
      CouplingMatrix::FromResidual(backend->coupling_residual());
  if (!options.coupling.empty()) {
    const auto override_coupling =
        dataset::ResolveCouplingSpec(options.coupling, error);
    if (!override_coupling.has_value()) return 1;
    if (override_coupling->k() != backend->k()) {
      *error = "--coupling disagrees with the scenario's class count";
      return 1;
    }
    coupling = *override_coupling;
  }
  if (options.k > 0 && options.k != backend->k()) {
    *error = "--k disagrees with the coupling matrix size";
    return 1;
  }

  const LinBpVariant variant = options.method == "linbp*"
                                   ? LinBpVariant::kLinBpStar
                                   : LinBpVariant::kLinBp;
  double eps = 0.0;
  try {
    if (options.eps == "auto") {
      // The exact Lemma 8 threshold streams the shards once per power-
      // iteration step — for kLinBp that bisection means many full
      // passes over the on-disk graph BEFORE the solve. It is the same
      // computation the in-memory pipeline runs (so labels stay
      // byte-identical), but on a dataset that truly dwarfs RAM an
      // explicit --eps skips this cost entirely; say so up front.
      if (variant == LinBpVariant::kLinBp) {
        obs::Log(
            "note: --eps=auto bisects the exact convergence threshold, "
            "streaming all shards once per power-iteration step; pass "
            "--eps=VALUE to skip this on large graphs");
      }
      const double threshold = ExactEpsilonThreshold(
          *backend, coupling, variant, /*tolerance=*/1e-6, ctx);
      eps = std::isfinite(threshold) ? 0.5 * threshold : 1.0;
    } else {
      eps = std::atof(options.eps.c_str());
      if (!(eps > 0.0)) {
        *error = "--eps must be positive or 'auto'";
        return 1;
      }
    }
  } catch (const engine::StreamError& stream_error) {
    *error = stream_error.what();
    return 1;
  }
  if (options.report) {
    std::fprintf(stderr,
                 "streaming %lld shard(s), max block %lld bytes; "
                 "using eps=%.6g\n",
                 static_cast<long long>(backend->reader().num_shards()),
                 static_cast<long long>(
                     backend->reader().max_block_csr_bytes()),
                 eps);
  }

  LinBpOptions lin_options;
  lin_options.variant = variant;
  lin_options.max_iterations = 1000;
  lin_options.exec = ctx;
  ApplyPrecision(options.precision, &lin_options);
  const LinBpResult result =
      RunLinBp(*backend, coupling.ScaledResidual(eps),
               backend->explicit_residuals(), lin_options);
  if (result.failed) {
    *error = result.error;
    return 1;
  }
  if (result.diverged) {
    *error = "LinBP diverged; lower --eps (see --report)";
    return 2;
  }
  const TopBeliefAssignment top = TopBeliefs(result.beliefs);
  if (options.report && backend->HasGroundTruth()) {
    ReportGroundTruthQuality(backend->ground_truth(), top);
  }
  return EmitLabelLines(top, backend->num_nodes(), options, output, error);
}

}  // namespace

int RunPipeline(const Options& options, std::string* output,
                std::string* error) {
  if (options.stream) return RunStreamPipeline(options, output, error);
  // Execution context: --threads wins; otherwise LINBP_THREADS (serial
  // when unset). Built before the problem so snapshot loads use it too;
  // every method produces the same labels at any width.
  const exec::ExecContext ctx = ContextFor(options.threads);

  const auto scenario = BuildProblem(options, ctx, error);
  if (!scenario.has_value()) return 1;

  const CouplingMatrix coupling = scenario->Coupling();
  const std::int64_t k = options.k > 0 ? options.k : scenario->k;
  if (k != scenario->k) {
    *error = "--k disagrees with the coupling matrix size";
    return 1;
  }
  if (scenario->explicit_nodes.empty()) {
    *error = "no explicit beliefs";
    return 1;
  }
  const Graph& graph = scenario->graph;

  // eps_H: explicit value, or half the exact LinBP threshold.
  double eps = 0.0;
  if (options.eps == "auto") {
    const double threshold = ExactEpsilonThreshold(
        graph, coupling,
        options.method == "linbp*" ? LinBpVariant::kLinBpStar
                                   : LinBpVariant::kLinBp);
    eps = std::isfinite(threshold) ? 0.5 * threshold : 1.0;
  } else {
    eps = std::atof(options.eps.c_str());
    if (!(eps > 0.0)) {
      *error = "--eps must be positive or 'auto'";
      return 1;
    }
  }

  if (options.report) {
    const ConvergenceReport report = AnalyzeConvergence(graph, coupling);
    std::fprintf(stderr,
                 "rho(A)=%.6g rho(Hhat_o)=%.6g exact eps: LinBP %.6g, "
                 "LinBP* %.6g; using eps=%.6g\n",
                 report.adjacency_spectral_radius,
                 report.coupling_spectral_radius, report.exact_epsilon_linbp,
                 report.exact_epsilon_linbp_star, eps);
  }

  // Run the chosen method.
  DenseMatrix result_beliefs(graph.num_nodes(), k);
  if (options.method == "bp") {
    if (eps >= coupling.MaxStochasticScale()) {
      *error = "eps too large for a stochastic coupling matrix";
      return 1;
    }
    const BpResult result =
        RunBp(graph, coupling.ScaledStochastic(eps),
              ResidualToProbability(scenario->explicit_residuals));
    if (result.diverged) {
      *error = "BP diverged";
      return 2;
    }
    result_beliefs = ProbabilityToResidual(result.beliefs);
  } else if (options.method == "sbp") {
    result_beliefs = RunSbp(graph, coupling.residual(),
                            scenario->explicit_residuals,
                            scenario->explicit_nodes, ctx)
                         .beliefs;
  } else {
    LinBpOptions lin_options;
    lin_options.variant = options.method == "linbp*"
                              ? LinBpVariant::kLinBpStar
                              : LinBpVariant::kLinBp;
    lin_options.max_iterations = 1000;
    lin_options.exec = ctx;
    ApplyPrecision(options.precision, &lin_options);
    const LinBpResult result = RunLinBp(graph, coupling.ScaledResidual(eps),
                                        scenario->explicit_residuals,
                                        lin_options);
    if (result.diverged) {
      *error = "LinBP diverged; lower --eps (see --report)";
      return 2;
    }
    result_beliefs = result.beliefs;
  }

  const TopBeliefAssignment top = TopBeliefs(result_beliefs);

  // With ground truth available, --report also prints quality metrics.
  if (options.report && scenario->HasGroundTruth()) {
    ReportGroundTruthQuality(scenario->ground_truth, top);
  }

  return EmitLabelLines(top, graph.num_nodes(), options, output, error);
}

int RunServe(const ServeOptions& options, std::istream& in,
             std::ostream& out, std::string* error) {
  const exec::ExecContext ctx = ContextFor(options.threads);
  Options build;
  build.scenario = options.scenario;
  build.coupling = options.coupling;
  auto scenario = BuildProblem(build, ctx, error);
  if (!scenario.has_value()) return 1;
  if (scenario->explicit_nodes.empty()) {
    *error = "no explicit beliefs";
    return 1;
  }
  const CouplingMatrix coupling = scenario->Coupling();
  const LinBpVariant variant = options.method == "linbp*"
                                   ? LinBpVariant::kLinBpStar
                                   : LinBpVariant::kLinBp;
  double eps = 0.0;
  if (!ResolveEps(options.eps, scenario->graph, coupling, variant, &eps,
                  error)) {
    return 1;
  }
  LinBpOptions lin_options;
  lin_options.variant = variant;
  lin_options.max_iterations = 1000;
  lin_options.exec = ctx;
  ApplyPrecision(options.precision, &lin_options);
  const std::int64_t k = scenario->k;
  const std::int64_t n = scenario->graph.num_nodes();
  LinBpState state(std::move(scenario->graph), coupling.ScaledResidual(eps),
                   std::move(scenario->explicit_residuals), lin_options);
  if (!state.converged()) {
    *error = state.last_error().empty()
                 ? "initial solve did not converge; lower --eps"
                 : state.last_error();
    return 1;
  }

  // Session-local latency accounting behind the `stats` line. Success-
  // only on purpose: failed ops leave the state untouched, and the
  // telemetry keeps the same guarantee (two stats probes bracketing any
  // amount of rejected input print identically). The same events are
  // mirrored into the global registry (per-op-kind series) for the
  // `metrics` command's Prometheus exposition.
  obs::Histogram update_latency;
  obs::Histogram query_latency;
  obs::Registry& registry = obs::Registry::Global();

  // The REPL: one reply per line, errors never abort and never touch the
  // state. Updates go through the same strict parser as stream files.
  std::string line;
  while (std::getline(in, line)) {
    if (dataset::IsUpdateStreamComment(line)) continue;
    std::istringstream fields(line);
    std::string command;
    fields >> command;
    if (command == "quit") break;
    if (command == "stats") {
      const obs::HistogramSnapshot updates = update_latency.Snapshot();
      const obs::HistogramSnapshot queries = query_latency.Snapshot();
      char latency[192];
      std::snprintf(latency, sizeof(latency),
                    " updates=%lld update_p50_ms=%.6g update_p95_ms=%.6g"
                    " queries=%lld query_p50_ms=%.6g query_p95_ms=%.6g",
                    static_cast<long long>(updates.count),
                    updates.Quantile(0.5) * 1e3, updates.Quantile(0.95) * 1e3,
                    static_cast<long long>(queries.count),
                    queries.Quantile(0.5) * 1e3, queries.Quantile(0.95) * 1e3);
      // rho(M) is the one thing only `stats` asks for: the state runs its
      // power iteration here, at most once per edge edit. rho_hat fits
      // the rate of the schedule the solves run, below rho(M) for the
      // segmented default.
      const double spectral_radius = state.SpectralRadius();
      const ConvergenceDiagnostics& diag = state.diagnostics();
      char convergence[160];
      std::snprintf(convergence, sizeof(convergence),
                    " rho_hat=%.6g spectral_radius=%.6g predicted_sweeps=%.6g"
                    " schedule=%s",
                    diag.empirical_contraction, spectral_radius,
                    diag.predicted_sweeps_to_tolerance,
                    SweepScheduleName(lin_options.schedule));
      out << "nodes=" << n << " edges=" << state.graph().num_undirected_edges()
          << " k=" << k << " eps=" << eps
          << " converged=" << (state.converged() ? 1 : 0)
          << " cold_sweeps=" << state.cold_start_iterations() << convergence
          << latency << '\n';
      continue;
    }
    if (command == "metrics") {
      std::string extra;
      if (fields >> extra) {
        out << "error: metrics takes no arguments\n";
        continue;
      }
      out << registry.PrometheusText();
      continue;
    }
    if (command == "labels") {
      std::string extra;
      if (fields >> extra) {
        out << "error: labels takes no arguments\n";
        continue;
      }
      WallTimer query_timer;
      std::vector<std::int64_t> all(static_cast<std::size_t>(n));
      for (std::int64_t v = 0; v < n; ++v) all[static_cast<std::size_t>(v)] = v;
      EmitTopBeliefLines(state.beliefs(), all, out);
      const double seconds = query_timer.Seconds();
      query_latency.Observe(seconds);
      LINBP_OBS_COUNTER_ADD("serve_queries_total", 1);
      LINBP_OBS_HISTOGRAM_OBSERVE("serve_query_seconds", seconds);
      continue;
    }
    if (command == "q") {
      std::vector<std::int64_t> nodes;
      std::string token;
      bool ok = true;
      while (fields >> token) {
        std::int64_t node = 0;
        if (!ParseNodeIdToken(token, &node)) {
          out << "error: malformed node id '" << token << "'\n";
          ok = false;
          break;
        }
        if (node < 0 || node >= n) {
          out << "error: node " << node << " outside [0, " << n << ")\n";
          ok = false;
          break;
        }
        nodes.push_back(node);
      }
      if (!ok) continue;
      if (nodes.empty()) {
        out << "error: q needs at least one node id\n";
        continue;
      }
      WallTimer query_timer;
      EmitTopBeliefLines(state.beliefs(), nodes, out);
      const double seconds = query_timer.Seconds();
      query_latency.Observe(seconds);
      LINBP_OBS_COUNTER_ADD("serve_queries_total", 1);
      LINBP_OBS_HISTOGRAM_OBSERVE("serve_query_seconds", seconds);
      continue;
    }
    if (command == "a" || command == "d" || command == "w" ||
        command == "b") {
      dataset::UpdateOp op;
      std::string problem;
      if (!dataset::ParseUpdateLine(line, k, &op, &problem)) {
        LINBP_OBS_COUNTER_ADD("serve_errors_total", 1);
        out << "error: " << problem << '\n';
        continue;
      }
      obs::ScopedSpan span("serve_update");
      WallTimer update_timer;
      const int sweeps = dataset::ApplyUpdateOp(op, &state, &problem);
      const double seconds = update_timer.Seconds();
      const char* kind = command == "a"   ? "add"
                         : command == "d" ? "delete"
                         : command == "w" ? "reweight"
                                          : "belief";
      if (span.active()) {
        span.SetAttr("kind", kind);
        span.SetAttr("sweeps", sweeps);
      }
      if (sweeps < 0) {
        LINBP_OBS_COUNTER_ADD("serve_errors_total", 1);
        out << "error: " << problem << '\n';
      } else {
        update_latency.Observe(seconds);
        registry.GetCounter("serve_updates_total", {{"kind", kind}}).Add(1);
        registry.GetHistogram("serve_update_seconds", {{"kind", kind}})
            .Observe(seconds);
        out << "ok sweeps=" << sweeps << '\n';
      }
      continue;
    }
    LINBP_OBS_COUNTER_ADD("serve_errors_total", 1);
    out << "error: unknown command '" << command
        << "' (a d w b q labels stats metrics quit)\n";
  }
  return 0;
}

int RunTrace(const TraceOptions& options, std::string* output,
             std::string* error) {
  const exec::ExecContext ctx = ContextFor(options.threads);
  auto scenario = dataset::MakeScenario(options.scenario, error, ctx);
  if (!scenario.has_value()) return 1;
  if (scenario->explicit_nodes.empty()) {
    *error = "trace: scenario has no explicit beliefs to serve";
    return 1;
  }
  dataset::UpdateTraceOptions trace_options;
  trace_options.num_ops = options.ops;
  trace_options.seed = options.seed;
  const dataset::UpdateTrace trace =
      dataset::GenerateUpdateTrace(*scenario, trace_options);

  std::error_code ec;
  std::filesystem::create_directories(options.out_dir, ec);
  const std::filesystem::path dir(options.out_dir);

  // Start side: the scenario minus the held-out edges the trace re-adds.
  dataset::Scenario start = *scenario;
  start.graph = Graph(scenario->graph.num_nodes(), trace.start_edges);
  if (!dataset::SaveSnapshot(start, (dir / "start.lbps").string(), error)) {
    return 1;
  }

  // Final side: every update applied to the plain problem description.
  std::vector<Edge> final_edges = trace.start_edges;
  DenseMatrix final_residuals = scenario->explicit_residuals;
  if (!dataset::ApplyUpdateOpsToProblem(trace.ops,
                                        scenario->graph.num_nodes(),
                                        &final_edges, &final_residuals,
                                        error)) {
    return 1;
  }
  dataset::Scenario final_scenario = *scenario;
  final_scenario.graph = Graph(scenario->graph.num_nodes(), final_edges);
  final_scenario.explicit_residuals = std::move(final_residuals);
  if (!dataset::SaveSnapshot(final_scenario, (dir / "final.lbps").string(),
                             error)) {
    return 1;
  }

  if (!dataset::WriteUpdateStream(trace.ops,
                                  (dir / "updates.txt").string())) {
    *error = (dir / "updates.txt").string() + ": cannot write";
    return 1;
  }

  // One eps that keeps BOTH endpoints convergent: half the smaller exact
  // threshold. A warm serve run over the stream and a cold solve of the
  // final snapshot at this eps land on the same fixed point.
  const CouplingMatrix coupling = scenario->Coupling();
  const LinBpVariant variant = options.method == "linbp*"
                                   ? LinBpVariant::kLinBpStar
                                   : LinBpVariant::kLinBp;
  const double threshold =
      std::min(ExactEpsilonThreshold(start.graph, coupling, variant),
               ExactEpsilonThreshold(final_scenario.graph, coupling,
                                     variant));
  const double eps = std::isfinite(threshold) ? 0.5 * threshold : 1.0;
  {
    std::ofstream eps_out(dir / "eps.txt");
    if (!eps_out) {
      *error = (dir / "eps.txt").string() + ": cannot write";
      return 1;
    }
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.17g\n", eps);
    eps_out << buffer;
  }

  std::ostringstream lines;
  lines << scenario->name << ": " << trace.start_edges.size()
        << " start edges, " << trace.ops.size() << " ops -> "
        << final_edges.size() << " final edges, eps=" << eps << ", wrote "
        << options.out_dir << "/{start.lbps, final.lbps, updates.txt, "
        << "eps.txt}\n";
  *output = lines.str();
  return 0;
}

namespace {

int RunMainDispatch(const std::vector<std::string>& args,
                    std::string* output, std::string* error,
                    bool* usage_error) {
  bool parse_failed = false;
  if (usage_error == nullptr) usage_error = &parse_failed;
  *usage_error = false;
  if (!args.empty() && args[0] == "list") {
    if (args.size() > 1) {
      *error = "list takes no arguments";
      *usage_error = true;
      return 1;
    }
    return RunList(output);
  }
  if (!args.empty() && args[0] == "convert") {
    const auto options = ParseConvertOptions(
        std::vector<std::string>(args.begin() + 1, args.end()), error);
    if (!options.has_value()) {
      *usage_error = true;
      return 1;
    }
    return RunConvert(*options, output, error);
  }
  if (!args.empty() && args[0] == "shard") {
    const auto options = ParseShardOptions(
        std::vector<std::string>(args.begin() + 1, args.end()), error);
    if (!options.has_value()) {
      *usage_error = true;
      return 1;
    }
    return RunShard(*options, output, error);
  }
  if (!args.empty() && args[0] == "serve") {
    const auto options = ParseServeOptions(
        std::vector<std::string>(args.begin() + 1, args.end()), error);
    if (!options.has_value()) {
      *usage_error = true;
      return 1;
    }
    // Replies must appear as soon as they are produced (the REPL may sit
    // on a pipe for hours), so serve streams to std::cout directly
    // instead of accumulating into *output.
    output->clear();
    return RunServe(*options, std::cin, std::cout, error);
  }
  if (!args.empty() && args[0] == "trace") {
    const auto options = ParseTraceOptions(
        std::vector<std::string>(args.begin() + 1, args.end()), error);
    if (!options.has_value()) {
      *usage_error = true;
      return 1;
    }
    return RunTrace(*options, output, error);
  }
  if (!args.empty() && args[0] == "info") {
    InfoOptions options;
    for (std::size_t i = 1; i < args.size(); ++i) {
      if (auto v = FlagValue(args[i], "--snapshot=")) {
        options.snapshot_path = *v;
      } else {
        *error = "unknown argument: " + args[i];
        *usage_error = true;
        return 1;
      }
    }
    if (options.snapshot_path.empty()) {
      *error = "info: --snapshot is required";
      *usage_error = true;
      return 1;
    }
    return RunInfo(options, output, error);
  }
  const auto options = ParseOptions(args, error);
  if (!options.has_value()) {
    *usage_error = true;
    return 1;
  }
  const int code = RunPipeline(*options, output, error);
  // The label lines went to the output file; don't echo them to stdout.
  if (code == 0 && !options->output_path.empty()) output->clear();
  return code;
}

}  // namespace

int RunMain(const std::vector<std::string>& args, std::string* output,
            std::string* error, bool* usage_error) {
  // --quiet, --metrics-out=FILE, and --trace-out=FILE apply to every
  // subcommand, so they are stripped here rather than in each parser.
  std::vector<std::string> rest;
  rest.reserve(args.size());
  std::string metrics_out;
  std::string trace_out;
  for (const std::string& arg : args) {
    if (arg == "--quiet") {
      obs::SetQuiet(true);
    } else if (auto v = FlagValue(arg, "--metrics-out=")) {
      metrics_out = *v;
    } else if (auto v = FlagValue(arg, "--trace-out=")) {
      trace_out = *v;
    } else {
      rest.push_back(arg);
    }
  }
  if (metrics_out.empty() && trace_out.empty()) {
    return RunMainDispatch(rest, output, error, usage_error);
  }
  // Spans are retained only when a report was requested; without the
  // flags ScopedSpan sees no active tracer and costs one atomic load.
  obs::Tracer tracer;
  obs::SetActiveTracer(&tracer);
  int code = RunMainDispatch(rest, output, error, usage_error);
  obs::SetActiveTracer(nullptr);
  if (!metrics_out.empty() &&
      !obs::WriteMetricsReport(metrics_out, obs::Registry::Global(),
                               &tracer) &&
      code == 0) {
    *error = "failed to write metrics report to " + metrics_out;
    code = 1;
  }
  if (!trace_out.empty() && !obs::WriteChromeTrace(trace_out, tracer) &&
      code == 0) {
    *error = "failed to write trace to " + trace_out;
    code = 1;
  }
  return code;
}

}  // namespace cli
}  // namespace linbp
