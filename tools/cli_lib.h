// Library behind the `linbp_cli` command-line tool.
//
// The tool has one main pipeline plus four subcommands:
//   linbp_cli [flags]            read a problem (edge-list files or a
//                                --scenario spec), pick a coupling and a
//                                convergence-safe eps_H, run one of
//                                {bp, linbp, linbp*, sbp}, write labels;
//   linbp_cli list               list the registered scenarios;
//   linbp_cli convert [flags]    materialize a scenario and write it as a
//                                binary snapshot, a sharded snapshot,
//                                and/or text files;
//   linbp_cli shard [flags]      materialize a scenario and write it as a
//                                sharded snapshot (manifest + per-row-
//                                block shard files);
//   linbp_cli info [flags]       print a snapshot's or shard manifest's
//                                header;
//   linbp_cli serve [flags]      hold a warm LinBP state, answer top-k
//                                label queries, and consume update-
//                                stream lines from stdin;
//   linbp_cli trace [flags]      generate a mixed update trace plus the
//                                start/final snapshots that bracket it.
// Kept separate from main() so every step is unit testable.

#ifndef LINBP_TOOLS_CLI_LIB_H_
#define LINBP_TOOLS_CLI_LIB_H_

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

namespace linbp {
namespace cli {

/// Parsed main-pipeline options.
struct Options {
  /// Scenario spec ("sbm:n=10000,k=4", "snap:path=g.lbps", ...). Mutually
  /// exclusive with graph_path/beliefs_path.
  std::string scenario;
  std::string graph_path;
  std::string beliefs_path;
  /// Preset name (homophily2 | heterophily2 | auction | dblp4 |
  /// kronecker3) or a path to a coupling matrix file. Empty picks the
  /// scenario's own coupling (scenario mode) or homophily2 (file mode).
  std::string coupling;
  /// Method: bp | linbp | linbp* | sbp.
  std::string method = "linbp";
  /// "auto" picks half the Lemma 8 threshold; otherwise a double.
  std::string eps = "auto";
  /// Number of classes; 0 means "infer from the coupling matrix".
  std::int64_t k = 0;
  /// Output file for "v class" lines; empty writes to stdout.
  std::string output_path;
  /// Print the convergence report (and, when ground truth is available,
  /// quality metrics) before exiting.
  bool report = false;
  /// Worker threads for the solver kernels: -1 defers to the LINBP_THREADS
  /// environment variable (default serial), 0 means all hardware threads,
  /// N >= 1 means exactly N. Results are identical for every setting.
  int threads = -1;
  /// Out-of-core mode: solve by streaming the shard manifest named by a
  /// "snap:path=MANIFEST" scenario spec instead of materializing the
  /// graph (methods linbp / linbp* only). Labels are bit-identical to
  /// the in-memory run.
  bool stream = false;
  /// Belief-storage precision on the solver hot path: "f64" (default,
  /// bit-identical to previous releases) or "f32" (half the memory
  /// traffic per sweep; labels may differ from f64 on a small fraction
  /// of hard-to-classify nodes). linbp / linbp* only.
  std::string precision = "f64";
  /// Decoded-block cache budget in bytes for --stream solves (0 = off,
  /// the strict two-blocks-resident mode). When the manifest's decoded
  /// working set fits the budget, sweeps after the first hit the cache
  /// and re-read nothing from disk. Requires --stream.
  std::int64_t cache_budget = 0;
};

/// Parsed `convert` options.
struct ConvertOptions {
  /// Scenario spec to materialize (required).
  std::string scenario;
  /// Snapshot output path (optional).
  std::string snapshot_path;
  /// Sharded snapshot output directory (optional); `shards` bounds the
  /// nnz-balanced row-block count used when it is set.
  std::string shards_dir;
  std::int64_t shards = 4;
  /// Value width of the shard payloads: "f64" (lossless) or "f32".
  std::string compress = "f64";
  /// Text export paths (each optional).
  std::string graph_path;
  std::string beliefs_path;
  std::string labels_path;
  int threads = -1;
};

/// Parsed `shard` options.
struct ShardOptions {
  /// Scenario spec to materialize (required).
  std::string scenario;
  /// Output directory for the manifest + shard files (required).
  std::string out_dir;
  /// Maximum shard count (nnz-balanced row blocks; fewer when rows run
  /// out).
  std::int64_t shards = 4;
  /// Value width of the shard payloads, as in ConvertOptions::compress.
  std::string compress = "f64";
  int threads = -1;
};

/// Parsed `info` options (`snapshot_path` names a `.lbps` or a shard
/// directory's manifest).
struct InfoOptions {
  std::string snapshot_path;
};

/// Parsed `serve` options: a long-running warm LinBpState answering
/// label queries while consuming update-stream lines from stdin.
struct ServeOptions {
  /// Scenario spec naming the problem to serve (required).
  std::string scenario;
  /// Optional coupling override (preset name or matrix file).
  std::string coupling;
  /// linbp | linbp* (the warm state supports the linearized variants).
  std::string method = "linbp";
  /// "auto" picks half the Lemma 8 threshold of the STARTING graph;
  /// pass an explicit value when the graph will grow much denser.
  std::string eps = "auto";
  int threads = -1;
  /// Belief-storage precision of the warm state's re-solves ("f64" or
  /// "f32"; see Options::precision).
  std::string precision = "f64";
};

/// Parsed `trace` options: generate a mixed update trace from a scenario
/// and write the serve round-trip artifacts into a directory.
struct TraceOptions {
  /// Scenario spec to derive the trace from (required).
  std::string scenario;
  /// Output directory (required); receives start.lbps, final.lbps,
  /// updates.txt, and eps.txt.
  std::string out_dir;
  std::int64_t ops = 64;
  std::uint64_t seed = 1;
  /// Variant whose convergence threshold eps.txt is computed for.
  std::string method = "linbp";
  int threads = -1;
};

/// Parses main-pipeline argv; returns nullopt and fills *error on unknown
/// flags or missing required arguments.
std::optional<Options> ParseOptions(const std::vector<std::string>& args,
                                    std::string* error);

/// Usage summary covering the pipeline and the subcommands.
std::string Usage();

/// Runs the main pipeline; returns the process exit code and fills
/// *output with the produced label lines (also written to
/// options.output_path if set).
int RunPipeline(const Options& options, std::string* output,
                std::string* error);

/// Runs the serve REPL: solves the scenario cold, then answers one
/// reply line per input line on `out` until EOF or `quit`:
///   a/d/w/b <update-stream line>  ->  "ok sweeps=N" | "error: ..."
///   q v [v...]                    ->  one "v class [class...]" per node
///   labels                        ->  label lines for every node
///   stats                         ->  one summary line (counts plus
///                                     update/query latency percentiles)
///   metrics                       ->  Prometheus text exposition dump
/// Malformed or invalid lines get an "error: ..." reply and leave the
/// state untouched; the loop never aborts on input. Returns nonzero only
/// for setup failures (bad scenario, initial solve divergence).
int RunServe(const ServeOptions& options, std::istream& in,
             std::ostream& out, std::string* error);

/// Generates a mixed update trace from the scenario and writes
/// out_dir/{start.lbps, final.lbps, updates.txt, eps.txt}: the warm
/// starting snapshot, the snapshot with every update applied, the
/// stream between them, and an eps valid for BOTH graphs (half the
/// smaller exact threshold) so warm and cold runs are comparable.
int RunTrace(const TraceOptions& options, std::string* output,
             std::string* error);

/// True iff `linbp_cli info` should warn that a full (non-streamed) load
/// of `payload_bytes` exceeds the machine's memory. `available_bytes`
/// follows util::AvailableMemoryBytes semantics: 0 means UNKNOWN (no
/// readable /proc/meminfo), and unknown never warns — a missing metric
/// is not evidence of low RAM.
bool LowRamWarning(std::int64_t payload_bytes, std::int64_t available_bytes);

/// Top-level dispatcher: handles "list", "convert", "info", and the main
/// pipeline. Fills *output with whatever should go to stdout. When
/// `usage_error` is non-null it is set to true iff the failure was an
/// argument-parsing problem (the caller then shows Usage(); runtime
/// failures like divergence keep their message front and center).
int RunMain(const std::vector<std::string>& args, std::string* output,
            std::string* error, bool* usage_error = nullptr);

}  // namespace cli
}  // namespace linbp

#endif  // LINBP_TOOLS_CLI_LIB_H_
