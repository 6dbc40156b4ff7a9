// perfbench: the repository benchmark's measuring program.
//
//   perfbench_bin gen --workload=W --seed=N --dir=D [--size=full|tiny]
//   perfbench_bin run --workload=W --seed=N --dir=D --seconds=S --trace=0|1
//                     [--size=full|tiny] [--trace-out=FILE]
//
// `gen` writes the workload's input files through the library's public
// writers (SaveSnapshot, ShardSnapshot, GenerateUpdateTrace). `run` reads
// them back through the top-level entry points, repeats the workload for
// --seconds, checks every output, and prints one JSON line with every
// metric it measured (median over repetitions), the operation and check
// counts, and the run's provenance. perfbench/run.py builds this program,
// drives both steps and prints the benchmark's result line; the workloads
// and metrics are documented in perfbench/README.md.
//
// --trace=1 is the attribution run: it installs an obs::Tracer, wraps
// every call into a layer in an obs::ScopedSpan, times the layers'
// public functions directly (SpMM, coupling products, echo, apply,
// block reads, update parsing, graph rebuilds, ...) and writes the
// Chrome trace to --trace-out.

#include <algorithm>
#include <chrono>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

#include "src/core/convergence.h"
#include "src/core/coupling.h"
#include "src/core/fabp.h"
#include "src/core/labeling.h"
#include "src/core/linbp.h"
#include "src/core/linbp_incremental.h"
#include "src/core/sbp.h"
#include "src/core/sbp_incremental.h"
#include "src/dataset/registry.h"
#include "src/dataset/shard.h"
#include "src/dataset/shard_stream.h"
#include "src/dataset/snapshot.h"
#include "src/dataset/update_stream.h"
#include "src/engine/backend_ops.h"
#include "src/engine/in_memory_backend.h"
#include "src/engine/shard_stream_backend.h"
#include "src/exec/exec_context.h"
#include "src/graph/graph.h"
#include "src/la/kron_ops.h"
#include "src/obs/export.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/mem_info.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif

namespace {

using namespace linbp;
namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Workload definitions. Everything a run depends on is fixed here, so the
// seed is the only input that varies between runs.

constexpr int kThreads = 4;          // solves run at 4 threads, plus 1
constexpr double kBatchEps = 0.1;    // ~half the exact LinBP threshold
constexpr double kServeEps = 0.07;   // ~half the exact LinBP threshold
constexpr double kFabpH = 0.02;      // convergent scalar coupling for FaBP
constexpr std::int64_t kShards = 8;
constexpr std::int64_t kCacheBudget = std::int64_t{1} << 30;
constexpr int kSetupPasses = 5;      // standalone setups before the loop
constexpr int kOpsPerColdPass = 12;  // serve-fraud: a cold pass every 12 ops
constexpr double kMaxF32FlipShare = 0.005;
constexpr double kWarmColdTolerance = 1e-9;

struct SizeConfig {
  std::string batch_spec;  // scenario specs of the inputs
  std::string serve_spec;
  std::int64_t trace_ops = 0;
  // Recorded F1 floors against the planted truth (batch-mem).
  double linbp_f1_min = 0.0;
  double sbp_f1_min = 0.0;
};

SizeConfig ConfigFor(const std::string& size, std::int64_t seed) {
  const std::string s = std::to_string(seed);
  SizeConfig c;
  if (size == "tiny") {
    c.batch_spec = "sbm:n=3000,k=4,deg=10,seed=" + s;
    c.serve_spec = "fraud:users=600,products=300,seed=" + s;
    c.trace_ops = 100;
    c.linbp_f1_min = 0.80;
    c.sbp_f1_min = 0.70;
  } else {
    c.batch_spec = "sbm:n=200000,k=4,deg=10,seed=" + s;
    c.serve_spec = "fraud:users=20000,products=10000,seed=" + s;
    c.trace_ops = 100;
    c.linbp_f1_min = 0.92;
    c.sbp_f1_min = 0.80;
  }
  return c;
}

// ---------------------------------------------------------------------------
// Strict flags: every argument is --name=value with a known name; numbers
// must parse completely and lie in range. Nothing falls back silently.

struct Flags {
  std::string command;
  std::string workload;
  std::int64_t seed = -1;
  std::string dir;
  std::string size = "full";
  std::int64_t seconds = -1;
  std::int64_t trace = -1;
  std::string trace_out;
};

bool ParseInt(const std::string& text, std::int64_t lo, std::int64_t hi,
              std::int64_t* out) {
  if (text.empty() || text.size() > 19) return false;
  for (char ch : text) {
    if (ch < '0' || ch > '9') return false;
  }
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (errno != 0 || *end != '\0' || value < lo || value > hi) return false;
  *out = value;
  return true;
}

bool ParseFlags(int argc, char** argv, Flags* flags, std::string* error) {
  if (argc < 2) {
    *error = "missing command (gen | run)";
    return false;
  }
  flags->command = argv[1];
  if (flags->command != "gen" && flags->command != "run") {
    *error = "unknown command '" + flags->command + "'";
    return false;
  }
  const bool run = flags->command == "run";
  std::map<std::string, bool> seen;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      *error = "malformed argument '" + arg + "' (want --name=value)";
      return false;
    }
    const std::string name = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    if (seen[name]) {
      *error = "duplicate flag --" + name;
      return false;
    }
    seen[name] = true;
    if (name == "workload") {
      if (value != "batch-mem" && value != "batch-stream" &&
          value != "serve-fraud") {
        *error = "unknown workload '" + value + "'";
        return false;
      }
      flags->workload = value;
    } else if (name == "seed") {
      if (!ParseInt(value, 0, 2147483647, &flags->seed)) {
        *error = "--seed must be an integer in [0, 2147483647]";
        return false;
      }
    } else if (name == "dir") {
      if (value.empty()) {
        *error = "--dir must not be empty";
        return false;
      }
      flags->dir = value;
    } else if (name == "size") {
      if (value != "full" && value != "tiny") {
        *error = "--size must be full or tiny";
        return false;
      }
      flags->size = value;
    } else if (run && name == "seconds") {
      if (!ParseInt(value, 1, 600, &flags->seconds)) {
        *error = "--seconds must be an integer in [1, 600]";
        return false;
      }
    } else if (run && name == "trace") {
      if (!ParseInt(value, 0, 1, &flags->trace)) {
        *error = "--trace must be 0 or 1";
        return false;
      }
    } else if (run && name == "trace-out") {
      flags->trace_out = value;
    } else {
      *error = "unknown flag --" + name;
      return false;
    }
  }
  if (flags->workload.empty() || flags->seed < 0 || flags->dir.empty()) {
    *error = "--workload, --seed and --dir are required";
    return false;
  }
  if (run && (flags->seconds < 0 || flags->trace < 0)) {
    *error = "run needs --seconds and --trace";
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Measurement bookkeeping.

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

// Nearest-rank quantile: the smallest sample with at least q of the
// samples at or below it.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

// CPU time the hypervisor gave to other guests (steal, summed over all
// CPUs), from /proc/stat; 0 where unavailable.
double StealSeconds() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double fields[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  in >> cpu;
  for (double& f : fields) in >> f;
  static const double ticks = static_cast<double>(sysconf(_SC_CLK_TCK));
  return in && cpu == "cpu" && ticks > 0 ? fields[7] / ticks : 0.0;
}

// Samples per metric. Samples are grouped into segments (one solve, one
// set-up, the rest of a repetition), and each closed segment records the
// CPU steal that happened during it. A metric's value is the median of its samples
// from segments with at most the median steal of its samples: the plain
// median on a quiet host, and the quieter half of the run when other
// guests take the CPUs.
class Recorder {
 public:
  Recorder() : segment_start_steal_(StealSeconds()) {}

  void Add(const std::string& name, const char* unit, double value) {
    Metric& m = metrics_[name];
    m.unit = unit;
    m.samples.push_back({value, segment_});
  }
  void Set(const std::string& name, const char* unit, double value) {
    Metric& m = metrics_[name];
    m.unit = unit;
    m.samples.assign(1, {value, segment_});
  }
  // Metrics of layers the workload does not exercise: 0 work done.
  void Zero(const std::vector<std::pair<const char*, const char*>>& names) {
    for (const auto& [name, unit] : names) Set(name, unit, 0.0);
  }
  // Closes the current segment and records its steal.
  void EndSegment() {
    const double now = StealSeconds();
    segment_steal_.push_back(now - segment_start_steal_);
    segment_start_steal_ = now;
    ++segment_;
  }
  double total_steal() const {
    double total = 0.0;
    for (const double s : segment_steal_) total += s;
    return total;
  }
  std::string Json() const {
    std::ostringstream out;
    out << '{';
    bool first = true;
    for (const auto& [name, m] : metrics_) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.9g", Value(m));
      out << (first ? "" : ",") << '"' << name << "\":{\"value\":" << value
          << ",\"unit\":\"" << m.unit << "\",\"samples\":" << m.samples.size()
          << '}';
      first = false;
    }
    out << '}';
    return out.str();
  }

 private:
  struct Sample {
    double value;
    std::size_t segment;
  };
  struct Metric {
    std::string unit;
    std::vector<Sample> samples;
  };

  double StealOf(std::size_t segment) const {
    return segment < segment_steal_.size() ? segment_steal_[segment] : 0.0;
  }
  double Value(const Metric& m) const {
    std::vector<double> steal;
    for (const Sample& s : m.samples) steal.push_back(StealOf(s.segment));
    const double cutoff = Median(steal);
    std::vector<double> quiet;
    for (const Sample& s : m.samples) {
      if (StealOf(s.segment) <= cutoff) quiet.push_back(s.value);
    }
    return Median(quiet);
  }

  std::map<std::string, Metric> metrics_;
  std::size_t segment_ = 0;
  std::vector<double> segment_steal_;
  double segment_start_steal_ = 0.0;
};

// Operations and output checks; every one counts as attempted, every
// failure as failed.
class Checks {
 public:
  bool Expect(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      if (failures_.size() < 20) failures_.push_back(what);
      std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
    }
    return ok;
  }
  int attempted() const { return attempted_; }
  int failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  int attempted_ = 0;
  int failed_ = 0;
  std::vector<std::string> failures_;
};

// Wall seconds of fn(), inside a trace span named after the layer call
// (a no-op unless a tracer is installed).
template <typename Fn>
double Timed(const char* span_name, Fn&& fn) {
  obs::ScopedSpan span(span_name);
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Repeats rep(i) until `seconds` have passed, at least once; each
// repetition is one recorder segment.
void RepeatFor(double seconds, Recorder* rec,
               const std::function<void(int)>& rep) {
  const auto start = std::chrono::steady_clock::now();
  int i = 0;
  do {
    rep(i++);
    rec->EndSegment();
  } while (std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
               .count() < seconds);
}

// ---------------------------------------------------------------------------
// Helpers shared by the workloads.

const exec::ExecContext& FourThreads() {
  static const exec::ExecContext ctx = exec::ExecContext::WithThreads(kThreads);
  return ctx;
}

// LinBpOptions the way linbp_cli builds them (ApplyPrecision loosens the
// tolerance to 1e-6 for f32).
LinBpOptions CliOptions(const exec::ExecContext& ctx,
                        Precision precision = Precision::kF64) {
  LinBpOptions options;
  options.max_iterations = 1000;
  options.exec = ctx;
  options.precision = precision;
  if (precision == Precision::kF32) options.tolerance = 1e-6;
  return options;
}

FabpOptions CliFabpOptions() {
  FabpOptions options;
  options.max_iterations = 1000;
  options.exec = FourThreads();
  return options;
}

// One-vs-rest scalar priors for FaBP: class 0 against the rest.
std::vector<double> ClassZeroPriors(const DenseMatrix& explicit_residuals) {
  std::vector<double> priors(static_cast<std::size_t>(explicit_residuals.rows()));
  for (std::int64_t v = 0; v < explicit_residuals.rows(); ++v) {
    priors[static_cast<std::size_t>(v)] = explicit_residuals.At(v, 0);
  }
  return priors;
}

bool SameBytes(const DenseMatrix& a, const DenseMatrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.data().size() * sizeof(double)) == 0;
}

double F1Against(const std::vector<int>& truth_labels,
                 const TopBeliefAssignment& top) {
  TopBeliefAssignment truth;
  truth.classes.resize(truth_labels.size());
  std::vector<std::int64_t> known;
  for (std::size_t v = 0; v < truth_labels.size(); ++v) {
    if (truth_labels[v] >= 0) {
      truth.classes[v].push_back(truth_labels[v]);
      known.push_back(static_cast<std::int64_t>(v));
    }
  }
  return CompareAssignments(truth, top, known).f1;
}

std::int64_t LabelFlips(const TopBeliefAssignment& a,
                        const TopBeliefAssignment& b) {
  std::int64_t flips = 0;
  for (std::size_t v = 0; v < a.classes.size(); ++v) {
    if (a.classes[v] != b.classes[v]) ++flips;
  }
  return flips;
}

std::int64_t FileBytes(const std::string& path) {
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  return ec ? -1 : static_cast<std::int64_t>(size);
}

// The benchmark's own sequential read of a file: the I/O floor a loader
// could reach.
double ReadFloorSeconds(const std::vector<std::string>& paths) {
  return Timed("bench.read_floor", [&] {
    std::vector<char> buffer;
    for (const std::string& path : paths) {
      std::ifstream in(path, std::ios::binary);
      buffer.resize(static_cast<std::size_t>(std::max<std::int64_t>(
          0, FileBytes(path))));
      in.read(buffer.data(), static_cast<std::streamsize>(buffer.size()));
    }
  });
}

double PrefetchStallSum() {
  return obs::Registry::Global()
      .GetHistogram("pipeline_prefetch_stall_seconds")
      .Snapshot()
      .sum;
}

bool WriteBeliefs(const DenseMatrix& beliefs, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(beliefs.data().data()),
            static_cast<std::streamsize>(beliefs.data().size() *
                                         sizeof(double)));
  out.close();
  return static_cast<bool>(out);
}

bool ReadBeliefs(const std::string& path, std::int64_t rows, std::int64_t cols,
                 DenseMatrix* beliefs) {
  *beliefs = DenseMatrix(rows, cols);
  const std::int64_t bytes = rows * cols * static_cast<std::int64_t>(sizeof(double));
  if (FileBytes(path) != bytes) return false;
  std::ifstream in(path, std::ios::binary);
  in.read(reinterpret_cast<char*>(beliefs->mutable_data().data()),
          static_cast<std::streamsize>(bytes));
  return static_cast<bool>(in);
}

// Names of the per-layer groups, so a workload that does not exercise a
// layer reports zero work for it explicitly.
const std::vector<std::pair<const char*, const char*>> kLoadMetrics = {
    {"dataset.load_s", "s"},          {"dataset.load_read_floor_s", "s"},
    {"la.from_csr_s", "s"},           {"graph.from_adjacency_s", "s"},
    {"dataset.load_bytes", "bytes"}};
const std::vector<std::pair<const char*, const char*>> kStreamMetrics = {
    {"engine.stream_open_s", "s"},
    {"dataset.read_block_s", "s"},
    {"dataset.shard_read_floor_s", "s"},
    {"engine.stream_spmm_s", "s"},
    {"engine.stream_spmm_1t_s", "s"},
    {"dataset.stream_bytes_per_sweep", "bytes"},
    {"dataset.stream_blocks_per_sweep", "count"},
    {"dataset.cache_hit_rate", "ratio"},
    {"dataset.cache_hits", "count"},
    {"dataset.cache_lookups", "count"},
    {"exec.prefetch_stall_s", "s"},
    {"cached_solve_s", "s"}};
const std::vector<std::pair<const char*, const char*>> kResidentGraphMetrics = {
    {"la.spmm_s", "s"},          {"la.spmm_1t_s", "s"},
    {"la.spmv_s", "s"},          {"core.sbp_geodesic_s", "s"},
    {"core.sbp_levels", "count"}, {"sbp_solve_s", "s"}};
const std::vector<std::pair<const char*, const char*>> kUpdateMetrics = {
    {"dataset.update_parse_s", "s"}, {"core.update_add_s", "s"},
    {"core.update_delete_s", "s"},   {"core.update_reweight_s", "s"},
    {"core.update_belief_s", "s"},   {"core.update_sweeps", "count"},
    {"core.update_resolve_s", "s"},  {"graph.rebuild_s", "s"},
    {"core.spectral_estimate_s", "s"}, {"core.sbp_update_s", "s"},
    {"update_p50_ms", "ms"},         {"update_p90_ms", "ms"},
    {"sbp_update_p50_ms", "ms"}};

// Observer hook for the traced run: per-sweep seconds into `name`.
SweepObserver SweepSeconds(Recorder* rec, const char* name) {
  return [rec, name](const SweepTelemetry& t) {
    rec->Add(name, "s", t.seconds);
  };
}

std::string Suffix(const std::string& base, bool one_thread) {
  return base + (one_thread ? "_1t_s" : "_s");
}

// Times the parts of LinBP sweeps by calling each layer's public function
// on its own: SpMM (la.spmm, or engine.stream_spmm on a streamed backend),
// the two n x k * k x k coupling products, the echo subtraction and the
// apply step, plus the whole BackendLinBpPropagate. The probe iterates
// real Jacobi sweeps from `beliefs`, allocating and freeing its
// temporaries in the order RunLinBp does, so the parts add up to a
// solver sweep; they must also reproduce the propagate bit for bit.
void ProbeSweepParts(const engine::PropagationBackend& backend,
                     const SparseMatrix* adjacency, const DenseMatrix& hhat,
                     const DenseMatrix& explicit_residuals,
                     const DenseMatrix& beliefs, bool one_thread, int reps,
                     Recorder* rec, Checks* checks) {
  const exec::ExecContext ctx =
      one_thread ? exec::ExecContext::Serial() : FourThreads();
  const DenseMatrix hhat2 = hhat.Multiply(hhat);
  DenseMatrix current = beliefs;
  for (int r = 0; r < reps; ++r) {
    std::string error;
    bool ok = true;
    DenseMatrix propagated;
    rec->Add(Suffix("engine.propagate", one_thread), "s",
             Timed("engine.BackendLinBpPropagate", [&] {
               ok = engine::BackendLinBpPropagate(backend, hhat, hhat2,
                                                  current, true, ctx,
                                                  &propagated, &error);
             }));
    if (!checks->Expect(ok, "BackendLinBpPropagate: " + error)) return;

    DenseMatrix next;
    {
      DenseMatrix ab;
      if (adjacency != nullptr) {
        rec->Add(Suffix("la.spmm", one_thread), "s",
                 Timed("la.SparseMatrix::MultiplyDense",
                       [&] { ab = adjacency->MultiplyDense(current, ctx); }));
      } else {
        rec->Add(Suffix("engine.stream_spmm", one_thread), "s",
                 Timed("engine.ShardStreamBackend::MultiplyDense", [&] {
                   ok = backend.MultiplyDense(current, ctx, &ab, &error);
                 }));
      }
      if (!checks->Expect(ok, "stream SpMM: " + error)) return;
      DenseMatrix echo;
      rec->Add(Suffix("la.couple", one_thread), "s",
               Timed("la.DenseMatrix::Multiply", [&] {
                 next = ab.Multiply(hhat);
                 echo = current.Multiply(hhat2);
               }));
      rec->Add(Suffix("la.echo", one_thread), "s",
               Timed("la.SubtractDegreeScaledEcho", [&] {
                 SubtractDegreeScaledEcho(backend.weighted_degrees(), echo,
                                          ctx, &next);
               }));
    }
    if (r == 0) {
      checks->Expect(SameBytes(propagated, next),
                     "sweep parts reproduce BackendLinBpPropagate");
    }
    propagated = DenseMatrix();
    rec->Add(Suffix("core.apply", one_thread), "s",
             Timed("core.ApplyLinBpSweep", [&] {
               ApplyLinBpSweep(ctx, explicit_residuals, next, &current);
             }));

    // Whole sweeps as the solver times them (SweepObserver seconds),
    // interleaved with the parts so host noise hits both alike. The
    // first sweeps of a cold solve are cheaper (DenseMatrix::Multiply
    // skips zero entries of the still-sparse beliefs); 12 sweeps keep the
    // median on dense-belief sweeps like the parts above.
    LinBpOptions options = CliOptions(ctx);
    options.max_iterations = 12;
    options.sweep_observer =
        SweepSeconds(rec, one_thread ? "core.sweep_1t_s" : "core.sweep_s");
    Timed("core.RunLinBp", [&] {
      RunLinBp(backend, hhat, explicit_residuals, options);
    });
  }
}

// Computed SpMM traffic and work for one n x k product: CSR arrays read
// once, one gathered k-row of B per stored entry, the output written once.
void RecordSpmmModel(std::int64_t n, std::int64_t nnz, std::int64_t k,
                     Recorder* rec) {
  const double bytes = static_cast<double>((n + 1) * 8 + nnz * (4 + 8) +
                                           nnz * k * 8 + n * k * 8);
  rec->Set("la.spmm_bytes", "computed_B", bytes);
  rec->Set("la.spmm_flops", "computed_flop",
           2.0 * static_cast<double>(nnz * k));
}

// Layer probes of a resident graph: the parts of the load and of the
// solvers' other kernels.
void ProbeResidentGraph(const std::string& snapshot_path, const Graph& graph,
                        const std::vector<std::int64_t>& explicit_nodes,
                        Recorder* rec) {
  const exec::ExecContext& ctx = FourThreads();
  const SparseMatrix& a = graph.adjacency();
  for (int r = 0; r < 3; ++r) {
    rec->Add("dataset.load_read_floor_s", "s",
             ReadFloorSeconds({snapshot_path}));
    std::vector<std::int64_t> row_ptr = a.row_ptr();
    std::vector<std::int32_t> col_idx = a.col_idx();
    std::vector<double> values = a.values();
    rec->Add("la.from_csr_s", "s", Timed("la.SparseMatrix::FromCsr", [&] {
               const SparseMatrix m = SparseMatrix::FromCsr(
                   a.rows(), a.cols(), std::move(row_ptr), std::move(col_idx),
                   std::move(values), ctx);
             }));
    SparseMatrix copy = a;
    rec->Add("graph.from_adjacency_s", "s",
             Timed("graph.Graph::FromAdjacency", [&] {
               const Graph g = Graph::FromAdjacency(std::move(copy), ctx);
             }));
    std::vector<double> x(static_cast<std::size_t>(a.rows()), 1.0);
    rec->Add("la.spmv_s", "s", Timed("la.SparseMatrix::MultiplyVector", [&] {
               const std::vector<double> y = a.MultiplyVector(x, ctx);
             }));
    rec->Add("core.sbp_geodesic_s", "s", Timed("core.GeodesicNumbers", [&] {
               const auto g = GeodesicNumbers(graph, explicit_nodes);
             }));
  }
  rec->Set("dataset.load_bytes", "bytes",
           static_cast<double>(FileBytes(snapshot_path)));
}

// The solves every workload runs on its graph, configured as linbp_cli
// configures them: LinBP f64 at 4 threads (plus TopBeliefs, which with
// `setup_s` makes labels_s) and at 1 thread, LinBP f32, and FaBP with
// one-vs-rest priors of class 0. Each solve is a recorder segment of its
// own. `check_f32_flips` adds the f32 label-flip bound to the f32 check.
struct ColdSolves {
  LinBpResult linbp;
  TopBeliefAssignment top;
};
ColdSolves RunColdSolves(const engine::PropagationBackend& backend,
                         const DenseMatrix& hhat,
                         const DenseMatrix& explicit_residuals,
                         double setup_s, bool check_f32_flips, bool traced,
                         Recorder* rec, Checks* checks) {
  const DenseMatrix& e = explicit_residuals;
  ColdSolves out;
  const double stall_before = PrefetchStallSum();
  const double solve = Timed("core.RunLinBp", [&] {
    out.linbp = RunLinBp(backend, hhat, e, CliOptions(FourThreads()));
  });
  rec->Add("exec.prefetch_stall_s", "s", PrefetchStallSum() - stall_before);
  const double top_s =
      Timed("core.TopBeliefs", [&] { out.top = TopBeliefs(out.linbp.beliefs); });
  checks->Expect(out.linbp.converged && !out.linbp.failed,
                 "LinBP f64 at 4 threads converged: " + out.linbp.error);
  rec->Add("linbp_solve_s", "s", solve);
  rec->Add("labels_s", "s", setup_s + solve + top_s);
  rec->Add("core.linbp_sweeps", "count", out.linbp.iterations);
  rec->EndSegment();

  LinBpResult r1;
  rec->Add("linbp_solve_1t_s", "s", Timed("core.RunLinBp", [&] {
             r1 = RunLinBp(backend, hhat, e,
                           CliOptions(exec::ExecContext::Serial()));
           }));
  checks->Expect(SameBytes(r1.beliefs, out.linbp.beliefs),
                 "LinBP f64 beliefs identical at 1 and 4 threads");
  rec->EndSegment();

  LinBpOptions f32 = CliOptions(FourThreads(), Precision::kF32);
  if (traced) f32.sweep_observer = SweepSeconds(rec, "core.f32_sweep_s");
  LinBpResult rf;
  rec->Add("linbp_f32_solve_s", "s",
           Timed("core.RunLinBp", [&] { rf = RunLinBp(backend, hhat, e, f32); }));
  rec->Add("core.f32_sweeps", "count", rf.iterations);
  const std::int64_t flips = LabelFlips(TopBeliefs(rf.beliefs), out.top);
  checks->Expect(rf.converged &&
                     (!check_f32_flips ||
                      flips <= kMaxF32FlipShare *
                                   static_cast<double>(backend.num_nodes())),
                 "f32 LinBP converged, " + std::to_string(flips) +
                     " label flips");
  rec->EndSegment();

  FabpResult fabp;
  rec->Add("fabp_solve_s", "s", Timed("core.RunFabp", [&] {
             fabp = RunFabp(backend, kFabpH, ClassZeroPriors(e),
                            CliFabpOptions());
           }));
  checks->Expect(fabp.converged && !fabp.failed, "FaBP converged: " + fabp.error);
  rec->Add("core.fabp_sweeps", "count", fabp.iterations);
  rec->EndSegment();
  return out;
}

struct RunContext {
  const Flags& flags;
  SizeConfig config;
  bool traced = false;
  Recorder* rec = nullptr;
  Checks* checks = nullptr;
  std::vector<std::pair<std::string, std::int64_t>> inputs;  // file, bytes
  std::vector<std::string> specs;
};

// Compares traced and untraced runs of the labels path (alternating, so
// drift hits both sides), and records the difference.
void MeasureTraceOverhead(obs::Tracer* tracer, int pairs,
                          const std::function<double()>& labels_pass,
                          Recorder* rec) {
  std::vector<double> traced;
  std::vector<double> untraced;
  for (int i = 0; i < pairs; ++i) {
    traced.push_back(labels_pass());
    obs::SetActiveTracer(nullptr);
    untraced.push_back(labels_pass());
    obs::SetActiveTracer(tracer);
  }
  rec->Set("obs.trace_overhead_s", "s", Median(traced) - Median(untraced));
}

// ---------------------------------------------------------------------------
// gen: the workload's input files, written through the public writers.

int Generate(const Flags& flags) {
  const SizeConfig config = ConfigFor(flags.size, flags.seed);
  const exec::ExecContext& ctx = FourThreads();
  std::string error;
  fs::create_directories(flags.dir);
  const fs::path dir(flags.dir);
  const bool serve = flags.workload == "serve-fraud";
  auto scenario = dataset::MakeScenario(
      serve ? config.serve_spec : config.batch_spec, &error, ctx);
  if (!scenario.has_value()) {
    std::fprintf(stderr, "perfbench gen: %s\n", error.c_str());
    return 1;
  }
  if (flags.workload == "batch-mem") {
    if (!dataset::SaveSnapshot(*scenario, (dir / "graph.lbps").string(),
                               &error)) {
      std::fprintf(stderr, "perfbench gen: %s\n", error.c_str());
      return 1;
    }
    return 0;
  }
  if (flags.workload == "batch-stream") {
    const auto written =
        dataset::ShardSnapshot(*scenario, kShards, (dir / "shards").string(),
                               &error, dataset::ShardCompression::kF64);
    if (!written.has_value()) {
      std::fprintf(stderr, "perfbench gen: %s\n", error.c_str());
      return 1;
    }
    // The in-memory reference the streamed beliefs must match byte for
    // byte, solved from the same files.
    const auto loaded =
        dataset::LoadShardedSnapshot(written->manifest_path, &error, ctx);
    if (!loaded.has_value()) {
      std::fprintf(stderr, "perfbench gen: %s\n", error.c_str());
      return 1;
    }
    const LinBpResult reference =
        RunLinBp(loaded->graph, loaded->Coupling().ScaledResidual(kBatchEps),
                 loaded->explicit_residuals, CliOptions(ctx));
    if (!reference.converged ||
        !WriteBeliefs(reference.beliefs, (dir / "reference.f64").string())) {
      std::fprintf(stderr, "perfbench gen: reference solve failed\n");
      return 1;
    }
    return 0;
  }
  // serve-fraud: start graph, update trace, final graph.
  dataset::UpdateTraceOptions trace_options;
  trace_options.num_ops = config.trace_ops;
  trace_options.seed = static_cast<std::uint64_t>(flags.seed) + 1;
  const dataset::UpdateTrace trace =
      dataset::GenerateUpdateTrace(*scenario, trace_options);
  const std::int64_t n = scenario->graph.num_nodes();
  dataset::Scenario start = *scenario;
  start.graph = Graph(n, trace.start_edges);
  std::vector<Edge> final_edges = trace.start_edges;
  DenseMatrix final_residuals = scenario->explicit_residuals;
  if (!dataset::ApplyUpdateOpsToProblem(trace.ops, n, &final_edges,
                                        &final_residuals, &error)) {
    std::fprintf(stderr, "perfbench gen: %s\n", error.c_str());
    return 1;
  }
  dataset::Scenario final_scenario = std::move(*scenario);
  final_scenario.graph = Graph(n, final_edges);
  final_scenario.explicit_residuals = std::move(final_residuals);
  if (!dataset::SaveSnapshot(start, (dir / "start.lbps").string(), &error) ||
      !dataset::SaveSnapshot(final_scenario, (dir / "final.lbps").string(),
                             &error) ||
      !dataset::WriteUpdateStream(trace.ops,
                                  (dir / "updates.txt").string())) {
    std::fprintf(stderr, "perfbench gen: cannot write inputs: %s\n",
                 error.c_str());
    return 1;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// batch-mem: snapshot -> LoadSnapshot -> LinBP f64 (4t, 1t), f32, FaBP, SBP.

void RunBatchMem(RunContext* run, obs::Tracer* tracer) {
  Recorder* rec = run->rec;
  Checks* checks = run->checks;
  const std::string path = (fs::path(run->flags.dir) / "graph.lbps").string();
  run->inputs.push_back({"graph.lbps", FileBytes(path)});
  run->specs.push_back(run->config.batch_spec);
  const exec::ExecContext& ctx4 = FourThreads();

  auto load = [&](std::optional<dataset::Scenario>* scenario) {
    std::string error;
    const double seconds = Timed("dataset.LoadSnapshot", [&] {
      *scenario = dataset::LoadSnapshot(path, &error, ctx4);
    });
    checks->Expect(scenario->has_value(), "LoadSnapshot: " + error);
    rec->Add("setup_s", "s", seconds);
    rec->Add("dataset.load_s", "s", seconds);
    return seconds;
  };
  for (int i = 0; i < kSetupPasses; ++i) {
    std::optional<dataset::Scenario> scenario;
    load(&scenario);
    rec->EndSegment();
  }

  DenseMatrix first_beliefs;
  RepeatFor(static_cast<double>(run->flags.seconds), rec, [&](int rep) {
    std::optional<dataset::Scenario> scenario;
    const double setup = load(&scenario);
    rec->EndSegment();
    if (!scenario.has_value()) return;
    const Graph& graph = scenario->graph;
    const DenseMatrix hhat = scenario->Coupling().ScaledResidual(kBatchEps);
    const DenseMatrix& e = scenario->explicit_residuals;

    const engine::InMemoryBackend backend(&graph);
    const ColdSolves cold = RunColdSolves(backend, hhat, e, setup, true,
                                          run->traced, rec, checks);
    const LinBpResult& r4 = cold.linbp;
    const TopBeliefAssignment& top = cold.top;

    SbpResult sbp;
    rec->Add("sbp_solve_s", "s", Timed("core.RunSbp", [&] {
               sbp = RunSbp(graph, scenario->Coupling().residual(), e,
                            scenario->explicit_nodes, ctx4);
             }));
    rec->Add("core.sbp_levels", "count",
             static_cast<double>(sbp.max_geodesic));

    const double linbp_f1 = F1Against(scenario->ground_truth, top);
    const double sbp_f1 =
        F1Against(scenario->ground_truth, TopBeliefs(sbp.beliefs));
    char detail[128];
    std::snprintf(detail, sizeof(detail), "LinBP F1 %.4f >= %.2f", linbp_f1,
                  run->config.linbp_f1_min);
    checks->Expect(linbp_f1 >= run->config.linbp_f1_min, detail);
    std::snprintf(detail, sizeof(detail), "SBP F1 %.4f >= %.2f", sbp_f1,
                  run->config.sbp_f1_min);
    checks->Expect(sbp_f1 >= run->config.sbp_f1_min, detail);
    if (rep == 0) {
      std::fprintf(stderr, "perfbench: LinBP F1 %.4f, SBP F1 %.4f\n",
                   linbp_f1, sbp_f1);
      first_beliefs = r4.beliefs;
    } else {
      checks->Expect(SameBytes(r4.beliefs, first_beliefs),
                     "LinBP beliefs identical across repetitions");
    }

    if (run->traced && rep == 0) {
      for (const bool one_thread : {false, true}) {
        ProbeSweepParts(backend, &graph.adjacency(), hhat, e, r4.beliefs,
                        one_thread, 8, rec, checks);
      }
      ProbeResidentGraph(path, graph, scenario->explicit_nodes, rec);
      RecordSpmmModel(graph.num_nodes(), graph.num_directed_edges(),
                      scenario->k, rec);
      MeasureTraceOverhead(tracer, 3, [&] {
        std::optional<dataset::Scenario> s;
        const double seconds = Timed("bench.labels_pass", [&] {
          std::string error;
          s = dataset::LoadSnapshot(path, &error, ctx4);
          const LinBpResult r = RunLinBp(
              s->graph, s->Coupling().ScaledResidual(kBatchEps),
              s->explicit_residuals, CliOptions(ctx4));
          const TopBeliefAssignment t = TopBeliefs(r.beliefs);
        });
        return seconds;
      }, rec);
    }
  });
  rec->Zero(kStreamMetrics);
  rec->Zero(kUpdateMetrics);
}

// ---------------------------------------------------------------------------
// batch-stream: v2/f64 shards -> ShardStreamBackend::Open -> streamed LinBP
// f64 (4t, 1t), f32, FaBP, then the cached solve.

void RunBatchStream(RunContext* run, obs::Tracer* tracer,
                    DenseMatrix* reference_candidate) {
  Recorder* rec = run->rec;
  Checks* checks = run->checks;
  const fs::path shard_dir = fs::path(run->flags.dir) / "shards";
  const std::string manifest =
      (shard_dir / dataset::ShardManifestFileName()).string();
  std::int64_t shard_bytes = 0;
  std::vector<std::string> shard_files;
  for (const auto& entry : fs::directory_iterator(shard_dir)) {
    shard_bytes += FileBytes(entry.path().string());
    if (entry.path().extension() == ".lbpsd") {
      shard_files.push_back(entry.path().string());
    }
  }
  run->inputs.push_back({"shards/*", shard_bytes});
  run->specs.push_back(run->config.batch_spec);
  const exec::ExecContext& ctx4 = FourThreads();

  using Backend = std::optional<engine::ShardStreamBackend>;
  auto open = [&](Backend* backend, std::int64_t budget, const char* span) {
    std::string error;
    const double seconds = Timed(span, [&] {
      *backend = engine::ShardStreamBackend::Open(manifest, &error, ctx4,
                                                  budget);
    });
    checks->Expect(backend->has_value(), "ShardStreamBackend::Open: " + error);
    return seconds;
  };
  for (int i = 0; i < kSetupPasses; ++i) {
    Backend backend;
    const double seconds = open(&backend, 0, "engine.ShardStreamBackend::Open");
    rec->Add("setup_s", "s", seconds);
    rec->Add("engine.stream_open_s", "s", seconds);
    rec->EndSegment();
  }

  RepeatFor(static_cast<double>(run->flags.seconds), rec, [&](int rep) {
    Backend backend;
    const double setup = open(&backend, 0, "engine.ShardStreamBackend::Open");
    if (!backend.has_value()) return;
    rec->Add("setup_s", "s", setup);
    rec->Add("engine.stream_open_s", "s", setup);
    rec->EndSegment();
    const engine::ShardStreamBackend& b = *backend;
    const DenseMatrix hhat = CouplingMatrix::FromResidual(b.coupling_residual())
                                 .ScaledResidual(kBatchEps);
    const DenseMatrix& e = b.explicit_residuals();

    const ColdSolves cold = RunColdSolves(b, hhat, e, setup, true,
                                          run->traced, rec, checks);
    const LinBpResult& r4 = cold.linbp;

    // The cached solve: Open fills the cache on its derivation pass, so
    // it is part of what a CLI user pays.
    Backend cached;
    LinBpResult rc;
    rec->Add("cached_solve_s", "s", Timed("bench.cached_solve", [&] {
               open(&cached, kCacheBudget, "engine.ShardStreamBackend::Open");
               if (cached.has_value()) {
                 rc = RunLinBp(*cached, hhat, e, CliOptions(ctx4));
               }
             }));
    if (cached.has_value()) {
      const dataset::ShardBlockCache& cache = *cached->cache();
      const double lookups =
          static_cast<double>(cache.hits_total() + cache.misses_total());
      rec->Add("dataset.cache_hits", "count",
               static_cast<double>(cache.hits_total()));
      rec->Add("dataset.cache_lookups", "count", lookups);
      rec->Add("dataset.cache_hit_rate", "ratio",
               lookups > 0 ? static_cast<double>(cache.hits_total()) / lookups
                           : 0.0);
      checks->Expect(cache.misses_total() == cached->reader().num_shards(),
                     "cache budget covers the working set");
    }
    checks->Expect(SameBytes(rc.beliefs, r4.beliefs),
                   "cached streamed beliefs identical to uncached");

    if (rep == 0) {
      *reference_candidate = r4.beliefs;
    } else {
      checks->Expect(SameBytes(r4.beliefs, *reference_candidate),
                     "streamed beliefs identical across repetitions");
    }

    if (run->traced && rep == 0) {
      for (const bool one_thread : {false, true}) {
        ProbeSweepParts(b, nullptr, hhat, e, r4.beliefs, one_thread, 3, rec,
                        checks);
      }
      const dataset::ShardStreamReader& reader = b.reader();
      const std::int64_t blocks0 = reader.blocks_read_total();
      const std::int64_t bytes0 = reader.file_bytes_read_total();
      DenseMatrix product;
      std::string error;
      checks->Expect(b.MultiplyDense(r4.beliefs, ctx4, &product, &error),
                     "stream SpMM: " + error);
      rec->Set("dataset.stream_blocks_per_sweep", "count",
               static_cast<double>(reader.blocks_read_total() - blocks0));
      rec->Set("dataset.stream_bytes_per_sweep", "bytes",
               static_cast<double>(reader.file_bytes_read_total() - bytes0));
      auto own_reader = dataset::ShardStreamReader::Open(manifest, &error);
      if (checks->Expect(own_reader.has_value(), "reader open: " + error)) {
        for (int r = 0; r < 3; ++r) {
          double total = 0.0;
          for (std::int64_t s = 0; s < own_reader->num_shards(); ++s) {
            dataset::ShardStreamBlock block;
            bool ok = true;
            total += Timed("dataset.ShardStreamReader::ReadBlock", [&] {
              ok = own_reader->ReadBlock(s, &block, &error);
            });
            checks->Expect(ok, "ReadBlock: " + error);
          }
          rec->Add("dataset.read_block_s", "s", total);
          rec->Add("dataset.shard_read_floor_s", "s",
                   ReadFloorSeconds(shard_files));
        }
      }
      RecordSpmmModel(b.num_nodes(), b.num_stored_entries(), b.k(), rec);
      MeasureTraceOverhead(tracer, 2, [&] {
        return Timed("bench.labels_pass", [&] {
          std::string err;
          auto s = engine::ShardStreamBackend::Open(manifest, &err, ctx4, 0);
          const LinBpResult r = RunLinBp(*s, hhat, e, CliOptions(ctx4));
          const TopBeliefAssignment t = TopBeliefs(r.beliefs);
        });
      }, rec);
    }
  });
  rec->Zero(kLoadMetrics);
  rec->Zero(kResidentGraphMetrics);
  rec->Zero(kUpdateMetrics);
}

// ---------------------------------------------------------------------------
// serve-fraud: start snapshot -> warm LinBpState (serve settings) and
// SbpState -> closed-loop replay of the update trace, one client -> cold
// solves of the final graph.

void RunServeFraud(RunContext* run, obs::Tracer* tracer) {
  Recorder* rec = run->rec;
  Checks* checks = run->checks;
  const fs::path dir(run->flags.dir);
  const std::string start_path = (dir / "start.lbps").string();
  const std::string final_path = (dir / "final.lbps").string();
  const std::string updates_path = (dir / "updates.txt").string();
  run->inputs.push_back({"start.lbps", FileBytes(start_path)});
  run->inputs.push_back({"final.lbps", FileBytes(final_path)});
  run->inputs.push_back({"updates.txt", FileBytes(updates_path)});
  run->specs.push_back(run->config.serve_spec);
  const exec::ExecContext& ctx4 = FourThreads();

  std::vector<std::string> lines;
  {
    std::ifstream in(updates_path);
    std::string line;
    while (std::getline(in, line)) {
      if (!dataset::IsUpdateStreamComment(line)) lines.push_back(line);
    }
  }

  // Re-solve seconds and sweeps of the op in flight (serve observer).
  double resolve_seconds = 0.0;
  std::int64_t resolve_sweeps = 0;
  struct Served {
    std::optional<LinBpState> linbp;
    std::optional<SbpState> sbp;
    std::int64_t k = 0;
    DenseMatrix hhat;
  };
  auto setup = [&](Served* served) {
    std::string error;
    std::optional<dataset::Scenario> scenario;
    const double seconds = Timed("bench.setup", [&] {
      const double load = Timed("dataset.LoadSnapshot", [&] {
        scenario = dataset::LoadSnapshot(start_path, &error, ctx4);
      });
      rec->Add("dataset.load_s", "s", load);
      if (!scenario.has_value()) return;
      const CouplingMatrix coupling = scenario->Coupling();
      served->k = scenario->k;
      served->hhat = coupling.ScaledResidual(kServeEps);
      Timed("core.SbpState::FromGraph", [&] {
        served->sbp.emplace(SbpState::FromGraph(
            scenario->graph, coupling.residual(),
            scenario->explicit_residuals, scenario->explicit_nodes, ctx4));
      });
      LinBpOptions options = CliOptions(ctx4);
      options.estimate_spectral_radius = true;
      options.sweep_observer = [&](const SweepTelemetry& t) {
        resolve_seconds += t.seconds;
        ++resolve_sweeps;
      };
      Timed("core.LinBpState", [&] {
        served->linbp.emplace(std::move(scenario->graph), served->hhat,
                              std::move(scenario->explicit_residuals),
                              options);
      });
    });
    checks->Expect(scenario.has_value(), "LoadSnapshot: " + error);
    checks->Expect(served->linbp.has_value() && served->linbp->converged(),
                   "cold LinBpState converged");
    rec->Add("setup_s", "s", seconds);
  };
  for (int i = 0; i < kSetupPasses; ++i) {
    Served served;
    setup(&served);
    rec->EndSegment();
  }

  std::vector<double> linbp_ms;
  std::vector<double> sbp_ms;
  const char* kKindMetric[] = {"core.update_add_s", "core.update_delete_s",
                               "core.update_reweight_s",
                               "core.update_belief_s"};
  // One cold pass over the final graph: file -> labels, then the other
  // cold solves. The passes are spread through the replay, one every
  // kOpsPerColdPass ops, so their samples span the run instead of one
  // stretch of it. Every pass must reproduce the first one's beliefs.
  DenseMatrix cold_linbp;
  DenseMatrix cold_sbp;
  auto cold_pass = [&](bool probe) {
    std::string error;
    std::optional<dataset::Scenario> final_scenario;
    const double load = Timed("dataset.LoadSnapshot", [&] {
      final_scenario = dataset::LoadSnapshot(final_path, &error, ctx4);
    });
    if (!checks->Expect(final_scenario.has_value(), "LoadSnapshot: " + error)) {
      return;
    }
    rec->Add("dataset.load_s", "s", load);
    const Graph& graph = final_scenario->graph;
    const CouplingMatrix coupling = final_scenario->Coupling();
    const DenseMatrix hhat = coupling.ScaledResidual(kServeEps);
    const DenseMatrix& e = final_scenario->explicit_residuals;
    const engine::InMemoryBackend backend(&graph);
    const ColdSolves cold = RunColdSolves(backend, hhat, e, load, false,
                                          run->traced, rec, checks);
    const LinBpResult& r4 = cold.linbp;
    SbpResult sbp;
    rec->Add("sbp_solve_s", "s", Timed("core.RunSbp", [&] {
               sbp = RunSbp(graph, coupling.residual(), e,
                            final_scenario->explicit_nodes, ctx4);
             }));
    rec->Add("core.sbp_levels", "count",
             static_cast<double>(sbp.max_geodesic));
    if (cold_linbp.rows() == 0) {
      cold_linbp = r4.beliefs;
      cold_sbp = sbp.beliefs;
    } else {
      checks->Expect(SameBytes(r4.beliefs, cold_linbp) &&
                         SameBytes(sbp.beliefs, cold_sbp),
                     "cold solves identical across passes");
    }

    if (probe) {
      for (const bool one_thread : {false, true}) {
        ProbeSweepParts(backend, &graph.adjacency(), hhat, e, r4.beliefs,
                        one_thread, 20, rec, checks);
      }
      ProbeResidentGraph(final_path, graph, final_scenario->explicit_nodes,
                         rec);
      RecordSpmmModel(graph.num_nodes(), graph.num_directed_edges(),
                      final_scenario->k, rec);
      MeasureTraceOverhead(tracer, 3, [&] {
        return Timed("bench.labels_pass", [&] {
          std::string err;
          auto s = dataset::LoadSnapshot(final_path, &err, ctx4);
          const LinBpResult r =
              RunLinBp(s->graph, s->Coupling().ScaledResidual(kServeEps),
                       s->explicit_residuals, CliOptions(ctx4));
          const TopBeliefAssignment t = TopBeliefs(r.beliefs);
        });
      }, rec);
    }
    rec->EndSegment();
  };

  RepeatFor(static_cast<double>(run->flags.seconds), rec, [&](int rep) {
    Served served;
    setup(&served);
    rec->EndSegment();
    if (!served.linbp.has_value() || !served.sbp.has_value()) return;

    std::vector<dataset::UpdateOp> ops(lines.size());
    for (std::size_t i = 0; i < lines.size(); ++i) {
      std::string error;
      bool ok = true;
      const double seconds = Timed("dataset.ParseUpdateLine", [&] {
        ok = dataset::ParseUpdateLine(lines[i], served.k, &ops[i], &error);
      });
      if (run->traced) rec->Add("dataset.update_parse_s", "s", seconds);
      checks->Expect(ok, "ParseUpdateLine: " + error);
    }

    // Closed loop, one client: each op is applied after the previous
    // one has returned.
    for (std::size_t i = 0; i < ops.size(); ++i) {
      if (i % kOpsPerColdPass == 0) cold_pass(run->traced && rep == 0 && i == 0);
      const dataset::UpdateOp& op = ops[i];
      std::string error;
      int sweeps = 0;
      resolve_seconds = 0.0;
      resolve_sweeps = 0;
      const double seconds = Timed("dataset.ApplyUpdateOp", [&] {
        sweeps = dataset::ApplyUpdateOp(op, &*served.linbp, &error);
      });
      if (!checks->Expect(sweeps >= 0, "LinBP update rejected: " + error)) {
        continue;
      }
      linbp_ms.push_back(seconds * 1e3);
      rec->Add(kKindMetric[static_cast<int>(op.kind)], "s", seconds);
      rec->Add("core.update_sweeps", "count",
               static_cast<double>(resolve_sweeps));
      rec->Add("core.update_resolve_s", "s", resolve_seconds);
    }
    for (const dataset::UpdateOp& op : ops) {
      std::string error;
      int touched = 0;
      const double seconds = Timed("dataset.ApplyUpdateOp", [&] {
        touched = dataset::ApplyUpdateOp(op, &*served.sbp, &error);
      });
      if (!checks->Expect(touched >= 0, "SBP update rejected: " + error)) {
        continue;
      }
      sbp_ms.push_back(seconds * 1e3);
      rec->Add("core.sbp_update_s", "s", seconds);
    }

    const double linbp_diff = served.linbp->beliefs().MaxAbsDiff(cold_linbp);
    const double sbp_diff = served.sbp->beliefs().MaxAbsDiff(cold_sbp);
    char detail[128];
    std::snprintf(detail, sizeof(detail), "warm LinBP == cold (|diff| %.3g)",
                  linbp_diff);
    checks->Expect(linbp_diff <= kWarmColdTolerance, detail);
    std::snprintf(detail, sizeof(detail), "warm SBP == cold (|diff| %.3g)",
                  sbp_diff);
    checks->Expect(sbp_diff <= kWarmColdTolerance, detail);

    if (run->traced && rep == 0) {
      const Graph& served_graph = served.linbp->graph();
      for (int r = 0; r < 3; ++r) {
        rec->Add("graph.rebuild_s", "s", Timed("graph.Graph", [&] {
                   const Graph g(served_graph.num_nodes(),
                                 served_graph.edges());
                 }));
      }
      const engine::InMemoryBackend served_backend(&served_graph);
      rec->Add("core.spectral_estimate_s", "s",
               Timed("core.LinBpOperatorSpectralRadius", [&] {
                 LinBpOperatorSpectralRadius(served_backend, served.hhat,
                                             LinBpVariant::kLinBp, 500, 1e-11,
                                             ctx4);
               }));
    }
  });
  rec->Set("update_p50_ms", "ms", Quantile(linbp_ms, 0.5));
  rec->Set("update_p90_ms", "ms", Quantile(linbp_ms, 0.9));
  rec->Set("sbp_update_p50_ms", "ms", Quantile(sbp_ms, 0.5));
  rec->Zero(kStreamMetrics);
}

std::string ProvenanceJson(const RunContext& run) {
  std::ostringstream out;
  out << "{\"workload\":\"" << run.flags.workload << "\",\"seed\":"
      << run.flags.seed << ",\"size\":\"" << run.flags.size
      << "\",\"trace\":" << run.flags.trace << ",\"seconds\":"
      << run.flags.seconds << ",\"specs\":[";
  for (std::size_t i = 0; i < run.specs.size(); ++i) {
    out << (i ? "," : "") << '"' << obs::JsonEscape(run.specs[i]) << '"';
  }
  out << "],\"input_bytes\":{";
  for (std::size_t i = 0; i < run.inputs.size(); ++i) {
    out << (i ? "," : "") << '"' << obs::JsonEscape(run.inputs[i].first)
        << "\":" << run.inputs[i].second;
  }
  out << "},\"eps\":"
      << (run.flags.workload == "serve-fraud" ? kServeEps : kBatchEps)
      << ",\"fabp_h\":" << kFabpH << ",\"shards\":" << kShards
      << ",\"cache_budget\":" << kCacheBudget
      << ",\"threads_used\":[" << kThreads << ",1]"
      << ",\"hardware_threads\":" << std::thread::hardware_concurrency()
      << ",\"host_steal_s\":" << run.rec->total_steal()
      << ",\"build_type\":\"" << obs::JsonEscape(PERFBENCH_BUILD_TYPE)
      << "\",\"compiler\":\"" << obs::JsonEscape(PERFBENCH_COMPILER)
      << "\",\"cxx_flags\":\"" << obs::JsonEscape(PERFBENCH_CXX_FLAGS)
      << "\"}";
  return out.str();
}

int Run(const Flags& flags) {
  RunContext run{flags, ConfigFor(flags.size, flags.seed), false, nullptr,
                 nullptr, {}, {}};
  Recorder rec;
  Checks checks;
  run.rec = &rec;
  run.checks = &checks;
  run.traced = flags.trace == 1;
  obs::Tracer tracer;
  if (run.traced) obs::SetActiveTracer(&tracer);

  DenseMatrix streamed;
  if (flags.workload == "batch-mem") {
    RunBatchMem(&run, &tracer);
  } else if (flags.workload == "batch-stream") {
    RunBatchStream(&run, &tracer, &streamed);
  } else {
    RunServeFraud(&run, &tracer);
  }
  // Peak RSS of the measured part, taken before the reference below is
  // read in.
  rec.Set("peak_rss_mb", "MiB",
          static_cast<double>(util::PeakRssBytes()) / (1024.0 * 1024.0));
  if (flags.workload == "batch-stream") {
    DenseMatrix reference;
    checks.Expect(
        ReadBeliefs((fs::path(flags.dir) / "reference.f64").string(),
                    streamed.rows(), streamed.cols(), &reference) &&
            SameBytes(streamed, reference),
        "streamed beliefs identical to the in-memory solve");
  }
  if (run.traced) {
    obs::SetActiveTracer(nullptr);
    if (!flags.trace_out.empty()) {
      checks.Expect(obs::WriteChromeTrace(flags.trace_out, tracer),
                    "write Chrome trace " + flags.trace_out);
    }
  }

  std::ostringstream out;
  out << "{\"attempted\":" << checks.attempted()
      << ",\"failed\":" << checks.failed() << ",\"failures\":[";
  for (std::size_t i = 0; i < checks.failures().size(); ++i) {
    out << (i ? "," : "") << '"' << obs::JsonEscape(checks.failures()[i])
        << '"';
  }
  out << "],\"metrics\":" << rec.Json()
      << ",\"provenance\":" << ProvenanceJson(run) << "}";
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr,
               "perfbench: refusing to measure a build without NDEBUG "
               "(build type %s); configure with -DCMAKE_BUILD_TYPE=Release\n",
               PERFBENCH_BUILD_TYPE);
  return 2;
#endif
  Flags flags;
  std::string error;
  if (!ParseFlags(argc, argv, &flags, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 2;
  }
  return flags.command == "gen" ? Generate(flags) : Run(flags);
}
