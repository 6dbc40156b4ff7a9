// Shared helpers for the experiment harnesses (one binary per paper
// table/figure, built as bench_<name>; README.md "Benchmarks and
// examples" lists them and their --check goldens).

#ifndef LINBP_BENCH_BENCH_COMMON_H_
#define LINBP_BENCH_BENCH_COMMON_H_

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <thread>

#include "src/exec/exec_context.h"
#include "src/graph/beliefs.h"
#include "src/graph/generators.h"
#include "src/graph/graph.h"
#include "src/obs/export.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/timer.h"

namespace linbp {
namespace bench {

/// The paper's graph #index (Fig. 6a): Kronecker power index + 4.
inline Graph PaperGraph(int index) {
  return KroneckerPowerGraph(KroneckerPowerForPaperIndex(index));
}

/// Number of explicit nodes at the paper's 5% rate.
inline std::int64_t FivePercent(std::int64_t n) {
  return std::max<std::int64_t>(1, n * 5 / 100);
}

/// Number of explicit nodes at the paper's 1 permille rate.
inline std::int64_t OnePermille(std::int64_t n) {
  return std::max<std::int64_t>(1, n / 1000);
}

/// The paper's seeding protocol: 5% random nodes, k = 3, grid beliefs.
inline SeededBeliefs PaperSeeds(const Graph& graph, std::uint64_t seed,
                                int extra_digits = 0) {
  return SeedPaperBeliefs(graph.num_nodes(), 3,
                          FivePercent(graph.num_nodes()), seed, extra_digits);
}

/// Wall-clock seconds of one invocation.
inline double TimeSeconds(const std::function<void()>& fn) {
  WallTimer timer;
  fn();
  return timer.Seconds();
}

/// Minimal "--flag=value" parser for the bench binaries. Numeric values
/// are strict: a malformed, trailing-garbage, overflowing or negative
/// value exits the driver with code 2 and a message naming the flag,
/// instead of silently running with a default.
class Args {
 public:
  Args(int argc, char** argv) : argc_(argc), argv_(argv) {}

  /// Integer flag "--name=V" with a default; V must be a non-negative
  /// decimal integer that fits in int64.
  std::int64_t Int(const char* name, std::int64_t fallback) const {
    const char* text = Find(name);
    if (text == nullptr) return fallback;
    errno = 0;
    char* end = nullptr;
    const long long value = std::strtoll(text, &end, 10);
    if (!std::isdigit(static_cast<unsigned char>(text[0])) || *end != '\0' ||
        errno == ERANGE) {
      Reject(name, text, "a non-negative integer");
    }
    return value;
  }

  /// Floating-point flag "--name=V" with a default; V must be a finite,
  /// non-negative decimal number.
  double Double(const char* name, double fallback) const {
    const char* text = Find(name);
    if (text == nullptr) return fallback;
    errno = 0;
    char* end = nullptr;
    const double value = std::strtod(text, &end);
    const bool leads = std::isdigit(static_cast<unsigned char>(text[0])) ||
                       text[0] == '.';
    if (!leads || *end != '\0' || errno == ERANGE || !std::isfinite(value)) {
      Reject(name, text, "a finite non-negative number");
    }
    return value;
  }

  /// String flag "--name=V" with a default.
  std::string Str(const char* name, const std::string& fallback) const {
    const char* text = Find(name);
    return text == nullptr ? fallback : std::string(text);
  }

  /// Presence flag "--name".
  bool Has(const char* name) const {
    const std::string flag = std::string("--") + name;
    for (int i = 1; i < argc_; ++i) {
      if (flag == argv_[i]) return true;
    }
    return false;
  }

 private:
  // The value of the first "--name=V" argument, or nullptr.
  const char* Find(const char* name) const {
    const std::string prefix = std::string("--") + name + "=";
    for (int i = 1; i < argc_; ++i) {
      if (std::strncmp(argv_[i], prefix.c_str(), prefix.size()) == 0) {
        return argv_[i] + prefix.size();
      }
    }
    return nullptr;
  }

  [[noreturn]] static void Reject(const char* name, const char* text,
                                  const char* expected) {
    std::fprintf(stderr, "error: --%s must be %s, got '%s'\n", name, expected,
                 text);
    std::exit(2);
  }

  int argc_;
  char** argv_;
};

/// Execution context for a driver from its "--threads=N" flag: N >= 1
/// means exactly N lanes, 0 means all hardware threads, and an absent flag
/// defers to LINBP_THREADS (serial when unset). Drivers sweep thread
/// counts by re-running with different flags; solver results are
/// identical at every width.
inline exec::ExecContext ExecFromArgs(const Args& args) {
  const std::int64_t threads = args.Int("threads", -1);
  return threads >= 0
             ? exec::ExecContext::WithThreads(static_cast<int>(threads))
             : exec::ExecContext::Default();
}

/// Provenance block for BENCH_*.json records (no surrounding braces, so
/// callers splice it next to their own fields): the machine's hardware
/// thread count, the LINBP_THREADS environment override ("" when unset),
/// and the build type. Recorded numbers are only comparable against
/// numbers from the same host shape, and this makes that checkable.
inline std::string HostJsonBlock() {
  const char* env = std::getenv("LINBP_THREADS");
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "\"host\": {\"hardware_threads\": %u, "
                "\"linbp_threads\": \"%s\", \"build\": \"%s\"}",
                std::thread::hardware_concurrency(),
                env != nullptr ? env : "",
#ifdef NDEBUG
                "Release"
#else
                "Debug"
#endif
  );
  return buf;
}

/// Scoped --metrics-out=FILE / --trace-out=FILE support for a bench
/// driver: installs a span tracer for the driver's lifetime and writes
/// the combined metrics + time-series + trace report (and/or the Chrome
/// trace-event file for chrome://tracing / ui.perfetto.dev) on
/// destruction. A driver declares one at the top of main(); without
/// either flag the guard is a no-op.
class MetricsDumpGuard {
 public:
  explicit MetricsDumpGuard(const Args& args)
      : path_(args.Str("metrics-out", "")),
        trace_path_(args.Str("trace-out", "")) {
    if (!path_.empty() || !trace_path_.empty()) {
      obs::SetActiveTracer(&tracer_);
    }
  }
  ~MetricsDumpGuard() {
    if (path_.empty() && trace_path_.empty()) return;
    obs::SetActiveTracer(nullptr);
    if (!path_.empty() &&
        !obs::WriteMetricsReport(path_, obs::Registry::Global(),
                                 &tracer_)) {
      std::fprintf(stderr, "error: failed to write metrics report to %s\n",
                   path_.c_str());
    }
    if (!trace_path_.empty() &&
        !obs::WriteChromeTrace(trace_path_, tracer_)) {
      std::fprintf(stderr, "error: failed to write trace to %s\n",
                   trace_path_.c_str());
    }
  }
  MetricsDumpGuard(const MetricsDumpGuard&) = delete;
  MetricsDumpGuard& operator=(const MetricsDumpGuard&) = delete;

 private:
  std::string path_;
  std::string trace_path_;
  obs::Tracer tracer_;
};

/// "4 sec" / "12.3 ms" style duration rendering.
inline std::string FormatSeconds(double seconds) {
  char buf[64];
  if (seconds < 1e-3) {
    std::snprintf(buf, sizeof(buf), "%.0f us", seconds * 1e6);
  } else if (seconds < 1.0) {
    std::snprintf(buf, sizeof(buf), "%.1f ms", seconds * 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f s", seconds);
  }
  return buf;
}

}  // namespace bench
}  // namespace linbp

#endif  // LINBP_BENCH_BENCH_COMMON_H_
