// Bounded per-run time-series: the per-sweep trajectory of a solver run
// (residual deltas, wall seconds, streamed bytes), kept alongside the
// scalar metrics in src/obs/metrics.h and emitted in the --metrics-out
// JSON report.
//
// A TimeSeries holds the samples of the CURRENT run only: BeginRun()
// clears it, Append() records one sweep. Memory stays bounded no matter
// how long a run is — once `capacity` samples are stored the series
// decimates itself (keeps every second stored sample and doubles its
// stride), so a 10^6-sweep run still costs `capacity` samples and the
// kept sweeps are deterministic: exactly those whose 0-based append
// index is a multiple of the final stride.
//
// Series are registered by name in TimeSeriesRegistry::Global() (hot
// paths use the LINBP_OBS_TIMESERIES_* macros in src/obs/obs.h, which
// compile out under LINBP_OBS_DISABLED) and share the registry-level
// null-sink contract of metrics: SetEnabled(false) turns Append and
// BeginRun into a relaxed-load no-op, so instrumented solves stay
// bit-identical to uninstrumented ones (test-enforced).

#ifndef LINBP_OBS_TIMESERIES_H_
#define LINBP_OBS_TIMESERIES_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/obs/metrics.h"

namespace linbp {
namespace obs {

/// One recorded solver sweep.
struct TimeSeriesSample {
  std::int64_t sweep = 0;        // 1-based sweep index within the run
  double delta = 0.0;            // L-inf residual delta of the sweep
  double delta_l2 = 0.0;         // L2 norm of the belief change
  double seconds = 0.0;          // wall seconds of the sweep
  std::int64_t bytes_streamed = 0;  // shard bytes read during the sweep
  // Belief-storage precision of the run ("f64" or "f32"), kept as a
  // plain string so obs stays independent of the la layer's enum.
  std::string precision = "f64";
  // The sweep order ("jacobi" or "segmented_gauss_seidel", see
  // core/linbp.h SweepSchedule).
  std::string schedule = "jacobi";
};

/// Default bound on stored samples per run. Must be even (the decimation
/// step halves the stored set in place).
inline constexpr std::size_t kDefaultTimeSeriesCapacity = 512;

/// A bounded recorder for one named series. Thread-safe; writes take a
/// mutex — series record per solver sweep, not per row, so this is far
/// off every hot path.
class TimeSeries {
 public:
  explicit TimeSeries(std::size_t capacity = kDefaultTimeSeriesCapacity,
                      const std::atomic<bool>* enabled =
                          internal::AlwaysEnabled());
  TimeSeries(const TimeSeries&) = delete;
  TimeSeries& operator=(const TimeSeries&) = delete;

  /// Starts a new run: clears the stored samples, resets the stride, and
  /// increments runs(). Solvers call this once per (re-)solve.
  void BeginRun();

  /// Records one sweep of the current run. Samples whose 0-based append
  /// index is not a multiple of the current stride are counted (see
  /// total_appends) but not stored.
  void Append(const TimeSeriesSample& sample);

  /// Snapshot of the stored samples of the current run, in append order.
  std::vector<TimeSeriesSample> Samples() const;

  /// Number of BeginRun() calls since construction / Reset().
  std::int64_t runs() const;

  /// Appends seen by the current run, including decimated-away ones.
  std::int64_t total_appends() const;

  /// Current decimation stride (1 until the capacity first fills).
  std::int64_t stride() const;

  std::size_t capacity() const { return capacity_; }

  /// Clears samples AND the run counter (for tests).
  void Reset();

  /// {"runs":N,"total_appends":M,"stride":S,"samples":[{...} ...]}
  std::string Json() const;

 private:
  const std::atomic<bool>* enabled_;  // not owned
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::vector<TimeSeriesSample> samples_;
  std::int64_t runs_ = 0;
  std::int64_t appends_ = 0;  // of the current run
  std::int64_t stride_ = 1;
};

/// Name -> TimeSeries map mirroring obs::Registry: thread-safe, returned
/// references stay valid for the registry's lifetime (macro call sites
/// cache them in function-local statics), and SetEnabled(false) null-
/// sinks every series it owns.
class TimeSeriesRegistry {
 public:
  TimeSeriesRegistry() = default;
  TimeSeriesRegistry(const TimeSeriesRegistry&) = delete;
  TimeSeriesRegistry& operator=(const TimeSeriesRegistry&) = delete;

  /// The process-wide registry the LINBP_OBS_TIMESERIES_* macros use.
  static TimeSeriesRegistry& Global();

  /// Finds or creates the series `name`.
  TimeSeries& Get(const std::string& name,
                  std::size_t capacity = kDefaultTimeSeriesCapacity);

  void SetEnabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  std::size_t num_series() const;

  /// Resets every series in place (references stay valid). For tests.
  void Reset();

  /// {"series":[{"name":...,<TimeSeries::Json() fields>} ...]}, series
  /// in name order.
  std::string Json() const;

 private:
  mutable std::mutex mutex_;
  std::atomic<bool> enabled_{true};
  std::map<std::string, std::unique_ptr<TimeSeries>> series_;
};

}  // namespace obs
}  // namespace linbp

#endif  // LINBP_OBS_TIMESERIES_H_
