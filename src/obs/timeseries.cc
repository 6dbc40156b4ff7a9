#include "src/obs/timeseries.h"

#include <cstdio>

#include "src/util/check.h"

namespace linbp {
namespace obs {

TimeSeries::TimeSeries(std::size_t capacity, const std::atomic<bool>* enabled)
    : enabled_(enabled), capacity_(capacity) {
  LINBP_CHECK_MSG(capacity_ >= 2 && capacity_ % 2 == 0,
                  "time-series capacity must be even and >= 2");
  samples_.reserve(capacity_);
}

void TimeSeries::BeginRun() {
  if (!enabled_->load(std::memory_order_relaxed)) return;
  std::lock_guard<std::mutex> lock(mutex_);
  samples_.clear();
  appends_ = 0;
  stride_ = 1;
  ++runs_;
}

void TimeSeries::Append(const TimeSeriesSample& sample) {
  if (!enabled_->load(std::memory_order_relaxed)) return;
  std::lock_guard<std::mutex> lock(mutex_);
  const std::int64_t index = appends_++;
  if (index % stride_ != 0) return;
  samples_.push_back(sample);
  if (samples_.size() < capacity_) return;
  // Decimate: stored sample i sits at append index i * stride_, so
  // keeping the even slots leaves exactly the multiples of 2 * stride_.
  for (std::size_t i = 0; 2 * i < samples_.size(); ++i) {
    samples_[i] = samples_[2 * i];
  }
  samples_.resize(samples_.size() / 2);
  stride_ *= 2;
}

std::vector<TimeSeriesSample> TimeSeries::Samples() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return samples_;
}

std::int64_t TimeSeries::runs() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return runs_;
}

std::int64_t TimeSeries::total_appends() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return appends_;
}

std::int64_t TimeSeries::stride() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stride_;
}

void TimeSeries::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  samples_.clear();
  appends_ = 0;
  stride_ = 1;
  runs_ = 0;
}

namespace {

std::string FormatDouble(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace

std::string TimeSeries::Json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "\"runs\":" + std::to_string(runs_) +
                    ",\"total_appends\":" + std::to_string(appends_) +
                    ",\"stride\":" + std::to_string(stride_) +
                    ",\"samples\":[";
  for (std::size_t i = 0; i < samples_.size(); ++i) {
    const TimeSeriesSample& s = samples_[i];
    if (i > 0) out.push_back(',');
    out += "{\"sweep\":" + std::to_string(s.sweep) +
           ",\"delta\":" + FormatDouble(s.delta) +
           ",\"delta_l2\":" + FormatDouble(s.delta_l2) +
           ",\"seconds\":" + FormatDouble(s.seconds) +
           ",\"bytes_streamed\":" + std::to_string(s.bytes_streamed) +
           ",\"precision\":\"" + s.precision + "\"" +
           ",\"schedule\":\"" + s.schedule + "\"}";
  }
  out += "]";
  return out;
}

TimeSeriesRegistry& TimeSeriesRegistry::Global() {
  static TimeSeriesRegistry* registry = new TimeSeriesRegistry();
  return *registry;
}

TimeSeries& TimeSeriesRegistry::Get(const std::string& name,
                                    std::size_t capacity) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = series_.find(name);
  if (it == series_.end()) {
    it = series_
             .emplace(name, std::make_unique<TimeSeries>(capacity, &enabled_))
             .first;
  }
  return *it->second;
}

std::size_t TimeSeriesRegistry::num_series() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return series_.size();
}

void TimeSeriesRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, series] : series_) series->Reset();
}

std::string TimeSeriesRegistry::Json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "{\"series\":[";
  bool first = true;
  for (const auto& [name, series] : series_) {
    if (!first) out.push_back(',');
    first = false;
    out += "{\"name\":\"" + JsonEscape(name) + "\"," + series->Json() + "}";
  }
  out += "]}";
  return out;
}

}  // namespace obs
}  // namespace linbp
