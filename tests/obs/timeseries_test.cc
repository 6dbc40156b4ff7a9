// Bounded time-series recorder: append/decimate determinism, run
// lifecycle, registry integration, and JSON shape.

#include <atomic>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/obs/timeseries.h"

namespace linbp {
namespace obs {
namespace {

TimeSeriesSample Sample(int sweep) {
  TimeSeriesSample sample;
  sample.sweep = sweep;
  sample.delta = 1.0 / sweep;
  sample.delta_l2 = 2.0 / sweep;
  sample.seconds = 0.001 * sweep;
  sample.bytes_streamed = 100 * sweep;
  sample.precision = sweep % 2 == 0 ? "f32" : "f64";
  sample.schedule = "segmented_gauss_seidel";
  return sample;
}

TEST(TimeSeriesTest, StoresEverySampleBelowCapacity) {
  TimeSeries series(8);
  series.BeginRun();
  for (int i = 1; i <= 5; ++i) series.Append(Sample(i));
  const std::vector<TimeSeriesSample> samples = series.Samples();
  ASSERT_EQ(samples.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(samples[i].sweep, i + 1);
    EXPECT_DOUBLE_EQ(samples[i].delta, 1.0 / (i + 1));
    EXPECT_EQ(samples[i].bytes_streamed, 100 * (i + 1));
  }
  EXPECT_EQ(series.stride(), 1);
  EXPECT_EQ(series.total_appends(), 5);
}

TEST(TimeSeriesTest, DecimationBoundsMemoryAndKeepsStrideSpacing) {
  const std::size_t capacity = 8;
  TimeSeries series(capacity);
  series.BeginRun();
  const int total = 1000;
  for (int i = 1; i <= total; ++i) series.Append(Sample(i));
  const std::vector<TimeSeriesSample> samples = series.Samples();
  // Never more than capacity retained, never fewer than capacity/2 once
  // enough samples flowed, and every retained sample sits exactly one
  // stride from the previous (append index i*stride).
  EXPECT_LE(samples.size(), capacity);
  EXPECT_GE(samples.size(), capacity / 2);
  ASSERT_GE(samples.size(), 2u);
  EXPECT_EQ(samples[0].sweep, 1);
  for (std::size_t i = 1; i < samples.size(); ++i) {
    EXPECT_EQ(samples[i].sweep - samples[i - 1].sweep, series.stride());
  }
  EXPECT_EQ(series.total_appends(), total);
}

TEST(TimeSeriesTest, DecimationIsDeterministic) {
  TimeSeries a(16);
  TimeSeries b(16);
  a.BeginRun();
  b.BeginRun();
  for (int i = 1; i <= 777; ++i) {
    a.Append(Sample(i));
    b.Append(Sample(i));
  }
  const std::vector<TimeSeriesSample> sa = a.Samples();
  const std::vector<TimeSeriesSample> sb = b.Samples();
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i].sweep, sb[i].sweep);
    EXPECT_EQ(sa[i].delta, sb[i].delta);
    EXPECT_EQ(sa[i].seconds, sb[i].seconds);
  }
  EXPECT_EQ(a.Json(), b.Json());
}

TEST(TimeSeriesTest, BeginRunResetsSamplesAndCountsRuns) {
  TimeSeries series(8);
  series.BeginRun();
  for (int i = 1; i <= 30; ++i) series.Append(Sample(i));
  EXPECT_GT(series.stride(), 1);
  series.BeginRun();
  series.Append(Sample(1));
  const std::vector<TimeSeriesSample> samples = series.Samples();
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].sweep, 1);
  EXPECT_EQ(series.stride(), 1);
  EXPECT_EQ(series.runs(), 2);
  EXPECT_EQ(series.total_appends(), 1);
}

TEST(TimeSeriesTest, DisabledFlagMakesRecordingANoOp) {
  std::atomic<bool> enabled{false};
  TimeSeries series(8, &enabled);
  series.BeginRun();
  series.Append(Sample(1));
  EXPECT_EQ(series.Samples().size(), 0u);
  EXPECT_EQ(series.runs(), 0);
  enabled.store(true);
  series.BeginRun();
  series.Append(Sample(2));
  EXPECT_EQ(series.Samples().size(), 1u);
  EXPECT_EQ(series.runs(), 1);
}

TEST(TimeSeriesTest, JsonCarriesRunMetadataAndSampleFields) {
  TimeSeries series(8);
  series.BeginRun();
  series.Append(Sample(1));
  const std::string json = series.Json();
  EXPECT_NE(json.find("\"runs\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"total_appends\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"stride\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"samples\":[{"), std::string::npos) << json;
  EXPECT_NE(json.find("\"sweep\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"delta\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"delta_l2\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"seconds\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"bytes_streamed\":100"), std::string::npos) << json;
  EXPECT_NE(json.find("\"precision\":\"f64\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"schedule\":\"segmented_gauss_seidel\""),
            std::string::npos)
      << json;
}

TEST(TimeSeriesRegistryTest, GetReturnsTheSameSeriesByName) {
  TimeSeriesRegistry& registry = TimeSeriesRegistry::Global();
  registry.Reset();
  TimeSeries& a = registry.Get("test_series_identity");
  TimeSeries& b = registry.Get("test_series_identity");
  EXPECT_EQ(&a, &b);
  EXPECT_GE(registry.num_series(), 1u);
}

TEST(TimeSeriesRegistryTest, JsonListsSeriesByName) {
  TimeSeriesRegistry& registry = TimeSeriesRegistry::Global();
  registry.Reset();
  TimeSeries& series = registry.Get("test_series_json");
  series.BeginRun();
  series.Append(Sample(1));
  const std::string json = registry.Json();
  EXPECT_NE(json.find("\"series\":["), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"test_series_json\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"samples\":[{"), std::string::npos) << json;
}

TEST(TimeSeriesRegistryTest, SetEnabledGatesRecordingAtRuntime) {
  TimeSeriesRegistry& registry = TimeSeriesRegistry::Global();
  registry.Reset();
  TimeSeries& series = registry.Get("test_series_gated");
  registry.SetEnabled(false);
  series.BeginRun();
  series.Append(Sample(1));
  EXPECT_EQ(series.Samples().size(), 0u);
  registry.SetEnabled(true);
  series.BeginRun();
  series.Append(Sample(1));
  EXPECT_EQ(series.Samples().size(), 1u);
}

}  // namespace
}  // namespace obs
}  // namespace linbp
