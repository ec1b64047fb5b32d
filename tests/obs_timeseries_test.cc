#include "src/obs/timeseries.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "src/obs/json.h"
#include "tests/json_test_util.h"

namespace spotcheck {
namespace {

using testjson::JsonValue;
using testjson::ParseJson;

SimTime At(int64_t minutes) { return SimTime() + SimDuration::Minutes(minutes); }

TEST(TimeSeriesRecorderTest, FirstEventSamplesImmediately) {
  TimeSeriesRecorder recorder;
  int value = 7;
  recorder.AddSeries("v", [&] { return static_cast<double>(value); });
  recorder.SampleIfDue(At(0));
  EXPECT_EQ(recorder.total_samples(), 1);
}

TEST(TimeSeriesRecorderTest, SamplesAtTheConfiguredInterval) {
  TimeSeriesConfig config;
  config.interval = SimDuration::Minutes(15);
  TimeSeriesRecorder recorder(config);
  int value = 0;
  recorder.AddSeries("v", [&] { return static_cast<double>(value); });
  // One event per simulated minute for 2 hours: samples at 0, 15, ..., 120.
  for (int m = 0; m <= 120; ++m) {
    value = m;
    recorder.SampleIfDue(At(m));
  }
  EXPECT_EQ(recorder.total_samples(), 9);
}

TEST(TimeSeriesRecorderTest, SparseEventsStillSample) {
  // Events rarer than the interval: every boundary up to the last event is
  // sampled, stamped with its boundary time.
  TimeSeriesConfig config;
  config.interval = SimDuration::Minutes(15);
  TimeSeriesRecorder recorder(config);
  recorder.AddSeries("v", [] { return 1.0; });
  recorder.SampleIfDue(At(0));
  recorder.SampleIfDue(At(100));  // 15, 30, ..., 90
  recorder.SampleIfDue(At(101));  // not yet due again
  recorder.SampleIfDue(At(200));  // 105, 120, ..., 195
  EXPECT_EQ(recorder.total_samples(), 14);

  JsonWriter json;
  recorder.WriteJson(json);
  JsonValue doc;
  ASSERT_TRUE(ParseJson(json.str(), &doc)) << json.str();
  const JsonValue* times = doc.Find("time_s");
  ASSERT_NE(times, nullptr);
  ASSERT_EQ(times->array.size(), 14u);
  for (size_t i = 0; i < times->array.size(); ++i) {
    EXPECT_DOUBLE_EQ(times->array[i].number,
                     15 * 60.0 * static_cast<double>(i));
  }
}

// No event runs between the boundaries one catch-up covers, so the samplers
// are read once and that row repeats at each boundary.
TEST(TimeSeriesRecorderTest, CatchUpReadsSamplersOnceAndRepeatsTheRow) {
  TimeSeriesConfig config;
  config.interval = SimDuration::Minutes(15);
  TimeSeriesRecorder recorder(config);
  int reads = 0;
  recorder.AddSeries("v", [&] { return static_cast<double>(++reads); });
  recorder.SampleIfDue(At(100));  // 0, 15, ..., 90
  EXPECT_EQ(reads, 1);
  EXPECT_EQ(recorder.total_samples(), 7);

  JsonWriter json;
  recorder.WriteJson(json);
  JsonValue doc;
  ASSERT_TRUE(ParseJson(json.str(), &doc)) << json.str();
  const JsonValue* values = doc.Find("series")->Find("v");
  ASSERT_NE(values, nullptr);
  ASSERT_EQ(values->array.size(), 7u);
  for (const JsonValue& value : values->array) {
    EXPECT_DOUBLE_EQ(value.number, 1.0);
  }
}

// The dispatch loop samples the boundaries before an event ahead of it, so
// a boundary the event sits on waits for the event.
TEST(TimeSeriesRecorderTest, SampleBeforeLeavesTheEventsBoundary) {
  TimeSeriesConfig config;
  config.interval = SimDuration::Minutes(15);
  TimeSeriesRecorder recorder(config);
  int value = 0;
  recorder.AddSeries("v", [&] { return static_cast<double>(value); });
  recorder.SampleBefore(At(0));  // nothing is before 0
  EXPECT_EQ(recorder.total_samples(), 0);
  recorder.SampleBefore(At(30));  // 0 and 15, not 30
  EXPECT_EQ(recorder.total_samples(), 2);
  value = 30;  // the event at 30 runs
  recorder.SampleIfDue(At(30));  // the run ends at 30
  EXPECT_EQ(recorder.total_samples(), 3);

  JsonWriter json;
  recorder.WriteSummaryJson(json);
  JsonValue doc;
  ASSERT_TRUE(ParseJson(json.str(), &doc)) << json.str();
  EXPECT_DOUBLE_EQ(doc.Find("series")->Find("v")->Find("last")->number, 30.0);
}

// A run that ends on a boundary samples it; the forced end-of-run sample at
// the same instant must not record it twice.
TEST(TimeSeriesRecorderTest, ForcedSampleAtTheLastSampledInstantIsANoOp) {
  TimeSeriesConfig config;
  config.interval = SimDuration::Minutes(15);
  TimeSeriesRecorder recorder(config);
  recorder.AddSeries("v", [] { return 1.0; });
  recorder.SampleIfDue(At(30));  // 0, 15, 30
  recorder.Sample(At(30));
  EXPECT_EQ(recorder.total_samples(), 3);
  recorder.Sample(At(40));
  EXPECT_EQ(recorder.total_samples(), 4);
}

TEST(TimeSeriesRecorderTest, RingOverwritesOldestButSummariesCoverAll) {
  TimeSeriesConfig config;
  config.interval = SimDuration::Minutes(1);
  config.max_samples = 4;
  TimeSeriesRecorder recorder(config);
  int value = 0;
  recorder.AddSeries("v", [&] { return static_cast<double>(value); });
  // 10 samples of 0, 10, ..., 90; the ring keeps the newest 4.
  for (int m = 0; m < 10; ++m) {
    value = m * 10;
    recorder.Sample(At(m));
  }
  EXPECT_EQ(recorder.total_samples(), 10);
  EXPECT_EQ(recorder.retained_samples(), 4u);

  JsonWriter json;
  recorder.WriteJson(json);
  JsonValue doc;
  ASSERT_TRUE(ParseJson(json.str(), &doc)) << json.str();
  const JsonValue* times = doc.Find("time_s");
  ASSERT_NE(times, nullptr);
  ASSERT_EQ(times->array.size(), 4u);
  // Chronological order: minutes 6, 7, 8, 9.
  EXPECT_DOUBLE_EQ(times->array.front().number, 6 * 60.0);
  EXPECT_DOUBLE_EQ(times->array.back().number, 9 * 60.0);
  const JsonValue* series = doc.Find("series");
  ASSERT_NE(series, nullptr);
  ASSERT_EQ(series->Find("v")->array.size(), 4u);
  EXPECT_DOUBLE_EQ(series->Find("v")->array.back().number, 90.0);
  // Summary still covers the evicted samples.
  const JsonValue* summary_v = doc.Find("summary")->Find("series")->Find("v");
  ASSERT_NE(summary_v, nullptr);
  EXPECT_DOUBLE_EQ(summary_v->Find("min")->number, 0.0);
  EXPECT_DOUBLE_EQ(summary_v->Find("max")->number, 90.0);
  EXPECT_DOUBLE_EQ(summary_v->Find("last")->number, 90.0);
}

TEST(TimeSeriesRecorderTest, LargestDeltaNamesTheWindow) {
  TimeSeriesConfig config;
  config.interval = SimDuration::Minutes(1);
  TimeSeriesRecorder recorder(config);
  double value = 0.0;
  recorder.AddSeries("v", [&] { return value; });
  value = 10.0;
  recorder.Sample(At(0));
  value = 12.0;
  recorder.Sample(At(1));
  value = 100.0;  // the blow-up window: minute 1 -> minute 2
  recorder.Sample(At(2));
  value = 99.0;
  recorder.Sample(At(3));

  JsonWriter json;
  recorder.WriteSummaryJson(json);
  JsonValue doc;
  ASSERT_TRUE(ParseJson(json.str(), &doc)) << json.str();
  const JsonValue* delta = doc.Find("series")->Find("v")->Find("largest_delta");
  ASSERT_NE(delta, nullptr);
  EXPECT_DOUBLE_EQ(delta->Find("delta")->number, 88.0);
  EXPECT_DOUBLE_EQ(delta->Find("from_s")->number, 60.0);
  EXPECT_DOUBLE_EQ(delta->Find("to_s")->number, 120.0);
}

TEST(TimeSeriesRecorderTest, SeriesSerializeSortedByName) {
  TimeSeriesRecorder recorder;
  recorder.AddSeries("zebra", [] { return 1.0; });
  recorder.AddSeries("alpha", [] { return 2.0; });
  recorder.Sample(At(0));

  JsonWriter json;
  recorder.WriteJson(json);
  JsonValue doc;
  ASSERT_TRUE(ParseJson(json.str(), &doc)) << json.str();
  const JsonValue* series = doc.Find("series");
  ASSERT_EQ(series->object.size(), 2u);
  EXPECT_EQ(series->object[0].first, "alpha");
  EXPECT_EQ(series->object[1].first, "zebra");
}

TEST(TimeSeriesRecorderTest, WriteToCreatesParentDirectories) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "spotcheck_ts_test";
  std::filesystem::remove_all(dir);
  const std::string path = (dir / "cell" / "timeseries.json").string();

  TimeSeriesRecorder recorder;
  recorder.AddSeries("v", [] { return 3.0; });
  recorder.Sample(At(0));
  ASSERT_TRUE(recorder.WriteTo(path));

  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  JsonValue doc;
  EXPECT_TRUE(ParseJson(text.str(), &doc));
  std::filesystem::remove_all(dir);
}

TEST(TimeSeriesRecorderTest, SummaryReportsSamplingFacts) {
  TimeSeriesConfig config;
  config.interval = SimDuration::Minutes(30);
  TimeSeriesRecorder recorder(config);
  recorder.AddSeries("v", [] { return 0.0; });
  recorder.Sample(At(0));
  recorder.Sample(At(30));

  JsonWriter json;
  recorder.WriteSummaryJson(json);
  JsonValue doc;
  ASSERT_TRUE(ParseJson(json.str(), &doc)) << json.str();
  EXPECT_DOUBLE_EQ(doc.Find("interval_s")->number, 1800.0);
  EXPECT_DOUBLE_EQ(doc.Find("total_samples")->number, 2.0);
}

}  // namespace
}  // namespace spotcheck
