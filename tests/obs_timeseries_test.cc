#include "src/obs/timeseries.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/rng.h"
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

// The recorder as a plain ring: one row per boundary, written into a
// fixed-capacity ring of doubles per series, with the summary updated row by
// row. The run store must retain and summarize exactly what it would.
class PlainRingModel {
 public:
  PlainRingModel(int64_t interval_us, size_t capacity)
      : interval_us_(interval_us), capacity_(capacity) {}

  struct Series {
    std::vector<double> ring;
    double min = 0.0;
    double max = 0.0;
    double last = 0.0;
    double prev = 0.0;
    double largest_delta = 0.0;
    double delta_from_s = 0.0;
    double delta_to_s = 0.0;
  };

  void AddSeries() {
    series_.emplace_back();
    series_.back().ring.assign(times_.size(), 0.0);
  }
  void SampleIfDue(int64_t now_us, const std::vector<double>& readings) {
    while (next_due_us_ <= now_us) {
      Row(next_due_us_, readings);
    }
  }
  void SampleBefore(int64_t t_us, const std::vector<double>& readings) {
    SampleIfDue(t_us - 1, readings);
  }
  void Sample(int64_t now_us, const std::vector<double>& readings) {
    if (total_ == 0 || now_us != prev_time_us_) {
      Row(now_us, readings);
    }
  }

  // Chronological copies of the retained samples.
  std::vector<int64_t> Times() const { return Unroll(times_); }
  std::vector<double> Values(size_t series) const {
    return Unroll(series_[series].ring);
  }
  const Series& series(size_t i) const { return series_[i]; }

 private:
  void Row(int64_t time_us, const std::vector<double>& readings) {
    const size_t write = static_cast<size_t>(total_) % capacity_;
    const bool grow = times_.size() < capacity_;
    if (grow) {
      times_.push_back(time_us);
    } else {
      times_[write] = time_us;
    }
    for (size_t i = 0; i < series_.size(); ++i) {
      Series& s = series_[i];
      const double v = readings[i];
      if (grow) {
        s.ring.push_back(v);
      } else {
        s.ring[write] = v;
      }
      if (total_ == 0) {
        s.min = s.max = v;
      } else {
        s.min = std::min(s.min, v);
        s.max = std::max(s.max, v);
        const double delta = std::abs(v - s.prev);
        if (delta > s.largest_delta) {
          s.largest_delta = delta;
          s.delta_from_s = static_cast<double>(prev_time_us_) / 1e6;
          s.delta_to_s = static_cast<double>(time_us) / 1e6;
        }
      }
      s.prev = v;
      s.last = v;
    }
    prev_time_us_ = time_us;
    next_due_us_ = time_us + interval_us_;
    ++total_;
  }
  template <typename T>
  std::vector<T> Unroll(const std::vector<T>& ring) const {
    const size_t start =
        times_.size() < capacity_ ? 0 : static_cast<size_t>(total_) % capacity_;
    std::vector<T> out;
    for (size_t i = 0; i < ring.size(); ++i) {
      out.push_back(ring[(start + i) % ring.size()]);
    }
    return out;
  }

  int64_t interval_us_;
  size_t capacity_;
  std::vector<int64_t> times_;
  std::vector<Series> series_;
  int64_t total_ = 0;
  int64_t prev_time_us_ = 0;
  int64_t next_due_us_ = 0;
};

uint64_t Bits(double value) { return std::bit_cast<uint64_t>(value); }

// Random readings that mostly repeat (so runs form and break, including on
// 0.0 against -0.0, which compare equal but print differently), random
// catch-up lengths (some longer than the store), a small max_samples, and a
// series registered after sampling began.
TEST(TimeSeriesRecorderTest, RunStoreMatchesPlainRingModel) {
  const double kPool[] = {0.0, -0.0, 1.0, 2.5, -3.0};
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    TimeSeriesConfig config;
    config.interval = SimDuration::Minutes(1);
    config.max_samples = static_cast<size_t>(rng.UniformInt(2, 9));
    const int64_t interval_us = config.interval.micros();
    TimeSeriesRecorder recorder(config);
    PlainRingModel model(interval_us, config.max_samples);

    std::vector<double> readings;
    // Named so that name order is registration order.
    const auto add_series = [&] {
      const size_t index = readings.size();
      readings.push_back(kPool[rng.UniformInt(0, 4)]);
      recorder.AddSeries("s" + std::to_string(index),
                         [&readings, index] { return readings[index]; });
      model.AddSeries();
    };
    for (int i = 0; i < 3; ++i) {
      add_series();
    }
    const int late_step = static_cast<int>(rng.UniformInt(1, 60));
    int64_t now_us = 0;
    for (int step = 0; step < 120; ++step) {
      if (step == late_step) {
        add_series();
      }
      for (double& reading : readings) {
        if (rng.Bernoulli(0.3)) {
          reading = kPool[rng.UniformInt(0, 4)];
        }
      }
      const int64_t stride = rng.Bernoulli(0.1) ? rng.UniformInt(0, 25)
                                                : rng.UniformInt(0, 3);
      now_us += stride * interval_us + rng.UniformInt(0, 2) * interval_us / 2;
      switch (rng.UniformInt(0, 2)) {
        case 0:
          recorder.SampleIfDue(SimTime::FromMicros(now_us));
          model.SampleIfDue(now_us, readings);
          break;
        case 1:
          recorder.SampleBefore(SimTime::FromMicros(now_us));
          model.SampleBefore(now_us, readings);
          break;
        default:
          recorder.Sample(SimTime::FromMicros(now_us));
          model.Sample(now_us, readings);
          break;
      }
    }

    JsonWriter json;
    recorder.WriteJson(json);
    JsonValue doc;
    ASSERT_TRUE(ParseJson(json.str(), &doc)) << json.str();
    const std::vector<int64_t> times = model.Times();
    const JsonValue* time_s = doc.Find("time_s");
    ASSERT_EQ(time_s->array.size(), times.size()) << "seed " << seed;
    for (size_t i = 0; i < times.size(); ++i) {
      EXPECT_EQ(time_s->array[i].number, static_cast<double>(times[i]) / 1e6)
          << "seed " << seed << " row " << i;
    }
    const JsonValue* summary = doc.Find("summary")->Find("series");
    for (size_t s = 0; s < readings.size(); ++s) {
      const std::string name = "s" + std::to_string(s);
      const std::vector<double> expected = model.Values(s);
      const JsonValue* values = doc.Find("series")->Find(name);
      ASSERT_EQ(values->array.size(), expected.size()) << "seed " << seed;
      for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(Bits(values->array[i].number), Bits(expected[i]))
            << "seed " << seed << " " << name << " row " << i;
      }
      const PlainRingModel::Series& want = model.series(s);
      const JsonValue* got = summary->Find(name);
      EXPECT_EQ(Bits(got->Find("min")->number), Bits(want.min)) << name;
      EXPECT_EQ(Bits(got->Find("max")->number), Bits(want.max)) << name;
      EXPECT_EQ(Bits(got->Find("last")->number), Bits(want.last)) << name;
      const JsonValue* delta = got->Find("largest_delta");
      EXPECT_EQ(delta->Find("delta")->number, want.largest_delta) << name;
      EXPECT_EQ(delta->Find("from_s")->number, want.delta_from_s) << name;
      EXPECT_EQ(delta->Find("to_s")->number, want.delta_to_s) << name;
    }
  }
}

}  // namespace
}  // namespace spotcheck
