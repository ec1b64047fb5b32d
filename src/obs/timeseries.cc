#include "src/obs/timeseries.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <system_error>
#include <utility>

#include "src/obs/json.h"

namespace spotcheck {
namespace {

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

}  // namespace

TimeSeriesRecorder::TimeSeriesRecorder(TimeSeriesConfig config)
    : config_(config) {
  if (config_.max_samples < 2) {
    config_.max_samples = 2;  // a delta needs two samples
  }
  if (config_.interval <= SimDuration::Zero()) {
    config_.interval = SimDuration::Minutes(15);
  }
}

void TimeSeriesRecorder::AddSeries(std::string name, SampleFn sampler) {
  Series series;
  series.name = std::move(name);
  series.sampler = std::move(sampler);
  // Late registration would leave this series shorter than the time column;
  // keep them aligned by back-filling the samples it missed as its first
  // reading would not be meaningful anyway. In practice all series are
  // registered before the first event runs, so this stays empty.
  if (retained_samples() > 0) {
    series.runs.push_back(
        Run{0.0, static_cast<int64_t>(retained_samples())});
  }
  series_.push_back(std::move(series));
}

void TimeSeriesRecorder::Sample(SimTime now) {
  if (total_samples_ > 0 && now.micros() == prev_time_us_) {
    return;  // this instant is recorded already
  }
  ReadSamplers();
  AppendRows(now.micros(), 1);
}

void TimeSeriesRecorder::SampleThrough(int64_t limit_us) {
  // Every boundary up to `limit_us` sees the same state, so one read serves
  // them all.
  ReadSamplers();
  AppendRows(next_due_us_,
             (limit_us - next_due_us_) / config_.interval.micros() + 1);
}

void TimeSeriesRecorder::ReadSamplers() {
  for (Series& series : series_) {
    series.reading = series.sampler ? series.sampler() : 0.0;
  }
}

void TimeSeriesRecorder::AppendRows(int64_t first_us, int64_t rows) {
  const int64_t interval_us = config_.interval.micros();
  const int64_t cap = static_cast<int64_t>(config_.max_samples);
  // Retained samples that the new rows push out of the window.
  const int64_t evicted =
      std::max<int64_t>(0, std::min(total_samples_, cap) + rows - cap);

  for (Series& series : series_) {
    // Only the first row can move the summary; the rest repeat its value.
    const double v = series.reading;
    if (total_samples_ == 0) {
      series.min = series.max = v;
    } else {
      series.min = std::min(series.min, v);
      series.max = std::max(series.max, v);
      const double delta = std::abs(v - series.prev);
      if (delta > series.largest_delta) {
        series.largest_delta = delta;
        series.delta_from_s = static_cast<double>(prev_time_us_) / 1e6;
        series.delta_to_s = static_cast<double>(first_us) / 1e6;
      }
    }
    series.prev = v;
    series.last = v;

    std::deque<Run>& runs = series.runs;
    if (!runs.empty() && SameBits(runs.back().value, v)) {
      runs.back().count += rows;
    } else {
      runs.push_back(Run{v, rows});
    }
    for (int64_t drop = evicted; drop > 0;) {
      Run& front = runs.front();
      const int64_t n = std::min(front.count, drop);
      front.count -= n;
      drop -= n;
      if (front.count == 0) {
        runs.pop_front();
      }
    }
  }

  for (int64_t row = 0; row < rows; ++row) {
    const int64_t time_us = first_us + row * interval_us;
    if (total_samples_ < cap) {
      time_us_.push_back(time_us);
    } else {
      time_us_[static_cast<size_t>(total_samples_ % cap)] = time_us;
    }
    ++total_samples_;
  }
  prev_time_us_ = first_us + (rows - 1) * interval_us;
  next_due_us_ = prev_time_us_ + interval_us;
}

size_t TimeSeriesRecorder::retained_samples() const { return time_us_.size(); }

size_t TimeSeriesRecorder::RingStart() const {
  const size_t cap = config_.max_samples;
  if (static_cast<size_t>(total_samples_) <= cap) {
    return 0;
  }
  return static_cast<size_t>(total_samples_ % static_cast<int64_t>(cap));
}

void TimeSeriesRecorder::WriteSummaryJson(JsonWriter& json) const {
  // Name-sorted view for deterministic serialization regardless of wiring
  // order.
  std::vector<const Series*> sorted;
  sorted.reserve(series_.size());
  for (const Series& series : series_) {
    sorted.push_back(&series);
  }
  std::sort(sorted.begin(), sorted.end(),
            [](const Series* a, const Series* b) { return a->name < b->name; });

  json.BeginObject();
  json.Key("interval_s");
  json.Double(config_.interval.seconds());
  json.Key("total_samples");
  json.Int(total_samples_);
  json.Key("series");
  json.BeginObject();
  for (const Series* series : sorted) {
    json.Key(series->name);
    json.BeginObject();
    json.Key("min");
    json.Double(total_samples_ > 0 ? series->min : 0.0);
    json.Key("max");
    json.Double(total_samples_ > 0 ? series->max : 0.0);
    json.Key("last");
    json.Double(total_samples_ > 0 ? series->last : 0.0);
    json.Key("largest_delta");
    json.BeginObject();
    json.Key("delta");
    json.Double(series->largest_delta);
    json.Key("from_s");
    json.Double(series->delta_from_s);
    json.Key("to_s");
    json.Double(series->delta_to_s);
    json.EndObject();
    json.EndObject();
  }
  json.EndObject();
  json.EndObject();
}

void TimeSeriesRecorder::WriteJson(JsonWriter& json) const {
  std::vector<const Series*> sorted;
  sorted.reserve(series_.size());
  for (const Series& series : series_) {
    sorted.push_back(&series);
  }
  std::sort(sorted.begin(), sorted.end(),
            [](const Series* a, const Series* b) { return a->name < b->name; });

  const size_t retained = retained_samples();
  const size_t start = RingStart();
  const size_t cap = config_.max_samples;

  json.BeginObject();
  json.Key("interval_s");
  json.Double(config_.interval.seconds());
  json.Key("max_samples");
  json.Int(static_cast<int64_t>(config_.max_samples));
  json.Key("total_samples");
  json.Int(total_samples_);
  json.Key("retained_samples");
  json.Int(static_cast<int64_t>(retained));
  json.Key("time_s");
  json.BeginArray();
  for (size_t i = 0; i < retained; ++i) {
    json.Double(static_cast<double>(time_us_[(start + i) % cap]) / 1e6);
  }
  json.EndArray();
  json.Key("series");
  json.BeginObject();
  for (const Series* series : sorted) {
    json.Key(series->name);
    json.BeginArray();
    for (const Run& run : series->runs) {
      for (int64_t i = 0; i < run.count; ++i) {
        json.Double(run.value);
      }
    }
    json.EndArray();
  }
  json.EndObject();
  json.Key("summary");
  WriteSummaryJson(json);
  json.EndObject();
}

bool TimeSeriesRecorder::WriteTo(const std::string& path) const {
  const std::filesystem::path fs_path(path);
  if (fs_path.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(fs_path.parent_path(), ec);
    // A pre-existing directory is fine; only the fopen below decides failure.
  }
  JsonWriter json;
  WriteJson(json);
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  const std::string& text = json.str();
  const size_t written = std::fwrite(text.data(), 1, text.size(), out);
  const bool ok = std::fclose(out) == 0 && written == text.size();
  return ok;
}

}  // namespace spotcheck
