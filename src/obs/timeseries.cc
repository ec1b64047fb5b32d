#include "src/obs/timeseries.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <system_error>
#include <utility>

#include "src/obs/json.h"

namespace spotcheck {

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
  series.ring.reserve(std::min<size_t>(config_.max_samples, 256));
  // Late registration would leave this ring shorter than the time column;
  // keep them aligned by back-filling the samples it missed as its first
  // reading would not be meaningful anyway. In practice all series are
  // registered before the first event runs, so this stays empty.
  series.ring.resize(retained_samples(), 0.0);
  series_.push_back(std::move(series));
}

void TimeSeriesRecorder::Sample(SimTime now) {
  if (total_samples_ > 0 && now.micros() == prev_time_us_) {
    return;  // this instant is recorded already
  }
  ReadSamplers();
  AppendRow(now.micros());
}

void TimeSeriesRecorder::SampleThrough(int64_t limit_us) {
  // Every boundary up to `limit_us` sees the same state, so one read serves
  // them all.
  ReadSamplers();
  while (next_due_us_ <= limit_us) {
    AppendRow(next_due_us_);
  }
}

void TimeSeriesRecorder::ReadSamplers() {
  for (Series& series : series_) {
    series.reading = series.sampler ? series.sampler() : 0.0;
  }
}

void TimeSeriesRecorder::AppendRow(int64_t time_us) {
  next_due_us_ = time_us + config_.interval.micros();

  const size_t cap = config_.max_samples;
  const size_t write =
      static_cast<size_t>(total_samples_ % static_cast<int64_t>(cap));
  const bool grow = static_cast<size_t>(total_samples_) < cap;

  if (grow) {
    time_us_.push_back(time_us);
  } else {
    time_us_[write] = time_us;
  }

  for (Series& series : series_) {
    const double v = series.reading;
    if (grow) {
      series.ring.push_back(v);
    } else {
      series.ring[write] = v;
    }
    if (total_samples_ == 0) {
      series.min = series.max = v;
    } else {
      series.min = std::min(series.min, v);
      series.max = std::max(series.max, v);
      const double delta = std::abs(v - series.prev);
      if (delta > series.largest_delta) {
        series.largest_delta = delta;
        series.delta_from_s = static_cast<double>(prev_time_us_) / 1e6;
        series.delta_to_s = static_cast<double>(time_us) / 1e6;
      }
    }
    series.prev = v;
    series.last = v;
  }

  prev_time_us_ = time_us;
  ++total_samples_;
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
    for (size_t i = 0; i < retained; ++i) {
      json.Double(series->ring[(start + i) % cap]);
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
