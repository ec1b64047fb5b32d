// Sim-time telemetry time-series: fixed-interval sampling of registered
// gauges into a bounded columnar store.
//
// MetricGauge keeps min/max/last of a value but discards its trajectory; for
// diagnosing fleet-scale behavior (placement bursts, evacuation storms,
// queue-depth ramps) the *shape over sim time* is the signal. A
// TimeSeriesRecorder holds named sampler callbacks and, at every boundary
// of a TimeSeriesConfig::interval grid of simulated time, evaluates all of
// them into a shared time column plus one value store per series
// (oldest-first eviction once max_samples is reached, running summaries
// over ALL samples). Each sample is stamped with its boundary and holds the
// state at that instant: the state every event at or before the boundary
// left. A series stores its retained samples as runs of bitwise-identical
// values: most gauges hold still for hours, so a series holds far fewer
// runs than samples, and the one read of a catch-up (below) is one run
// however many boundaries it covers.
//
// Contract (same as MetricsRegistry/SpanTracer/EventCostProfiler):
//   * Zero behavioral footprint: the recorder is driven from the simulator's
//     dispatch loop (one integer compare per event: boundaries before an
//     event are sampled before it runs, and those a run ends on after it),
//     NOT via scheduled events -- a sampling event would consume seq
//     numbers and shift same-timestamp interleaving, breaking golden-CSV
//     bit-identity. Sampling boundaries itself, the recorder needs no
//     event near each boundary: quiet stretches are sampled too.
//     Samplers only read simulation state (or wall-side process facts like
//     RSS); they never mutate it.
//   * Per-cell isolation: one recorder per evaluation cell; no atomics.
//   * Null-tolerant: the simulator keeps a nullable pointer; recorder
//     absent costs one predicted branch per event.

#ifndef SRC_OBS_TIMESERIES_H_
#define SRC_OBS_TIMESERIES_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "src/common/time.h"

namespace spotcheck {

class JsonWriter;

struct TimeSeriesConfig {
  // Simulated time between samples. Hourly => 4320 samples over a six-month
  // horizon (the newest max_samples are retained) -- enough to see every
  // ramp and storm, and cheap enough (samples x series sampler calls) that
  // the flight recorder stays inside its 15% overhead budget.
  SimDuration interval = SimDuration::Hours(1);
  // Samples retained per series (shared time column included). Summaries
  // (min/max/last, largest delta) always cover every sample ever taken.
  size_t max_samples = 4096;
};

class TimeSeriesRecorder {
 public:
  using SampleFn = std::function<double()>;

  explicit TimeSeriesRecorder(TimeSeriesConfig config = {});
  TimeSeriesRecorder(const TimeSeriesRecorder&) = delete;
  TimeSeriesRecorder& operator=(const TimeSeriesRecorder&) = delete;

  // Registers a gauge. `sampler` must outlive the recorder's last Sample()
  // and must be a pure read of observable state. Registration order is the
  // caller's wiring order; serialization sorts by name.
  void AddSeries(std::string name, SampleFn sampler);

  // Hot-path hooks. The boundaries are 0, interval, 2 * interval, ... (a
  // forced Sample restarts the grid at its time). SampleIfDue samples every
  // boundary at or before `now` not yet sampled, each stamped with its
  // boundary: call it once every event at or before `now` has run.
  // SampleBefore samples those strictly before `t`: call it before an
  // event at `t` runs. No event runs between the boundaries one call
  // catches up on, so the samplers are read once per call and that row is
  // recorded at each of them (one run per series).
  void SampleIfDue(SimTime now) {
    if (now.micros() >= next_due_us_) {
      SampleThrough(now.micros());
    }
  }
  void SampleBefore(SimTime t) {
    if (t.micros() > next_due_us_) {
      SampleThrough(t.micros() - 1);
    }
  }
  // Forced sample at `now`; a no-op when the last sample was taken at
  // `now`.
  void Sample(SimTime now);

  size_t num_series() const { return series_.size(); }
  int64_t total_samples() const { return total_samples_; }
  size_t retained_samples() const;

  // Full columnar document: {"interval_s", "max_samples", "total_samples",
  // "retained_samples", "time_s": [...], "series": {name: [...]},
  // "summary": <WriteSummaryJson value>}.
  void WriteJson(JsonWriter& json) const;
  // Compact per-series summary for run_report.json: {name: {min, max, last,
  // largest_delta: {delta, from_s, to_s}}} under "series", plus sampling
  // facts. The largest-delta window names the sim-time interval where the
  // series moved the most between consecutive samples -- the "when did it
  // blow up" pointer.
  void WriteSummaryJson(JsonWriter& json) const;
  // Writes the full document to `path`; false on I/O failure.
  bool WriteTo(const std::string& path) const;

 private:
  // `count` consecutive samples of `value`.
  struct Run {
    double value = 0.0;
    int64_t count = 0;
  };
  struct Series {
    std::string name;
    SampleFn sampler;
    // The retained samples, oldest first; the counts sum to
    // retained_samples(). Adjacent runs differ bitwise.
    std::deque<Run> runs;
    double reading = 0.0;  // the sampler's value at the latest read
    // Running summary over ALL samples, not just the retained ones.
    double min = 0.0;
    double max = 0.0;
    double last = 0.0;
    double prev = 0.0;
    double largest_delta = 0.0;  // max |v[i] - v[i-1]|
    double delta_from_s = 0.0;
    double delta_to_s = 0.0;
  };

  // Samples each due boundary up to `limit_us`.
  void SampleThrough(int64_t limit_us);
  // Stores every sampler's current value in its series' `reading`.
  void ReadSamplers();
  // Records the readings as the samples at `rows` boundaries, the first at
  // `first_us` and the rest one interval apart.
  void AppendRows(int64_t first_us, int64_t rows);
  // Chronological order of the time ring: element i of the returned
  // sequence lives at index (start + i) % capacity.
  size_t RingStart() const;

  TimeSeriesConfig config_;
  std::vector<Series> series_;
  std::vector<int64_t> time_us_;  // shared time column (ring)
  int64_t total_samples_ = 0;
  int64_t prev_time_us_ = 0;
  int64_t next_due_us_ = 0;  // the next boundary to sample
};

}  // namespace spotcheck

#endif  // SRC_OBS_TIMESERIES_H_
