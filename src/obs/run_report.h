// Per-evaluation-cell run report.
//
// One RunReport captures everything a single evaluation cell observed: every
// instrument of its MetricsRegistry, the controller's structured event
// timeline, TraceCatalog hit/miss diagnostics, and a flat summary of the
// cell's configuration and headline results. Serialized as one
// `run_report.json` per cell (see --run-report-dir on the figure benches),
// it is the substrate for answering "which subsystem produced this number"
// without rerunning the simulation.
//
// This module deliberately depends only on src/common, so spotcheck_obs can
// sit underneath every other library: the core layer installs the function
// that renders its typed ControllerEventLog into the generic RunReportEvent
// rows below, and the rows become text only when something reads them.

#ifndef SRC_OBS_RUN_REPORT_H_
#define SRC_OBS_RUN_REPORT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/metrics.h"

namespace spotcheck {

class EventCostProfiler;
class SpanTracer;
class TimeSeriesRecorder;

// Version of the run_report.json / grid_summary.json document shape. Bump
// when a section is added, removed, or restructured. History:
//   1 (implicit; documents without the field): label/policy_spec/summary/
//     chaos/trace_catalog/trace_summary/metrics/events (run_report) and
//     num_cells/cells/chaos/totals/policies/per_market/contention/
//     slowest_evacuations (grid_summary).
//   2: adds "schema_version" itself, the "profile" (event-cost profiler)
//     and "timeseries" (telemetry summary) sections to run_report, and the
//     "hotspots" roll-up to grid_summary.
inline constexpr int kRunReportSchemaVersion = 2;

// One timeline row (a controller decision or an injected fault), as text.
struct RunReportEvent {
  double time_s = 0.0;
  std::string kind;
  std::string vm;      // empty when host-scoped
  std::string host;    // empty when not applicable
  std::string market;
  std::string detail;
};

struct RunReport {
  // Cell identity, e.g. "1P-M/spotcheck-lazy-restore"; set by the runner.
  std::string label;
  // The resolved policy spec the cell ran, e.g. "bid=on-demand,map=1p-m";
  // set by the runner. Grid summaries group cells by this string.
  std::string policy_spec;
  // Flat (name, value) summary of the cell's config and EvaluationResult
  // fields, in insertion order. Doubles carry ints exactly up to 2^53,
  // far beyond any counter this simulator produces.
  std::vector<std::pair<std::string, double>> summary;
  // The cell's full metrics registry (shared with the finished simulation).
  std::shared_ptr<const MetricsRegistry> metrics;
  // Renders the cell's event timeline, in time order, on each call. It keeps
  // no state between calls, so concurrent readers are safe. Null when the
  // report carries no timeline.
  std::function<std::vector<RunReportEvent>()> render_events;
  // TraceCatalog diagnostics (scheduling-order dependent under concurrency).
  int64_t trace_cache_hits = 0;
  int64_t trace_cache_misses = 0;
  // The cell's span tracer, when tracing was enabled (null otherwise). The
  // report embeds its TraceAnalyzer summary, not the raw spans -- the full
  // trace ships separately as trace.json.
  std::shared_ptr<const SpanTracer> trace;
  // Chaos provenance: soak artifacts must be self-describing, so a report
  // produced under fault injection records which preset ladder rung and
  // schedule seed shaped it.
  bool chaos_active = false;
  int chaos_level = 0;
  uint64_t chaos_seed = 0;
  // The cell's event-cost profile (null unless profiling was enabled);
  // serialized as the "profile" section.
  std::shared_ptr<const EventCostProfiler> profile;
  // The cell's telemetry recorder (null unless time-series collection was
  // enabled). The report embeds its compact summary, not the columnar
  // rings -- the full series ships separately as timeseries.json.
  std::shared_ptr<const TimeSeriesRecorder> timeseries;

  void AddSummary(std::string name, double value) {
    summary.emplace_back(std::move(name), value);
  }

  // The rendered timeline; empty when render_events is null.
  std::vector<RunReportEvent> Events() const {
    return render_events ? render_events() : std::vector<RunReportEvent>{};
  }

  // {"schema_version": 2, "label": ..., "policy_spec": ..., "summary": {...},
  //  "chaos": {...}, "trace_catalog": {...}, "trace_summary": {...}|null,
  //  "profile": {...}|null, "timeseries": {...}|null, "metrics": {...},
  //  "events": [...]}
  std::string ToJson() const;

  // Writes ToJson() to `path` (creating parent directories); false on I/O
  // error. The report is an observability artifact: callers should report
  // failures without aborting the run.
  bool WriteTo(const std::string& path) const;
};

}  // namespace spotcheck

#endif  // SRC_OBS_RUN_REPORT_H_
