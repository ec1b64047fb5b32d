// Grid-level aggregation over per-cell run reports.
//
// RunPolicyEvaluationGrid produces one RunReport per cell; a bench sweeping
// a 5x5 policy/mechanism grid therefore scatters 25 run_report.json files.
// This module folds them into a single `grid_summary.json`: cell labels,
// summed result totals, per-market lifecycle-event breakdowns, and the
// slowest evacuations observed anywhere in the grid. Like the rest of
// spotcheck_obs it depends on nothing above src/common.

#ifndef SRC_OBS_GRID_SUMMARY_H_
#define SRC_OBS_GRID_SUMMARY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/obs/run_report.h"

namespace spotcheck {

// Per-worker contention breakdown for one RunPolicyEvaluationGrid call.
// Filled by the grid runner (src/core/parallel_evaluation), consumed by the
// "workers" section of grid_summary.json. All times are wall clock and
// purely observational -- nothing here feeds simulation state.
struct GridWorkerProfile {
  int worker = 0;
  int64_t cells = 0;            // grid cells this worker ran
  int64_t busy_ns = 0;          // wall time inside RunPolicyEvaluation
  int64_t report_build_ns = 0;  // of busy_ns: building the cells' RunReports
                                // (their timelines render only when read)
  int64_t catalog_hits = 0;     // TraceCatalog fetches served from cache
  int64_t catalog_misses = 0;   // fetches that generated a trace
  int64_t catalog_lock_wait_ns = 0;  // blocked on the shared TraceCatalog
};

// Whole-grid contention report: the per-worker profiles plus the shared
// one-time costs the pool paid before/after the workers ran.
struct GridContentionReport {
  std::vector<GridWorkerProfile> workers;
  int64_t prewarm_traces = 0;     // traces generated by the pre-warm pass
  int64_t prewarm_ns = 0;         // wall time of the pre-warm pass
  int64_t tracer_merge_ns = 0;    // post-join merge of worker-profile spans
  int64_t total_ns = 0;           // wall time of the whole grid call
};

// Builds the grid_summary.json document from every non-null report. Cells
// appear in the given order; totals/markets are key-sorted; the slowest-
// evacuation list is capped at `max_slowest` entries. `contention`, when
// non-null, adds the per-worker breakdown section.
std::string BuildGridSummaryJson(
    const std::vector<std::shared_ptr<const RunReport>>& reports,
    size_t max_slowest = 10, const GridContentionReport* contention = nullptr);

// Writes BuildGridSummaryJson() to `path` (creating parent directories);
// false on I/O error.
bool WriteGridSummary(
    const std::string& path,
    const std::vector<std::shared_ptr<const RunReport>>& reports,
    size_t max_slowest = 10, const GridContentionReport* contention = nullptr);

}  // namespace spotcheck

#endif  // SRC_OBS_GRID_SUMMARY_H_
