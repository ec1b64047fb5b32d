// Flight-recorder bit-identity + overhead contract.
//
// The TimeSeriesRecorder and EventCostProfiler promise zero behavioral
// footprint: numeric results must be bitwise equal with the instruments on,
// off, or absent, at any worker count. The recorder is driven from the
// dispatch loop (never via scheduled events), so turning it on cannot shift
// same-timestamp interleaving; the profiler only reads wall clocks. This
// suite is the enforcement: a hook that ever touches sim state breaks here.
//
// The second contract is cost: profiling a full six-month evaluation cell
// (the BM_SixMonthPolicyEvaluation shape) must stay within 5% of the
// uninstrumented run. Checked with interleaved min-of-N wall times in
// release builds only -- sanitizers distort relative cost too much to gate.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/evaluation.h"
#include "src/core/parallel_evaluation.h"
#include "src/obs/metrics.h"
#include "src/policy/policy_spec.h"

namespace spotcheck {
namespace {

std::string Num(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

// Every deterministic result field at full precision (the grid_jobs_sweep
// serialization); trace-catalog counters are scheduling-dependent and
// excluded.
std::string Serialize(const std::vector<EvaluationResult>& results) {
  std::ostringstream out;
  for (const EvaluationResult& r : results) {
    out << Num(r.avg_cost_per_vm_hour) << ';' << Num(r.unavailability_pct)
        << ';' << Num(r.degradation_pct) << ';' << Num(r.storms.quarter) << ';'
        << Num(r.storms.half) << ';' << Num(r.storms.three_quarters) << ';'
        << Num(r.storms.all) << ';' << r.revocation_events << ';'
        << r.evacuations << ';' << r.repatriations << ';'
        << r.failed_migrations << ';' << r.stagings << ';'
        << r.stateless_respawns << ';' << r.num_backup_servers << ';'
        << Num(r.native_cost) << ';' << Num(r.backup_cost) << ';'
        << Num(r.vm_hours) << '\n';
  }
  return out.str();
}

std::vector<EvaluationConfig> SmallGrid(bool flight_recorder) {
  std::vector<EvaluationConfig> configs;
  for (const char* policy : {"map=1p-m", "map=4p-ed"}) {
    for (MigrationMechanism mechanism :
         {MigrationMechanism::kSpotCheckFullRestore,
          MigrationMechanism::kSpotCheckLazyRestore}) {
      EvaluationConfig config;
      config.policy_spec = ParsePolicySpecOrExit(policy);
      config.mechanism = mechanism;
      config.num_vms = 24;
      config.horizon = SimDuration::Days(30);
      config.seed = 2;
      config.collect_timeseries = flight_recorder;
      config.collect_profile = flight_recorder;
      configs.push_back(config);
    }
  }
  return configs;
}

TEST(TelemetryDeterminismTest, ResultsBitIdenticalWithRecorderOnOffAcrossJobs) {
  // Baseline: instruments absent (null pointers throughout), one worker.
  const std::string baseline =
      Serialize(RunPolicyEvaluationGrid(SmallGrid(false), 1));
  for (const int jobs : {1, 2, 8}) {
    SCOPED_TRACE("jobs " + std::to_string(jobs));
    EXPECT_EQ(baseline,
              Serialize(RunPolicyEvaluationGrid(SmallGrid(false), jobs)))
        << "recorder OFF changed a result at jobs=" << jobs;
    EXPECT_EQ(baseline,
              Serialize(RunPolicyEvaluationGrid(SmallGrid(true), jobs)))
        << "recorder ON changed a result at jobs=" << jobs;
  }
}

TEST(TelemetryDeterminismTest, RecorderAttachesAndSamples) {
  EvaluationConfig config;
  config.policy_spec = ParsePolicySpecOrExit("map=4p-ed");
  config.mechanism = MigrationMechanism::kSpotCheckLazyRestore;
  config.num_vms = 8;
  config.horizon = SimDuration::Days(10);
  config.seed = 2;
  config.collect_timeseries = true;
  config.collect_profile = true;
  const EvaluationResult result = RunPolicyEvaluation(config);

  ASSERT_NE(result.timeseries, nullptr);
  // 10 days at the default hourly interval: every boundary from 0 to the
  // horizon.
  EXPECT_GT(result.timeseries->total_samples(), 100);
  // All four telemetry providers registered: fleet states (controller),
  // pool gauges, kernel queue gauges, markets, process RSS.
  EXPECT_GT(result.timeseries->num_series(), 10u);

  ASSERT_NE(result.profile, nullptr);
  // Every executed event lands in exactly one dispatch category.
  const int64_t dispatched =
      result.profile->stats(ProfileCategory::kDispatchStream).count +
      result.profile->stats(ProfileCategory::kDispatchCallback).count +
      result.profile->stats(ProfileCategory::kDispatchPeriodic).count;
  EXPECT_GT(dispatched, 0);

  ASSERT_NE(result.report, nullptr);
  ASSERT_NE(result.report->metrics, nullptr);
  const MetricCounter* fired =
      result.report->metrics->FindCounter("sim.events_fired");
  ASSERT_NE(fired, nullptr);
  EXPECT_EQ(dispatched, fired->value());
  EXPECT_EQ(result.report->profile, result.profile);
  EXPECT_EQ(result.report->timeseries, result.timeseries);
}

TEST(TelemetryDeterminismTest, DisabledConfigLeavesInstrumentsNull) {
  EvaluationConfig config;
  config.num_vms = 4;
  config.horizon = SimDuration::Days(3);
  config.seed = 2;
  const EvaluationResult result = RunPolicyEvaluation(config);
  EXPECT_EQ(result.profile, nullptr);
  EXPECT_EQ(result.timeseries, nullptr);
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

double RunOnceSeconds(bool profiler, bool timeseries) {
  // The BM_SixMonthPolicyEvaluation shape: one full-length figure cell.
  EvaluationConfig config;
  config.policy_spec = ParsePolicySpecOrExit("map=4p-ed");
  config.mechanism = MigrationMechanism::kSpotCheckLazyRestore;
  config.num_vms = 40;
  config.horizon = SimDuration::Days(180);
  config.seed = 2;
  config.collect_profile = profiler;
  config.collect_timeseries = timeseries;
  const auto start = std::chrono::steady_clock::now();
  const EvaluationResult result = RunPolicyEvaluation(config);
  const double seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(
          std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_GT(result.vm_hours, 0.0);
  return seconds;
}

// Interleaved min-of-3 pairs absorb one-off scheduler noise; a busy runner
// can still produce a bad ratio, so the whole measurement retries before
// failing (a real regression fails every attempt).
double MeasuredRatio(bool profiler, bool timeseries, double budget) {
  double ratio = 0.0;
  for (int attempt = 0; attempt < 3; ++attempt) {
    double off = 1e300;
    double on = 1e300;
    for (int i = 0; i < 3; ++i) {
      off = std::min(off, RunOnceSeconds(false, false));
      on = std::min(on, RunOnceSeconds(profiler, timeseries));
    }
    ratio = on / off;
    if (ratio <= budget) {
      break;
    }
  }
  return ratio;
}

TEST(TelemetryDeterminismTest, ProfilerOverheadStaysWithinFivePercent) {
  if (kSanitized) {
    GTEST_SKIP() << "wall-clock overhead is not meaningful under sanitizers";
  }
#ifndef NDEBUG
  GTEST_SKIP() << "overhead contract is gated on optimized builds";
#endif
  EXPECT_LE(MeasuredRatio(/*profiler=*/true, /*timeseries=*/false, 1.05), 1.05)
      << "profiler costs more than 5% on a six-month cell";
}

TEST(TelemetryDeterminismTest, FullFlightRecorderOverheadStaysModest) {
  if (kSanitized) {
    GTEST_SKIP() << "wall-clock overhead is not meaningful under sanitizers";
  }
#ifndef NDEBUG
  GTEST_SKIP() << "overhead contract is gated on optimized builds";
#endif
  // Recorder + profiler together: hourly sampling of ~15 series costs more
  // than the profiler's counters but must stay a small fraction of the run.
  EXPECT_LE(MeasuredRatio(/*profiler=*/true, /*timeseries=*/true, 1.15), 1.15)
      << "flight recorder (profiler + timeseries) costs more than 15%";
}

}  // namespace
}  // namespace spotcheck
