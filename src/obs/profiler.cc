#include "src/obs/profiler.h"

#include "src/obs/json.h"

namespace spotcheck {

std::string_view ProfileCategoryName(ProfileCategory c) {
  switch (c) {
    case ProfileCategory::kDispatchStream:
      return "dispatch_stream";
    case ProfileCategory::kDispatchCallback:
      return "dispatch_callback";
    case ProfileCategory::kDispatchPeriodic:
      return "dispatch_periodic";
    case ProfileCategory::kCalendarWrap:
      return "calendar_wrap";
    case ProfileCategory::kLazyBucketSort:
      return "lazy_bucket_sort";
    case ProfileCategory::kPoolCapacityIndex:
      return "pool_capacity_index";
    case ProfileCategory::kPoolPlaceableIndex:
      return "pool_placeable_index";
    case ProfileCategory::kPoolPendingJoin:
      return "pool_pending_join";
    case ProfileCategory::kBackupAssign:
      return "backup_assign";
  }
  return "unknown";
}

std::string_view ProfileStatName(ProfileStat s) {
  switch (s) {
    case ProfileStat::kOverflowSpills:
      return "overflow_spills";
    case ProfileStat::kBucketDegrades:
      return "bucket_degrades";
    case ProfileStat::kLazySortedEvents:
      return "lazy_sorted_events";
    case ProfileStat::kIndexInserts:
      return "index_inserts";
    case ProfileStat::kIndexErases:
      return "index_erases";
    case ProfileStat::kBackupProbes:
      return "backup_probes";
  }
  return "unknown";
}

EventCostProfiler::EventCostProfiler(ProfilerConfig config) : config_(config) {
  if (config_.sample_interval < 1) {
    config_.sample_interval = 1;
  }
  // Deterministic per-category phase: category i's first timed occurrence is
  // the ((seed + i) mod N + 1)-th, so categories with the same event cadence
  // do not all sample the same occurrence and a different seed shifts the
  // whole timed subset.
  for (size_t i = 0; i < kNumProfileCategories; ++i) {
    countdown_[i] = static_cast<int64_t>(
                        (config_.seed + i) %
                        static_cast<uint64_t>(config_.sample_interval)) +
                    1;
  }
}

void EventCostProfiler::MergeFrom(const EventCostProfiler& other) {
  for (size_t i = 0; i < kNumProfileCategories; ++i) {
    CategoryStats& into = categories_[i];
    const CategoryStats& from = other.categories_[i];
    into.count += from.count;
    into.timed += from.timed;
    into.total_ns += from.total_ns;
    if (from.max_ns > into.max_ns) {
      into.max_ns = from.max_ns;
    }
  }
  for (size_t i = 0; i < kNumProfileStats; ++i) {
    stats_[i] += other.stats_[i];
  }
}

void EventCostProfiler::WriteJson(JsonWriter& json) const {
  json.BeginObject();
  json.Key("sample_interval");
  json.Int(config_.sample_interval);
  json.Key("categories");
  json.BeginObject();
  for (size_t i = 0; i < kNumProfileCategories; ++i) {
    const CategoryStats& s = categories_[i];
    json.Key(ProfileCategoryName(static_cast<ProfileCategory>(i)));
    json.BeginObject();
    json.Key("count");
    json.Int(s.count);
    json.Key("timed");
    json.Int(s.timed);
    json.Key("total_ns");
    json.Uint(s.total_ns);
    json.Key("max_ns");
    json.Uint(s.max_ns);
    const double mean_ns =
        s.timed > 0 ? static_cast<double>(s.total_ns) /
                          static_cast<double>(s.timed)
                    : 0.0;
    json.Key("mean_ns");
    json.Double(mean_ns);
    // Extrapolation over the exact count: the headline attribution number.
    json.Key("est_total_ns");
    json.Double(mean_ns * static_cast<double>(s.count));
    json.EndObject();
  }
  json.EndObject();
  json.Key("counters");
  json.BeginObject();
  for (size_t i = 0; i < kNumProfileStats; ++i) {
    json.Key(ProfileStatName(static_cast<ProfileStat>(i)));
    json.Int(stats_[i]);
  }
  json.EndObject();
  json.EndObject();
}

}  // namespace spotcheck
