#include "src/obs/profiler.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "src/obs/json.h"
#include "tests/json_test_util.h"

namespace spotcheck {
namespace {

using testjson::JsonValue;
using testjson::ParseJson;

TEST(EventCostProfilerTest, CountsEveryOccurrenceExactly) {
  EventCostProfiler profiler;
  for (int i = 0; i < 1000; ++i) {
    if (profiler.Begin(ProfileCategory::kDispatchCallback)) {
      profiler.End(ProfileCategory::kDispatchCallback, 10);
    }
  }
  EXPECT_EQ(profiler.stats(ProfileCategory::kDispatchCallback).count, 1000);
}

TEST(EventCostProfilerTest, SampledCategoryTimesOneInN) {
  ProfilerConfig config;
  config.sample_interval = 64;
  EventCostProfiler profiler(config);
  int timed = 0;
  for (int i = 0; i < 64 * 100; ++i) {
    if (profiler.Begin(ProfileCategory::kDispatchStream)) {
      ++timed;
      profiler.End(ProfileCategory::kDispatchStream, 5);
    }
  }
  // Exactly 1 in 64 after the seeded phase offset: 100 samples over 6400
  // occurrences (the phase can shift which occurrences, never how many,
  // by more than one).
  EXPECT_GE(timed, 99);
  EXPECT_LE(timed, 101);
  EXPECT_EQ(profiler.stats(ProfileCategory::kDispatchStream).timed, timed);
  EXPECT_EQ(profiler.stats(ProfileCategory::kDispatchStream).total_ns,
            static_cast<uint64_t>(timed) * 5u);
}

TEST(EventCostProfilerTest, SamplingIsDeterministicInTheSeed) {
  // Same seed => the same occurrence indices are timed; a different seed
  // shifts the phase.
  auto timed_indices = [](uint64_t seed) {
    ProfilerConfig config;
    config.sample_interval = 16;
    config.seed = seed;
    EventCostProfiler profiler(config);
    std::vector<int> indices;
    for (int i = 0; i < 200; ++i) {
      if (profiler.Begin(ProfileCategory::kPoolCapacityIndex)) {
        indices.push_back(i);
        profiler.End(ProfileCategory::kPoolCapacityIndex, 1);
      }
    }
    return indices;
  };
  EXPECT_EQ(timed_indices(7), timed_indices(7));
  EXPECT_NE(timed_indices(7), timed_indices(8));
}

TEST(EventCostProfilerTest, DifferentCategoriesGetDifferentPhases) {
  // The per-category stagger: with one seed, at most a few of the
  // categories may share a first-timed index.
  ProfilerConfig config;
  config.sample_interval = 64;
  config.seed = 3;
  EventCostProfiler profiler(config);
  std::set<int> first_timed;
  for (size_t c = 0; c < kNumProfileCategories; ++c) {
    const auto category = static_cast<ProfileCategory>(c);
    EventCostProfiler p(config);
    for (int i = 0; i < 64; ++i) {
      if (p.Begin(category)) {
        first_timed.insert(i);
        break;
      }
    }
  }
  EXPECT_GT(first_timed.size(), 1u);
}

// A profiler that times every occurrence.
ProfilerConfig TimeEveryOccurrence() {
  ProfilerConfig config;
  config.sample_interval = 1;
  return config;
}

TEST(EventCostProfilerTest, MaxTracksTheLargestTimedOccurrence) {
  EventCostProfiler profiler(TimeEveryOccurrence());
  ASSERT_TRUE(profiler.Begin(ProfileCategory::kBackupAssign));
  profiler.End(ProfileCategory::kBackupAssign, 50);
  ASSERT_TRUE(profiler.Begin(ProfileCategory::kBackupAssign));
  profiler.End(ProfileCategory::kBackupAssign, 500);
  ASSERT_TRUE(profiler.Begin(ProfileCategory::kBackupAssign));
  profiler.End(ProfileCategory::kBackupAssign, 5);
  EXPECT_EQ(profiler.stats(ProfileCategory::kBackupAssign).max_ns, 500u);
}

TEST(EventCostProfilerTest, StructuralCountersAccumulate) {
  EventCostProfiler profiler;
  profiler.Add(ProfileStat::kIndexInserts);
  profiler.Add(ProfileStat::kIndexInserts, 41);
  profiler.Add(ProfileStat::kOverflowSpills, 7);
  EXPECT_EQ(profiler.stat(ProfileStat::kIndexInserts), 42);
  EXPECT_EQ(profiler.stat(ProfileStat::kOverflowSpills), 7);
  EXPECT_EQ(profiler.stat(ProfileStat::kBackupProbes), 0);
}

TEST(EventCostProfilerTest, NullTolerantHelpersAreNoOps) {
  ProfileAdd(nullptr, ProfileStat::kIndexInserts, 5);
  { ProfileScope scope(nullptr, ProfileCategory::kPoolPendingJoin); }
  // With a real profiler, the helpers hit it.
  EventCostProfiler profiler(TimeEveryOccurrence());
  ProfileAdd(&profiler, ProfileStat::kIndexErases, 3);
  { ProfileScope scope(&profiler, ProfileCategory::kPoolPendingJoin); }
  EXPECT_EQ(profiler.stat(ProfileStat::kIndexErases), 3);
  EXPECT_EQ(profiler.stats(ProfileCategory::kPoolPendingJoin).count, 1);
  EXPECT_EQ(profiler.stats(ProfileCategory::kPoolPendingJoin).timed, 1);
}

TEST(EventCostProfilerTest, MergeSumsCountsAndKeepsMaxima) {
  EventCostProfiler a(TimeEveryOccurrence());
  ASSERT_TRUE(a.Begin(ProfileCategory::kBackupAssign));
  a.End(ProfileCategory::kBackupAssign, 100);
  a.Add(ProfileStat::kIndexInserts, 10);

  EventCostProfiler b(TimeEveryOccurrence());
  ASSERT_TRUE(b.Begin(ProfileCategory::kBackupAssign));
  b.End(ProfileCategory::kBackupAssign, 300);
  b.Add(ProfileStat::kIndexInserts, 5);

  a.MergeFrom(b);
  EXPECT_EQ(a.stats(ProfileCategory::kBackupAssign).count, 2);
  EXPECT_EQ(a.stats(ProfileCategory::kBackupAssign).timed, 2);
  EXPECT_EQ(a.stats(ProfileCategory::kBackupAssign).total_ns, 400u);
  EXPECT_EQ(a.stats(ProfileCategory::kBackupAssign).max_ns, 300u);
  EXPECT_EQ(a.stat(ProfileStat::kIndexInserts), 15);
}

TEST(EventCostProfilerTest, JsonListsEveryCategoryAndCounter) {
  EventCostProfiler profiler(TimeEveryOccurrence());
  ASSERT_TRUE(profiler.Begin(ProfileCategory::kPoolPendingJoin));
  profiler.End(ProfileCategory::kPoolPendingJoin, 250);
  profiler.Add(ProfileStat::kBackupProbes, 2);

  JsonWriter json;
  profiler.WriteJson(json);
  JsonValue doc;
  ASSERT_TRUE(ParseJson(json.str(), &doc)) << json.str();

  const JsonValue* categories = doc.Find("categories");
  ASSERT_NE(categories, nullptr);
  EXPECT_EQ(categories->object.size(), kNumProfileCategories);
  const JsonValue* join = categories->Find("pool_pending_join");
  ASSERT_NE(join, nullptr);
  EXPECT_DOUBLE_EQ(join->Find("count")->number, 1.0);
  EXPECT_DOUBLE_EQ(join->Find("total_ns")->number, 250.0);
  EXPECT_DOUBLE_EQ(join->Find("mean_ns")->number, 250.0);
  EXPECT_DOUBLE_EQ(join->Find("est_total_ns")->number, 250.0);

  const JsonValue* counters = doc.Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->object.size(), kNumProfileStats);
  EXPECT_DOUBLE_EQ(counters->Find("backup_probes")->number, 2.0);
  // Untouched entries are present with zeros (stable schema).
  EXPECT_DOUBLE_EQ(counters->Find("overflow_spills")->number, 0.0);
}

TEST(EventCostProfilerTest, EveryNameIsNonEmptyAndUnique) {
  std::set<std::string_view> names;
  for (size_t c = 0; c < kNumProfileCategories; ++c) {
    const std::string_view name =
        ProfileCategoryName(static_cast<ProfileCategory>(c));
    EXPECT_FALSE(name.empty());
    EXPECT_TRUE(names.insert(name).second) << name;
  }
  for (size_t s = 0; s < kNumProfileStats; ++s) {
    const std::string_view name = ProfileStatName(static_cast<ProfileStat>(s));
    EXPECT_FALSE(name.empty());
    EXPECT_TRUE(names.insert(name).second) << name;
  }
}

}  // namespace
}  // namespace spotcheck
