// Sampled event-cost profiler: attributes wall-clock time to kernel and
// controller subsystems without perturbing simulation order.
//
// Why events/s collapsed 206k -> 92k -> 6.1k/s from 10k to 1M VMs was a
// *where does the time go* question, which MetricsRegistry (what happened)
// and SpanTracer (sim-time causality) cannot answer (DESIGN.md §16.5 has the
// answer). EventCostProfiler closes the gap with two instruments:
//
//   * Timed categories: each occurrence of a category is counted exactly;
//     a deterministic 1-in-N subset is additionally timed with
//     std::chrono::steady_clock. count is exact, total_ns/max_ns cover the
//     timed subset, and est_total_ns = mean_ns * count extrapolates.
//   * Structural counters: exact tallies of the churn suspects (per-market
//     index insert/erase traffic, backup probes) that explain *why* a
//     category got slow.
//
// Contract (same as MetricsRegistry/SpanTracer):
//   * Zero behavioral footprint: only wall-clock reads, never sim state, so
//     results are bit-identical with the profiler on, off, or absent.
//     Sampling decisions depend only on (seed, occurrence index), never on
//     measured time, so the timed subset is reproducible too.
//   * Per-cell isolation: one profiler per evaluation cell, no atomics.
//   * Null-tolerant call sites: hook sites keep a nullable pointer; the
//     ProfileAdd/ProfileScope helpers make "profiler absent" one predicted
//     branch.

#ifndef SRC_OBS_PROFILER_H_
#define SRC_OBS_PROFILER_H_

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace spotcheck {

class JsonWriter;

// Where one dispatched event or index maintenance episode spends its
// wall-clock time. Dispatch categories partition RunOne() by the kernel's
// own event taxonomy (callbacks carry no type info beyond this).
enum class ProfileCategory : uint8_t {
  kDispatchStream = 0,   // replay-stream fire (price-trace points)
  kDispatchCallback,     // scheduled callback
  kDispatchPeriodic,     // nothing records it: the kernel has no periodic
                         // events; kept because perfbench reads it
  kCalendarWrap,         // nothing records these two: the calendar queue
  kLazyBucketSort,       // they timed is gone; kept because perfbench reads
                         // them
  kPoolCapacityIndex,    // capacity index maintenance in host_pool
  kPoolPlaceableIndex,   // placeable-subindex refresh in host_pool
  kPoolPendingJoin,      // pending/joinable bookkeeping in host_pool
  kBackupAssign,         // backup-server stream placement (BackupPool)
};
inline constexpr size_t kNumProfileCategories = 9;
std::string_view ProfileCategoryName(ProfileCategory c);

// Exact (never sampled) structural counters: they explain why a category got
// slow, and scripts/check_fleet_scale.py gates on the exact relation the
// backup pool promises.
enum class ProfileStat : uint8_t {
  kOverflowSpills = 0,   // nothing records these three: the calendar queue
  kBucketDegrades,       // they counted is gone; kept because perfbench
  kLazySortedEvents,     // reads them
  kIndexInserts,         // per-market std::set inserts (pool indexes)
  kIndexErases,          // per-market std::set erases (pool indexes)
  kBackupProbes,         // backup servers probed: one per stream assignment
};
inline constexpr size_t kNumProfileStats = 6;
std::string_view ProfileStatName(ProfileStat s);

struct ProfilerConfig {
  // Every category times 1 occurrence in sample_interval. Must be >= 1.
  int64_t sample_interval = 64;
  // Staggers each category's first timed occurrence deterministically so
  // co-periodic work (e.g. a tick every N events) cannot alias with the
  // sampler. Same seed => same timed subset.
  uint64_t seed = 0;
};

class EventCostProfiler {
 public:
  struct CategoryStats {
    int64_t count = 0;     // occurrences observed (exact)
    int64_t timed = 0;     // occurrences wall-clocked
    uint64_t total_ns = 0;  // over the timed subset
    uint64_t max_ns = 0;    // over the timed subset
  };

  explicit EventCostProfiler(ProfilerConfig config = {});
  EventCostProfiler(const EventCostProfiler&) = delete;
  EventCostProfiler& operator=(const EventCostProfiler&) = delete;

  // Counts one occurrence of `c`; true when this occurrence should be timed
  // (the caller then owes exactly one End with the elapsed nanoseconds).
  bool Begin(ProfileCategory c) {
    const size_t i = static_cast<size_t>(c);
    CategoryStats& s = categories_[i];
    ++s.count;
    if (--countdown_[i] > 0) {
      return false;
    }
    countdown_[i] = config_.sample_interval;
    ++s.timed;
    return true;
  }
  void End(ProfileCategory c, uint64_t ns) {
    CategoryStats& s = categories_[static_cast<size_t>(c)];
    s.total_ns += ns;
    if (ns > s.max_ns) {
      s.max_ns = ns;
    }
  }

  void Add(ProfileStat s, int64_t n = 1) {
    stats_[static_cast<size_t>(s)] += n;
  }

  const CategoryStats& stats(ProfileCategory c) const {
    return categories_[static_cast<size_t>(c)];
  }
  int64_t stat(ProfileStat s) const {
    return stats_[static_cast<size_t>(s)];
  }
  int64_t sample_interval() const { return config_.sample_interval; }

  // Accumulates another cell's profile into this one (grid roll-up):
  // counts/timed/total_ns sum, max_ns takes the max.
  void MergeFrom(const EventCostProfiler& other);

  // {"sample_interval": N, "categories": {name: {count, timed, total_ns,
  // max_ns, mean_ns, est_total_ns}}, "counters": {name: N}}. total_ns /
  // max_ns use exact unsigned emission (they exceed 2^53 on long runs).
  void WriteJson(JsonWriter& json) const;

 private:
  ProfilerConfig config_;
  std::array<CategoryStats, kNumProfileCategories> categories_{};
  std::array<int64_t, kNumProfileCategories> countdown_{};
  std::array<int64_t, kNumProfileStats> stats_{};
};

// Null-tolerant counter helper (mirrors MetricInc).
inline void ProfileAdd(EventCostProfiler* p, ProfileStat s, int64_t n = 1) {
  if (p != nullptr) {
    p->Add(s, n);
  }
}

// RAII timing scope. Reads steady_clock only for occurrences the profiler
// elects to time; with a null profiler the whole scope is one branch.
class ProfileScope {
 public:
  ProfileScope(EventCostProfiler* profiler, ProfileCategory category)
      : profiler_(profiler), category_(category) {
    if (profiler_ != nullptr && profiler_->Begin(category_)) {
      timed_ = true;
      start_ = std::chrono::steady_clock::now();
    }
  }
  ~ProfileScope() {
    if (timed_) {
      const auto elapsed = std::chrono::steady_clock::now() - start_;
      profiler_->End(
          category_,
          static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                  .count()));
    }
  }
  ProfileScope(const ProfileScope&) = delete;
  ProfileScope& operator=(const ProfileScope&) = delete;

 private:
  EventCostProfiler* profiler_;
  ProfileCategory category_;
  bool timed_ = false;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace spotcheck

#endif  // SRC_OBS_PROFILER_H_
