#include "src/virt/activity_log.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <vector>

namespace spotcheck {
namespace {

const NestedVmId kVm1(1);
const NestedVmId kVm2(2);

SimTime At(double seconds) { return SimTime::FromSeconds(seconds); }

TEST(ActivityLogTest, TotalsByKind) {
  ActivityLog log;
  log.MarkBirth(kVm1, At(0));
  log.Record(kVm1, At(10), At(20), ActivityKind::kDowntime);
  log.Record(kVm1, At(30), At(90), ActivityKind::kDegraded);
  log.Record(kVm1, At(100), At(105), ActivityKind::kDowntime);
  EXPECT_EQ(log.Total(kVm1, ActivityKind::kDowntime, At(0), At(1000)).seconds(), 15.0);
  EXPECT_EQ(log.Total(kVm1, ActivityKind::kDegraded, At(0), At(1000)).seconds(), 60.0);
}

TEST(ActivityLogTest, WindowClipping) {
  ActivityLog log;
  log.MarkBirth(kVm1, At(0));
  log.Record(kVm1, At(10), At(30), ActivityKind::kDowntime);
  EXPECT_EQ(log.Total(kVm1, ActivityKind::kDowntime, At(0), At(20)).seconds(), 10.0);
  EXPECT_EQ(log.Total(kVm1, ActivityKind::kDowntime, At(15), At(25)).seconds(), 10.0);
  EXPECT_EQ(log.Total(kVm1, ActivityKind::kDowntime, At(40), At(50)).seconds(), 0.0);
}

TEST(ActivityLogTest, ZeroOrNegativeIntervalsIgnored) {
  ActivityLog log;
  log.Record(kVm1, At(10), At(10), ActivityKind::kDowntime);
  log.Record(kVm1, At(20), At(15), ActivityKind::kDowntime);
  EXPECT_EQ(log.Total(kVm1, ActivityKind::kDowntime, At(0), At(100)),
            SimDuration::Zero());
}

TEST(ActivityLogTest, LifetimeRespectsBirthAndDeath) {
  ActivityLog log;
  log.MarkBirth(kVm1, At(100));
  log.MarkDeath(kVm1, At(300));
  EXPECT_EQ(log.Lifetime(kVm1, At(0), At(1000)).seconds(), 200.0);
  EXPECT_EQ(log.Lifetime(kVm1, At(0), At(150)).seconds(), 50.0);
  EXPECT_EQ(log.Lifetime(kVm1, At(400), At(500)).seconds(), 0.0);
}

TEST(ActivityLogTest, MeanFractionAveragesAcrossVms) {
  ActivityLog log;
  log.MarkBirth(kVm1, At(0));
  log.MarkBirth(kVm2, At(0));
  // VM1: 10% down; VM2: 30% down over a 100 s window.
  log.Record(kVm1, At(0), At(10), ActivityKind::kDowntime);
  log.Record(kVm2, At(0), At(30), ActivityKind::kDowntime);
  EXPECT_NEAR(log.MeanFraction(ActivityKind::kDowntime, At(0), At(100)), 0.20,
              1e-12);
  EXPECT_EQ(log.MeanFraction(ActivityKind::kDegraded, At(0), At(100)), 0.0);
}

TEST(ActivityLogTest, MeanFractionSkipsUnbornVms) {
  ActivityLog log;
  log.MarkBirth(kVm1, At(0));
  log.Record(kVm1, At(0), At(10), ActivityKind::kDowntime);
  log.MarkBirth(kVm2, At(500));  // born after the window
  EXPECT_NEAR(log.MeanFraction(ActivityKind::kDowntime, At(0), At(100)), 0.10,
              1e-12);
}

TEST(ActivityLogTest, UnknownVmIsEmpty) {
  ActivityLog log;
  EXPECT_EQ(log.Total(kVm1, ActivityKind::kDowntime, At(0), At(10)),
            SimDuration::Zero());
  EXPECT_EQ(log.Lifetime(kVm1, At(0), At(10)), SimDuration::Zero());
  EXPECT_EQ(log.IntervalsFor(kVm1), nullptr);
}

// The ordered-map log ActivityLog used before its records moved into a
// FleetTable, kept as the reference model: same record semantics, same
// ascending-id sum in MeanFraction.
class MapActivityLog {
 public:
  void Record(NestedVmId vm, SimTime start, SimTime end, ActivityKind kind) {
    if (end <= start) {
      return;
    }
    VmRecord& record = vms_[vm];
    if (record.intervals.empty() && record.birth == SimTime() &&
        start > SimTime()) {
      record.birth = start;
    }
    record.intervals.push_back({start, end, kind});
  }
  void MarkBirth(NestedVmId vm, SimTime at) { vms_[vm].birth = at; }
  void MarkDeath(NestedVmId vm, SimTime at) { vms_[vm].death = at; }

  SimDuration Total(NestedVmId vm, ActivityKind kind, SimTime from,
                    SimTime to) const {
    const auto it = vms_.find(vm);
    SimDuration total = SimDuration::Zero();
    if (it == vms_.end()) {
      return total;
    }
    for (const ActivityInterval& interval : it->second.intervals) {
      if (interval.kind == kind) {
        total += Clip(interval.start, interval.end, from, to);
      }
    }
    return total;
  }
  SimDuration Lifetime(NestedVmId vm, SimTime from, SimTime to) const {
    const auto it = vms_.find(vm);
    return it == vms_.end()
               ? SimDuration::Zero()
               : Clip(it->second.birth, it->second.death, from, to);
  }
  double MeanFraction(ActivityKind kind, SimTime from, SimTime to) const {
    double sum = 0.0;
    int64_t n = 0;
    for (const auto& [vm, record] : vms_) {
      const SimDuration life = Lifetime(vm, from, to);
      if (life <= SimDuration::Zero()) {
        continue;
      }
      sum += Total(vm, kind, from, to) / life;
      ++n;
    }
    return n > 0 ? sum / static_cast<double>(n) : 0.0;
  }
  const std::vector<ActivityInterval>* IntervalsFor(NestedVmId vm) const {
    const auto it = vms_.find(vm);
    return it == vms_.end() ? nullptr : &it->second.intervals;
  }

 private:
  struct VmRecord {
    SimTime birth;
    SimTime death = SimTime::Max();
    std::vector<ActivityInterval> intervals;
  };
  static SimDuration Clip(SimTime start, SimTime end, SimTime from,
                          SimTime to) {
    const SimTime s = std::max(start, from);
    const SimTime e = std::min(end, to);
    return e > s ? e - s : SimDuration::Zero();
  }
  std::map<NestedVmId, VmRecord> vms_;
};

bool SameIntervals(const std::vector<ActivityInterval>* got,
                   const std::vector<ActivityInterval>* want) {
  if (got == nullptr || want == nullptr) {
    return got == want;
  }
  return std::equal(got->begin(), got->end(), want->begin(), want->end(),
                    [](const ActivityInterval& a, const ActivityInterval& b) {
                      return a.start == b.start && a.end == b.end &&
                             a.kind == b.kind;
                    });
}

// Seeded random births, deaths and intervals (empty and inverted ones
// included) on 300 sparse VM ids, about 12 apart up to 3,590, so most ids
// in the range checked were never recorded. After each batch
// every per-VM query, and MeanFraction over several windows, must equal
// the map log's exactly -- the mean is summed in the same id order, so
// the doubles match bit for bit.
TEST(ActivityLogTest, MatchesMapLogReferenceModel) {
  for (const uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    ActivityLog log;
    MapActivityLog model;
    std::mt19937_64 rng(seed);
    const auto random_vm = [&rng]() {
      const uint64_t slot = rng() % 300;
      return NestedVmId(1 + slot * 12 + (slot % 3 == 2 ? 1 : 0));
    };
    const auto random_time = [&rng]() {
      return SimTime::FromSeconds(static_cast<double>(rng() % 100'000));
    };
    const auto kind = [&rng]() {
      return rng() % 2 == 0 ? ActivityKind::kDowntime : ActivityKind::kDegraded;
    };
    for (int batch = 0; batch < 20; ++batch) {
      for (int step = 0; step < 200; ++step) {
        const NestedVmId vm = random_vm();
        const uint64_t op = rng() % 10;
        if (op < 2) {
          const SimTime at = random_time();
          log.MarkBirth(vm, at);
          model.MarkBirth(vm, at);
        } else if (op < 3) {
          const SimTime at = random_time();
          log.MarkDeath(vm, at);
          model.MarkDeath(vm, at);
        } else {
          const SimTime start = random_time();
          // A tenth of the intervals are empty or inverted.
          const double length =
              rng() % 10 == 0 ? -static_cast<double>(rng() % 50)
                              : static_cast<double>(1 + rng() % 5'000);
          const SimTime end = start + SimDuration::Seconds(length);
          const ActivityKind k = kind();
          log.Record(vm, start, end, k);
          model.Record(vm, start, end, k);
        }
      }
      const SimTime from = random_time();
      const SimTime to = from + SimDuration::Seconds(
                                    static_cast<double>(1 + rng() % 60'000));
      for (uint64_t value = 1; value <= 3'700; ++value) {
        const NestedVmId vm(value);
        ASSERT_TRUE(SameIntervals(log.IntervalsFor(vm), model.IntervalsFor(vm)))
            << vm.ToString() << " batch " << batch;
        ASSERT_EQ(log.Lifetime(vm, from, to), model.Lifetime(vm, from, to))
            << vm.ToString() << " batch " << batch;
        for (const ActivityKind k :
             {ActivityKind::kDowntime, ActivityKind::kDegraded}) {
          ASSERT_EQ(log.Total(vm, k, from, to), model.Total(vm, k, from, to))
              << vm.ToString() << " batch " << batch;
        }
      }
      for (const ActivityKind k :
           {ActivityKind::kDowntime, ActivityKind::kDegraded}) {
        EXPECT_EQ(log.MeanFraction(k, from, to),
                  model.MeanFraction(k, from, to))
            << "batch " << batch;
        EXPECT_EQ(log.MeanFraction(k, SimTime(), SimTime::Max()),
                  model.MeanFraction(k, SimTime(), SimTime::Max()))
            << "batch " << batch;
      }
    }
    // Gaps stay unknown: no record, so no lifetime to dilute the mean.
    EXPECT_EQ(log.IntervalsFor(NestedVmId(3)), nullptr);
    EXPECT_EQ(log.IntervalsFor(NestedVmId(1'000'000)), nullptr);
  }
}

}  // namespace
}  // namespace spotcheck
