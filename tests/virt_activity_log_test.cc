#include "src/virt/activity_log.h"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace spotcheck
