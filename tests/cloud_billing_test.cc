#include "src/cloud/billing.h"

#include <gtest/gtest.h>

#include "src/market/price_trace.h"

namespace spotcheck {
namespace {

TEST(BillingMeterTest, FixedRateAccrues) {
  BillingMeter meter;
  const InstanceId id(1);
  meter.StartFixed(id, SimTime(), 0.070);
  const SimTime later = SimTime() + SimDuration::Hours(10);
  EXPECT_NEAR(meter.AccruedCost(id, later), 0.70, 1e-12);
  EXPECT_NEAR(meter.TotalCost(later), 0.70, 1e-12);
}

TEST(BillingMeterTest, MeteredFollowsTrace) {
  PriceTrace trace;
  trace.Append(SimTime(), 0.01);
  trace.Append(SimTime() + SimDuration::Hours(1), 0.03);
  BillingMeter meter;
  const InstanceId id(1);
  meter.StartMetered(id, SimTime(), &trace);
  // 1h at 0.01 + 1h at 0.03 = 0.04.
  EXPECT_NEAR(meter.AccruedCost(id, SimTime() + SimDuration::Hours(2)), 0.04, 1e-9);
}

TEST(BillingMeterTest, StopFreezesCost) {
  BillingMeter meter;
  const InstanceId id(1);
  meter.StartFixed(id, SimTime(), 1.0);
  meter.Stop(id, SimTime() + SimDuration::Hours(2));
  EXPECT_EQ(meter.AccruedCost(id, SimTime() + SimDuration::Hours(5)), 0.0);
  EXPECT_NEAR(meter.TotalCost(SimTime() + SimDuration::Hours(5)), 2.0, 1e-12);
}

TEST(BillingMeterTest, StopUnknownIsNoop) {
  BillingMeter meter;
  meter.Stop(InstanceId(9), SimTime() + SimDuration::Hours(1));
  EXPECT_EQ(meter.TotalCost(SimTime() + SimDuration::Hours(1)), 0.0);
}

TEST(BillingMeterTest, MixedStreamsSum) {
  PriceTrace trace;
  trace.Append(SimTime(), 0.02);
  BillingMeter meter;
  meter.StartFixed(InstanceId(1), SimTime(), 0.07);
  meter.StartMetered(InstanceId(2), SimTime(), &trace);
  const SimTime later = SimTime() + SimDuration::Hours(1);
  EXPECT_NEAR(meter.TotalCost(later), 0.09, 1e-12);
}

TEST(BillingMeterTest, ZeroDurationIsFree) {
  BillingMeter meter;
  meter.StartFixed(InstanceId(1), SimTime() + SimDuration::Hours(1), 1.0);
  EXPECT_EQ(meter.AccruedCost(InstanceId(1), SimTime()), 0.0);
}

}  // namespace
}  // namespace spotcheck
