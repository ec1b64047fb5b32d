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
  EXPECT_NEAR(meter.TotalInstanceHours(SimTime() + SimDuration::Hours(5)), 2.0,
              1e-12);
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
  EXPECT_NEAR(meter.TotalInstanceHours(later), 2.0, 1e-12);
}

TEST(BillingMeterTest, ZeroDurationIsFree) {
  BillingMeter meter;
  meter.StartFixed(InstanceId(1), SimTime() + SimDuration::Hours(1), 1.0);
  EXPECT_EQ(meter.AccruedCost(InstanceId(1), SimTime()), 0.0);
}

TEST(BillingMeterTest, HourlyQuantumRoundsUpOnStop) {
  // EC2 (2014): 1 h 10 min of use bills as two full hours.
  BillingMeter meter;
  meter.set_hourly_quantum(true);
  meter.StartFixed(InstanceId(1), SimTime(), 0.070);
  meter.Stop(InstanceId(1), SimTime() + SimDuration::Minutes(70));
  EXPECT_NEAR(meter.TotalCost(SimTime() + SimDuration::Hours(5)), 2 * 0.070, 1e-9);
  EXPECT_NEAR(meter.TotalInstanceHours(SimTime() + SimDuration::Hours(5)), 2.0,
              1e-9);
}

TEST(BillingMeterTest, HourlyQuantumExactHourNotRoundedUp) {
  BillingMeter meter;
  meter.set_hourly_quantum(true);
  meter.StartFixed(InstanceId(1), SimTime(), 0.070);
  meter.Stop(InstanceId(1), SimTime() + SimDuration::Hours(3));
  EXPECT_NEAR(meter.TotalCost(SimTime() + SimDuration::Hours(5)), 3 * 0.070, 1e-9);
}

TEST(BillingMeterTest, HourlyQuantumStopAtLaunchInstantBillsZero) {
  BillingMeter meter;
  meter.set_hourly_quantum(true);
  meter.StartFixed(InstanceId(1), SimTime() + SimDuration::Hours(1), 1.0);
  meter.Stop(InstanceId(1), SimTime() + SimDuration::Hours(1));
  EXPECT_EQ(meter.TotalCost(SimTime() + SimDuration::Hours(5)), 0.0);
  EXPECT_EQ(meter.TotalInstanceHours(SimTime() + SimDuration::Hours(5)), 0.0);
}

TEST(BillingMeterTest, HourlyQuantumTinyPositiveUseBillsOneHour) {
  // Regression: ceil(hours - 1e-9) billed zero for streams shorter than
  // 3.6 us (1e-9 hours). Any positive use must bill one whole quantum.
  BillingMeter meter;
  meter.set_hourly_quantum(true);
  meter.StartFixed(InstanceId(1), SimTime(), 1.0);
  meter.Stop(InstanceId(1), SimTime() + SimDuration::Micros(1));
  EXPECT_NEAR(meter.TotalCost(SimTime() + SimDuration::Hours(5)), 1.0, 1e-12);
  EXPECT_NEAR(meter.TotalInstanceHours(SimTime() + SimDuration::Hours(5)), 1.0,
              1e-12);
}

TEST(BillingMeterTest, HourlyQuantumExactHoursBillExactly) {
  // A stop exactly N hours after launch bills exactly N quanta, including
  // within a microsecond on either side of the boundary.
  BillingMeter meter;
  meter.set_hourly_quantum(true);
  meter.StartFixed(InstanceId(1), SimTime(), 1.0);
  meter.Stop(InstanceId(1), SimTime() + SimDuration::Hours(7));
  EXPECT_NEAR(meter.TotalInstanceHours(SimTime() + SimDuration::Hours(10)), 7.0,
              1e-12);

  BillingMeter under;
  under.set_hourly_quantum(true);
  under.StartFixed(InstanceId(2), SimTime(), 1.0);
  under.Stop(InstanceId(2),
             SimTime() + SimDuration::Hours(7) - SimDuration::Micros(1));
  EXPECT_NEAR(under.TotalInstanceHours(SimTime() + SimDuration::Hours(10)), 7.0,
              1e-12);

  BillingMeter over;
  over.set_hourly_quantum(true);
  over.StartFixed(InstanceId(3), SimTime(), 1.0);
  over.Stop(InstanceId(3),
            SimTime() + SimDuration::Hours(7) + SimDuration::Micros(1));
  EXPECT_NEAR(over.TotalInstanceHours(SimTime() + SimDuration::Hours(10)), 8.0,
              1e-12);
}

TEST(BillingMeterTest, HourlyQuantumMeteredStreamsBillSpikePrices) {
  // A spot instance stopped 10 minutes into a spiked hour still pays the
  // spike for the rounded-up remainder.
  PriceTrace trace;
  trace.Append(SimTime(), 0.01);
  trace.Append(SimTime() + SimDuration::Hours(1), 1.00);
  BillingMeter meter;
  meter.set_hourly_quantum(true);
  meter.StartMetered(InstanceId(1), SimTime(), &trace);
  meter.Stop(InstanceId(1), SimTime() + SimDuration::Minutes(70));
  EXPECT_NEAR(meter.TotalCost(SimTime() + SimDuration::Hours(5)), 0.01 + 1.00,
              1e-9);
}

}  // namespace
}  // namespace spotcheck
