#include "tests/oracles/cost_model.h"

#include <gtest/gtest.h>

#include "src/market/spot_price_process.h"

namespace spotcheck {
namespace {

TEST(ExpectedHourlyCostTest, PaperHeadlineNumbers) {
  // Section 6.2: spot component ~$0.008, backup ~$0.007 -> ~$0.015/hr for a
  // $0.07 on-demand equivalent, i.e. ~4.7x cheaper.
  CostModelInputs inputs;
  inputs.on_demand_price = 0.07;
  inputs.mean_spot_price_below_bid = 0.008;
  inputs.revocation_probability = 0.01;
  inputs.backup_cost_per_vm = 0.007;
  const double cost = ExpectedHourlyCost(inputs);
  EXPECT_NEAR(cost, 0.0156, 0.0005);
  EXPECT_GT(inputs.on_demand_price / cost, 4.0);
}

TEST(ExpectedHourlyCostTest, DegeneratesToOnDemandAtP1) {
  CostModelInputs inputs;
  inputs.on_demand_price = 0.07;
  inputs.revocation_probability = 1.0;
  inputs.backup_cost_per_vm = 0.0;
  EXPECT_DOUBLE_EQ(ExpectedHourlyCost(inputs), 0.07);
}

TEST(ExpectedHourlyCostTest, PureSpotAtP0) {
  CostModelInputs inputs;
  inputs.mean_spot_price_below_bid = 0.008;
  inputs.revocation_probability = 0.0;
  inputs.backup_cost_per_vm = 0.0;
  EXPECT_DOUBLE_EQ(ExpectedHourlyCost(inputs), 0.008);
}

TEST(ExpectedUnavailabilityTest, Formula) {
  // D * p / T with D=23s, p=0.01, T=1h -> 6.4e-5.
  AvailabilityModelInputs inputs;
  inputs.downtime_per_migration = SimDuration::Seconds(23);
  inputs.revocation_probability = 0.01;
  inputs.price_change_period = SimDuration::Hours(1);
  EXPECT_NEAR(ExpectedUnavailability(inputs), 23.0 * 0.01 / 3600.0, 1e-12);
}

TEST(ExpectedUnavailabilityTest, PaperFiveNines) {
  // m3.medium over six months: ~7.5 revocations (T ~ 24 days), 23 s each
  // -> availability ~99.999%.
  AvailabilityModelInputs inputs;
  inputs.downtime_per_migration = SimDuration::Seconds(23);
  inputs.revocation_probability = 1.0;  // one revocation per period
  inputs.price_change_period = SimDuration::Days(24);
  const double unavailability = ExpectedUnavailability(inputs);
  EXPECT_LT(unavailability, 2e-5);
  EXPECT_GT(1.0 - unavailability, 0.99998);
}

TEST(ExpectedUnavailabilityTest, ClampsAndDegenerates) {
  AvailabilityModelInputs inputs;
  inputs.price_change_period = SimDuration::Zero();
  EXPECT_EQ(ExpectedUnavailability(inputs), 0.0);
  inputs.price_change_period = SimDuration::Seconds(1);
  inputs.downtime_per_migration = SimDuration::Seconds(100);
  inputs.revocation_probability = 1.0;
  EXPECT_EQ(ExpectedUnavailability(inputs), 1.0);
}

TEST(DeriveFromTraceTest, StepTrace) {
  // 200s at 0.02, 100s at 0.10 (above a 0.07 bid), repeated pattern end.
  PriceTrace trace;
  trace.Append(SimTime::FromSeconds(0), 0.02);
  trace.Append(SimTime::FromSeconds(200), 0.10);
  trace.Append(SimTime::FromSeconds(300), 0.02);
  const auto derived =
      DeriveFromTrace(trace, 0.07, SimTime(), SimTime::FromSeconds(400));
  EXPECT_NEAR(derived.revocation_probability, 0.25, 1e-12);
  EXPECT_NEAR(derived.mean_spot_price_below_bid, 0.02, 1e-12);
  EXPECT_EQ(derived.revocations, 1);
  EXPECT_NEAR(derived.mean_time_between_revocations.seconds(), 400.0, 1e-9);
}

TEST(DeriveFromTraceTest, EmptyTraceIsSafe) {
  const auto derived =
      DeriveFromTrace(PriceTrace{}, 0.07, SimTime(), SimTime::FromSeconds(100));
  EXPECT_EQ(derived.revocations, 0);
  EXPECT_EQ(derived.revocation_probability, 0.0);
}

TEST(DeriveFromTraceTest, ModelMatchesCalibratedMarket) {
  // The closed-form cost fed by trace-derived inputs should land near the
  // paper's $0.015/hr for the m3.medium market.
  const PriceTrace trace = GenerateMarketTrace(
      MarketKey{InstanceType::kM3Medium, AvailabilityZone{0}},
      SimDuration::Days(180), 2);
  const auto derived = DeriveFromTrace(trace, 0.07, SimTime(),
                                       SimTime() + SimDuration::Days(180));
  CostModelInputs inputs;
  inputs.on_demand_price = 0.07;
  inputs.mean_spot_price_below_bid = derived.mean_spot_price_below_bid;
  inputs.revocation_probability = derived.revocation_probability;
  inputs.backup_cost_per_vm = 0.007;
  const double cost = ExpectedHourlyCost(inputs);
  EXPECT_GT(cost, 0.010);
  EXPECT_LT(cost, 0.025);
}

}  // namespace
}  // namespace spotcheck
