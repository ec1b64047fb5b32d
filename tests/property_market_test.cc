// Property-style sweeps over the market substrate: invariants of synthetic
// price traces for every instance type and several seeds.

#include <gtest/gtest.h>

#include <tuple>

#include "src/market/market_analytics.h"
#include "src/market/spot_price_process.h"
#include "tests/oracles/cost_model.h"

namespace spotcheck {
namespace {

using MarketPoint = std::tuple<InstanceType, uint64_t>;  // (type, seed)

class MarketPropertyTest : public testing::TestWithParam<MarketPoint> {
 protected:
  MarketPropertyTest()
      : type_(std::get<0>(GetParam())),
        seed_(std::get<1>(GetParam())),
        horizon_(SimDuration::Days(90)),
        trace_(GenerateMarketTrace(MarketKey{type_, AvailabilityZone{1}},
                                   horizon_, seed_)) {}

  SimTime End() const { return SimTime() + horizon_; }

  InstanceType type_;
  uint64_t seed_;
  SimDuration horizon_;
  PriceTrace trace_;
};

TEST_P(MarketPropertyTest, PricesPositiveAndBounded) {
  const auto params = CalibratedParams(MarketKey{type_, AvailabilityZone{1}});
  for (double price : trace_.prices()) {
    EXPECT_GT(price, 0.0);
    EXPECT_LE(price,
              params.spike_cap_multiple * params.on_demand_price + 1e-9);
  }
}

TEST_P(MarketPropertyTest, ChangePointsStrictlyOrdered) {
  const auto& times = trace_.times_us();
  for (size_t i = 1; i < times.size(); ++i) {
    EXPECT_LE(times[i - 1], times[i]);
  }
}

TEST_P(MarketPropertyTest, AvailabilityMonotoneInBid) {
  double last = -1.0;
  for (double ratio = 0.0; ratio <= 2.0; ratio += 0.25) {
    const double availability = trace_.FractionAtOrBelow(
        ratio * OnDemandPrice(type_), SimTime(), End());
    EXPECT_GE(availability, last);
    EXPECT_GE(availability, 0.0);
    EXPECT_LE(availability, 1.0);
    last = availability;
  }
}

TEST_P(MarketPropertyTest, MeanPriceWithinObservedRange) {
  double lo = 1e9;
  double hi = 0.0;
  for (double price : trace_.prices()) {
    lo = std::min(lo, price);
    hi = std::max(hi, price);
  }
  const double mean = trace_.MeanPrice(SimTime(), End());
  EXPECT_GE(mean, lo - 1e-12);
  EXPECT_LE(mean, hi + 1e-12);
}

TEST_P(MarketPropertyTest, RevocationProbabilityComplementsAvailability) {
  const double bid = OnDemandPrice(type_);
  EXPECT_NEAR(RevocationProbability(trace_, bid, SimTime(), End()) +
                  trace_.FractionAtOrBelow(bid, SimTime(), End()),
              1.0, 1e-12);
}

TEST_P(MarketPropertyTest, JumpsAreAllPositiveMagnitudes) {
  const auto jumps = trace_.HourlyJumps(SimTime(), End());
  for (double j : jumps.increasing) {
    EXPECT_GT(j, 0.0);
  }
  for (double j : jumps.decreasing) {
    EXPECT_GT(j, 0.0);
    EXPECT_LE(j, 100.0);  // a decrease cannot exceed -100%
  }
}

TEST_P(MarketPropertyTest, Deterministic) {
  const PriceTrace again =
      GenerateMarketTrace(MarketKey{type_, AvailabilityZone{1}}, horizon_, seed_);
  ASSERT_EQ(again.size(), trace_.size());
  for (size_t i = 0; i < again.size(); ++i) {
    EXPECT_EQ(again.time(i), trace_.time(i));
    EXPECT_DOUBLE_EQ(again.price(i), trace_.price(i));
  }
}

TEST_P(MarketPropertyTest, CrossingsMatchDerivedInputs) {
  const double bid = OnDemandPrice(type_);
  const auto derived = DeriveFromTrace(trace_, bid, SimTime(), End());
  EXPECT_EQ(derived.revocations, CountBidCrossings(trace_, bid, SimTime(), End()));
  EXPECT_GE(derived.mean_spot_price_below_bid, 0.0);
  EXPECT_LE(derived.mean_spot_price_below_bid, bid + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MarketPropertyTest,
    testing::Combine(testing::Values(InstanceType::kM1Small,
                                     InstanceType::kM3Medium,
                                     InstanceType::kM3Large,
                                     InstanceType::kM32xlarge,
                                     InstanceType::kC3Xlarge,
                                     InstanceType::kR38xlarge),
                     testing::Values(1u, 7u, 1234u)));

}  // namespace
}  // namespace spotcheck
