#include "src/market/spot_market.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

namespace spotcheck {
namespace {

PriceTrace MakeStepTrace() {
  PriceTrace trace;
  trace.Append(SimTime::FromSeconds(0), 0.02);
  trace.Append(SimTime::FromSeconds(100), 0.10);
  trace.Append(SimTime::FromSeconds(200), 0.02);
  return trace;
}

TEST(SpotMarketTest, CurrentPriceTracksSimClock) {
  Simulator sim;
  SpotMarket market(MarketKey{InstanceType::kM3Medium, AvailabilityZone{0}},
                    MakeStepTrace());
  market.Attach(&sim);
  sim.RunUntil(SimTime::FromSeconds(150));
  EXPECT_DOUBLE_EQ(market.CurrentPrice(), 0.10);
  sim.RunUntil(SimTime::FromSeconds(250));
  EXPECT_DOUBLE_EQ(market.CurrentPrice(), 0.02);
}

TEST(SpotMarketTest, ListenersFireAtChangePoints) {
  Simulator sim;
  SpotMarket market(MarketKey{InstanceType::kM3Medium, AvailabilityZone{0}},
                    MakeStepTrace());
  std::vector<std::pair<double, double>> seen;  // (time, price)
  market.Subscribe([&](const SpotMarket&, double price) {
    seen.emplace_back(sim.Now().seconds(), price);
  });
  market.Attach(&sim);
  sim.Run();
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], std::make_pair(0.0, 0.02));
  EXPECT_EQ(seen[1], std::make_pair(100.0, 0.10));
  EXPECT_EQ(seen[2], std::make_pair(200.0, 0.02));
}

TEST(SpotMarketTest, ListenerSubscribedDuringFireHearsTheNextChange) {
  Simulator sim;
  SpotMarket market(MarketKey{InstanceType::kM3Medium, AvailabilityZone{0}},
                    MakeStepTrace());
  // The first fire subscribes enough listeners to grow the list by many
  // blocks while the subscribing listener is still running.
  constexpr int kLate = 200;
  std::vector<double> first_seen;
  std::vector<int> late_calls(kLate, 0);
  market.Subscribe([&](const SpotMarket&, double) {
    if (first_seen.empty()) {
      for (int i = 0; i < kLate; ++i) {
        market.Subscribe(
            [&late_calls, i](const SpotMarket&, double) { ++late_calls[i]; });
      }
    }
    first_seen.push_back(sim.Now().seconds());
  });
  market.Attach(&sim);
  sim.Run();
  EXPECT_EQ(first_seen, (std::vector<double>{0.0, 100.0, 200.0}));
  EXPECT_EQ(market.num_listeners(), 1u + kLate);
  // Subscribed during the fire at t = 0: they hear the changes at 100 and
  // 200 only.
  EXPECT_EQ(late_calls, std::vector<int>(kLate, 2));
}

TEST(SpotMarketTest, OnDemandPriceFromCatalog) {
  SpotMarket market(MarketKey{InstanceType::kM3Xlarge, AvailabilityZone{0}},
                    MakeStepTrace());
  EXPECT_DOUBLE_EQ(market.on_demand_price(), 0.280);
}

TEST(MarketPlaceTest, GetOrCreateIsIdempotent) {
  Simulator sim;
  MarketPlace place(&sim);
  const MarketKey key{InstanceType::kM3Medium, AvailabilityZone{0}};
  SpotMarket& a = place.GetOrCreate(key, SimDuration::Days(1), 99);
  SpotMarket& b = place.GetOrCreate(key, SimDuration::Days(1), 99);
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(place.All().size(), 1u);
}

TEST(MarketPlaceTest, FindReturnsNullForUnknown) {
  Simulator sim;
  MarketPlace place(&sim);
  EXPECT_EQ(place.Find(MarketKey{InstanceType::kM3Medium, AvailabilityZone{9}}),
            nullptr);
}

TEST(MarketPlaceTest, AddWithTraceUsesProvidedPrices) {
  Simulator sim;
  MarketPlace place(&sim);
  const MarketKey key{InstanceType::kM3Medium, AvailabilityZone{0}};
  SpotMarket* added = place.AddWithTrace(key, MakeStepTrace());
  SpotMarket* market = place.Find(key);
  ASSERT_NE(market, nullptr);
  EXPECT_EQ(added, market);
  EXPECT_DOUBLE_EQ(market->PriceAt(SimTime::FromSeconds(150)), 0.10);
}

// The first market's replay is queued on the simulator, so a second trace
// for its key is refused: the first market stays, and its listeners hear
// every change of its own trace.
TEST(MarketPlaceTest, AddWithTraceTwiceKeepsTheAttachedMarket) {
  Simulator sim;
  MarketPlace place(&sim);
  const MarketKey key{InstanceType::kM3Medium, AvailabilityZone{0}};
  SpotMarket* first = place.AddWithTrace(key, MakeStepTrace());
  ASSERT_NE(first, nullptr);
  std::vector<std::pair<double, double>> seen;  // (time, price)
  first->Subscribe([&](const SpotMarket&, double price) {
    seen.emplace_back(sim.Now().seconds(), price);
  });
  PriceTrace other;
  other.Append(SimTime::FromSeconds(50), 0.50);
  other.Append(SimTime::FromSeconds(150), 0.70);
  EXPECT_EQ(place.AddWithTrace(key, std::move(other)), nullptr);
  EXPECT_EQ(place.Find(key), first);
  EXPECT_EQ(place.All().size(), 1u);
  EXPECT_EQ(sim.Run(), 3);
  EXPECT_EQ(seen, (std::vector<std::pair<double, double>>{
                      {0.0, 0.02}, {100.0, 0.10}, {200.0, 0.02}}));
}

}  // namespace
}  // namespace spotcheck
