#include "src/market/spot_market.h"

#include <gtest/gtest.h>

#include <limits>
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

constexpr double kInf = std::numeric_limits<double>::infinity();

// 0 s: 0.02, 100 s: 0.10, 200 s: 0.02, 300 s: 0.30, 400 s: 0.02.
PriceTrace MakeSpikeTrace() {
  PriceTrace trace;
  trace.Append(SimTime::FromSeconds(0), 0.02);
  trace.Append(SimTime::FromSeconds(100), 0.10);
  trace.Append(SimTime::FromSeconds(200), 0.02);
  trace.Append(SimTime::FromSeconds(300), 0.30);
  trace.Append(SimTime::FromSeconds(400), 0.02);
  return trace;
}

TEST(SpotMarketQuietBandTest, ReplaysOnlyPointsOutsideEveryBand) {
  Simulator sim;
  SpotMarket market(MarketKey{InstanceType::kM3Medium, AvailabilityZone{0}},
                    MakeSpikeTrace());
  std::vector<double> heard_a;
  std::vector<double> heard_b;
  const size_t a = market.Subscribe(
      [&](const SpotMarket&, double price) { heard_a.push_back(price); });
  const size_t b = market.Subscribe(
      [&](const SpotMarket&, double price) { heard_b.push_back(price); });
  market.SetQuietBand(a, -kInf, 0.2);  // ignores prices up to 0.2
  market.SetQuietBand(b, 0.05, kInf);  // ignores prices above 0.05
  market.Attach(&sim);
  // Only 0.10 lies in both bands; every listener hears every other point.
  EXPECT_EQ(sim.Run(), 4);
  EXPECT_EQ(heard_a, (std::vector<double>{0.02, 0.02, 0.30, 0.02}));
  EXPECT_EQ(heard_b, heard_a);
}

TEST(SpotMarketQuietBandTest, NoListenersReplayNothing) {
  Simulator sim;
  SpotMarket market(MarketKey{InstanceType::kM3Medium, AvailabilityZone{0}},
                    MakeSpikeTrace());
  market.Attach(&sim);
  EXPECT_EQ(sim.Run(), 0);
  // The clock still serves the trace price.
  sim.RunUntil(SimTime::FromSeconds(350));
  EXPECT_DOUBLE_EQ(market.CurrentPrice(), 0.30);
}

// A band that narrows mid-run exposes the points after the clock, not the
// ones already passed. The callback at 200 s was scheduled before the
// attach, so it runs before the point at 200 s, which then fires.
TEST(SpotMarketQuietBandTest, NarrowingExposesOnlyPointsNotYetPassed) {
  Simulator sim;
  SpotMarket market(MarketKey{InstanceType::kM3Medium, AvailabilityZone{0}},
                    MakeSpikeTrace());
  std::vector<std::pair<double, double>> heard;  // (time, price)
  const size_t listener =
      market.Subscribe([&](const SpotMarket&, double price) {
        heard.emplace_back(sim.Now().seconds(), price);
      });
  market.SetQuietBand(listener, -kInf, kInf);  // quiet at every price
  sim.ScheduleAt(SimTime::FromSeconds(200), [&] {
    market.SetQuietBand(listener, -kInf, 0.2);
  });
  market.Attach(&sim);
  sim.Run();
  EXPECT_EQ(heard, (std::vector<std::pair<double, double>>{{300.0, 0.30}}));

  // Narrowing to never-quiet between runs: the points at or before the
  // clock were passed; only those after it fire.
  Simulator sim2;
  SpotMarket market2(MarketKey{InstanceType::kM3Medium, AvailabilityZone{0}},
                     MakeSpikeTrace());
  std::vector<double> heard2;
  const size_t listener2 = market2.Subscribe(
      [&](const SpotMarket&, double price) { heard2.push_back(price); });
  market2.SetQuietBand(listener2, -kInf, kInf);
  market2.Attach(&sim2);
  sim2.RunUntil(SimTime::FromSeconds(200));
  market2.SetQuietBand(listener2, kInf, -kInf);
  sim2.Run();
  EXPECT_EQ(heard2, (std::vector<double>{0.30, 0.02}));
}

// While a price override is active every trace point fires, exactly as
// without bands: FireListeners swallows those that differ from the
// override and delivers one that equals it. Clearing the override widens
// the band without a reseek, so the point queued under the override still
// fires; a listener must treat a point inside its band as a no-op.
TEST(SpotMarketQuietBandTest, OverrideReplaysEveryPoint) {
  Simulator sim;
  SpotMarket market(MarketKey{InstanceType::kM3Medium, AvailabilityZone{0}},
                    MakeSpikeTrace());
  std::vector<double> heard;
  const size_t listener = market.Subscribe(
      [&](const SpotMarket&, double price) { heard.push_back(price); });
  market.SetQuietBand(listener, -kInf, kInf);
  market.Attach(&sim);
  sim.RunUntil(SimTime::FromSeconds(50));
  market.SetPriceOverride(0.02);
  sim.RunUntil(SimTime::FromSeconds(250));
  market.ClearPriceOverride();
  sim.Run();
  // The shock itself, the trace's 0.02 at 200 s under it, the resume, and
  // the point at 300 s queued while the override was active.
  EXPECT_EQ(heard, (std::vector<double>{0.02, 0.02, 0.02, 0.30}));
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
